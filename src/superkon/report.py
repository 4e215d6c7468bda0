"""Structured results of verification sweeps.

A Report is deterministic for a given configuration and window: violations
are kept in lexicographic input order regardless of evaluation order
(wall-clock stats are the one non-reproducible field and are excluded
from canonical comparisons).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .exactnum import UsageError

PASS = "pass"
FAIL = "fail"
INFO = "info"


@dataclass(frozen=True)
class Window:
    """Truncation window for sweeps over Z-graded objects.

    ``k_min..k_max`` bounds the stored exponent ``p`` of the generators
    ``D[t^p, xi_I]`` and of the function monomials ``t^p xi_I`` (see
    ``TensorModule.window_ops``), ``l_min..l_max`` bounds module weight
    offsets.  Results are only trusted on the inner window
    (``l`` range shrunk by ``inner_margin`` on both sides), which must be
    sized so no generator can move an inner vector outside the window.
    """

    k_min: int = -3
    k_max: int = 3
    l_min: int = -12
    l_max: int = 12
    inner_margin: int = 0

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise UsageError("empty generator exponent range")
        if self.inner_margin < 0:
            raise UsageError("inner_margin must be nonnegative")
        if self.l_min + self.inner_margin > self.l_max - self.inner_margin:
            raise UsageError("inner window is empty")

    @property
    def inner_l_min(self) -> int:
        return self.l_min + self.inner_margin

    @property
    def inner_l_max(self) -> int:
        return self.l_max - self.inner_margin

    def k_values(self):
        return range(self.k_min, self.k_max + 1)


def violation(inputs, lhs="", rhs="", diff="") -> dict:
    return {"inputs": str(inputs), "lhs": str(lhs), "rhs": str(rhs),
            "diff": str(diff)}


@dataclass
class Report:
    check_id: str
    status: str
    violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self, with_timing: bool = True) -> dict:
        stats = dict(self.stats)
        if not with_timing:
            stats.pop("elapsed_ms", None)
        out = {"check_id": self.check_id, "status": self.status,
               "violations": self.violations, "stats": stats}
        if self.details:
            out["details"] = self.details
        return out

    def to_json(self, with_timing: bool = True) -> str:
        return json.dumps(self.to_dict(with_timing), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        return cls(d["check_id"], d["status"], list(d.get("violations", [])),
                   dict(d.get("stats", {})), dict(d.get("details", {})))

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))

    @property
    def ok(self) -> bool:
        return self.status != FAIL


def finish(check_id: str, violations: list, tuples_checked: int, t0: float,
           status: str | None = None, details: dict | None = None) -> Report:
    """Assemble a Report; violations are sorted by their inputs text."""
    violations = sorted(violations, key=lambda v: v["inputs"])
    if status is None:
        status = FAIL if violations else PASS
    elif status == INFO and violations:
        status = FAIL
    stats = {"tuples_checked": tuples_checked,
             "elapsed_ms": int((time.monotonic() - t0) * 1000)}
    return Report(check_id, status, violations, stats, details or {})
