"""The outcome gate: run checks, and compare each Report with its pinned outcome.

A check fails the gate when its gated outcome differs from the pin or when
it raises.  Only ``status``, the number of violations and the verdict fields
are gated; counters and timings are not.
"""

from __future__ import annotations

import sys
import time
import traceback

VERDICT_FIELDS = ("verdict", "smallest_inner_dims", "minimal_m", "all_found")


def outcome(report) -> dict:
    """The gated part of a Report."""
    out = {"status": report.status, "violations": len(report.violations)}
    for key in VERDICT_FIELDS:
        if key in report.details:
            out[key] = report.details[key]
    return out


def run_checks(checks, expected: dict) -> list:
    """Run each check once, in order; one result dict per check.

    A result holds the check's name and function, its span (``start`` and
    ``end`` on the monotonic clock), ``tuples_checked``, the gated outcome
    (``None`` when the check raised) and ``ok``.
    """
    results = []
    for check in checks:
        start = time.monotonic()
        try:
            report = check.run()
        except Exception:  # a raising check is a gate failure, not a crash
            traceback.print_exc(file=sys.stderr)
            report = None
        end = time.monotonic()
        got = None if report is None else outcome(report)
        ok = got is not None and got == expected.get(check.name)
        if not ok:
            print(f"gate: {check.name}: expected {expected.get(check.name)}, "
                  f"got {got}", file=sys.stderr)
        results.append({
            "name": check.name, "function": check.function,
            "start": start, "end": end, "ok": ok, "outcome": got,
            "tuples_checked": 0 if report is None
            else report.stats.get("tuples_checked", 0),
        })
    return results


def fail_frac(results) -> float:
    return sum(not r["ok"] for r in results) / len(results)
