"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public functions of each layer with
aggregating wrappers: call count, self time (inclusive time minus the time
of wrapped calls made inside it) and, where the layer has them, outcome
counts.  Functions are replaced in every ``superkon`` module that imported
them by name (``bracket_ints`` lives in ``algebra``, ``tensmod`` and
``verify``); methods are replaced on their class, under every alias
(``Scalar.__radd__`` is ``Scalar.__add__``).  There are no per-call spans:
``bracket_ints`` alone runs about a million times per Jacobi sweep.

Which end-to-end metric each layer should move, and on which workload:

* ``algebra.bracket_ints``, ``algebra.bracket``, ``grassmann.contact_bracket``:
  ``wall_s`` on bracket_sweep (a little on module_identities through the
  ``act_basis_d`` recursion, near zero on module_closure);
* ``exactnum.Scalar.*``, ``exactnum.GaussRat.*``, ``tensmod.TensorModule.act``,
  ``tensmod.EvaluatedAction.act_d``: ``wall_s`` on module_identities;
* ``tensmod.act_basis_d``: ``wall_s`` and ``peak_rss_mb`` on module_identities
  (its memo grows without bound);
* ``tensmod.EvaluatedAction.act_vec``, ``linalg.Echelon.*``: ``wall_s`` on
  module_closure; ``Echelon.insert`` is never called on the other two.
"""

from __future__ import annotations

import functools
import sys
import time

from superkon.exactnum import GaussRat, Scalar
from superkon.linalg import Echelon
from superkon.tensmod import EvaluatedAction, TensorModule

FUNCTIONS = (
    ("superkon.algebra", "bracket_ints", "algebra.bracket_ints"),
    ("superkon.algebra", "bracket", "algebra.bracket"),
    ("superkon.grassmann", "contact_bracket", "grassmann.contact_bracket"),
    ("superkon.submod", "named_submodule", "submod.named_submodule"),
    ("superkon.tables", "compare_table", "tables.compare_table"),
)
METHODS = (
    (Scalar, "__mul__", "exactnum.Scalar.mul"),
    (Scalar, "__add__", "exactnum.Scalar.add"),
    (Scalar, "eval", "exactnum.Scalar.eval"),
    (GaussRat, "__mul__", "exactnum.GaussRat.mul"),
    (GaussRat, "__add__", "exactnum.GaussRat.add"),
    (TensorModule, "act_basis_d", "tensmod.act_basis_d"),
    (TensorModule, "act", "tensmod.TensorModule.act"),
    (EvaluatedAction, "table", "tensmod.EvaluatedAction.table"),
    (EvaluatedAction, "act_vec", "tensmod.EvaluatedAction.act_vec"),
    (EvaluatedAction, "act_d", "tensmod.EvaluatedAction.act_d"),
    (Echelon, "insert", "linalg.Echelon.insert"),
    (Echelon, "contains", "linalg.Echelon.contains"),
)
MEMOIZED = ("tensmod.act_basis_d", "tensmod.EvaluatedAction.table")
INSERT_OUTCOMES = ("new", "dependent", "inconsistent")


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self._stack = [0.0]  # time spent in wrapped children, per open call
        self._keys = {name: set() for name in MEMOIZED}
        self.max_coeff_bits = 0

    def install(self):
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.startswith("superkon")
                        and getattr(mod, attr, None) is original):
                    setattr(mod, attr, wrapper)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            after = (self._count_key if name in MEMOIZED
                     else self._count_insert if attr == "insert" else None)
            wrapper = self._wrap(original, name, after)
            for alias, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, alias, wrapper)

    def _wrap(self, fn, name, after=None):
        st = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st["self_s"] += dt - stack.pop()
                stack[-1] += dt
                st["calls"] += 1
            if after is not None:
                after(name, args, result)
            return result

        return wrapper

    def _count_key(self, name, args, result):
        # (self, p, imask, bv): the memo key plus the object owning the memo
        self._keys[name].add(args)

    def _count_insert(self, name, args, result):
        st = self.stats[name]
        st[result] = st.get(result, 0) + 1
        if result == "new":
            row = next(reversed(args[0].rows.values()))  # the row just stored
            bits = max(max(abs(r).bit_length(), abs(m).bit_length())
                       for r, m in row)
            self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def metrics(self) -> dict:
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st["calls"]
            out[f"{name}.self_s"] = st["self_s"]
        for name in MEMOIZED:
            calls = self.stats[name]["calls"]
            misses = len(self._keys[name])
            out[f"{name}.misses"] = misses
            if name == "tensmod.act_basis_d":
                out[f"{name}.hit_ratio"] = (calls - misses) / calls if calls else 0.0
        ins = self.stats["linalg.Echelon.insert"]
        for outcome in INSERT_OUTCOMES:
            out[f"linalg.Echelon.insert.{outcome}"] = ins.get(outcome, 0)
        out["linalg.Echelon.insert.useful_ratio"] = (
            ins.get("new", 0) / ins["calls"] if ins["calls"] else 0.0)
        out["linalg.max_coeff_bits"] = self.max_coeff_bits
        return out
