"""The benchmark's workloads: their inputs and the outcome pinned for each check.

Every check is a public function of ``superkon.verify`` or
``superkon.submod.iso_check_map``, called on configs built here; the library
sees only these configs.  The seed picks the weight origin ``a`` used by the
evaluated (concrete-parameter) checks from ``ORIGINS``; the symbolic checks
keep ``a`` formal and do not depend on the seed.

Left out on purpose: ``check_projection`` and ``check_filtration``.  At
this revision they raise or fail on correct inputs (a t-valuation bug and an
ineffective negative control), so they cannot pass the outcome gate, and a
check that raises takes no time: fixing it would read as a ``wall_s``
regression.  They join the workloads in a benchmark change made after the fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from superkon import submod, verify
from superkon.algebra import AlgebraConfig
from superkon.exactnum import GaussRat, Scalar
from superkon.grassmann import EpsilonConfig
from superkon.repn import build_so2, build_so3_vm
from superkon.report import Report, Window
from superkon.tensmod import TensorModule

P = ("a", "b", "c")

# Generic weight origins for the evaluated checks (not integers or half
# integers, where extra submodules appear).  They share a denominator, so
# coefficient sizes are alike whichever the seed picks.
ORIGINS = ("5/7", "4/7", "6/7", "3/7")


def origin(seed: int) -> str:
    return ORIGINS[seed % len(ORIGINS)]


@dataclass(frozen=True)
class Check:
    """One call of a public check function, named by a stable id."""

    name: str
    fn: Callable[..., Report]
    args: tuple
    kwargs: dict = field(default_factory=dict)

    @property
    def function(self) -> str:
        """``module.function`` of the library function, e.g. ``verify.check_jacobi``."""
        return f"{self.fn.__module__.rsplit('.', 1)[-1]}.{self.fn.__name__}"

    def run(self) -> Report:
        return self.fn(*self.args, **self.kwargs)


def _algebra(eps, central=False) -> AlgebraConfig:
    return AlgebraConfig(EpsilonConfig(len(eps), tuple(eps)), central)


def _n3(two_m: int, c) -> TensorModule:
    return TensorModule(EpsilonConfig(3, (1, 1, 1)), build_so3_vm(two_m, c, P),
                        Scalar.var(P, "a"))


def bracket_sweep(a: Fraction) -> list:
    """Structure-constant sweeps: ``bracket_ints`` dominates, and nothing
    here reaches ``tensmod`` or ``linalg``."""
    return [
        Check("jacobi_n3_central", verify.check_jacobi,
              (_algebra((1, 1, 1), central=True), Window(-4, 4)), {"workers": 1}),
        Check("jacobi_n4", verify.check_jacobi,
              (_algebra((1, 1, 0, 0)), Window(-3, 3)), {"workers": 1}),
        Check("bracket_crosscheck_n3", verify.check_bracket_crosscheck,
              (_algebra((1, 1, 0)), Window(-3, 3))),
        Check("phi_n2", verify.check_phi, (_algebra((1, 0)), Window(-3, 3))),
    ]


def module_identities(a: Fraction) -> list:
    """Symbolic module identities and evaluated action tables: Scalar and
    GaussRat arithmetic and the ``act_basis_d`` memo dominate; no
    elimination runs."""
    c = Scalar.var(P, "c")
    sector1 = TensorModule(EpsilonConfig(2, (0, 0)),
                           build_so2(Scalar.var(P, "b"), c, P),
                           Scalar.var(P, "a"), sector_delta=1)
    return [
        Check("module_axioms_n3", verify.check_module_axioms,
              (_n3(2, c), verify.module_window(-1, 1, 3, inner_width=2))),
        Check("table_agreement_n3", verify.check_table_agreement,
              (_n3(2, c), Window(-2, 2, -2, 2, 0))),
        Check("iso_sector_shift_n2", submod.iso_check_map,
              (sector1, "sector_shift", Window(-2, 2, -7, 7, 4))),
        Check("omega_n3", verify.check_omega,
              (_n3(2, Fraction(3, 11)), 4,
               verify.module_window(-1, 1, 3, inner_width=2), {"a": a})),
    ]


def module_closure(a: Fraction) -> list:
    """Window closures by exact elimination: ``Echelon`` dominates.  The two
    simplicity probes sit on either side of "weight space full"; the
    quotient map exercises the pivot-limited echelon.

    The probes seed from the central weight only (``middle=1``): that halves
    their time, with the same verdicts, so a run holds enough repetitions
    for a steady median."""
    wplus_source = TensorModule(EpsilonConfig(2, (1, 1)),
                                build_so2(GaussRat(0, 1), 1, P),
                                Scalar.var(P, "a"))
    fprime_source = _n3(2, Fraction(-1))
    return [
        Check("simplicity_c3_11", verify.window_simplicity,
              (_n3(1, Fraction(3, 11)), verify.module_window(-2, 2, 3), {"a": a}),
              {"middle": 1}),
        Check("simplicity_cm1_2", verify.window_simplicity,
              (_n3(1, Fraction(-1, 2)), verify.module_window(-2, 2, 3), {"a": a}),
              {"middle": 1}),
        Check("submodule_closure_fprime", verify.check_submodule_closure,
              (fprime_source, "F_prime", verify.module_window(-2, 2, 3), {"a": a})),
        Check("iso_quotient_wplus_n2", submod.iso_check_map,
              (wplus_source, "quotient_wplus", Window(-2, 2, -8, 8, 4)),
              {"params": {"a": a}}),
    ]


WORKLOADS = {
    "bracket_sweep": bracket_sweep,
    "module_identities": module_identities,
    "module_closure": module_closure,
}


def build(workload: str, seed: int) -> list:
    return WORKLOADS[workload](Fraction(origin(seed)))


# The gated outcome of every check.  Counters (tuples_checked,
# relations_derived) and timings are not pinned, so a pruned sweep or an
# added counter is not a failure.
_PASS = {"status": "pass", "violations": 0}
_SYMBOLIC = {
    "jacobi_n3_central": _PASS,
    "jacobi_n4": _PASS,
    "bracket_crosscheck_n3": _PASS,
    "phi_n2": _PASS,
    "module_axioms_n3": _PASS,
    "table_agreement_n3": _PASS,
    "iso_sector_shift_n2": _PASS,
}
"""Outcomes of the checks that do not depend on the origin."""

EVALUATED = {
    o: {
        "omega_n3": {"status": "info", "violations": 0, "all_found": True,
                     "minimal_m": {m: 3 for m in (
                         "1", "xi{1}", "xi{2}", "xi{1,2}", "xi{3}", "xi{1,3}",
                         "xi{2,3}", "xi{1,2,3}")}},
        "simplicity_c3_11": {"status": "info", "violations": 0,
                             "verdict": "window-simple"},
        "simplicity_cm1_2": {"status": "info", "violations": 0,
                             "verdict": "proper-invariant-subspace",
                             "smallest_inner_dims": {"-2": 12, "0": 12, "2": 12}},
        "submodule_closure_fprime": _PASS,
        "iso_quotient_wplus_n2": _PASS,
    }
    for o in ORIGINS
}
"""Outcomes of the evaluated checks per origin; each was run at each origin."""


def expected(seed: int) -> dict:
    return {**_SYMBOLIC, **EVALUATED[origin(seed)]}
