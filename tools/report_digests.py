"""Print one digest per benchmark Report, to show that a change leaves every
Report byte-identical.

    python3 tools/report_digests.py > digests.txt

Run it on two checkouts and diff the outputs.  It builds every workload of
``bench/workloads.py`` at seeds 0-3, runs each check once and prints one
line per check: workload, seed, check name and the sha256 of the Report's
``to_json(with_timing=False)``.  Every workload Report passes, so it then
runs one negative control per registered mutation, at a small window, and
prints ``negative_control``, the mutation, its target check and the digest:
these failing Reports are the ones that carry witness text.  Three more
lines, ``jacobi_control``, pin failing ``check_jacobi`` Reports at N=3:
a bracket that is not super-antisymmetric (both orientations of a mask
triple decided), a cocycle that fails in the central part alone (decided
on the plane of total degree 0) and a window of two exponents.  Two lines,
``pair_control``, pin failing ``check_bracket_crosscheck`` and
``check_phi`` Reports at N=3, where the formal comparison flags some
classes and the reference decides their window pairs.  No workload runs W-,
so two lines, ``w_minus``, pin its ``check_submodule_closure`` Report and
its ``quotient_wminus`` map on ``b = -i c``, which read the sign -1 branch
of the W displays.  Nothing under
``bench/`` is changed, and only the standard library and ``src/superkon``
of the checkout that holds this file are used, so to compare two
checkouts with one check list, copy this file into the other checkout's
``tools/`` and run both copies.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from superkon import submod, verify  # noqa: E402
from superkon.algebra import ALGEBRA_MUTATIONS, AlgebraConfig  # noqa: E402
from superkon.exactnum import GaussRat, Scalar  # noqa: E402
from superkon.grassmann import EpsilonConfig  # noqa: E402
from superkon.repn import build_so2  # noqa: E402
from superkon.report import Window  # noqa: E402
from superkon.tensmod import MODULE_MUTATIONS, TensorModule  # noqa: E402

SEEDS = range(4)
SMALL = Window(-2, 2, -2, 2, 0)
P = ("a", "b", "c")


def _algebra(eps, mutation, central=False) -> AlgebraConfig:
    return AlgebraConfig(EpsilonConfig(len(eps), eps), central, mutation)


def _swap_tau():
    b, c, a = (Scalar.var(P, x) for x in "bca")
    m = TensorModule(EpsilonConfig(2, (1, 0)), build_so2(b, c, P), a,
                     mutation="swap_tau")
    return verify.check_module_axioms(m, verify.module_window(-1, 1, m, inner_width=2))


# mutation -> its negative control; a registered mutation missing here
# stops the run with a KeyError
CONTROLS = {
    "drop_sign_intersection": lambda: verify.check_bracket_crosscheck(
        _algebra((1, 0), "drop_sign_intersection"), SMALL),
    "double_cocycle": lambda: verify.check_jacobi(
        _algebra((1, 1), "double_cocycle", central=True), SMALL),
    "drop_phi_coeff": lambda: verify.check_phi(
        _algebra((1, 0), "drop_phi_coeff"), SMALL),
    "drop_delta_l0": lambda: verify.check_filtration(
        _algebra((1, 1), "drop_delta_l0"), 1, SMALL),
    "swap_tau": _swap_tau,
}


# three more Jacobi controls at N=3: an antisymmetry-breaking mutation, whose
# formal sums fail in one orientation of a mask triple and not always in the
# other; a doubled cocycle, which fails only in the central part, on the
# plane of total degree 0; and a window of two exponents (the twist -3 gives
# a degree -4 plain symbol there, where the doubled cocycle is nonzero)
JACOBI_CONTROLS = [
    ("drop_sign_intersection", lambda: verify.check_jacobi(
        _algebra((1, 1, 0), "drop_sign_intersection"), SMALL)),
    ("double_cocycle", lambda: verify.check_jacobi(
        _algebra((1, 1, 1), "double_cocycle", central=True), SMALL)),
    ("double_cocycle", lambda: verify.check_jacobi(
        _algebra((1, 1, -3), "double_cocycle", central=True), Window(-1, 0))),
]


# the pair sweeps at N=3: the crosscheck under an antisymmetry-breaking
# mutation and phi under a wrong coefficient; the formal comparison flags
# the classes each breaks, and the reference decides their window pairs
PAIR_CONTROLS = {
    "drop_sign_intersection": ("check_bracket_crosscheck", lambda: verify.check_bracket_crosscheck(
        _algebra((1, 1, 0), "drop_sign_intersection"), SMALL)),
    "drop_phi_coeff": ("check_phi", lambda: verify.check_phi(
        _algebra((1, 1, 0), "drop_phi_coeff"), SMALL)),
}


def _w_minus_source() -> TensorModule:
    # on W-'s locus b = -i c: module_closure's W+ source with b negated
    return TensorModule(EpsilonConfig(2, (1, 1)), build_so2(GaussRat(0, -1), 1, P),
                        Scalar.var(P, "a"))


# the two W- Reports, at the first workload origin
W_MINUS_PARAMS = {"a": Fraction(workloads.origin(0))}
W_MINUS_CONTROLS = {
    "check_submodule_closure": lambda: verify.check_submodule_closure(
        _w_minus_source(), "W_minus", verify.module_window(-2, 2, 2), W_MINUS_PARAMS),
    "iso_check_map": lambda: submod.iso_check_map(
        _w_minus_source(), "quotient_wminus", Window(-2, 2, -8, 8, 4),
        params=W_MINUS_PARAMS),
}


def _digest(report) -> str:
    return hashlib.sha256(report.to_json(with_timing=False).encode()).hexdigest()


def main() -> None:
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for check in workloads.build(name, seed):
                print(name, seed, check.name, _digest(check.run()), flush=True)
    registry = {**ALGEBRA_MUTATIONS, **MODULE_MUTATIONS}
    for mutation in sorted(registry):
        print("negative_control", mutation, registry[mutation],
              _digest(CONTROLS[mutation]()), flush=True)
    for mutation, control in JACOBI_CONTROLS:
        print("jacobi_control", mutation, "check_jacobi", _digest(control()),
              flush=True)
    for mutation, (check, control) in PAIR_CONTROLS.items():
        print("pair_control", mutation, check, _digest(control()), flush=True)
    for check, control in W_MINUS_CONTROLS.items():
        print("w_minus", check, _digest(control()), flush=True)


if __name__ == "__main__":
    main()
