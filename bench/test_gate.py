"""Negative controls for the benchmark's outcome gate.

    python3 -m pytest bench

A mutated library must fail the gate on tiny windows, and the same windows
unmutated must pass it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gate  # noqa: E402
from superkon import verify  # noqa: E402
from superkon.algebra import AlgebraConfig  # noqa: E402
from superkon.exactnum import Scalar  # noqa: E402
from superkon.grassmann import EpsilonConfig  # noqa: E402
from superkon.repn import build_so2  # noqa: E402
from superkon.report import Window  # noqa: E402
from superkon.tensmod import TensorModule  # noqa: E402
from workloads import P, Check  # noqa: E402

PASS = {"status": "pass", "violations": 0}


def jacobi(mutation=None) -> Check:
    acfg = AlgebraConfig(EpsilonConfig(2, (1, 1)), True, mutation)
    return Check("jacobi", verify.check_jacobi,
                 (acfg, Window(-2, 2, -2, 2, 0)), {"workers": 1})


def module_axioms(mutation=None) -> Check:
    a, b, c = (Scalar.var(P, x) for x in P)
    module = TensorModule(EpsilonConfig(2, (1, 0)), build_so2(b, c, P), a,
                          mutation=mutation)
    return Check("module_axioms", verify.check_module_axioms,
                 (module, verify.module_window(-1, 1, module, inner_width=2)))


def gate_fail_frac(*checks) -> float:
    results = gate.run_checks(checks, {c.name: PASS for c in checks})
    return gate.fail_frac(results)


def test_unmutated_windows_pass_the_gate():
    assert gate_fail_frac(jacobi(), module_axioms()) == 0


def test_double_cocycle_fails_the_gate():
    assert gate_fail_frac(jacobi("double_cocycle")) > 0


def test_swap_tau_fails_the_gate():
    assert gate_fail_frac(module_axioms("swap_tau")) > 0


def test_raising_check_fails_the_gate():
    module = module_axioms().args[0]
    raising = Check("omega", verify.check_omega,
                    (module, 0, Window(-1, 1, -1, 1, 0), {"a": 1}))
    assert gate_fail_frac(raising, jacobi()) == 0.5
