import hashlib
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from superkon import algebra, exactnum, grassmann, tables, verify
from superkon.algebra import (ALGEBRA_MUTATIONS, AlgebraConfig, AlgebraElement,
                              bracket, bracket_ints)
from superkon.exactnum import GaussRat, Scalar, UsageError, add_term
from superkon.grassmann import (EpsilonConfig, SuperFunction, format_monomial,
                                iset, xi_mul)
from superkon.linalg import WeightSpaces
from superkon.repn import SoRep, build_so2, build_so3_vm, check_so_relations
from superkon.report import Report, Window, finish, violation
from superkon.submod import iso_check_map, iso_target, named_submodule
from superkon.tables import N2Table, N3Table, TableTerms, make_table
from superkon.tensmod import (MODULE_MUTATIONS, EvaluatedAction, ModBasisVec,
                              ModVec, TensorModule, module_from_config)
from superkon.verify import (check_bracket_crosscheck, check_eps_shift,
                             check_filtration, check_jacobi,
                             check_module_axioms, check_omega, check_phi,
                             check_projection, check_submodule_closure,
                             check_table_agreement, closure, module_window,
                             window_simplicity)

P = ("a", "b", "c")
A, B, C = (Scalar.var(P, x) for x in "abc")
SMALL = Window(-2, 2, -2, 2, 0)


def acfg(n, eps, central=False, mutation=None):
    return AlgebraConfig(EpsilonConfig(n, eps), central, mutation)


def n2(eps=(1, 1), b=None, c=None, a=None, sector=None):
    bb = B if b is None else Scalar.const(P, b)
    cc = C if c is None else Scalar.const(P, c)
    aa = A if a is None else Scalar.const(P, a)
    return TensorModule(EpsilonConfig(2, eps), build_so2(bb, cc, P), aa, sector)


def test_window_validation():
    with pytest.raises(UsageError):
        Window(2, -2)
    with pytest.raises(UsageError):
        Window(-2, 2, -1, 1, 3)


def test_report_round_trip():
    r = check_jacobi(acfg(1, (1,), central=True), Window(-2, 2, -2, 2, 0))
    again = Report.from_json(r.to_json())
    assert again.to_json() == r.to_json()
    assert r.status == "pass"


def test_report_determinism_modulo_timing():
    w = Window(-2, 2, -2, 2, 0)
    r1 = check_jacobi(acfg(2, (1, 1), central=True), w)
    r2 = check_jacobi(acfg(2, (1, 1), central=True), w)
    assert r1.to_json(with_timing=False) == r2.to_json(with_timing=False)


def test_jacobi_runs_in_one_process():
    w = Window(-2, 2, -2, 2, 0)
    a = acfg(2, (1, 0), central=True)
    r1 = check_jacobi(a, w, workers=None)
    r2 = check_jacobi(a, w, workers=1)
    assert r1.to_json(with_timing=False) == r2.to_json(with_timing=False)
    with pytest.raises(UsageError, match="one process"):
        check_jacobi(a, w, workers=2)


def test_jacobi_negative_control():
    r = check_jacobi(acfg(2, (1, 1), central=True, mutation="double_cocycle"),
                     Window(-2, 2, -2, 2, 0))
    assert r.status == "fail" and r.violations


def test_crosscheck_pass_and_control():
    w = Window(-3, 3, -3, 3, 0)
    assert check_bracket_crosscheck(acfg(2, (1, 0)), w).status == "pass"
    bad = check_bracket_crosscheck(acfg(2, (1, 0), mutation="drop_sign_intersection"), w)
    assert bad.status == "fail"
    # the witness involves a pair with a one-element overlap
    assert any("1" in v["inputs"] for v in bad.violations)


def test_module_axioms_negative_control():
    M = n2(eps=(1, 0))
    w = module_window(-1, 1, M, inner_width=2)
    assert check_module_axioms(M, w).status == "pass"
    Mbad = TensorModule(M.cfg, M.rep, M.a, mutation="swap_tau")
    assert check_module_axioms(Mbad, w).status == "fail"


def _reference_module_axioms(module, w):
    """check_module_axioms computed per triple through ``module.act``."""
    params = module.params
    acfg = AlgebraConfig(module.cfg)
    syms = [(p, im, is_d) for is_d in (True, False)
            for p, im, _ in module.window_ops(w)]
    vecs = [bv for l in range(w.inner_l_min, w.inner_l_max + 1)
            for bv in module.basis_at(l)]
    bad = []
    n = 0

    def elem(p, im, is_d):
        return (AlgebraElement.d_symbol(params, p, im) if is_d
                else AlgebraElement.a_monomial(params, p, im))

    for i, (p1, i1, d1) in enumerate(syms):
        x = elem(p1, i1, d1)
        for (p2, i2, d2) in syms[i:]:
            y = elem(p2, i2, d2)
            br = bracket(acfg, x, y)
            sgn = -1 if (i1.bit_count() & 1 and i2.bit_count() & 1) else 1
            for bv in vecs:
                n += 1
                v = ModVec.basis(params, bv)
                lhs = module.act(br, v)
                rhs = (module.act(x, module.act(y, v))
                       - module.act(y, module.act(x, v)).scale(sgn))
                if not (lhs - rhs).is_zero():
                    bad.append(violation(
                        f"bracket x=({p1},{i1},{'D' if d1 else 'A'}) "
                        f"y=({p2},{i2},{'D' if d2 else 'A'}) v={bv.text()}",
                        lhs=str(lhs), rhs=str(rhs), diff=str(lhs - rhs)))
    monos = [(k, im) for k in w.k_values() for im in range(1 << module.cfg.N)]
    for (k1, i1) in monos:
        f = elem(k1, i1, False)
        for (k2, i2) in monos:
            g = elem(k2, i2, False)
            sm = xi_mul(i1, i2)
            for bv in vecs:
                n += 1
                v = ModVec.basis(params, bv)
                lhs = module.act(f, module.act(g, v))
                if sm is None:
                    rhs = ModVec(params, {})
                else:
                    fg = AlgebraElement.a_monomial(params, k1 + k2, sm[1],
                                                   Scalar.const(params, sm[0]))
                    rhs = module.act(fg, v)
                if not (lhs - rhs).is_zero():
                    bad.append(violation(
                        f"assoc f=({k1},{i1}) g=({k2},{i2}) v={bv.text()}",
                        lhs=str(lhs), rhs=str(rhs), diff=str(lhs - rhs)))
    return finish(f"module_axioms[N={module.cfg.N},eps={module.cfg.eps},"
                  f"rep={module.rep.label},sector={module.sector_delta}]",
                  bad, n, 0.0)


def _n3(two_m, c=C, a=A, mutation=None):
    return TensorModule(EpsilonConfig(3, (1, 1, 1)), build_so3_vm(two_m, c, P),
                        a, mutation=mutation)


# (module, window): every N=2 twist and sector, N=3 at 2m = 1 and 2
AXIOM_ORACLE_CONFIGS = {
    "n2_eps11": (lambda mut: TensorModule(EpsilonConfig(2, (1, 1)), build_so2(B, C, P),
                                          A, mutation=mut), Window(-1, 1, -4, 4, 3)),
    **{f"n2_eps{e[0]}{e[1]}_sector{d}": (
        lambda mut, e=e, d=d: TensorModule(EpsilonConfig(2, e), build_so2(B, C, P),
                                           A, d, mutation=mut),
        Window(-1, 1, -4, 4, 3))
       for e in ((1, 0), (0, 0)) for d in (0, 1)},
    "n3_2m1": (lambda mut: _n3(1, mutation=mut), Window(0, 1, -4, 4, 4)),
    "n3_2m2": (lambda mut: _n3(2, mutation=mut), Window(0, 0, -4, 4, 4)),
    # the W+- module: so_2 at b = i, imaginary coefficients
    "n2_eps11_wpm": (lambda mut: TensorModule(EpsilonConfig(2, (1, 1)),
                                              build_so2(GaussRat(0, 1), 1, P),
                                              A, mutation=mut), Window(-1, 1, -4, 4, 3)),
    # 2m = 3 at c = 3/11: mixed denominators
    "n3_2m3_c3_11": (lambda mut: _n3(3, Fraction(3, 11), mutation=mut),
                     Window(0, 0, -4, 4, 4)),
}


@pytest.mark.parametrize("mutation", [None, "swap_tau"])
@pytest.mark.parametrize("name", sorted(AXIOM_ORACLE_CONFIGS))
def test_module_axioms_match_per_triple_route(name, mutation):
    make, w = AXIOM_ORACLE_CONFIGS[name]
    M = make(mutation)
    got = check_module_axioms(M, w)
    assert got.status == ("pass" if mutation is None else "fail")
    want = _reference_module_axioms(make(mutation), w)
    assert got.to_json(with_timing=False) == want.to_json(with_timing=False)


def test_passing_module_axioms_never_call_act(monkeypatch):
    calls = []
    act = TensorModule.act

    def spy(self, x, v):
        calls.append(x)
        return act(self, x, v)

    monkeypatch.setattr(TensorModule, "act", spy)
    M = n2(eps=(1, 0))
    r = check_module_axioms(M, module_window(-1, 1, M, inner_width=2))
    assert r.status == "pass" and r.stats["tuples_checked"] > 0
    assert calls == []


def test_passing_module_axioms_build_no_modvec(monkeypatch):
    calls = []
    init = ModVec.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModVec, "__init__", spy)
    M = n2()
    r = check_module_axioms(M, module_window(-1, 1, M, inner_width=2))
    assert r.status == "pass" and r.stats["tuples_checked"] > 0
    assert calls == []


def test_module_axioms_build_no_scalar_for_a_function_image(monkeypatch):
    # a function monomial's image is a sign times one basis vector: the
    # sweep packs it straight from act_function, so no sign act_function
    # returns reaches Scalar.const
    class Sign(int):
        pass

    returned, made = [], []
    act_function, const = TensorModule.act_function, Scalar.const.__func__

    def spy_function(self, k, imask, bv):
        res = act_function(self, k, imask, bv)
        if res is None:
            return None
        returned.append(Sign(res[0]))
        return returned[-1], res[1]

    def spy_const(cls, params, value):
        if type(value) is Sign:
            made.append(value)
        return const(cls, params, value)

    monkeypatch.setattr(TensorModule, "act_function", spy_function)
    monkeypatch.setattr(Scalar, "const", classmethod(spy_const))
    M = n2(eps=(1, 0))
    r = check_module_axioms(M, module_window(-1, 1, M, inner_width=2))
    assert r.status == "pass" and r.stats["tuples_checked"] > 0
    assert returned and made == []


def test_compare_table_keeps_no_composition_groups(monkeypatch):
    # the table comparison reads each packed image whole: its memos hold
    # (den, flat) pairs, never the groups a factor would need
    memos = []

    class Recorded(exactnum._Memo):
        __slots__ = ()

        def __init__(self, compute):
            super().__init__(compute)
            memos.append(self)

    monkeypatch.setattr(tables, "_Memo", Recorded)
    r = check_table_agreement(_n3(2), Window(-1, 1, -2, 2, 0))
    assert r.status == "pass"
    images = [v for memo in memos for v in memo.values() if type(v) is tuple]
    assert images and all(len(v) == 2 for v in images)


# a symbolic sweep on a module: the check, and how to build the module
SYMBOLIC_SWEEPS = {
    "module_axioms": (lambda M: check_module_axioms(
        M, module_window(-1, 1, M, inner_width=2)), lambda: n2(eps=(1, 0))),
    "module_axioms_swap_tau": (lambda M: check_module_axioms(
        M, module_window(-1, 1, M, inner_width=2)),
        lambda: TensorModule(EpsilonConfig(2, (1, 0)), build_so2(B, C, P), A,
                             mutation="swap_tau")),
    "table_agreement": (lambda M: check_table_agreement(
        M, Window(-1, 1, -2, 2, 0)), lambda: _n3(2)),
    "sector_shift": (lambda M: iso_check_map(
        M, "sector_shift", Window(-2, 2, -7, 7, 4)),
        lambda: n2(eps=(0, 0), sector=1)),
    "identity": (lambda M: iso_check_map(M, "identity", Window(-2, 2, -6, 6, 4)),
                 lambda: n2(eps=(1, 0))),
}


@pytest.mark.parametrize("name", sorted(SYMBOLIC_SWEEPS))
def test_symbolic_sweeps_leave_the_callers_memo_empty(name):
    # every memo a check fills lives in objects the check builds: the
    # caller's module holds none of it afterwards, and each Report equals
    # the one from a freshly built module
    run, make = SYMBOLIC_SWEEPS[name]
    M = make()
    first = run(M)
    assert M._memo == {}
    assert first.stats["tuples_checked"] > 0
    want = run(make()).to_json(with_timing=False)
    assert first.to_json(with_timing=False) == want
    assert run(M).to_json(with_timing=False) == want and M._memo == {}


@pytest.mark.parametrize("mutation, violations, digest", [
    (None, 0, "e64495875667e7eb38260e6bd6cd7072c9bf0751b106ca1bcc275c252f75d80f"),
    ("swap_tau", 2007, "099ad414c67a2e49b865ecaf6dd706b31ad282daab2ed467e450a2557aefe11d"),
], ids=["plain", "swap_tau"])
def test_module_axioms_pinned_at_benchmark_scale(mutation, violations, digest):
    # V_1 at symbolic a, c on the benchmark's window: every witness text is
    # pinned byte for byte
    r = check_module_axioms(_n3(2, mutation=mutation),
                            module_window(-1, 1, 3, inner_width=2))
    assert len(r.violations) == violations
    assert r.stats["tuples_checked"] == 42048
    text = r.to_json(with_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _flag_every_index(monkeypatch):
    monkeypatch.setattr(exactnum._Batch, "flagged", lambda self: list(range(self.size)))


@pytest.mark.parametrize("mutation", [None, "swap_tau"], ids=["plain", "swap_tau"])
def test_flagging_every_module_identity_changes_no_report(monkeypatch, mutation):
    # the batch only flags; the reference decides, so a batch that flags
    # every identity leaves the Report byte-identical
    M = n2(eps=(1, 0))
    M = TensorModule(M.cfg, M.rep, M.a, mutation=mutation)
    w = module_window(-1, 1, M, inner_width=2)
    want = check_module_axioms(M, w).to_json(with_timing=False)
    _flag_every_index(monkeypatch)
    assert check_module_axioms(M, w).to_json(with_timing=False) == want


@pytest.mark.parametrize("emptied", [False, True], ids=["pass", "emptied"])
def test_flagging_every_table_tuple_changes_no_report(monkeypatch, emptied):
    # the same for the table comparison: a passing N=3 module, and the N=3
    # table with every line emptied
    if emptied:
        monkeypatch.setattr(N3Table, "act", lambda self, line, k, sym: TableTerms())
    w = Window(-1, 1, -2, 2, 0)
    r = check_table_agreement(_n3(2), w)
    assert (r.status == "fail") is emptied
    want = r.to_json(with_timing=False)
    _flag_every_index(monkeypatch)
    assert check_table_agreement(_n3(2), w).to_json(with_timing=False) == want


def test_residual_rescales_its_denominator_and_cancels():
    packer = exactnum._Packer(P)
    bv = ModBasisVec(0, 0, 0)

    def image(value):
        return packer.image({bv: value if isinstance(value, Scalar)
                             else Scalar.const(P, value)})

    res = exactnum._Batch(packer, 1)
    res.add(0, verify._ONE, image(Fraction(1, 2)))
    assert res.den == 2
    res.add(0, verify._ONE, image(Fraction(1, 3)))
    assert res.den == 6 and res.flagged() == [0]
    res.add(0, verify._ONE, image(Fraction(-5, 6)))  # the sum was exactly 5/6
    assert res.den == 6 and res.flagged() == []
    res.add(0, verify._ONE, image(Fraction(1, 4)))  # the lcm, not the product
    assert res.den == 12 and res.flagged() == [0]
    res.add(0, verify._ONE, image(Fraction(-1, 4)))
    assert res.flagged() == []

    # i*i + 1 = 0, with the coefficient i read as a factor of an image
    (_, i_coeff), = image(GaussRat(0, 1))[2]
    res = exactnum._Batch(packer, 1)
    res.add(0, i_coeff, image(GaussRat(0, 1)))
    assert res.flagged() == [0]
    res.add(0, verify._ONE, image(1))  # the product was exactly -1
    assert res.flagged() == []

    # packed exponents add: a * (b*c) - (a*b) * c = 0
    (_, a_coeff), = image(A)[2]
    (_, ab_coeff), = image(A * B)[2]
    res = exactnum._Batch(packer, 1)
    res.add(0, a_coeff, image(B * C))
    res.add(0, ab_coeff, image(C), -1)
    assert res.flagged() == []


def test_identities_of_one_batch_never_cancel():
    # residuals +x and -x at the same output key, in identities 1 and 3 of
    # one batch: each is flagged, the others are not
    packer = exactnum._Packer(P)
    x = packer.image({ModBasisVec(0, 0, 0): A * C})
    batch = exactnum._Batch(packer, 4)
    batch.add(1, verify._ONE, x)
    batch.add(3, verify._ONE, x, -1)
    assert batch.flagged() == [1, 3]


def test_packed_exponents_refuse_a_carry():
    packer = exactnum._Packer(P)
    bv = ModBasisVec(0, 0, 0)
    top = 1 << (exactnum._EXP_BITS - 1)  # two of these carry into the next field
    packer.image({bv: Scalar(P, {(0, top - 1, 0): (1, 0)})})
    with pytest.raises(UsageError, match="too large to pack"):
        packer.image({bv: Scalar(P, {(0, top, 0): (1, 0)})})


def test_packed_images_share_equal_factor_terms():
    # the factors of the images one packer makes hold one tuple per equal
    # term, however many images hold it
    packer = exactnum._Packer(P)
    one = packer.image({ModBasisVec(0, 0, 0): A * B + 2 * C})[2][0][1][1]
    two = packer.image({ModBasisVec(1, 0, 0): 2 * C + A * B})[2][0][1][1]
    assert sorted(one) == sorted(two) and len(one) == 2
    assert {id(t) for t in one} == {id(t) for t in two}


def test_phi_pass_and_control():
    w = Window(-2, 2, -2, 2, 0)
    assert check_phi(acfg(2, (1, 0)), w).status == "pass"
    assert check_phi(acfg(2, (1, 0), mutation="drop_phi_coeff"), w).status == "fail"


def test_filtration_pass_and_control():
    w = Window(-2, 2, -2, 2, 0)
    assert check_filtration(acfg(2, (1, 0)), 2, w).status == "pass"
    bad = check_filtration(acfg(2, (1, 0), mutation="drop_delta_l0"), 1, w)
    assert bad.status == "fail"
    assert any("K0" in v["inputs"] for v in bad.violations)


def test_projection_homomorphism():
    w = Window(-1, 2, -1, 2, 0)
    assert check_projection(acfg(3, (1, 1, 1)), w).status == "pass"
    assert check_projection(acfg(2, (1, 0)), w).status == "pass"


def test_projection_reports_leaving_k0():
    # under the mutation D[t, xi1 xi2] is outside K0: a violation, not a raise
    bad = check_projection(acfg(2, (1, 0), mutation="drop_delta_l0"),
                           Window(-1, 2, -1, 2, 0))
    assert bad.status == "fail"
    assert [v["inputs"] for v in bad.violations] == ["D[t,xi{1,2}] in K0"]


@pytest.mark.parametrize("check, eps, mutation, digest", [
    (check_filtration, (1, 0), None,
     "0a39572e93eb6c26b6d32eb0740b3df045ddfe7b26882f4cfb7ff0c1aaaf90db"),
    (check_filtration, (1, 0), "drop_delta_l0",
     "c914a8596255e3818bfbf1982724a56e888708f9f033f8334f13dcc49109251f"),
    (check_filtration, (1, 1, 1), None,
     "3b7fe9dc95f00ba6c701b99ed39a5e57811b61dba06644e9542e328e5ab035de"),
    (check_filtration, (1, 1, 1), "drop_delta_l0",
     "d82f1e6dc6cb5cde2b3c795bf55e21d0dd0f9ccd4a29aa797ff552bf4ba78bc1"),
    (check_projection, (1, 0), None,
     "5fdc19922c979a843f7ecbc4549a7fe3b979a7330239a91d3242fb7754b5cd81"),
    (check_projection, (1, 0), "drop_delta_l0",
     "ff82d844a4f560933bdf9e768d576145c9fb66bd87887453c20f076b8c611d97"),
    (check_projection, (1, 1, 1), None,
     "cea3ddd47f9c7e36643c616b650cf4e6c143dc6ad3859d17153d1e6ac08100cb"),
    (check_projection, (1, 1, 1), "drop_delta_l0",
     "1e3b0ab158aa01b983404fe4a46dac42cec5acc2b66e666031306c8458fb5d4a"),
], ids=[f"{check}-{n}-{mutation}" for check in ("filtration", "projection")
         for n in ("n2", "n3") for mutation in ("plain", "drop_delta_l0")])
def test_filtration_and_projection_pinned(check, eps, mutation, digest):
    # every verdict, counter and witness text of the (t-1)-adic checks is
    # pinned byte for byte; no benchmark workload runs them
    args = (2,) if check is check_filtration else ()
    r = check(acfg(len(eps), eps, mutation=mutation), *args, Window(-2, 2))
    text = r.to_json(with_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


W_LOCUS = {"a": Fraction(5, 7), "b": 1, "c": GaussRat(0, -1)}


@pytest.mark.parametrize("run, digest", [
    (lambda M: check_submodule_closure(M, "W_plus", module_window(-2, 2, M), W_LOCUS),
     "df5479bfda1e0e3e176a09badd35a178d248a119420159cce48cc8b1b186a03f"),
    (lambda M: window_simplicity(M, module_window(-2, 2, M), W_LOCUS, middle=1),
     "d3589e9ef8974d5dea18942ba504edbdf5bfadee082d91e703d42d4e95660e86"),
    (lambda M: check_omega(M, 4, module_window(-1, 1, M, inner_width=2),
                           {"a": Fraction(5, 7), "b": Fraction(1, 3),
                            "c": Fraction(2, 5)}),
     "15d909e415f5124448ba6e460efab6216eeacaace826f8a981592d9f36ce3ba2"),
], ids=["submodule_closure_wplus", "simplicity", "omega"])
def test_reports_with_b_and_c_from_params_pinned(run, digest):
    # the workload modules keep only a formal; here b and c are formal
    # too and take their values from the assignment
    text = run(n2()).to_json(with_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("check, eps, mutation, central, n_bad, digest", [
    (check_phi, (1, 0), "drop_phi_coeff", False, 100,
     "74880064b727b9ff0b40b9c6175a6f8234e59415c2060e2838f50814ae506bdb"),
    (check_phi, (1, 1, 0), "drop_phi_coeff", False, 295,
     "546a10190c6684cc4d4a853d517166c814e712a9d71dd89147bc2db91c1d33fc"),
    (check_bracket_crosscheck, (1, 0), "drop_sign_intersection", False, 100,
     "9c5c133e9f4d332c6b125dcacde05321b8a288b65e27988102f410ac6e02ea27"),
    (check_bracket_crosscheck, (1, 1, 0), "drop_sign_intersection", False,
     375,
     "f4574c5706466f1c9d6b137a4b825f14858cefb7e5b622f3ccd4acb5084dbd7d"),
    (check_jacobi, (1, 1), "double_cocycle", True, 2,
     "0a14e17444e398688b635b0404f0c4880c14b0a9d4618f8bda7e853f1158d689"),
    (check_jacobi, (1, 1, 0), "double_cocycle", True, 4,
     "3fc2e6bb960567af1ab58c552047981b3935ee47fea4879c5cff10fc7304c785"),
    (check_jacobi, (1, 1), "drop_sign_intersection", False, 611,
     "e8a0ee69bd8016b35c8b52aa677ce3fc8d5594b569efe1ea7554dba09aef5a95"),
    (check_jacobi, (1, 1, 0), "drop_sign_intersection", False, 3758,
     "506fbbd762e854a2dcf82328419b5e2e364e340d0dac6c14aeb1eb1260a81b5e"),
], ids=["phi-n2", "phi-n3", "crosscheck-n2", "crosscheck-n3", "jacobi-cocycle-n2",
        "jacobi-cocycle-n3", "jacobi-sign-n2", "jacobi-sign-n3"])
def test_failing_algebra_reports_pinned(check, eps, mutation, central, n_bad, digest):
    # the witnesses of these failing Reports print AlgebraElement text or the
    # Jacobi residual's C and D terms, which no passing workload Report
    # shows: pin them byte for byte
    r = check(acfg(len(eps), eps, central, mutation), SMALL)
    assert r.status == "fail" and len(r.violations) == n_bad
    text = r.to_json(with_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _reference_residual(a, x, y, z):
    """The per-triple Jacobi residual computed straight from bracket_ints:
    4x the D-part and 24x the central part of the graded Jacobi sum."""
    terms = {}
    cen = 0
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        sgn = -1 if (u[1].bit_count() & 1 and w[1].bit_count() & 1) else 1
        c2, rk, rI, _ = bracket_ints(a, v[0], v[1], w[0], w[1])
        if not c2:
            continue
        c3, rk2, rI2, cen12 = bracket_ints(a, u[0], u[1], rk, rI)
        if c3:
            terms[(rk2, rI2)] = terms.get((rk2, rI2), 0) + sgn * c2 * c3
        if cen12:
            cen += sgn * c2 * cen12
    return {k: v for k, v in terms.items() if v}, cen


# twists off {0, 1}, windows on both sides of 0 and one starting above 1,
# every mutation
TABLE_ORACLE_CONFIGS = [
    (acfg(1, (1,)), Window(-2, 2)),
    (acfg(1, (1,), central=True), Window(-2, 2)),
    (acfg(1, (0,), central=True), Window(-1, 2)),
    (acfg(1, (2,)), Window(-2, 2)),
    (acfg(1, (-1,), central=True), Window(2, 4)),
    (acfg(2, (1, 0)), Window(-1, 1)),
    (acfg(2, (1, 1), central=True), Window(-1, 1)),
    (acfg(2, (1, -1)), Window(-1, 1)),
    (acfg(2, (0, 0), central=True), Window(2, 3)),
    (acfg(3, (1, 1, 1)), Window(-1, 0)),
    (acfg(3, (1, 0, 1), central=True), Window(0, 1)),
    (acfg(3, (3, 0, -2)), Window(-1, 0)),
    (acfg(3, (1, 1, 1)), Window(-4, -3)),
    (acfg(3, (1, 1, 1), central=True), Window(-1, 1)),
    (acfg(4, (1, 1, 0, 0)), Window(0, 1)),
    (acfg(4, (2, 1, 0, -1)), Window(-1, -1)),
    (acfg(2, (1, 0), mutation="drop_sign_intersection"), Window(-1, 1)),
    (acfg(2, (1, 1), central=True, mutation="double_cocycle"), Window(-2, 2)),
    (acfg(2, (1, 0), central=True, mutation="drop_phi_coeff"), Window(-1, 1)),
    (acfg(2, (1, 1), mutation="drop_delta_l0"), Window(-1, 1)),
]


def test_table_oracle_configs_cover_every_mutation():
    assert {a.mutation for a, _ in TABLE_ORACLE_CONFIGS} >= set(ALGEBRA_MUTATIONS)


def _form_value(a, p, I, q, J):
    """What bracket_ints must return, read off the config's forms: the mask
    pair's affine form (no result where its coefficient is zero) and, with
    the central term, twice cen12 as the mask's cubic at total degree 0."""
    form = a._pair_forms[I][J]
    c2 = 0 if form is None else form[0] + form[1] * p + form[2] * q
    rk, rI = (p + q + form[3], form[4]) if c2 else (0, 0)
    d = a.cfg.degree(p, I)
    cen12 = 0
    if a.central_enabled and I == J and d + a.cfg.degree(q, J) == 0:
        cen12 = sum(k * d ** e for e, k in enumerate(algebra.central_form(a, I))) // 2
    return c2, rk, rI, cen12


@pytest.mark.parametrize("a,w", TABLE_ORACLE_CONFIGS)
def test_jacobi_table_matches_per_triple_brackets(a, w):
    # what the formal route rests on: bracket_ints is its forms evaluated,
    # on the window and three exponents beyond it, and a result lands on
    # mask I ^ J at the summed degree; the reference residual is the one
    # computed per triple from bracket_ints
    N = a.cfg.N
    ks = range(w.k_min - 3, w.k_max + 4)
    for p, I, q, J in product(ks, range(1 << N), ks, range(1 << N)):
        got = bracket_ints(a, p, I, q, J)
        assert got == _form_value(a, p, I, q, J)
        c2, rk, rI, _ = got
        if c2:
            assert rI == I ^ J
            assert a.cfg.degree(rk, rI) == a.cfg.degree(p, I) + a.cfg.degree(q, J)
    syms = [(p, im) for p in w.k_values() for im in range(1 << N)]
    for x, y, z in product(syms, repeat=3):
        assert verify._jacobi_residual(a, x, y, z) == _reference_residual(a, x, y, z)


def _reference_jacobi(a, w):
    """check_jacobi's violations, sweeping every window triple through
    ``_reference_residual``."""
    syms = [(p, im) for p in w.k_values() for im in range(1 << a.cfg.N)]
    expected = []
    for x, y, z in combinations_with_replacement(syms, 3):
        terms, cen = _reference_residual(a, x, y, z)
        parts = [f"{v}/4*D[t^{rk},m={rI}]" for (rk, rI), v in sorted(terms.items())]
        if cen:
            parts.append(f"{cen}/24*C")
        if parts:
            expected.append(violation(f"x={x} y={y} z={z}", lhs=" + ".join(parts),
                                      rhs="0", diff=" + ".join(parts)))
    return sorted(expected, key=lambda v: v["inputs"])


def _edit_forms(monkeypatch, edit, eps=None):
    """A fault injected where the bracket lives: every config made from
    now on (a ``replace`` copy of an older one included) reads its pair
    forms through ``edit(I, J, form)``, or only those of the twist ``eps``
    when given."""
    original = algebra._pair_form_table

    def edited(cfg, mutation):
        table = original(cfg, mutation)
        if eps is not None and cfg.eps != eps:
            return table
        return tuple(tuple(edit(I, J, f) for J, f in enumerate(row))
                     for I, row in enumerate(table))
    monkeypatch.setattr(algebra, "_pair_form_table", edited)


def _scale_c2(pair, factor):
    """The forms of one mask pair, in both orders, times ``factor``: the
    bracket stays graded and super-antisymmetric."""
    def scaled(I, J, form):
        if form is None or {I, J} != set(pair):
            return form
        return tuple(c * factor for c in form[:3]) + form[3:]
    return scaled


def _tilt(pair, alpha):
    """``alpha`` times (first exponent - second exponent) added to the forms
    of one mask pair, in both orders.  With masks {1,2} and {2} at the twist
    (1, 0) this stays graded and antisymmetric, and phi's residual, the
    result's degree times this change, vanishes on the first 2 x 2
    exponents from 0 but not on 3 x 3."""
    def tilted(I, J, form):
        if form is None or {I, J} != set(pair):
            return form
        c0, cp, cq, shift, rI = form
        return c0, cp + alpha, cq - alpha, shift, rI
    return tilted


def _bump(pairs, dc0=0, dshift=0):
    """The forms of the ordered mask pairs ``pairs`` with ``dc0`` added to
    the constant and the results moved by ``dshift`` exponents."""
    def bumped(I, J, form):
        if (I, J) not in pairs:
            return form
        c0, cp, cq, shift, rI = form
        return c0 + dc0, cp, cq, shift + dshift, rI
    return bumped


def _graded_escape(shift):
    """An affine, graded and antisymmetric bracket of two xi{1,2} symbols,
    ``2(p - q) D[t^(p+q+shift)]``, which the formula does not have (graded
    for ``shift = shift_sum({1,2}) - 1``)."""
    def escaped(I, J, form):
        return (0, 2, -2, shift, 0) if I == J == 3 else form
    return escaped


def test_jacobi_sweep_finds_residuals_off_the_grading(monkeypatch):
    # the form of (xi{1}, xi{2}) lands one exponent off, in that order
    # only, so the D-terms of a triple's Jacobi sum fall on two symbols: the
    # sweep must not sum them as one integer
    _edit_forms(monkeypatch, _bump({(1, 2)}, dshift=1))
    a = acfg(2, (1, 0))
    w = Window(-2, 2)
    expected = _reference_jacobi(a, w)
    r = check_jacobi(a, w)
    assert r.status == "fail"
    assert r.violations == expected
    assert any(v["diff"].count("D[") == 2 for v in r.violations)


def _window_triples(a, w, classes):
    """The window triples whose masks, in window order, are one of
    ``classes``."""
    syms = [(p, im) for p in w.k_values() for im in range(1 << a.cfg.N)]
    return [t for t in combinations_with_replacement(syms, 3)
            if tuple(im for _, im in t) in classes]


@pytest.mark.parametrize("a, w, edit", [
    (acfg(3, (1, 1, 1), central=True), SMALL, _scale_c2((1, 2), 2)),
    (acfg(3, (1, 1, 0)), SMALL, _scale_c2((0, 3), 3)),
    (acfg(3, (1, 0, 0), central=True), SMALL, _scale_c2((1, 6), -1)),
    (acfg(2, (2, -1), central=True), Window(-3, 3), _scale_c2((1, 2), 2)),
    # not super-antisymmetric (a constant added in one order), off the
    # grading (in both orders), and the registered mutation at N = 3 and 4
    (acfg(3, (1, 1, 1)), SMALL, _bump({(1, 2)}, dc0=1)),
    (acfg(2, (1, 0)), SMALL, _bump({(1, 2), (2, 1)}, dshift=1)),
    (acfg(3, (1, 1, 0), mutation="drop_sign_intersection"), SMALL, None),
    (acfg(4, (1, 1, 0, 0), mutation="drop_sign_intersection"), Window(-1, 1), None),
], ids=["scale-12", "scale-03", "scale-16", "twist-2-1", "c2-bump", "landing",
        "sign-n3", "sign-n4"])
def test_jacobi_grid_path_finds_every_violation(monkeypatch, a, w, edit):
    # a broken bracket: the Report equals the sweep of every window triple
    # through the reference, which is handed every window triple of the
    # ordered mask triples that jacobi_failures flags, once each, and no
    # other; those hold every violation
    if edit is not None:
        _edit_forms(monkeypatch, edit)
    a = replace(a)
    decided = _calls(monkeypatch, "_jacobi_residual")
    expected = _reference_jacobi(a, w)
    r = check_jacobi(a, w)
    assert r.status == "fail" and r.violations == expected
    syms = [(p, im) for p in w.k_values() for im in range(1 << a.cfg.N)]
    assert r.stats["tuples_checked"] == comb(len(syms) + 2, 3)
    triples = _window_triples(a, w, algebra.jacobi_failures(a))
    assert [args[1:] for args in decided] == triples
    assert 0 < len(triples) < comb(len(syms) + 2, 3)
    assert {v["inputs"] for v in expected} <= {f"x={x} y={y} z={z}" for x, y, z in triples}


def test_jacobi_hands_the_reference_only_the_flagged_triples(monkeypatch):
    # the doubled cocycle at N=3 with the central term fails 3 of the 120
    # mask multisets: the sweep builds their 1,215 window triples alone, of
    # the 64,824 it counts, and the reference decides each once
    decided = _calls(monkeypatch, "_jacobi_residual")
    a = acfg(3, (1, 1, 1), central=True, mutation="double_cocycle")
    w = Window(-4, 4)
    r = check_jacobi(a, w)
    assert r.status == "fail" and r.stats["tuples_checked"] == 64824
    assert len({tuple(sorted(m)) for m in algebra.jacobi_failures(a)}) == 3
    assert len(decided) == len(set(decided)) == 1215
    assert r.violations == _reference_jacobi(a, w)


# one twist per N = 1..4, the central term where it exists
JACOBI_DEGREE_CONFIGS = pytest.mark.parametrize("a", [
    acfg(1, (0,), central=True), acfg(1, (1,), central=True),
    acfg(2, (1, 0), central=True), acfg(3, (1, 1, 1), central=True),
    acfg(4, (1, 1, 0, 0)),
], ids=["n1-0", "n1-1", "n2-10", "n3-111", "n4-1100"])


def _jacobi_terms(a, K):
    """Each of the three terms of each mask triple's Jacobi sum, grouped by
    result (rk - p - q - r, rI), as a flat list over the exponent cube
    -K..K cubed, index ((p + K) * S + q + K) * S + r + K with S = 2K + 1;
    asserts on the way that its central part vanishes off total degree 0.
    Each bracket is read once from bracket_ints."""
    N = a.cfg.N
    n = 1 << N
    S = 2 * K + 1
    ks = range(-K, K + 1)
    inner = {(Y, Z): [(ey, ez, q + r, bracket_ints(a, q, Y, r, Z)[:3])
                      for ey, q in enumerate(ks) for ez, r in enumerate(ks)]
             for Y in range(n) for Z in range(n)}
    outer: dict = {}  # (X, rk, rI) -> [x, D[t^rk, xi_rI]] for x = (p, X), p in ks
    for m in combinations_with_replacement(range(n), 3):
        for u, v, t in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            X, Y, Z = m[u], m[v], m[t]  # the term [x, [y, z]]
            sgn = -1 if X.bit_count() & Z.bit_count() & 1 else 1
            groups: dict = {}
            for ey, ez, qr, (c2, rk, rI) in inner[Y, Z]:
                if not c2:
                    continue
                if (X, rk, rI) not in outer:
                    outer[X, rk, rI] = [bracket_ints(a, p, X, rk, rI) for p in ks]
                for ex, (c3, rk2, rI2, cen12) in enumerate(outer[X, rk, rI]):
                    p = ex - K
                    assert not cen12 or (a.cfg.degree(p, X) + a.cfg.degree(ey - K, Y)
                                         + a.cfg.degree(ez - K, Z) == 0)
                    if c3:
                        key = (rk2 - p - qr, rI2)
                        if key not in groups:
                            groups[key] = [0] * S ** 3
                        groups[key][(ex * S + ey) * S + ez] = sgn * c2 * c3
            yield from groups.values()


@JACOBI_DEGREE_CONFIGS
def test_jacobi_terms_have_degree_two_in_each_exponent(a):
    # each term of jacobi_sum's quadratic forms, read from the concrete
    # brackets: zero third differences in each exponent over -6..6, and
    # degree 2 is attained; its central part vanishes off total degree 0
    K = 6
    S = 2 * K + 1
    # a function on the cube as a flat list over (e_x, e_y, e_z); for each
    # axis stride, the points with two or three more on their line
    cube = [(step, [x for x in range(S ** 3) if x // step % S < S - 2],
             [x for x in range(S ** 3) if x // step % S < S - 3])
            for step in (S * S, S, 1)]
    quadratic = False
    for f in _jacobi_terms(a, K):
        for step, twos, threes in cube:
            assert not any(f[x] - 3 * f[x + step] + 3 * f[x + 2 * step]
                           - f[x + 3 * step] for x in threes)
            quadratic = quadratic or any(
                f[x] - 2 * f[x + step] + f[x + 2 * step] for x in twos)
    assert quadratic


@JACOBI_DEGREE_CONFIGS
def test_jacobi_terms_have_total_degree_two(a):
    # the same terms, read from the concrete brackets, have total degree 2,
    # the quadratic forms of jacobi_sum: every third-order difference, mixed
    # ones included, vanishes over -6..6, and some mixed second difference
    # does not (a product of two exponents is reached)
    K = 6
    S = 2 * K + 1
    steps = (S * S, S, 1)
    point = [(x // (S * S), x // S % S, x % S) for x in range(S ** 3)]
    orders = [(i, j, k) for i in range(4) for j in range(4 - i) for k in range(4 - i - j)]
    # the points where the difference of each order stays in the cube
    inside = {o: [x for x, c in enumerate(point) if all(e + d < S for e, d in zip(c, o))]
              for o in orders}
    mixed = False
    for f in _jacobi_terms(a, K):
        diffs = {(0, 0, 0): f}
        for o in orders[1:]:  # each after the one it differences
            axis = next(i for i in (2, 1, 0) if o[i])
            g = diffs[tuple(e - (i == axis) for i, e in enumerate(o))]
            diffs[o] = d = [v - u for u, v in zip(g, g[steps[axis]:])]
            if sum(o) == 3:
                assert not any(d[x] for x in inside[o]), o
            elif sorted(o) == [0, 1, 1]:
                mixed = mixed or any(d[x] for x in inside[o])
    assert mixed


def _returns(monkeypatch, name):
    """The results of every call of ``verify.<name>``, appended as they
    come."""
    results = []
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args, **kw: results.append(
        original(*args, **kw)) or results[-1])
    return results


def test_jacobi_computes_each_bracket_once(monkeypatch):
    # the structure constants of each ordered mask pair are computed once,
    # as one affine form, for every config and sweep of that twist
    calls = []
    original = algebra.pair_form
    monkeypatch.setattr(algebra, "pair_form",
                        lambda a, I, J: calls.append((I, J)) or original(a, I, J))
    algebra._pair_form_table.cache_clear()
    try:
        for central in (True, False):
            r = check_jacobi(acfg(2, (1, 0), central=central), Window(-2, 2))
            assert r.status == "pass" and r.stats["tuples_checked"] == 1540
    finally:
        algebra._pair_form_table.cache_clear()
    assert sorted(calls) == list(product(range(4), repeat=2))


@pytest.mark.parametrize("a, edit", [
    *[(acfg(2, (1, 0)), _bump({(1, 2)}, dshift=s)) for s in (-20, -12, -10, -9, -6, 5, 9, 20)],
    (acfg(2, (-1, -1)), _graded_escape(3)),
], ids=[*(f"moved{s:+d}" for s in (-20, -12, -10, -9, -6, 5, 9, 20)), "graded"])
def test_jacobi_finds_moved_and_foreign_forms(monkeypatch, a, edit):
    # a form whose results land far off (in one order only), or a graded
    # affine bracket that the formula does not have: the formal sums flag
    # their mask triples, and the Report is the sweep of every window triple
    _edit_forms(monkeypatch, edit)
    a = replace(a)
    w = Window(-2, 2)
    expected = _reference_jacobi(a, w)
    assert expected
    assert check_jacobi(a, w).violations == expected


@pytest.fixture
def fresh_parts():
    """An empty monomial_parts memo before and after the test, so that no
    parts built under a patched derivative stay in it."""
    grassmann.monomial_parts.cache_clear()
    yield
    grassmann.monomial_parts.cache_clear()


def _full_sweep(monkeypatch, check, *args):
    """The Report of ``check`` with every class flagged, so that the
    reference decides every window tuple."""
    original = verify._class_tuples
    size = 3 if check is check_jacobi else 2
    with monkeypatch.context() as m:
        m.setattr(verify, "_class_tuples", lambda keys, classes, **kw: original(
            keys, set(product(set(keys), repeat=size)), **kw))
        return check(*args)


def _calls(monkeypatch, name):
    """The argument tuples of every call of ``verify.<name>``, appended as
    they come."""
    calls = []
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: calls.append(args) or original(*args))
    return calls


def _concrete(calls):
    """The calls of a pair sweep's reference: those on integer exponents
    (a formal call's first symbol is over ``verify.FORMAL``)."""
    return [args for args in calls if args[1].params == ()]


def _curved_d_eps(monkeypatch):
    """SuperFunction.d_eps plus k^2 t^{k-1} xi_I on each term t^k xi_I: not
    affine in the exponent."""
    original = SuperFunction.d_eps

    def curved(self, cfg):
        return original(self, cfg) + SuperFunction(self.params, {
            (k - 1, im): grassmann.times(c, k * k)
            for (k, im), c in self.terms.items()})
    monkeypatch.setattr(SuperFunction, "d_eps", curved)


def _patch_forms(edit):
    return lambda monkeypatch: _edit_forms(monkeypatch, edit)


@pytest.mark.parametrize("a, edit, masks", [
    (acfg(2, (0, 0)), _scale_c2((0, 3), 2), (0, 1, 2)),
    (acfg(3, (1, 1, 0)), _tilt((1, 6), 1), (0, 1, 6)),
], ids=["scale-03", "tilt-16"])
def test_jacobi_lattice_reaches_past_the_cube(monkeypatch, a, edit, masks):
    # a fault whose residual on one mask triple vanishes on the offsets
    # {0, 1}^3 from the window's first exponent but not on the window: the
    # formal sums flag that mask triple, and the Report is the sweep of
    # every window triple
    _edit_forms(monkeypatch, edit)
    a = replace(a)
    w = Window(0, 3)

    def failing(offsets):
        return [t for t in offsets if any(_reference_residual(
            a, *((w.k_min + e, m) for e, m in zip(t, masks))))]

    assert not failing(product(range(2), repeat=3))
    assert failing(product(range(3), repeat=3))
    assert masks in algebra.jacobi_failures(a)
    r = check_jacobi(a, w)
    assert r.status == "fail" and r.violations == _reference_jacobi(a, w)
    assert any(sorted(int(m) for m in re.findall(r", (\d+)\)", v["inputs"])) == list(masks)
               for v in r.violations)


@pytest.mark.parametrize("w", [Window(0, 0), Window(-1, -1), Window(0, 1), Window(-1, 0)],
                         ids=["1-at-0", "1-at-neg1", "2-at-0", "2-at-neg1"])
@pytest.mark.parametrize("a, edit", [
    (acfg(3, (1, 1, 0)), _scale_c2((1, 2), 2)),
    (acfg(2, (0, 0)), _scale_c2((0, 3), 2)),
    (acfg(3, (1, 1, 0)), _tilt((1, 6), 1)),
    (acfg(3, (1, 1, -3), central=True, mutation="double_cocycle"), None),
], ids=["scale-12", "scale-03", "tilt-16", "cocycle"])
def test_jacobi_short_window_gives_the_full_sweep(monkeypatch, a, edit, w):
    # a window of 1 or 2 exponents: the formal route decides the same
    # classes, and its Report is the full sweep's
    if edit is not None:
        _edit_forms(monkeypatch, edit)
    a = replace(a)
    r = check_jacobi(a, w)
    full = _full_sweep(monkeypatch, check_jacobi, a, w)
    assert r.to_json(with_timing=False) == full.to_json(with_timing=False)
    assert r.violations == _reference_jacobi(a, w)


# sweep -> (check, the function of verify each compared pair calls, its calls
# per pair, twist, a short window)
PAIR_SWEEPS = {
    "crosscheck": (check_bracket_crosscheck, "contact_bracket", 1, (1, 1, 0),
                   Window(-1, -1)),
    "phi": (check_phi, "bracket", 2, (1, 0), Window(-1, 0)),
}
# case -> (mutation, window (None: the short one), patch)
PAIR_SWEEP_CASES = {
    # the forms of one mask pair scaled or tilted, in both orders
    "scale-12": (None, SMALL, _patch_forms(_scale_c2((1, 2), 2))),
    "scale-03": (None, Window(-3, 3), _patch_forms(_scale_c2((0, 3), -1))),
    "tilt-32": (None, Window(0, 3), _patch_forms(_tilt((3, 2), 2))),
    # a constant added to one mask pair's forms in both orders, a mutation
    # that breaks super-antisymmetry, a d_eps that is not affine in the
    # exponent, a window of one or two exponents
    "c2-bump": (None, SMALL, _patch_forms(_bump({(1, 2), (2, 1)}, dc0=1))),
    "sign": ("drop_sign_intersection", SMALL, lambda monkeypatch: None),
    "d-eps": (None, SMALL, _curved_d_eps),
    "short": (None, None, _patch_forms(_scale_c2((0, 3), -1))),
}


@pytest.mark.parametrize("sweep", PAIR_SWEEPS)
@pytest.mark.parametrize("case", PAIR_SWEEP_CASES)
def test_pair_sweep_grid_finds_every_violation(monkeypatch, fresh_parts, sweep, case):
    # a broken algebra: the Report equals the sweep that hands the reference
    # every pair, and the reference compares exactly the window pairs of the
    # classes the formal comparison flags, once each
    check, spied, per_pair, eps, short = PAIR_SWEEPS[sweep]
    mutation, w, patch = PAIR_SWEEP_CASES[case]
    w = w or short
    patch(monkeypatch)
    a = acfg(len(eps), eps, mutation=mutation)
    full = _full_sweep(monkeypatch, check, a, w)
    calls = _calls(monkeypatch, spied)
    handed = _returns(monkeypatch, "_class_tuples")
    r = check(a, w)
    assert r.status == "fail"
    assert r.to_json(with_timing=False) == full.to_json(with_timing=False)
    n = len(w.k_values()) << a.cfg.N
    pairs = n * n if sweep == "crosscheck" else n * (2 * n + 1)
    assert r.stats["tuples_checked"] == pairs
    (tuples,) = handed
    assert 0 < len(tuples) == len(set(tuples))
    assert len(_concrete(calls)) == per_pair * len(tuples)


def _grid_degree(groups, bound):
    """The largest degree, up to ``bound``, of the functions ``groups`` (each
    a square list of lists over the exponent grid) in either exponent;
    asserts zero ``bound + 1``-th differences along every row and column."""
    top = 0
    for f in groups.values():
        for lines in (f, list(zip(*f))):
            for line in lines:
                for e in range(bound + 1):
                    if not any(line):
                        break
                    top = max(top, e)
                    line = [v - u for u, v in zip(line, line[1:])]
                else:
                    assert not any(line)
    return top


def _pair_sides(pairs, K):
    """Each side of a pair sweep grouped by output offset: for ``pairs[(p,
    q)]`` the sides' term dicts over keys ``(k, mask)``, the map from (side,
    k - p - q, mask) to twice the coefficients over -K..K x -K..K."""
    S = 2 * K + 1
    groups: dict = {}
    for (p, q), sides in pairs.items():
        for tag, terms in enumerate(sides):
            for (k, im), c in terms.items():
                re, imag, den = c.const_parts()
                assert imag == 0 and 2 % den == 0
                grid = groups.setdefault((tag, k - p - q, im), [[0] * S for _ in range(S)])
                grid[p + K][q + K] = re * 2 // den
    return groups


# the twists of the table oracle configs, N = 1..4
ORACLE_TWISTS = sorted({a.cfg.eps for a, _ in TABLE_ORACLE_CONFIGS if a.mutation is None},
                       key=lambda eps: (len(eps), eps))


@pytest.mark.parametrize("eps", [e for e in ORACLE_TWISTS if len(e) < 4 or e == (1, 1, 0, 0)],
                         ids=lambda eps: ",".join(map(str, eps)))
def test_crosscheck_sides_have_degree_one_in_each_exponent(eps):
    # the shape of the crosscheck's formal comparison, seen on the concrete
    # sides: per ordered mask pair, both sides (structure constants and
    # contact bracket), grouped by output offset, have zero second
    # differences in each exponent over -6..6, and degree 1 is attained
    K = 6
    a = acfg(len(eps), eps)
    n = 1 << a.cfg.N
    parts = {(p, im): grassmann.monomial_parts(a.cfg, (), p, im)
             for p in range(-K, K + 1) for im in range(n)}
    top = 0
    for I in range(n):
        for J in range(n):
            top = max(top, _grid_degree(_pair_sides({
                (p, q): (algebra.bracket_basis(a, (p, I), (q, J)).d.terms,
                         grassmann.contact_bracket(a.cfg, parts[p, I], parts[q, J]).terms)
                for p in range(-K, K + 1) for q in range(-K, K + 1)}, K), 1))
    assert top == 1


@pytest.mark.parametrize("eps", [e for e in ORACLE_TWISTS if len(e) < 3 or e == (1, 1, 1)],
                         ids=lambda eps: ",".join(map(str, eps)))
def test_phi_sides_have_degree_two_in_each_exponent(eps):
    # the same for phi's two sides, per class the sweep meets (a D-symbol,
    # then a D-symbol or a function): their D- and A-parts, grouped by
    # output offset, have zero third differences in each exponent over
    # -6..6, and degree 2 is attained
    K = 6
    a = acfg(len(eps), eps)
    n = 1 << a.cfg.N
    ks = range(-K, K + 1)
    elems = {(kind, im, p): make((), p, im)
             for kind, make in (("D", AlgebraElement.d_symbol),
                                ("A", AlgebraElement.a_monomial))
             for im in range(n) for p in ks}
    images = {key: algebra.phi(a, x) for key, x in elems.items()}
    top = 0
    for I in range(n):
        for y in [("D", J) for J in range(n)] + [("A", J) for J in range(n)]:
            sides = {}
            for p in ks:
                for q in ks:
                    x, yk = ("D", I, p), (*y, q)
                    lhs = algebra.phi(a, bracket(a, elems[x], elems[yk]))
                    rhs = bracket(a, images[x], images[yk])
                    sides[p, q] = (lhs.d.terms, lhs.a.terms, rhs.d.terms, rhs.a.terms)
            top = max(top, _grid_degree(_pair_sides(sides, K), 2))
    assert top == 2


@pytest.mark.parametrize("edit, eps", [
    (_tilt((3, 2), 2), None),  # the two twists see a different p - q
    (_bump({(1, 2), (2, 1)}, dc0=1), (0, 0)),  # on the target's forms only
], ids=["tilt-32", "c2-bump"])
def test_eps_shift_grid_finds_every_violation(monkeypatch, edit, eps):
    _edit_forms(monkeypatch, edit, eps)
    args = (EpsilonConfig(2, (2, 0)), EpsilonConfig(2, (0, 0)), SMALL)
    full = _full_sweep(monkeypatch, check_eps_shift, *args)
    calls = _calls(monkeypatch, "bracket")
    r = check_eps_shift(*args)
    assert r.status == "fail"
    assert r.to_json(with_timing=False) == full.to_json(with_timing=False)
    assert 0 < len(_concrete(calls)) < 2 * r.stats["tuples_checked"]


def test_phi_grid_needs_an_affine_coefficient(monkeypatch):
    # a phi whose added coefficient has an extra p^2: the formal comparison
    # flags the classes it breaks, and the Report is the full sweep's
    def curved(a, x):
        extra = {(p - 1, im): grassmann.times(c, p * p)
                 for (p, im), c in x.d.terms.items()}
        return algebra.phi(a, x) + AlgebraElement(x.params, a=SuperFunction(x.params, extra))

    monkeypatch.setattr(verify, "phi", curved)
    a = acfg(2, (1, 0))
    full = _full_sweep(monkeypatch, check_phi, a, SMALL)
    r = check_phi(a, SMALL)
    assert r.status == "fail"
    assert r.to_json(with_timing=False) == full.to_json(with_timing=False)
    assert r.stats["tuples_checked"] == 20 * 41


@pytest.mark.parametrize("check, eps, spied, classes, tuples", [
    (check_bracket_crosscheck, (1, 1, 0), "contact_bracket", 8 ** 2, 56 * 56),
    (check_phi, (1, 0), "bracket", 2 * (2 * 4) ** 2, 56 * 57 // 2),
], ids=["crosscheck", "phi"])
def test_passing_pair_sweep_compares_the_grid(monkeypatch, check, eps, spied, classes,
                                              tuples):
    # a passing sweep compares each class once, with formal exponents: one
    # contact bracket per ordered mask pair for the crosscheck, 2 brackets
    # per ordered pair of kinds and masks for phi, and no window pair
    calls = _calls(monkeypatch, spied)
    r = check(acfg(len(eps), eps), Window(-3, 3))
    assert r.status == "pass" and r.stats["tuples_checked"] == tuples
    assert len(calls) == classes and not _concrete(calls)


def _specialised(x, at):
    """A formal SuperFunction or AlgebraElement (keys and coefficients
    Scalars over ``verify.FORMAL``) at the integer exponents ``at``, over
    no parameters."""
    def value(s):
        return s.at(at).as_gaussrat()

    def function(f):
        out: dict = {}
        for (k, im), c in f.terms.items():
            k = k if isinstance(k, int) else value(k).re
            add_term(out, (int(k), im), Scalar.const((), value(c)))
        return SuperFunction((), out)

    if isinstance(x, SuperFunction):
        return function(x)
    return AlgebraElement((), function(x.d), function(x.a), Scalar.const((), value(x.central)))


@pytest.mark.parametrize("eps", ORACLE_TWISTS, ids=lambda eps: ",".join(map(str, eps)))
def test_formal_sweeps_specialise_to_the_concrete_ones(eps):
    # the condition the formal route rests on: the library run on formal
    # exponents and then specialised (Scalar.at) gives what it gives on the
    # integers, for both sides of the crosscheck, of phi and of the shift to
    # the 0/1 twist, and for the Jacobi sum with its central part where it
    # exists
    N = len(eps)
    a = acfg(N, eps, central=N <= 3)
    cfg, stripped = a.cfg, replace(a, central_enabled=False)
    F = verify.FORMAL
    P, Q = (Scalar.var(F, x) for x in F)
    points = [(-1, 2), (0, 0), (2, -1)]
    masks = range(1 << N)
    for I, J in product(masks, repeat=2):
        formal = (algebra.bracket_basis(stripped, (P, I), (Q, J), F).d,
                  grassmann.contact_bracket(cfg, grassmann.monomial_parts(cfg, F, P, I),
                                            grassmann.monomial_parts(cfg, F, Q, J)))
        for p, q in points:
            assert tuple(_specialised(s, {"p": p, "q": q}) for s in formal) == (
                algebra.bracket_basis(stripped, (p, I), (q, J)).d,
                grassmann.contact_bracket(cfg, SuperFunction.monomial((), p, I),
                                          SuperFunction.monomial((), q, J)))
    dst = EpsilonConfig(N, tuple(e % 2 for e in eps))
    maps = [(stripped, lambda x: algebra.phi(stripped, x)),
            (AlgebraConfig(dst), lambda x: algebra.eps_shift_map(cfg, dst, x))]
    kinds = [(make, im) for make in (AlgebraElement.d_symbol, AlgebraElement.a_monomial)
             for im in masks]
    for target, f in maps if N < 4 else ():
        for (mx, I), (my, J) in product(kinds, repeat=2):
            def sides(p, q, params):
                x, y = mx(params, p, I), my(params, q, J)
                return f(bracket(stripped, x, y)), bracket(target, f(x), f(y))
            formal = sides(P, Q, F)
            for p, q in points:
                assert tuple(_specialised(s, {"p": p, "q": q}) for s in formal) == sides(p, q, ())
    cube = list(product((-1, 0, 2), repeat=3))
    for m in product(masks, repeat=3) if N < 4 else combinations_with_replacement(masks, 3):
        d, cen = algebra.jacobi_sum(a, m)
        for T, value in cen.items():
            for p, q in points:
                at = (p, q, T - p - q)
                got = verify._jacobi_residual(a, *zip(at, m))[1]
                assert value.at({"p": p, "q": q}) == got
        for at in cube:
            terms, c = verify._jacobi_residual(a, *zip(at, m))
            v = (1, *at)
            want = {(sum(at) + shift, mask): sum(k * v[i] * v[j] for k, (i, j)
                                                 in zip(coeffs, algebra.QUADRATIC))
                    for (shift, mask), coeffs in d.items()}
            assert terms == {key: x for key, x in want.items() if x}
            assert c == (cen[sum(at)].at({"p": at[0], "q": at[1]}) if sum(at) in cen else 0)


PASSING_BENCHMARK_SWEEPS = [
    (check_jacobi, acfg(3, (1, 1, 1), central=True), Window(-4, 4)),
    (check_jacobi, acfg(4, (1, 1, 0, 0)), Window(-3, 3)),
    (check_bracket_crosscheck, acfg(3, (1, 1, 0)), Window(-3, 3)),
    (check_phi, acfg(2, (1, 0)), Window(-3, 3)),
]


def test_passing_bracket_sweeps_hand_the_reference_nothing(monkeypatch):
    # the bracket checks of the benchmark's bracket_sweep: each passes on
    # formal exponents alone, no window tuple reaches _jacobi_residual or a
    # pair comparison on integer exponents, and no bracket is computed at
    # integer exponents
    decided = _calls(monkeypatch, "_jacobi_residual")
    compared = {name: _calls(monkeypatch, name) for name in ("contact_bracket", "bracket")}
    handed = _returns(monkeypatch, "_class_tuples")
    computed = []
    monkeypatch.setattr(algebra, "bracket_ints",
                        lambda *args: computed.append(args) or bracket_ints(*args))
    for check, a, w in PASSING_BENCHMARK_SWEEPS:
        assert check(a, w).status == "pass"
    assert handed == [[]] * len(PASSING_BENCHMARK_SWEEPS)
    assert not decided and not any(_concrete(c) for c in compared.values())
    assert computed and not any(isinstance(args[1], int) for args in computed)


@pytest.mark.parametrize("eps", [(1,) * 5, (0,) * 5], ids=["ramond", "ns"])
def test_bracket_sweeps_at_n5(eps):
    # N = 5, in the paper's range N != 4: Jacobi, the crosscheck and phi
    # pass, and their mutations fail on one exponent; on the Ramond twist
    # every shift_sum is 0, so there drop_phi_coeff changes nothing
    w = Window(-2, 2)
    for check in (check_jacobi, check_bracket_crosscheck, check_phi):
        assert check(acfg(5, eps), w).status == "pass"
    one = Window(0, 0)
    for check, mutation, fails in (
            (check_bracket_crosscheck, "drop_sign_intersection", True),
            (check_jacobi, "drop_sign_intersection", True),
            (check_phi, "drop_phi_coeff", eps == (0,) * 5)):
        r = check(acfg(5, eps, mutation=mutation), one)
        assert (r.status == "fail") == fails == bool(r.violations)


@pytest.mark.parametrize("eps, n_bad", [
    ((1,), 5), ((1, 1), 20), ((1, 1, 1), 69), ((1,) * 5, 845),
], ids=["n1", "n2", "n3", "n5"])
def test_phi_control_on_ramond_twists(eps, n_bad):
    # every shift_sum of a Ramond twist is 0, so drop_phi_coeff leaves phi
    # correct there; drop_sign_intersection is the control that makes
    # check_phi fail on those twists
    w = Window(-1, 1)
    assert check_phi(acfg(len(eps), eps, mutation="drop_phi_coeff"), w).status == "pass"
    r = check_phi(acfg(len(eps), eps, mutation="drop_sign_intersection"), w)
    assert r.status == "fail" and len(r.violations) == n_bad


@pytest.mark.parametrize("check, eps, monomials", [
    (check_bracket_crosscheck, (1, 1, 0), 56),
    (check_phi, (1, 0), 32),
])
def test_superfunction_sweeps_differentiate_each_monomial_once(monkeypatch, check,
                                                                eps, monomials):
    # each unit monomial, formal or of the window (7 exponents, 2**N masks;
    # phi's images add one exponent below), is differentiated once, however
    # many pairs it meets, also when the reference is handed every window
    # pair: at most 3N partial calls and one d_eps call each
    calls = {"partial": 0, "d_eps": 0}

    def spy(name):
        original = getattr(SuperFunction, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)
        return counted

    for name in calls:
        monkeypatch.setattr(SuperFunction, name, spy(name))
    grassmann.monomial_parts.cache_clear()
    a = acfg(len(eps), eps)
    assert check(a, Window(-3, 3)).status == "pass"
    formal = grassmann.monomial_parts.cache_info().currsize
    assert _full_sweep(monkeypatch, check, a, Window(-3, 3)).status == "pass"
    size = grassmann.monomial_parts.cache_info().currsize
    assert size == formal + monomials
    assert 0 < calls["partial"] <= 3 * len(eps) * size
    assert 0 < calls["d_eps"] <= size


def test_unknown_mutation_rejected():
    with pytest.raises(UsageError):
        acfg(2, (1, 0), mutation="drop_delta_10")
    with pytest.raises(UsageError):
        acfg(2, (1, 0), mutation=["drop_delta_l0"])
    M = n2()
    with pytest.raises(UsageError):
        TensorModule(M.cfg, M.rep, M.a, mutation="swap_tua")
    cfg = {"algebra": {"N": 2, "eps": [1, 1]}, "rep": {"kind": "so2"}}
    assert module_from_config({**cfg, "mutation": "swap_tau"}).mutation == "swap_tau"
    with pytest.raises(UsageError):
        module_from_config({**cfg, "mutation": "swap_tua"})


def _swap_tau_control():
    M = n2(eps=(1, 0))
    return (TensorModule(M.cfg, M.rep, M.a, mutation="swap_tau"),
            module_window(-1, 1, M, inner_width=2))


# one negative control per registered mutation: (target check, its arguments)
NEGATIVE_CONTROLS = {
    "drop_sign_intersection": (check_bracket_crosscheck, lambda: (
        acfg(2, (1, 0), mutation="drop_sign_intersection"), SMALL)),
    "double_cocycle": (check_jacobi, lambda: (
        acfg(2, (1, 1), central=True, mutation="double_cocycle"), SMALL)),
    "drop_phi_coeff": (check_phi, lambda: (
        acfg(2, (1, 0), mutation="drop_phi_coeff"), SMALL)),
    "drop_delta_l0": (check_filtration, lambda: (
        acfg(2, (1, 1), mutation="drop_delta_l0"), 1, SMALL)),
    "swap_tau": (check_module_axioms, _swap_tau_control),
}


def test_every_mutation_has_a_control():
    registry = {**ALGEBRA_MUTATIONS, **MODULE_MUTATIONS}
    assert set(NEGATIVE_CONTROLS) == set(registry)
    for name, (check, _) in NEGATIVE_CONTROLS.items():
        assert check.__name__ == registry[name]


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_negative_control_fails(name):
    check, args = NEGATIVE_CONTROLS[name]
    r = check(*args())
    assert r.status == "fail" and r.violations


def test_eps_shift_check():
    w = Window(-2, 2, -2, 2, 0)
    r = check_eps_shift(EpsilonConfig(2, (2, 0)), EpsilonConfig(2, (0, 0)), w)
    assert r.status == "pass"
    with pytest.raises(UsageError):
        check_eps_shift(EpsilonConfig(2, (1, 0)), EpsilonConfig(2, (0, 0)), w)


def test_closure_simple_module_fills():
    M = n2()
    w = module_window(-2, 2, M)
    res = closure(M, [ModVec.basis(P, ModBasisVec(0, 0, 0))], w,
                  {"a": Fraction(5, 7), "b": 1, "c": 1})
    assert res.inner_full
    assert set(res.inner_dims().values()) == {4}


def test_closure_degenerate_stays_in_wplus():
    M = n2()
    w = module_window(-2, 2, M)
    vp = ModVec(P, {ModBasisVec(0, iset(1), 0): Scalar.const(P, 1),
                    ModBasisVec(0, iset(2), 0): Scalar.const(P, GaussRat(0, 1))})
    res = closure(M, [vp], w, {"a": Fraction(5, 7), "b": 1, "c": GaussRat(0, -1)})
    assert set(res.inner_dims().values()) == {2}


def test_closure_trivial_line():
    M = n2(eps=(1, 0), b=0, c=0, a=1, sector=0)
    w = module_window(-2, 2, M)
    res = closure(M, [ModVec.basis(P, ModBasisVec(-1, iset(1, 2), 0))], w, {"a": 1})
    assert sum(res.dims.values()) == 1
    assert res.dims[-1] == 1


def test_closure_requires_seeds():
    M = n2()
    with pytest.raises(UsageError):
        closure(M, [], module_window(-2, 2, M), {"a": 1, "b": 1, "c": 1})


def test_closure_rejects_mixed_weight_seed():
    M = n2()
    seed = ModVec(P, {ModBasisVec(0, 0, 0): Scalar.const(P, 1),
                      ModBasisVec(2, 0, 0): Scalar.const(P, 1)})
    with pytest.raises(UsageError):
        closure(M, [seed], module_window(-2, 2, M), {"a": Fraction(5, 7), "b": 1, "c": 1})


def test_simplicity_verdicts():
    M = n2()
    w = module_window(-2, 2, M)
    simple = window_simplicity(M, w, {"a": Fraction(5, 7), "b": 1, "c": 1})
    assert simple.status == "info"
    assert simple.details["verdict"] == "window-simple"
    assert "not a proof" in simple.details["note"]
    degenerate = window_simplicity(M, w, {"a": Fraction(5, 7), "b": 1,
                                          "c": GaussRat(0, -1)})
    assert degenerate.details["verdict"] == "proper-invariant-subspace"
    assert set(degenerate.details["smallest_inner_dims"].values()) == {2}


# the first off-lattice vector each probe meets, inner weights first: a
# so_2 image when b != 0, else a table seed (see CHANGES.md)
@pytest.mark.parametrize("b,c,vector", [
    (Fraction(1, 3), Fraction(2, 5), "ModBasisVec(l=-3, J=0, r=0)"),
    (0, 0, "ModBasisVec(l=-1, J=0, r=0)"),
])
def test_off_lattice_vector_is_a_usage_error(b, c, vector):
    M = n2(eps=(1, 0), b=b, c=c, sector=0)
    with pytest.raises(UsageError, match=re.escape(vector)):
        window_simplicity(M, module_window(-2, 2, 2), {"a": Fraction(5, 7)})


def test_submodule_closure_wplus():
    M = n2()
    w = module_window(-2, 2, M)
    r = check_submodule_closure(M, "W_plus", w,
                                {"a": Fraction(5, 7), "b": 1, "c": GaussRat(0, -1)})
    assert r.status == "pass"


@pytest.mark.parametrize("name, b, c", [
    ("W_plus", 1, GaussRat(0, 1)), ("W_plus", Fraction(1, 3), Fraction(2, 5)),
    ("W_minus", 1, GaussRat(0, -1)), ("W_minus", Fraction(1, 3), Fraction(2, 5)),
])
def test_w_off_its_locus_is_a_usage_error(name, b, c):
    # W+ is closed on b = i c, W- on b = -i c, and nowhere else: the
    # mirrored point and a generic one gave 12 violations each before
    # named_submodule refused them
    M = n2()
    w = module_window(-1, 1, M, inner_width=2)
    asn = {"a": Fraction(5, 7), "b": b, "c": c}
    locus = "b = i c" if name == "W_plus" else "b = -i c"
    with pytest.raises(UsageError, match=f"{name} requires {locus}"):
        check_submodule_closure(M, name, w, asn)
    with pytest.raises(UsageError, match=f"{name} requires {locus}"):
        named_submodule(M, name, range(0, 1))  # b and c formal
    quotient = "quotient_wplus" if name == "W_plus" else "quotient_wminus"
    with pytest.raises(UsageError, match=f"{quotient} requires {locus}"):
        iso_target(n2(b=b, c=c), quotient)
    on_locus = {**asn, "b": 1, "c": GaussRat(0, -1 if name == "W_plus" else 1)}
    assert check_submodule_closure(M, name, w, on_locus).status == "pass"


def test_submodule_closure_reports_images_outside_the_span(monkeypatch):
    # a fake W_plus span without its generator (a/2 - 2) v - i w at weight
    # -4: the images that land there leave the span
    named = verify.named_submodule
    monkeypatch.setattr(verify, "named_submodule",
                        lambda *args: (lambda g: g[:3] + g[4:])(named(*args)))
    M = n2()
    r = check_submodule_closure(M, "W_plus", module_window(-1, 1, M, inner_width=2),
                                W_LOCUS)
    assert r.status == "fail"
    assert len(r.violations) == 4
    assert not any("+-" in v["lhs"] or "; " in v["lhs"] for v in r.violations)
    witness = next(v for v in r.violations
                   if v["inputs"] == "gen[0][0] under op=(-1,1)")
    assert witness["lhs"] == "(23+0i)*D{}.v0@l=-4 + (0+14i)*D{1,2}.v0@l=-4"
    assert witness["rhs"] == "span of W_plus at weight -4"


def test_failing_submodule_closure_report_pinned(monkeypatch):
    # F' at N=3 with its first generator at weight 0 moved off the span by
    # a basis vector: the witness of every image that leaves the span is
    # pinned byte for byte
    named = verify.named_submodule

    def perturbed(module, name, l_range):
        gens = named(module, name, l_range)
        i = next(i for i, g in enumerate(gens) if {bv.l for bv in g.terms} == {0})
        gens[i] = gens[i] + ModVec.basis(module.params, ModBasisVec(0, 0, 0))
        return gens

    monkeypatch.setattr(verify, "named_submodule", perturbed)
    M = _n3(2, Fraction(-1))
    r = check_submodule_closure(M, "F_prime", module_window(-1, 1, M, inner_width=2),
                                {"a": Fraction(5, 7)})
    assert r.status == "fail"
    assert (len(r.violations), r.stats["tuples_checked"]) == (33, 384)
    assert r.violations[0]["inputs"] == "gen[0][0] under op=(-1,0)"
    text = r.to_json(with_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "747d37ced3293a46c91a123e04a66f6b192d1b968433b02d721a942dfb646d2b"


# inner weight 1 only, which is off the even lattice of the all-ones twist
NO_INNER_BASIS = Window(-1, 1, -7, 9, 8)
ORIGIN_ONLY = {"a": Fraction(5, 7)}


@pytest.mark.parametrize("run", [
    lambda: window_simplicity(_n3(1, Fraction(3, 11)), NO_INNER_BASIS, ORIGIN_ONLY),
    # N=1 has no table, so the probe has no seed but the inner basis
    lambda: window_simplicity(
        TensorModule(EpsilonConfig(1, (1,)), SoRep(1, 1, {}, C, P, "so1"), A),
        NO_INNER_BASIS, {**ORIGIN_ONLY, "c": 1}),
    lambda: check_omega(_n3(1, Fraction(3, 11)), 2, NO_INNER_BASIS, ORIGIN_ONLY),
    lambda: check_module_axioms(_n3(1), NO_INNER_BASIS),
    lambda: iso_check_map(_n3(1), "identity", NO_INNER_BASIS),
    lambda: check_submodule_closure(_n3(2, Fraction(-1)), "F_prime", NO_INNER_BASIS,
                                    ORIGIN_ONLY),
], ids=["simplicity-n3", "simplicity-n1", "omega", "module_axioms", "iso_identity",
        "submodule_closure"])
def test_window_without_inner_basis_is_a_usage_error(run):
    # a check over no inner basis vector checks nothing: it refuses the window
    with pytest.raises(UsageError, match=r"inner weights 1\.\.1 .* hold no basis"):
        run()


def test_submodule_closure_counts_only_targets_in_the_window():
    # a window whose margin (1) is narrower than the ops' shifts (down to
    # -4): from the inner weight -4 the 8 ops of shift -4 land at -8,
    # outside -6..6, and these 128 tuples (16 generators there) are not
    # counted; the window of margin 4 over the same inner weights counts them
    M = _n3(2, Fraction(-1))
    narrow = check_submodule_closure(M, "F_prime", Window(-1, 1, -6, 6, 1), ORIGIN_ONLY)
    wide = check_submodule_closure(M, "F_prime", Window(-1, 1, -9, 9, 4), ORIGIN_ONLY)
    assert narrow.status == wide.status == "pass"
    assert (narrow.stats["tuples_checked"], wide.stats["tuples_checked"]) == (1792, 1920)


def test_simplicity_middle_must_be_positive():
    M = n2()
    with pytest.raises(UsageError, match="middle must be at least 1"):
        window_simplicity(M, module_window(-2, 2, M), W_LOCUS, middle=0)


@pytest.mark.xfail(strict=True, raises=UsageError,
                   reason="open: twisted N=2 sector modules map vectors off "
                          "their own lattice")
@pytest.mark.parametrize("sector,stop", [(0, -3), (1, -3)])
def test_twisted_n2_probe_stays_in_its_sector(sector, stop):
    # the action (D[t^p, xi1 xi2] on a prefix-free vector moves l by an odd
    # amount) and the table seeds leave the sector; the probe stops at the
    # first vector outside its weight space's basis
    M = n2(eps=(1, 0), b=Fraction(1, 3), c=Fraction(2, 5), a=Fraction(5, 7),
           sector=sector)
    try:
        r = window_simplicity(M, module_window(-2, 2, 2), {}, middle=1)
    except UsageError as e:
        assert f"l={stop}," in str(e)
        raise
    assert r.details["verdict"]


def test_submodule_closure_fprime():
    M = TensorModule(EpsilonConfig(3, (1, 1, 1)), build_so3_vm(2, Fraction(-1), P), A)
    w = module_window(-2, 2, M)
    r = check_submodule_closure(M, "F_prime", w, {"a": Fraction(5, 7)})
    assert r.status == "pass"


def test_submodule_closure_evaluates_only_the_weights_it_reads(monkeypatch):
    # F' has 16 generators at each of the 13 even weights of the window; the
    # check reads the inner weights -2, 0, 2 and the targets of the window's
    # ops from them (shifts -6..2), so it evaluates the generators at -8..4
    weights = []
    eval_modvec = EvaluatedAction.eval_modvec

    def spy(self, v):
        weights.extend({bv.l for bv in v.terms})
        return eval_modvec(self, v)

    monkeypatch.setattr(EvaluatedAction, "eval_modvec", spy)
    M = TensorModule(EpsilonConfig(3, (1, 1, 1)), build_so3_vm(2, Fraction(-1), P), A)
    w = module_window(-2, 2, M)
    assert len(named_submodule(M, "F_prime", range(w.l_min, w.l_max + 1))) == 13 * 16
    r = check_submodule_closure(M, "F_prime", w, {"a": Fraction(5, 7)})
    assert r.status == "pass"
    assert sorted(set(weights)) == list(range(-8, 5, 2))
    assert len(weights) == 7 * 16


def test_closures_compute_no_image_for_a_settled_target(monkeypatch):
    # settled: the target weight has no space, or its space is full
    made = []
    settled_targets = []

    class Recording(WeightSpaces):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    act_vec = EvaluatedAction.act_vec

    def spy(self, p, im, l, vec):
        spaces = made[-1]
        t = l + self.module.cfg.degree(p, im)
        settled_targets.append(spaces.rank(t) == spaces.dim(t))
        return act_vec(self, p, im, l, vec)

    monkeypatch.setattr(verify, "WeightSpaces", Recording)
    monkeypatch.setattr(EvaluatedAction, "act_vec", spy)
    M = TensorModule(EpsilonConfig(3, (1, 1, 1)),
                     build_so3_vm(1, Fraction(3, 11), P), A)
    w = module_window(-1, 1, M, inner_width=2)
    res = closure(M, [ModVec.basis(P, ModBasisVec(0, 0, 0))], w,
                  {"a": Fraction(5, 7)})
    assert res.inner_dims() == {0: 16}
    assert settled_targets and not any(settled_targets)
    settled_targets.clear()
    M = TensorModule(EpsilonConfig(3, (1, 1, 1)), build_so3_vm(2, Fraction(-1), P), A)
    r = check_submodule_closure(M, "F_prime", w, {"a": Fraction(5, 7)})
    assert r.status == "pass"
    assert r.stats["tuples_checked"] == 384
    assert settled_targets and not any(settled_targets)


def test_submodule_closure_counts_zero_images(monkeypatch):
    images = []
    act_vec = EvaluatedAction.act_vec

    def spy(self, p, im, l, vec):
        out = act_vec(self, p, im, l, vec)
        images.append(out[1])
        return out

    monkeypatch.setattr(EvaluatedAction, "act_vec", spy)
    M = TensorModule(EpsilonConfig(3, (1, 1, 1)), build_so3_vm(2, Fraction(-1), P), A)
    r = check_submodule_closure(M, "F_prime", module_window(-1, 1, M, inner_width=2),
                                {"a": Fraction(5, 7)})
    assert r.status == "pass"
    assert sum(not v for v in images) == 28
    # no target space is full here, so every counted tuple has its image
    assert r.stats["tuples_checked"] == len(images)


def test_omega_minimal_orders():
    M = n2(b=0, c=0, a=1, eps=(1, 0), sector=0)
    w = module_window(-1, 1, M, inner_width=2)
    r = check_omega(M, 4, w, {"a": 1})
    assert r.status == "info"
    assert r.details["all_found"]
    # a single product (order zero analogue) does not annihilate a
    # nontrivial module: the order-1 operator is genuinely needed
    M2 = n2()
    w2 = module_window(-1, 1, M2, inner_width=2)
    r2 = check_omega(M2, 6, w2, {"a": Fraction(5, 7), "b": 1, "c": 1})
    assert r2.details["all_found"]
    assert all(v >= 1 for v in r2.details["minimal_m"].values())


def test_omega_m_max_validation():
    M = n2()
    with pytest.raises(UsageError):
        check_omega(M, 0, module_window(-1, 1, M), {"a": 1, "b": 1, "c": 1})


def _reference_omega(module, m_max, w, params):
    """check_omega summed in GaussRats through ``EvaluatedAction.act_d``."""
    ev = module.eval_cache(params)
    vecs = [bv for l in range(w.inner_l_min, w.inner_l_max + 1)
            for bv in module.basis_at(l)]
    found = {}
    n = 0
    for imask in range(1 << module.cfg.N):
        minimal = None
        for m in range(1, m_max + 1):
            binom = [1]
            for i in range(m):
                binom.append(binom[-1] * (m - i) // (i + 1))
            ok = True
            for k in w.k_values():
                for p in w.k_values():
                    for bv in vecs:
                        n += 1
                        acc = {}
                        for i in range(m + 1):
                            coeff = GaussRat(binom[i] if i % 2 == 0 else -binom[i])
                            for bv2, g2 in ev.act_d(p + i, 0, bv):
                                for bv3, g3 in ev.act_d(k - i, imask, bv2):
                                    acc[bv3] = acc.get(bv3, GaussRat(0)) + g2 * g3 * coeff
                        if any(acc.values()):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                minimal = m
                break
        found[imask] = minimal
    details = {"minimal_m": {format_monomial(0, im) if im else "1": v
                             for im, v in sorted(found.items())},
               "m_max": m_max,
               "all_found": all(v is not None for v in found.values())}
    return finish(f"omega[N={module.cfg.N},eps={module.cfg.eps},"
                  f"rep={module.rep.label}]", [], n, 0.0, status="info",
                  details=details)


OMEGA_ORACLE_CONFIGS = {
    "n2_trivial": (lambda: n2(b=0, c=0, a=1, eps=(1, 0), sector=0), 4,
                   {"a": 1}, True),
    "n2_generic": (lambda: n2(), 6, {"a": Fraction(5, 7), "b": 1, "c": 1}, True),
    "n3_2m2": (lambda: _n3(2, Fraction(3, 11)), 4, {"a": Fraction(5, 7)}, True),
    # below the minimal order 3: nothing is found
    "n3_2m2_below": (lambda: _n3(2, Fraction(3, 11)), 2, {"a": Fraction(5, 7)},
                     False),
}


@pytest.mark.parametrize("name", sorted(OMEGA_ORACLE_CONFIGS))
def test_omega_matches_gaussrat_route(name):
    make, m_max, params, all_found = OMEGA_ORACLE_CONFIGS[name]
    M = make()
    w = module_window(0, 1, M, inner_width=2)
    got = check_omega(M, m_max, w, params)
    assert got.details["all_found"] is all_found
    if not all_found:
        assert set(got.details["minimal_m"].values()) == {None}
    want = _reference_omega(make(), m_max, w, params)
    assert got.to_json(with_timing=False) == want.to_json(with_timing=False)


def test_table_agreement_reports():
    w = Window(-2, 2, -2, 2, 0)
    n3 = TensorModule(EpsilonConfig(3, (1, 1, 1)), build_so3_vm(2, C, P), A)
    for M in (n2(), n3):
        r = check_table_agreement(M, w)
        assert r.status == "pass" and not r.violations


def test_table_agreement_pinned_at_benchmark_scale():
    # V_1 at symbolic a, c on the benchmark's window: the passing Report is
    # pinned byte for byte
    r = check_table_agreement(_n3(2), Window(-2, 2, -2, 2, 0))
    assert r.status == "pass"
    assert r.stats["tuples_checked"] == 2880
    text = r.to_json(with_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "683879feec25724226705d499481f48ddfc4c2a09acfea0d56f8ba0b4d9825cc"


@pytest.mark.parametrize("eps, two_m, sector, n_bad, digest", [
    ((1, 1, 1), 2, None, 1482,
     "0cb25db0bad964096ae5fd33003b12701d05220092f58900ae99831e7c2c2ec8"),
    ((0, 0, 0), 1, 0, 996,
     "65753f2b931be09029a212e686988be2e7ec870d04b71f81911abbb5cf0d25fb"),
    ((1, 1), None, None, 126,
     "d83d91e57bc4e5c86e0dbaf7666e5cef9e20f0b69b43e9949a0024787a471391"),
    ((1, 0), None, 0, 144,
     "374cbdfd6c118549e53a78fc1af9d7382219e7ac403e04e86949d7db6cfce24f"),
], ids=["n3-eps111", "n3-eps000", "n2-eps11", "n2-eps10"])
def test_failing_table_agreement_reports_pinned(monkeypatch, eps, two_m, sector,
                                                n_bad, digest):
    # no benchmark Report has a table witness; with every table line
    # emptied, each line of each table disagrees and prints its text and
    # both values: pin them byte for byte
    for cls in (N2Table, N3Table):
        monkeypatch.setattr(cls, "act", lambda self, line, k, sym: TableTerms())
    rep = build_so2(B, C, P) if two_m is None else build_so3_vm(two_m, C, P)
    M = TensorModule(EpsilonConfig(len(eps), eps), rep, A, sector)
    r = check_table_agreement(M, Window(-1, 1, -2, 2, 0))
    assert r.status == "fail" and len(r.violations) == n_bad
    assert {re.match(r"line=(\S+) ", v["inputs"])[1] for v in r.violations} \
        == {line_id for line_id, _ in make_table(M).lines()}
    text = r.to_json(with_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_perturbed_so3_control():
    rep = build_so3_vm(2, Scalar.zero(P), P)
    rep.gen[(1, 3)][0][0] = rep.gen[(1, 3)][0][0] + Scalar.const(P, 1)
    assert check_so_relations(rep).status == "fail"
