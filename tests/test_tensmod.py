import hashlib
import re
from fractions import Fraction

import pytest

from superkon.algebra import AlgebraConfig, AlgebraElement, bracket
from superkon.exactnum import GaussRat, Scalar, UsageError
from superkon.grassmann import EpsilonConfig, iset
from superkon.repn import build_so2, build_so3_vm
from superkon.report import Window
from superkon.submod import iso_check_map, iso_target, named_submodule
from superkon.tables import N2Table, N3Table, TableVec, compare_table
from superkon.tensmod import (EvaluatedAction, ModBasisVec, ModVec,
                              TensorModule, module_from_config, pairs_text)

P = ("a", "b", "c")
A = Scalar.var(P, "a")
B = Scalar.var(P, "b")
C = Scalar.var(P, "c")


def n3_module(two_m=1, eps=1, c=None):
    cc = C if c is None else Scalar.const(P, c)
    return TensorModule(EpsilonConfig(3, (eps,) * 3), build_so3_vm(two_m, cc, P),
                        A, sector_delta=(0 if eps == 0 else None))


def n2_module(eps=(1, 1), b=None, c=None, a=None, sector=None):
    bb = B if b is None else Scalar.const(P, b)
    cc = C if c is None else Scalar.const(P, c)
    aa = A if a is None else Scalar.const(P, a)
    return TensorModule(EpsilonConfig(2, eps), build_so2(bb, cc, P), aa, sector)


def test_plain_series_action():
    M = n3_module()
    got = M.act_basis_d(2, 0, ModBasisVec(0, 0, 0))
    assert got == {ModBasisVec(2, 0, 0): A + C + 2}


def test_three_xi_kills():
    M = n3_module()
    assert M.act_basis_d(1, iset(1, 2, 3), ModBasisVec(0, 0, 0)) == {}


def test_function_strips_prefix_with_sign():
    M = n3_module()
    res = M.act_function(0, iset(1), ModBasisVec(0, iset(1), 0))
    assert res == (-1, ModBasisVec(0, 0, 0))


def test_two_xi_uses_generator_image():
    M = n3_module(two_m=1)
    got = M.act_basis_d(1, iset(1, 2), ModBasisVec(0, 0, 0))
    assert got == {ModBasisVec(0, 0, 0):
                   Scalar.const(P, GaussRat(0, Fraction(-1, 2)))}


def test_central_rejected():
    M = n2_module()
    with pytest.raises(UsageError):
        M.act(AlgebraElement.central_element(P), ModVec.basis(P, ModBasisVec(0, 0, 0)))


def test_weight_shift_exact():
    # D[t^p, xi_I] moves the t-exponent by exactly its degree, and so does
    # the function monomial t^(p-1) xi_I; also on the Ramond twists
    for M in (n2_module(eps=(1, 0)), n2_module(eps=(1, 1)), n3_module(two_m=2)):
        moved = 0
        for p in range(-2, 3):
            for im in range(1 << M.cfg.N):
                sh = M.cfg.degree(p, im)
                for bv in M.basis_at(0) + M.basis_at(1) + M.basis_at(2):
                    for bv2 in M.act_basis_d(p, im, bv):
                        moved += 1
                        assert bv2.l == bv.l + sh, (M.cfg, p, im, bv)
                    res = M.act_function(p - 1, im, bv)
                    if res is not None:
                        moved += 1
                        assert res[1].l == bv.l + sh, (M.cfg, p - 1, im, bv)
        assert moved, M.cfg


def test_parity_of_action():
    M = n2_module()
    for p in range(-1, 3):
        for im in range(4):
            op_par = im.bit_count() & 1
            for bv in M.basis_at(0):
                for bv2 in M.act_basis_d(p, im, bv):
                    assert bv2.parity == (bv.parity + op_par) % 2


@pytest.mark.parametrize("eps,sector", [((1, 1), None), ((1, 0), None),
                                        ((0, 0), 0), ((0, 0), 1)])
def test_module_axiom_symbolic(eps, sector):
    M = n2_module(eps=eps, sector=sector)
    acfg = AlgebraConfig(M.cfg)
    syms = [(p, im, True) for p in range(-1, 3) for im in range(4)]
    syms += [(k, im, False) for k in range(-1, 2) for im in range(4)]
    vecs = [bv for l in (0, 1) for bv in M.basis_at(l)]
    for i, (p1, i1, d1) in enumerate(syms):
        for (p2, i2, d2) in syms[i:]:
            x = (AlgebraElement.d_symbol(P, p1, i1) if d1
                 else AlgebraElement.a_monomial(P, p1, i1))
            y = (AlgebraElement.d_symbol(P, p2, i2) if d2
                 else AlgebraElement.a_monomial(P, p2, i2))
            br = bracket(acfg, x, y)
            sgn = -1 if ((i1.bit_count() & 1) and (i2.bit_count() & 1)) else 1
            for bv in vecs:
                v = ModVec.basis(P, bv)
                lhs = M.act(br, v)
                rhs = M.act(x, M.act(y, v)) - M.act(y, M.act(x, v)).scale(sgn)
                assert (lhs - rhs).is_zero(), ((p1, i1, d1), (p2, i2, d2), bv)


def test_a_associativity():
    M = n3_module(two_m=1)
    monos = [(k, im) for k in range(-1, 2) for im in range(8)]
    vecs = [bv for bv in M.basis_at(0)]
    from superkon.grassmann import xi_mul
    for (k1, i1) in monos:
        for (k2, i2) in monos:
            f = AlgebraElement.a_monomial(P, k1, i1)
            g = AlgebraElement.a_monomial(P, k2, i2)
            sm = xi_mul(i1, i2)
            for bv in vecs:
                v = ModVec.basis(P, bv)
                lhs = M.act(f, M.act(g, v))
                if sm is None:
                    assert lhs.is_zero()
                else:
                    sign, union = sm
                    fg = AlgebraElement.a_monomial(P, k1 + k2, union,
                                                   Scalar.const(P, sign))
                    assert (lhs - M.act(fg, v)).is_zero(), ((k1, i1), (k2, i2), bv)


def test_table_agreement_n2():
    for eps in ((1, 1), (1, 0)):
        M = n2_module(eps=eps)
        disc, n = compare_table(M, N2Table(M), range(-2, 3), range(-1, 2))
        assert disc == [] and n > 0


def test_table_agreement_n3():
    for e in (1, 0):
        M = n3_module(two_m=1, eps=e)
        disc, n = compare_table(M, N3Table(M), range(-1, 2), range(-1, 1))
        assert disc == [] and n > 0


def test_table_example_lines():
    # b-multiplication line, untwisted and twisted
    M = n2_module()
    t = N2Table(M)
    out = t.act("xi12", 2, TableVec("v", 0, 0))
    assert out == {TableVec("v", 0, 2): B}
    Mt = n2_module(eps=(1, 0))
    tt = N2Table(Mt)
    out = tt.act("xi12", 2, TableVec("v", 0, 0))
    assert out == {TableVec("v", 0, 5): B}
    # annihilation line
    out = t.act("P+", 1, TableVec("vp", 0, 0))
    assert out == {}


def test_table_example_lines_n3():
    M = n3_module(two_m=1, eps=1)
    t = N3Table(M)
    assert t.act("xi123", 0, TableVec("v", 0, 0)) == {}
    assert t.act("xi3", 0, TableVec("v", 1, 0)) == {TableVec("w", 1, 0):
                                                    Scalar.const(P, 1)}
    out = t.act("xi12", 0, TableVec("w", 0, 0))
    assert out == {TableVec("w", 0, 0):
                   Scalar.const(P, GaussRat(0, Fraction(-1, 2)))}


def test_table_to_modvec_range_and_kinds():
    for t in (N2Table(n2_module()), N2Table(n2_module(eps=(1, 0))),
              N3Table(n3_module(two_m=1, eps=1))):
        dim = t.m.rep.dim
        assert not t.to_modvec(TableVec("vp", dim - 1, 0)).is_zero()
        for r in (-1, dim):
            assert t.to_modvec(TableVec("vp", r, 0)).is_zero()
        with pytest.raises(UsageError, match="'vq'"):
            t.to_modvec(TableVec("vq", 0, 0))


def test_named_submodule_w_generators():
    M = n2_module(b=1, c=GaussRat(0, -1))  # on W+'s locus b = i c
    gens = named_submodule(M, "W_plus", range(0, 1))
    # at weight 0: v+_0 and (a/2) v_0 - i w_0
    assert len(gens) == 2
    g2 = gens[1]
    coeff_v = g2.terms[ModBasisVec(0, 0, 0)]
    assert coeff_v == A.scale_raw(1, 0, 2)
    assert g2.terms[ModBasisVec(0, iset(1, 2), 0)] == \
        Scalar.const(P, GaussRat(0, -1))


_W_PLUS = {"b": 1, "c": GaussRat(0, -1)}  # b = i c
_W_MINUS = {"b": 1, "c": GaussRat(0, 1)}  # b = -i c


@pytest.mark.parametrize("name, module, l_range, count, digest", [
    ("W_plus", lambda: n2_module(**_W_PLUS), range(-2, 3), 6,
     "f492375e19f2aba778dc2741b001b701e9a4221b3b764eab9f17fe7e1408b252"),
    ("W_minus", lambda: n2_module(**_W_MINUS), range(-2, 3), 6,
     "9e2e1cdcc0a95826ca5cffbb764d074252e487de4d87e849b533a8416cf3ed48"),
    ("W_plus", lambda: n2_module(eps=(1, 0), sector=0, **_W_PLUS),
     range(-2, 3), 10,
     "53d2394e89ca54f95c359c56df248012daa4ed76689b8ec51001622ce431221e"),
    ("W_minus", lambda: n2_module(eps=(1, 0), sector=0, **_W_MINUS),
     range(-2, 3), 10,
     "47f26cf43bb8dd27c745659ac6c06c06ec7d319f3722b8196c5f4253662f36bd"),
    ("W_plus", lambda: n2_module(eps=(1, 0), sector=1, **_W_PLUS),
     range(-2, 3), 10,
     "53d2394e89ca54f95c359c56df248012daa4ed76689b8ec51001622ce431221e"),
    ("W_minus", lambda: n2_module(eps=(1, 0), sector=1, **_W_MINUS),
     range(-2, 3), 10,
     "47f26cf43bb8dd27c745659ac6c06c06ec7d319f3722b8196c5f4253662f36bd"),
    ("F_prime", lambda: n3_module(two_m=1, eps=1, c=Fraction(-1, 2)),
     range(-1, 2), 12,
     "1fe45927c0c9188b8207130791ad208cca3c7033eb83176027dc14692ca44ea0"),
    ("F_prime", lambda: n3_module(two_m=1, eps=0, c=Fraction(-1, 2)),
     range(-1, 2), 18,
     "27158bfc805c9db0c01ec4a5e63a8733843071e0248800a3253e53a57784b62a"),
    ("F_prime", lambda: n3_module(two_m=2, eps=1, c=-1), range(-1, 2), 16,
     "3c3916b8bc36b93841ef3b64b1fbb2712006b4aa3aca86eede490144806da60d"),
    ("F_prime", lambda: n3_module(two_m=2, eps=0, c=-1), range(-1, 2), 24,
     "a04373c2d89e73df98b48d119ecdb6b22966f23c848c33367e0121c580c972eb"),
    ("Cw_minus1", lambda: n2_module(eps=(1, 0), b=0, c=0, a=1, sector=0),
     range(-2, 3), 1,
     "f60be3371a7301e77a92520f21c9f019dca19594af665942ebb73d6bce469ab7"),
], ids=["wplus_11", "wminus_11", "wplus_10_s0", "wminus_10_s0", "wplus_10_s1",
        "wminus_10_s1", "fprime_1_111", "fprime_1_000", "fprime_2_111",
        "fprime_2_000", "cw_minus1"])
def test_named_submodule_generators_pinned(name, module, l_range, count, digest):
    # every generator of every named submodule, in order, by its text; the
    # two twisted sectors give the same list while N2Table ignores the sector
    gens = named_submodule(module(), name, l_range)
    assert len(gens) == count
    text = "\n".join(str(g) for g in gens)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_named_submodule_cw():
    M = n2_module(eps=(1, 0), b=0, c=0, a=1, sector=0)
    gens = named_submodule(M, "Cw_minus1", range(-2, 2))
    assert len(gens) == 1
    assert gens[0].terms == {ModBasisVec(-1, iset(1, 2), 0):
                             Scalar.const(P, 1)}
    with pytest.raises(UsageError):
        named_submodule(n2_module(eps=(1, 0), b=0, c=0, a=2, sector=0),
                        "Cw_minus1", range(0, 1))


def test_named_submodule_fprime_example():
    # the r=0 v-bold generator is (2m+2)(2m+1) v+ with 2m = 1
    M = n3_module(two_m=1, eps=1, c=Fraction(-1, 2))
    gens = named_submodule(M, "F_prime", range(0, 1))
    tab = N3Table(M)
    target = tab.to_modvec(TableVec("vp", 0, 0)).scale(Scalar.const(P, 6))
    assert any((g - target).is_zero() for g in gens)


def test_fprime_requires_matching_scalar():
    with pytest.raises(UsageError):
        named_submodule(n3_module(two_m=1, eps=1, c=1), "F_prime", range(0, 1))


def test_sector_shift_symbolic():
    M = TensorModule(EpsilonConfig(2, (0, 0)), build_so2(B, C, P), A,
                     sector_delta=1)
    rpt = iso_check_map(M, "sector_shift", Window(-2, 2, -7, 7, 4))
    assert rpt.status == "pass"


def test_quotient_map_passes():
    M = TensorModule(EpsilonConfig(2, (1, 1)), build_so2(GaussRat(0, 1), 1, P), A)
    rpt = iso_check_map(M, "quotient_wplus", Window(-2, 2, -8, 8, 4),
                        params={"a": Fraction(5, 7)})
    assert rpt.status == "pass"
    assert rpt.stats["tuples_checked"] == 304
    assert rpt.details["relations_derived"] == 18


def test_quotient_map_wminus():
    M = TensorModule(EpsilonConfig(2, (1, 1)), build_so2(GaussRat(0, -1), 1, P), A)
    rpt = iso_check_map(M, "quotient_wminus", Window(-2, 2, -8, 8, 4),
                        params={"a": Fraction(5, 7)})
    assert rpt.status == "pass"
    assert rpt.stats["tuples_checked"] == 304
    assert rpt.details["relations_derived"] == 18


@pytest.mark.parametrize("a", [A + Fraction(1, 2), A * 2, A + GaussRat(0, 1)],
                         ids=["half", "scaled", "imaginary"])
def test_quotient_map_needs_origins_an_integer_apart(a):
    M = n2_module(b=GaussRat(0, 1), c=1)
    target = TensorModule(M.cfg, build_so2(GaussRat(0, 2), 2, P), a)
    with pytest.raises(UsageError, match="weight origins must differ by an integer"):
        iso_check_map(M, "quotient_wplus", Window(-2, 2, -8, 8, 4),
                      params={"a": Fraction(5, 7)}, target=target)


def test_quotient_fprime_requires_spin_one():
    # V_{m-1} does not exist at m = 1/2
    with pytest.raises(UsageError):
        iso_target(n3_module(two_m=1, c=Fraction(-1, 2)), "quotient_fprime")
    M = n3_module(two_m=2, c=-1)
    assert iso_target(M, "quotient_fprime").rep.dim == 1
    rpt = iso_check_map(M, "quotient_fprime", Window(-2, 2, -8, 8, 4),
                        params={"a": Fraction(5, 7)})
    assert rpt.status == "pass"
    assert rpt.stats["tuples_checked"] == 2242
    assert rpt.details["relations_derived"] == 72


def test_quotient_map_wrong_target_fails():
    # the W+ quotient's seed images, propagated into so_2 at b = 3i, c = 3
    # instead of b = 2i, c = 2, contradict the relations they derive
    M = n2_module(b=GaussRat(0, 1), c=1)
    wrong = n2_module(b=GaussRat(0, 3), c=3)
    rpt = iso_check_map(M, "quotient_wplus", Window(-2, 2, -8, 8, 4),
                        params={"a": Fraction(5, 7)}, target=wrong)
    assert rpt.status == "fail"
    assert len(rpt.violations) == 192
    assert all(v["diff"] == "image conflicts with previously derived relations"
               for v in rpt.violations)
    # every witness's pair text, pinned byte for byte
    text = rpt.to_json(with_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "ad03caed659eaf89c51c55597a4ca45e3aa34435cee35dc25ccb77ff855cce9d"


def test_sector_shift_swap_tau_fails():
    M = TensorModule(EpsilonConfig(2, (0, 0)), build_so2(B, C, P), A,
                     sector_delta=1, mutation="swap_tau")
    rpt = iso_check_map(M, "sector_shift", Window(-2, 2, -7, 7, 4))
    assert rpt.status == "fail"
    assert len(rpt.violations) == 40
    assert rpt.violations[0]["inputs"] == "op=(-1,1,A) v=D{1,2}.v0@l=-1"


def test_identity_map_wrong_c_fails():
    M1 = n2_module(b=1, c=1, a=Fraction(5, 7))
    M2 = n2_module(b=1, c=2, a=Fraction(5, 7))
    rpt = iso_check_map(M1, "identity", Window(-2, 2, -6, 6, 4), target=M2)
    assert rpt.status == "fail"
    assert any("D" in v["inputs"] for v in rpt.violations)


def test_basis_vec_text_round_trip():
    for l in range(-3, 4):
        for J in range(1 << 3):
            for r in range(3):
                bv = ModBasisVec(l, J, r)
                assert ModBasisVec.parse(bv.text()) == bv


def test_pairs_text():
    vec = {ModBasisVec(2, 1, 0): (1, -2), ModBasisVec(0, 0, 0): (3, 0)}
    assert pairs_text(vec) == "(3+0i)*D{}.v0@l=0 + (1-2i)*D{1}.v0@l=2"
    assert pairs_text({}) == "0"


def test_module_from_config():
    cfg = {"algebra": {"N": 2, "eps": [1, 0]},
           "rep": {"kind": "so2", "b": "0", "c": "0"},
           "a": "1", "sector_delta": 0}
    M = module_from_config(cfg, P)
    assert M.cfg.eps == (1, 0) and M.sector_delta == 0
    assert M.a == Scalar.const(P, 1)


@pytest.mark.parametrize("value", [0.1, 0.5, 1e-7, True])
def test_module_config_rejects_float_and_bool(value):
    cfg = {"algebra": {"N": 2, "eps": [1, 0]},
           "rep": {"kind": "so2", "b": "0", "c": "0"}, "a": value}
    with pytest.raises(UsageError, match=f"'a'.*{type(value).__name__}"):
        module_from_config(cfg, P)
    with pytest.raises(UsageError, match="'sector_delta'"):
        module_from_config({**cfg, "a": "1", "sector_delta": float(value)}, P)
    with pytest.raises(UsageError, match="'algebra.N'"):
        module_from_config({**cfg, "a": "1",
                            "algebra": {"N": value, "eps": [1, 0]}}, P)


GOOD = {"algebra": {"N": 2, "eps": [1, 0]},
        "rep": {"kind": "so2", "b": "0", "c": "0"}, "a": "1"}


@pytest.mark.parametrize("cfg", [
    [GOOD],                                              # config not a dict
    {**GOOD, "algebra": [2, [1, 0]]},                    # algebra not a dict
    {**GOOD, "algebra": {"N": 2, "eps": "11"}},          # eps as text
    {**GOOD, "algebra": {"N": 2, "eps": 1}},             # eps as a number
    {**GOOD, "rep": [GOOD["rep"]]},                      # rep not a dict
    {**GOOD, "mutation": ["swap_tau"]},                  # mutation not text
], ids=["config_list", "algebra_list", "eps_text", "eps_int", "rep_list",
        "mutation_list"])
def test_module_config_rejects_bad_shape(cfg):
    with pytest.raises(UsageError):
        module_from_config(cfg, P)


def test_module_rejects_n4():
    from superkon.repn import SoRep
    rep = SoRep(N=4, dim=1, gen={}, z_scalar=Scalar.zero(P), params=P)
    with pytest.raises(UsageError):
        TensorModule(EpsilonConfig(4, (1, 1, 1, 1)), rep, A)


def test_sector_lattice():
    M = n2_module(eps=(1, 0), sector=0)
    at0 = M.basis_at(0)
    # sector 0 at even weight: prefix sets with even (1-eps)-sum
    assert {bv.J for bv in at0} == {0, iset(1)}
    at1 = M.basis_at(1)
    assert {bv.J for bv in at1} == {iset(2), iset(1, 2)}


def table_blocks(M, ls, ps):
    """Every (p, I, l) block of a window's action table."""
    return [(p, im, l) for l in ls for p in ps for im in range(1 << M.cfg.N)]


XY = ("x", "y")


@pytest.mark.parametrize("make,asn", [
    (lambda: n3_module(two_m=2, c=Fraction(3, 11)), {"a": Fraction(5, 7)}),
    (lambda: n2_module(b=GaussRat(0, 1), c=1), {"a": "4/7-2/3*i"}),
    # the so_2 generator moves a sector-1 vector off its lattice
    (lambda: n2_module(eps=(1, 0), b=Fraction(1, 3), c=Fraction(2, 5),
                       sector=1), {"a": Fraction(5, 7)}),
    # no parameters at all
    (lambda: TensorModule(EpsilonConfig(2, (1, 1)),
                          build_so2(Fraction(1, 3), GaussRat(0, 1), ()),
                          Scalar.const((), Fraction(5, 7))), {}),
    # parameters of the caller's own names, the origin depending on both
    (lambda: TensorModule(EpsilonConfig(3, (1, 1, 1)),
                          build_so3_vm(1, "x*y - 1/2", XY),
                          Scalar.parse(XY, "x + 2*y")),
     {"x": Fraction(2, 3), "y": "1/5+i"}),
])
def test_table_matches_gaussrat_route(gaussrat_route, make, asn):
    # every column of every block against the GaussRat route, in its order;
    # the image of a basis vector in canonical lowest terms; and a column
    # with a term off the module's basis raises, naming that term, only
    # when it is read
    fraction_eval, clear_denominators = gaussrat_route
    M = make()
    ev = EvaluatedAction(M, asn)
    off = 0
    for p, im, l in table_blocks(M, range(-2, 3), range(-1, 3)):
        den, cols = ev.table(p, im, l)
        assert len(cols) == len(ev.basis(l)) == len(M.basis_at(l))
        target = ev.basis(l + M.cfg.degree(p, im))
        for i, (bv, col) in enumerate(zip(M.basis_at(l), cols)):
            vals = [(bv2, fraction_eval(c, asn))
                    for bv2, c in M.act_basis_d(p, im, bv).items()]
            vals = [(bv2, g) for bv2, g in vals if g]
            outside = [bv2 for bv2, _ in vals if bv2 not in target]
            if outside:
                off += 1
                with pytest.raises(UsageError, match=re.escape(repr(outside[0]))):
                    ev.act_vec(p, im, l, {i: (1, 0)})
                continue
            assert [(target[j], GaussRat(Fraction(r, den), Fraction(m, den)))
                    for j, r, m in col] == vals
            want_den, pairs = clear_denominators([g for _, g in vals])
            assert ev.act_vec(p, im, l, {i: (1, 0)}) == (want_den, {
                target.index(bv2): pair for (bv2, _), pair in zip(vals, pairs)})
    assert (off > 0) == (M.sector_delta is not None)


def test_filling_a_table_constructs_no_fraction(monkeypatch):
    M = n3_module(two_m=2, c=Fraction(3, 11))
    asn = {"a": Fraction(5, 7)}
    made = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    ev = M.eval_cache(asn)
    for block in table_blocks(M, range(-2, 3), range(-1, 3)):
        ev.table(*block)
    assert ev.table(2, 0, 0)[1][0]
    assert made == []


def test_table_columns_share_equal_parts():
    # the evaluated blocks hold one copy of each entry (target index, re,
    # im) and of each coefficient pair they name
    M = n3_module(two_m=2, c=Fraction(3, 11))
    ev = M.eval_cache({"a": Fraction(5, 7)})
    entries = [e for block in table_blocks(M, range(-2, 3), range(-1, 3))
               for col in ev.table(*block)[1] for e in col]
    assert len({id(e) for e in entries}) == len(set(entries)) < len(entries)
    copies: dict = {}
    for _, re, im in entries:
        copies.setdefault((re, im), set()).add((id(re), id(im)))
    assert all(len(ids) == 1 for ids in copies.values())
    assert len(copies) < len(set(entries))


def test_table_runs_the_recursion_once_per_family(monkeypatch):
    # the blocks of every weight come from the families at weight 0, so a
    # wider window runs the prefix recursion no more often
    calls = []
    act_basis_d = TensorModule.act_basis_d

    def spy(self, p, imask, bv):
        calls.append((p, imask, bv))
        return act_basis_d(self, p, imask, bv)

    monkeypatch.setattr(TensorModule, "act_basis_d", spy)
    M = n3_module(two_m=2, c=Fraction(3, 11))
    counts = []
    for ls in (range(-2, 3), range(-6, 7)):
        calls.clear()
        ev = M.eval_cache({"a": Fraction(5, 7)})
        for block in table_blocks(M, ls, range(-1, 3)):
            ev.table(*block)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# The weight-translation fact: the action at weight l depends on l only
# through a + l.  Each case is a module and the assignment it is read at.
ORIGIN_57 = {"a": Fraction(5, 7), "b": Fraction(1, 3), "c": Fraction(2, 5)}
TRANSLATION_CASES = {
    "n2_eps11": (lambda: n2_module(), ORIGIN_57),
    "n2_eps10_sector0": (lambda: n2_module(eps=(1, 0), sector=0), ORIGIN_57),
    "n2_eps10_sector1": (lambda: n2_module(eps=(1, 0), sector=1), ORIGIN_57),
    "n3_eps111_V1": (lambda: n3_module(two_m=2), ORIGIN_57),
    "n3_eps110_Vhalf": (lambda: TensorModule(
        EpsilonConfig(3, (1, 1, 0)), build_so3_vm(1, C, P), A, 0), ORIGIN_57),
    "n2_swap_tau": (lambda: TensorModule(
        EpsilonConfig(2, (1, 0)), build_so2(B, C, P), A, 0,
        mutation="swap_tau"), ORIGIN_57),
    "n2_gaussian_origin": (lambda: n2_module(),
                           {"a": "4/7-2/3*i", "b": 1, "c": "i"}),
}


@pytest.mark.parametrize("name", sorted(TRANSLATION_CASES))
def test_action_depends_on_weight_only_through_origin(name):
    make, asn = TRANSLATION_CASES[name]
    M = make()
    at_a = M.at(asn)
    for l in range(-3, 4):  # every weight, on the module's lattice or off it
        at_a_plus_l = TensorModule(M.cfg, M.rep, M.a + l, M.sector_delta,
                                   M.mutation).at(asn)
        for J in range(1 << M.cfg.N):
            for r in range(M.rep.dim):
                for p in range(-1, 3):
                    for im in range(1 << M.cfg.N):
                        col = at_a.act_basis_d(p, im, ModBasisVec(l, J, r))
                        moved = at_a_plus_l.act_basis_d(p, im,
                                                        ModBasisVec(0, J, r))
                        assert col == {ModBasisVec(bv.l + l, bv.J, bv.r): c
                                       for bv, c in moved.items()}
