import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from superkon.algebra import (ALGEBRA_MUTATIONS, AlgebraConfig, AlgebraElement,
                              a_action, apply_d, bracket, bracket_basis, bracket_ints,
                              eps_shift_map,
                              in_ideal_i, in_k_ell, k_ell_valuation, phi,
                              project_k0, tm1_coefficient, tm1_power_d)
from superkon.exactnum import GaussRat, Scalar, UsageError
from superkon.grassmann import (EpsilonConfig, SuperFunction, contact_bracket, iset,
                                monomial_parts, partial_sign, xi_mul)

P = ()


def D(k, imask, coeff=1):
    return AlgebraElement.d_symbol(P, k, imask, coeff)


def A(k, imask, coeff=1):
    return AlgebraElement.a_monomial(P, k, imask, coeff)


def cfg(n, eps, central=False, mutation=None):
    return AlgebraConfig(EpsilonConfig(n, eps), central, mutation)


def test_witt_bracket():
    c = cfg(1, (1,))
    assert bracket_basis(c, (1, 0), (2, 0), P) == D(2, 0, 2)


def test_odd_self_bracket():
    c = cfg(1, (1,))
    assert bracket_basis(c, (1, iset(1)), (1, iset(1)), P) == -D(1, 0)


def test_central_term_plain():
    c = cfg(1, (1,), central=True)
    got = bracket_basis(c, (3, 0), (-1, 0), P)
    want = D(1, 0, -8) + AlgebraElement.central_element(P, 2)
    assert got == want


def test_central_term_one_xi():
    c = cfg(1, (1,), central=True)
    got = bracket_basis(c, (2, iset(1)), (0, iset(1)), P)
    want = -D(1, 0) + AlgebraElement.central_element(
        P, Scalar.const(P, Fraction(1, 4)))
    assert got == want


def test_central_needs_small_n():
    with pytest.raises(UsageError):
        cfg(4, (1, 1, 1, 1), central=True)


def test_semidirect_action_example():
    c = cfg(1, (1,))
    got = bracket(c, D(1, 0), A(1, 0))
    assert got == A(1, 0, 2)


def test_central_is_central():
    c = cfg(2, (1, 1), central=True)
    C = AlgebraElement.central_element(P)
    x = D(2, iset(1)) + A(0, iset(2))
    assert bracket(c, C, x).is_zero()
    assert bracket(c, x, C).is_zero()


def test_functions_commute():
    c = cfg(1, (1,))
    assert bracket(c, A(1, 0), A(2, 0)).is_zero()


def test_a_action_monomial():
    got = a_action(SuperFunction.monomial(P, 1, 0), D(1, 0))
    assert got == D(2, 0)


def test_a_action_sign():
    got = a_action(SuperFunction.monomial(P, 0, iset(1)), D(1, iset(2)))
    assert got == D(1, iset(1, 2))


def test_a_action_square_zero():
    got = a_action(SuperFunction.monomial(P, 0, iset(1)), D(1, iset(1)))
    assert got.is_zero()


def test_a_action_rejects_central():
    with pytest.raises(UsageError):
        a_action(SuperFunction.one(P), AlgebraElement.central_element(P))


def test_phi_fixes_degree_zero():
    c = cfg(1, (1,))
    assert phi(c, D(1, 0)) == D(1, 0)


def test_phi_adds_function_part():
    c = cfg(1, (1,))
    assert phi(c, D(2, 0)) == D(2, 0) + A(1, 0, 2)


def test_phi_identity_on_functions():
    c = cfg(1, (1,))
    assert phi(c, A(3, iset(1))) == A(3, iset(1))


def test_valuation_linear():
    x = D(1, 0) - D(0, 0)
    assert k_ell_valuation(x) == {0: 1}


def test_valuation_square():
    x = D(2, 0) + D(1, 0, -2) + D(0, 0)
    assert k_ell_valuation(x) == {0: 2}


def test_valuation_unit():
    assert k_ell_valuation(D(1, iset(1, 2))) == {iset(1, 2): 0}


def test_valuation_laurent_tail_conservative():
    assert k_ell_valuation(D(-2, 0)) == {0: 0}


def test_valuation_laurent_square():
    # -t^-1 + 2 - t = -t^-1 (t-1)^2, as [K0, K0] produces it
    x = D(-1, 0, -1) + D(0, 0, 2) + D(1, 0, -1)
    assert k_ell_valuation(x) == {0: 2}


def test_valuation_laurent_xi_component():
    x = D(1, iset(1)) - D(-1, iset(1))
    assert k_ell_valuation(x) == {iset(1): 1}


def test_tm1_coefficient_is_the_binomial():
    # t^k = (1 + (t-1))^k, with binom(k, j) = (-1)^j binom(j-k-1, j) for k < 0
    for k in range(-4, 5):
        for j in range(6):
            want = comb(k, j) if k >= 0 else (-1) ** j * comb(j - k - 1, j)
            assert tm1_coefficient({k: Scalar.const(P, 1)}, j, P) == \
                Scalar.const(P, want), (k, j)
    for j in range(6):
        assert tm1_coefficient({-1: Scalar.const(P, 1)}, j, P) == \
            Scalar.const(P, (-1) ** j)


def test_valuation_of_tm1_powers():
    for Im in (0, iset(1), iset(1, 2)):
        for e in range(5):
            for i in range(-3, 4):
                x = tm1_power_d(P, e, i, Im)
                assert k_ell_valuation(x) == {Im: e}, (Im, e, i)
                higher = x + tm1_power_d(P, e + 1, -i, Im).scale(3)
                assert k_ell_valuation(higher) == {Im: e}, (Im, e, i)


def test_ideal_membership():
    assert in_ideal_i(tm1_power_d(P, 2, 0, 0))
    assert not in_ideal_i(D(1, 0) - D(0, 0))
    assert in_ideal_i(D(1, iset(1, 2, 3)))


def test_project_z():
    c = cfg(2, (1, 1))
    z, mat = project_k0(c, D(1, 0) - D(0, 0))
    assert z == Scalar.const(P, 1)
    assert all(m.is_zero() for row in mat for m in row)


def test_project_so_generator():
    c = cfg(2, (1, 1))
    z, mat = project_k0(c, D(1, iset(1, 2)))
    assert z.is_zero()
    assert mat[1][0] == Scalar.const(P, 1)
    assert mat[0][1] == Scalar.const(P, -1)
    assert mat[0][0].is_zero() and mat[1][1].is_zero()


def test_project_kernel():
    c = cfg(2, (1, 1))
    z, mat = project_k0(c, tm1_power_d(P, 2, 0, 0))
    assert z.is_zero()
    assert all(m.is_zero() for row in mat for m in row)


def test_project_laurent_element():
    # t^-1 (t-1) = (t-1) mod (t-1)^2, and t^-1 is 1 at t = 1
    c = cfg(2, (1, 1))
    assert in_k_ell(c, D(0, 0) - D(-1, 0), 0)
    z, mat = project_k0(c, D(0, 0) - D(-1, 0) + D(-1, iset(1, 2)))
    assert z == Scalar.const(P, 1)
    assert mat[1][0] == Scalar.const(P, 1)
    assert mat[0][1] == Scalar.const(P, -1)
    assert mat[0][0].is_zero() and mat[1][1].is_zero()


def test_project_requires_degree_zero():
    c = cfg(2, (1, 1))
    with pytest.raises(UsageError):
        project_k0(c, D(1, 0))


@pytest.mark.parametrize("eps", [(1, 1), (1, 0), (0, 0)])
def test_bracket_super_skew(eps):
    c = cfg(2, eps, central=True)
    syms = [(k, Im) for k in range(-2, 3) for Im in range(4)]
    for x, y in product(syms, repeat=2):
        bx = bracket_basis(c, x, y, P)
        by = bracket_basis(c, y, x, P)
        if (x[1].bit_count() & 1) and (y[1].bit_count() & 1):
            assert bx == by, (x, y)
        else:
            assert (bx + by).is_zero(), (x, y)


@pytest.mark.parametrize("eps", [(1, 0), (0, 0), (1, 1, 1), (1, 1, 0, 0)])
def test_bracket_is_graded(eps):
    # [D[t^p, xi_I], D[t^q, xi_J]] has degree deg(p, I) + deg(q, J), and the
    # central term fires only in total degree 0 (no central term for N = 4)
    a = cfg(len(eps), eps, central=len(eps) <= 3)
    deg = a.cfg.degree
    syms = [(p, im) for p in range(-2, 3) for im in range(1 << len(eps))]
    graded = central = 0
    for (p, Im), (q, Jm) in product(syms, repeat=2):
        coeff2, rk, rI, cen12 = bracket_ints(a, p, Im, q, Jm)
        total = deg(p, Im) + deg(q, Jm)
        if coeff2:
            graded += 1
            assert deg(rk, rI) == total, ((p, Im), (q, Jm))
        if cen12:
            central += 1
            assert total == 0, ((p, Im), (q, Jm))
    assert graded and (central or len(eps) > 3)


def _reference_bracket_ints(acfg, p, Im, q, Jm):
    """bracket_ints as the structure-constant formula, branching on the
    masks at every call: the oracle for the per-mask-pair forms."""
    cfg = acfg.cfg
    inter = Im & Jm
    coeff2 = rk = rI = 0
    nI = Im.bit_count()
    nJ = Jm.bit_count()
    if inter == 0:
        c2 = ((2 - nI) * (2 * q - cfg.eps_sum(Jm))
              - (2 - nJ) * (2 * p - cfg.eps_sum(Im)))
        if c2:
            sign, union = xi_mul(Im, Jm)
            coeff2 = sign * c2
            rk = p + q - 1
            rI = union
    elif inter.bit_count() == 1:
        i = inter.bit_length()
        s = partial_sign(i, Im) * partial_sign(i, Jm)
        bit = 1 << (i - 1)
        sm = xi_mul(Im & ~bit, Jm & ~bit)
        s *= sm[0]
        if (nI & 1) and acfg.mutation != "drop_sign_intersection":
            s = -s
        coeff2 = 2 * s
        rk = p + q - cfg.eps[i - 1]
        rI = sm[1]
    cen12 = 0
    if acfg.central_enabled and Im == Jm:
        d = cfg.degree(p, Im)
        if d + cfg.degree(q, Jm) == 0:
            if nI == 0:
                cen12 = d * (d * d - 4) // 2
            elif nI == 1:
                cen12 = d * d - 1
            elif nI == 2:
                cen12 = -2 * d
            elif nI == 3:
                cen12 = -4
            if acfg.mutation == "double_cocycle" and nI == 0:
                cen12 *= 2
    return coeff2, rk, rI, cen12


# 0/1 twists and others, N = 1..5; the central term where it exists
BRACKET_ORACLE_TWISTS = [(1,), (0,), (2,), (-1,), (1, 0), (0, 0), (2, -1), (-1, -1),
                         (1, 1, 1), (1, 1, 0), (3, 0, -2), (1, 1, 0, 0), (2, 1, 0, -1),
                         (1, 1, 1, 1, 1), (2, -1, 0, 1, -3)]


@pytest.mark.parametrize("mutation", [None, *ALGEBRA_MUTATIONS])
@pytest.mark.parametrize("eps", BRACKET_ORACLE_TWISTS, ids=str)
def test_bracket_ints_matches_the_formula(eps, mutation):
    # every ordered mask pair at p, q in -6..6, central term on and off
    n = 1 << len(eps)
    ks = range(-6, 7)
    for central in (False, True) if len(eps) <= 3 else (False,):
        a = cfg(len(eps), eps, central, mutation)
        for Im in range(n):
            for Jm in range(n):
                for p in ks:
                    for q in ks:
                        assert (bracket_ints(a, p, Im, q, Jm)
                                == _reference_bracket_ints(a, p, Im, q, Jm)), (
                            (p, Im), (q, Jm), central)


def test_bracket_crosscheck_small():
    # structure constants match the contact bracket through f <-> D_f
    for eps in [(1,), (0,)]:
        c = cfg(1, eps)
        syms = [(k, Im) for k in range(-3, 4) for Im in range(2)]
        for (p, Im), (q, Jm) in product(syms, repeat=2):
            bb = bracket_basis(c, (p, Im), (q, Jm), P)
            cb = contact_bracket(c.cfg, SuperFunction.monomial(P, p, Im),
                                 SuperFunction.monomial(P, q, Jm))
            assert bb.d == cb, ((p, Im), (q, Jm))


def test_module_compatibility_identity():
    # {f, hg} - (-1)^{|h||f|} h {f, g} = D_f(h) g on monomials
    c = EpsilonConfig(2, (1, 0))
    monos = [(k, Im) for k in range(-1, 2) for Im in range(4)]
    for (kf, If), (kh, Ih), (kg, Ig) in product(monos, repeat=3):
        f = SuperFunction.monomial(P, kf, If)
        h = SuperFunction.monomial(P, kh, Ih)
        g = SuperFunction.monomial(P, kg, Ig)
        lhs = contact_bracket(c, f, h * g)
        sgn = -1 if ((If.bit_count() & 1) and (Ih.bit_count() & 1)) else 1
        rhs = h * contact_bracket(c, f, g)
        lhs = lhs - (rhs if sgn > 0 else -rhs)
        assert lhs == apply_d(c, f, h) * g, ((kf, If), (kh, Ih), (kg, Ig))


def test_phi_is_homomorphism_small():
    c = cfg(2, (1, 0))
    dsyms = [D(k, Im) for k in range(-2, 3) for Im in range(4)]
    asyms = [A(k, Im) for k in range(-1, 2) for Im in range(4)]
    elems = dsyms + asyms
    for x in elems:
        for y in elems:
            lhs = phi(c, bracket(c, x, y))
            rhs = bracket(c, phi(c, x), phi(c, y))
            assert lhs == rhs, (str(x), str(y))


def test_jacobi_small_with_central():
    c = cfg(2, (1, 1), central=True)
    syms = [(k, Im) for k in range(-2, 3) for Im in range(4)]

    def par(s):
        return s[1].bit_count() & 1

    for x, y, z in product(syms, repeat=3):
        xe, ye, ze = (AlgebraElement.d_symbol(P, *s) for s in (x, y, z))
        t1 = bracket(c, xe, bracket(c, ye, ze))
        t2 = bracket(c, ye, bracket(c, ze, xe))
        t3 = bracket(c, ze, bracket(c, xe, ye))
        s1 = -1 if par(x) * par(z) else 1
        s2 = -1 if par(y) * par(x) else 1
        s3 = -1 if par(z) * par(y) else 1
        total = t1.scale(s1) + t2.scale(s2) + t3.scale(s3)
        assert total.is_zero(), (x, y, z)


def _reference_bracket(acfg, x, y):
    """The bracket one term at a time: an AlgebraElement per basis term, from
    bracket_basis and from apply_d on superfunctions, added to a running
    element."""
    params = x.params
    out = AlgebraElement.zero(params)
    for (p, Im), cx in x.d.terms.items():
        for (q, Jm), cy in y.d.terms.items():
            bb = bracket_basis(acfg, (p, Im), (q, Jm), params)
            if bb:
                out = out + bb.scale(cx * cy)
    for u, v, swapped in ((x, y, False), (y, x, True)):
        for (p, Im), cu in u.d.terms.items():
            f = SuperFunction.monomial(params, p, Im, cu)
            for (k, Jm), cv in v.a.terms.items():
                res = apply_d(acfg.cfg, f, SuperFunction.monomial(params, k, Jm, cv))
                if swapped and not (Im.bit_count() & Jm.bit_count() & 1):
                    res = -res
                out = out + AlgebraElement(params, a=res)
    return out


SYMBOLS = ("a", "b", "c")


def _random_scalar(rng):
    """A few terms in a, b, c of degree at most 2, Gaussian numerators."""
    terms = {tuple(rng.randint(0, 2) for _ in SYMBOLS):
             (rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(rng.randint(1, 3))}
    return Scalar(SYMBOLS, terms, rng.choice((1, 2, 3)))


def _random_element(rng, n, k):
    """D-part, function part and C at random, with the D-part's plain
    monomial at exponent ``k`` (degree 2(k-1)) set: D[t^3] and D[t^-1] have
    degrees 4 and -4, so their bracket has a central term."""
    def part():
        return {(rng.randint(-2, 2), rng.randrange(1 << n)): _random_scalar(rng)
                for _ in range(rng.randint(1, 4))}

    d = part()
    d[(k, 0)] = _random_scalar(rng)
    return AlgebraElement(SYMBOLS, SuperFunction(SYMBOLS, d),
                          SuperFunction(SYMBOLS, part()), _random_scalar(rng))


ZERO_ONE_TWISTS = [eps for n in (1, 2, 3) for eps in product((0, 1), repeat=n)]


@pytest.mark.parametrize("central", [False, True])
@pytest.mark.parametrize("eps", ZERO_ONE_TWISTS, ids=str)
def test_bracket_matches_the_per_term_reference(eps, central):
    # symbolic multi-term elements with D-parts, function parts and C
    c = cfg(len(eps), eps, central)
    rng = random.Random(f"{eps}{central}")
    seen = {"d": False, "a": False, "central": False}
    for _ in range(6):
        x, y = _random_element(rng, len(eps), 3), _random_element(rng, len(eps), -1)
        got = bracket(c, x, y)
        assert got == _reference_bracket(c, x, y), (str(x), str(y))
        for part in seen:
            seen[part] |= bool(getattr(got, part))
    assert seen == {"d": True, "a": True, "central": central}


def test_bracket_parts_are_kept_per_parameter_list():
    # the same config and monomials over () and then over (a, b, c): an
    # entry shared between the two lists would mix their Scalars
    c = cfg(2, (1, 0))
    monomial_parts.cache_clear()
    for params in ((), SYMBOLS):
        x = AlgebraElement.d_symbol(params, 1, iset(1), 3)
        y = AlgebraElement.a_monomial(params, 2, iset(1, 2), 5)
        got = bracket(c, x, y)
        assert got.a and got == _reference_bracket(c, x, y)
        assert got == -bracket(c, y, x)


@pytest.mark.parametrize("eps", [(1,), (0,), (1, 0), (2, -1), (1, 1, 0)])
def test_mixed_jacobi(eps):
    # [x, [y, g]] = [[x, y], g] + (-1)^{|x||y|} [y, [x, g]] for D-symbols
    # x, y and a function monomial g checks apply_d against bracket_ints.
    # The inner brackets come from the function-first pass of the mixed
    # loop, [x, g] = -(-1)^{|x||g|} [g, x], checked against the other pass.
    c = cfg(len(eps), eps)
    keys = [(k, Im) for k in (-1, 0, 1) for Im in range(1 << len(eps))]
    ds = {key: D(*key) for key in keys}
    gs = {key: A(*key) for key in keys}

    def sign(a, b):
        return -1 if (a[1].bit_count() & b[1].bit_count() & 1) else 1

    xg = {}
    for x, g in product(keys, repeat=2):
        xg[x, g] = bracket(c, gs[g], ds[x]).scale(-sign(x, g))
        assert xg[x, g] == bracket(c, ds[x], gs[g]), (x, g)
    for x, y in product(keys, repeat=2):
        xy = bracket(c, ds[x], ds[y])
        for g in keys:
            left = bracket(c, ds[x], xg[y, g])
            right = bracket(c, xy, gs[g]) + bracket(c, ds[y], xg[x, g]).scale(sign(x, y))
            assert left == right, (x, y, g)


def test_filtration_bracket_smoke():
    from superkon.algebra import filtration_exponent
    c = cfg(2, (1, 0))
    for ell in (0, 1, 2):
        for Im in range(4):
            for Jm in range(4):
                g1 = tm1_power_d(P, filtration_exponent(1, Im.bit_count()), 1, Im)
                g2 = tm1_power_d(P, filtration_exponent(ell, Jm.bit_count()), 1, Jm)
                br = bracket(c, g1, g2)
                assert in_k_ell(c, br, ell + 1), (ell, Im, Jm)


def test_projection_is_homomorphism():
    c = cfg(3, (1, 1, 1))
    pairs = [iset(1, 2), iset(1, 3), iset(2, 3)]
    for Im in pairs:
        for Jm in pairs:
            x, y = D(1, Im), D(1, Jm)
            zb, mb = project_k0(c, bracket(c, x, y))
            zx, mx = project_k0(c, x)
            zy, my = project_k0(c, y)
            n = 3
            comm = [[Scalar.zero(P) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    acc = Scalar.zero(P)
                    for k in range(n):
                        acc = acc + mx[i][k] * my[k][j] - my[i][k] * mx[k][j]
                    comm[i][j] = acc
            assert zb.is_zero()
            assert mb == comm, (Im, Jm)


def test_eps_shift_is_homomorphism():
    src = EpsilonConfig(2, (2, 0))
    dst = EpsilonConfig(2, (0, 0))
    csrc = AlgebraConfig(src)
    cdst = AlgebraConfig(dst)
    syms = [D(k, Im) for k in range(-2, 3) for Im in range(4)]
    syms += [A(k, Im) for k in range(-1, 2) for Im in range(4)]
    for x in syms:
        for y in syms:
            lhs = eps_shift_map(src, dst, bracket(csrc, x, y))
            rhs = bracket(cdst, eps_shift_map(src, dst, x),
                          eps_shift_map(src, dst, y))
            assert lhs == rhs, (str(x), str(y))
    # the relabeling keeps the degree
    for k in range(-2, 3):
        for Im in range(4):
            (k2, I2), = eps_shift_map(src, dst, D(k, Im)).d.terms
            assert dst.degree(k2, I2) == src.degree(k, Im), (k, Im)


def test_element_text_round_trip():
    x = D(2, iset(1), Scalar.const(P, 3)) + D(-1, iset(1, 3)) \
        + A(0, iset(2), Scalar.const(P, Fraction(-2, 3))) \
        + AlgebraElement.central_element(P, Scalar.const(P, Fraction(1, 4)))
    text = str(x)
    assert AlgebraElement.parse(P, text) == x
    assert str(AlgebraElement.parse(P, text)) == text


def test_element_text_round_trip_sweep():
    params = ("a", "b", "c")
    a = Scalar.var(params, "a")
    coeffs = [Scalar.const(params, g) for g in (1, -1, GaussRat(0, 1), GaussRat(1, -2),
                                                GaussRat(Fraction(1, 2), 1),
                                                GaussRat(0, Fraction(-3, 4)))]
    coeffs += [a, a * coeffs[2], a + Scalar.const(params, GaussRat(0, 2))]
    zero = AlgebraElement.zero(params)
    # the two witnesses: nested parentheses around the coefficient
    witnesses = [AlgebraElement.central_element(params, coeffs[3]),
                 AlgebraElement.d_symbol(params, 1, iset(1, 2), coeffs[7])]
    elems = [zero] + witnesses
    for c in coeffs:
        for sym in (AlgebraElement.d_symbol(params, 1, iset(1, 2), c),
                    AlgebraElement.d_symbol(params, -2, 0, c),
                    AlgebraElement.a_monomial(params, 0, iset(3), c)):
            for cen in (zero, AlgebraElement.central_element(params, c)):
                elems.append(sym + cen)
    for x in elems:
        assert AlgebraElement.parse(params, str(x)) == x, str(x)


def test_negative_control_drop_sign():
    good = cfg(2, (1, 1))
    bad = cfg(2, (1, 1), mutation="drop_sign_intersection")
    x, y = (1, iset(1)), (1, iset(1, 2))
    cb = contact_bracket(good.cfg, SuperFunction.monomial(P, 1, iset(1)),
                         SuperFunction.monomial(P, 1, iset(1, 2)))
    assert bracket_basis(good, x, y, P).d == cb
    assert bracket_basis(bad, x, y, P).d != cb


def test_negative_control_double_cocycle():
    good = cfg(1, (1,), central=True)
    bad = cfg(1, (1,), central=True, mutation="double_cocycle")
    assert bracket_basis(bad, (3, 0), (-1, 0), P).central == \
        bracket_basis(good, (3, 0), (-1, 0), P).central * 2
