from dataclasses import fields
from itertools import product

import pytest

from superkon.algebra import AlgebraConfig
from superkon.exactnum import Scalar, UsageError
from superkon.grassmann import (EpsilonConfig, SuperFunction, contact_bracket,
                                format_monomial, iset, members,
                                parse_monomial, partial_sign, tau, xi_mul)

P = ()  # no formal parameters needed here


def mono(k, imask, coeff=1):
    return SuperFunction.monomial(P, k, imask, coeff)


def test_tau_empty():
    assert tau(0, 0) == 0


def test_tau_examples():
    assert tau(iset(1, 3), iset(2)) == 1
    assert tau(iset(2), iset(1)) == 1


def test_tau_requires_disjoint():
    with pytest.raises(UsageError):
        tau(iset(1), iset(1, 2))


def test_xi_mul_sorted():
    assert xi_mul(iset(1), iset(2)) == (1, iset(1, 2))


def test_xi_mul_transposition():
    assert xi_mul(iset(2), iset(1)) == (-1, iset(1, 2))


def test_xi_mul_square_is_zero():
    assert xi_mul(iset(1), iset(1)) is None


def test_partial_first_index():
    assert mono(0, iset(1, 2)).partial(1) == mono(0, iset(2))


def test_partial_second_index():
    assert mono(0, iset(1, 2)).partial(2) == -mono(0, iset(1))


def test_partial_absent_index():
    assert mono(0, iset(1, 2)).partial(3).is_zero()


def test_partial_index_below_one_is_a_usage_error():
    with pytest.raises(UsageError, match="derivation index 0"):
        mono(0, iset(1, 2)).partial(0)


def test_delta_even():
    assert mono(2, 0).delta() == mono(2, 0, 2)


def test_delta_two_xi():
    assert mono(1, iset(1, 2)).delta().is_zero()


def test_delta_one_xi():
    assert mono(0, iset(1)).delta() == mono(0, iset(1))


def test_d_eps_pure_t():
    cfg = EpsilonConfig(1, (1,))
    assert mono(3, 0).d_eps(cfg) == mono(2, 0, 3)


def test_d_eps_xi_correction():
    cfg = EpsilonConfig(1, (1,))
    got = mono(0, iset(1)).d_eps(cfg)
    want = mono(-1, iset(1)).scale(Scalar.const(P, "-1/2"))
    assert got == want


def test_d_eps_untwisted_index():
    cfg = EpsilonConfig(1, (0,))
    assert mono(1, iset(1)).d_eps(cfg) == mono(0, iset(1))


def test_contact_bracket_witt():
    cfg = EpsilonConfig(1, (1,))
    assert contact_bracket(cfg, mono(1, 0), mono(2, 0)) == mono(2, 0, 2)


def test_contact_bracket_odd_square():
    cfg = EpsilonConfig(1, (1,))
    f = mono(0, iset(1))
    assert contact_bracket(cfg, f, f) == -mono(-1, 0)


def test_contact_bracket_third_example():
    cfg = EpsilonConfig(2, (0, 0))
    got = contact_bracket(cfg, mono(1, iset(1, 2)), mono(0, 0))
    assert got == mono(0, iset(1, 2), -2)


def test_sign_coherence_associativity():
    # xi_I (xi_J xi_K) == (xi_I xi_J) xi_K for all disjoint triples, N <= 5
    masks = range(32)
    for Im, Jm, Km in product(masks, repeat=3):
        if Im & Jm or Im & Km or Jm & Km:
            continue
        s1, u1 = xi_mul(Im, Jm)
        s2, _ = xi_mul(u1, Km)
        s3, u3 = xi_mul(Jm, Km)
        s4, _ = xi_mul(Im, u3)
        assert s1 * s2 == s3 * s4, (Im, Jm, Km)


def test_partials_anticommute():
    for Im in range(32):
        f = mono(0, Im)
        for i in range(1, 6):
            for j in range(1, 6):
                lhs = f.partial(i).partial(j) + f.partial(j).partial(i)
                assert lhs.is_zero(), (Im, i, j)


@pytest.mark.parametrize("eps", [(1, 1, 1), (0, 0, 0), (1, 0, 1)])
def test_bracket_super_skew(eps):
    cfg = EpsilonConfig(3, eps)
    monos = [(k, Im) for k in range(-3, 4) for Im in range(8)]
    for (k1, I1) in monos:
        f = mono(k1, I1)
        pf = I1.bit_count() & 1
        for (k2, I2) in monos:
            g = mono(k2, I2)
            pg = I2.bit_count() & 1
            lhs = contact_bracket(cfg, f, g)
            rhs = contact_bracket(cfg, g, f)
            if pf * pg:
                assert lhs == rhs, (k1, I1, k2, I2)
            else:
                assert lhs == -rhs, (k1, I1, k2, I2)


@pytest.mark.parametrize("eps", [(1, 1), (1, 0)])
def test_d_eps_is_even_derivation(eps):
    cfg = EpsilonConfig(2, eps)
    monos = [(k, Im) for k in range(-2, 3) for Im in range(4)]
    for (k1, I1) in monos:
        f = mono(k1, I1)
        for (k2, I2) in monos:
            g = mono(k2, I2)
            lhs = (f * g).d_eps(cfg)
            rhs = f.d_eps(cfg) * g + f * g.d_eps(cfg)
            assert lhs == rhs, (k1, I1, k2, I2)


@pytest.mark.parametrize("n,eps", [
    (2, (0.5, 1)), (2, (True, 1.9)), (2, (1, "1")), (1, (False,)),
    (2.0, (1, 1)), (True, (1,)),
])
def test_epsilon_config_rejects_non_integers(n, eps):
    with pytest.raises(UsageError, match="must be"):
        EpsilonConfig(n, eps)


def test_degree_values():
    # deg D[t^p, xi_I] = 2(p-1) + sum_{i in I}(1 - eps_i), spelled out
    c = EpsilonConfig(2, (1, 0))
    assert [c.degree(1, im) for im in range(4)] == [0, 0, 1, 1]
    assert [c.degree(p, 0) for p in (-1, 0, 2)] == [-4, -2, 2]
    assert EpsilonConfig(3, (0, 0, 0)).degree(0, iset(1, 2, 3)) == 1
    assert EpsilonConfig(3, (1, 1, 1)).degree(3, iset(1, 2, 3)) == 4
    assert EpsilonConfig(1, (2,)).degree(1, iset(1)) == -1


@pytest.mark.parametrize("eps", [
    (0,), (1,), (3,), (1, 0), (0, 1), (2, -1), (1, 1, 0), (3, 0, -2),
    (1, 1, 0, 0), (2, 1, 0, -1), (1, 1, 1, 1, 1), (0, 1, 0, 1, 1), (4, -3, 0, 2, -1),
])
def test_epsilon_config_mask_tables(eps):
    # the sums are read from one tuple per config; they must equal their
    # member-sum definitions at every mask, and the tables must stay out of
    # equality, hash and repr
    cfg = EpsilonConfig(len(eps), eps)
    fresh = EpsilonConfig(len(eps), eps)
    for mask in range(1 << len(eps)):
        ms = members(mask)
        assert cfg.eps_sum(mask) == sum(eps[i - 1] for i in ms)
        assert cfg.shift_sum(mask) == sum(1 - eps[i - 1] for i in ms)
        for p in (-2, 0, 1, 3):
            assert cfg.degree(p, mask) == 2 * (p - 1) + sum(1 - eps[i - 1] for i in ms)
    assert cfg == fresh and hash(cfg) == hash(fresh)
    assert repr(cfg) == f"EpsilonConfig(N={len(eps)}, eps={eps!r})"
    acfg = AlgebraConfig(cfg, len(eps) <= 3)
    assert acfg == AlgebraConfig(fresh, len(eps) <= 3)
    assert hash(acfg) == hash(AlgebraConfig(fresh, len(eps) <= 3))
    assert repr(acfg) == (f"AlgebraConfig(cfg={cfg!r}, "
                          f"central_enabled={len(eps) <= 3}, mutation=None)")
    assert [f.name for f in fields(cfg)] == ["N", "eps"]


def test_monomial_text_round_trip():
    for k in (-2, 0, 1, 5):
        for Im in (0, iset(1), iset(1, 3), iset(2, 3, 5)):
            assert parse_monomial(format_monomial(k, Im)) == (k, Im)


def test_members_inverse_of_iset():
    assert members(iset(2, 5, 3)) == (2, 3, 5)


def test_partial_sign_values():
    assert partial_sign(1, iset(1, 2)) == 1
    assert partial_sign(2, iset(1, 2)) == -1
    assert partial_sign(3, iset(1, 2)) == 0
