import random
from fractions import Fraction

import pytest

from superkon.exactnum import GaussRat, I, Scalar, UsageError

P = ("a", "b", "c")


def var(name):
    return Scalar.var(P, name)


def const(x):
    return Scalar.const(P, x)


# Gaussian coefficients whose text forms need parentheses, signs or "*i"
COEFFS = [GaussRat(0), GaussRat(1), GaussRat(-1), I, -I, GaussRat(1, -2),
          GaussRat(Fraction(1, 2), 1), GaussRat(0, Fraction(-3, 4)),
          GaussRat(Fraction(-5, 3), Fraction(2, 7))]


def rand_gaussrat(rng):
    return GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def rand_scalar(rng):
    s = Scalar.zero(P)
    for _ in range(rng.randint(0, 4)):
        e = tuple(rng.randint(0, 2) for _ in P)
        s = s + Scalar(P, {e: (1, 0)}, 1) * const(rand_gaussrat(rng))
    return s


def test_gaussrat_cancellation():
    assert GaussRat(Fraction(1, 2)) + I + (GaussRat(Fraction(1, 2)) - I) == GaussRat(1)


def test_additive_identity():
    a = var("a")
    assert a + Scalar.zero(P) == a


def test_sparse_addition():
    a, c = var("a"), var("c")
    assert (2 * a + c) + (a - c) == 3 * a


def test_i_squared():
    assert I * I == GaussRat(-1)


def test_conjugate_product_expansion():
    a, c = var("a"), var("c")
    assert (a + I * c) * (a - I * c) == a * a + c * c


def test_zero_absorbs():
    a, c = var("a"), var("c")
    assert (Scalar.zero(P) * (a ** 3 + c)).is_zero()


def test_eval_degenerate_locus():
    b, c = var("b"), var("c")
    assert (b * b + c * c).eval({"b": GaussRat(1), "c": -I}) == GaussRat(0)


def test_eval_projection():
    assert var("a").eval({"a": GaussRat(Fraction(5, 7))}) == GaussRat(Fraction(5, 7))


def test_eval_substitution():
    a, c = var("a"), var("c")
    x = 2 * a + 3 * c
    assert x.eval({"a": GaussRat(0), "c": GaussRat(-1)}) == GaussRat(-3)


def test_eval_missing_parameter():
    with pytest.raises(UsageError):
        (var("a") + var("b")).eval({"a": GaussRat(1)})


def test_mismatched_parameter_lists():
    with pytest.raises(UsageError):
        Scalar.var(("a",), "a") + Scalar.var(("a", "b"), "a")


def test_ring_axioms_random():
    rng = random.Random(12345)
    for _ in range(1000):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


def test_eval_is_homomorphism():
    rng = random.Random(999)
    for _ in range(200):
        x, y = rand_scalar(rng), rand_scalar(rng)
        asn = {p: rand_gaussrat(rng) for p in P}
        assert (x * y).eval(asn) == x.eval(asn) * y.eval(asn)
        assert (x + y).eval(asn) == x.eval(asn) + y.eval(asn)


def test_serialize_parse_fixed_point():
    rng = random.Random(777)
    monos = [const(1), var("a"), var("b") * var("c") ** 2]
    swept = [m * const(g) + extra for g in COEFFS for m in monos
             for extra in (const(0), var("a") * const(GaussRat(0, 2)))]
    for x in swept + [rand_scalar(rng) for _ in range(100)]:
        text = str(x)
        y = Scalar.parse(P, text)
        assert y == x
        assert str(y) == text


def test_gaussrat_text_round_trip():
    rng = random.Random(42)
    for g in COEFFS + [rand_gaussrat(rng) for _ in range(200)]:
        assert GaussRat.parse(str(g)) == g
    for lit in ("5/7", "-3", "i", "-i", "1/2+i", "2-3/4*i", "0"):
        assert str(GaussRat.parse(str(GaussRat.parse(lit)))) == str(GaussRat.parse(lit))


def test_gaussrat_division():
    g = GaussRat(Fraction(3, 2), Fraction(-1, 3))
    h = GaussRat(Fraction(2, 5), Fraction(7, 4))
    assert (g / h) * h == g


def test_scalar_pow():
    a = var("a")
    assert a ** 0 == const(1)
    assert a ** 3 == a * a * a
