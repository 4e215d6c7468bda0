import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from superkon.algebra import AlgebraElement
from superkon.exactnum import (GaussRat, I, Scalar, UsageError, add_term,
                               as_scalar, norm_pairs)
from superkon.grassmann import EpsilonConfig, SuperFunction, parse_monomial
from superkon.repn import build_so2
from superkon.tensmod import EvaluatedAction, ModBasisVec, ModVec, TensorModule

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


# every constructor and scaling that takes a caller's coefficient, given a
# Scalar over ("a",) where the parameter list is P
OTHER = Scalar.var(("a",), "a")


@pytest.mark.parametrize("make", [
    lambda: ModVec.basis(P, ModBasisVec(0, 0, 0), OTHER),
    lambda: ModVec.basis(P, ModBasisVec(0, 0, 0)).scale(OTHER),
    lambda: SuperFunction.monomial(P, 1, 0, OTHER),
    lambda: SuperFunction.one(P).scale(OTHER),
    lambda: AlgebraElement.d_symbol(P, 1, 0, OTHER),
    lambda: AlgebraElement.a_monomial(P, 1, 0, OTHER),
    lambda: AlgebraElement.central_element(P, OTHER),
    lambda: AlgebraElement.d_symbol(P, 1, 0).scale(OTHER),
    lambda: TensorModule(EpsilonConfig(2, (1, 1)), build_so2(0, 0, P), OTHER),
    lambda: build_so2(OTHER, 0, P),
], ids=["ModVec.basis", "ModVec.scale", "SuperFunction.monomial",
        "SuperFunction.scale", "d_symbol", "a_monomial", "central_element",
        "AlgebraElement.scale", "TensorModule", "build_so2"])
def test_coefficient_over_another_parameter_list_is_a_usage_error(make):
    with pytest.raises(UsageError, match="mismatched parameter lists"):
        make()


def test_as_scalar():
    a = var("a")
    assert as_scalar(P, a) is a
    assert as_scalar(list(P), a) is a
    assert as_scalar(P, Fraction(1, 2)) == const(Fraction(1, 2))
    assert as_scalar(P, "1-i") == const(GaussRat(1, -1))
    with pytest.raises(UsageError):
        as_scalar(("a",), a)


def test_add_term_sets_then_adds():
    out = {}
    add_term(out, "k", var("a"))
    add_term(out, "k", const(2))
    add_term(out, "j", -const(2))
    assert out == {"k": var("a") + 2, "j": const(-2)}
    add_term(out, "j", const(2))
    assert out["j"].is_zero()  # the merge keeps a zero sum; Terms drops it


def test_norm_pairs():
    assert norm_pairs({"x": (0, 0)}, 5) == (1, {})
    assert norm_pairs({}, 3) == (1, {})
    assert norm_pairs({"x": (4, -6), "y": (0, 0)}, -10) == (5, {"x": (-2, 3)})


EA, EB = (1, 0, 0), (0, 1, 0)  # the exponents of a and b


@pytest.mark.parametrize("got, terms, den", [
    # a zero side returns the other operand
    (lambda: const(0) + var("a"), {EA: (1, 0)}, 1),
    (lambda: var("a") + const(0), {EA: (1, 0)}, 1),
    (lambda: const(0) + const(0), {}, 1),
    # units: +-1 and +-i, as Scalars and as numbers
    (lambda: var("a") * const(1), {EA: (1, 0)}, 1),
    (lambda: var("a") * -1, {EA: (-1, 0)}, 1),
    (lambda: (var("a") + var("b") * I) * I, {EA: (0, 1), EB: (-1, 0)}, 1),
    (lambda: const(-I) * Scalar(P, {EA: (3, 1)}, 2), {EA: (1, -3)}, 2),
    (lambda: Scalar(P, {EA: (3, 1)}, 2).scale_raw(0, -1), {EA: (1, -3)}, 2),
    # equal denominators: a sum that cancels to zero, a sum whose entries
    # share a factor, a sum whose denominator reduces
    (lambda: Scalar(P, {EA: (1, 0)}, 2) + Scalar(P, {EA: (-1, 0)}, 2), {EA: (0, 0)}, 2),
    (lambda: Scalar(P, {EA: (1, 0), EB: (1, 0)}, 3)
     + Scalar(P, {EA: (1, 0), EB: (5, 0)}, 3), {EA: (2, 0), EB: (6, 0)}, 3),
    (lambda: Scalar(P, {EA: (1, 0)}, 4) + Scalar(P, {EA: (3, 0)}, 4), {EA: (4, 0)}, 4),
    (lambda: Scalar(P, {EA: (1, 1)}, 6) + Scalar(P, {EB: (3, 0)}, 6),
     {EA: (1, 1), EB: (3, 0)}, 6),
    # unequal denominators and a non-unit factor still normalise
    (lambda: Scalar(P, {EA: (1, 0)}, 2) + Scalar(P, {EA: (1, 0)}, 6), {EA: (4, 0)}, 6),
    (lambda: Scalar(P, {EA: (3, 0)}, 4).scale_raw(2, 0, 3), {EA: (6, 0)}, 12),
], ids=["zero+x", "x+zero", "zero+zero", "x*1", "x*-1", "x*i", "-i*x",
        "scale-i", "cancel", "common-factor", "den-reduces", "den-kept",
        "unequal-dens", "non-unit"])
def test_scalar_fast_paths_match_the_constructor(got, terms, den):
    # every fast path gives what the normalising constructor gives for the
    # unreduced sum or product
    result, want = got(), Scalar(P, terms, den)
    assert type(result) is Scalar and result == want
    assert (result.terms, result.den) == (want.terms, want.den)


def test_scalar_fast_paths_share_no_state():
    a = var("a")
    assert a * 1 is a and a + 0 is a
    raw = {EA: (2, 0)}
    assert Scalar(P, raw, 2) == a and raw == {EA: (2, 0)}  # the caller's dict is kept
    neg = -a
    assert neg.terms is not a.terms and a.terms == {EA: (1, 0)}
    s = const(0) + a
    assert s is a


def test_terms_subclasses_never_mix():
    one = const(1)
    v = ModVec(P, {ModBasisVec(0, 0, 0): one})
    f = SuperFunction(P, {(0, 0, 0): one})
    assert v.terms == f.terms  # ModBasisVec is a tuple
    assert v != f and f != v
    assert ModVec(P) != SuperFunction(P)
    with pytest.raises(TypeError):
        v + f
    assert repr(v) == "ModVec(D{}.v0@l=0)"
    assert repr(SuperFunction.one(P).scale(var("a"))) == "SuperFunction(a*1)"
    assert repr(-SuperFunction.zero(P)) == "SuperFunction(0)"
    assert type(v - v) is ModVec and (v - v).is_zero() and not (v - v)
    with pytest.raises(TypeError):
        hash(v)
    assert hash(SuperFunction.one(P)) == hash(SuperFunction.monomial(P, 0, 0))


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


def rand_eval_scalar(rng):
    """Up to 4 terms of degree <= 3 in each parameter; the real and the
    imaginary part of each coefficient have their own denominator."""
    coeffs = {}
    for _ in range(rng.randint(0, 4)):
        e = tuple(rng.randint(0, 3) for _ in P)
        coeffs[e] = rand_gaussrat(rng)
    den = 1
    for g in coeffs.values():
        den = lcm(den, g.re.denominator, g.im.denominator)
    return Scalar(P, {e: (int(g.re * den), int(g.im * den))
                      for e, g in coeffs.items()}, den)


def rand_value(rng):
    """A parameter value of each accepted type: GaussRat, Fraction, int, text."""
    g = rand_gaussrat(rng)
    return rng.choice([g, g.re, g.re.numerator, str(g), str(g.re)])


FIXED = [Scalar.zero(P), const(7), const(GaussRat(Fraction(-3, 4), Fraction(5, 6)))]


def test_at_matches_fraction_route(gaussrat_route):
    fraction_eval, clear_denominators = gaussrat_route
    rng = random.Random(2024)
    zero = (0,) * len(P)
    for _ in range(300):
        asn = {p: rand_value(rng) for p in P}
        for s in FIXED + [rand_eval_scalar(rng) for _ in range(5)]:
            want = fraction_eval(s, asn)
            got = s.at(asn)
            assert got.params == P and set(got.terms) <= {zero}
            re, im, den = got.const_parts()
            assert den > 0 and gcd(re, im, den) == 1
            want_den, [want_pair] = clear_denominators([want])
            assert (re, im, den) == (*want_pair, want_den)
            assert s.eval(asn) == want


def test_at_keeps_a_constant_and_needs_only_the_parameters_that_appear():
    for s in FIXED:
        assert s.at({}) is s
    x = 2 * var("a") + const(I)
    assert x.at({"a": Fraction(1, 4)}) == const(GaussRat(Fraction(1, 2), 1))
    with pytest.raises(UsageError, match="missing assignment for parameter 'c'"):
        (x + var("c")).at({"a": 1, "b": 2})


def test_eval_modvec_matches_clear_denominators(gaussrat_route):
    fraction_eval, clear_denominators = gaussrat_route
    module = TensorModule(EpsilonConfig(2, (1, 1)),
                          build_so2(var("b"), var("c"), P), var("a"))
    inputs = {"a": Fraction(5, 7), "b": 1, "c": 2}
    fixed = ModVec(P, {ModBasisVec(l, 0, 0): const(g) for l, g in enumerate(
        [GaussRat(Fraction(1, 2), Fraction(-1, 3)), GaussRat(2),
         GaussRat(0, Fraction(3, 4))])})
    assert EvaluatedAction(module, inputs).eval_modvec(fixed) == (
        12, {ModBasisVec(0, 0, 0): (6, -4), ModBasisVec(1, 0, 0): (24, 0),
             ModBasisVec(2, 0, 0): (0, 9)})
    assert EvaluatedAction(module, inputs).eval_modvec(ModVec(P)) == (1, {})
    rng = random.Random(77)
    for _ in range(200):
        asn = {p: rand_value(rng) for p in P}
        vec = ModVec(P, {ModBasisVec(l, 0, 0): rand_eval_scalar(rng)
                         for l in range(4)})
        vals = [(bv, fraction_eval(c, asn)) for bv, c in vec.terms.items()]
        vals = [(bv, g) for bv, g in vals if g]
        den, pairs = clear_denominators([g for _, g in vals])
        assert EvaluatedAction(module, asn).eval_modvec(vec) == (
            den, dict(zip((bv for bv, _ in vals), pairs)))


def generic_product(x, y):
    """The term-by-term polynomial product, for any two Scalars."""
    out: dict = {}
    for e1, (r1, m1) in x.terms.items():
        for e2, (r2, m2) in y.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            pr, pm = out.get(e, (0, 0))
            out[e] = (pr + r1 * r2 - m1 * m2, pm + r1 * m2 + m1 * r2)
    return Scalar(x.params, out, x.den * y.den)


def test_constant_products_match_generic_product(gaussrat_route):
    _, clear_denominators = gaussrat_route
    rng = random.Random(31)
    polys = FIXED + [var("a"), -var("c") * var("b") ** 2] + [
        rand_eval_scalar(rng) for _ in range(40)]
    zero = (0,) * len(P)
    for v in [0, 1, -1, I, -I, 7, Fraction(3, 4), Fraction(-5, 6),
              GaussRat(Fraction(1, 2), Fraction(-2, 3))]:
        den, pairs = clear_denominators([v if isinstance(v, GaussRat) else GaussRat(v)])
        c = const(v)
        want_c = Scalar(P, {zero: pairs[0]}, den)
        assert (c.terms, c.den) == (want_c.terms, want_c.den)
        assert const(str(v)) == c
        for x in polys:
            want = generic_product(x, c)
            for got in (x * c, c * x, x * v, v * x):
                assert (list(got.terms.items()), got.den) == (
                    list(want.terms.items()), want.den)


@pytest.mark.parametrize("bad", [0.5, None, 1j, [1]])
def test_const_rejects_inexact_values(bad):
    with pytest.raises(UsageError, match="constant"):
        Scalar.const(P, bad)


@pytest.mark.parametrize("bad", [0.1, None, 2j])
def test_eval_rejects_inexact_assignment(bad):
    with pytest.raises(UsageError, match="'a'"):
        var("a").eval({"a": bad})
    with pytest.raises(UsageError, match="'b'"):
        (var("a") + var("b")).at({"a": 1, "b": bad})
    with pytest.raises(TypeError):
        GaussRat(1) + bad


PARSERS = {
    "Scalar": lambda text: Scalar.parse(P, text),
    "GaussRat": GaussRat.parse,
    "AlgebraElement": lambda text: AlgebraElement.parse(P, text),
    "monomial": parse_monomial,
    "ModBasisVec": ModBasisVec.parse,
}

MALFORMED = [
    ("Scalar", "a^"), ("Scalar", "2a"), ("Scalar", "x"), ("Scalar", "a^-1"),
    ("Scalar", "a/b"), ("Scalar", ""), ("Scalar", "a +"),
    ("GaussRat", "abc"), ("GaussRat", "1/0"), ("GaussRat", "a"),
    # never printed: juxtaposed "3i" and exponent notation are not read
    ("GaussRat", "2 - 3i"), ("GaussRat", "1e3"),
    ("AlgebraElement", "D[t^x]"), ("AlgebraElement", "D[t^1,xi{1,2,}]"),
    ("AlgebraElement", "D[t^1,xi{1,1}]"), ("AlgebraElement", "D[t^1]*C"),
    ("AlgebraElement", "3 + D[t^1]"), ("AlgebraElement", "D[t^1,]"),
    ("monomial", "xi{1,1}"), ("monomial", "t^x"), ("monomial", "xi{0}"),
    ("monomial", "xi{1 2}"), ("monomial", ""),
    ("ModBasisVec", "D{1,1}.v0@l=0"), ("ModBasisVec", "D{}.w0@l=0"),
    ("ModBasisVec", "D{}.v0@l=x"), ("ModBasisVec", "D{}.v0@l=1 2"),
]


@pytest.mark.parametrize("kind,text", MALFORMED)
def test_malformed_text_raises_usage_error(kind, text):
    with pytest.raises(UsageError):
        PARSERS[kind](text)


WELL_FORMED = [
    ("Scalar", "a - 1", var("a") - 1),
    ("Scalar", "-a", -var("a")),
    ("Scalar", "2*a^2 - c", 2 * var("a") ** 2 - var("c")),
    ("Scalar", "a/2 + -(b - 1/3)", var("a") * Fraction(1, 2) - var("b") + Fraction(1, 3)),
    ("GaussRat", "(1)", GaussRat(1)),
    ("GaussRat", "i*2", GaussRat(0, 2)),
    ("GaussRat", "1.25", GaussRat(Fraction(5, 4))),
    ("GaussRat", "(2/3*i)/(1/2-i)", GaussRat(0, Fraction(2, 3)) / GaussRat(Fraction(1, 2), -1)),
    ("AlgebraElement", "D[t^1] - D[t^0]",
     AlgebraElement.d_symbol(P, 1, 0) - AlgebraElement.d_symbol(P, 0, 0)),
    ("AlgebraElement", "0", AlgebraElement.zero(P)),
    ("monomial", "t^-2 xi{3,1}", (-2, 0b101)),
    ("monomial", "t", (1, 0)),
    ("ModBasisVec", "D{2}.v1@l=-3", ModBasisVec(-3, 0b10, 1)),
]


@pytest.mark.parametrize("kind,text,want", WELL_FORMED)
def test_text_parses_to_its_value(kind, text, want):
    assert PARSERS[kind](text) == want


@pytest.mark.parametrize("make", [
    lambda: GaussRat(0.1), lambda: GaussRat("1.5"), lambda: GaussRat(1, 0.5),
    lambda: Scalar.const(P, GaussRat(0.5)), lambda: var("a").at({"a": GaussRat(0.5)}),
], ids=["float", "text", "float_im", "const", "at"])
def test_gaussrat_parts_are_exact(make):
    with pytest.raises(UsageError, match="float|str"):
        make()


def test_hash_agrees_with_equality():
    # objects that compare equal must hash equal, across types too
    for x in (0, 3, Fraction(-5, 7)):
        assert GaussRat(x) == x and hash(GaussRat(x)) == hash(x)
        assert const(x) == x and hash(const(x)) == hash(x)
        assert const(x) == GaussRat(x) and hash(const(x)) == hash(GaussRat(x))
    assert len({GaussRat(1), 1, Fraction(1)}) == 1
    assert len({const(3), GaussRat(3), 3}) == 1
    z = GaussRat(Fraction(1, 2), -2)
    assert const(z) == z and hash(const(z)) == hash(z)
    assert len({const(z), z, const(GaussRat(Fraction(1, 2), 2))}) == 2
