import random
from itertools import chain

import pytest

from superkon.exactnum import UsageError, pair_content
from superkon.linalg import (Echelon, ModpEchelon, PrimeInDenominator,
                             WeightSpaces, gauss_mod, sqrt_minus_one)
from superkon.tensmod import ModBasisVec
from superkon.verify import SCREEN_PRIME as DEFAULT_PRIME


def basis_at(l):
    """Three basis vectors at each weight in -1..1, none elsewhere."""
    return [ModBasisVec(l, J, 0) for J in range(3)] if -1 <= l <= 1 else []


def test_echelon_outcomes_under_pivot_limit():
    e = Echelon(3, pivot_limit=2)
    assert e.insert([(1, 0), (0, 0), (2, 0)]) == "new"
    assert e.insert([(2, 0), (0, 0), (4, 0)]) == "dependent"
    # same source part, other image: the residual lives beyond the limit
    assert e.insert([(1, 0), (0, 0), (3, 0)]) == "inconsistent"
    assert e.insert([(0, 0), (0, 1), (0, 0)]) == "new"
    assert e.rank == 2
    assert e.contains([(3, 0), (0, 2), (6, 0)])
    assert not e.contains([(0, 0), (0, 0), (1, 0)])


class FractionFreeEchelon:
    """Reference: the row-echelon form with the fraction-free update
    ``row' = pivot*row - entry*pivot_row`` and a gcd step after each."""

    def __init__(self, ncols, pivot_limit=None):
        self.pivot_limit = ncols if pivot_limit is None else pivot_limit
        self.rows = {}

    def reduce(self, row):
        row = list(row)
        for col in sorted(self.rows):
            c, d = row[col]
            if (c, d) == (0, 0):
                continue
            prow = self.rows[col]
            a, b = prow[col]
            row = [(a * x - b * y - (c * px - d * py),
                    a * y + b * x - (c * py + d * px))
                   for (x, y), (px, py) in zip(row, prow)]
            g = pair_content(row)
            if g > 1:
                row = [(x // g, y // g) for x, y in row]
        return row

    def insert(self, row):
        res = self.reduce(row)
        pivot = next((c for c, v in enumerate(res) if v != (0, 0)), None)
        if pivot is None:
            return "dependent"
        if pivot >= self.pivot_limit:
            return "inconsistent"
        self.rows[pivot] = res
        return "new"

    def contains(self, row):
        return all(v == (0, 0) for v in self.reduce(row))


def _gauss(rng, bound):
    return rng.randint(-bound, bound), rng.randint(-bound, bound)


def _combine(rng, rows, width):
    out = [(0, 0)] * width
    for row in rows:
        a, b = _gauss(rng, 3)
        out = [(x + a * u - b * v, y + a * v + b * u)
               for (x, y), (u, v) in zip(out, row)]
    return out


def test_echelon_matches_fraction_free_reference():
    rng = random.Random(20250108)
    seen = {"new": 0, "dependent": 0, "inconsistent": 0}
    for case in range(400):
        width = 1 + case % 8
        limit = None if case % 3 == 0 else rng.randint(0, width)
        e, ref = Echelon(width, limit), FractionFreeEchelon(width, limit)
        spanned = []   # rows inserted as new or dependent
        for _ in range(3 * width):
            kind = rng.random()
            if kind < 0.4 or not spanned:
                row = [_gauss(rng, 4) if rng.random() < 0.6 else (0, 0)
                       for _ in range(width)]
            else:
                row = _combine(rng, rng.sample(spanned, min(3, len(spanned))),
                               width)
                if kind > 0.75 and limit is not None and limit < width:
                    # planted inconsistent: disturb the image part only
                    c = rng.randrange(limit, width)
                    row[c] = (row[c][0] + 1 + rng.randint(0, 5), row[c][1])
            assert e.contains(row) == ref.contains(row)
            outcome = e.insert(row)
            assert outcome == ref.insert(row)
            assert e.rank == len(ref.rows)
            seen[outcome] += 1
            if outcome != "inconsistent":
                spanned.append(row)
            assert e.contains(row) == ref.contains(row)
            # the stored form: den at each pivot, zero at the other pivots,
            # and no common factor left (den is the least one)
            assert e.den > 0
            assert all(prow[q] == ((e.den, 0) if q == p else (0, 0))
                       for p, prow in e.rows.items() for q in e.rows)
            assert pair_content(chain.from_iterable(e.rows.values()), e.den) == 1
    assert min(seen.values()) > 100, seen


def _mod_row(row, prime):
    return [gauss_mod(x, y, 1, prime) for x, y in row]


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 5, 13])
def test_modp_rank_never_exceeds_exact_rank(prime):
    rng = random.Random(20261018)
    lower = 0  # cases whose rank mod the prime fell below the exact rank
    for case in range(240):
        width = 1 + case % 16
        limit = None if case % 4 else rng.randint(0, width)
        e, m = Echelon(width, limit), ModpEchelon(width, prime, limit)
        spanned = []
        for _ in range(2 * width):
            if rng.random() < 0.5 or not spanned:
                row = [_gauss(rng, 6) if rng.random() < 0.5 else (0, 0)
                       for _ in range(width)]
            else:
                row = _combine(rng, rng.sample(spanned, min(3, len(spanned))),
                               width)
            outcome = e.insert(row)
            mod_outcome = m.insert(_mod_row(row, prime))
            assert m.rank <= e.rank
            if prime == DEFAULT_PRIME:
                assert mod_outcome == outcome
                assert m.contains(_mod_row(row, prime)) == e.contains(row)
            if outcome != "inconsistent":
                spanned.append(row)
        lower += m.rank < e.rank
    if prime == DEFAULT_PRIME:
        assert lower == 0
    else:
        assert lower > 0  # the bound is exercised, not only met


def test_gauss_mod_is_a_ring_map():
    rng = random.Random(7)
    for prime in (5, 13, 29, DEFAULT_PRIME):
        s = sqrt_minus_one(prime)
        assert s * s % prime == prime - 1
        for _ in range(50):
            (a, b), (c, d) = _gauss(rng, 50), _gauss(rng, 50)
            d1, d2 = rng.choice([1, 2, 3, 7]), rng.choice([1, 3, 11])
            if prime in (d1, d2):
                continue
            x, y = gauss_mod(a, b, d1, prime), gauss_mod(c, d, d2, prime)
            # (a + bi)/d1 * (c + di)/d2 and the sum over d1*d2
            assert gauss_mod(a * c - b * d, a * d + b * c, d1 * d2,
                             prime) == x * y % prime
            assert gauss_mod(a * d2 + c * d1, b * d2 + d * d1, d1 * d2,
                             prime) == (x + y) % prime
    with pytest.raises(PrimeInDenominator):
        gauss_mod(1, 0, 10, 5)
    for bad in (3, 7, 9, 21, 45):
        with pytest.raises(UsageError):
            sqrt_minus_one(bad)


def test_weight_spaces_modulo_a_prime():
    ws = WeightSpaces(basis_at, range(-1, 2), prime=13)
    assert ws.insert({ModBasisVec(0, 1, 0): 3}) == "new"
    assert ws.insert({ModBasisVec(0, 1, 0): 5}) == "dependent"
    assert ws.contains({ModBasisVec(0, 1, 0): 1})
    assert ws.insert({ModBasisVec(0, 0, 0): 1, ModBasisVec(0, 2, 0): 12}) == "new"
    assert not ws.settled(0)
    assert ws.insert({ModBasisVec(0, 2, 0): 4}) == "new"
    assert ws.settled(0) and ws.rank(0) == ws.dim(0) == 3
    assert ws.insert({ModBasisVec(5, 0, 0): 1}) is None
    with pytest.raises(UsageError, match=r"ModBasisVec\(l=1, J=3, r=0\)"):
        ws.insert({ModBasisVec(1, 3, 0): 1})


def test_weight_spaces_outside_window():
    ws = WeightSpaces(basis_at, range(-1, 2))
    assert ws.insert({ModBasisVec(5, 0, 0): (1, 0)}) is None
    assert ws.contains({ModBasisVec(5, 0, 0): (1, 0)}) is None
    assert ws.insert({}) is None
    assert ws.insert({ModBasisVec(0, 1, 0): (1, 0)}) == "new"
    assert ws.contains({ModBasisVec(0, 1, 0): (0, 3)})
    assert not ws.contains({ModBasisVec(0, 0, 0): (1, 0)})
    # inside the window but off the listed basis: a caller's mistake
    with pytest.raises(UsageError, match=r"ModBasisVec\(l=0, J=3, r=0\)"):
        ws.insert({ModBasisVec(0, 3, 0): (1, 0)})
    with pytest.raises(UsageError, match=r"ModBasisVec\(l=0, J=3, r=0\)"):
        ws.contains({ModBasisVec(0, 3, 0): (1, 0)})
    assert (ws.rank(0), ws.dim(0), ws.rank(5), ws.dim(5)) == (1, 3, 0, 0)
    # settled: no space at the weight, or a full one
    assert 0 in ws and 5 not in ws
    assert ws.settled(5) and not ws.settled(0)
    ws.insert({ModBasisVec(0, 0, 0): (1, 0)})
    ws.insert({ModBasisVec(0, 2, 0): (2, 1)})
    assert ws.settled(0)


def test_pair_row_columns_with_shared_keys():
    # source and image modules label their bases alike: the image columns
    # must come from the image basis, after the source block
    ws = WeightSpaces(basis_at, range(-1, 2), basis_at, shift=0)
    v0, v1 = ModBasisVec(0, 0, 0), ModBasisVec(0, 1, 0)
    _, row = ws._space_row({v1: (1, 0)}, {v0: (2, 0)})
    assert row == [(0, 0), (1, 0), (0, 0), (2, 0), (0, 0), (0, 0)]
    assert ws.insert({v1: (1, 0)}, {v0: (2, 0)}) == "new"
    assert ws.insert({v1: (2, 0)}, {v0: (4, 0)}) == "dependent"
    assert ws.insert({v1: (1, 0)}, {v1: (2, 0)}) == "inconsistent"
    # full source rank: a pair space is still not settled
    ws.insert({v0: (1, 0)}, {})
    ws.insert({ModBasisVec(0, 2, 0): (1, 0)}, {})
    assert ws.rank(0) == ws.dim(0) == 3
    assert not ws.settled(0)
    assert ws.insert({v1: (1, 0)}, {v0: (3, 0)}) == "inconsistent"


def test_zero_source_pair_at_image_weight_plus_shift():
    ws = WeightSpaces(basis_at, range(-1, 2), basis_at, shift=1)
    image = {ModBasisVec(-1, 0, 0): (1, 0)}
    assert ws.weight({}, image) == 0
    # a zero class with a nonzero image contradicts every relation
    assert ws.insert({}, image) == "inconsistent"
    assert ws.insert({}, {ModBasisVec(1, 0, 0): (1, 0)}) is None
    assert ws.insert({}, {}) is None


def test_mixed_weights_raise_usage_error():
    ws = WeightSpaces(basis_at, range(-1, 2), basis_at, shift=0)
    with pytest.raises(UsageError):
        ws.insert({ModBasisVec(0, 0, 0): (1, 0), ModBasisVec(1, 0, 0): (1, 0)})
    with pytest.raises(UsageError):
        ws.insert({ModBasisVec(0, 0, 0): (1, 0)}, {ModBasisVec(1, 0, 0): (1, 0)})


def test_pair_content():
    assert pair_content([(4, 6), (8, -10)]) == 2
    assert pair_content([(4, 6)], 3) == 1
    assert pair_content([(0, 0)]) == 0
    assert pair_content([], 5) == 5
    assert pair_content([(3, 0), (0, -9)]) == 3
