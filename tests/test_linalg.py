import random
from itertools import chain

import pytest

from superkon.exactnum import UsageError, pair_content
from superkon.linalg import Echelon, WeightSpaces
from superkon.tensmod import ModBasisVec


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


def _toy_closure(rng, dim=3):
    """Ops ``(p, 0, shift)`` over the weights -2..2 (``dim`` basis vectors
    each), each a sparse random matrix of 0 and +-1 per source weight, and
    their action on integer-pair vectors; images outside -2..2 have no
    space."""
    ops = [(p, 0, shift) for p, shift in enumerate((-1, 0, 1, 2, -2))]
    mats = {(p, l): [[rng.choice((0, 0, 0, 0, 0, 1, -1)) for _ in range(dim)]
                     for _ in range(dim)]
            for p, _, _ in ops for l in range(-2, 3)}

    def basis_at(l):
        return [ModBasisVec(l, J, 0) for J in range(dim)] if -2 <= l <= 2 else []

    def act(p, im, vec):
        l = next(iter(vec)).l
        vals = [vec.get(ModBasisVec(l, i, 0), (0, 0)) for i in range(dim)]
        out = {}
        for j, coeffs in enumerate(mats[p, l]):
            x = sum(c * v[0] for c, v in zip(coeffs, vals))
            y = sum(c * v[1] for c, v in zip(coeffs, vals))
            if x or y:
                out[ModBasisVec(l + ops[p][2], j, 0)] = (x, y)
        return out

    seed = {ModBasisVec(0, 0, 0): (1, 0), ModBasisVec(0, 1, 0): (0, 1)}
    return basis_at, ops, act, seed


def test_grow_reaches_the_first_in_first_out_ranks():
    ranks = set()
    for case in range(60):
        basis_at, ops, act, seed = _toy_closure(random.Random(case))
        spaces = WeightSpaces(basis_at, range(-2, 3))
        spaces.insert(seed)
        for _ in spaces.grow([seed], ops, act, range(-1, 2)):
            pass
        # the plain loop: every row meets every op, in turn
        ref = WeightSpaces(basis_at, range(-2, 3))
        work = [seed] if ref.insert(seed) == "new" else []
        for row in work:
            for p, im, _ in ops:
                if ref.insert(image := act(p, im, row)) == "new":
                    work.append(image)
        got = [spaces.rank(l) for l in range(-2, 3)]
        assert got == [ref.rank(l) for l in range(-2, 3)]
        ranks.add(tuple(got))
    assert len(ranks) > 5  # not only full spaces


def test_grow_serves_the_inner_weights_first():
    inner = range(-1, 2)
    reentered = 0  # cases where an inner op ran after an outer one
    for case in range(60):
        basis_at, ops, act, seed = _toy_closure(random.Random(case))
        spaces = WeightSpaces(basis_at, range(-2, 3))
        spaces.insert(seed)
        work = [seed]
        met = set()  # (op, row id) of each image into an inner weight
        log = []

        def spy(p, im, row):
            t = next(iter(row)).l + ops[p][2]
            if t in inner:
                met.add((p, id(row)))
            else:
                # every row so far has met every op into an inner weight,
                # or that weight is full and needs no image
                for r in work:
                    for q, _, shift in ops:
                        u = next(iter(r)).l + shift
                        assert (u not in inner or (q, id(r)) in met
                                or spaces.settled(u))
            log.append(t in inner)
            return act(p, im, row)

        for _ in spaces.grow(work, ops, spy, inner):
            pass
        reentered += any(a and not b for a, b in zip(log[1:], log))
    assert reentered > 10


def test_pair_content():
    assert pair_content([(4, 6), (8, -10)]) == 2
    assert pair_content([(4, 6)], 3) == 1
    assert pair_content([(0, 0)]) == 0
    assert pair_content([], 5) == 5
    assert pair_content([(3, 0), (0, -9)]) == 3
