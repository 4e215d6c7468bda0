import random
from fractions import Fraction
from itertools import chain

import pytest

from superkon.exactnum import Scalar, UsageError, pair_content
from superkon.grassmann import EpsilonConfig
from superkon.linalg import Echelon, WeightSpaces
from superkon.repn import build_so2
from superkon.tensmod import ModBasisVec, TensorModule


def dim(l):
    """Three basis vectors at each weight in -1..1, none elsewhere."""
    return 3 if -1 <= l <= 1 else 0


def sparse(row):
    """A dense list of pairs as the sparse row an Echelon takes."""
    return {c: xy for c, xy in enumerate(row) if xy != (0, 0)}


def test_echelon_outcomes_under_pivot_limit():
    e = Echelon(3, pivot_limit=2)
    assert e.insert({0: (1, 0), 2: (2, 0)}) == "new"
    assert e.insert({0: (2, 0), 2: (4, 0)}) == "dependent"
    # same source part, other image: the residual lives beyond the limit
    assert e.insert({0: (1, 0), 2: (3, 0)}) == "inconsistent"
    assert e.insert({1: (0, 1)}) == "new"
    assert e.rank == 2
    assert e.contains({0: (3, 0), 1: (0, 2), 2: (6, 0)})
    assert not e.contains({2: (1, 0)})


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


def _assert_stored_form(e):
    """Each stored row holds den at its pivot, nothing at the other pivots
    and no zero entry; no common factor is left (den is the least one);
    ``rows`` reads each row's entries, the row stored last last."""
    assert e.den > 0
    for p, prow in e._rows.items():
        assert prow[p] == (e.den, 0)
        assert not (prow.keys() & e._rows.keys()) - {p}
        assert (0, 0) not in prow.values()
    assert pair_content(chain.from_iterable(e.rows.values()), e.den) == 1
    assert [sorted(v) for v in e.rows.values()] == \
        [sorted(r.values()) for r in e._rows.values()]


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
            assert e.contains(sparse(row)) == ref.contains(row)
            outcome = e.insert(sparse(row))
            assert outcome == ref.insert(row)
            assert e.rank == len(ref.rows)
            seen[outcome] += 1
            if outcome != "inconsistent":
                spanned.append(row)
            assert e.contains(sparse(row)) == ref.contains(row)
            _assert_stored_form(e)
    assert min(seen.values()) > 100, seen


def test_sparse_echelon_matches_fraction_free_reference():
    # rows with about one entry in four, with and without a pivot limit,
    # among them rows that are zero on every free column (supported on
    # pivot columns only) and pair rows whose source part is zero
    rng = random.Random(20261022)
    seen = {"new": 0, "dependent": 0, "inconsistent": 0}
    kinds = {"pivots-only": 0, "zero-source": 0}
    for case in range(300):
        width = 2 + case % 11
        limit = None if case % 2 == 0 else rng.randint(1, width - 1)
        e, ref = Echelon(width, limit), FractionFreeEchelon(width, limit)
        for _ in range(3 * width):
            kind = rng.random()
            row = [(0, 0)] * width
            if kind < 0.2 and e._rows:
                kinds["pivots-only"] += 1
                for p in rng.sample(sorted(e._rows), rng.randint(1, e.rank)):
                    row[p] = _gauss(rng, 5)
            elif kind < 0.35 and limit is not None:
                kinds["zero-source"] += 1
                row[rng.randrange(limit, width)] = _gauss(rng, 5)
            else:
                for c in range(width):
                    if rng.random() < 0.25:
                        row[c] = _gauss(rng, 5)
            if row == [(0, 0)] * width:
                row[rng.randrange(width)] = (1, 0)
            assert e.contains(sparse(row)) == ref.contains(row)
            outcome = e.insert(sparse(row))
            assert outcome == ref.insert(row)
            assert e.rank == len(ref.rows)
            seen[outcome] += 1
            assert e.contains(sparse(row)) == ref.contains(row)
            if outcome == "new":
                # the tracer's read of the row just stored
                last = list(next(reversed(e.rows.values())))
                assert last and all(type(x) is int and type(y) is int
                                    for x, y in last)
            _assert_stored_form(e)
    assert min(seen.values()) > 100, seen
    assert min(kinds.values()) > 100, kinds


def test_weight_spaces_outside_window():
    ws = WeightSpaces(dim, range(-1, 2))
    assert ws.insert(5, {0: (1, 0)}) is None
    assert ws.contains(5, {0: (1, 0)}) is None
    assert ws.insert(0, {}) is None
    assert ws.insert(0, {1: (1, 0)}) == "new"
    assert ws.contains(0, {1: (0, 3)})
    assert not ws.contains(0, {0: (1, 0)})
    assert (ws.rank(0), ws.dim(0), ws.rank(5), ws.dim(5)) == (1, 3, 0, 0)
    # settled: no space at the weight, or a full one
    assert 0 in ws and 5 not in ws
    assert ws.settled(5) and not ws.settled(0)
    ws.insert(0, {0: (1, 0)})
    ws.insert(0, {2: (2, 1)})
    assert ws.settled(0)


def test_pair_row_columns_with_shared_keys():
    # source and image rows index their bases alike: the image columns
    # come after the source block
    ws = WeightSpaces(dim, range(-1, 2), dim, shift=0)
    _, row = ws._space_row(0, {1: (1, 0)}, {0: (2, 0)})
    assert row == {1: (1, 0), 3: (2, 0)}
    assert ws.insert(0, {1: (1, 0)}, {0: (2, 0)}) == "new"
    assert ws.insert(0, {1: (2, 0)}, {0: (4, 0)}) == "dependent"
    assert ws.insert(0, {1: (1, 0)}, {1: (2, 0)}) == "inconsistent"
    # full source rank: a pair space is still not settled
    ws.insert(0, {0: (1, 0)}, {})
    ws.insert(0, {2: (1, 0)}, {})
    assert ws.rank(0) == ws.dim(0) == 3
    assert not ws.settled(0)
    assert ws.insert(0, {1: (1, 0)}, {0: (3, 0)}) == "inconsistent"


def test_zero_source_pair_at_image_weight_plus_shift():
    # the image of a row at weight l lies at l - 1: weight 0 has image
    # columns (weight -1 has a basis), weight -1 has none (weight -2 has not)
    ws = WeightSpaces(dim, range(-1, 2), dim, shift=1)
    assert [ws._spaces[l].ncols for l in (-1, 0, 1)] == [3, 6, 6]
    # a zero class with a nonzero image contradicts every relation
    assert ws.insert(0, {}, {0: (1, 0)}) == "inconsistent"
    assert ws.insert(2, {}, {0: (1, 0)}) is None
    assert ws.insert(0, {}, {}) is None


def test_mixed_weights_raise_usage_error():
    # a seed or generator becomes a row at one weight, the image part of a
    # pair row at the weight it is given
    M = TensorModule(EpsilonConfig(2, (1, 1)), build_so2(1, 1, ()),
                     Scalar.const((), Fraction(5, 7)))
    ev = M.eval_cache({})
    v0, v2 = ModBasisVec(0, 0, 0), ModBasisVec(2, 0, 0)
    with pytest.raises(UsageError, match=r"one weight space, not \[0, 2\]"):
        ev.row({v0: (1, 0), v2: (1, 0)})
    with pytest.raises(UsageError, match=r"one weight space, not \[-2, 0\]"):
        ev.row({v0: (1, 0)}, -2)
    # off the even lattice of the all-ones twist: not in the basis
    with pytest.raises(UsageError, match=r"ModBasisVec\(l=1, J=0, r=0\)"):
        ev.row({ModBasisVec(1, 0, 0): (1, 0)})
    assert ev.row({v2: (1, 0)}, 2) == (2, {ev.basis(2).index(v2): (1, 0)})
    assert ev.row({}, 4) == (4, {})


def _toy_closure(rng, dim=3):
    """Ops ``(p, 0, shift)`` over the weights -2..2 (``dim`` basis vectors
    each), each a sparse random matrix of 0 and +-1 per source weight, and
    their action on rows ``(l, vec)``; images outside -2..2 have no
    space."""
    ops = [(p, 0, shift) for p, shift in enumerate((-1, 0, 1, 2, -2))]
    mats = {(p, l): [[rng.choice((0, 0, 0, 0, 0, 1, -1)) for _ in range(dim)]
                     for _ in range(dim)]
            for p, _, _ in ops for l in range(-2, 3)}

    def dim_at(l):
        return dim if -2 <= l <= 2 else 0

    def act(op, row):
        p, _, shift = op
        l, vec = row
        vals = [vec.get(i, (0, 0)) for i in range(dim)]
        out = {}
        for j, coeffs in enumerate(mats[p, l]):
            x = sum(c * v[0] for c, v in zip(coeffs, vals))
            y = sum(c * v[1] for c, v in zip(coeffs, vals))
            if x or y:
                out[j] = (x, y)
        return l + shift, out

    seed = (0, {0: (1, 0), 1: (0, 1)})
    return dim_at, ops, act, seed


def test_grow_reaches_the_first_in_first_out_ranks():
    ranks = set()
    for case in range(60):
        dim_at, ops, act, seed = _toy_closure(random.Random(case))
        spaces = WeightSpaces(dim_at, range(-2, 3))
        spaces.insert(*seed)
        for _ in spaces.grow([seed], ops, act, range(-1, 2)):
            pass
        # the plain loop: every row meets every op, in turn
        ref = WeightSpaces(dim_at, range(-2, 3))
        work = [seed] if ref.insert(*seed) == "new" else []
        for row in work:
            for op in ops:
                if ref.insert(*(image := act(op, row))) == "new":
                    work.append(image)
        got = [spaces.rank(l) for l in range(-2, 3)]
        assert got == [ref.rank(l) for l in range(-2, 3)]
        ranks.add(tuple(got))
    assert len(ranks) > 5  # not only full spaces


def test_grow_serves_the_inner_weights_first():
    inner = range(-1, 2)
    reentered = 0  # cases where an inner op ran after an outer one
    for case in range(60):
        dim_at, ops, act, seed = _toy_closure(random.Random(case))
        spaces = WeightSpaces(dim_at, range(-2, 3))
        spaces.insert(*seed)
        work = [seed]
        met = set()  # (op, row id) of each image into an inner weight
        log = []

        def spy(op, row):
            t = row[0] + op[2]
            if t in inner:
                met.add((op, id(row)))
            else:
                # every row so far has met every op into an inner weight,
                # or that weight is full and needs no image
                for r in work:
                    for q in ops:
                        u = r[0] + q[2]
                        assert (u not in inner or (q, id(r)) in met
                                or spaces.settled(u))
            log.append(t in inner)
            return act(op, row)

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
