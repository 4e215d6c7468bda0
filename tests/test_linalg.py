from fractions import Fraction

import pytest

from superkon.exactnum import (GaussRat, UsageError, clear_denominators,
                               pair_content)
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


def test_weight_spaces_outside_window():
    ws = WeightSpaces(basis_at, range(-1, 2))
    assert ws.insert({ModBasisVec(5, 0, 0): (1, 0)}) is None
    assert ws.contains({ModBasisVec(5, 0, 0): (1, 0)}) is None
    assert ws.insert({}) is None
    assert ws.insert({ModBasisVec(0, 1, 0): (1, 0)}) == "new"
    assert ws.contains({ModBasisVec(0, 1, 0): (0, 3)})
    assert not ws.contains({ModBasisVec(0, 0, 0): (1, 0)})
    assert (ws.rank(0), ws.dim(0), ws.rank(5), ws.dim(5)) == (1, 3, 0, 0)


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


def test_clear_denominators():
    vals = [GaussRat(Fraction(1, 2), Fraction(-1, 3)), GaussRat(2), GaussRat(0, Fraction(3, 4))]
    den, pairs = clear_denominators(vals)
    assert den == 12
    assert pairs == [(6, -4), (24, 0), (0, 9)]
    assert clear_denominators([]) == (1, [])
