"""Exact linear algebra over Gaussian rationals.

Exact rows are sparse dicts ``column index -> (re, im)`` of nonzero
Gaussian-integer pairs, any common denominator already cleared.  An
:class:`Echelon` keeps its rows in reduced row-echelon form scaled by one
shared positive integer ``den``, each stored as sparsely: ``den`` at its
own pivot column, its nonzero entries on the free (non-pivot) columns, and
nothing at the other pivot columns.  A row then lies in the span exactly
when ``den`` times it equals the combination of the stored rows weighted
by its entries at their pivots; the difference vanishes on every pivot
column, so membership needs no gcd and touches only the entries the rows
hold.  Ranks and memberships carry no rounding or pivot-threshold
questions.

:class:`WeightSpaces` keeps one echelon per weight space of a window, with
rows keyed by the index of a basis vector within its weight space.

Also a few small helpers for dense matrices of Scalars (used for the
orthogonal-algebra relation checks and the degree-zero projection).
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from .exactnum import Scalar, pair_content


# ---------------------------------------------------------------------------
# integer-pair rows


class Echelon:
    """Growing reduced row-echelon basis with exact membership tests.

    Rows are sparse dicts ``column -> (re, im)``.  Each stored row holds
    ``(den, 0)`` at its pivot and nothing at the other pivots.  A row ``r``
    is in the span iff ``den*r - sum_p r[p]*row_p`` is zero; it is zero on
    every pivot column, and its first nonzero (free) column decides whether
    ``r`` is new.

    ``pivot_limit`` (if set) restricts pivot columns to ``< pivot_limit``;
    inserting a row whose first failing column lies at or beyond the limit
    is reported as inconsistent rather than stored.  This turns the same
    machinery into an intertwining-map checker: insert ``[source | image]``
    rows with the limit at the source width.
    """

    def __init__(self, ncols: int, pivot_limit: int | None = None):
        self.ncols = ncols
        self.pivot_limit = ncols if pivot_limit is None else pivot_limit
        self._rows: dict = {}  # pivot column -> stored row, in insertion order
        self.den = 1

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict:
        """Each pivot column -> the entries ``(re, im)`` its row stores,
        its ``(den, 0)`` among them, in insertion order (the row stored
        last comes last)."""
        return {p: row.values() for p, row in self._rows.items()}

    def _residual(self, row: dict) -> dict:
        """The nonzero entries of ``den*row - sum_p row[p]*rows[p]``: none
        at a pivot column, none at all iff ``row`` lies in the span."""
        den = self.den
        acc = {c: (x * den, y * den) for c, (x, y) in row.items()}
        get = acc.get
        rows = self._rows
        for p, (a, b) in row.items():
            prow = rows.get(p)
            if prow is not None:
                for c, (u, v) in prow.items():
                    x, y = get(c, (0, 0))
                    acc[c] = (x - a * u + b * v, y - a * v - b * u)
        return {c: xy for c, xy in acc.items() if xy != (0, 0)}

    def insert(self, row: dict) -> str:
        """Store ``row`` if it is new.  Returns one of:

        * ``"new"`` -- increased the rank;
        * ``"dependent"`` -- already in the span;
        * ``"inconsistent"`` -- agrees with the span on all pivot-eligible
          columns but not beyond the limit.

        The first free column where ``row`` leaves the span decides.
        """
        res = self._residual(row)
        if not res:
            return "dependent"
        pivot = min(res)
        if pivot >= self.pivot_limit:
            return "inconsistent"
        self._store(res, pivot)
        return "new"

    def _store(self, new: dict, pivot: int) -> None:
        """Add the residual ``new`` of a row, nonzero at ``pivot``."""
        # times the conjugate of its pivot entry: the pivot becomes pv > 0
        a, b = new[pivot]
        new = {c: (x * a + y * b, y * a - x * b) for c, (x, y) in new.items()}
        pv = a * a + b * b
        # clear the pivot column from the stored rows; all pivots -> den*pv
        rows = self._rows
        for p, prow in rows.items():
            e, f = prow.get(pivot, (0, 0))
            if e or f:
                out = {c: (pv * u, pv * v) for c, (u, v) in prow.items()}
                for c, (x, y) in new.items():
                    u, v = out.get(c, (0, 0))
                    out[c] = (u - e * x + f * y, v - e * y - f * x)
                rows[p] = {c: uv for c, uv in out.items() if uv[0] or uv[1]}
            elif pv != 1:
                rows[p] = {c: (pv * u, pv * v) for c, (u, v) in prow.items()}
        den = self.den
        rows[pivot] = {c: (den * x, den * y) for c, (x, y) in new.items()}
        den *= pv
        g = pair_content(chain.from_iterable(r.values() for r in rows.values()),
                         den)
        if g > 1:
            for p, prow in rows.items():
                rows[p] = {c: (x // g, y // g) for c, (x, y) in prow.items()}
            den //= g
        self.den = den

    def contains(self, row: dict) -> bool:
        return not self._residual(row)


class WeightSpaces:
    """One :class:`Echelon` per weight space of a window.

    A row at weight ``l`` is a sparse dict ``index -> (re, im)`` over the
    basis of that weight space, indexed as the caller lists it; ``dim(l)``
    is that basis's size, and only weights in ``weights`` with a nonempty
    basis get a space.

    With ``image_dim`` the rows are pairs ``[vec | image]`` with pivots
    limited to the ``vec`` columns (an intertwining-map checker, see
    :class:`Echelon`); the image of a vector at weight ``l`` lies at
    ``l - shift``, in a basis of ``image_dim(l - shift)`` vectors, whose
    columns follow the source ones.
    """

    def __init__(self, dim, weights, image_dim=None, shift: int = 0):
        self.shift = shift
        self._spaces: dict = {}
        for l in weights:
            n = dim(l)
            m = image_dim(l - shift) if image_dim is not None else 0
            if n or m:
                self._spaces[l] = Echelon(n + m, pivot_limit=n)

    def _space_row(self, l, vec: dict, image: dict | None):
        """(Echelon, row) at weight ``l``; (None, None) when ``l`` has no
        space or both parts are zero."""
        space = self._spaces.get(l)
        if space is None or not (vec or image):
            return None, None
        if image:
            n = space.pivot_limit
            vec = {**vec, **{n + j: xy for j, xy in image.items()}}
        return space, vec

    def insert(self, l, vec: dict, image: dict | None = None):
        """The :meth:`Echelon.insert` outcome of the row at weight ``l``,
        or None when ``l`` has no space (or both parts are zero)."""
        space, row = self._space_row(l, vec, image)
        return None if space is None else space.insert(row)

    def grow(self, work: list, ops, act, inner):
        """The worklist loop of every closure, inner weights first.  Each
        row of ``work`` (stored already; a tuple ``(l, vec)``, or with
        ``image_dim`` ``(l, vec, image)``), appended ones included, meets
        each op ``(p, imask, shift)`` whose target weight ``l + shift`` is
        not settled: its image row ``act(op, row)``, at that weight, is
        inserted, appended when new, and ``(op, l, image, outcome)``
        yielded for a non-None outcome.  The caller may stop early by
        leaving the loop.

        The ops into the weights of ``inner`` (the window's inner range)
        meet every row before any op into another weight runs: the ops
        into other weights wait in one queue, and the next of them runs
        only when every row, appended ones included, has met its ops into
        inner weights.  A closure that stops once its inner weights are
        full thus computes no image at an outer weight that the inner
        ones did not need.  Run to the end, every order gives the same
        span."""
        served = 0  # rows that have met their ops into inner weights
        later: deque = deque()  # (op, row) into other weights, in turn
        while served < len(work) or later:
            if served < len(work):
                row = work[served]
                served += 1
                now = []
                for op in ops:
                    (now if row[0] + op[2] in inner else later).append((op, row))
            else:
                now = [later.popleft()]
            for op, row in now:
                if self.settled(row[0] + op[2]):
                    continue
                image = act(op, row)
                outcome = self.insert(*image)
                if outcome is not None:
                    if outcome == "new":
                        work.append(image)
                    yield op, row[0], image, outcome

    def contains(self, l, vec: dict):
        """Whether ``vec`` lies in the span at weight ``l``, or None when
        ``l`` has no space (or ``vec`` is zero)."""
        space, row = self._space_row(l, vec, None)
        return None if space is None else space.contains(row)

    def __contains__(self, l: int) -> bool:
        """Whether weight ``l`` has a space."""
        return l in self._spaces

    def settled(self, l: int) -> bool:
        """Whether no row at weight ``l`` can change anything: ``l`` has no
        space, or its space has full rank.  A pair space (with image
        columns) is never settled, since a row there can be inconsistent."""
        space = self._spaces.get(l)
        return space is None or space.rank == space.ncols

    def rank(self, l: int) -> int:
        space = self._spaces.get(l)
        return space.rank if space is not None else 0

    def dim(self, l: int) -> int:
        """The dimension of the source weight space at ``l``."""
        space = self._spaces.get(l)
        return space.pivot_limit if space is not None else 0


# ---------------------------------------------------------------------------
# dense Scalar matrices


def mat_zeros(params, n: int, m: int | None = None):
    m = n if m is None else m
    return [[Scalar.zero(params) for _ in range(m)] for _ in range(n)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[a * c for a in row] for row in A]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for s in range(1, k):
                acc = acc + A[i][s] * B[s][j]
            row.append(acc)
        out.append(row)
    return out


def mat_commutator(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def mat_is_zero(A) -> bool:
    return all(a.is_zero() for row in A for a in row)


def mat_eq(A, B) -> bool:
    return mat_is_zero(mat_sub(A, B))
