"""Exact linear algebra over Gaussian rationals.

Exact row vectors are lists of Gaussian-integer pairs ``(re, im)`` with
any common denominator already cleared.  An :class:`Echelon` keeps its
rows in reduced row-echelon form scaled by one shared positive integer
``den``: every stored row holds ``den`` at its own pivot column and zero
at every other pivot column.  A row then lies in the span exactly when, on
every free (non-pivot) column, ``den`` times its entry equals the
combination of the stored rows weighted by its pivot entries.  Membership
touches only the free columns and needs no gcd, and ranks and memberships
carry no rounding or pivot-threshold questions.

:class:`WeightSpaces` keeps one echelon per weight space of a window; it
is the one place where module vectors become rows.

Also a few small helpers for dense matrices of Scalars (used for the
orthogonal-algebra relation checks and the degree-zero projection).
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from .exactnum import Scalar, UsageError, pair_content


# ---------------------------------------------------------------------------
# integer-pair rows


class Echelon:
    """Growing reduced row-echelon basis with exact membership tests.

    ``rows`` maps each pivot column to its row, in insertion order (the
    last entry is the row stored last); each row holds ``(den, 0)`` at its
    pivot and ``(0, 0)`` at the other pivots.  A row ``r`` is in the span
    iff ``den*r[c] == sum_p r[p]*rows[p][c]`` on every free column ``c``;
    the first free column where this fails decides whether ``r`` is new.

    ``pivot_limit`` (if set) restricts pivot columns to ``< pivot_limit``;
    inserting a row whose first failing column lies at or beyond the limit
    is reported as inconsistent rather than stored.  This turns the same
    machinery into an intertwining-map checker: insert ``[source | image]``
    rows with the limit at the source width.
    """

    def __init__(self, ncols: int, pivot_limit: int | None = None):
        self.ncols = ncols
        self.pivot_limit = ncols if pivot_limit is None else pivot_limit
        self.rows: dict[int, list] = {}  # pivot column -> row
        self.den = 1
        self._free = list(range(ncols))  # non-pivot columns, ascending

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _residual(self, row: list):
        """Yield ``(c, re, im)`` of ``den*row - sum_p row[p]*rows[p]`` on
        each free column ``c`` in order; it vanishes on the pivot columns,
        so ``row`` lies in the span iff every yielded value is zero."""
        terms = [(row[p], prow) for p, prow in self.rows.items()
                 if row[p] != (0, 0)]
        den = self.den
        for c in self._free:
            x, y = row[c]
            x *= den
            y *= den
            for (a, b), prow in terms:
                u, v = prow[c]
                x -= a * u - b * v
                y -= a * v + b * u
            yield c, x, y

    def insert(self, row: list) -> str:
        """Store ``row`` if it is new.  Returns one of:

        * ``"new"`` -- increased the rank;
        * ``"dependent"`` -- already in the span;
        * ``"inconsistent"`` -- agrees with the span on all pivot-eligible
          columns but not beyond the limit.

        The first free column where ``row`` leaves the span decides.
        """
        residual = self._residual(row)
        for pivot, x, y in residual:
            if x or y:
                break
        else:
            return "dependent"
        if pivot >= self.pivot_limit:
            return "inconsistent"
        new = [(0, 0)] * self.ncols
        new[pivot] = (x, y)
        for c, x, y in residual:
            new[c] = (x, y)
        self._store(new, pivot)
        return "new"

    def _store(self, new: list, pivot: int) -> None:
        """Add the residual ``new`` of a row, nonzero at ``pivot``."""
        # times the conjugate of its pivot entry: the pivot becomes pv > 0
        a, b = new[pivot]
        new = [(x * a + y * b, y * a - x * b) for x, y in new]
        pv = a * a + b * b
        # clear the pivot column from the stored rows; all pivots -> den*pv
        den = self.den
        for p, prow in self.rows.items():
            e, f = prow[pivot]
            self.rows[p] = [(pv * u - (e * x - f * y), pv * v - (e * y + f * x))
                            for (u, v), (x, y) in zip(prow, new)]
        self.rows[pivot] = [(den * x, den * y) for x, y in new]
        self._free.remove(pivot)
        den *= pv
        g = pair_content(chain.from_iterable(self.rows.values()), den)
        if g > 1:
            for p, prow in self.rows.items():
                self.rows[p] = [(x // g, y // g) for x, y in prow]
            den //= g
        self.den = den

    def contains(self, row: list) -> bool:
        return not any(x or y for _, x, y in self._residual(row))


def _weight(vec: dict) -> int:
    ws = {bv.l for bv in vec}
    if len(ws) > 1:
        raise UsageError(f"a row must lie in one weight space, not {sorted(ws)}")
    return ws.pop()


class WeightSpaces:
    """One :class:`Echelon` per weight space of a window.

    Vectors are dicts ``basis vector -> (re, im)`` whose basis vectors
    carry their weight as ``.l``; a vector must lie in one weight space.
    ``basis_at(l)`` lists the basis at weight ``l``, and only weights in
    ``weights`` with a nonempty basis get a space.  A vector at such a
    weight with a term outside that basis (off the module's lattice)
    raises UsageError.

    With ``image_basis`` the rows are pairs ``[vec | image]`` with pivots
    limited to the ``vec`` columns (an intertwining-map checker, see
    :class:`Echelon`); the image of a vector at weight ``l`` lies at
    ``l - shift`` of ``image_basis``.  Source and image keep separate
    column maps because the two modules share basis labels.
    """

    def __init__(self, basis_at, weights, image_basis=None, shift: int = 0):
        self.shift = shift
        self._pairs = image_basis is not None
        self._cols: dict = {}    # weight -> (source columns, image columns)
        self._spaces: dict = {}
        for l in weights:
            cols = {bv: i for i, bv in enumerate(basis_at(l))}
            image = image_basis(l - shift) if image_basis is not None else []
            if cols or image:
                self._cols[l] = (cols, {bv: len(cols) + i
                                        for i, bv in enumerate(image)})
                self._spaces[l] = Echelon(len(cols) + len(image),
                                          pivot_limit=len(cols))

    def weight(self, vec: dict, image: dict | None = None):
        """The weight of a nonzero ``vec``; for a zero one, the weight of
        a nonzero ``image`` plus ``shift``; None when both are zero."""
        if vec:
            l = _weight(vec)
            if image and _weight(image) + self.shift != l:
                raise UsageError("a pair row's image must lie at its weight "
                                 "minus the shift")
            return l
        return _weight(image) + self.shift if image else None

    def _space_row(self, vec: dict, image: dict | None):
        """(Echelon, row) at the row's weight; (None, None) outside."""
        l = self.weight(vec, image)
        if l not in self._spaces:
            return None, None
        space = self._spaces[l]
        cols, icols = self._cols[l]
        row = [(0, 0)] * space.ncols
        try:
            for bv, rm in vec.items():
                row[cols[bv]] = rm
            for bv, rm in (image or {}).items():
                row[icols[bv]] = rm
        except KeyError as exc:
            raise UsageError(f"{exc.args[0]!r} is not in the basis of its "
                             "weight space") from exc
        return space, row

    def insert(self, vec: dict, image: dict | None = None):
        """The :meth:`Echelon.insert` outcome, or None when the row's
        weight is outside the window (or both parts are zero)."""
        space, row = self._space_row(vec, image)
        return None if space is None else space.insert(row)

    def grow(self, work: list, ops, act, inner):
        """The worklist loop of every closure, inner weights first.  Each
        row of ``work`` (stored already; a vector, or with ``image_basis``
        a pair ``(vec, image)``), appended ones included, meets each op
        ``(p, imask, shift)`` whose target weight ``l + shift`` is not
        settled: the image ``act(p, imask, row)`` is inserted, appended
        when new, and ``(op, l, image, outcome)`` yielded for a non-None
        outcome.  The caller may stop early by leaving the loop.

        The ops into the weights of ``inner`` (the window's inner range)
        meet every row before any op into another weight runs: the ops
        into other weights wait in one queue, and the next of them runs
        only when every row, appended ones included, has met its ops into
        inner weights.  A closure that stops once its inner weights are
        full thus computes no image at an outer weight that the inner
        ones did not need.  Run to the end, every order gives the same
        span."""
        pairs = self._pairs
        served = 0  # rows that have met their ops into inner weights
        later: deque = deque()  # (op, l, row) into other weights, in turn
        while served < len(work) or later:
            if served < len(work):
                row = work[served]
                served += 1
                l = self.weight(*row) if pairs else self.weight(row)
                now = []
                for op in ops:
                    (now if l + op[2] in inner else later).append((op, l, row))
            else:
                now = [later.popleft()]
            for op, l, row in now:
                p, im, shift = op
                if self.settled(l + shift):
                    continue
                image = act(p, im, row)
                outcome = self.insert(*image) if pairs else self.insert(image)
                if outcome is not None:
                    if outcome == "new":
                        work.append(image)
                    yield op, l, image, outcome

    def contains(self, vec: dict):
        """Whether ``vec`` lies in the span at its weight, or None when
        that weight is outside the window (or ``vec`` is zero)."""
        space, row = self._space_row(vec, None)
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
