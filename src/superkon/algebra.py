"""The contact Lie superalgebras at a fixed twist vector.

Basis symbols come in three kinds:

* ``D[t^k, xi_I]`` -- the differential-operator basis of the contact
  algebra.  The symbol stores the *literal* t-exponent ``k``; the
  structure-constant formula below is phrased for ``D[t^{k+1}, xi_I]``
  and the ``+1`` shift is applied at the formula site only.
* ``A[t^k, xi_I]`` -- the abelian function part of the semidirect
  extension (the algebra acts on it, it brackets to zero with itself).
* ``C`` -- the central element of the one-dimensional central
  extension, available for ``N <= 3``.

The basis bracket, for stored exponents ``p = k+1`` and ``q = l+1``:

* zero when ``|I ∩ J| > 1`` (the central term may still fire when
  ``I = J``);
* ``(-1)^{|I|} D[t^{p+q-eps_i}, partial_i(xi_I) partial_i(xi_J)]`` when
  ``I ∩ J = {i}``;
* ``((2-|I|)(q - eps(J)/2) - (2-|J|)(p - eps(I)/2)) D[t^{p+q-1},
  xi_I xi_J]`` when ``I`` and ``J`` are disjoint,

plus, when the central extension is enabled, ``I = J`` and the two
symbols' degrees sum to 0, the central contribution ``(C/24) (d0
n(n^2-4) + 2 d1 (n^2-1) - 4 d2 n - 8 d3)`` where ``n`` is the degree of
``D[t^p, xi_I]`` and ``d_r`` selects ``|I| = r``.  The degree is
:meth:`superkon.grassmann.EpsilonConfig.degree`, ``2(p-1) + sum_{i in
I}(1-eps_i)``; the bracket adds degrees.

The D-symbol ``D[t^k, xi_I]`` acts on functions as the operator
``D_f`` of ``f = t^k xi_I``, read off the contact bracket of
:mod:`superkon.grassmann`: ``D_f(g) = {f, g} + 2 d_eps(f) g``, since
``delta g = 2g - sum_i xi_i partial_i g``.  So :func:`apply_d` and the
contact bracket sum the products of
:func:`~superkon.grassmann.contact_core` on the two functions'
:class:`~superkon.grassmann.ContactParts`, plus ``d_eps(f) sum_i xi_i
partial_i g`` where the bracket has ``-d_eps(f) delta(g)``;
:func:`bracket` reads each unit monomial's parts from one memo, so a sweep
over basis pairs differentiates each monomial once.  An
:class:`AlgebraElement` stores its D-part ``sum D_f`` as the
superfunction ``sum f``, next to its function part and its C
coefficient.

Also here: the function-multiplication action on the algebra
(``f . D_g = D_{fg}``), the automorphism sending ``D[t^{k+1}, xi_I]`` to
itself plus its degree times ``t^k xi_I``, the exponent
relabeling between twist vectors that differ by even integers, and the
``(t-1)``-adic filtration with its distinguished ideal and the
projection of the degree-zero subalgebra onto ``C z + so_N``.  Every
Taylor coefficient at ``t = 1`` they read comes from
:func:`tm1_coefficient`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from math import comb, factorial

from .exactnum import (Scalar, TextReader, UsageError, add_term, as_scalar,
                       term_text)
from .grassmann import (EpsilonConfig, SuperFunction, affine_shifts, as_parts,
                        contact_core, members, monomial_parts, partial_sign,
                        parts_shifts, product_sum, xi_mul)


# Negative-control mutations an AlgebraConfig accepts, each with the check
# it is meant to break (the module-side one is in tensmod.MODULE_MUTATIONS).
ALGEBRA_MUTATIONS = {
    "drop_sign_intersection": "check_bracket_crosscheck",
    "double_cocycle": "check_jacobi",
    "drop_phi_coeff": "check_phi",
    "drop_delta_l0": "check_filtration",
}


@dataclass(frozen=True)
class AlgebraConfig:
    cfg: EpsilonConfig
    central_enabled: bool = False
    mutation: str | None = None  # negative control, see ALGEBRA_MUTATIONS

    def __post_init__(self):
        if self.mutation is not None and (not isinstance(self.mutation, str)
                                          or self.mutation not in ALGEBRA_MUTATIONS):
            raise UsageError(f"unknown algebra mutation {self.mutation!r}")
        if self.central_enabled and self.cfg.N > 3:
            raise UsageError(
                f"central extension for N={self.cfg.N} not supported (N <= 3)")

    # The affine form of every ordered mask pair, ``_pair_forms[I][J] =
    # pair_form(self, I, J)``, looked up on first use: bracket_ints reads one
    # per call.  Not a dataclass field, so equality, hash and repr ignore it.
    @cached_property
    def _pair_forms(self) -> tuple:
        return _pair_form_table(self.cfg, self.mutation)


@lru_cache(maxsize=None)
def _pair_form_table(cfg: EpsilonConfig, mutation: str | None) -> tuple:
    """Every :func:`pair_form` of one twist and mutation, built once for all
    the configs that share them (the central term does not enter)."""
    acfg = AlgebraConfig(cfg, mutation=mutation)
    n = 1 << cfg.N
    return tuple(tuple(pair_form(acfg, I, J) for J in range(n)) for I in range(n))


class AlgebraElement:
    """Finite combination of D-symbols, function monomials, and C: the
    D-part ``d`` (``D_f`` stored as the superfunction ``f``), the function
    part ``a`` and the ``central`` coefficient."""

    __slots__ = ("params", "d", "a", "central")

    def __init__(self, params, d=None, a=None, central=None):
        self.params = tuple(params)
        self.d = d if d is not None else SuperFunction.zero(params)
        self.a = a if a is not None else SuperFunction.zero(params)
        self.central = central if central is not None else Scalar.zero(params)

    # -- constructors ------------------------------------------------
    @classmethod
    def zero(cls, params):
        return cls(params)

    @classmethod
    def d_symbol(cls, params, k: int, imask: int, coeff=1):
        return cls(params, d=SuperFunction.monomial(params, k, imask, coeff))

    @classmethod
    def a_monomial(cls, params, k: int, imask: int, coeff=1):
        return cls(params, a=SuperFunction.monomial(params, k, imask, coeff))

    @classmethod
    def central_element(cls, params, coeff=1):
        return cls(params, central=as_scalar(params, coeff))

    # -- linear structure ---------------------------------------------
    def __add__(self, other: "AlgebraElement"):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement(self.params, self.d + other.d, self.a + other.a,
                              self.central + other.central)

    def __neg__(self):
        return AlgebraElement(self.params, -self.d, -self.a, -self.central)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff) -> "AlgebraElement":
        coeff = as_scalar(self.params, coeff)
        return AlgebraElement(self.params, self.d.scale(coeff),
                              self.a.scale(coeff), self.central * coeff)

    def is_zero(self) -> bool:
        return not (self.d or self.a or self.central)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return ((self.params, self.d, self.a, self.central)
                == (other.params, other.d, other.a, other.central))

    def has_central(self) -> bool:
        return bool(self.central)

    # -- text form -------------------------------------------------------
    def __str__(self):
        parts = [term_text(f.terms[key], _symbol_text(kind, key))
                 for kind, f in (("D", self.d), ("A", self.a))
                 for key in sorted(f.terms)]
        if self.central:
            cs = str(self.central)
            parts.append("C" if cs == "1" else f"({cs})*C")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"AlgebraElement({self!s})"

    @classmethod
    def parse(cls, params, text: str) -> "AlgebraElement":
        """Inverse of ``str``: a ``sum`` whose products carry the symbols
        ``D[t^k,xi{..}]``, ``A[t^k,xi{..}]`` or ``C`` (grammar in
        :mod:`superkon.exactnum`)."""
        r = TextReader(text, params)
        out = cls.zero(params)
        for c, sym in r.done(r.terms(_read_symbol)):
            if sym == "C":
                out = out + cls.central_element(params, c)
            elif sym:
                kind, (k, imask) = sym
                make = cls.d_symbol if kind == "D" else cls.a_monomial
                out = out + make(params, k, imask, c)
            elif c:
                raise UsageError(f"term {c} of {text!r} has no basis symbol")
        return out


def _symbol_text(kind: str, key) -> str:
    k, imask = key
    return f"{kind}[t^{k}" + (
        ",xi{" + ",".join(map(str, members(imask))) + "}]" if imask else "]")


def _read_symbol(r: TextReader):
    """The basis-symbol hook of :meth:`AlgebraElement.parse`."""
    kind = r.accept("D", "A", "C")
    if kind in ("D", "A"):
        r.expect("[")
        key = r.monomial()
        r.expect("]")
        return kind, key
    return kind


# ---------------------------------------------------------------------------
# structure constants


def pair_form(acfg: AlgebraConfig, Im: int, Jm: int):
    """The D-part of the bracket of ``D[t^p, xi_I]`` and ``D[t^q, xi_J]`` as
    one affine form: ``(c0, cp, cq, shift, rI)`` with ``coeff2 = c0 + cp p +
    cq q`` landing on ``D[t^(p+q+shift), xi_rI]``, or None when the D-part
    is zero for every ``p, q`` (see the module docstring for the formula)."""
    cfg = acfg.cfg
    inter = Im & Jm
    if inter == 0:
        nI, nJ = Im.bit_count(), Jm.bit_count()
        sign, union = xi_mul(Im, Jm)
        # (2-|I|)(2q - eps(J)) - (2-|J|)(2p - eps(I)), times the sign
        form = (sign * ((2 - nJ) * cfg.eps_sum(Im) - (2 - nI) * cfg.eps_sum(Jm)),
                -2 * sign * (2 - nJ), 2 * sign * (2 - nI), -1, union)
        return form if any(form[:3]) else None
    if inter.bit_count() == 1:
        i = inter.bit_length()  # single bit -> its 1-based index
        sign, rest = xi_mul(Im & ~inter, Jm & ~inter)
        s = partial_sign(i, Im) * partial_sign(i, Jm) * sign
        if (Im.bit_count() & 1) and acfg.mutation != "drop_sign_intersection":
            s = -s
        return 2 * s, 0, 0, -cfg.eps[i - 1], rest
    return None


def bracket_ints(acfg: AlgebraConfig, p: int, Im: int, q: int, Jm: int):
    """Fast integer core of the basis bracket.

    Returns ``(coeff2, rk, rI, cen12)``: the D-part is
    ``(coeff2/2) * D[t^rk, xi_rI]`` (``coeff2 = 0``, ``rk = rI = 0`` for
    none) and the central part is ``(cen12/12) * C``.  The D-part is read
    off the mask pair's affine form (:func:`pair_form`, all of them built
    once per config), so ``coeff2`` is affine in ``(p, q)`` and ``rk = p +
    q + shift``; the central part is computed here.
    """
    coeff2 = rk = rI = 0
    form = acfg._pair_forms[Im][Jm]
    if form is not None:
        c0, cp, cq, shift, rI = form
        coeff2 = c0 + cp * p + cq * q
        if coeff2:
            rk = p + q + shift
        else:
            rI = 0
    cen12 = 0
    if acfg.central_enabled and Im == Jm:
        cfg = acfg.cfg
        d = cfg.degree(p, Im)
        if d + cfg.degree(q, Jm) == 0:
            # Cocycle values by xi-size, in the degree d of the first
            # symbol.  The two- and three-xi values carry a minus sign:
            # with the structure constants above that is the unique choice
            # closing the Jacobi identity (checked against the standard
            # N=2 super-Virasoro relations).
            nI = Im.bit_count()
            if nI == 0:
                cen12 = d * (d * d - 4) // 2
            elif nI == 1:
                cen12 = d * d - 1
            elif nI == 2:
                cen12 = -2 * d
            elif nI == 3:
                cen12 = -4
            if acfg.mutation == "double_cocycle" and nI == 0:
                # doubling only the plain-series component breaks the
                # cocycle condition (a uniform rescaling would not)
                cen12 *= 2
    return coeff2, rk, rI, cen12


def bracket_columns(eps, k_min: int, k_max: int):
    """Exponent range ``(lo, hi)`` of :func:`bracket_table`'s columns: the
    window and every ``p + q - 1`` or ``p + q - eps_i`` of two window ones."""
    return (min(k_min, 2 * k_min - max(1, *eps)),
            max(k_max, 2 * k_max - min(1, *eps)))


def bracket_table(acfg: AlgebraConfig, k_min: int, k_max: int, block: bool = False):
    """``(lo, rows)`` with ``rows[(p - k_min) * 2**N + I][(q - lo) * 2**N + J]
    = (c2, col, cen12)`` for ``p`` in the window and ``q`` in
    :func:`bracket_columns`, read off ``(c2, rk, rI, cen12) =
    bracket_ints(acfg, p, I, q, J)``, which is computed once per entry.
    ``col = (rk - lo) * 2**N + rI`` is the column of the result symbol,
    ``None`` when ``c2 == 0``; it decodes as ``rk = lo + (col >> N)``, ``rI =
    col & (2**N - 1)``.  The result's mask is always ``I ^ J`` (the union of
    disjoint masks, or of two masks sharing one xi with that xi removed) and
    its exponent is fixed by the additive degree, so every bracket of one
    basis triple lands on one column.  Equal entries share one tuple, so an
    entry costs about one reference.  With ``block`` the rows hold only the
    window's columns, ``q - k_min`` in place of ``q - lo`` (``col`` is
    still counted from ``lo``): the pair sweeps read no result column."""
    lo, hi = bracket_columns(acfg.cfg.eps, k_min, k_max)
    N = acfg.cfg.N
    n = 1 << N
    qs = range(k_min, k_max + 1) if block else range(lo, hi + 1)
    canon: dict = {}
    rows = []
    for p in range(k_min, k_max + 1):
        for I in range(n):
            row = []
            for q in qs:
                for J in range(n):
                    c2, rk, rI, cen12 = bracket_ints(acfg, p, I, q, J)
                    e = (c2, ((rk - lo) << N) + rI if c2 else None, cen12)
                    row.append(canon.setdefault(e, e))
            rows.append(row)
    return lo, rows


def bracket_table_is_polynomial(acfg: AlgebraConfig, k_min: int, lo: int,
                                rows) -> bool:
    """Whether the :func:`bracket_table` ``(lo, rows)`` of a window from
    ``k_min`` (the full table, or its window block when square) is
    polynomial, in one pass: for each mask pair ``(I, J)``, ``c2`` is affine
    in ``(p, q)`` (zero row, column and mixed second differences), a nonzero
    ``c2`` lands on mask ``I ^ J`` at exponent ``p + q + shift_sum(I & J) -
    1`` (degrees add) and a nonzero ``cen12`` only at total degree 0; on the
    window x window block ``entry(y, x) = -(-1)^{|x||y|} entry(x, y)``, and
    an entry there with ``c2 != 0`` lands in :func:`bracket_columns` (for
    the full table: inside the row, so reading its result column needs no
    range check)."""
    cfg = acfg.cfg
    N = cfg.N
    n = 1 << N
    width, ncols = len(rows) >> N, len(rows[0]) >> N
    # the exponent of the first column: a square table is the window block
    # (or a full table whose columns are the window, where both agree)
    q0 = k_min if ncols == width else lo
    # how many result exponents from lo an entry may land on
    land = bracket_columns(cfg.eps, k_min, k_min + width - 1)[1] - lo + 1
    window = range(k_min - q0, k_min - q0 + width)  # the window's columns
    for I in range(n):
        block = rows[I::n]
        for J in range(n):
            grid = [row[J::n] for row in block]  # grid[p - k_min][q - q0]
            c00 = grid[0][0][0]
            dq = grid[0][1][0] - c00 if ncols > 1 else 0
            dp = grid[1][0][0] - c00 if width > 1 else 0
            col0 = k_min + q0 - lo + cfg.shift_sum(I & J) - 1  # (rk - lo) at p, q = k_min, q0
            twice = 4 - cfg.shift_sum(I) - cfg.shift_sum(J) - 2 * (k_min + q0)
            diag = None if twice & 1 else twice >> 1  # (p - k_min) + (q - q0) at degree 0
            for a, got in enumerate(grid):
                c = c00 + a * dp
                line = range(c, c + ncols * dq, dq) if dq else [c] * ncols
                want = [(c2, ((col0 + a + b) << N) + (I ^ J) if c2 else None, 0)
                        for b, c2 in enumerate(line)]
                if diag is not None and 0 <= diag - a < ncols:
                    b = diag - a
                    want[b] = want[b][:2] + got[b][2:]
                first = col0 + a + window.start  # result exponent index at q = k_min
                if got != want or ((first < 0 or first + width > land) and any(
                        line[b] for b in window if not 0 <= col0 + a + b < land)):
                    return False
    off = window.start << N
    odd = [(i & (n - 1)).bit_count() & 1 for i in range(len(rows))]
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            c2, col, cen12 = row[off + j]
            if not (odd[i] and odd[j]):
                c2, cen12 = -c2, -cen12
            if rows[j][off + i] != (c2, col, cen12):
                return False
    return True


def jacobi_filter(table, par, off: int, i: int, j: int, k: int) -> bool:
    """The filter of :func:`~superkon.verify.check_jacobi` on the window
    symbols ``i, j, k`` (in any order), read from the rows ``table`` of a
    :func:`bracket_table` whose window starts at column ``off``, with
    ``par`` the symbols' parities: it sums [i,[j,k]], [j,[k,i]] and
    [k,[i,j]] (sign -1 when the outer symbol and the last inner one are
    both odd) as the D-residual ``d`` and the central part ``cen``, and
    flags the triple when either is nonzero.  It reads only tables that
    :func:`bracket_table_is_polynomial` passed: graded, results in the row."""
    row_i, row_j, row_k = table[i], table[j], table[k]
    pi, pj, pk = par[i], par[j], par[k]
    d = cen = 0
    c2, col, _ = row_j[k + off]
    if c2:
        c3, _, cen = row_i[col]
        if pi and pk:
            c2 = -c2
        d = c2 * c3
        cen *= c2
    c2, col, _ = row_k[i + off]
    if c2:
        c3, _, cen12 = row_j[col]
        if pj and pi:
            c2 = -c2
        d += c2 * c3
        cen += c2 * cen12
    c2, col, _ = row_i[j + off]
    if c2:
        c3, _, cen12 = row_k[col]
        if pk and pj:
            c2 = -c2
        d += c2 * c3
        cen += c2 * cen12
    return bool(d or cen)


def jacobi_flags(acfg: AlgebraConfig, k_min: int, lo: int, rows):
    """The mask multisets ``(I, J, K)``, ``I <= J <= K``, whose window
    triples :func:`~superkon.verify.check_jacobi` hands to its reference,
    read from the :func:`bracket_table` ``(lo, rows)`` of a window from
    ``k_min``: ``None`` (all of them) when the table is not polynomial
    (:func:`bracket_table_is_polynomial`), else those of the triples that
    :func:`jacobi_filter` flags among the exponent offsets ``a + b + c <=
    2`` from ``k_min`` inside the window (10 per multiset, 7 on a window of
    2 exponents and 1 on a window of 1) and, with the central term, the
    window triples of total degree 0 (see
    :func:`~superkon.verify.check_jacobi` for why nothing else can be
    flagged)."""
    if not bracket_table_is_polynomial(acfg, k_min, lo, rows):
        return None
    N = acfg.cfg.N
    n = 1 << N
    total = len(rows)
    masks = [i & (n - 1) for i in range(total)]
    par = [m.bit_count() & 1 for m in masks]
    off = (k_min - lo) << N
    # exponent offsets from k_min: the points a + b + c <= 2 in the window
    lattice = [t for t in product(range(min(3, total >> N)), repeat=3)
               if sum(t) <= 2]
    flagged = {m for m in combinations_with_replacement(range(n), 3)
               if any(jacobi_filter(rows, par, off, (a << N) | m[0],
                                    (b << N) | m[1], (c << N) | m[2])
                      for a, b, c in lattice)}
    if acfg.central_enabled:
        degs = [acfg.cfg.degree(k_min + (i >> N), masks[i]) for i in range(total)]
        by_degree: dict = {}
        for k, dk in enumerate(degs):
            by_degree.setdefault(dk, []).append(k)
        flagged.update(tuple(sorted((masks[i], masks[j], masks[k])))
                       for i in range(total) for j in range(i, total)
                       for k in by_degree.get(-degs[i] - degs[j], ())
                       if k >= j and jacobi_filter(rows, par, off, i, j, k))
    return flagged


def bracket_is_polynomial(acfg: AlgebraConfig, params, rows: range, parts: range):
    """The exponents the brackets of basis elements land on, as a range,
    when each such bracket is, per pair of kinds and masks and at each key
    shifted by the two exponents, a polynomial of degree at most 1 in each:
    the central term is off, the :func:`bracket_table` of the D-symbols with
    exponents in ``rows`` passes :func:`bracket_table_is_polynomial`, and
    the monomial parts with exponents in ``parts`` (which holds ``rows``)
    are affine (:func:`~superkon.grassmann.parts_shifts`).  None
    otherwise."""
    if acfg.central_enabled:
        return None
    lo, table = bracket_table(acfg, rows.start, rows.stop - 1, block=True)
    if not bracket_table_is_polynomial(acfg, rows.start, lo, table):
        return None
    hi = bracket_columns(acfg.cfg.eps, rows.start, rows.stop - 1)[1]
    del table  # before the parts, which the monomial_parts memo keeps
    shifts = parts_shifts(acfg.cfg, tuple(params), parts)
    if shifts is None:
        return None
    # a D x function term lands on the sum of two parts' keys
    return range(min(lo, 2 * (parts.start + shifts[0])),
                 max(hi, 2 * (parts.stop - 1 + shifts[1])) + 1)


def homomorphism_is_polynomial(src: AlgebraConfig, dst: AlgebraConfig, f,
                               params, ks: range) -> bool:
    """Whether both sides of ``f([x, y]_src) == [f(x), f(y)]_dst``, for basis
    elements ``x, y`` with exponents in ``ks`` and a linear map ``f``, are
    per class (two kinds and masks) and at each key shifted by the two
    exponents polynomials of degree at most 2 in each exponent.  They are
    when both brackets are polynomial on what they read
    (:func:`bracket_is_polynomial`: ``ks`` for ``src``, the exponents of the
    images of the window's basis elements for ``dst``) and ``f`` sends each
    D-symbol and function monomial with an exponent ``e`` that a ``src``
    bracket lands on to terms, without C, whose coefficients are affine in
    ``e`` at keys that shift with it
    (:func:`~superkon.grassmann.affine_shifts`): a bracket term has degree at
    most 1 in each exponent, and ``f`` multiplies it by one affine factor."""
    reach = bracket_is_polynomial(src, params, ks, ks)
    if reach is None:
        return False
    zero = Scalar.zero(params)
    d_exps, exps = [ks.start, ks.stop - 1], []  # of the images of window symbols
    for make in (AlgebraElement.d_symbol, AlgebraElement.a_monomial):
        for imask in range(1 << src.cfg.N):
            ys = [f(make(params, e, imask)) for e in reach]
            if any(y.central for y in ys) or any(
                    affine_shifts(lines, reach.start, zero) is None
                    for lines in ([y.d.terms.items() for y in ys],
                                  [y.a.terms.items() for y in ys])):
                return False
            for y in ys[ks.start - reach.start:ks.stop - reach.start]:
                d_exps += [k for k, _ in y.d.terms]
                exps += [k for k, _ in y.a.terms]
    exps += d_exps
    rows, parts = range(min(d_exps), max(d_exps) + 1), range(min(exps), max(exps) + 1)
    if dst == src and rows == ks:  # the table is the one checked above
        return parts_shifts(dst.cfg, tuple(params), parts) is not None
    return bracket_is_polynomial(dst, params, rows, parts) is not None


def grid_sweep(keys, pairs, compare, degree: int, polynomial: bool) -> list:
    """The results of ``compare(i, j)`` other than None, in the order of
    ``pairs()``, on the pairs a pair sweep must compare.  A pair's class is
    ``(keys[i], keys[j])``, and the symbols of one key are listed in
    exponent order.  That is every pair, unless ``polynomial`` says that on
    each class the compared coefficients are polynomials of degree at most
    ``degree`` in each of the two exponents, and every key has more than
    ``degree`` symbols.  Then ``compare`` runs first on the ``(degree +
    1)^2`` pairs of each class that occurs, from the first ``degree + 1``
    symbols of each key, and then on all the pairs of the classes it flags
    there: a polynomial of degree at most ``degree`` in each variable that
    vanishes on such a grid is zero (the grid case of Alon's Combinatorial
    Nullstellensatz, Combin. Probab. Comput. 8, 1999)."""
    firsts: dict = {}
    for i, key in enumerate(keys):
        firsts.setdefault(key, []).append(i)
    flagged = None  # every class
    if polynomial and all(len(v) > degree for v in firsts.values()):
        grid = {key: v[:degree + 1] for key, v in firsts.items()}
        flagged = {c for c in dict.fromkeys((keys[i], keys[j]) for i, j in pairs())
                   if any(compare(i, j) is not None
                          for i in grid[c[0]] for j in grid[c[1]])}
    out = []
    for i, j in pairs():
        if flagged is None or (keys[i], keys[j]) in flagged:
            v = compare(i, j)
            if v is not None:
                out.append(v)
    return out


def bracket_basis(acfg: AlgebraConfig, x, y, params=()) -> AlgebraElement:
    """Bracket of two D-basis symbols given by (stored exponent, mask)."""
    (p, Im), (q, Jm) = x, y
    coeff2, rk, rI, cen12 = bracket_ints(acfg, p, Im, q, Jm)
    return AlgebraElement(
        params,
        SuperFunction.monomial(params, rk, rI, Fraction(coeff2, 2)) if coeff2 else None,
        central=Scalar.const(params, Fraction(cen12, 12)) if cen12 else None)


def apply_d(cfg: EpsilonConfig, f, g) -> SuperFunction:
    """Apply the differential operator attached to the function ``f``:
    ``D_f(g) = {f, g} + 2 d_eps(f) g``.  With ``delta g = 2g - sum_i xi_i
    partial_i g`` that is ``contact_core(f, g) + d_eps(f) sum_i xi_i
    partial_i g``, summed into one dict.  ``f`` and ``g`` are
    superfunctions or their :class:`~superkon.grassmann.ContactParts`, so a
    caller that passes parts differentiates nothing here."""
    f, g = as_parts(cfg, f), as_parts(cfg, g)
    return product_sum(f.params, contact_core(f, g) + [(1, f.d_eps, g.xi_degree)])


def bracket(acfg: AlgebraConfig, x: AlgebraElement,
            y: AlgebraElement) -> AlgebraElement:
    """Full bilinear bracket on the extended algebra.

    D x D via the structure constants (plus central term), D x function
    via the operator action, function x function = 0, C central.  Terms
    are summed into plain dicts and one Scalar, and one element is built at
    the end.  A D x D term is read straight off :func:`bracket_ints`; a D x
    function term is ``apply_d`` on the two unit monomials' memoised parts
    (:func:`~superkon.grassmann.monomial_parts`; parts, not results, are
    kept) times the two coefficients.
    """
    params = x.params
    cfg = acfg.cfg
    d: dict = {}
    a: dict = {}
    central = Scalar.zero(params)
    for (p, Im), cx in x.d.terms.items():
        for (q, Jm), cy in y.d.terms.items():
            coeff2, rk, rI, cen12 = bracket_ints(acfg, p, Im, q, Jm)
            if coeff2 or cen12:
                c = cx * cy
                if coeff2:
                    add_term(d, (rk, rI), c.scale_raw(coeff2, 0, 2))
                if cen12:
                    central = central + c.scale_raw(cen12, 0, 12)
    for u, v, swapped in ((x, y, False), (y, x, True)):
        for (p, Im), cu in u.d.terms.items():
            f = monomial_parts(cfg, params, p, Im)
            for (k, Jm), cv in v.a.terms.items():
                c = cu * cv
                # [g, D_f] = -(-1)^{|g||f|} D_f(g)
                if swapped and not (Im.bit_count() & Jm.bit_count() & 1):
                    c = -c
                res = apply_d(cfg, f, monomial_parts(cfg, params, k, Jm))
                for key, r in res.terms.items():
                    add_term(a, key, r * c)
    return AlgebraElement(params, SuperFunction(params, d),
                          SuperFunction(params, a), central)


def a_action(f: SuperFunction, x: AlgebraElement) -> AlgebraElement:
    """Multiplication action of a function on the algebra:
    ``f . D_g = D_{fg}`` (and plain multiplication on the function part)."""
    if x.has_central():
        raise UsageError("function action is undefined on the central element")
    return AlgebraElement(x.params, f * x.d, f * x.a)


def phi(acfg: AlgebraConfig, x: AlgebraElement) -> AlgebraElement:
    """The automorphism ``D[t^{k+1}, xi_I] -> D[t^{k+1}, xi_I] + n t^k
    xi_I`` with ``n`` the symbol's degree (:meth:`EpsilonConfig.degree`),
    identity on functions."""
    if x.has_central():
        raise UsageError("phi is defined on the extension without C")
    cfg = acfg.cfg
    a = dict(x.a.terms)
    for (p, Im), c in x.d.terms.items():
        n = cfg.degree(p, Im)
        if acfg.mutation == "drop_phi_coeff":
            n -= cfg.shift_sum(Im)
        if n:
            add_term(a, (p - 1, Im), c.scale_raw(n, 0))
    return AlgebraElement(x.params, x.d, SuperFunction(x.params, a))


def eps_shift_map(src: EpsilonConfig, dst: EpsilonConfig,
                  x: AlgebraElement) -> AlgebraElement:
    """Basis relabeling between twist vectors with even difference:
    ``D[t^k, xi_I] -> D[t^{k + sum_{i in I}(eps'_i - eps_i)/2}, xi_I]``
    for ``eps = src.eps`` and ``eps' = dst.eps``, which keeps the degree
    (and likewise on function monomials)."""
    if src.N != dst.N:
        raise UsageError("twist vectors must have the same length")
    if any((e - f) % 2 for e, f in zip(src.eps, dst.eps)):
        raise UsageError("twist difference must be even componentwise")

    def relabel(f: SuperFunction) -> SuperFunction:
        return SuperFunction(f.params, {
            (k + (dst.eps_sum(Im) - src.eps_sum(Im)) // 2, Im): c
            for (k, Im), c in f.terms.items()})

    return AlgebraElement(x.params, relabel(x.d), relabel(x.a), x.central)


# ---------------------------------------------------------------------------
# (t-1)-adic filtration


def tm1_power_d(params, e: int, i: int, imask: int) -> AlgebraElement:
    """The element ``D[(t-1)^e t^i, xi_I]`` expanded in the D-basis."""
    if e < 0:
        raise UsageError("power of (t-1) must be nonnegative")
    return AlgebraElement(params, SuperFunction(params, {
        (i + j, imask): Scalar.const(params, (-1) ** (e - j) * comb(e, j))
        for j in range(e + 1)}))


def filtration_exponent(ell: int, size: int, mutation: str | None = None) -> int:
    """Required (t-1) valuation of the xi-size ``size`` component of the
    level-``ell`` filtration piece: ``max(ell + 1 - floor((size + [ell=0])/3), 0)``."""
    d = 1 if (ell == 0 and mutation != "drop_delta_l0") else 0
    return max(ell + 1 - (size + d) // 3, 0)


def component_polys(x: AlgebraElement) -> dict:
    """Split the D-part by xi-mask: mask -> {t-exponent: Scalar}."""
    out: dict = {}
    for (k, Im), c in x.d.terms.items():
        out.setdefault(Im, {})[k] = c
    return out


def tm1_coefficient(poly: dict, j: int, params) -> Scalar:
    """Coefficient of ``(t-1)^j`` in the Taylor expansion at ``t = 1`` of
    the Laurent polynomial ``poly`` (t-exponent -> Scalar):
    ``sum_k binom(k, j) c_k``, from ``t^k = (1 + (t-1))^k``.  The binomial
    is the polynomial ``k (k-1) ... (k-j+1) / j!`` in ``k``, so negative
    exponents work (``t^-1`` gives ``(-1)^j``)."""
    total = Scalar.zero(params)
    for k, c in poly.items():
        falling = 1
        for r in range(j):
            falling *= k - r
        if falling:
            total = total + c.scale_raw(falling // factorial(j), 0)
    return total


def k_ell_valuation(x: AlgebraElement) -> dict:
    """Per xi-mask (t-1)-adic valuation of the D-part coefficients: mask ->
    the least ``j`` with a nonzero :func:`tm1_coefficient`.  A component
    ``p`` is nonzero and ``t^(-min) p`` is a polynomial of degree ``max -
    min`` (t is a unit at t = 1), so ``j <= max - min``."""
    return {Im: next(j for j in range(max(poly) - min(poly) + 1)
                     if tm1_coefficient(poly, j, x.params))
            for Im, poly in component_polys(x).items()}


def ideal_exponent(size: int) -> int:
    """Required (t-1) valuation of the xi-size ``size`` component of the
    distinguished ideal of the degree-zero subalgebra: 2 on the plain
    component, 1 for one or two xi factors, 0 beyond."""
    return {0: 2, 1: 1, 2: 1}.get(size, 0)


def _valuations_reach(x: AlgebraElement, exponent) -> bool:
    """Whether every component of ``x`` has (t-1) valuation at least
    ``exponent(xi-size)``."""
    return all(v >= exponent(Im.bit_count())
               for Im, v in k_ell_valuation(x).items())


def in_k_ell(acfg: AlgebraConfig, x: AlgebraElement, ell: int) -> bool:
    """Membership in the level-``ell`` filtration piece."""
    return _valuations_reach(
        x, lambda size: filtration_exponent(ell, size, acfg.mutation))


def in_ideal_i(x: AlgebraElement) -> bool:
    """Membership in the distinguished ideal (see :func:`ideal_exponent`)."""
    return _valuations_reach(x, ideal_exponent)


def project_k0(acfg: AlgebraConfig, x: AlgebraElement):
    """Image of a degree-zero-subalgebra element in ``C z + so_N``.

    ``D[t] - D[1] -> z`` and ``D[t, xi_i xi_j] -> E_ji - E_ij``; the
    kernel is the distinguished ideal.  Returns ``(z_coeff, matrix)``
    with an antisymmetric N x N Scalar matrix.
    """
    if not in_k_ell(acfg, x, 0):
        raise UsageError("element is not in the degree-zero subalgebra")
    params = x.params
    N = acfg.cfg.N
    z = Scalar.zero(params)
    mat = [[Scalar.zero(params) for _ in range(N)] for _ in range(N)]
    for Im, poly in component_polys(x).items():
        n = Im.bit_count()
        if n == 0:
            z = z + tm1_coefficient(poly, 1, params)
        elif n == 2:
            val = tm1_coefficient(poly, 0, params)
            i, j = members(Im)
            mat[j - 1][i - 1] = mat[j - 1][i - 1] + val
            mat[i - 1][j - 1] = mat[i - 1][j - 1] - val
    return z, mat
