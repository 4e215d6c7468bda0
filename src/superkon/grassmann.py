"""Grassmann combinatorics and the contact bracket on Laurent superfunctions.

The underlying associative superalgebra has even generator ``t`` (invertible)
and odd generators ``xi_1..xi_N`` with ``xi_i xi_j = -xi_j xi_i``.  A
monomial is ``t^k xi_I`` for an integer ``k`` and an index subset ``I``,
stored as a bitmask (bit ``i-1`` set  <=>  ``i in I``).  All signs are
routed through the inverse-order count :func:`tau`, the single source of
truth for orientation conventions (``xi_I`` is always written with
ascending indices).

On top of the plain product this module provides the odd derivations
``partial_i``, the degree-style operator :func:`delta`
(``f -> 2f - sum_i xi_i partial_i f``), the twisted derivative
:func:`d_eps` (``partial_t - (1/2) t^{-1} sum_i eps_i xi_i partial_i``)
and the contact bracket built from them.  A superfunction
(:class:`SuperFunction`) is a :class:`~superkon.exactnum.Terms` over the
monomial keys ``(k, imask)``.

What the contact bracket reads from one superfunction (``delta f``,
``d_eps f``, ``sum_i xi_i partial_i f`` and each ``partial_i f``, plain
and signed) is its :class:`ContactParts`, computed once;
:func:`contact_core` lists the products of two functions' parts that the
bracket shares with the operator ``D_f``, and :func:`product_sum`, which
is also the plain product, sums them into one dict.  :func:`monomial_parts`
memoises the parts of each unit monomial, like :func:`tau`, :func:`xi_mul`
and :func:`partial_sign`: a sweep over basis pairs meets each monomial
once per partner.  It keeps parts, not results: a sweep meets many more
distinct pairs than monomials, and each pair only a few times.
An exponent may be a formal :class:`~superkon.exactnum.Scalar` as well as
an int: the pair sweeps of :mod:`superkon.verify` compare each class of
pairs once on formal exponents, and the derivatives branch on an
exponent-valued factor only to drop a term that is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .exactnum import Terms, TextReader, UsageError, add_term, as_scalar


# ---------------------------------------------------------------------------
# index-set helpers (bitmask representation)

def iset(*indices: int) -> int:
    """Bitmask for the subset {i1, i2, ...} of 1..N."""
    m = 0
    for i in indices:
        if i < 1:
            raise UsageError(f"index {i} out of range (must be >= 1)")
        m |= 1 << (i - 1)
    return m


def members(mask: int) -> tuple:
    """Ascending tuple of indices in the mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@lru_cache(maxsize=None)
def tau(Imask: int, Jmask: int) -> int:
    """Inverse-order count of sorted(I) followed by sorted(J).

    Counts pairs ``i in I, j in J`` with ``i > j``; the sets must be
    disjoint.
    """
    if Imask & Jmask:
        raise UsageError("tau requires disjoint index sets")
    inv = 0
    for j in members(Jmask):
        inv += (Imask >> j).bit_count()
    return inv


@lru_cache(maxsize=None)
def xi_mul(Imask: int, Jmask: int):
    """Product ``xi_I xi_J``: ``None`` when a generator repeats, else
    ``(sign, union)`` with ``sign = (-1)^tau(I, J)``."""
    if Imask & Jmask:
        return None
    return (-1 if tau(Imask, Jmask) & 1 else 1, Imask | Jmask)


@lru_cache(maxsize=None)
def partial_sign(i: int, Imask: int) -> int:
    """Sign of ``partial_i`` on ``xi_I``: 0 if absent, else
    ``(-1)^(number of indices of I below i)``."""
    bit = 1 << (i - 1)
    if not (Imask & bit):
        return 0
    below = (Imask & (bit - 1)).bit_count()
    return -1 if below & 1 else 1


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsilonConfig:
    """The integer twist vector ``eps`` of length N.

    Module-level constructions additionally require ``eps`` to be a
    0/1 vector; the algebra itself accepts any integers.
    """

    N: int
    eps: tuple = field(default=None)

    def __post_init__(self):
        if type(self.N) is not int or self.N < 1:
            raise UsageError(f"N must be a positive integer, got {self.N!r}")
        eps = (0,) * self.N if self.eps is None else tuple(self.eps)
        if any(type(e) is not int for e in eps):
            raise UsageError(f"eps entries must be integers, got {eps!r}")
        if len(eps) != self.N:
            raise UsageError(f"eps must have length N={self.N}, got {eps}")
        object.__setattr__(self, "eps", eps)

    # The two sums over every mask, each one tuple indexed by mask, built on
    # first use: the bracket reads them once per basis pair.  They are not
    # dataclass fields, so equality, hash and repr see only N and eps.
    @cached_property
    def _eps_sums(self) -> tuple:
        sums = [0]
        for e in self.eps:  # the masks with bit i set follow those without
            sums += [s + e for s in sums]
        return tuple(sums)

    @cached_property
    def _shift_sums(self) -> tuple:
        return tuple(m.bit_count() - s for m, s in enumerate(self._eps_sums))

    def eps_sum(self, mask: int) -> int:
        """sum of eps_i over i in the mask."""
        return self._eps_sums[mask]

    def shift_sum(self, mask: int) -> int:
        """sum of (1 - eps_i) over i in the mask."""
        return self._shift_sums[mask]

    def degree(self, p: int, mask: int) -> int:
        """The degree ``2(p-1) + sum_{i in I}(1 - eps_i)`` of the symbol
        ``D[t^p, xi_I]`` (stored exponent ``p``).  The bracket of two
        symbols has the sum of their degrees (its central term fires only
        in total degree 0), a D-symbol moves module weights by its degree,
        and the function monomial ``t^k xi_I`` by that of ``D[t^{k+1},
        xi_I]``."""
        return 2 * (p - 1) + self._shift_sums[mask]

    @property
    def is_ramond(self) -> bool:
        return all(e == 1 for e in self.eps)

    @property
    def is_zero_one(self) -> bool:
        return all(e in (0, 1) for e in self.eps)


# ---------------------------------------------------------------------------


def times(c, n, den: int = 1):
    """The Scalar ``c * n / den`` for an int or a Scalar ``n``: the factor
    an exponent gives, which is a Scalar when the exponents are formal."""
    if type(n) is int:
        return c.scale_raw(n, 0, den)
    return (c * n).scale_raw(1, 0, den)


class SuperFunction(Terms):
    """Finite linear combination of monomials ``t^k xi_I`` with Scalar
    coefficients, keyed by ``(k, imask)``."""

    __slots__ = ()

    # -- constructors ----------------------------------------------
    @classmethod
    def monomial(cls, params, k: int, imask: int, coeff=1) -> "SuperFunction":
        return cls(params, {(k, imask): as_scalar(params, coeff)})

    @classmethod
    def zero(cls, params) -> "SuperFunction":
        return cls(params, {})

    @classmethod
    def one(cls, params) -> "SuperFunction":
        return cls.monomial(params, 0, 0)

    # -- products ---------------------------------------------------------
    def __mul__(self, other):
        """Product in the superalgebra (see :func:`product_sum`)."""
        if isinstance(other, SuperFunction):
            return product_sum(self.params,
                               ((1, self.terms.items(), other.terms.items()),))
        return self.scale(other)

    def __rmul__(self, other):
        # scalars are even: left and right scaling agree
        return self.scale(other)

    # -- hashing ----------------------------------------------------------
    def __hash__(self):
        return hash((self.params, frozenset((k, str(c)) for k, c in self.terms.items())))

    # -- derivations ----------------------------------------------------
    def partial(self, i: int) -> "SuperFunction":
        """Odd derivation ``partial_i`` (left convention); zero for an
        index above every odd variable of the function."""
        if i < 1:
            raise UsageError(f"derivation index {i} out of range")
        out = {}
        for (k, I), c in self.terms.items():
            s = partial_sign(i, I)
            if s:
                add_term(out, (k, I & ~(1 << (i - 1))), c if s > 0 else -c)
        return SuperFunction(self.params, out)

    def _by_xi_size(self, a: int, b: int) -> "SuperFunction":
        """Multiply each ``t^k xi_I`` by ``a + b |I|``."""
        out = {}
        for (k, I), c in self.terms.items():
            f = a + b * I.bit_count()
            if f:
                out[(k, I)] = c.scale_raw(f, 0)
        return SuperFunction(self.params, out)

    def delta(self) -> "SuperFunction":
        """``2f - sum_i xi_i partial_i(f)``; multiplies ``t^k xi_I`` by
        ``2 - |I|``."""
        return self._by_xi_size(2, -1)

    def xi_degree(self) -> "SuperFunction":
        """``sum_i xi_i partial_i(f)``; multiplies ``t^k xi_I`` by ``|I|``."""
        return self._by_xi_size(0, 1)

    def d_eps(self, cfg: EpsilonConfig) -> "SuperFunction":
        """``partial_t - (1/2) t^{-1} sum_i eps_i xi_i partial_i`` applied
        to self; on a monomial this is ``(k - (1/2) sum_{i in I} eps_i)
        t^{k-1} xi_I``."""
        out = {}
        for (k, I), c in self.terms.items():
            num = 2 * k - cfg.eps_sum(I)
            if num:
                add_term(out, (k - 1, I), times(c, num, 2))
        return SuperFunction(self.params, out)

    # -- text form --------------------------------------------------------
    def _key_text(self, key) -> str:
        return format_monomial(*key)


def format_monomial(k: int, imask: int) -> str:
    """Monomial text form, e.g. ``t^2 xi{1,3}``, ``t^-1``, ``1``."""
    tp = f"t^{k}" if k else ""
    xp = "xi{" + ",".join(str(i) for i in members(imask)) + "}" if imask else ""
    if tp and xp:
        return f"{tp} {xp}"
    return tp or xp or "1"


def parse_monomial(text: str):
    """Inverse of :func:`format_monomial` -> ``(k, imask)`` (the
    ``monomial`` of the grammar in :mod:`superkon.exactnum`)."""
    r = TextReader(text)
    return r.done(r.monomial())


# ---------------------------------------------------------------------------


def product_sum(params, products) -> SuperFunction:
    """``sum_j s_j u_j v_j`` in the superalgebra (signs via
    :func:`xi_mul`), summed into one dict, for the triples ``(s_j, u_j,
    v_j)`` of a sign ``+-1`` and two superfunctions given by their items
    ``((k, imask), coeff)``."""
    out: dict = {}
    for sign, u, v in products:
        for (k1, I1), c1 in u:
            for (k2, I2), c2 in v:
                sm = xi_mul(I1, I2)
                if sm is not None:
                    c = c1 * c2
                    add_term(out, (k1 + k2, sm[1]), c if sm[0] == sign else -c)
    return SuperFunction(params, out)


class ContactParts:
    """What the contact bracket reads from a superfunction ``f``, as items
    ``((k, imask), coeff)`` for :func:`product_sum` (a zero piece is
    ``()``): ``delta f``, ``d_eps f``, ``sum_i xi_i partial_i f`` and, per
    odd variable ``i``, ``None`` when ``partial_i f = 0``, else the factors
    that the ``i``-th term of :func:`contact_core` takes from ``f`` on the
    left and on the right, ``(t^{-eps_i} (-1)^{|f|} partial_i f, partial_i
    f)``.  The sign is taken term by term, on the homogeneous parts of
    ``f``: an odd term of ``partial_i f`` comes from an even term of ``f``."""

    __slots__ = ("params", "delta", "d_eps", "xi_degree", "partials")

    def __init__(self, cfg: EpsilonConfig, f: SuperFunction):
        self.params = f.params
        self.delta = tuple(f.delta().terms.items())
        self.d_eps = tuple(f.d_eps(cfg).terms.items())
        self.xi_degree = tuple(f.xi_degree().terms.items())
        partials = []
        for i, e in enumerate(cfg.eps, 1):
            di = f.partial(i).terms
            partials.append((tuple(((k - e, I), c if I.bit_count() & 1 else -c)
                                   for (k, I), c in di.items()),
                             tuple(di.items())) if di else None)
        self.partials = tuple(partials)


def as_parts(cfg: EpsilonConfig, f) -> ContactParts:
    """``f`` when it is :class:`ContactParts` already, else the parts of the
    superfunction ``f``."""
    return f if isinstance(f, ContactParts) else ContactParts(cfg, f)


@lru_cache(maxsize=None)
def monomial_parts(cfg: EpsilonConfig, params: tuple, k: int,
                   imask: int) -> ContactParts:
    """The parts of the unit monomial ``t^k xi_I`` over ``params``, once
    per key (the module docstring says why parts, not results)."""
    return ContactParts(cfg, SuperFunction.monomial(params, k, imask))


def contact_core(f: ContactParts, g: ContactParts) -> list:
    """The products, as :func:`product_sum` takes them, of the part the
    contact bracket shares with the operator ``D_f`` of
    :func:`superkon.algebra.apply_d`:

    ``(delta f) d_eps(g) + (-1)^{|f|} sum_i t^{-eps_i} partial_i(f)
    partial_i(g)``,

    read off the parts of ``f`` and ``g``; a term whose ``partial_i`` is
    zero on either side is left out.
    """
    return [(1, f.delta, g.d_eps)] + [
        (1, fi[0], gi[1]) for fi, gi in zip(f.partials, g.partials) if fi and gi]


def contact_bracket(cfg: EpsilonConfig, f, g) -> SuperFunction:
    """The contact bracket

    ``{f, g} = (delta f) d_eps(g) - d_eps(f) (delta g)
               + (-1)^{|f|} sum_i t^{-eps_i} partial_i(f) partial_i(g)``,

    that is :func:`contact_core` minus ``d_eps(f) (delta g)``, extended
    bilinearly and summed into one dict.  ``f`` and ``g`` are superfunctions
    or their :class:`ContactParts`; a sweep passes parts, so that it
    differentiates each function once, not once per pair.  Everything comes
    from the generic operators of :class:`SuperFunction`, never from the
    structure constants, so this stays an independent oracle for them.
    """
    f, g = as_parts(cfg, f), as_parts(cfg, g)
    return product_sum(f.params, contact_core(f, g) + [(-1, f.d_eps, g.delta)])
