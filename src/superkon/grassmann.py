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
and the contact bracket built from them, whose :func:`contact_core` is
also the core of the operator ``D_f``.  A superfunction
(:class:`SuperFunction`) is a :class:`~superkon.exactnum.Terms` over the
monomial keys ``(k, imask)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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

    def eps_sum(self, mask: int) -> int:
        """sum of eps_i over i in the mask."""
        return sum(self.eps[i - 1] for i in members(mask))

    def shift_sum(self, mask: int) -> int:
        """sum of (1 - eps_i) over i in the mask."""
        return sum(1 - self.eps[i - 1] for i in members(mask))

    def degree(self, p: int, mask: int) -> int:
        """The degree ``2(p-1) + sum_{i in I}(1 - eps_i)`` of the symbol
        ``D[t^p, xi_I]`` (stored exponent ``p``).  The bracket of two
        symbols has the sum of their degrees (its central term fires only
        in total degree 0), a D-symbol moves module weights by its degree,
        and the function monomial ``t^k xi_I`` by that of ``D[t^{k+1},
        xi_I]``."""
        return 2 * (p - 1) + self.shift_sum(mask)

    @property
    def is_ramond(self) -> bool:
        return all(e == 1 for e in self.eps)

    @property
    def is_zero_one(self) -> bool:
        return all(e in (0, 1) for e in self.eps)


# ---------------------------------------------------------------------------


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
        """Product in the superalgebra (signs via :func:`xi_mul`)."""
        if isinstance(other, SuperFunction):
            out: dict = {}
            for (k1, I1), c1 in self.terms.items():
                for (k2, I2), c2 in other.terms.items():
                    sm = xi_mul(I1, I2)
                    if sm is None:
                        continue
                    sign, union = sm
                    add = c1 * c2
                    add_term(out, (k1 + k2, union), -add if sign < 0 else add)
            return SuperFunction(self.params, out)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars are even: left and right scaling agree
        return self.scale(other)

    def t_shift(self, k: int) -> "SuperFunction":
        """Multiply by ``t^k``."""
        return SuperFunction(self.params,
                             {(e + k, I): c for (e, I), c in self.terms.items()})

    # -- hashing and parity ---------------------------------------------
    def __hash__(self):
        return hash((self.params, frozenset((k, str(c)) for k, c in self.terms.items())))

    def parity_parts(self):
        """(even part, odd part); parity of ``t^k xi_I`` is ``|I| mod 2``."""
        ev, od = {}, {}
        for (k, I), c in self.terms.items():
            (od if I.bit_count() & 1 else ev)[(k, I)] = c
        return (SuperFunction(self.params, ev), SuperFunction(self.params, od))

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
                add_term(out, (k - 1, I), c.scale_raw(num, 0, 2))
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


def contact_core(cfg: EpsilonConfig, f: SuperFunction,
                 g: SuperFunction) -> SuperFunction:
    """The part the contact bracket shares with the operator ``D_f`` of
    :func:`superkon.algebra.apply_d`:

    ``(delta f) d_eps(g) + (-1)^{|f|} sum_i t^{-eps_i} partial_i(f)
    partial_i(g)``,

    the parity sign taken on the homogeneous parts of ``f``.
    """
    params = f.params
    out = f.delta() * g.d_eps(cfg)
    f_even, f_odd = f.parity_parts()
    for i in range(1, cfg.N + 1):
        gi = g.partial(i)
        if not gi:
            continue
        piece = SuperFunction.zero(params)
        fe = f_even.partial(i)
        if fe:
            piece = piece + fe * gi
        fo = f_odd.partial(i)
        if fo:
            piece = piece - (fo * gi)
        if piece:
            out = out + piece.t_shift(-cfg.eps[i - 1])
    return out


def contact_bracket(cfg: EpsilonConfig, f: SuperFunction,
                    g: SuperFunction) -> SuperFunction:
    """The contact bracket

    ``{f, g} = (delta f) d_eps(g) - d_eps(f) (delta g)
               + (-1)^{|f|} sum_i t^{-eps_i} partial_i(f) partial_i(g)``,

    that is :func:`contact_core` minus ``d_eps(f) (delta g)``, extended
    bilinearly.
    """
    return contact_core(cfg, f, g) - f.d_eps(cfg) * g.delta()
