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

Every structure constant lives in a form: one affine form per ordered
mask pair for the D-part (:func:`pair_form`) and one cubic in the degree
per mask for the central term (:func:`central_form`).  :func:`bracket_ints`
reads them at integer exponents, and :func:`jacobi_sum` composes them with
formal ones.  The bracket, phi and the relabeling also take exponents that
are formal :class:`~superkon.exactnum.Scalar` values, which the pair
sweeps of :mod:`superkon.verify` use.

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
from itertools import combinations_with_replacement
from math import comb, factorial

from .exactnum import (Scalar, TextReader, UsageError, add_term, as_scalar,
                       term_text)
from .grassmann import (EpsilonConfig, SuperFunction, as_parts, contact_core,
                        members, monomial_parts, partial_sign, product_sum,
                        times, xi_mul)


# Negative-control mutations an AlgebraConfig accepts, each with the check
# it is meant to break (the module-side one is in tensmod.MODULE_MUTATIONS).
# drop_phi_coeff subtracts shift sums, which are all 0 on a Ramond twist
# (every eps_i = 1), so there it changes nothing; on those twists the
# control that breaks check_phi is drop_sign_intersection.
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
    q + shift``; the central part off the mask's cubic in the degree
    (:func:`central_form`), at total degree 0 only.  With formal
    exponents the degree-0 gate never opens.
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
            k0, k1, k2, k3 = central_form(acfg, Im)
            cen12 = (k0 + d * (k1 + d * (k2 + d * k3))) // 2
    return coeff2, rk, rI, cen12


# Twice the cocycle value cen12 by xi-size, as the coefficients of a cubic
# in the degree d of the first symbol: d(d^2 - 4)/2, d^2 - 1, -2d and -4.
# The two- and three-xi values carry a minus sign: with the structure
# constants above that is the unique choice closing the Jacobi identity
# (checked against the standard N=2 super-Virasoro relations).
_COCYCLE = ((0, -4, 0, 1), (-2, 0, 2, 0), (0, -4, 0, 0), (-8, 0, 0, 0))


def central_form(acfg: AlgebraConfig, Im: int) -> tuple:
    """``(k0, k1, k2, k3)`` with ``2 cen12 = k0 + k1 d + k2 d^2 + k3 d^3``
    for the central term of ``I = J`` at the degree ``d`` of the first
    symbol (:func:`bracket_ints` reads it at total degree 0 only)."""
    nI = Im.bit_count()  # at most 3: the extension exists for N <= 3
    form = _COCYCLE[nI]
    if acfg.mutation == "double_cocycle" and nI == 0:
        # doubling only the plain-series component breaks the cocycle
        # condition (a uniform rescaling would not)
        form = tuple(2 * k for k in form)
    return form


# The monomials 1, p, q, r, p^2, pq, pr, q^2, qr, r^2 of a quadratic form in
# three exponents, as index pairs into affine forms' (1, p, q, r) coefficients,
# and the exponents p, q, r themselves as affine forms.
QUADRATIC = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2),
             (2, 3), (3, 3))
_EXPONENTS = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
# two formal exponents p, q: the pair sweeps' symbols, and the plane on
# which the Jacobi sum's central part is read
FORMAL = ("p", "q")
FORMAL_EXPONENTS = _P, _Q = tuple(Scalar.var(FORMAL, x) for x in FORMAL)


def _at(form, e1, e2) -> tuple:
    """A pair form's ``c0 + cp e1 + cq e2`` at two affine exponents."""
    c0, cp, cq = form[:3]
    return tuple(cp * a + cq * b + (c0 if i == 0 else 0)
                 for i, (a, b) in enumerate(zip(e1, e2)))


def _on_plane(f, T: int) -> Scalar:
    """The affine form ``f`` in ``(p, q, r)`` at ``r = T - p - q``."""
    return f[0] + f[3] * T + (f[1] - f[3]) * _P + (f[2] - f[3]) * _Q


def jacobi_sum(acfg: AlgebraConfig, m: tuple):
    """The graded Jacobi sum ``[x,[y,z]] + [y,[z,x]] + [z,[x,y]]`` of ``x =
    D[t^p, xi_I]``, ``y = D[t^q, xi_J]`` and ``z = D[t^r, xi_K]``, ``m = (I,
    J, K)``, with formal exponents (sign -1 on a term whose outer symbol
    and last inner one are both odd), as ``(d, cen)``.

    Each term's two structure constants are the mask pairs' affine forms
    (:func:`pair_form`), so ``d`` maps each landing ``(shift, mask)``, the
    symbol ``D[t^(p+q+r+shift), xi_mask]``, to 4x its coefficient, an
    integer quadratic form in ``(p, q, r)`` over the monomials
    ``QUADRATIC``.  A central term is the inner constant times the outer
    mask's cubic in the outer symbol's degree (:func:`central_form`), and
    :func:`bracket_ints` gives it only where the outer symbol and the inner
    result have degrees summing to 0, a plane ``p + q + r = T``: ``cen``
    maps each such ``T`` to 24x the C coefficient there, a Scalar over
    ``(p, q)`` with ``r = T - p - q``."""
    forms = acfg._pair_forms
    cfg = acfg.cfg
    d: dict = {}
    cen: dict = {}
    for u, v, t in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = forms[m[v]][m[t]]
        if inner is None:
            continue
        shift, rI = inner[3:]
        c2 = _at(inner, _EXPONENTS[v], _EXPONENTS[t])
        sgn = -1 if m[u].bit_count() & m[t].bit_count() & 1 else 1
        outer = forms[m[u]][rI]
        if outer is not None:
            land = _at((shift, 1, 1), _EXPONENTS[v], _EXPONENTS[t])  # e_v + e_t + shift
            c3 = _at(outer, _EXPONENTS[u], land)
            acc = d.setdefault((shift + outer[3], outer[4]), [0] * len(QUADRATIC))
            for n, (i, j) in enumerate(QUADRATIC):
                acc[n] += sgn * (c2[i] * c3[j] + (c2[j] * c3[i] if i != j else 0))
        if acfg.central_enabled and m[u] == rI:
            # the outer symbol and the inner result, both on mask rI, have
            # degrees 2(e_u - 1) + s and 2(e_v + e_t + shift - 1) + s
            s = cfg.shift_sum(rI)
            T = 2 - shift - s
            deg = 2 * _on_plane(_EXPONENTS[u], T) + s - 2
            k0, k1, k2, k3 = central_form(acfg, rI)
            value = _on_plane(c2, T) * (k0 + deg * (k1 + deg * (k2 + deg * k3)))
            cen[T] = cen.get(T, 0) + value.scale_raw(sgn, 0, 2)
    return d, cen


def jacobi_failures(acfg: AlgebraConfig) -> set:
    """The ordered mask triples on which :func:`jacobi_sum` is not zero.  A
    triple's sum is its rotations' sum, so each orientation is decided
    once, and both orientations when the three masks differ (a broken
    bracket need not be super-antisymmetric)."""
    failed: set = set()
    for I, J, K in combinations_with_replacement(range(1 << acfg.cfg.N), 3):
        for m in ((I, J, K), (I, K, J)) if I < J < K else ((I, J, K),):
            d, cen = jacobi_sum(acfg, m)
            if any(any(f) for f in d.values()) or any(cen.values()):
                failed.update((m, m[1:] + m[:1], m[2:] + m[:2]))
    return failed


def bracket_basis(acfg: AlgebraConfig, x, y, params=()) -> AlgebraElement:
    """Bracket of two D-basis symbols given by (stored exponent, mask)."""
    (p, Im), (q, Jm) = x, y
    coeff2, rk, rI, cen12 = bracket_ints(acfg, p, Im, q, Jm)
    return AlgebraElement(
        params,
        SuperFunction.monomial(params, rk, rI, as_scalar(params, coeff2).scale_raw(1, 0, 2))
        if coeff2 else None,
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
                    add_term(d, (rk, rI), times(c, coeff2, 2))
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
            add_term(a, (p - 1, Im), times(c, n))
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
