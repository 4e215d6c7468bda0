"""Exact scalar arithmetic: Gaussian rationals and sparse polynomials.

Two layers:

* :class:`GaussRat` -- numbers of the form ``re + im*i`` with rational
  ``re``, ``im`` (``i`` the imaginary unit).  Backed by
  :class:`fractions.Fraction`, so everything is exact and canonical
  (lowest terms, positive denominator).

* :class:`Scalar` -- a sparse polynomial in a declared, ordered list of
  formal parameters (e.g. ``("a", "b", "c")``) with Gaussian-rational
  coefficients.  Exponent vectors are dense over the parameter list,
  which keeps term keys small and hashable.  Internally a Scalar stores
  integer coefficient pairs over one shared denominator; this keeps the
  hot loops (bracket recursions, sweep comparisons) in plain integer
  arithmetic.  No floating point is used anywhere.

  :meth:`Scalar.at` substitutes concrete values, also in integers, and
  returns the constant Scalar of the value: a ring map.  So a computation
  whose inputs are substituted first runs on constants and gives the
  values of the one run on polynomials.

Every finite combination with Scalar coefficients (superfunctions, module
vectors) is a :class:`Terms`: a canonical ``key -> Scalar`` dict with the
linear operations and the printer.  :func:`add_term` is the one merge of a
Scalar into such a dict, and :func:`as_scalar` the one coercion of a
caller's coefficient ("a Scalar over these parameters, or a value made into
one").

Text forms (JSON reports, configs, round trips) are read by one
:class:`TextReader`; whitespace between tokens is ignored::

    sum      := product (("+" | "-") product)*
    product  := ["-"] factor (("*" | "/") factor)*
    factor   := number | "i" | param ["^" integer] | "(" sum ")" | symbol
    number   := digits ["." digits]
    integer  := ["-"] digits
    index_set := "{" [integer ("," integer)*] "}"
    monomial := "1" | "t" ["^" integer] [[","] "xi" index_set]
              | "xi" index_set

``param`` is one of the declared parameter names.  A divisor after ``/``
is a nonzero constant, so ``p/q`` is a quotient of two numbers.  At most
one ``symbol`` (a basis symbol such as ``D[t^1,xi{1,2}]``) stands in a
product; the caller reads it through a hook.  Index sets hold distinct
positive indices.  Examples: ``"1/2-3/4*i"`` (a GaussRat), ``"3*a +
(1/2+i)*c^2 + -1"`` (a Scalar).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


class UsageError(ValueError):
    """Caller violated an operation's contract (bad config, mismatched
    parameter lists, missing assignment, ...)."""


def pair_content(pairs, g: int = 0) -> int:
    """The gcd of ``g`` and every entry of the integer pairs ``(re, im)``;
    stops early at 1.  Zero when ``g`` and all entries are zero."""
    for r, m in pairs:
        g = gcd(g, r, m)
        if g == 1:
            break
    return g


class GaussRat:
    """A Gaussian rational ``re + im*i``, exact and immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise UsageError(f"GaussRat parts must be int or Fraction, not "
                                 f"{type(part).__name__} (text goes through "
                                 f"GaussRat.parse)")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("GaussRat is immutable")

    # -- arithmetic -------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRat(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise UsageError("GaussRat powers must be nonnegative integers")
        acc = GaussRat(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    # -- predicates / identity -------------------------------------
    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal to an int or Fraction, so hashed alike
        return hash((self.re, self.im)) if self.im else hash(self.re)

    # -- text form --------------------------------------------------
    def __str__(self):
        if not self.im:
            return str(self.re)
        if self.im == 1:
            ip = "i"
        elif self.im == -1:
            ip = "-i"
        else:
            ip = f"{self.im}*i"
        if not self.re:
            return ip
        sign = "+" if (self.im > 0) else ""
        return f"{self.re}{sign}{ip}"

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    @classmethod
    def parse(cls, text: str) -> "GaussRat":
        """Read a constant ``sum`` (grammar in the module docstring)."""
        r = TextReader(text)
        return r.done(r.sum()).as_gaussrat()


I = GaussRat(0, 1)


def _exact_parts(value, what: str) -> tuple:
    """``(re, im, den)`` with ``value == (re + im*i)/den``, ``den > 0``, for
    an ``int``, ``Fraction``, ``GaussRat`` or its text; in lowest terms.
    Any other type is a caller mistake: UsageError naming ``what``."""
    if isinstance(value, str):
        value = GaussRat.parse(value)
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    if isinstance(value, GaussRat):
        re, im = value.re, value.im
        d = lcm(re.denominator, im.denominator)
        return (re.numerator * (d // re.denominator),
                im.numerator * (d // im.denominator), d)
    raise UsageError(f"{what} must be an int, Fraction, GaussRat or its "
                     f"text, not {type(value).__name__}")


def norm_pairs(terms: dict, den: int):
    """``(den, terms)`` for the vector ``terms/den`` of integer pairs ``key
    -> (re, im)``, canonical: zero pairs dropped, ``den > 0``, and no common
    factor of ``den`` and every entry; ``(1, terms)`` for the zero vector.
    ``terms`` is normalised in place, so the caller passes a dict of its
    own."""
    for k in [k for k, (r, m) in terms.items() if not (r or m)]:
        del terms[k]
    if not terms:
        return 1, terms
    g = pair_content(terms.values(), den)
    if den < 0:
        g = -g
    if g != 1:
        for k, (r, m) in terms.items():
            terms[k] = (r // g, m // g)
        den //= g
    return den, terms


def lifted_powers(re: int, im: int, d: int, deg: int) -> list:
    """The integer pairs ``(re + im*i)^k * d^(deg-k)``, ``k = 0..deg``: the
    powers of the value ``(re + im*i)/d`` up to ``deg``, each over the one
    denominator ``d^deg``."""
    pw = [(1, 0)]
    for _ in range(deg):
        r, m = pw[-1]
        pw.append((r * re - m * im, r * im + m * re))
    return [(r * d ** (deg - k), m * d ** (deg - k))
            for k, (r, m) in enumerate(pw)]


def term_sum(terms: dict, powers: dict) -> tuple:
    """The integer pair ``sum (r + m*i) * prod_j powers[j][e_j]`` over the
    ``terms`` ``e -> (r, m)`` of a Scalar; ``powers`` maps a parameter index
    to its :func:`lifted_powers`, and the parameters it leaves out have
    exponent zero in every term.  The substitution loop of :meth:`Scalar.at`
    and of the evaluated action columns of :mod:`superkon.tensmod`."""
    tre = tim = 0
    for e, (r, m) in terms.items():
        for j, pw in powers.items():
            pr, pm = pw[e[j]]
            r, m = r * pr - m * pm, r * pm + m * pr
        tre += r
        tim += m
    return tre, tim


class Scalar:
    """Sparse polynomial over a fixed ordered parameter list.

    ``terms`` maps dense exponent tuples to integer coefficient pairs
    ``(num_re, num_im)``; all terms share the positive denominator
    ``den``.  Instances are canonical (no zero terms, gcd-reduced) and
    treated as immutable.
    """

    __slots__ = ("params", "terms", "den")

    def __init__(self, params, terms=None, den=1):
        self.params = tuple(params)
        self.den, self.terms = norm_pairs(dict(terms or {}), den)

    @staticmethod
    def _made(params: tuple, terms: dict, den: int, canonical: bool = False):
        """A Scalar over a dict the caller built for it, which it takes over:
        normalised in place, or kept as it is when ``canonical``."""
        s = Scalar.__new__(Scalar)
        s.params = params
        s.den, s.terms = (den, terms) if canonical else norm_pairs(terms, den)
        return s

    # -- constructors ----------------------------------------------
    @classmethod
    def const(cls, params, value) -> "Scalar":
        params = tuple(params)
        nre, nim, d = _exact_parts(value, "a Scalar constant")
        return cls._made(params, {(0,) * len(params): (nre, nim)}, d)

    @classmethod
    def var(cls, params, name: str) -> "Scalar":
        params = tuple(params)
        if name not in params:
            raise UsageError(f"parameter {name!r} not among declared {params}")
        e = tuple(1 if p == name else 0 for p in params)
        return cls(params, {e: (1, 0)}, 1)

    @classmethod
    def zero(cls, params) -> "Scalar":
        return cls(tuple(params), {}, 1)

    # -- helpers ----------------------------------------------------
    def _check(self, other: "Scalar"):
        if self.params != other.params:
            raise UsageError(
                f"mismatched parameter lists: {self.params} vs {other.params}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations --------------------------------------------
    def __add__(self, other):
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction, GaussRat)):
                other = Scalar.const(self.params, other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        if self.params is not other.params:
            self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        d1, d2 = self.den, other.den
        if d1 == d2:
            m1 = m2 = 1
            out = dict(self.terms)
        else:
            g = gcd(d1, d2)
            m1, m2 = d2 // g, d1 // g
            out = {k: (r * m1, m * m1) for k, (r, m) in self.terms.items()}
        for k, (r, m) in other.terms.items():
            pr, pm = out.get(k, (0, 0))
            out[k] = (pr + r * m2, pm + m * m2)
        return Scalar._made(self.params, out, d1 * m1)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._made(self.params, {k: (-r, -m) for k, (r, m) in self.terms.items()},
                            self.den, canonical=True)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Scalar) else -Scalar.const(self.params, other))

    def __rsub__(self, other):
        return (-self) + other

    def const_parts(self):
        """``(re, im, den)`` of a constant Scalar, else None."""
        terms = self.terms
        if not terms:
            return 0, 0, 1
        if len(terms) == 1:
            (e, (r, m)), = terms.items()
            if not any(e):
                return r, m, self.den
        return None

    def __mul__(self, other):
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction, GaussRat)):
                return self.scale_raw(*_exact_parts(other, "a Scalar factor"))
            if not isinstance(other, Scalar):
                return NotImplemented
        if self.params is not other.params:
            self._check(other)
        c = other.const_parts()
        if c is not None:
            return self.scale_raw(*c)
        c = self.const_parts()
        if c is not None:
            return other.scale_raw(*c)
        out: dict = {}
        for e1, (r1, m1) in self.terms.items():
            for e2, (r2, m2) in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                pr, pm = out.get(e, (0, 0))
                out[e] = (pr + r1 * r2 - m1 * m2, pm + r1 * m2 + m1 * r2)
        return Scalar._made(self.params, out, self.den * other.den)

    __rmul__ = __mul__

    def scale_raw(self, nre: int, nim: int, den: int = 1) -> "Scalar":
        """Multiply by the Gaussian rational ``(nre + nim*i)/den``.  A unit
        ``+-1`` or ``+-i`` keeps the terms canonical: no normalising."""
        unit = den == 1 and nre * nre + nim * nim == 1
        if nim == 0:
            if unit:
                return self if nre == 1 else -self
            out = {k: (r * nre, m * nre) for k, (r, m) in self.terms.items()}
        else:
            out = {k: (r * nre - m * nim, r * nim + m * nre)
                   for k, (r, m) in self.terms.items()}
        return Scalar._made(self.params, out, self.den * den, canonical=unit)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise UsageError("Scalar powers must be nonnegative integers")
        acc = Scalar.const(self.params, 1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def __eq__(self, other):
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction, GaussRat)):
                other = Scalar.const(self.params, other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        return ((self.params is other.params or self.params == other.params)
                and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        # a constant equals its GaussRat value, so it is hashed alike
        if self.const_parts() is not None:
            return hash(self.as_gaussrat())
        return hash((self.params, self.den, frozenset(self.terms.items())))

    # -- evaluation ---------------------------------------------------
    def at(self, assignment: dict) -> "Scalar":
        """The value at ``assignment`` (parameter name -> int, Fraction,
        GaussRat or text), as a constant Scalar over the same parameters.

        A ring homomorphism.  A constant is returned as it is; every
        parameter that appears must be assigned an exact value (else
        UsageError).  Each term is lifted to the common denominator
        ``den * prod_x d_x^D_x``, ``D_x`` the largest degree in ``x`` and
        ``d_x`` the denominator of its value."""
        degs = [max(col) for col in zip(*self.terms)]
        if not any(degs):
            return self
        powers = {}  # parameter index -> lifted powers of its value
        den = self.den
        for i, (name, deg) in enumerate(zip(self.params, degs)):
            if deg:
                if name not in assignment:
                    raise UsageError(f"missing assignment for parameter {name!r}")
                vr, vm, d = _exact_parts(assignment[name], f"parameter {name!r}")
                powers[i] = lifted_powers(vr, vm, d, deg)
                den *= d ** deg
        return Scalar(self.params,
                      {(0,) * len(self.params): term_sum(self.terms, powers)},
                      den)

    def eval(self, assignment: dict) -> GaussRat:
        """The value at ``assignment`` as a GaussRat (see :meth:`at`)."""
        return self.at(assignment).as_gaussrat()

    def as_gaussrat(self) -> GaussRat:
        """Constant Scalar -> GaussRat (error if non-constant)."""
        parts = self.const_parts()
        if parts is None:
            raise UsageError("Scalar is not constant")
        return GaussRat(Fraction(parts[0], parts[2]), Fraction(parts[1], parts[2]))

    # -- text form ------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            r, m = self.terms[e]
            co = GaussRat(Fraction(r, self.den), Fraction(m, self.den))
            cs = str(co)
            if ("+" in cs[1:]) or ("-" in cs[1:]) or cs.endswith("i"):
                cs = f"({cs})"
            names = [f"{p}^{k}" if k > 1 else p
                     for p, k in zip(self.params, e) if k]
            if names:
                body = "*".join(names)
                parts.append(body if cs == "1" else f"{cs}*{body}")
            else:
                parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"Scalar({self.params!r}, {self!s})"

    @classmethod
    def parse(cls, params, text: str) -> "Scalar":
        """Read a ``sum`` over ``params`` (grammar in the module docstring)."""
        r = TextReader(text, params)
        return r.done(r.sum())


def term_text(coeff: Scalar, body: str) -> str:
    """``coeff*body`` as the element, function and vector printers write
    it: the coefficient is left out when it prints as ``1``, and one that
    prints as a sum, a product or with ``i`` is wrapped in parentheses."""
    cs = str(coeff)
    if cs == "1":
        return body
    if " + " in cs or "*" in cs or cs.endswith("i"):
        cs = f"({cs})"
    return f"{cs}*{body}"


def as_scalar(params, value) -> Scalar:
    """``value`` as a Scalar over ``params``: a Scalar is returned as it is
    (UsageError when it is over another parameter list), any other value
    goes through :meth:`Scalar.const`."""
    if isinstance(value, Scalar):
        if value.params != tuple(params):
            raise UsageError(f"mismatched parameter lists: {value.params} "
                             f"vs {tuple(params)}")
        return value
    return Scalar.const(params, value)


def add_term(out: dict, key, c: Scalar):
    """Add the Scalar ``c`` to ``out[key]`` (set it when the key is new).
    A zero sum stays in ``out``; :class:`Terms` drops it on construction."""
    prev = out.get(key)
    out[key] = c if prev is None else prev + c


class Terms:
    """A finite combination of keys with Scalar coefficients over one
    parameter list; canonical sparse form (no zero terms).

    A subclass defines ``_key_text(key)``, the text of a key in
    :meth:`__str__`, and adds its own constructors and operations;
    combinations of different subclasses never add or compare equal.
    Unhashable unless a subclass defines ``__hash__``.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params, terms=None):
        self.params = tuple(params)
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return type(self)(self.params, out)

    def __neg__(self):
        return type(self)(self.params, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        coeff = as_scalar(self.params, coeff)
        return type(self)(self.params,
                          {k: c * coeff for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(term_text(self.terms[k], self._key_text(k))
                          for k in sorted(self.terms))

    def __repr__(self):
        return f"{type(self).__name__}({self!s})"


# ---------------------------------------------------------------------------
# packed Gaussian-integer sums: the filters of the identity sweeps

_EXP_BITS = 16  # bits per parameter in a packed exponent vector
_INDEX_BITS = 32  # bits of a packed key's index, its field above the exponents


class _Packer:
    """Packs the exponent vector of a term and its key's index into one
    int: ``_EXP_BITS`` bits per parameter, the index of the key (say, a
    basis vector) above them.  Every packed exponent stays below half a
    field, so adding two never carries into the next field: the key of a
    product term is the image term's key plus the factor's packed exponent.
    Keys are only compared, never unpacked.

    :meth:`image` turns a dict ``key -> Scalar`` (an action image) into
    ``(den, flat, groups)`` over one denominator: ``flat`` lists ``(packed
    key, re, im)``, and ``groups`` lists ``(key, coeff)``, the entry at
    ``key`` as a factor (see :meth:`coeff`)."""

    def __init__(self, params):
        self.shift = _EXP_BITS * len(params)
        self.index: dict = {}
        self._exponents: dict = {}
        self._shared: dict = {}  # a factor's packed term -> its one copy

    def exponent(self, e) -> int:
        packed = self._exponents.get(e)
        if packed is None:
            packed = 0
            for i, k in enumerate(e):
                if k >> (_EXP_BITS - 1):
                    raise UsageError(f"exponent {k} is too large to pack in "
                                     f"{_EXP_BITS} bits without a carry")
                packed |= k << (_EXP_BITS * i)
            self._exponents[e] = packed
        return packed

    def coeff(self, s: Scalar, den: int = 0) -> tuple:
        """``s`` as a factor ``(den, [(packed exponent, re, im), ...])``
        over ``den``, a multiple of ``s.den`` (default ``s.den``)."""
        den = den or s.den
        f = den // s.den
        return den, [(self.exponent(e), r * f, m * f) for e, (r, m) in s.terms.items()]

    def image(self, terms: dict) -> tuple:
        den = lcm(*(c.den for c in terms.values()))
        flat, groups = [], []
        for key, c in terms.items():
            idx = self.index.setdefault(key, len(self.index))
            if idx >> _INDEX_BITS:
                raise UsageError(f"more than 2^{_INDEX_BITS} keys to pack")
            cden, cterms = self.coeff(c, den)
            cterms = [self._shared.setdefault(t, t) for t in cterms]
            flat.extend(((idx << self.shift) + e, r, m) for e, r, m in cterms)
            groups.append((key, (cden, cterms)))
        return den, flat, groups


class _Memo(dict):
    """``key -> compute(key)``, each value computed on its first read."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        return self.setdefault(key, self.compute(key))


class _Batch:
    """The residuals of the identities ``0 .. size-1`` of one batch, each a
    sum of products ``sign * coeff * image`` (as made by a :class:`_Packer`),
    in one dict of Gaussian-integer pairs.  A key is the packed key of the
    image term plus the factor's packed exponent, with the identity's index
    placed above both, so no two identities share a key.  All residuals
    share one denominator, grown to the lcm only when a product's
    denominator does not divide it.  :meth:`flagged` lists the identities
    whose residual is nonzero."""

    __slots__ = ("size", "top", "den", "terms")

    def __init__(self, packer: _Packer, size: int):
        self.size = size
        self.top = packer.shift + _INDEX_BITS
        self.den = 1
        self.terms: dict = {}

    def add(self, index: int, coeff: tuple, image: tuple, sign: int = 1) -> None:
        """Identity ``index`` ``+= sign * coeff * image``; ``coeff`` as in a
        group of :meth:`_Packer.image`."""
        flat = image[1]
        if not flat:
            return
        cden, cterms = coeff
        d = cden * image[0]
        den = self.den
        if den % d:
            new = lcm(den, d)
            f = new // den
            self.terms = {k: (r * f, m * f) for k, (r, m) in self.terms.items()}
            self.den = den = new
        f = den // d * sign
        base = index << self.top
        terms = self.terms
        get = terms.get
        for e1, r1, m1 in cterms:
            r1 *= f
            m1 *= f
            e1 += base
            for key, r2, m2 in flat:
                key += e1
                pr, pm = get(key, (0, 0))
                terms[key] = (pr + r1 * r2 - m1 * m2, pm + r1 * m2 + m1 * r2)

    def flagged(self) -> list:
        """The indices, ascending, of the identities with a nonzero
        residual."""
        top = self.top
        nonzero = {k >> top for k, (r, m) in self.terms.items() if r or m}
        return [i for i in range(self.size) if i in nonzero]


_TOKEN = re.compile(r"\d+(?:\.\d+)?|[A-Za-z_]\w*|\S", re.ASCII)


class TextReader:
    """Reads the text forms of the module docstring from one string: a
    regex tokenizer under a small recursive-descent reader.

    ``params`` are the parameter names a sum may use.  Malformed text
    raises :class:`UsageError`; call :meth:`done` on the last value read
    to require that the whole text was used.
    """

    def __init__(self, text: str, params=()):
        self.text = text
        self.params = tuple(params)
        self.toks = _TOKEN.findall(text)
        self.pos = 0

    # -- tokens -----------------------------------------------------------
    def peek(self) -> str:
        """The next token, ``""`` at the end."""
        return self.toks[self.pos] if self.pos < len(self.toks) else ""

    def take(self) -> str:
        tok = self.peek()
        self.pos += 1
        return tok

    def accept(self, *toks) -> str:
        """Consume the next token if it is one of ``toks`` and return it;
        otherwise ``""``."""
        return self.take() if self.peek() in toks else ""

    def expect(self, tok: str):
        if not self.accept(tok):
            self.fail(repr(tok))

    def fail(self, what: str):
        found = repr(self.peek()) if self.peek() else "the end"
        raise UsageError(f"malformed text {self.text!r}: expected {what}, "
                         f"found {found}")

    def done(self, value):
        """``value``, after checking that no text is left."""
        if self.peek():
            self.fail("the end")
        return value

    # -- sums -------------------------------------------------------------
    def terms(self, symbol=None) -> list:
        """A ``sum`` as ``[(coeff, sym)]``, one pair per signed product.

        ``symbol(reader)`` is the caller's hook for basis symbols: it
        consumes one and returns it (truthy), or consumes nothing and
        returns a falsy value.  ``sym`` is the product's symbol, None when
        it has none."""
        out = [self._product(symbol)]
        while sign := self.accept("+", "-"):
            c, sym = self._product(symbol)
            out.append((-c if sign == "-" else c, sym))
        return out

    def sum(self) -> Scalar:
        """A ``sum`` with no basis symbol, as a Scalar."""
        return sum((c for c, _ in self.terms()), Scalar.zero(self.params))

    def _product(self, symbol):
        coeff = Scalar.const(self.params, -1 if self.accept("-") else 1)
        sym, op = None, "*"
        while op:
            found = op == "*" and symbol and symbol(self)
            if not found:
                f = self._factor()
                coeff = coeff * f if op == "*" else self._divide(coeff, f)
            elif sym:
                raise UsageError(f"two basis symbols in one product in {self.text!r}")
            else:
                sym = found
            op = self.accept("*", "/")
        return coeff, sym

    def _factor(self) -> Scalar:
        tok = self.peek()
        if tok == "(":
            self.take()
            s = self.sum()
            self.expect(")")
            return s
        if tok[:1].isdigit():
            self.take()
            return Scalar.const(self.params, Fraction(tok))
        if tok == "i":
            self.take()
            return Scalar.const(self.params, I)
        if tok in self.params:
            self.take()
            return Scalar.var(self.params, tok) ** (self.integer() if self.accept("^") else 1)
        self.fail("a number, 'i', a declared parameter or '('")

    def _divide(self, s: Scalar, d: Scalar) -> Scalar:
        parts = d.const_parts()
        if parts is None or not (parts[0] or parts[1]):
            raise UsageError(f"divisor {d} is not a nonzero constant in {self.text!r}")
        nre, nim, den = parts  # 1/((nre + nim*i)/den) = den*(nre - nim*i)/|.|^2
        return s.scale_raw(den * nre, -den * nim, nre * nre + nim * nim)

    # -- helpers for basis symbols ------------------------------------------
    def integer(self) -> int:
        neg = self.accept("-")
        if not self.peek().isdigit():
            self.fail("an integer")
        n = int(self.take())
        return -n if neg else n

    def index_set(self) -> int:
        """An ``index_set`` as a bitmask (bit ``j-1`` for index ``j``)."""
        self.expect("{")
        mask = 0
        while not self.accept("}"):
            if mask:
                self.expect(",")
            j = self.integer()
            if j < 1 or mask >> (j - 1) & 1:
                raise UsageError(f"index {j} is repeated or not positive in {self.text!r}")
            mask |= 1 << (j - 1)
        return mask

    def monomial(self) -> tuple:
        """A ``monomial`` ``t^k xi_I`` as ``(k, imask)``."""
        if self.accept("1"):
            return 0, 0
        k = imask = 0
        t = self.accept("t")
        if t:
            k = self.integer() if self.accept("^") else 1
        if not t or self.accept(",") or self.peek() == "xi":
            self.expect("xi")
            imask = self.index_set()
        return k, imask
