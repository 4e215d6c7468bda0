"""Tensor modules over the extended contact algebra.

A module is built from a 0/1 twist vector, a finite-dimensional
representation of so_N + Cz, and a weight origin ``a``.  Basis vectors
are ``prefix . v_r @ t^(a+l)`` where the prefix is an ordered product of
the unit odd operators ``D[t, xi_j]`` over a subset J (ascending), v_r
runs over the representation basis, and ``l`` is the integer weight
offset.  Text form: ``"D{1,3}.v2@l=-1"``.  A module vector
(:class:`ModVec`) is a :class:`~superkon.exactnum.Terms` over these basis
vectors.

Action rules:

* a function monomial ``t^k xi_I`` kills the vector unless ``I`` is
  contained in the prefix; otherwise it strips ``I`` off with sign
  ``(-1)^(tau(I, J\\I) + |I|(|I|+1)/2)`` and shifts the weight by the
  degree of ``D[t^{k+1}, xi_I]`` (:meth:`EpsilonConfig.degree
  <superkon.grassmann.EpsilonConfig.degree>`), as a D-symbol shifts it
  by its own degree;

* a D-symbol on a prefix-free vector acts through the representation
  (scalar ``a + l + 2k + ck`` for the plain series, prefix creation for
  one xi, the so_N generator image for two, zero beyond);

* a D-symbol on a prefixed vector commutes past the leading prefix
  factor: ``D . (D[t,xi_j1] rest) = [D, D[t,xi_j1]] rest
  + (-1)^{|D|} D[t,xi_j1] (D . rest)``.  Two base cases keep the
  recursion well-founded: prepending ``D[t,xi_i]`` when ``i`` is below
  the whole prefix is the definition of the basis, and an odd generator
  meeting its own leading factor resolves through half its
  self-bracket.

The action never truncates; callers intersect with windows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .algebra import AlgebraConfig, AlgebraElement, bracket_ints
from .exactnum import (GaussRat, Scalar, Terms, TextReader, UsageError,
                       add_term, as_scalar, lifted_powers, norm_pairs,
                       term_sum)
from .grassmann import EpsilonConfig, members, tau
from .repn import SoRep, config_dict, config_int, config_scalar, rep_from_config


class ModBasisVec(NamedTuple):
    l: int   # weight offset (t-exponent is a + l)
    J: int   # prefix index set (bitmask)
    r: int   # representation basis index

    def text(self) -> str:
        js = ",".join(str(i) for i in members(self.J))
        return f"D{{{js}}}.v{self.r}@l={self.l}"

    @classmethod
    def parse(cls, text: str) -> "ModBasisVec":
        """Inverse of :meth:`text`; the index set and weight are read as in
        the grammar of :mod:`superkon.exactnum`."""
        r = TextReader(text)
        r.expect("D")
        J = r.index_set()
        r.expect(".")
        v = r.peek()
        if v[:1] != "v" or not v[1:].isdigit():
            r.fail("'v' and a representation index")
        r.take()
        r.expect("@")
        r.expect("l")
        r.expect("=")
        return r.done(cls(r.integer(), J, int(v[1:])))

    @property
    def parity(self) -> int:
        return self.J.bit_count() & 1


class ModVec(Terms):
    """Sparse module vector: :class:`ModBasisVec` -> Scalar."""

    __slots__ = ()

    @classmethod
    def basis(cls, params, bv: ModBasisVec, coeff=1):
        return cls(params, {bv: as_scalar(params, coeff)})

    def _key_text(self, bv: ModBasisVec) -> str:
        return bv.text()


# Negative-control mutations a TensorModule accepts, each with the check it
# is meant to break (the algebra-side ones are in algebra.ALGEBRA_MUTATIONS).
MODULE_MUTATIONS = {"swap_tau": "check_module_axioms"}


class TensorModule:
    """A weight module with the three action rules above.

    ``sector_delta`` (0 or 1) restricts the basis to the parity class
    ``(l + sum_{i in J}(1 - eps_i)) mod 2 == sector_delta``; for the
    all-ones twist the weight lattice is the even sublattice instead.
    ``mutation`` names a negative control from ``MODULE_MUTATIONS``.
    """

    def __init__(self, cfg: EpsilonConfig, rep: SoRep, a: Scalar,
                 sector_delta: int | None = None, mutation: str | None = None):
        if mutation is not None and (not isinstance(mutation, str)
                                     or mutation not in MODULE_MUTATIONS):
            raise UsageError(f"unknown module mutation {mutation!r}")
        if cfg.N == 4:
            raise UsageError("tensor modules are not available for N=4")
        if not cfg.is_zero_one:
            raise UsageError("module twist vector must have 0/1 entries")
        if rep.N != cfg.N:
            raise UsageError(
                f"representation is for so_{rep.N}, twist vector has N={cfg.N}")
        if sector_delta not in (None, 0, 1):
            raise UsageError("sector_delta must be 0, 1, or omitted")
        if sector_delta is not None and cfg.is_ramond:
            raise UsageError("the all-ones twist has no sector split")
        self.cfg = cfg
        self.rep = rep
        self.a = as_scalar(rep.params, a)
        self.params = rep.params
        self.sector_delta = sector_delta
        self.mutation = mutation
        self._acfg = AlgebraConfig(cfg, central_enabled=False)
        self._one = Scalar.const(self.params, 1)
        self._memo: dict = {}

    # -- basis bookkeeping -------------------------------------------
    def in_lattice(self, bv: ModBasisVec) -> bool:
        if self.cfg.is_ramond:
            return bv.l % 2 == 0
        if self.sector_delta is not None:
            return (bv.l + self.cfg.shift_sum(bv.J)) % 2 == self.sector_delta
        return True

    def basis_at(self, l: int):
        out = []
        for J in range(1 << self.cfg.N):
            for r in range(self.rep.dim):
                bv = ModBasisVec(l, J, r)
                if self.in_lattice(bv):
                    out.append(bv)
        return sorted(out)

    def window_ops(self, w) -> list:
        """``(p, imask, degree)`` of the generators of window ``w``:
        the D-symbols ``D[t^p, xi_I]`` with ``p`` in ``w.k_values()``, in
        order of ``(p, imask)``.  The window's function monomials ``t^p
        xi_I`` run over the same pairs."""
        return [(p, im, self.cfg.degree(p, im)) for p in w.k_values()
                for im in range(1 << self.cfg.N)]

    def inner_basis(self, w) -> list:
        """The basis vectors of the inner weights of window ``w``, by
        weight; UsageError when there are none (say, an inner range of odd
        weights on the even lattice), since a check over them checks
        nothing."""
        out = [bv for l in range(w.inner_l_min, w.inner_l_max + 1)
               for bv in self.basis_at(l)]
        if not out:
            raise UsageError(f"the inner weights {w.inner_l_min}.."
                             f"{w.inner_l_max} of the window hold no basis "
                             "vector of the module")
        return out

    # -- action ---------------------------------------------------------
    def act_function(self, k: int, imask: int, bv: ModBasisVec):
        """Monomial ``t^k xi_I`` on a basis vector -> (coeff_sign, bv) or None."""
        J = bv.J
        if imask & ~J:
            return None
        nI = imask.bit_count()
        rest = J & ~imask
        if self.mutation == "swap_tau":
            t = tau(rest, imask)
        else:
            t = tau(imask, rest)
        sign = -1 if (t + nI * (nI + 1) // 2) & 1 else 1
        return sign, ModBasisVec(bv.l + self.cfg.degree(k + 1, imask), rest, bv.r)

    def _scalar_for_plain(self, l: int, k: int) -> Scalar:
        # a + l + 2k + c k
        s = self.a + Scalar.const(self.params, l + 2 * k)
        if k:
            s = s + self.rep.z_scalar.scale_raw(k, 0)
        return s

    def act_basis_d(self, p: int, imask: int, bv: ModBasisVec) -> dict:
        """D-symbol with stored exponent ``p`` on a basis vector; returns
        a dict ModBasisVec -> Scalar."""
        key = (p, imask, bv)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        J = bv.J
        nI = imask.bit_count()
        out: dict = {}
        if J == 0:
            newl = bv.l + self.cfg.degree(p, imask)
            if nI == 0:
                c = self._scalar_for_plain(bv.l, p - 1)
                if c:
                    out[ModBasisVec(newl, 0, bv.r)] = c
            elif nI == 1:
                out[ModBasisVec(newl, imask, bv.r)] = self._one
            elif nI == 2:
                mat = self.rep.gen[members(imask)]
                for r2 in range(self.rep.dim):
                    c = mat[r2][bv.r]
                    if c:
                        out[ModBasisVec(newl, 0, r2)] = c
            # three or more xi factors act as zero on prefix-free vectors
        elif p == 1 and nI == 1 and imask < J & -J:
            # prepend: the definition of the prefix basis
            out[ModBasisVec(bv.l + self.cfg.degree(1, imask), J | imask,
                            bv.r)] = self._one
        else:
            # the rest of the prefix: bv = D[t, xi_j1] vec2; commute past the
            # leading prefix factor, except for an odd square against it,
            # X = (1/2) [D, D] rest
            jbit = J & -J
            vec2 = ModBasisVec(bv.l - self.cfg.degree(1, jbit), J & ~jbit, bv.r)
            square = p == 1 and imask == jbit
            c2, rk, rI, _ = bracket_ints(self._acfg, p, imask, 1, jbit)
            if c2:
                for bv2, c in self.act_basis_d(rk, rI, vec2).items():
                    add_term(out, bv2, c.scale_raw(c2, 0, 4 if square else 2))
            if not square:
                neg = nI & 1
                for bv2, c in self.act_basis_d(p, imask, vec2).items():
                    for bv3, c3 in self.act_basis_d(1, jbit, bv2).items():
                        add = c * c3
                        add_term(out, bv3, -add if neg else add)
        out = {b: c for b, c in out.items() if c}
        self._memo[key] = out
        return out

    def act_basis(self, sym, bv: ModBasisVec) -> dict:
        """The symbol ``sym = (p, imask, is_d)`` on a basis vector, as a
        dict ModBasisVec -> Scalar: the :meth:`act_basis_d` dict of a
        D-symbol, the :meth:`act_function` sign of a function monomial
        ``t^p xi_I`` as a +-1 Scalar."""
        p, imask, is_d = sym
        if is_d:
            return self.act_basis_d(p, imask, bv)
        res = self.act_function(p, imask, bv)
        return {} if res is None else {res[1]: Scalar.const(self.params, res[0])}

    def act(self, x: AlgebraElement, v: ModVec) -> ModVec:
        """Action of an algebra element (no central part) on a vector."""
        if x.has_central():
            raise UsageError("the central element does not act on tensor modules")
        out: dict = {}
        for part, is_d in ((x.d, True), (x.a, False)):
            for (p, imask), cx in part.terms.items():
                for bv, cv in v.terms.items():
                    c = cx * cv
                    for bv2, c2 in self.act_basis((p, imask, is_d), bv).items():
                        add_term(out, bv2, c2 * c)
        return ModVec(self.params, out)

    # -- evaluation at concrete parameters --------------------------------
    def at(self, assignment: dict) -> "TensorModule":
        """This module with its inputs, the origin ``a`` and the
        representation, evaluated at ``assignment``; twist, sector and
        mutation are kept."""
        return TensorModule(self.cfg, self.rep.at(assignment),
                            self.a.at(assignment), self.sector_delta,
                            self.mutation)

    def eval_cache(self, assignment: dict) -> "EvaluatedAction":
        return EvaluatedAction(self, assignment)


# The parameter list of the column families of an EvaluatedAction: the
# formal origin alone, apart from the parameter names of the caller.
ORIGIN = ("u",)


class _OffBasis:
    """The column of a basis vector whose image has a term off the
    module's basis (see :meth:`EvaluatedAction.table`): reading it raises
    UsageError naming the first such term."""

    __slots__ = ("bv",)

    def __init__(self, bv: ModBasisVec):
        self.bv = bv

    def __iter__(self):
        raise UsageError(f"{self.bv!r} is not in the basis of its weight space")


class EvaluatedAction:
    """The action of a module with all formal parameters evaluated, as one
    integer kernel keyed by basis index.

    ``module`` is the given module evaluated at the assignment
    (:meth:`TensorModule.at`): its inputs are substituted once.  A vector
    at weight ``l`` is a row: a sparse dict ``index -> (re, im)`` of
    Gaussian-integer pairs over :meth:`basis` ``(l)``, exact up to a
    separately kept positive denominator.  Closure/rank sweeps drop the
    denominator (spans are scale-invariant); the intertwining checks keep
    it to cross-scale row pairs.  :meth:`row` makes a row of an evaluated
    seed or generator (:meth:`eval_modvec`) and :meth:`vector` turns one
    back into basis vectors for a witness; nothing else names a
    :class:`ModBasisVec`.

    The action of ``D[t^p, xi_I]`` at weight ``l`` is one block
    (:meth:`table`, memoised per ``(p, I, l)``): a column per basis vector
    of the weight, all over one denominator.  :meth:`act_vec` reads a
    row's columns from it and returns the image in canonical lowest terms,
    whatever the block's denominator.

    The action at weight ``l`` depends on ``l`` only through ``a + l``: the
    recursion reads a weight only in the plain-series scalar ``a + l + 2k +
    ck`` and moves every weight by amounts free of it.  So the columns come
    from one more module, the evaluated representation with the formal
    origin ``u`` (parameter list :data:`ORIGIN`, apart from the caller's).
    Its column ``act_basis_d(p, I, (0, J, r))`` is a family, a polynomial in
    ``u`` per output vector, memoised here per ``(p, I, J, r)``; a block
    evaluates its families at ``u = a + l`` by
    :func:`~superkon.exactnum.term_sum`, the loop of :meth:`Scalar.at
    <superkon.exactnum.Scalar.at>`, from powers of ``a + l`` made once per
    block and degree.  A window's blocks run the recursion once per family,
    however many weights the window has.  The blocks hold one copy of each
    entry ``(target index, re, im)`` and of each coefficient pair, which
    holds a closure's peak memory down.
    """

    def __init__(self, module: TensorModule, assignment: dict):
        self.module = module.at(assignment)
        self._assignment = assignment
        self._memo: dict = {}  # (p, imask, l) -> block
        m = self.module
        self._origin = m.a.const_parts()
        self._family_module = TensorModule(
            m.cfg, m.rep.constant_over(ORIGIN), Scalar.var(ORIGIN, "u"),
            m.sector_delta, m.mutation)
        self._families: dict = {}
        self._bases: dict = {}  # l -> (basis, basis vector -> index)
        self._shared: dict = {}  # coefficient pair or entry -> its one copy

    def _basis(self, l: int):
        hit = self._bases.get(l)
        if hit is None:
            basis = tuple(self.module.basis_at(l))
            hit = self._bases[l] = (basis, {(bv.J, bv.r): i
                                            for i, bv in enumerate(basis)})
        return hit

    def basis(self, l: int) -> tuple:
        """The module's basis at weight ``l``, which rows index."""
        return self._basis(l)[0]

    def dim(self, l: int) -> int:
        return len(self._basis(l)[0])

    def table(self, p: int, imask: int, l: int):
        """(den, columns): the block of ``D[t^p, xi_I]`` at weight ``l``.
        ``columns[i]``, the image of ``basis(l)[i]``, is a tuple of entries
        ``(target index, re, im)`` over ``basis(l + degree)``, all over the
        one ``den``.  A column with a term off that basis raises
        UsageError when it is read, not before.

        Each family is evaluated at ``u = a + l`` from one list of powers
        of ``a + l``, lifted to the block's top degree, and put over the
        least common denominator of the families."""
        key = (p, imask, l)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        t = l + self.module.cfg.degree(p, imask)
        index = self._basis(t)[1]
        fams = [self._family(p, imask, bv.J, bv.r) for bv in self.basis(l)]
        re0, im0, d = self._origin
        top = max((deg for deg, _, _ in fams), default=0)
        powers = {0: lifted_powers(re0 + l * d, im0, d, top)}
        den = lcm(*(fden for _, fden, _ in fams))
        shared = self._shared
        cols = []
        for _, fden, family in fams:
            s = den // fden
            col = []
            for jkey, terms, f in family:
                re, im = term_sum(terms, powers)
                if re or im:
                    j = index.get(jkey)
                    if j is None:
                        cols.append(_OffBasis(ModBasisVec(t, *jkey)))
                        break
                    pair = (re * f * s, im * f * s)
                    entry = (j, *shared.setdefault(pair, pair))
                    col.append(shared.setdefault(entry, entry))
            else:
                cols.append(tuple(col))
        hit = self._memo[key] = (den * d ** top, tuple(cols))
        return hit

    def _family(self, p: int, imask: int, J: int, r: int):
        """(degree in ``u``, den, (((J2, r2), terms, f), ...)): the column
        of ``D[t^p, xi_I]`` on ``(0, J, r)`` at the formal origin ``u``, each
        coefficient ``terms`` over ``den / f``.  Every output vector lies
        at the weight ``degree(p, I)``, as the symbol moves weights by its
        degree."""
        key = (p, imask, J, r)
        if key not in self._families:
            col = self._family_module.act_basis_d(p, imask,
                                                  ModBasisVec(0, J, r))
            deg = max((e for s in col.values() for e, in s.terms), default=0)
            den = lcm(*(s.den for s in col.values()))
            self._families[key] = (deg, den, tuple(
                ((bv2.J, bv2.r), s.terms, den // s.den) for bv2, s in col.items()))
        return self._families[key]

    def act_d(self, p: int, imask: int, bv: ModBasisVec):
        """:meth:`table`'s column of ``bv`` as ``[(bv2, GaussRat), ...]``.
        No library check calls it; ``bench/tracer.py`` wraps it by name."""
        den, cols = self.table(p, imask, bv.l)
        basis = self.basis(bv.l + self.module.cfg.degree(p, imask))
        return [(basis[j], GaussRat(Fraction(r, den), Fraction(m, den)))
                for j, r, m in cols[self._basis(bv.l)[1][bv.J, bv.r]]]

    def act_vec(self, p: int, imask: int, l: int, vec: dict):
        """(den, image): the image of the row ``vec`` at weight ``l`` under
        ``D[t^p, xi_I]``, a row at ``l + degree``, equal to ``image/den``
        relative to the input and in canonical lowest terms
        (:func:`~superkon.exactnum.norm_pairs`)."""
        den, cols = self.table(p, imask, l)
        out: dict = {}
        get = out.get
        for i, (r, m) in vec.items():
            for j, r2, m2 in cols[i]:
                pr, pm = get(j, (0, 0))
                out[j] = (pr + r * r2 - m * m2, pm + r * m2 + m * r2)
        return norm_pairs(out, den)

    def eval_modvec(self, v: ModVec):
        """(den, dict of integer pairs) with true value dict/den."""
        vals = [(bv, *c.at(self._assignment).const_parts())
                for bv, c in v.terms.items()]
        den = lcm(*(d for *_, d in vals))
        return norm_pairs({bv: (re * (den // d), im * (den // d))
                           for bv, re, im, d in vals}, den)

    def row(self, vec: dict, l: int | None = None):
        """``(l, row)``: the integer-pair vector ``vec`` (``ModBasisVec ->
        (re, im)``) as a row over :meth:`basis` ``(l)``.  Every term must
        lie at one weight, ``l`` when it is given, and in the basis there;
        UsageError otherwise.  A zero vector is ``(l, {})``."""
        ws = {bv.l for bv in vec} | ({l} if l is not None else set())
        if len(ws) > 1:
            raise UsageError(f"a row must lie in one weight space, not {sorted(ws)}")
        if not vec:
            return l, {}
        l, = ws
        index = self._basis(l)[1]
        for bv in vec:
            if (bv.J, bv.r) not in index:
                raise UsageError(f"{bv!r} is not in the basis of its weight space")
        return l, {index[bv.J, bv.r]: pair for bv, pair in vec.items()}

    def vector(self, l: int, row: dict) -> dict:
        """The row ``row`` at weight ``l`` as ``ModBasisVec -> (re, im)``."""
        basis = self.basis(l)
        return {basis[i]: pair for i, pair in row.items()}


def pairs_text(vec: dict) -> str:
    """An integer-pair vector ``ModBasisVec -> (re, im)`` as text, in basis
    order: ``(3+0i)*D{}.v0@l=0 + (1-2i)*D{1}.v0@l=2``; ``0`` when empty."""
    return " + ".join(f"({r}{m:+}i)*{bv.text()}"
                      for bv, (r, m) in sorted(vec.items())) or "0"


# ---------------------------------------------------------------------------
# construction from JSON-style config


def module_from_config(cfg: dict, params=("a", "b", "c")) -> TensorModule:
    """Build a tensor module from its JSON-style config dict: a dict
    ``algebra`` with ``N`` and the list ``eps``, a dict ``rep`` (see
    :func:`superkon.repn.rep_from_config`), and optional ``a``,
    ``sector_delta`` and ``mutation`` (text)."""
    params = tuple(params)
    config_dict(cfg, "config")
    alg = config_dict(cfg.get("algebra", {}), "algebra")
    if "N" not in alg or "eps" not in alg:
        raise UsageError("module config requires algebra.N and algebra.eps")
    if not isinstance(alg["eps"], list):
        raise UsageError(f"config field 'algebra.eps' must be a list, "
                         f"not {type(alg['eps']).__name__}")
    eps_cfg = EpsilonConfig(config_int(alg["N"], "algebra.N"),
                            tuple(config_int(e, "algebra.eps")
                                  for e in alg["eps"]))
    if alg.get("central"):
        raise UsageError("tensor modules take the algebra without its "
                         "central element (field algebra.central)")
    rep = rep_from_config(cfg.get("rep", {}), params)
    a = config_scalar(params, cfg.get("a", "a"), "a")
    sector = cfg.get("sector_delta", None)
    if sector is not None:
        sector = config_int(sector, "sector_delta")
    return TensorModule(eps_cfg, rep, a, sector,
                        mutation=cfg.get("mutation"))
