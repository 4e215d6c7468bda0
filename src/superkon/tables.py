"""Explicit action tables for N=2 and N=3, used as independent oracles
against the generic recursive action.

The tables are transcribed line by line in their original bases:

* N=2 untwisted (eps = (1,1)): ``v_l, v+_l, v-_l, w_l`` sitting at
  t-exponent ``a + 2l``;
* N=2 twisted (eps = (1,0)): same symbol names at ``a + l``;
* N=3 (eps = (e,e,e), e in {0,1}): ``v, v+, v-, w, w+, w-, u, ub`` with
  representation index ``r`` (out-of-range ``r`` is the zero vector).

Several source lines arrive mangled or internally inconsistent with the
ladder conventions; the repaired readings used here are marked
``# repaired:``.  The generic action is the source of truth: the
comparator reports every discrepancy, it never silently accepts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import AlgebraElement
from .exactnum import GaussRat, I, Scalar, UsageError, add_term, as_scalar
from .grassmann import iset
from .tensmod import ModBasisVec, ModVec, TensorModule


class TableVec(NamedTuple):
    kind: str
    r: int
    l: int


class TableTerms(dict):
    """kind/(r,l) -> Scalar accumulator that drops zero adds."""

    def add(self, sym: TableVec, coeff: Scalar):
        if coeff:
            add_term(self, sym, coeff)
            if not self[sym]:
                del self[sym]


class BaseTable:
    def __init__(self, module: TensorModule):
        self.m = module
        self.params = module.params
        self.a = module.a
        self.c = module.rep.z_scalar
        # the basis-map coefficients 1, i and -i, built once (Scalars are
        # immutable, so every to_modvec call shares them)
        self.one = Scalar.const(self.params, 1)
        self.i = Scalar.const(self.params, I)
        self.minus_i = -self.i

    def const(self, x):
        return Scalar.const(self.params, x)

    def lin(self, *pairs):
        """sum of coeff*expr pairs, ints and Scalars mixed."""
        s = Scalar.zero(self.params)
        for coeff, expr in pairs:
            term = as_scalar(self.params, expr)
            if coeff != 1:
                term = term * self.const(coeff)
            s = s + term
        return s


class N2Table(BaseTable):
    """The two explicit N=2 action lists (one per sector)."""

    KINDS = ("v", "vp", "vm", "w")

    def __init__(self, module: TensorModule):
        super().__init__(module)
        if module.cfg.N != 2:
            raise UsageError("N=2 table requires an N=2 module")
        if module.cfg.eps == (1, 1):
            self.twisted = False
        elif module.cfg.eps == (1, 0):
            self.twisted = True
        else:
            raise UsageError("N=2 table covers eps=(1,1) and eps=(1,0) only")
        self.b = module.rep.gen[(1, 2)][0][0]

    # -- basis map -----------------------------------------------------
    def to_modvec(self, sym: TableVec) -> ModVec:
        l = sym.l if self.twisted else 2 * sym.l
        one = self.one
        if sym.kind == "v":
            terms = {ModBasisVec(l, 0, 0): one}
        elif sym.kind in ("vp", "vm"):
            terms = {ModBasisVec(l, iset(1), 0): one,
                     ModBasisVec(l, iset(2), 0): self.i if sym.kind == "vp" else self.minus_i}
        elif sym.kind == "w":
            terms = {ModBasisVec(l, iset(1, 2), 0): one}
        else:
            raise UsageError(f"unknown table symbol kind {sym.kind!r}")
        return ModVec(self.params, terms)

    def table_sym_weight(self, sym: TableVec) -> int:
        return sym.l if self.twisted else 2 * sym.l

    def syms_at_table_l(self, l: int):
        return [TableVec(k, 0, l) for k in self.KINDS]

    # -- table action ----------------------------------------------------
    def act(self, line: str, k: int, sym: TableVec) -> TableTerms:
        return (self._act_twisted if self.twisted else self._act_untwisted)(
            line, k, sym)

    def _act_untwisted(self, line, k, sym) -> TableTerms:
        a, b, c = self.a, self.b, self.c
        l = sym.l
        out = TableTerms()
        lk = l + k
        if line == "D":
            if sym.kind == "v":
                out.add(TableVec("v", 0, lk), self.lin((1, a), (1, 2 * l), (k, c), (1, 2 * k)))
            elif sym.kind in ("vp", "vm"):
                out.add(TableVec(sym.kind, 0, lk),
                        self.lin((1, a), (1, 2 * l), (k, c), (1, k)))
            else:  # w
                out.add(TableVec("v", 0, lk), b.scale_raw(k * k, 0))
                out.add(TableVec("w", 0, lk), self.lin((1, a), (1, 2 * l), (k, c)))
        elif line in ("P+", "P-"):
            plus = line == "P+"
            if sym.kind == "v":
                out.add(TableVec("vp" if plus else "vm", 0, lk), self.const(1))
            elif sym.kind == "vp":
                if not plus:
                    out.add(TableVec("v", 0, lk),
                            -self.lin((1, a), (1, 2 * l), (2 * k, c),
                                      (2 * k, b * I), (1, 2 * k)))
                    out.add(TableVec("w", 0, lk), self.const(2 * I))
            elif sym.kind == "vm":
                if plus:
                    out.add(TableVec("v", 0, lk),
                            -self.lin((1, a), (1, 2 * l), (2 * k, c),
                                      (-2 * k, b * I), (1, 2 * k)))
                    out.add(TableVec("w", 0, lk), self.const(-2 * I))
            else:  # w
                out.add(TableVec("vp" if plus else "vm", 0, lk),
                        self.lin((k, b)) + self.lin((1, a), (1, 2 * l), (2 * k, c)).scale_raw(
                            0, 1 if plus else -1, 2))
        elif line == "xi12":
            if sym.kind == "v":
                out.add(TableVec("v", 0, lk), b)
            elif sym.kind in ("vp", "vm"):
                off = -I if sym.kind == "vp" else I
                out.add(TableVec(sym.kind, 0, lk), b + self.const(off))
            else:
                out.add(TableVec("v", 0, lk), self.c.scale_raw(-k, 0))
                out.add(TableVec("w", 0, lk), b)
        else:
            raise UsageError(f"unknown untwisted line {line!r}")
        return out

    def _act_twisted(self, line, k, sym) -> TableTerms:
        a, b, c = self.a, self.b, self.c
        l = sym.l
        out = TableTerms()
        l2k = l + 2 * k
        if line == "D":
            if sym.kind == "v":
                out.add(TableVec("v", 0, l2k), self.lin((1, a), (1, l), (k, c), (1, 2 * k)))
            elif sym.kind in ("vp", "vm"):
                out.add(TableVec(sym.kind, 0, l2k), self.lin((1, a), (1, l), (k, c), (1, k)))
            else:
                out.add(TableVec("v", 0, l2k), b.scale_raw(k * k, 0))
                out.add(TableVec("w", 0, l2k), self.lin((1, a), (1, l), (k, c)))
        elif line == "xi1":
            if sym.kind == "v":
                out.add(TableVec("vp", 0, l2k), self.const(Fraction(1, 2)))
                out.add(TableVec("vm", 0, l2k), self.const(Fraction(1, 2)))
            elif sym.kind in ("vp", "vm"):
                plus = sym.kind == "vp"
                coeff = self.lin((1, a), (1, l), (2 * k, c),
                                 ((2 * k) if plus else (-2 * k), b * I), (1, 2 * k))
                out.add(TableVec("v", 0, l2k), coeff.scale_raw(-1, 0, 2))
                out.add(TableVec("w", 0, l2k), self.const(I if plus else -I))
            else:
                cm = self.lin((1, a), (1, l), (2 * k, c), (-2 * k, b * I))
                cp = self.lin((1, a), (1, l), (2 * k, c), (2 * k, b * I))
                out.add(TableVec("vp", 0, l2k), cm.scale_raw(0, 1, 4))
                out.add(TableVec("vm", 0, l2k), cp.scale_raw(0, -1, 4))
        elif line == "xi2":
            if sym.kind == "v":
                out.add(TableVec("vm", 0, l2k + 1), self.const(I / 2))
                out.add(TableVec("vp", 0, l2k + 1), self.const(GaussRat(0, Fraction(-1, 2))))
            elif sym.kind in ("vp", "vm"):
                plus = sym.kind == "vp"
                # repaired: mode factor (2k+1), not 2k -- this generator
                # sits on the odd half of the lattice, like the matching
                # line on w below; the printed 2k breaks the module axiom
                coeff = self.lin((1, a), (1, l), (2 * k + 1, c),
                                 ((2 * k + 1) if plus else (-(2 * k + 1)), b * I),
                                 (1, 2 * k + 1))
                out.add(TableVec("v", 0, l2k + 1),
                        coeff.scale_raw(0, -1 if plus else 1, 2))
                out.add(TableVec("w", 0, l2k + 1), self.const(-1))
            else:
                cm = self.lin((1, a), (1, l), (2 * k + 1, c), (-(2 * k + 1), b * I))
                cp = self.lin((1, a), (1, l), (2 * k + 1, c), ((2 * k + 1), b * I))
                out.add(TableVec("vp", 0, l2k + 1), cm.scale_raw(1, 0, 4))
                out.add(TableVec("vm", 0, l2k + 1), cp.scale_raw(1, 0, 4))
        elif line == "xi12":
            if sym.kind == "v":
                out.add(TableVec("v", 0, l2k + 1), b)
            elif sym.kind in ("vp", "vm"):
                off = -I if sym.kind == "vp" else I
                out.add(TableVec(sym.kind, 0, l2k + 1), b + self.const(off))
            else:
                out.add(TableVec("v", 0, l2k + 1),
                        self.c.scale_raw(-(2 * k + 1), 0, 2))
                out.add(TableVec("w", 0, l2k + 1), b)
        else:
            raise UsageError(f"unknown twisted line {line!r}")
        return out

    def lines(self):
        if self.twisted:
            ops = [("D", [(0, 1)]), ("xi1", [(iset(1), 1)]),
                   ("xi2", [(iset(2), 1)]), ("xi12", [(iset(1, 2), 1)])]
        else:
            ops = [("D", [(0, 1)]),
                   ("P+", [(iset(1), 1), (iset(2), I)]),
                   ("P-", [(iset(1), 1), (iset(2), GaussRat(0, -1))]),
                   ("xi12", [(iset(1, 2), 1)])]
        return ops


class N3Table(BaseTable):
    """The explicit N=3 action list for eps = (e,e,e), e in {0,1}.

    Written with m = two_m/2 and sh = 1 - e; the representation basis is
    v_0..v_{2m}.  Table symbols sit at t-exponents 2l (kinds v, w+, w-, u)
    and 2l + sh (kinds v+, v-, w, ub).
    """

    KINDS = ("v", "vp", "vm", "w", "wp", "wm", "u", "ub")

    def __init__(self, module: TensorModule):
        super().__init__(module)
        if module.cfg.N != 3 or module.cfg.eps not in ((1, 1, 1), (0, 0, 0)):
            raise UsageError("N=3 table covers eps=(1,1,1) and eps=(0,0,0)")
        self.e = module.cfg.eps[0]
        self.sh = 1 - self.e
        self.two_m = module.rep.dim - 1
        self.mm = Fraction(self.two_m, 2)
        if self.e == 0 and module.sector_delta != 0:
            raise UsageError("the all-zero twist table lives in sector 0")

    # -- scalar builders ---------------------------------------------
    def num(self, x) -> Scalar:
        return Scalar.const(self.params, Fraction(x))

    def inum(self, x) -> Scalar:
        return Scalar.const(self.params, GaussRat(0, Fraction(x)))

    def a2l(self, l: int) -> Scalar:
        return self.a + Scalar.const(self.params, 2 * l)

    # -- basis map -----------------------------------------------------
    def _exp(self, kind: str, l: int) -> int:
        if kind in ("v", "wp", "wm", "u"):
            return 2 * l
        return 2 * l + self.sh

    def to_modvec(self, sym: TableVec) -> ModVec:
        if not (0 <= sym.r <= self.two_m):
            return ModVec(self.params, {})
        one, i_s, mi_s = self.one, self.i, self.minus_i
        l = self._exp(sym.kind, sym.l)
        k = sym.kind
        if k == "v":
            terms = {ModBasisVec(l, 0, sym.r): one}
        elif k in ("vp", "vm"):
            terms = {ModBasisVec(l, iset(1), sym.r): one,
                     ModBasisVec(l, iset(2), sym.r): i_s if k == "vp" else mi_s}
        elif k == "w":
            terms = {ModBasisVec(l, iset(3), sym.r): one}
        elif k in ("wp", "wm"):
            terms = {ModBasisVec(l, iset(1, 3), sym.r): one,
                     ModBasisVec(l, iset(2, 3), sym.r): i_s if k == "wp" else mi_s}
        elif k == "u":
            terms = {ModBasisVec(l, iset(1, 2), sym.r): one}
        elif k == "ub":
            terms = {ModBasisVec(l, iset(1, 2, 3), sym.r): one}
        else:
            raise UsageError(f"unknown table symbol kind {k!r}")
        return ModVec(self.params, terms)

    def table_sym_weight(self, sym: TableVec) -> int:
        return self._exp(sym.kind, sym.l)

    def syms_at_table_l(self, l: int):
        return [TableVec(k, r, l) for k in self.KINDS
                for r in range(self.two_m + 1)]

    # -- the table -----------------------------------------------------
    def act(self, line: str, k: int, sym: TableVec) -> TableTerms:
        a, c = self.a, self.c
        sh = self.sh
        m2 = self.two_m
        mm = self.mm
        r, l = sym.r, sym.l
        out = TableTerms()
        kind = sym.kind

        if kind == "v":
            if line == "D":
                out.add(TableVec("v", r, l + k),
                        self.a2l(l) + c.scale_raw(k, 0) + self.num(2 * k))
            elif line in ("P+", "P-"):
                out.add(TableVec("vp" if line == "P+" else "vm", r, l + k),
                        self.num(1))
            elif line == "xi3":
                out.add(TableVec("w", r, l + k), self.num(1))
            elif line == "xi12":
                out.add(TableVec("v", r, l + k + sh), self.inum(-(mm - r)))
            elif line == "Q+":
                # repaired: output index r-1 (the source prints r+1, which
                # breaks the module's own ladder convention)
                out.add(TableVec("v", r - 1, l + k + sh), self.num(r))
            elif line == "Q-":
                out.add(TableVec("v", r + 1, l + k + sh), self.num(r - m2))
            # xi123 acts as zero

        elif kind in ("vp", "vm"):
            pm = 1 if kind == "vp" else -1
            if line == "D":
                out.add(TableVec(kind, r, l + k),
                        self.a2l(l) + self.num(sh + k) + c.scale_raw(k, 0))
            elif line in ("P+", "P-"):
                lpm = 1 if line == "P+" else -1
                if lpm != pm:
                    coeff = self.a2l(l) + (c + self.num(2)).scale_raw(sh, 0) \
                        + (c + self.num(1 + pm * (mm - r))).scale_raw(2 * k, 0)
                    out.add(TableVec("v", r, l + k + sh), -coeff)
                    out.add(TableVec("u", r, l + k + sh), self.inum(2 * pm))
            elif line == "xi3":
                out.add(TableVec("v", r - pm, l + k + sh),
                        self.num((r - mm + pm * mm) * k))
                out.add(TableVec("wp" if pm == 1 else "wm", r, l + k + sh),
                        self.num(-1))
            elif line == "xi12":
                out.add(TableVec(kind, r, l + k + sh), self.inum(-(mm - r + pm)))
            elif line == "Q+":
                out.add(TableVec(kind, r - 1, l + k + sh), self.num(r))
                if pm == -1:
                    out.add(TableVec("w", r, l + k + sh), self.num(2))
            elif line == "Q-":
                out.add(TableVec(kind, r + 1, l + k + sh), self.num(r - m2))
                if pm == 1:
                    out.add(TableVec("w", r, l + k + sh), self.num(2))
            elif line == "xi123":
                out.add(TableVec("v", r - pm, l + k + 2 * sh),
                        self.inum(mm + pm * (r - mm)))

        elif kind == "w":
            if line == "D":
                out.add(TableVec("w", r, l + k),
                        self.a2l(l) + self.num(sh + k) + c.scale_raw(k, 0))
            elif line in ("P+", "P-"):
                pm = 1 if line == "P+" else -1
                out.add(TableVec("v", r - pm, l + k + sh),
                        self.num((mm - r - pm * mm) * k))
                out.add(TableVec("wp" if pm == 1 else "wm", r, l + k + sh),
                        self.num(1))
            elif line == "xi3":
                coeff = self.a2l(l) + (c + self.num(2)).scale_raw(sh, 0) \
                    + (c + self.num(1)).scale_raw(2 * k, 0)
                out.add(TableVec("v", r, l + k + sh), coeff.scale_raw(-1, 0, 2))
            elif line in ("Q+", "Q-"):
                pm = 1 if line == "Q+" else -1
                out.add(TableVec("vp" if pm == 1 else "vm", r, l + k + sh),
                        self.num(-1))
                out.add(TableVec("w", r - pm, l + k + sh),
                        self.num(r - mm + pm * mm))
            elif line == "xi12":
                out.add(TableVec("w", r, l + k + sh), self.inum(r - mm))
            elif line == "xi123":
                out.add(TableVec("v", r, l + k + 2 * sh), self.inum(mm - r))

        elif kind in ("wp", "wm"):
            pm = 1 if kind == "wp" else -1
            if line == "D":
                # repaired: output index r -+ 1 (mangled "r-mp1" fragment)
                # repaired: quadratic factor k(k - 1 + e); the printed
                # k(k + 1 - e) fails the module axiom for e = 0
                out.add(TableVec("v", r - pm, l + k),
                        self.num((r - mm + pm * mm) * k * (k - sh)))
                out.add(TableVec(kind, r, l + k),
                        self.a2l(l) + c.scale_raw(k, 0))
            elif line in ("P+", "P-"):
                lpm = 1 if line == "P+" else -1
                if lpm == 1:
                    out.add(TableVec("vp" if pm == 1 else "vm", r - 1, l + k),
                            self.num(r * k))
                else:
                    out.add(TableVec("vp" if pm == 1 else "vm", r + 1, l + k),
                            self.num((r - m2) * k))
                if lpm != pm:
                    inner = self.a2l(l) + c.scale_raw(sh, 0) \
                        + (c + self.num(-lpm * (mm - r))).scale_raw(2 * k, 0)
                    # (1 -+ 1) picks out the opposite-sign line, factor 2
                    out.add(TableVec("w", r, l + k), -inner)
                    out.add(TableVec("ub", r, l + k), self.inum(-2 * lpm))
            elif line == "xi3":
                coeff = self.a2l(l) + c.scale_raw(2 * k, 0) + c.scale_raw(sh, 0)
                out.add(TableVec("vp" if pm == 1 else "vm", r, l + k),
                        coeff.scale_raw(1, 0, 2))
                # repaired: coefficient (r - m +- m)k, matching the
                # ladder convention (the source prints -+ m)
                out.add(TableVec("w", r - pm, l + k),
                        self.num((r - mm + pm * mm) * k))
            elif line == "xi12":
                out.add(TableVec("v", r - pm, l + k + sh),
                        self.inum((mm + pm * (r - mm)) * (k + sh)))
                out.add(TableVec(kind, r, l + k + sh),
                        self.inum(-(mm - r + pm)))
            elif line in ("Q+", "Q-"):
                lpm = 1 if line == "Q+" else -1
                if lpm == 1:
                    out.add(TableVec(kind, r - 1, l + k + sh), self.num(r))
                else:
                    out.add(TableVec(kind, r + 1, l + k + sh), self.num(r - m2))
                if lpm != pm:
                    base = self.num(mm - r) - c.scale_raw(lpm, 0)
                    sgn = 2 if lpm == 1 else -2
                    out.add(TableVec("v", r, l + k + sh),
                            base.scale_raw(sgn * (k + sh), 0))
                    out.add(TableVec("u", r, l + k + sh),
                            self.inum(-sgn))
            elif line == "xi123":
                out.add(TableVec("vp" if pm == 1 else "vm", r, l + k + sh),
                        self.inum(-(mm - r + pm)))
                out.add(TableVec("w", r - pm, l + k + sh),
                        self.inum(mm + pm * (r - mm)))

        elif kind == "u":
            if line == "D":
                out.add(TableVec("v", r, l + k),
                        self.inum((r - mm) * k * (k - sh)))
                out.add(TableVec("u", r, l + k),
                        self.a2l(l) + c.scale_raw(k, 0))
            elif line in ("P+", "P-"):
                pm = 1 if line == "P+" else -1
                coeff = self.num(2 * (r - mm) * k) \
                    + (self.a2l(l) + c.scale_raw(2 * k + sh, 0)).scale_raw(pm, 0)
                out.add(TableVec("vp" if pm == 1 else "vm", r, l + k),
                        coeff.scale_raw(0, 1, 2))
            elif line == "xi3":
                out.add(TableVec("vm", r - 1, l + k), self.inum(Fraction(r * k, 2)))
                out.add(TableVec("vp", r + 1, l + k),
                        self.inum(Fraction((m2 - r) * k, 2)))
                out.add(TableVec("ub", r, l + k), self.num(1))
            elif line == "xi12":
                out.add(TableVec("u", r, l + k + sh), self.inum(r - mm))
                out.add(TableVec("v", r, l + k + sh), c.scale_raw(-(k + sh), 0))
            elif line in ("Q+", "Q-"):
                pm = 1 if line == "Q+" else -1
                out.add(TableVec("v", r - pm, l + k + sh),
                        self.inum((-mm - pm * (r - mm)) * (k + sh)))
                out.add(TableVec("u", r - pm, l + k + sh),
                        self.num(r - mm + pm * mm))
                out.add(TableVec("wp" if pm == 1 else "wm", r, l + k + sh),
                        self.inum(pm))
            elif line == "xi123":
                out.add(TableVec("vm", r - 1, l + k + sh), self.num(Fraction(-r, 2)))
                out.add(TableVec("vp", r + 1, l + k + sh),
                        self.num(Fraction(m2 - r, 2)))
                out.add(TableVec("w", r, l + k + sh), self.num(-1))

        elif kind == "ub":
            if line == "D":
                out.add(TableVec("vm", r - 1, l + k),
                        self.inum(Fraction(-r * k * (k - sh), 2)))
                out.add(TableVec("vp", r + 1, l + k),
                        self.inum(Fraction(-(m2 - r) * k * (k - sh), 2)))
                out.add(TableVec("w", r, l + k),
                        self.inum(-(mm - r) * k * (k - sh)))
                out.add(TableVec("ub", r, l + k),
                        self.a2l(l) + (c - self.num(1)).scale_raw(k, 0)
                        + self.num(sh))
            elif line in ("P+", "P-"):
                pm = 1 if line == "P+" else -1
                out.add(TableVec("v", r - pm, l + k + sh),
                        self.inum((mm + pm * (r - mm)) * k * (k + sh)))
                out.add(TableVec("u", r - pm, l + k + sh),
                        self.num((mm - r - pm * mm) * k))
                # repaired: the inner mode expression is
                # a + 2l + c(2k+1-e) - 2k; the printed c(2k-1-e) breaks
                # the module axiom
                coeff = self.num(2 * (r - mm) * k) \
                    + (self.a2l(l) + c.scale_raw(2 * k + sh, 0)
                       + self.num(-2 * k)).scale_raw(pm, 0)
                out.add(TableVec("wp" if pm == 1 else "wm", r, l + k + sh),
                        coeff.scale_raw(0, 1, 2))
            elif line == "xi3":
                out.add(TableVec("v", r, l + k + sh),
                        self.inum((mm - r) * k * (k + sh)))
                out.add(TableVec("wm", r - 1, l + k + sh),
                        self.inum(Fraction(r * k, 2)))
                out.add(TableVec("wp", r + 1, l + k + sh),
                        self.inum(Fraction((m2 - r) * k, 2)))
                coeff = self.a2l(l) + c.scale_raw(sh, 0) \
                    + (c - self.num(1)).scale_raw(2 * k, 0)
                out.add(TableVec("u", r, l + k + sh), coeff.scale_raw(-1, 0, 2))
            elif line == "xi12":
                # repaired: (1/2) r leading coefficient; single w factor
                out.add(TableVec("vm", r - 1, l + k + sh),
                        self.num(Fraction(r * (k + sh), 2)))
                out.add(TableVec("vp", r + 1, l + k + sh),
                        self.num(Fraction(-(m2 - r) * (k + sh), 2)))
                out.add(TableVec("w", r, l + k + sh),
                        (self.num(1) - c).scale_raw(k + sh, 0))
                out.add(TableVec("ub", r, l + k + sh), self.inum(-(mm - r)))
            elif line in ("Q+", "Q-"):
                pm = 1 if line == "Q+" else -1
                coeff = (self.num(mm - r + pm) - c.scale_raw(pm, 0)).scale_raw(
                    0, k + sh)
                out.add(TableVec("vp" if pm == 1 else "vm", r, l + k + sh), coeff)
                # repaired: w index r -+ 1 (the source drops the r)
                out.add(TableVec("w", r - pm, l + k + sh),
                        self.inum(-(mm + pm * (r - mm)) * (k + sh)))
                out.add(TableVec("ub", r - pm, l + k + sh),
                        self.num(r - mm + pm * mm))
            elif line == "xi123":
                coeff = self.a2l(l) + (self.num(1) - c).scale_raw(2 * k, 0) \
                    + (self.num(4) - c.scale_raw(3, 0)).scale_raw(sh, 0)
                out.add(TableVec("v", r, l + k + 2 * sh),
                        coeff.scale_raw(-1, 0, 2))
                out.add(TableVec("u", r, l + k + 2 * sh), self.inum(mm - r))
                out.add(TableVec("wm", r - 1, l + k + 2 * sh),
                        self.num(Fraction(-r, 2)))
                out.add(TableVec("wp", r + 1, l + k + 2 * sh),
                        self.num(Fraction(m2 - r, 2)))
        return out

    def lines(self):
        return [("D", [(0, 1)]),
                ("P+", [(iset(1), 1), (iset(2), I)]),
                ("P-", [(iset(1), 1), (iset(2), GaussRat(0, -1))]),
                ("xi3", [(iset(3), 1)]),
                ("xi12", [(iset(1, 2), 1)]),
                ("Q+", [(iset(1, 3), 1), (iset(2, 3), I)]),
                ("Q-", [(iset(1, 3), 1), (iset(2, 3), GaussRat(0, -1))]),
                ("xi123", [(iset(1, 2, 3), 1)])]


def make_table(module: TensorModule):
    if module.cfg.N == 2:
        return N2Table(module)
    if module.cfg.N == 3:
        return N3Table(module)
    raise UsageError("tables exist for N=2 and N=3 only")


def compare_table(module: TensorModule, table, k_range, table_l_range):
    """Compare the table action against the generic action line by line.

    Returns (discrepancies, tuples_checked); each discrepancy carries the
    line id, the inputs, both values, and the generic one is authoritative.
    The ``k + 1`` below is deliberate: the tables are transcribed in modes
    ``k = p - 1`` of the D-symbols ``D[t^p, xi_I]``, so line ``k`` is
    compared with the stored exponent ``p = k + 1``.
    """
    params = module.params
    disc = []
    checked = 0
    for line_id, parts in table.lines():
        for k in k_range:
            op = AlgebraElement.zero(params)
            for imask, coeff in parts:
                op = op + AlgebraElement.d_symbol(params, k + 1, imask,
                                                  Scalar.const(params, coeff))
            for tl in table_l_range:
                for sym in table.syms_at_table_l(tl):
                    checked += 1
                    src = table.to_modvec(sym)
                    generic = module.act(op, src)
                    stated = table.act(line_id, k, sym)
                    mapped = ModVec(params, {})
                    for sym2, coeff in stated.items():
                        mapped = mapped + table.to_modvec(sym2).scale(coeff)
                    if not (generic - mapped).is_zero():
                        disc.append({
                            "line": f"D[t^k+1]{_line_suffix(line_id)} . {sym.kind}",
                            "inputs": f"line={line_id} k={k} sym={sym}",
                            "table": str(mapped),
                            "generic": str(generic),
                        })
    return disc, checked


def _line_suffix(line_id: str) -> str:
    return {"D": "", "P+": "xi{1}+i*xi{2}", "P-": "xi{1}-i*xi{2}",
            "xi1": "xi{1}", "xi2": "xi{2}", "xi3": "xi{3}",
            "xi12": "xi{1,2}", "Q+": "xi{1,3}+i*xi{2,3}",
            "Q-": "xi{1,3}-i*xi{2,3}", "xi123": "xi{1,2,3}"}[line_id]
