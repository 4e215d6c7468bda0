"""Explicit action tables for N=2 and N=3, used as independent oracles
against the generic recursive action.

The tables are transcribed line by line in their original diagonal bases
(N=2: eps = (1,1) or (1,0); N=3: eps = (e,e,e), e in {0,1}).  Each table
class states its basis once, as ``BASIS``: a kind maps to its prefix terms
``(J, c)``, and the symbol ``(kind, r, l)`` is ``sum c xi_J`` times the
representation vector ``r`` at the kind's t-exponent (the zero vector when
``r`` is outside the representation).  Each line of ``LINES`` acts by
``D[t^(k+1), prefix]`` with one kind's prefix (P+- has v+-'s, Q+- has
w+-'s); only the twisted N=2 table's xi1 and xi2 have prefixes of their own.

Several source lines arrive mangled or internally inconsistent with the
ladder conventions; the repaired readings used here are marked
``# repaired:``.  The generic action is the source of truth: the
comparator reports every discrepancy, it never silently accepts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import AlgebraElement
from .exactnum import (_Batch, _Memo, _Packer, GaussRat, I, Scalar,
                       UsageError, add_term, as_scalar)
from .grassmann import format_monomial, iset
from .report import violation
from .tensmod import ModBasisVec, ModVec, TensorModule


class TableVec(NamedTuple):
    kind: str
    r: int
    l: int


class TableTerms(dict):
    """TableVec -> Scalar sums; a zero entry maps to the zero vector."""

    add = add_term


class BaseTable:
    """A table over the class's ``BASIS`` (kind -> prefix terms) and
    ``LINES`` (line id -> prefix terms, in table order)."""

    BASIS: dict
    LINES: dict

    def __init__(self, module: TensorModule):
        self.m = module
        self.params = module.params
        self.a = module.a
        self.c = module.rep.z_scalar
        # the prefix coefficients, built once (Scalars are immutable)
        self.coeff = {1: Scalar.const(self.params, 1),
                      "i": Scalar.const(self.params, I),
                      "-i": Scalar.const(self.params, -I)}

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

    def to_modvec(self, sym: TableVec) -> ModVec:
        terms = self.BASIS.get(sym.kind)
        if terms is None:
            raise UsageError(f"unknown table symbol kind {sym.kind!r}")
        if not 0 <= sym.r < self.m.rep.dim:
            return ModVec(self.params, {})
        l = self.table_sym_weight(sym)
        return ModVec(self.params, {ModBasisVec(l, J, sym.r): self.coeff[c]
                                    for J, c in terms})

    def syms_at_table_l(self, l: int):
        return [TableVec(k, r, l) for k in self.BASIS
                for r in range(self.m.rep.dim)]

    def lines(self):
        return self.LINES.items()


class N2Table(BaseTable):
    """The two explicit N=2 action lists (one per sector)."""

    BASIS = {"v": ((0, 1),),
             "vp": ((iset(1), 1), (iset(2), "i")),
             "vm": ((iset(1), 1), (iset(2), "-i")),
             "w": ((iset(1, 2), 1),)}
    LINES = {"D": BASIS["v"], "P+": BASIS["vp"], "P-": BASIS["vm"],
             "xi12": BASIS["w"]}
    TWISTED_LINES = {"D": BASIS["v"], "xi1": ((iset(1), 1),),
                     "xi2": ((iset(2), 1),), "xi12": BASIS["w"]}

    def __init__(self, module: TensorModule):
        super().__init__(module)
        if module.cfg.N != 2:
            raise UsageError("N=2 table requires an N=2 module")
        if module.cfg.eps == (1, 1):
            self.twisted = False
        elif module.cfg.eps == (1, 0):
            self.twisted = True
            self.LINES = self.TWISTED_LINES
        else:
            raise UsageError("N=2 table covers eps=(1,1) and eps=(1,0) only")
        self.b = module.rep.gen[(1, 2)][0][0]

    def table_sym_weight(self, sym: TableVec) -> int:
        return sym.l if self.twisted else 2 * sym.l

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
        else:  # xi12
            if sym.kind == "v":
                out.add(TableVec("v", 0, lk), b)
            elif sym.kind in ("vp", "vm"):
                off = -I if sym.kind == "vp" else I
                out.add(TableVec(sym.kind, 0, lk), b + self.const(off))
            else:
                out.add(TableVec("v", 0, lk), self.c.scale_raw(-k, 0))
                out.add(TableVec("w", 0, lk), b)
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
        else:  # xi12
            if sym.kind == "v":
                out.add(TableVec("v", 0, l2k + 1), b)
            elif sym.kind in ("vp", "vm"):
                off = -I if sym.kind == "vp" else I
                out.add(TableVec(sym.kind, 0, l2k + 1), b + self.const(off))
            else:
                out.add(TableVec("v", 0, l2k + 1),
                        self.c.scale_raw(-(2 * k + 1), 0, 2))
                out.add(TableVec("w", 0, l2k + 1), b)
        return out


class N3Table(BaseTable):
    """The explicit N=3 action list for eps = (e,e,e), e in {0,1}.

    Written with m = two_m/2 and sh = 1 - e; the representation basis is
    v_0..v_{2m}.  A kind with an even prefix (v, w+, w-, u) sits at
    t-exponent 2l, one with an odd prefix (v+, v-, w, ub) at 2l + sh.
    """

    BASIS = {"v": ((0, 1),),
             "vp": ((iset(1), 1), (iset(2), "i")),
             "vm": ((iset(1), 1), (iset(2), "-i")),
             "w": ((iset(3), 1),),
             "wp": ((iset(1, 3), 1), (iset(2, 3), "i")),
             "wm": ((iset(1, 3), 1), (iset(2, 3), "-i")),
             "u": ((iset(1, 2), 1),),
             "ub": ((iset(1, 2, 3), 1),)}
    LINES = {"D": BASIS["v"], "P+": BASIS["vp"], "P-": BASIS["vm"],
             "xi3": BASIS["w"], "xi12": BASIS["u"], "Q+": BASIS["wp"],
             "Q-": BASIS["wm"], "xi123": BASIS["ub"]}

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
        return Scalar.const(self.params, x)

    def inum(self, x) -> Scalar:
        return self.num(x).scale_raw(0, 1)

    def a2l(self, l: int) -> Scalar:
        return self.a + Scalar.const(self.params, 2 * l)

    def table_sym_weight(self, sym: TableVec) -> int:
        return 2 * sym.l + self.sh * (self.BASIS[sym.kind][0][0].bit_count() & 1)

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


def make_table(module: TensorModule):
    if module.cfg.N == 2:
        return N2Table(module)
    if module.cfg.N == 3:
        return N3Table(module)
    raise UsageError("tables exist for N=2 and N=3 only")


def compare_table(module: TensorModule, table, k_range, table_l_range):
    """Compare the table action against the generic action line by line.

    Returns (violations, tuples_checked): each discrepancy is a
    :func:`~superkon.report.violation` with the table value as ``lhs`` and
    the generic value, which is authoritative, as ``rhs``.
    The ``k + 1`` below is deliberate: the tables are transcribed in modes
    ``k = p - 1`` of the D-symbols ``D[t^p, xi_I]``, so line ``k`` is
    compared with the stored exponent ``p = k + 1``.

    The filter: the tuples of one ``(line, k)`` form one
    :class:`~superkon.exactnum._Batch`, one identity per table symbol.  Its
    residual is the line's D-symbols on the symbol's vector, each image of
    a basis vector read from :meth:`~superkon.tensmod.TensorModule.act_basis_d`
    and packed once, minus the table's stated terms, each symbol's vector
    packed once.  A flagged tuple goes to the reference,
    :meth:`~superkon.tensmod.TensorModule.act` against the stated terms as
    ModVecs, which decides it and writes the witness.
    """
    params = module.params
    packer = _Packer(params)
    packed = _Memo(lambda sym: packer.image(table.to_modvec(sym).terms))
    # scaled[sym, c]: the symbol's vector times the prefix coefficient c,
    # as (basis vector, packed coefficient) pairs
    scaled = _Memo(lambda key: [
        (bv, packer.coeff(cv * table.coeff[key[1]]))
        for bv, cv in table.to_modvec(key[0]).terms.items()])
    images = _Memo(lambda key: packer.image(module.act_basis_d(*key)))
    syms = [sym for tl in table_l_range for sym in table.syms_at_table_l(tl)]
    bad = []
    checked = 0
    for line_id, terms in table.lines():
        line_text = f"D[t^k+1]{_line_suffix(terms)}"
        for k in k_range:
            op = AlgebraElement.zero(params)
            for imask, c in terms:
                op = op + AlgebraElement.d_symbol(params, k + 1, imask,
                                                  table.coeff[c])
            batch = _Batch(packer, len(syms))
            for j, sym in enumerate(syms):
                for imask, c in terms:
                    for bv, cv in scaled[sym, c]:
                        batch.add(j, cv, images[k + 1, imask, bv])
                for sym2, coeff in table.act(line_id, k, sym).items():
                    batch.add(j, packer.coeff(coeff), packed[sym2], -1)
            checked += len(syms)
            for j in batch.flagged():
                sym = syms[j]
                generic = module.act(op, table.to_modvec(sym))
                mapped = ModVec(params, {})
                for sym2, coeff in table.act(line_id, k, sym).items():
                    mapped = mapped + table.to_modvec(sym2).scale(coeff)
                if not (generic - mapped).is_zero():
                    bad.append(violation(
                        f"line={line_id} k={k} sym={sym}",
                        lhs=mapped, rhs=generic,
                        diff=f"line {line_text} . {sym.kind}: table "
                             "disagrees; generic value is authoritative"))
    return bad, checked


def _line_suffix(terms) -> str:
    """A line's prefix as its witness shows it after ``D[t^k+1]``:
    ``xi{1}+i*xi{2}`` for P+, empty for D."""
    sign = {1: "+", "i": "+i*", "-i": "-i*"}
    return "".join(sign[c] + format_monomial(0, J)
                   for J, c in terms if J).lstrip("+")
