"""Named submodules of the N=2 and N=3 tensor modules, and the
intertwining-map checks between modules (sector shift, quotient maps,
and the identity control).

Submodule generators are returned as explicit vectors per weight; the
displayed spans:

* N=2, both sectors, W+ on ``b = i c`` and W- on ``b = -i c`` (off its
  locus a W is not closed, and asking for it is a UsageError):
  ``W+ = span{ v+_l, (1/2)(a+2l) v_l - i w_l }`` (untwisted weights),
  ``W+ = span{ v+_l, (a+l) v_l - 2i w_l }`` (twisted weights), and the
  mirrored ``W-`` with the opposite imaginary sign;
* N=2 twisted, ``a=1, b=c=0``, sector 0: the single vector ``w_{-1}``;
* N=3, ``c = -m < 0``: the span of the four families u-bold, ubar-bold
  (r = 0..2m) and v-bold, w-bold (r = 0..2m+2), with out-of-range
  representation indices contributing zero.

The quotient isomorphism checks are seeded from the displayed generator
images and propagated: each new relation ``pair = (source mod submodule,
image)`` is inserted into a pivot-limited echelon, so an inconsistent
image (or a submodule vector with a nonzero image) surfaces as a
violation.  One display is corrected here: the untwisted quotient image
of ``v-_l`` must be ``-(a+2l) v_l + 2i w_l``; the printed
``-2(a+2l) v_l + 2i w_l`` fails the plain-series intertwining identically
in ``k``.  The corrected image is computed as -2 times the target's second
W+ generator, by the one helper that states both W displays on both twists
(mirrored for W-).
"""

from __future__ import annotations

import time
from fractions import Fraction

from .exactnum import GaussRat, Scalar, UsageError, pair_content
from .linalg import WeightSpaces
from .repn import build_so2, build_so3_vm
from .report import Report, Window, finish, violation
from .tables import N2Table, N3Table, TableVec
from .tensmod import ModBasisVec, ModVec, TensorModule, pairs_text


def _table_pick(table, kind, r, table_l) -> ModVec:
    return table.to_modvec(TableVec(kind, r, table_l))


def _w_generators(table: N2Table, sign: int, lam: int) -> list:
    """The two displayed generators of W+ (``sign`` 1) or W- (``sign`` -1)
    at weight ``lam``: ``v+`` (``v-``) and ``(a + lam) v - 2i*sign*w``, the
    second halved on untwisted weights.  Untwisted weights are even; an odd
    one holds no generator."""
    if table.twisted:
        tl, half = lam, 1
    elif lam % 2:
        return []
    else:
        tl, half = lam // 2, 2
    return [_table_pick(table, "vp" if sign > 0 else "vm", 0, tl),
            _table_pick(table, "v", 0, tl).scale(
                (table.a + table.const(lam)).scale_raw(1, 0, half))
            + _table_pick(table, "w", 0, tl).scale(
                table.const(GaussRat(0, Fraction(-2 * sign, half))))]


def named_submodule(module: TensorModule, name: str, l_range) -> list:
    """Generating vectors of a named submodule, for weights in l_range."""
    if name == "Cw_minus1":
        _require(module.cfg.eps == (1, 0), "Cw_minus1 lives in the N=2 twisted sector")
        _require(module.sector_delta == 0, "Cw_minus1 lives in sector 0")
        _require(module.a == Scalar.const(module.params, 1), "Cw_minus1 requires a = 1")
        b = module.rep.gen[(1, 2)][0][0]
        _require(b.is_zero() and module.rep.z_scalar.is_zero(),
                 "Cw_minus1 requires b = c = 0")
        return [ModVec.basis(module.params, ModBasisVec(-1, 3, 0))]

    if name in ("W_plus", "W_minus"):
        _require(module.cfg.N == 2, f"{name} is an N=2 submodule")
        sign = 1 if name == "W_plus" else -1
        _require_w_locus(module, sign, name)
        table = N2Table(module)
        return [g for lam in l_range for g in _w_generators(table, sign, lam)
                if not g.is_zero()]

    if name == "F_prime":
        _require(module.cfg.N == 3, "F_prime is an N=3 submodule")
        table = N3Table(module)
        two_m = table.two_m
        _require(two_m > 0, "F_prime requires a nontrivial representation")
        c = module.rep.z_scalar
        _require(c == Scalar.const(module.params, Fraction(-two_m, 2)),
                 "F_prime requires the central scalar to equal minus the "
                 "representation spin")
        sh = table.sh
        k = table.const
        out = []

        def gen(tl, *terms):
            # one generator from (kind, r, coefficient) table vectors at
            # table weight tl; a zero sum is dropped
            g = sum((_table_pick(table, kind, r, tl).scale(x) for kind, r, x in terms),
                    ModVec(module.params, {}))
            if not g.is_zero():
                out.append(g)

        def csum(tl):
            # a + 2l + c(1 - e)
            return module.a + k(2 * tl) + c.scale_raw(sh, 0)

        for lam in l_range:
            # family at even offsets: u-bold, w-bold; at shifted offsets:
            # ubar-bold, v-bold
            if lam % 2 == 0:
                tl = lam // 2
                s = csum(tl)
                for r in range(two_m + 1):
                    gen(tl, ("u", r, k(two_m + 1 - r)),
                        ("v", r, s.scale_raw(0, two_m + 1 - r, 2)),
                        ("wm", r - 1, k(GaussRat(0, r))))
                for r in range(two_m + 3):
                    gen(tl, ("wp", r, k((two_m - r + 2) * (two_m - r + 1))),
                        ("v", r - 1, s.scale_raw(-r * (two_m - r + 2), 0)),
                        ("wm", r - 2, k(-r * (r - 1))))
            if (lam - sh) % 2 == 0:
                tl = (lam - sh) // 2
                s = csum(tl)
                for r in range(two_m + 1):
                    gen(tl, ("ub", r, k(two_m + 1 - r)),
                        ("w", r, s.scale_raw(0, two_m + 1 - r, 2)),
                        ("vm", r - 1, s.scale_raw(0, r, 2)))
                for r in range(two_m + 3):
                    gen(tl, ("vp", r, k((two_m - r + 2) * (two_m - r + 1))),
                        ("w", r - 1, k(-2 * r * (two_m - r + 2))),
                        ("vm", r - 2, k(-r * (r - 1))))
        return out

    raise UsageError(f"unknown submodule name {name!r}")


def _require(cond, msg):
    if not cond:
        raise UsageError(msg)


def _require_w_locus(module: TensorModule, sign: int, what: str):
    """W+ (``sign`` 1) and W- (``sign`` -1), and the quotient maps by them,
    exist only on the so_2 locus ``b = sign*i*c``.  The evaluated checks
    pass the module with its inputs evaluated, so ``b`` and ``c`` may come
    from the assignment."""
    b = module.rep.gen[(1, 2)][0][0]
    _require(b == module.rep.z_scalar.scale_raw(0, sign),
             f"{what} requires b = {'' if sign > 0 else '-'}i c")


# ---------------------------------------------------------------------------
# intertwining maps

ISO_NAMES = ("sector_shift", "identity", "quotient_wplus", "quotient_wminus",
             "quotient_fprime")


def iso_target(source: TensorModule, name: str) -> TensorModule:
    """The canonical target module for a named map."""
    params = source.params
    one = Scalar.const(params, 1)
    if name == "sector_shift":
        _require(source.sector_delta == 1, "sector_shift starts in sector 1")
        return TensorModule(source.cfg, source.rep, source.a + one, 0)
    if name == "identity":
        return source
    if name in ("quotient_wplus", "quotient_wminus"):
        _require(source.cfg.N == 2, f"{name} is an N=2 map")
        sign = 1 if name == "quotient_wplus" else -1
        _require_w_locus(source, sign, name)
        c2 = source.rep.z_scalar + one
        rep2 = build_so2(c2.scale_raw(0, sign), c2, params)
        return TensorModule(source.cfg, rep2, source.a, source.sector_delta)
    if name == "quotient_fprime":
        _require(source.cfg.N == 3, "quotient_fprime is an N=3 map")
        two_m = source.rep.dim - 1
        # the target is built from V_{m-1}, which does not exist at m = 1/2
        _require(two_m >= 2, "quotient_fprime requires spin at least 1")
        _require(source.rep.z_scalar ==
                 Scalar.const(params, Fraction(-two_m, 2)),
                 "quotient_fprime requires the central scalar -m")
        sh = 1 - source.cfg.eps[0]
        rep2 = build_so3_vm(two_m - 2,
                            Scalar.const(params, Fraction(-(two_m - 2), 2)),
                            params)
        return TensorModule(source.cfg, rep2,
                            source.a + Scalar.const(params, sh),
                            source.sector_delta)
    raise UsageError(f"unknown map name {name!r}")


def iso_check_map(source: TensorModule, name: str, w: Window,
                  params: dict | None = None,
                  target: TensorModule | None = None) -> Report:
    """Verify the intertwining relation of a named map over a window.

    The window's symbols are those of
    :meth:`~superkon.tensmod.TensorModule.window_ops`.  Total maps
    (sector_shift, identity) are checked symbolically key by key.
    Quotient maps need a concrete parameter assignment: the displayed seed
    images are propagated by the worklist every closure shares, inner
    weights first (:meth:`~superkon.linalg.WeightSpaces.grow`), on the
    index-keyed kernel every closure shares (the action blocks of
    ``EvaluatedAction.table`` of source and target), and each relation is
    inserted into a pivot-limited echelon, so any inconsistency is
    reported with its witness.
    """
    t0 = time.monotonic()
    if name not in ISO_NAMES:
        raise UsageError(f"unknown map name {name!r}; pick from {ISO_NAMES}")
    if target is None:
        target = iso_target(source, name)
    if name in ("sector_shift", "identity"):
        return _check_total_map(source, target, name, w, t0)
    if params is None:
        raise UsageError(f"{name} needs a concrete parameter assignment")
    return _check_quotient_map(source, target, name, w, params, t0)


def _check_total_map(source, target, name, w, t0):
    """Both sides of the intertwining relation from the images of basis
    vectors under the window's symbols (see
    :meth:`~superkon.tensmod.TensorModule.act_basis`); the map lowers
    weights by ``shift``."""
    shift = 1 if name == "sector_shift" else 0
    ops = source.window_ops(w)
    syms = [(p, im, is_d) for is_d in (True, False) for p, im, _ in ops]
    bad = []
    n = 0

    def image(module, sym, bv, lower):
        terms = module.act_basis(sym, bv)
        return ModVec(module.params, {bv2._replace(l=bv2.l - lower): c
                                      for bv2, c in terms.items()})

    for bv in source.inner_basis(w):
        for sym in syms:
            n += 1
            lhs = image(source, sym, bv, shift)
            rhs = image(target, sym, bv._replace(l=bv.l - shift), 0)
            if lhs != rhs:
                p, im, is_d = sym
                bad.append(violation(
                    f"op=({p},{im},{'D' if is_d else 'A'}) v={bv.text()}",
                    lhs=str(lhs), rhs=str(rhs), diff=str(lhs - rhs)))
    return finish(f"iso[{name}]", bad, n, t0)


def _quotient_seeds(source, target, name, l_range):
    """(source ModVec, target ModVec) seed pairs for a quotient map."""
    params = source.params
    if name in ("quotient_wplus", "quotient_wminus"):
        # untwisted displays: on a twisted module the W generators leave the
        # window's lattice, and the check stops before seeding
        st, tt = N2Table(source), N2Table(target)
        sign = 1 if name == "quotient_wplus" else -1
        minus_two = Scalar.const(params, -2)
        seeds = []
        for lam in l_range:
            gens = _w_generators(tt, sign, lam)
            if gens:
                # v -> v+ (v-), and v- (v+) -> -2 times the target's second
                # generator
                seeds += [(ModVec.basis(params, ModBasisVec(lam, 0, 0)), gens[0]),
                          (_w_generators(st, -sign, lam)[0], gens[1].scale(minus_two))]
        return seeds
    # quotient_fprime: v_{0,l} -> v+_{0, l - sh} at the same actual weight
    tt = N3Table(target)
    return [(ModVec.basis(params, ModBasisVec(lam, 0, 0)),
             _table_pick(tt, "vp", 0, lam // 2 - tt.sh))
            for lam in l_range if lam % 2 == 0]


def _check_quotient_map(source, target, name, w, params, t0):
    src_eval = source.eval_cache(params)
    tgt_eval = target.eval_cache(params)
    l_range = range(w.l_min, w.l_max + 1)
    sub_name = {"quotient_wplus": "W_plus", "quotient_wminus": "W_minus",
                "quotient_fprime": "F_prime"}[name]
    subgens = named_submodule(src_eval.module, sub_name, l_range)
    shift = _weight_offset(source, target)

    spaces = WeightSpaces(src_eval.dim, l_range, tgt_eval.dim, shift)

    def cross(l, sd, sv, td, tv):
        # true pair (sv/sd, tv/td) at weight l; projectively (sv*td, tv*sd)
        a = {i: (r * td, m * td) for i, (r, m) in sv.items()}
        b = {i: (r * sd, m * sd) for i, (r, m) in tv.items()}
        g = pair_content([*a.values(), *b.values()])
        if g > 1:
            a = {i: (r // g, m // g) for i, (r, m) in a.items()}
            b = {i: (r // g, m // g) for i, (r, m) in b.items()}
        return l, a, b

    bad = []
    n = 0
    work = []
    for g in subgens:
        spaces.insert(*src_eval.row(src_eval.eval_modvec(g)[1]))
    for s, t in _quotient_seeds(source, target, name, l_range):
        sd, sv = src_eval.eval_modvec(s)
        if sv:
            l, sv = src_eval.row(sv)
            td, tv = tgt_eval.eval_modvec(t)
            row = cross(l, sd, sv, td, tgt_eval.row(tv, l - shift)[1])
            if spaces.insert(*row) == "new":
                work.append(row)
    ops = source.window_ops(w)

    def act(op, row):
        p, im, deg = op
        l, sv, tv = row
        return cross(l + deg, *src_eval.act_vec(p, im, l, sv),
                     *tgt_eval.act_vec(p, im, l - shift, tv))

    inner = range(w.inner_l_min, w.inner_l_max + 1)
    for (p, im, _), l, (t, sv2, tv2), outcome in spaces.grow(work, ops, act,
                                                             inner):
        n += 1
        if outcome == "inconsistent":
            bad.append(violation(
                f"op=({p},{im}) from weight {l}",
                lhs=pairs_text(src_eval.vector(t, sv2)),
                rhs=pairs_text(tgt_eval.vector(t - shift, tv2)),
                diff=("image conflicts with previously derived relations"
                      if sv2 else "zero class maps to a nonzero image")))
    details = {"relations_derived": len(work)}
    return finish(f"iso[{name}]", bad, n, t0, details=details)


def _weight_offset(source, target) -> int:
    parts = (target.a - source.a).const_parts()
    _require(parts is not None and parts[1:] == (0, 1),
             "weight origins must differ by an integer")
    return parts[0]
