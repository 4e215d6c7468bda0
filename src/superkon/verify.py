"""The verification engine: identity sweeps, window closures, simplicity
probes, annihilation-operator searches, and intertwining checks.

Every check returns a :class:`~superkon.report.Report`; violations are in
lexicographic input order so identical configurations produce identical
reports regardless of evaluation order.  Window results are only trusted
on the inner weight range; the inner margin must cover the largest
generator weight shift (see :func:`module_window`).  A check over the
inner basis vectors refuses a window whose inner weights hold none (see
:meth:`~superkon.tensmod.TensorModule.inner_basis`).

Closures run at concrete Gaussian-rational parameter values; identity
sweeps keep all parameters symbolic.  Every memo a check fills lives in
objects the check builds and is dropped when it returns: a closure's in
its own :class:`~superkon.tensmod.EvaluatedAction`, a symbolic sweep's in
a check-local copy of the caller's module
(:meth:`~superkon.tensmod.TensorModule.fresh`).  So callers running
several checks on one module no longer share its memo, and a suite's peak
memory is its largest check's, not their sum.  An identity sweep runs a fast
filter, which may flag too much but never too little, and hands each
flagged case to the library's reference operation, which decides it and
writes its witness.

The four bracket sweeps (:func:`check_jacobi`,
:func:`check_bracket_crosscheck`, :func:`check_phi` and
:func:`check_eps_shift`) share one rule.  Each class of window tuples (an
ordered mask triple for Jacobi; two kinds and masks, in window order, for
the others) is decided once with formal exponents, and the reference is
handed every window tuple of the classes that fail
(:func:`_class_tuples`): :func:`_jacobi_residual`, which reads each
bracket from :func:`~superkon.algebra.bracket_ints`, or the sweep's own
comparison on integer exponents.  The pair sweeps run that comparison on
symbols whose exponents are ``Scalar.var`` over ``FORMAL``, through the
library's own bracket, phi and relabeling; Jacobi sums the pair forms that
``bracket_ints`` reads into integer polynomials
(:func:`~superkon.algebra.jacobi_sum`).  The rule rests on one condition:
code run with formal exponents branches on an exponent's value only to
drop a term that is zero there, so a formal result specialised at integer
exponents is the concrete one, and a class that passes formally passes at
every exponent.  The one branch that does not is the central term's gate
at total degree 0 (never open for a formal exponent); that is why the
pair sweeps strip the central term and Jacobi checks its central part on
the plane of total degree 0.

:meth:`~superkon.tensmod.TensorModule.act` is the reference behind the
Gaussian-integer residuals of :func:`check_module_axioms` and of
:func:`~superkon.tables.compare_table` (under
:func:`check_table_agreement`).  Those residuals are summed a batch at a
time (:class:`~superkon.exactnum._Batch`): one batch per symbol pair, or
per table line and mode.  Every dimension, membership and verdict in a
report comes from exact elimination over Gaussian integers.
The simplicity probe closes each seed once, exactly, and stops a closure
as soon as its inner window is full or its span holds an earlier seed
(see :func:`window_simplicity`).  Every closure, here and in the
quotient-map checks of :mod:`~superkon.submod`, runs the one worklist
:meth:`~superkon.linalg.WeightSpaces.grow` over the generators of
:meth:`~superkon.tensmod.TensorModule.window_ops`, inner weights first, on
one integer kernel keyed by basis index.  A vector at weight ``l`` is a
row, a sparse dict from the index of a basis vector within the weight
space to a Gaussian-integer pair; the action of one op at one weight is
one block of :meth:`~superkon.tensmod.EvaluatedAction.table` (a column
per basis vector, one denominator), memoised per ``(p, I, l)``;
:meth:`~superkon.tensmod.EvaluatedAction.act_vec` reads an image from it
in canonical lowest terms; and each weight space is a sparse reduced
echelon (:class:`~superkon.linalg.Echelon`).  A basis vector is named only
where a seed or generator is evaluated and made a row, and where a
witness is printed.  The action at weight ``l`` depends on ``l`` only
through ``a + l``, so the blocks are filled from column families at a
formal origin, memoised per ``(p, I, J, r)`` in the same
:class:`~superkon.tensmod.EvaluatedAction` and each evaluated at ``a +
l``: a window's blocks run the prefix recursion once per family, not once
per weight.  :meth:`Scalar.at <superkon.exactnum.Scalar.at>` is applied to
the module's inputs once and to each seed coefficient, never to an action
column; the probe test ``test_proper_probe_evaluates_each_coefficient_once``
pins that.  The simplicity probe is evidence at window scale, never a
proof, and its report says so.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import product
from math import comb, lcm

from . import algebra
from .algebra import (FORMAL, FORMAL_EXPONENTS, AlgebraConfig, AlgebraElement,
                      bracket, bracket_basis, eps_shift_map, filtration_exponent,
                      ideal_exponent, in_ideal_i, in_k_ell, phi, project_k0,
                      tm1_power_d)
from .exactnum import _Batch, _Memo, _Packer, Scalar, UsageError
from .grassmann import (EpsilonConfig, contact_bracket, format_monomial,
                        monomial_parts, xi_mul)
from .linalg import WeightSpaces, mat_commutator, mat_eq, mat_zeros
from .report import INFO, Report, Window, finish, violation
from .submod import named_submodule
from .tables import compare_table, make_table
from .tensmod import ModVec, TensorModule, pairs_text


def module_window(k_min: int, k_max: int, module_or_n, inner_width: int = 6) -> Window:
    """Window with inner margin covering the largest generator shift."""
    n = module_or_n if isinstance(module_or_n, int) else module_or_n.cfg.N
    margin = max(abs(2 * (k_min - 1)), abs(2 * (k_max - 1)), 2) + n
    half = (inner_width + 1) // 2
    return Window(k_min, k_max, -(margin + half), margin + half, margin)


def _parity(imask: int) -> int:
    return imask.bit_count() & 1


# ---------------------------------------------------------------------------
# bracket sweeps: each class decided once with formal exponents


def _class_tuples(keys, classes, ordered: bool = False) -> list:
    """The window tuples a bracket sweep hands to its reference, in window
    order: the tuples of indices into ``keys`` (non-decreasing unless
    ``ordered``) whose keys, in that order, are one of ``classes``."""
    members: dict = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    return sorted(t for c in classes for t in product(*(members.get(k, ()) for k in c))
                  if ordered or all(a <= b for a, b in zip(t, t[1:])))


def _jacobi_residual(acfg: AlgebraConfig, x, y, z):
    """The reference: 4x the D-part, as ``{(rk, rI): coefficient}``, and
    24x the central part of the graded Jacobi sum of the symbols ``x, y,
    z`` (pairs ``(p, imask)``), each bracket read from
    :func:`algebra.bracket_ints <superkon.algebra.bracket_ints>`.  The
    D-part may have several keys only if the bracket breaks the grading."""
    terms: dict = {}
    cen = 0
    for u, v, t in ((x, y, z), (y, z, x), (z, x, y)):
        c2, rk, rI, _ = algebra.bracket_ints(acfg, *v, *t)
        if not c2:
            continue
        c3, rk, rI, cen12 = algebra.bracket_ints(acfg, *u, rk, rI)
        sgn = -1 if (_parity(u[1]) and _parity(t[1])) else 1
        if c3:
            terms[rk, rI] = terms.get((rk, rI), 0) + sgn * c2 * c3
        cen += sgn * c2 * cen12
    return {key: v for key, v in terms.items() if v}, cen


def check_jacobi(acfg: AlgebraConfig, w: Window, workers: int | None = None) -> Report:
    """Graded Jacobi identity over all basis triples in the window
    (unordered: the Jacobi sum of homogeneous arguments changes only by a
    global sign under permutations).

    :func:`~superkon.algebra.jacobi_failures` decides each ordered mask
    triple once, with formal exponents, and the reference
    :func:`_jacobi_residual` decides every window triple whose masks, in
    window order, form a failing one, and writes the witness; a passing
    algebra hands it no triple.  ``workers`` may only be ``None`` or 1."""
    if workers not in (None, 1):
        raise UsageError(f"check_jacobi runs in one process; workers={workers!r}")
    t0 = time.monotonic()
    N = acfg.cfg.N
    syms = [(p, im) for p in w.k_values() for im in range(1 << N)]
    bad = []
    for i, j, k in _class_tuples([im for _, im in syms], algebra.jacobi_failures(acfg)):
        x, y, z = syms[i], syms[j], syms[k]
        terms, cen = _jacobi_residual(acfg, x, y, z)
        if terms or cen:
            parts = [f"{v}/4*D[t^{rk},m={rI}]" for (rk, rI), v in sorted(terms.items())]
            if cen:
                parts.append(f"{cen}/24*C")
            bad.append(violation(f"x={x} y={y} z={z}", lhs=" + ".join(parts),
                                 rhs="0", diff=" + ".join(parts)))
    label = f"jacobi[N={N},eps={acfg.cfg.eps},central={acfg.central_enabled}]"
    return finish(label, bad, comb(len(syms) + 2, 3), t0)


_P, _Q = FORMAL_EXPONENTS  # of a pair sweep's two symbols


def check_bracket_crosscheck(acfg: AlgebraConfig, w: Window) -> Report:
    """Structure constants against the contact bracket through f <-> D_f,
    on every ordered pair of window symbols.  The central term is stripped
    on the structure-constant side.

    The comparison runs once per ordered mask pair on the symbols
    ``D[t^p, xi_I]`` and ``D[t^q, xi_J]`` with formal ``p, q``, and then on
    every window pair of the mask pairs where the two sides differ, which
    writes the witnesses.  Each monomial is differentiated once (its
    :func:`~superkon.grassmann.monomial_parts`)."""
    t0 = time.monotonic()
    cfg = acfg.cfg
    stripped = replace(acfg, central_enabled=False)
    masks = range(1 << cfg.N)

    def sides(x, y, params):
        return (bracket_basis(stripped, x, y, params),
                contact_bracket(cfg, monomial_parts(cfg, params, *x),
                                monomial_parts(cfg, params, *y)))

    failing = set()
    for I, J in product(masks, repeat=2):
        bb, cb = sides((_P, I), (_Q, J), FORMAL)
        if bb.d != cb:
            failing.add((I, J))
    syms = [(p, im) for p in w.k_values() for im in masks]
    bad = []
    for i, j in _class_tuples([im for _, im in syms], failing, ordered=True):
        x, y = syms[i], syms[j]
        bb, cb = sides(x, y, ())
        if bb.d != cb:
            bad.append(violation(
                f"x={x} y={y}",
                lhs=str(bb),
                rhs=" + ".join(f"D[{format_monomial(*k)}]*({c})"
                               for k, c in sorted(cb.terms.items())),
                diff="structure constants disagree with the contact bracket"))
    n = len(syms)
    return finish(f"bracket_crosscheck[N={cfg.N},eps={cfg.eps}]", bad, n * n, t0)


# ---------------------------------------------------------------------------


_ONE = (1, [(0, 1, 0)])  # the coefficient 1, packed as by _Packer.coeff
_NO_IMAGE = (1, [], [])  # the zero image, packed as by _Packer.image


def check_module_axioms(module: TensorModule, w: Window) -> Report:
    """The bracket compatibility, associative function action, and mixed
    compatibility identities, fully symbolic in the parameters.

    The filter: each window symbol's image of each basis vector is
    computed once and packed once into integer pairs
    (:class:`~superkon.exactnum._Packer`): a D-symbol's from
    :meth:`~superkon.tensmod.TensorModule.act_basis_d`, and a function
    monomial's, a sign times one basis vector, straight from
    :meth:`~superkon.tensmod.TensorModule.act_function` into one shared
    packed image per ``(sign, target)``, with no Scalar.
    The identities of one symbol pair ``(x, y)``, or of one pair ``(f, g)``
    of function monomials, form one :class:`~superkon.exactnum._Batch`, one
    identity per inner basis vector: each part of its residual lhs - rhs is
    added straight into the batch, so a passing identity builds no Scalar.
    An identity the batch flags goes to the reference: both sides are
    computed again by :meth:`~superkon.tensmod.TensorModule.act` on module
    vectors, and their difference, when nonzero, is the violation with its
    witness."""
    t0 = time.monotonic()
    module = module.fresh()
    params = module.params
    acfg = AlgebraConfig(module.cfg)
    ops = module.window_ops(w)
    syms = [(p, im, is_d) for is_d in (True, False) for p, im, _ in ops]
    vecs = module.inner_basis(w)
    packer = _Packer(params)
    # signed[sign, bv]: sign times the basis vector bv, packed
    signed = _Memo(lambda st: (1, [(packer.key(st[1]), st[0], 0)],
                               [(st[1], (1, [(0, st[0], 0)]))]))

    def pack(sym, bv):
        p, im, is_d = sym
        if is_d:
            return packer.image(module.act_basis_d(p, im, bv))
        res = module.act_function(p, im, bv)
        return _NO_IMAGE if res is None else signed[res]

    # images[sym][bv]: the symbol (p, imask, is_d) on a basis vector, packed
    images = _Memo(lambda sym: _Memo(lambda bv: pack(sym, bv)))
    bad = []
    n = 0

    def decide(inputs, lhs, rhs):
        """The reference: a violation when the ModVecs differ."""
        diff = lhs - rhs
        if not diff.is_zero():
            bad.append(violation(inputs, lhs=str(lhs), rhs=str(rhs), diff=str(diff)))

    def elem(p, im, is_d):
        return (AlgebraElement.d_symbol(params, p, im) if is_d
                else AlgebraElement.a_monomial(params, p, im))

    for i, x in enumerate(syms):
        p1, i1, d1 = x
        ex, ix = elem(*x), images[x]
        for y in syms[i:]:
            p2, i2, d2 = y
            ey, iy = elem(*y), images[y]
            br = bracket(acfg, ex, ey)
            br_terms = ([(images[p, im, True], packer.coeff(c))
                         for (p, im), c in br.d.terms.items()]
                        + [(images[k, im, False], packer.coeff(c))
                           for (k, im), c in br.a.terms.items()])
            sgn = -1 if (_parity(i1) and _parity(i2)) else 1
            batch = _Batch(packer, len(vecs))
            for j, bv in enumerate(vecs):
                for isym, c in br_terms:
                    batch.add(j, c, isym[bv])
                for bv2, c in iy[bv][2]:
                    batch.add(j, c, ix[bv2], -1)
                for bv2, c in ix[bv][2]:
                    batch.add(j, c, iy[bv2], sgn)
            n += len(vecs)
            for j in batch.flagged():
                v = ModVec.basis(params, vecs[j])
                decide(f"bracket x=({p1},{i1},{'D' if d1 else 'A'}) "
                       f"y=({p2},{i2},{'D' if d2 else 'A'}) v={vecs[j].text()}",
                       module.act(br, v),
                       module.act(ex, module.act(ey, v))
                       - module.act(ey, module.act(ex, v)).scale(sgn))
    # associative action of the function algebra
    monos = [(k, im) for k, im, _ in ops]
    for (k1, i1) in monos:
        f = images[k1, i1, False]
        for (k2, i2) in monos:
            g = images[k2, i2, False]
            sm = xi_mul(i1, i2)
            fg = None if sm is None else images[k1 + k2, sm[1], False]
            batch = _Batch(packer, len(vecs))
            for j, bv in enumerate(vecs):
                for bv2, c in g[bv][2]:
                    batch.add(j, c, f[bv2])
                if fg is not None:
                    batch.add(j, _ONE, fg[bv], -sm[0])
            n += len(vecs)
            for j in batch.flagged():
                v = ModVec.basis(params, vecs[j])
                decide(f"assoc f=({k1},{i1}) g=({k2},{i2}) v={vecs[j].text()}",
                       module.act(elem(k1, i1, False),
                                  module.act(elem(k2, i2, False), v)),
                       ModVec(params, {}) if sm is None else module.act(
                           AlgebraElement.a_monomial(params, k1 + k2, sm[1],
                                                     sm[0]), v))
    return finish(f"module_axioms[N={module.cfg.N},eps={module.cfg.eps},"
                  f"rep={module.rep.label},sector={module.sector_delta}]",
                  bad, n, t0)


# ---------------------------------------------------------------------------
# closure and simplicity


@dataclass
class ClosureResult:
    dims: dict            # weight -> reached dimension
    full_dims: dict       # weight -> ambient dimension
    inner: tuple          # (inner_l_min, inner_l_max)

    def inner_weights(self):
        return [l for l in sorted(self.dims)
                if self.inner[0] <= l <= self.inner[1]]

    @property
    def inner_full(self) -> bool:
        ws = self.inner_weights()
        return bool(ws) and all(self.dims[l] == self.full_dims[l] for l in ws)

    def inner_dims(self):
        return {l: self.dims[l] for l in self.inner_weights()}


def _close(spaces: WeightSpaces, ops, act, rows, w: Window,
           stop) -> ClosureResult:
    """Every closure: insert the seed rows ``(l, vec)``, then grow their
    span under ``ops`` by ``act(op, row)``, inner weights first (see
    :meth:`~superkon.linalg.WeightSpaces.grow`), until nothing new
    appears, or until ``stop(l)`` holds after a new vector at weight
    ``l``."""
    work = [row for row in rows if spaces.insert(*row) == "new"]
    inner = range(w.inner_l_min, w.inner_l_max + 1)
    for (_, _, shift), l, _, outcome in spaces.grow(work, ops, act, inner):
        if outcome == "new" and stop(l + shift):
            break
    ls = [l for l in range(w.l_min, w.l_max + 1) if spaces.dim(l)]
    return ClosureResult({l: spaces.rank(l) for l in ls},
                         {l: spaces.dim(l) for l in ls},
                         (w.inner_l_min, w.inner_l_max))


def closure(module: TensorModule, seeds, w: Window, params: dict,
            ev=None) -> ClosureResult:
    """Smallest windowed invariant subspace containing the ``ModVec``
    seeds, by exact elimination.

    Applies the window's D-symbols (see
    :meth:`~superkon.tensmod.TensorModule.window_ops`) to the
    current spanning set, drops vectors outside the weight range, and
    row-reduces per weight space until stable, or until every inner weight
    space is full (see :func:`_close`).  Only inner-window dimensions are
    truncation-free; outer ones may stop short.  An EvaluatedAction cache
    may be shared across calls via ``ev``.  A seed that mixes weights
    raises UsageError.
    """
    if not seeds:
        raise UsageError("closure requires at least one seed vector")
    if ev is None:
        ev = module.eval_cache(params)
    spaces = WeightSpaces(ev.dim, range(w.l_min, w.l_max + 1))
    return _close(spaces, module.window_ops(w), _act(ev),
                  [ev.row(ev.eval_modvec(s)[1]) for s in seeds], w,
                  lambda _: _inner_full(spaces, w))


def _act(ev):
    """The closures' action: the image row of an op, its denominator
    dropped (spans are scale-invariant)."""
    return lambda op, row: (row[0] + op[2], ev.act_vec(op[0], op[1], *row)[1])


def _inner_full(spaces: WeightSpaces, w: Window) -> bool:
    inner = range(w.inner_l_min, w.inner_l_max + 1)
    return all(spaces.settled(l) for l in inner)


def window_simplicity(module: TensorModule, w: Window, params: dict,
                      middle: int = 2) -> Report:
    """Seed every basis vector of the middle weight spaces and close up.

    Verdict ``window-simple`` when every closure fills every inner weight
    space; this is window-scale evidence consistent with simplicity, not
    a proof of it.  Otherwise the smallest invariant subspace found (the
    least inner dimension sum, the earliest seed among equals) is
    reported.

    Each seed is closed once, exactly (see :func:`_close`), and its
    closure stops at the first of two events: the inner window is full, or
    the span holds the vector of an earlier seed.  In the second case this
    closure contains that seed's whole closure (membership is exact).  If
    that one is full, so is this one; if not, this one is at least as
    large and comes later, so it can never be the reported smallest, as
    ties go to the earliest seed.  By induction over the seeds, the probe
    is window-simple exactly when every closure run to its end is full,
    and the smallest of those that are not is the smallest of all.  The
    verdict, ``smallest_seed`` and the dimensions are therefore those of
    closing every seed to the end.
    """
    if middle < 1:
        raise UsageError("middle must be at least 1")
    t0 = time.monotonic()
    center = (w.l_min + w.l_max) // 2
    mids = sorted({bv.l for bv in module.inner_basis(w)},
                  key=lambda l: (abs(l - center), l))
    mids = sorted(mids[:middle])
    seeds = [(bv.text(), ModVec.basis(module.params, bv))
             for l in mids for bv in module.basis_at(l)]
    # also seed the diagonalized table basis when one exists: invariant
    # subspaces typically contain those combinations, not raw vectors
    if module.cfg.N in (2, 3):
        table = make_table(module)
        for tl in range(min(mids) - 1, max(mids) + 2):
            for sym in table.syms_at_table_l(tl):
                if table.table_sym_weight(sym) in mids:
                    seeds.append((f"{sym.kind}[r={sym.r},l={sym.l}]",
                                  table.to_modvec(sym)))
    ev = module.eval_cache(params)
    unique = []
    seen = set()
    for label, seed in seeds:
        key = frozenset((bv, str(c)) for bv, c in seed.terms.items())
        if key not in seen:
            seen.add(key)
            unique.append((label, seed))
    ops = module.window_ops(w)
    act = _act(ev)
    l_range = range(w.l_min, w.l_max + 1)
    worst = None  # (inner dimension sum, seed index, closure)
    earlier: dict = {}  # weight -> the rows of the seeds closed so far
    for i, (_, seed) in enumerate(unique):
        l, vec = ev.row(ev.eval_modvec(seed)[1])
        spaces = WeightSpaces(ev.dim, l_range)
        held = []  # the earlier seed rows the span holds

        def stop(t):
            held.extend(g for g in earlier.get(t, ()) if spaces.contains(t, g))
            return bool(held) or _inner_full(spaces, w)

        res = _close(spaces, ops, act, [(l, vec)], w, stop)
        if not (held or res.inner_full):
            size = sum(res.inner_dims().values())
            if worst is None or size < worst[0]:
                worst = (size, i, res)
        if vec:
            earlier.setdefault(l, []).append(vec)
    details = {"seeds": len(seeds), "middle_weights": mids,
               "note": "window-scale evidence, not a proof of simplicity"}
    if worst is None:
        details["verdict"] = "window-simple"
    else:
        res = worst[2]
        details["verdict"] = "proper-invariant-subspace"
        details["smallest_seed"] = unique[worst[1]][0]
        details["smallest_inner_dims"] = {str(l): d for l, d in
                                          res.inner_dims().items()}
        details["full_dims"] = {str(l): res.full_dims[l]
                                for l in res.inner_weights()}
    return finish(f"window_simplicity[N={module.cfg.N},eps={module.cfg.eps},"
                  f"rep={module.rep.label}]", [], len(unique), t0, status=INFO,
                  details=details)


def check_submodule_closure(module: TensorModule, name: str, w: Window,
                            params: dict) -> Report:
    """Every named-submodule generator stays inside the submodule's span
    under every window generator (membership by exact elimination).

    Every (generator, op) tuple whose target weight has a space is
    counted, a zero image included; a target outside the window (whose
    margin is narrower than the ops' shifts) is not.  Only the generators
    at an inner weight or at an op's target from one are evaluated and
    inserted: no other weight is read.
    A window whose inner weights hold no basis vector is refused (see
    :meth:`~superkon.tensmod.TensorModule.inner_basis`)."""
    t0 = time.monotonic()
    inner = {bv.l for bv in module.inner_basis(w)}
    ev = module.eval_cache(params)
    l_range = range(w.l_min, w.l_max + 1)
    ops = module.window_ops(w)
    read = inner | {l + shift for l in inner for _, _, shift in ops}
    gens = [g for g in named_submodule(ev.module, name, l_range)
            if any(bv.l in read for bv in g.terms)]
    spaces = WeightSpaces(ev.dim, l_range)
    buckets: dict = {}
    for g in gens:
        l, vec = ev.row(ev.eval_modvec(g)[1])
        if spaces.insert(l, vec) is not None:
            buckets.setdefault(l, []).append(vec)
    bad = []
    n = 0
    for l in sorted(buckets.keys() & inner):
        for vi, vec in enumerate(buckets[l]):
            for (p, im, shift) in ops:
                t = l + shift
                if t not in spaces:
                    continue
                n += 1
                nv = ev.act_vec(p, im, l, vec)[1]
                if nv and not spaces.contains(t, nv):
                    bad.append(violation(
                        f"gen[{l}][{vi}] under op=({p},{im})",
                        lhs=pairs_text(ev.vector(t, nv)),
                        rhs=f"span of {name} at weight {t}",
                        diff="image leaves the submodule span"))
    return finish(f"submodule_closure[{name}]", bad, n, t0)


# ---------------------------------------------------------------------------
# annihilation operators


def _omega_image_is_zero(ev, signed: list, k: int, p: int, imask: int,
                         l: int, col: int) -> bool:
    """Whether ``sum_i signed[i] D[t^{k-i}, xi_I] D[t^{p+i}]`` kills the
    basis vector ``col`` of weight ``l``: the products of the evaluated
    blocks ``ev.table`` are summed in integer pairs over their least
    common denominator, keyed by target index: the degrees of the two
    factors add up to one free of ``i``, so every product lands at one
    weight."""
    degree = ev.module.cfg.degree
    terms = []  # (den, target index, re, im) of each product
    for i, s in enumerate(signed):
        d2, inner = ev.table(p + i, 0, l)
        d3, outer = ev.table(k - i, imask, l + degree(p + i, 0))
        d = d2 * d3
        for j, r2, m2 in inner[col]:
            r2, m2 = s * r2, s * m2
            for t, r3, m3 in outer[j]:
                terms.append((d, t, r2 * r3 - m2 * m3, r2 * m3 + m2 * r3))
    den = lcm(*(t[0] for t in terms))
    acc: dict = {}
    for d, t, r, m in terms:
        q = den // d
        pr, pm = acc.get(t, (0, 0))
        acc[t] = (pr + r * q, pm + m * q)
    return not any(r or m for r, m in acc.values())


def check_omega(module: TensorModule, m_max: int, w: Window,
                params: dict) -> Report:
    """Minimal order of the alternating-sum annihilation operators.

    For each index set, finds the least ``m <= m_max`` with
    ``sum_i (-1)^i binom(m,i) D[t^{k-i}, xi_I] D[t^{p+i}]`` killing every
    inner-window basis vector for all ``k, p`` in the window.  ``none``
    within the bound is reported as such (status info), not as a failure.
    Each sum is read from the evaluated action blocks (one denominator and
    Gaussian-integer pairs each) and tested for zero in integers.
    """
    if m_max < 1:
        raise UsageError("m_max must be at least 1")
    t0 = time.monotonic()
    ev = module.eval_cache(params)
    vecs = [(bv.l, ev.basis(bv.l).index(bv)) for bv in module.inner_basis(w)]
    found = {}
    n = 0
    for imask in range(1 << module.cfg.N):
        found[imask] = None
        for m in range(1, m_max + 1):
            signed = [(-1) ** i * comb(m, i) for i in range(m + 1)]
            for k, p, (l, i) in product(w.k_values(), w.k_values(), vecs):
                n += 1
                if not _omega_image_is_zero(ev, signed, k, p, imask, l, i):
                    break
            else:
                found[imask] = m
                break
    details = {"minimal_m": {format_monomial(0, im) if im else "1": v
                             for im, v in sorted(found.items())},
               "m_max": m_max, "all_found": None not in found.values()}
    return finish(f"omega[N={module.cfg.N},eps={module.cfg.eps},"
                  f"rep={module.rep.label}]", [], n, t0, status=INFO,
                  details=details)


# ---------------------------------------------------------------------------
# filtration, automorphism, projection


def _piece_gens(acfg: AlgebraConfig, exponent, i_max: int):
    """Spanning generators ``D[(t-1)^e t^i, xi_I]`` of a piece, with
    ``e = exponent(|I|)`` and ``0 <= i <= i_max``."""
    return [tm1_power_d((), exponent(im.bit_count()), i, im)
            for im in range(1 << acfg.cfg.N) for i in range(i_max + 1)]


def _filtration_gens(acfg: AlgebraConfig, ell: int, i_max: int):
    return _piece_gens(
        acfg, lambda size: filtration_exponent(ell, size, acfg.mutation), i_max)


def _displayed_k0(N: int):
    """The displayed degree-zero elements with their projection images:
    ``(label, element, pair)`` for ``D[t]-D[1] -> z`` (``pair`` None) and
    ``D[t, xi_i xi_j] -> E_ji - E_ij`` (``pair`` the 1-based ``(i, j)``)."""
    params = ()
    out = [("D[t]-D[1]", AlgebraElement.d_symbol(params, 1, 0)
            - AlgebraElement.d_symbol(params, 0, 0), None)]
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            im = (1 << (i - 1)) | (1 << (j - 1))
            out.append((f"D[t,xi{{{i},{j}}}]",
                        AlgebraElement.d_symbol(params, 1, im), (i, j)))
    return out


def check_filtration(acfg: AlgebraConfig, ell_max: int, w: Window) -> Report:
    """Properties of the (t-1)-adic pieces, on spanning generators with
    nonnegative exponents: the displayed elements ``D[t]-D[1]`` and
    ``D[t, xi_i xi_j]`` lie in K0 (so K0 maps onto ``C z + so_N``), K0 is
    a subalgebra, ``[K1, K_l]`` lies in ``K_{l+1}``, ``[K0, K_l]`` in
    ``K_l``, and the distinguished ideal is an ideal of K0."""
    if ell_max < 1:
        raise UsageError("ell_max must be at least 1")
    t0 = time.monotonic()
    i_max = max(1, w.k_max)
    bad = []
    n = 0
    for label, x, _ in _displayed_k0(acfg.cfg.N):
        n += 1
        if not in_k_ell(acfg, x, 0):
            bad.append(violation(f"{label} in K0", lhs=str(x), rhs="K0",
                                 diff="displayed element is not in K0"))
    g0 = _filtration_gens(acfg, 0, i_max)
    g1 = _filtration_gens(acfg, 1, i_max)
    cases = [("[K0,K0] in K0", g0, g0, lambda x: in_k_ell(acfg, x, 0))]
    for ell in range(0, ell_max + 1):
        gl = _filtration_gens(acfg, ell, i_max)
        cases.append((f"[K1,K{ell}] in K{ell + 1}", g1, gl,
                      lambda x, e=ell: in_k_ell(acfg, x, e + 1)))
        if ell >= 1:
            cases.append((f"[K0,K{ell}] in K{ell}", g0, gl,
                          lambda x, e=ell: in_k_ell(acfg, x, e)))
    gi = _piece_gens(acfg, ideal_exponent, i_max)
    cases.append(("[K0,ideal] in ideal", g0, gi, in_ideal_i))
    for label, xs, ys, member in cases:
        for xi, x in enumerate(xs):
            for yi, y in enumerate(ys):
                n += 1
                br = bracket(acfg, x, y)
                if not member(br):
                    bad.append(violation(
                        f"{label} x#{xi:03d} y#{yi:03d}",
                        lhs=str(br), rhs=label,
                        diff="bracket leaves the target piece"))
    return finish(f"filtration[N={acfg.cfg.N},eps={acfg.cfg.eps}]", bad, n, t0)


def _homomorphism_sweep(label: str, src: AlgebraConfig, dst: AlgebraConfig,
                        f, w: Window) -> Report:
    """``f([x, y]_src) == [f(x), f(y)]_dst`` on all pairs of window basis
    elements (operators and functions).  A pair's class is its two kinds
    and masks in window order.  The comparison runs once per class on the
    elements with formal exponents ``p, q``, and then on every window pair
    of the classes where the two sides differ, which writes the witnesses;
    each element is mapped once."""
    t0 = time.monotonic()
    masks = range(1 << src.cfg.N)
    kinds = [(is_d, im) for is_d in (True, False) for im in masks]

    def elem(kind, e, params):
        is_d, im = kind
        return (AlgebraElement.d_symbol if is_d else AlgebraElement.a_monomial)(params, e, im)

    def sides(x, y, fx, fy):
        return f(bracket(src, x, y)), bracket(dst, fx, fy)

    xs, ys = ({k: elem(k, e, FORMAL) for k in kinds} for e in (_P, _Q))
    fxs, fys = ({k: f(x) for k, x in e.items()} for e in (xs, ys))
    failing = set()
    for a, b in product(kinds, repeat=2):
        lhs, rhs = sides(xs[a], ys[b], fxs[a], fys[b])
        if lhs != rhs:
            failing.add((a, b))
    window = [((is_d, im), e) for is_d in (True, False) for e in w.k_values() for im in masks]
    keys = [k for k, _ in window]
    elems = [elem(k, e, ()) for k, e in window]
    images = _Memo(lambda i: f(elems[i]))
    bad = []
    for i, j in _class_tuples(keys, failing):
        x, y = elems[i], elems[j]
        lhs, rhs = sides(x, y, images[i], images[j])
        if lhs != rhs:
            bad.append(violation(f"x={x} y={y}", lhs=str(lhs), rhs=str(rhs),
                                 diff=str(lhs - rhs)))
    n = len(elems)
    return finish(label, bad, n * (n + 1) // 2, t0)


def check_phi(acfg: AlgebraConfig, w: Window) -> Report:
    """The degree-shift automorphism respects brackets on all basis pairs
    (including mixed operator/function pairs), each class of pairs decided
    once with formal exponents (see :func:`_homomorphism_sweep`).  The
    central term is stripped: phi is defined on the extension without C.

    Its registered control ``drop_phi_coeff`` changes nothing on a Ramond
    twist (every ``eps_i = 1``), where every shift sum it subtracts is 0;
    there ``drop_sign_intersection`` is the control that makes it fail."""
    stripped = replace(acfg, central_enabled=False)
    return _homomorphism_sweep(f"phi[N={acfg.cfg.N},eps={acfg.cfg.eps}]",
                               stripped, stripped, lambda x: phi(stripped, x), w)


def check_projection(acfg: AlgebraConfig, w: Window) -> Report:
    """The degree-zero projection is a bracket homomorphism onto the
    center-plus-orthogonal target, with the displayed basis images.  A
    displayed element or a bracket of generators outside K0 is a
    violation."""
    t0 = time.monotonic()
    params = ()
    N = acfg.cfg.N
    i_max = max(1, w.k_max)
    gens = _filtration_gens(acfg, 0, i_max)
    bad = []
    n = 0

    def project(label, x):
        if in_k_ell(acfg, x, 0):
            return project_k0(acfg, x)
        bad.append(violation(f"{label} in K0", lhs=str(x), rhs="K0",
                             diff="element is not in the degree-zero subalgebra"))
        return None

    one = Scalar.const(params, 1)
    for label, x, pair in _displayed_k0(N):
        n += 1
        img = project(label, x)
        if img is None:
            continue
        z, m = img
        # the displayed image: 1 for D[t]-D[1], E_ji - E_ij for D[t, xi_i xi_j]
        want = mat_zeros(params, N)
        if pair is None:
            ok, lhs, rhs = z == one, str(z), "1"
        else:
            i, j = pair
            want[j - 1][i - 1], want[i - 1][j - 1] = one, -one
            ok, lhs, rhs = z.is_zero(), str(m), "E_ji - E_ij"
        if not (ok and mat_eq(m, want)):
            bad.append(violation(f"image of {label}", lhs=lhs, rhs=rhs))
    # the generators are K0 by construction (same filtration exponents)
    imgs = [project_k0(acfg, g) for g in gens]
    for xi, x in enumerate(gens):
        for yi, y in enumerate(gens):
            n += 1
            bimg = project(f"[x#{xi:03d},y#{yi:03d}]", bracket(acfg, x, y))
            if bimg is None:
                continue
            zb, mb = bimg
            comm = mat_commutator(imgs[xi][1], imgs[yi][1])
            if not (zb.is_zero() and mat_eq(mb, comm)):
                bad.append(violation(
                    f"homomorphism x#{xi:03d} y#{yi:03d}",
                    lhs=f"z={zb}; " + "; ".join(str(e) for row in mb for e in row),
                    rhs="z=0; " + "; ".join(str(e) for row in comm for e in row),
                    diff="projection of bracket disagrees with commutator"))
    return finish(f"projection[N={N},eps={acfg.cfg.eps}]", bad, n, t0)


def check_eps_shift(src: EpsilonConfig, dst: EpsilonConfig, w: Window) -> Report:
    """The exponent relabeling between twist vectors with even difference
    is a bracket homomorphism on all window pairs, each class of pairs
    decided once with formal exponents (see :func:`_homomorphism_sweep`)."""
    return _homomorphism_sweep(f"eps_shift[{src.eps}->{dst.eps}]",
                               AlgebraConfig(src), AlgebraConfig(dst),
                               lambda x: eps_shift_map(src, dst, x), w)


def check_table_agreement(module: TensorModule, w: Window) -> Report:
    """Generic action against the explicit table, line by line, at table
    weights -1, 0 and 1.  Every discrepancy is a violation carrying the
    generic value (the source of truth)."""
    t0 = time.monotonic()
    bad, n = compare_table(module, make_table(module), w.k_values(), range(-1, 2))
    return finish(f"table_agreement[N={module.cfg.N},eps={module.cfg.eps},"
                  f"rep={module.rep.label}]", bad, n, t0)
