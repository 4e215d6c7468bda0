"""The simplicity probe's early stops against the all-exact probe.

``exact_window_simplicity`` is the probe with every seed closed to the end
by exact elimination, the smallest non-full closure (earliest seed among
equals) reported.  :func:`superkon.verify.window_simplicity` stops a
closure once its inner window is full or its span holds an earlier seed;
it must match the reference byte for byte, also when every seed vector is
scaled by an integer (exact membership, and with it the second stop, does
not see the scale).
"""

import time
from fractions import Fraction

import pytest

from superkon import verify
from superkon.exactnum import GaussRat, Scalar
from superkon.grassmann import EpsilonConfig
from superkon.repn import build_so2, build_so3_vm
from superkon.report import INFO, finish
from superkon.tables import make_table
from superkon.tensmod import EvaluatedAction, ModVec, TensorModule

P = ("a", "b", "c")
A = Scalar.var(P, "a")
ORIGIN = {"a": Fraction(5, 7)}


def exact_window_simplicity(module, w, params, middle=2):
    """The probe with every seed closed to the end (the reference)."""
    t0 = time.monotonic()
    mids = [l for l in range(w.inner_l_min, w.inner_l_max + 1)
            if module.basis_at(l)]
    center = (w.l_min + w.l_max) // 2
    mids.sort(key=lambda l: (abs(l - center), l))
    mids = sorted(mids[:middle])
    seeds = [(bv.text(), ModVec.basis(module.params, bv))
             for l in mids for bv in module.basis_at(l)]
    if module.cfg.N in (2, 3):
        table = make_table(module)
        for tl in range(min(mids) - 1, max(mids) + 2):
            for sym in table.syms_at_table_l(tl):
                if table.table_sym_weight(sym) in mids:
                    v = table.to_modvec(sym)
                    if not v.is_zero():
                        seeds.append((f"{sym.kind}[r={sym.r},l={sym.l}]", v))
    worst = None
    worst_seed = None
    n = 0
    ev = module.eval_cache(params)
    seen = set()
    for label, seed in seeds:
        key = frozenset((bv, str(c)) for bv, c in seed.terms.items())
        if key in seen:
            continue
        seen.add(key)
        n += 1
        res = verify.closure(module, [seed], w, params, ev=ev)
        if not res.inner_full:
            size = sum(res.inner_dims().values())
            if worst is None or size < worst[0]:
                worst = (size, res)
                worst_seed = label
    details = {"seeds": len(seeds), "middle_weights": mids,
               "note": "window-scale evidence, not a proof of simplicity"}
    if worst is None:
        details["verdict"] = "window-simple"
    else:
        details["verdict"] = "proper-invariant-subspace"
        details["smallest_seed"] = worst_seed
        details["smallest_inner_dims"] = {str(l): d for l, d in
                                          worst[1].inner_dims().items()}
        details["full_dims"] = {str(l): worst[1].full_dims[l]
                                for l in worst[1].inner_weights()}
    return finish(f"window_simplicity[N={module.cfg.N},eps={module.cfg.eps},"
                  f"rep={module.rep.label}]", [], n, t0, status=INFO,
                  details=details)


def n3(two_m, c):
    return TensorModule(EpsilonConfig(3, (1, 1, 1)), build_so3_vm(two_m, c, P),
                        A)


def n2(b, c):
    return TensorModule(EpsilonConfig(2, (1, 1)), build_so2(b, c, P), A)


# name: (module, middle, verdict); every window is module_window(-1, 2, N,
# inner_width=2)
PROBES = {
    "n3_c3_11": (lambda: n3(1, Fraction(3, 11)), 1, "window-simple"),
    "n3_cm1_2": (lambda: n3(1, Fraction(-1, 2)), 1,
                 "proper-invariant-subspace"),
    "fprime": (lambda: n3(2, Fraction(-1)), 1, "proper-invariant-subspace"),
    "n2_bi_c1": (lambda: n2(GaussRat(0, 1), 1), 2,
                 "proper-invariant-subspace"),
    "n2_b1_3_c2_5": (lambda: n2(Fraction(1, 3), Fraction(2, 5)), 2,
                     "window-simple"),
}


def probe_window(module):
    return verify.module_window(-1, 2, module, inner_width=2)


@pytest.fixture(scope="module")
def references():
    """The reference Report of each probe (computed once)."""
    out = {}
    for name, (make, middle, _) in PROBES.items():
        M = make()
        out[name] = exact_window_simplicity(M, probe_window(M), ORIGIN, middle)
    return out


# seed scales: 1, two small primes and a prime near 2**30
SCALES = (1, 5, 13, 1073741789)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", PROBES)
def test_screened_probe_matches_exact_probe(name, scale, references,
                                            monkeypatch):
    # "screened": each closure is cut off at the first of the probe's two
    # early stops; the reference closes every unscaled seed to the end
    make, middle, verdict = PROBES[name]
    eval_modvec = EvaluatedAction.eval_modvec

    def scaled(self, v):
        den, vec = eval_modvec(self, v)
        return den, {bv: (scale * re, scale * im)
                     for bv, (re, im) in vec.items()}

    monkeypatch.setattr(EvaluatedAction, "eval_modvec", scaled)
    M = make()
    r = verify.window_simplicity(M, probe_window(M), ORIGIN, middle)
    assert r.details["verdict"] == verdict
    assert (r.to_json(with_timing=False)
            == references[name].to_json(with_timing=False))


def test_window_simple_probe_makes_at_most_1100_images(monkeypatch):
    # the window-simple probe of the module_closure benchmark fills its
    # inner window after 1,036 images when the inner weights are served
    # first; every act_vec* method counts, so an image made in another
    # arithmetic would count too
    calls = []
    for name in [n for n in vars(EvaluatedAction) if n.startswith("act_vec")]:
        def spy(self, *args, _act=getattr(EvaluatedAction, name), **kwargs):
            calls.append(args)
            return _act(self, *args, **kwargs)

        monkeypatch.setattr(EvaluatedAction, name, spy)
    M = n3(1, Fraction(3, 11))
    r = verify.window_simplicity(M, verify.module_window(-2, 2, M), ORIGIN,
                                 middle=1)
    assert r.details["verdict"] == "window-simple"
    assert 0 < len(calls) <= 1100


def test_proper_probe_evaluates_each_coefficient_once(monkeypatch):
    # the module's inputs are evaluated once and the action runs on their
    # values; action columns are evaluated from their families by
    # exactnum.term_sum, not by Scalar.at, so Scalar.at sees only the
    # inputs (origin, central scalar, generator entries) and the seed
    # coefficients
    substituted, seed_sizes, evs = [], [], []
    at = Scalar.at
    eval_modvec = EvaluatedAction.eval_modvec
    eval_cache = TensorModule.eval_cache

    def spy_at(self, assignment):
        substituted.append(self)
        return at(self, assignment)

    def spy_eval_modvec(self, v):
        seed_sizes.append(len(v.terms))
        return eval_modvec(self, v)

    def spy_eval_cache(self, assignment):
        evs.append(eval_cache(self, assignment))
        return evs[-1]

    monkeypatch.setattr(Scalar, "at", spy_at)
    monkeypatch.setattr(EvaluatedAction, "eval_modvec", spy_eval_modvec)
    monkeypatch.setattr(TensorModule, "eval_cache", spy_eval_cache)
    M = n3(1, Fraction(-1, 2))
    r = verify.window_simplicity(M, verify.module_window(-2, 2, M), ORIGIN,
                                 middle=1)
    assert r.details["verdict"] == "proper-invariant-subspace"
    ev, = evs
    assert ev._memo
    inputs = [x for mat in M.rep.gen.values() for row in mat for x in row]
    inputs += [M.rep.z_scalar, M.a]
    assert substituted[:len(inputs)] == inputs
    assert len(substituted) == len(inputs) + sum(seed_sizes)
