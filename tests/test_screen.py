"""The simplicity probe's screen modulo a prime against the all-exact probe.

``exact_window_simplicity`` is the probe as it was before the screen: every
seed closed by exact elimination, the smallest non-full closure (earliest
seed among equals) reported.  It is the reference the screened probe must
match byte for byte, at the default prime and at small primes where the
screen leaves many closures open.
"""

import random
import time
from fractions import Fraction

import pytest

from superkon import verify
from superkon.exactnum import GaussRat, Scalar
from superkon.grassmann import EpsilonConfig
from superkon.linalg import PrimeInDenominator
from superkon.repn import build_so2, build_so3_vm
from superkon.report import INFO, finish
from superkon.tables import make_table
from superkon.tensmod import EvaluatedAction, ModVec, TensorModule
from superkon.verify import ClosureResult

P = ("a", "b", "c")
A = Scalar.var(P, "a")
ORIGIN = {"a": Fraction(5, 7)}


def exact_window_simplicity(module, w, params, middle=2):
    """The probe with every seed closed exactly (the reference)."""
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
PRIMES = (verify.SCREEN_PRIME, 5, 13)


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


@pytest.fixture
def exact_closures(monkeypatch):
    """Counts the exact closures the probe runs."""
    calls = []
    exact = verify.closure

    def spy(*args, **kwargs):
        calls.append(args[1])
        return exact(*args, **kwargs)

    monkeypatch.setattr(verify, "closure", spy)
    return calls


@pytest.fixture
def checked_bounds(monkeypatch):
    """Closes every candidate exactly before the selection, to check that
    each bound is at most the inner dimension sum of its exact closure;
    records the candidates of each probe."""
    select = verify._smallest_exact
    seen = []

    def check(candidates, close):
        seen.append(candidates)
        for bound, i in candidates:
            res = close(i)
            assert res.inner_full or bound <= sum(res.inner_dims().values())
        return select(candidates, close)

    monkeypatch.setattr(verify, "_smallest_exact", check)
    return seen


@pytest.mark.parametrize("prime", PRIMES)
@pytest.mark.parametrize("name", PROBES)
def test_screened_probe_matches_exact_probe(name, prime, references,
                                            monkeypatch, checked_bounds):
    make, middle, verdict = PROBES[name]
    monkeypatch.setattr(verify, "SCREEN_PRIME", prime)
    M = make()
    r = verify.window_simplicity(M, probe_window(M), ORIGIN, middle)
    assert r.details["verdict"] == verdict
    assert (r.to_json(with_timing=False)
            == references[name].to_json(with_timing=False))


def test_candidate_selection_matches_closing_all():
    rng = random.Random(11)
    pruned = 0
    for _ in range(2000):
        n = rng.randint(1, 8)
        sizes = [rng.choice([None, 1, 2, 3, 4]) for _ in range(n)]  # None: full
        candidates = [(rng.randint(0, 4 if s is None else s), i)
                      for i, s in enumerate(sizes)]
        closed = []

        def close(i):
            closed.append(i)
            s = sizes[i]
            return ClosureResult({0: 5 if s is None else s}, {0: 5}, (0, 0))

        got = verify._smallest_exact(rng.sample(candidates, n), close)
        best = min(((s, i) for i, s in enumerate(sizes) if s is not None),
                   default=None)
        assert (got and got[:2]) == best
        assert len(closed) == len(set(closed))
        pruned += len(closed) < n
    assert pruned > 100


def test_small_prime_runs_fallback_and_pruning(monkeypatch, exact_closures):
    # at p = 5 the screen leaves many seeds open: several are closed
    # exactly, and pruning stops before the last candidate
    monkeypatch.setattr(verify, "SCREEN_PRIME", 5)
    M = n3(1, Fraction(-1, 2))
    r = verify.window_simplicity(M, probe_window(M), ORIGIN, middle=1)
    assert 1 < len(exact_closures) < r.stats["tuples_checked"]
    # at the default prime only the reported closure is exact
    exact_closures.clear()
    monkeypatch.setattr(verify, "SCREEN_PRIME", PRIMES[0])
    again = verify.window_simplicity(M, probe_window(M), ORIGIN, middle=1)
    assert len(exact_closures) == 1
    assert again.to_json(with_timing=False) == r.to_json(with_timing=False)


@pytest.mark.parametrize("make,params", [
    (lambda: n2(Fraction(1, 3), Fraction(2, 5)), ORIGIN),
    (lambda: n2(GaussRat(0, 1), 1), {"a": Fraction(3, 5)}),
])
def test_prime_in_a_denominator_falls_back(make, params, monkeypatch,
                                           checked_bounds):
    # 5 in a denominator of the action: every seed is a candidate with
    # bound 0
    monkeypatch.setattr(verify, "SCREEN_PRIME", 5)
    M = make()
    w = probe_window(M)
    ev = M.eval_cache(params)
    with pytest.raises(PrimeInDenominator):
        for bv in M.basis_at(0):
            for p in range(-1, 3):
                ev.act_vec_mod(5, p, 0, {bv: 1})
    r = verify.window_simplicity(M, w, params)
    candidates, = checked_bounds
    assert candidates == [(0, i) for i in range(r.stats["tuples_checked"])]
    assert (r.to_json(with_timing=False)
            == exact_window_simplicity(M, w, params).to_json(with_timing=False))


def test_window_simple_probe_makes_no_exact_action(monkeypatch):
    calls = []
    act_vec = EvaluatedAction.act_vec

    def spy(self, *args, **kwargs):
        calls.append(args)
        return act_vec(self, *args, **kwargs)

    monkeypatch.setattr(EvaluatedAction, "act_vec", spy)
    M = n3(1, Fraction(3, 11))
    r = verify.window_simplicity(M, verify.module_window(-2, 2, M), ORIGIN,
                                 middle=1)
    assert r.details["verdict"] == "window-simple"
    assert calls == []


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
