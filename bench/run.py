"""The superkon benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/superkon``).
Each repetition runs the workload in a fresh process (``bench/child.py``)
with ``SUPERKON_THREADS`` unset, so every check runs single-threaded with
cold memos, as for a user running a suite.  Repetitions go on while the next
one would end within ``S`` seconds (at least ``MIN_REPS``); every check of
every repetition goes through the outcome gate.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, process start to
the first check (median over the repetitions and ``SETUP_SAMPLES`` processes
per repetition that only set up); ``wall_s``, the time of the checks (sum
over checks of each check's median); and ``peak_rss_mb``, the peak resident
memory of a repetition (median).  ``--trace 1`` alternates an untraced and a
traced repetition and reports the per-layer metrics of ``bench/tracer.py``
(medians over traced repetitions) and the tracing overhead; it writes each
traced repetition's check spans to ``.bench_out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (checks, all repetitions) and ``metrics``, named
as in ``BENCHMARK.json``.  Facts that are not gated (source line count,
``nproc``, Python version, ``fail_frac``) are printed on the line before.
The exit code is 0 only when every check met its pinned outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().with_name("child.py")
MIN_REPS = 2
SETUP_SAMPLES = 1  # set-up-only processes per repetition
CHILD_TIMEOUT_S = 170
DEADLINE_S = 150  # start no repetition that could end after this


def spawn(args: list, env: dict) -> tuple:
    """Run one child; (monotonic start time, parsed output or None)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: child {args} timed out", file=sys.stderr)
        return start, None
    if proc.returncode != 0:
        print(f"bench: child {args} exited with {proc.returncode}",
              file=sys.stderr)
        return start, None
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "superkon").glob("*.py")))


def check_seconds(results: list) -> dict:
    """Inclusive seconds per check function, e.g. ``verify.check_jacobi.s``."""
    out: dict = {}
    for r in results:
        key = f"{r['function']}.s"
        out[key] = out.get(key, 0.0) + r["end"] - r["start"]
    return out


def wall_s(reps: list) -> float:
    """Sum over checks of each check's median time.  A slow moment of a
    shared machine then spoils one sample of one check, not a repetition."""
    per_check = zip(*(rep["results"] for rep in reps))
    return sum(statistics.median(r["end"] - r["start"] for r in runs)
               for runs in per_check)


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "superkon").is_dir() or not spec_path.is_file():
        print(f"bench: no src/superkon or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = {k: v for k, v in os.environ.items() if k != "SUPERKON_THREADS"}
    env["PYTHONHASHSEED"] = "0"  # fixed set order, so counts repeat exactly
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    spawn(base + ["--setup-only"], env)  # fill the bytecode cache; not timed
    t_begin = time.monotonic()
    plain, traced, setups = [], [], []
    attempted = failed = 0
    n_checks = None
    iterations = 0
    last = 0.0
    while True:
        # stop before a repetition that would end after --seconds
        elapsed = time.monotonic() - t_begin
        if elapsed + last > DEADLINE_S or (
                iterations >= (1 if args.trace else MIN_REPS)
                and elapsed + last > args.seconds):
            break
        iterations += 1
        t_rep = time.monotonic()
        # set-up samples spread over the run, not bunched in one moment
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            start, out = spawn(base + ["--setup-only"], env)
            if out is not None:
                setups.append(out["setup_end"] - start)
        for tracing in ((False, True) if args.trace else (False,)):
            start, out = spawn(base + (["--trace"] if tracing else []), env)
            if out is None:
                # the child crashed or timed out: all its checks failed
                n = n_checks or 1
                attempted += n
                failed += n
                continue
            results = out["results"]
            n_checks = len(results)
            attempted += len(results)
            failed += sum(not r["ok"] for r in results)
            setups.append(out["setup_end"] - start)
            rep = {"peak_rss_mb": out["rss_kb"] / 1024,
                   "results": results, "layers": out.get("layers")}
            (traced if tracing else plain).append(rep)
        last = time.monotonic() - t_rep
    if not plain or (args.trace and not traced):
        print("bench: no repetition completed", file=sys.stderr)
        return 1

    if args.trace:
        values = []
        for rep in traced:
            v = dict(rep["layers"])
            v.update(check_seconds(rep["results"]))
            v["verify.tuples_checked"] = sum(r["tuples_checked"]
                                             for r in rep["results"])
            values.append(v)
        names = [m["name"] for m in wanted]
        produced = set(values[0])
        declared = set(names) - {"trace.overhead_ratio"}
        # a check function this workload does not call reads 0 seconds
        unknown = sorted((produced - declared) | {
            n for n in declared - produced if not n.endswith(".s")})
        if unknown:
            print(f"bench: trace metrics and BENCHMARK.json disagree: {unknown}",
                  file=sys.stderr)
            return 2
        metrics = {name: statistics.median(v.get(name, 0.0) for v in values)
                   for name in names if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = wall_s(traced) / wall_s(plain)
        write_spans(args, traced)
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": wall_s(plain),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                    for r in plain)}

    units = {m["name"]: m["unit"] for m in wanted}
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(plain)} untraced and {len(traced)} traced repetitions, "
          f"{len(setups)} set-up samples")
    print("  wall_s by repetition: " + " ".join(
        f"{rep['results'][-1]['end'] - rep['results'][0]['start']:.3f}"
        for rep in plain))
    for name in units:
        print(f"  {name:44s} {metrics[name]:>14.6g} {units[name]}")
    frac = failed / attempted
    print(f"  {'fail_frac':44s} {frac:>14.6g} ({failed}/{attempted} checks)")
    facts = {"src.lines": src_lines(), "nproc": os.cpu_count(),
             "python": platform.python_version(), "fail_frac": frac,
             "workload": args.workload, "seed": args.seed}
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if failed == 0 else 1


def write_spans(args, traced: list) -> None:
    """One span per check (parent: the repetition's workload span)."""
    spans = []
    for i, rep in enumerate(traced):
        res = rep["results"]
        t0 = res[0]["start"]
        root = f"{args.workload}#{i}"
        spans.append({"name": root, "start": 0.0,
                      "end": res[-1]["end"] - t0, "parent": None})
        spans += [{"name": r["name"], "function": r["function"],
                   "start": r["start"] - t0, "end": r["end"] - t0,
                   "parent": root} for r in res]
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}.spans.json").write_text(
        json.dumps(spans, indent=1))


if __name__ == "__main__":
    sys.exit(main())
