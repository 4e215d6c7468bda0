"""One repetition of a workload, in a fresh process so every memo starts cold.

    python3 bench/child.py --workload NAME --seed N [--trace] [--setup-only]

Builds the workload's configs (the set-up), runs its checks through the
outcome gate and prints one JSON line: the monotonic time at which set-up
ended, one result per check, the peak resident memory and, with
``--trace``, the per-layer counters.  Started by ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    checks = workloads.build(args.workload, args.seed)
    setup_end = time.monotonic()
    out = {"setup_end": setup_end}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        out["results"] = gate.run_checks(checks, workloads.expected(args.seed))
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            out["layers"] = tracer.metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
