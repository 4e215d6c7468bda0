"""Print one digest per benchmark Report, to show that a change leaves every
Report byte-identical.

    python3 tools/report_digests.py > digests.txt

Run it on two checkouts and diff the outputs.  It builds every workload of
``bench/workloads.py`` at seeds 0-3, runs each check once and prints one
line per check: workload, seed, check name and the sha256 of the Report's
``to_json(with_timing=False)``.  Nothing under ``bench/`` is changed, and only
the standard library and ``src/superkon`` of the checkout that holds this
file are used.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

SEEDS = range(4)


def main() -> None:
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for check in workloads.build(name, seed):
                text = check.run().to_json(with_timing=False)
                digest = hashlib.sha256(text.encode()).hexdigest()
                print(name, seed, check.name, digest, flush=True)


if __name__ == "__main__":
    main()
