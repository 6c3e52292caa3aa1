#!/usr/bin/env python3
"""Build, serialize and write one workload's corpus.

    python3 bench/corpus.py WORKLOAD SEED DIR

``run.py`` runs this in a child process, so that the corpus's memory stays
out of the check loop's ``peak_rss_mb``.  The build is repeated at least
SETUP_MIN_REPS times and until the repetitions add up to SETUP_MIN_S.  Then,
untimed, every file is read back with the benchmark's own parser and compared
with its construction, and the construction trace of every consistent case is
replayed against it.  The last stdout line is JSON: ``setup_s``, the median
build time, and ``cases``, each case's name, event count and expected exit
code.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from replay import Spec, read_instance, replay  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.5


def build(workload: str, seed: int, work: Path):
    """Generate and write the corpus; return it and the median build time."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S and len(times) < 50):
        cases = None  # drop the previous corpus before building the next
        t0 = time.perf_counter()
        cases = WORKLOADS[workload](seed)
        for c in cases:
            (work / f"{c.name}.vchk").write_text(c.text, encoding="utf-8")
        times.append(time.perf_counter() - t0)
    return cases, statistics.median(times)


def main() -> int:
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    cases, setup_s = build(workload, seed, work)
    for c in cases:
        spec = read_instance(work / f"{c.name}.vchk")
        if spec != Spec.of(c.events, c.cap, c.rf):
            sys.exit(f"{c.name}: the file does not hold the constructed instance")
        if c.trace is not None:
            why = replay(spec, [(i, *spec.attrs[i]) for i in c.trace])
            if why:
                sys.exit(f"{c.name}: construction trace is not well formed: {why}")
    print(json.dumps({"setup_s": setup_s, "cases": [[c.name, c.n, c.expect] for c in cases]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
