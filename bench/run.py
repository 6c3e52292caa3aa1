#!/usr/bin/env python3
"""Check benchmark: time to a verified verdict, end to end and per layer.

    python3 bench/run.py --workload sat3-search --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all        # every workload, one process each

One run builds the workload's corpus from ``--seed``, then runs checks in a
closed loop (one caller, no threads) for about ``--seconds`` seconds, in whole
passes over the corpus.  A check is ``chanlin check FILE --witness W`` called
in-process through ``chanlin.cli.main``, followed by ``chanlin check W`` when
the first call exits 0; its time covers both calls.  Outside the timed region
every verdict is compared with the case's known answer and every witness is
replayed by ``replay.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced (see ``tracer.py``), times CLI cold starts on
``instances/``, and prints the per-layer metrics.  The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 if any check failed.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import chanlin.cli  # noqa: E402

if Path(chanlin.cli.__file__).resolve().parent != (SRC / "chanlin").resolve():
    sys.exit(f"error: chanlin was imported from {chanlin.cli.__file__}, not from {SRC}")

from replay import read_instance, read_witness, replay  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1  # NOTES.md names the seed held out for validating claims
COLD_START_REPS = 3
TAIL_BEYOND = 10

# The layer metrics that should hold most of the check time on each workload.
DESIGNATED = {
    "sat3-search": ["frontier.search_s"],
    "ring-saturate": ["saturation.saturate_s"],
    "pipeline-100k": [
        "core.parse_s",
        "core.validate_s",
        "core.serialize_s",
        "core.wellformed_s",
        "core.classify_s",
    ],
    "twothread-2sat": ["fastpath.encode_2sat_s", "fastpath.solve_2sat_s"],
}


def calibrate() -> float:
    """Median time of a fixed pure-Python loop, to tell a slow host from a regression."""

    def once() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i & 7
        return time.perf_counter() - t0

    return statistics.median(once() for _ in range(3))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "chanlin").glob("*.py")))


@dataclass(frozen=True)
class Case:
    """One instance file of the corpus and the exit code a correct checker returns."""

    name: str
    n: int  # events
    expect: int


def setup(workload: str, seed: int, work: Path) -> tuple[list[Case], float]:
    """Build the corpus in ``corpus.py``, in a child process, so that the
    corpus's memory stays out of ``peak_rss_mb``; return it and ``setup_s``."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "corpus.py"), workload, str(seed), str(work)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return [Case(*c) for c in result["cases"]], result["setup_s"]


def cli_call(args: list[str]) -> tuple[int, str]:
    """Run one chanlin command in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            chanlin.cli.main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    return code, out.getvalue()


@dataclass
class Loop:
    """Samples of one closed-loop measurement."""

    samples: dict[str, list[float]]
    passes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(ts) for name, ts in self.samples.items() if ts}


def check(case: Case, work: Path, tracer: Tracer | None, tag: str):
    """One timed check; returns (seconds or None, explored states or None, error or None)."""
    path, wit = str(work / f"{case.name}.vchk"), str(work / f"{case.name}.wit.vchk")
    with contextlib.suppress(FileNotFoundError):
        os.remove(wit)
    root = tracer.root if tracer else (lambda _tag: contextlib.nullcontext())
    wcode = None
    try:
        t0 = time.perf_counter()
        with root(tag):
            code, out = cli_call(["check", path, "--witness", wit])
        if code == 0:
            with root(tag + "/witness"):
                wcode, _ = cli_call(["check", wit])
        dt = time.perf_counter() - t0
    except Exception as exc:  # a crash is a failed check, never a verdict
        return None, None, f"raised {type(exc).__name__}: {exc}"
    states = None
    for line in out.splitlines():
        if line.startswith("explored: "):
            states = int(line.split()[1])
    if code != case.expect:
        return dt, states, f"exit {code}, expected {case.expect}"
    if states is None:
        return dt, states, "no explored: line"
    if code == 0:
        if wcode != 0:
            return dt, states, f"chanlin check rejected its own witness (exit {wcode})"
        why = replay(read_instance(path), read_witness(wit))
        if why:
            return dt, states, f"witness replay: {why}"
    return dt, states, None


def run_loop(cases, work, budget, states, tracer=None) -> tuple[Loop, Loop]:
    """Whole passes over the corpus while another pass fits in ``budget`` seconds.

    With a tracer, passes alternate untraced and traced (at least one each), so
    that host drift during the run affects both alike.  ``states`` maps case
    name to explored states; a pass that disagrees with an earlier one is a
    failure, because the count must repeat exactly.
    """
    plain, traced = Loop({c.name: [] for c in cases}), Loop({c.name: [] for c in cases})
    t_start = time.perf_counter()
    passes = 0
    while True:
        loop = traced if tracer is not None and passes % 2 else plain
        if loop is traced:
            tracer.install()
        try:
            for c in cases:
                dt, st, err = check(c, work, tracer if loop is traced else None, f"{c.name}#{passes}")
                loop.attempted += 1
                if dt is not None:
                    loop.samples[c.name].append(dt)
                if err is None and states.setdefault(c.name, st) != st:
                    err = f"explored {st} states, earlier pass {states[c.name]}"
                if err:
                    loop.failures.append(f"{c.name}: {err}")
        finally:
            if loop is traced:
                tracer.uninstall()
        loop.passes += 1
        passes += 1
        elapsed = time.perf_counter() - t_start
        if elapsed * (passes + 1) / passes > budget and (tracer is None or traced.passes):
            return plain, traced


def end_to_end(cases: list[Case], loop: Loop, setup_s: float) -> tuple[dict, str]:
    """End-to-end metrics of the untraced loop.

    The tail is the highest check time with ``min(10, C / 4)`` checks of
    every pass beyond it (C cases per pass), so its percentile does not move
    with the number of passes; ``events_per_s`` divides one pass's events by
    the sum of per-case median check times, so one slow pass cannot move it.
    """
    samples = sorted(t for ts in loop.samples.values() for t in ts)
    n = len(samples)
    beyond = int(loop.passes * min(TAIL_BEYOND, len(cases) / 4))
    med = loop.medians()
    events = sum(case.n for case in cases if case.name in med)
    metrics = {
        "events_per_s": (events / sum(med.values()), "events/s"),
        "check_ms_p50": (statistics.median(samples) * 1e3, "ms"),
        "check_ms_tail": (samples[n - beyond - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    note = f"p{100 * (n - beyond) / n:.1f} of {n} checks, {loop.passes} passes of {len(cases)} cases"
    return metrics, note


def per_layer(tracer: Tracer, passes: int) -> dict:
    """Self times and counts per pass, from the traced loop's spans."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, int] = {}
    refused_s = 0.0
    check_s = 0.0
    for s in tracer.spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        calls[s.name] = calls.get(s.name, 0) + 1
        for k, v in s.info.items():
            info[k] = info.get(k, 0) + v
        if s.info.get("refused"):
            refused_s += s.dur
        if s.parent is None:
            check_s += s.dur
    t = lambda name: self_s.get(name, 0.0) / passes  # noqa: E731
    n = lambda d, name: d.get(name, 0) / passes  # noqa: E731
    search_s = t("frontier.search")
    states = n(info, "states")
    return {
        "frontier.search_s": (search_s, "s"),
        "frontier.states": (states, "states"),
        "frontier.states_per_s": (states / search_s if search_s else 0.0, "states/s"),
        "saturation.saturate_s": (t("saturation.saturate"), "s"),
        "saturation.calls": (n(calls, "saturation.saturate"), "count"),
        "saturation.cycles": (n(info, "cyclic"), "count"),
        "core.parse_s": (t("core.parse"), "s"),
        "core.validate_s": (t("core.validate"), "s"),
        "core.serialize_s": (t("core.serialize"), "s"),
        "core.wellformed_s": (t("core.wellformed"), "s"),
        "core.classify_s": (t("core.classify"), "s"),
        "core.classify_calls": (n(calls, "core.classify"), "count"),
        "fastpath.sync_s": (t("fastpath.sync"), "s"),
        "fastpath.acyclic_s": (t("fastpath.acyclic"), "s"),
        "fastpath.encode_2sat_s": (t("fastpath.encode_2sat"), "s"),
        "fastpath.solve_2sat_s": (t("fastpath.solve_2sat"), "s"),
        "fastpath.projections": (n(calls, "fastpath.encode_2sat"), "count"),
        "fastpath.2sat_vars": (n(info, "vars"), "count"),
        "fastpath.2sat_clauses": (n(info, "clauses"), "count"),
        "cli.self_s": (t("cli.check"), "s"),
        "cli.fastpath_attempts": (
            n(calls, "fastpath.sync") + n(calls, "fastpath.acyclic"),
            "count",
        ),
        "cli.fastpath_refusals": (n(info, "refused"), "count"),
        "cli.refused_s": (refused_s / passes, "s"),
        "check_s": (check_s / passes, "s"),
    }


def cold_start() -> tuple[float, list[str], list[str], int]:
    """``python -m chanlin.cli check`` on each bundled fixture, in a fresh interpreter.

    The expected exit code is read from the fixture's name.  Returns the median
    over files of each file's median milliseconds, report lines, failures and
    the number of runs.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lines, failures, per_file = [], [], []
    runs = 0
    for f in sorted((ROOT / "instances").glob("*.vchk")):
        stem = f.stem
        if "negative" in stem or "violation" in stem:
            want = 1
        elif "positive" in stem or stem.endswith("_ok"):
            want = 0
        else:
            failures.append(f"{f.name}: name states no verdict")
            continue
        times = []
        for _ in range(COLD_START_REPS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "chanlin.cli", "check", str(f)],
                cwd=ROOT,
                env=env,
                capture_output=True,
                timeout=60,
            )
            times.append(time.perf_counter() - t0)
            runs += 1
            if proc.returncode != want:
                failures.append(f"{f.name}: exit {proc.returncode}, expected {want}")
        per_file.append(statistics.median(times) * 1e3)
        lines.append(f"  cold_start {f.name}: {per_file[-1]:.1f} ms")
    return statistics.median(per_file), lines, failures, runs


def emit(metrics: dict, attempted: int, failures: list[str], notes: dict[str, str]) -> int:
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {value:.6g} {unit}{extra}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = BENCH / "work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        calib_start = calibrate()
        cases, setup_s = setup(workload, seed, work)
        print(f"workload: {workload}  seed: {seed}  cases: {len(cases)}  "
              f"events: {sum(c.n for c in cases)}  trace: {int(trace)}")
        states: dict[str, int] = {}
        tracer = Tracer() if trace else None
        plain, traced = run_loop(cases, work, seconds, states, tracer)
        failures = plain.failures + traced.failures
        attempted = plain.attempted + traced.attempted
        metrics, tail_note = end_to_end(cases, plain, setup_s)
        if trace:
            out = BENCH / "out"
            out.mkdir(exist_ok=True)
            tracer.dump(str(out / f"spans-{workload}-seed{seed}.jsonl"))
            layers = per_layer(tracer, traced.passes)
            check_s = layers.pop("check_s")[0]
            cold_ms, cold_lines, cold_failures, cold_runs = cold_start()
            failures += cold_failures
            attempted += cold_runs
            plain_s = sum(plain.medians().values())
            traced_s = sum(traced.medians().values())
            layers["cli.cold_start_ms"] = (cold_ms, "ms")
            layers["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
        states_explored = sum(states.values())
        print(f"states_explored: {states_explored} states")
        print(f"failed_frac: {len(failures) / attempted:.6g} ratio  ({len(failures)} of {attempted})")
        calib = (calib_start + calibrate()) / 2
        print(f"host.calib_s: {calib:.6g} s  src_lines: {src_lines()} lines")
        if not trace:
            return emit(metrics, attempted, failures, {"check_ms_tail": tail_note})
        share = sum(layers[m][0] for m in DESIGNATED[workload]) / check_s
        print(f"check_s per traced pass: {check_s:.6g} s; designated layer share: "
              f"{share:.3f} ({' + '.join(DESIGNATED[workload])})")
        print("\n".join(cold_lines))
        layers["states_explored"] = (states_explored, "states")
        layers["host.calib_s"] = (calib, "s")
        layers["src_lines"] = (src_lines(), "lines")
        return emit(layers, attempted, failures, {})
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS belongs to that workload."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
