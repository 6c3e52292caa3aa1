"""Bounded-exhaustive differential check: every small instance, up to thread
and channel renaming, decided by each solver and by ``brute_force``.

The scope (small-scope testing, Jackson, *Software Abstractions*, 2006):

* 2 to ``max_n`` events on 1 to 3 threads, sizes in non-increasing order;
* each event a send or a receive on channel ``a`` or ``b``, with ``a`` used
  first (by the first event in dense order);
* every capacity assignment from ``CAPS``;
* rf mode: every injective rf that gives each receive a send of its channel
  (sends may stay pending);
* value mode: every value assignment from ``x``/``y``, ``x`` used first.

Each instance is decided once by ``brute_force``.  In rf mode that verdict
is checked against every rf solver, against ``chanlin check``'s ``auto``
dispatch with and without saturation, at its search budget and at a budget
of 0, and, on fully matched instances, against the time reversal (same
verdict, converse saturated order).  The test suite runs rf mode at n ≤ 5
and value mode at n ≤ 4.  For a larger scope, from the repository root (each
mismatch is printed in the instance file format)::

    PYTHONPATH=src python -m tests.test_exhaustive --max-n 7 [--mode value]
"""

from __future__ import annotations

import argparse
import itertools
import time
from collections import defaultdict
from functools import partial

import pytest

from chanlin import cli
from chanlin import (
    INF,
    AlgorithmRefused,
    Event,
    Instance,
    brute_force,
    make_instance,
    serialize_instance,
    solve_acyclic,
    solve_sync,
    solve_vch,
    solve_vchrf,
    solve_vchrf_saturated,
)
from .conftest import assert_reverses_to_converse, assert_valid_witness, fully_matched, reverse

CAPS = (0.0, 1.0, 2.0, INF)
THREADS = ("t1", "t2", "t3")


def _sizes(n: int):
    """Thread sizes summing to ``n``: 1 to 3 positive parts, non-increasing."""
    for t in range(1, len(THREADS) + 1):
        for parts in itertools.combinations_with_replacement(range(n, 0, -1), t):
            if sum(parts) == n:
                yield parts


def _shapes(max_n: int):
    """Every (thread, op, channel) list in dense order, ``a`` used first."""
    for n in range(2, max_n + 1):
        for sizes in _sizes(n):
            threads = [th for th, k in zip(THREADS, sizes) for _ in range(k)]
            for ops in itertools.product(("snd", "rcv"), repeat=n):
                for chs in itertools.product("ab", repeat=n - 1):
                    yield list(zip(threads, ops, ("a",) + chs))


def _caps(shape):
    used = sorted({ch for _, _, ch in shape})
    for caps in itertools.product(CAPS, repeat=len(used)):
        yield dict(zip(used, caps))


def rf_instances(max_n: int):
    """Every rf-mode instance of the scope with at most ``max_n`` events."""
    for shape in _shapes(max_n):
        events = [Event(i, th, op, ch) for i, (th, op, ch) in enumerate(shape, 1)]
        sends, rcvs = defaultdict(list), defaultdict(list)
        for e in events:
            (sends if e.op == "snd" else rcvs)[e.channel].append(e.id)
        per_channel = [
            [tuple(zip(ss, rr)) for ss in itertools.permutations(sends[ch], len(rr))]
            for ch, rr in sorted(rcvs.items())
        ]
        for rf_parts in itertools.product(*per_channel):
            rf = [pair for part in rf_parts for pair in part]
            for cap in _caps(shape):
                yield make_instance("abstract", events, cap, rf)


def value_instances(max_n: int):
    """Every value-mode instance of the scope with at most ``max_n`` events."""
    for shape in _shapes(max_n):
        for vals in itertools.product("xy", repeat=len(shape) - 1):
            events = [
                Event(i, th, op, ch, v)
                for i, ((th, op, ch), v) in enumerate(zip(shape, ("x",) + vals), 1)
            ]
            for cap in _caps(shape):
                yield make_instance("abstract", events, cap)


def solver_mismatches(inst: Instance, want: str, solvers) -> list[str]:
    """Each solver whose verdict differs from ``want``, the brute-force
    verdict, or whose witness is not a po-respecting well-formed trace that
    realizes the rf; a solver that refuses the instance is skipped."""
    out = []
    for solve in solvers:
        try:
            got = solve(inst)
        except AlgorithmRefused:
            continue
        if got.outcome != want:
            out.append(f"{solve.__name__}: {got.outcome}, brute force {want}")
        elif got.consistent:
            try:
                assert_valid_witness(inst, got)
            except AssertionError as exc:
                out.append(f"{solve.__name__}: bad witness {got.witness}: {exc}")
    return out


def auto_mismatches(inst: Instance, want: str) -> list[str]:
    """``auto``, with and without saturation: first at a budget of 0, so an
    instance that reaches the budgeted search falls back to the 2SAT, then at
    the default budget where that fallback happened; elsewhere the budget was
    not read, so no budget changes the route."""
    budget, out = cli.AUTO_STATES_PER_EVENT, []
    try:
        for saturation in (True, False):
            for per_event in (0, budget):
                cli.AUTO_STATES_PER_EVENT = per_event
                got, used = cli._dispatch(inst, "auto", saturation)
                try:
                    assert got.outcome == want, f"{got.outcome}, brute force {want}"
                    if got.consistent:
                        assert_valid_witness(inst, got)
                except AssertionError as exc:
                    out.append(f"auto (saturation {saturation}, budget {per_event}, {used}): {exc}")
                if used != "acyclic":
                    break
    finally:
        cli.AUTO_STATES_PER_EVENT = budget
    return out


def reversal_mismatches(inst: Instance, want: str) -> list[str] | None:
    """On a fully matched instance, where its time reversal fails to have the
    same brute-force verdict or the converse saturated order; None on any
    other instance, which ``reverse`` does not apply to."""
    if not fully_matched(inst):
        return None
    rev = reverse(inst)
    got = brute_force(rev, rev.cap_map, rev.rf, bound=rev.n).outcome
    out = [] if got == want else [f"reverse: {got}, brute force {want}"]
    try:
        assert_reverses_to_converse(inst)
    except AssertionError as exc:
        out.append(f"reverse: saturated order is not the converse: {exc!r}")
    return out


RF_SOLVERS = (solve_vchrf, solve_vchrf_saturated, solve_sync, solve_acyclic)
VALUE_SOLVERS = (solve_vch,)
RF_CHECKS = {
    "solvers": partial(solver_mismatches, solvers=RF_SOLVERS),
    "auto": auto_mismatches,
    "reversal": reversal_mismatches,
}
VALUE_CHECKS = {"solvers": partial(solver_mismatches, solvers=VALUE_SOLVERS)}


def run(instances, checks) -> tuple[dict[str, int], dict[str, list[tuple[Instance, list[str]]]]]:
    """Decide each instance once by brute force and run every check against
    that verdict; per check, the number of instances it applied to (a check
    that returns None does not apply) and every instance with a mismatch."""
    checked = dict.fromkeys(checks, 0)
    bad: dict[str, list[tuple[Instance, list[str]]]] = {name: [] for name in checks}
    for inst in instances:
        want = brute_force(inst, inst.cap_map, inst.rf, bound=inst.n).outcome
        for name, check in checks.items():
            found = check(inst, want)
            checked[name] += found is not None
            if found:
                bad[name].append((inst, found))
    return checked, bad


@pytest.fixture(scope="module")
def rf_scope():
    """The n ≤ 5 rf scope, enumerated and brute-forced once for its tests."""
    return run(rf_instances(5), RF_CHECKS)


def test_rf_mode_matches_brute_force(rf_scope):
    checked, bad = rf_scope
    assert checked["solvers"] == 32_912
    assert not bad["solvers"], bad["solvers"][:3]


def test_auto_matches_brute_force(rf_scope):
    checked, bad = rf_scope
    assert checked["auto"] == 32_912
    assert not bad["auto"], bad["auto"][:3]


def test_reversal_matches_brute_force(rf_scope):
    checked, bad = rf_scope
    assert checked["reversal"] == 976  # the fully matched instances
    assert not bad["reversal"], bad["reversal"][:3]


def test_value_mode_matches_brute_force():
    checked, bad = run(value_instances(4), VALUE_CHECKS)
    assert checked["solvers"] == 64_704
    assert not bad["solvers"], bad["solvers"][:3]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-n", type=int, default=5, help="events per instance, at most")
    ap.add_argument("--mode", choices=("rf", "value"), default="rf")
    args = ap.parse_args(argv)
    if args.mode == "rf":
        instances, checks = rf_instances(args.max_n), RF_CHECKS
    else:
        instances, checks = value_instances(args.max_n), VALUE_CHECKS
    t0 = time.perf_counter()
    checked, bad = run(instances, checks)
    found = [(inst, lines) for name in checks for inst, lines in bad[name]]
    for inst, lines in found[:10]:
        print(serialize_instance(inst) + "\n".join(lines))
    print(f"mode: {args.mode}\nmax_n: {args.max_n}\ninstances: {checked['solvers']}")
    for name in checks:
        print(f"{name}: {checked[name]} checked, {len(bad[name])} mismatched")
    print(f"mismatches: {len(found)}\nseconds: {time.perf_counter() - t0:.1f}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
