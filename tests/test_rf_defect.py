"""The shared reads-from precheck: soundness against brute force, one case per reason."""

from __future__ import annotations

import random
import re

import pytest

from chanlin import (
    INCONSISTENT,
    INF,
    AbstractExecution,
    AlgorithmRefused,
    Event,
    brute_force,
    rf_defect,
    solve_acyclic,
    solve_sync,
    solve_vchrf,
    solve_vchrf_saturated,
)
from .conftest import rand_instance

RF_SOLVERS = (solve_sync, solve_acyclic, solve_vchrf, solve_vchrf_saturated)


def test_rejections_are_inconsistent():
    rng = random.Random(31)
    reasons = set()
    for _ in range(1500):
        inst = rand_instance(rng, with_rf=True)
        x, cap = inst.abstract, inst.cap_map
        bad = rf_defect(x, cap, inst.rf)
        if bad is not None:
            reasons.add(re.sub(r"\d+", "N", bad))
            assert brute_force(x, cap, inst.rf).outcome == INCONSISTENT, bad
    # make_instance already rejects endpoint and injectivity defects, so these
    # three remain.
    assert reasons == {
        "receive N has no rf source",
        "send N is unmatched on a synchronous channel",
        "rf (N,N): synchronous pair within one thread",
    }


# (events, capacities, rf, expected reason); built without make_instance, which
# would reject the endpoint and injectivity defects before any solver saw them.
CASES = {
    "missing endpoint": (
        [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c")],
        {"c": 0.0},
        ((1, 9),),
        "rf (1,9): endpoint missing",
    ),
    "op mismatch": (
        [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c")],
        {"c": 0.0},
        ((2, 1),),
        "rf (2,1): rf endpoint op mismatch",
    ),
    "different channels": (
        [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "d")],
        {"c": 0.0, "d": 0.0},
        ((1, 2),),
        "rf (1,2): endpoints on different channels",
    ),
    "not injective": (
        [Event(1, "t1", "snd", "c"), Event(2, "t1", "snd", "c"), Event(3, "t2", "rcv", "c")],
        {"c": INF},
        ((2, 3), (1, 3)),
        "rf (1,3): rf is not injective",
    ),
    "sync pair within one thread": (
        [Event(1, "t1", "snd", "c"), Event(2, "t1", "rcv", "c")],
        {"c": 0.0},
        ((1, 2),),
        "rf (1,2): synchronous pair within one thread",
    ),
    "no rf source": (
        [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c")],
        {"c": 1.0},
        (),
        "receive 2 has no rf source",
    ),
    "unmatched sync send": (
        [Event(1, "t1", "snd", "c")],
        {"c": 0.0},
        (),
        "send 1 is unmatched on a synchronous channel",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_reason(name):
    events, cap, rf, reason = CASES[name]
    x = AbstractExecution(events=tuple(events))
    assert rf_defect(x, cap, rf) == reason
    applied = 0
    for solve in RF_SOLVERS:
        try:
            v = solve(x, cap, rf)
        except AlgorithmRefused:
            continue
        applied += 1
        assert (v.outcome, v.reason, v.explored) == (INCONSISTENT, reason, 0), solve.__name__
    assert applied >= 3


def test_accepts_realizable_rf():
    events = [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c"), Event(3, "t1", "snd", "d")]
    x = AbstractExecution(events=tuple(events))
    assert rf_defect(x, {"c": 0.0, "d": INF}, ((1, 2),)) is None
