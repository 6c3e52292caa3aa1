"""Input checks and the reads-from precheck: structural rules, checked when an
``Instance`` is built (input errors), and solver rules in ``rf_defect``
(inconsistent verdicts), one case per reason."""

from __future__ import annotations

import random
import re

import pytest

from chanlin import (
    INCONSISTENT,
    INF,
    AlgorithmRefused,
    Event,
    Instance,
    ValidationError,
    brute_force,
    make_instance,
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
        bad = rf_defect(inst)
        if bad is not None:
            reasons.add(re.sub(r"\d+", "N", bad))
            assert brute_force(inst, inst.cap_map, inst.rf).outcome == INCONSISTENT, bad
    assert reasons == {
        "receive N has no rf source",
        "send N is unmatched on a synchronous channel",
        "rf (N,N): synchronous pair within one thread",
    }


# (events, capacities, rf, expected message): input errors that building an
# Instance rejects.  make_instance sorts rf, so the injectivity defect is found
# at (2,3).
STRUCTURAL = {
    "duplicate id": (
        [Event(1, "t1", "snd", "c"), Event(1, "t2", "rcv", "c")],
        {"c": INF},
        None,
        "duplicate event id 1",
    ),
    "bad op": (
        [Event(1, "t1", "snd", "c"), Event(2, "t2", "recv", "c")],
        {"c": INF},
        None,
        "event 2: bad op 'recv'",
    ),
    "negative id": ([Event(-1, "t1", "snd", "c")], {"c": INF}, None, "event -1: negative id"),
    "no capacity line": (
        [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "d")],
        {"c": INF},
        None,
        "event 2: channel 'd' has no capacity line",
    ),
    "bad capacity": (
        [Event(1, "t1", "snd", "c")],
        {"c": -1.0},
        None,
        "channel 'c': bad capacity -1.0",
    ),
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
        "rf (2,3): rf is not injective",
    ),
}

# (events, capacities, rf, expected reason): rf no interleaving can realize.
SOLVER_RULES = {
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


@pytest.mark.parametrize("name", sorted(STRUCTURAL))
def test_hand_built_instance_is_checked_at_construction(name):
    """An ``Instance`` built without make_instance gets the same check, with
    the same message, when it is built."""
    events, cap, rf, message = STRUCTURAL[name]
    rf = None if rf is None else tuple(sorted(rf))
    with pytest.raises(ValidationError) as exc:
        Instance(tuple(events), tuple(sorted(cap.items())), rf)
    assert str(exc.value) == message


def test_hand_built_trace_holds_the_instance_events():
    e1, e2 = Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c")
    cap = (("c", INF),)
    assert Instance((e2, e1), cap, None, trace=(e2, e1)).kind == "trace"
    with pytest.raises(ValidationError, match="events are not the trace's events"):
        Instance((e1, e2), cap, None, trace=(e2,))


@pytest.mark.parametrize("name", sorted(STRUCTURAL | SOLVER_RULES))
def test_each_reason(name):
    """A structural defect fails make_instance; a solver-rule defect is the
    reason of every rf solver's inconsistent verdict."""
    if name in STRUCTURAL:
        events, cap, rf, message = STRUCTURAL[name]
        with pytest.raises(ValidationError, match=re.escape(message)):
            make_instance("abstract", events, cap, rf)
        return
    events, cap, rf, reason = SOLVER_RULES[name]
    inst = make_instance("abstract", events, cap, rf)
    assert rf_defect(inst) == reason
    applied = 0
    for solve in RF_SOLVERS:
        try:
            v = solve(inst)
        except AlgorithmRefused:
            continue
        applied += 1
        assert (v.outcome, v.reason, v.explored) == (INCONSISTENT, reason, 0), solve.__name__
    assert applied >= 3


def test_accepts_realizable_rf():
    events = [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c"), Event(3, "t1", "snd", "d")]
    assert rf_defect(make_instance("abstract", events, {"c": 0.0, "d": INF}, [(1, 2)])) is None
