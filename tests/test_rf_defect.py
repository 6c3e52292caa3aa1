"""The reads-from checks: structural rules in ``Instance.mate`` (input errors),
solver rules in ``rf_defect`` (inconsistent verdicts), one case per reason."""

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
    emit_smtlib,
    encode_2sat,
    make_instance,
    rf_defect,
    saturate,
    solve_acyclic,
    solve_sync,
    solve_vchrf,
    solve_vchrf_saturated,
)
from chanlin.core import pending_edges
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
            assert brute_force(inst.abstract, inst.cap_map, inst.rf).outcome == INCONSISTENT, bad
    assert reasons == {
        "receive N has no rf source",
        "send N is unmatched on a synchronous channel",
        "rf (N,N): synchronous pair within one thread",
    }


# (events, capacities, rf, expected message): input errors that make_instance
# rejects.  It sorts rf, so the injectivity defect is found at (2,3).
STRUCTURAL = {
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
def test_hand_built_instance_is_checked_at_first_solver_call(name):
    """An ``Instance`` built without make_instance gets the same check, with
    the same message, the first time anything reads its rf."""
    events, cap, rf, message = STRUCTURAL[name]
    inst = Instance("abstract", tuple(events), tuple(sorted(cap.items())), tuple(sorted(rf)))
    raised = 0
    for fn in (*RF_SOLVERS, rf_defect, saturate, encode_2sat, emit_smtlib, pending_edges):
        try:
            fn(inst)
        except AlgorithmRefused:
            continue
        except ValidationError as exc:
            assert str(exc) == message, fn.__name__
            raised += 1
            continue
        pytest.fail(f"{fn.__name__} accepted a bad rf pair")
    assert raised >= 7


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
