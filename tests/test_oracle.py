"""Exhaustive oracle: bounds, witness shape, basic semantics."""

from __future__ import annotations

import pytest

from chanlin import Event, INF, brute_force, make_instance
from chanlin.oracle import BoundExceeded


def test_bound_enforced():
    events = [Event(i, "t1", "snd", "c", "1") for i in range(1, 15)]
    inst = make_instance("abstract", events, {"c": INF})
    with pytest.raises(BoundExceeded):
        brute_force(inst, inst.cap_map)
    assert brute_force(inst, inst.cap_map, bound=20).consistent


def test_values_required_without_rf():
    inst = make_instance("abstract", [Event(1, "t1", "snd", "c")], {"c": INF})
    with pytest.raises(ValueError):
        brute_force(inst, inst.cap_map)


def test_witness_is_lexicographically_first_by_thread():
    # Two independent sends: the thread-1 event should come first.
    events = [Event(1, "a", "snd", "c", "1"), Event(2, "b", "snd", "c", "2")]
    inst = make_instance("abstract", events, {"c": INF})
    v = brute_force(inst, inst.cap_map)
    assert v.witness == (1, 2)


def test_sync_handshake():
    events = [Event(1, "t1", "snd", "c", "1"), Event(2, "t2", "rcv", "c", "1")]
    inst = make_instance("abstract", events, {"c": 0.0})
    assert brute_force(inst, inst.cap_map).witness == (1, 2)


def test_rf_mode_ignores_values():
    events = [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c")]
    inst = make_instance("abstract", events, {"c": 1.0}, [(1, 2)])
    assert brute_force(inst, inst.cap_map, inst.rf).consistent


def test_empty_instance():
    inst = make_instance("abstract", [], {"c": 1.0})
    v = brute_force(inst, inst.cap_map, rf=())
    assert v.consistent and v.witness == ()


def test_receive_in_two_rf_pairs_inconsistent():
    # The witness (1, 2, 3) realizes only (1, 3); no trace gives receive 3 two
    # sources.  make_instance rejects such an rf, so it is passed directly.
    events = [Event(1, "t1", "snd", "c"), Event(2, "t1", "snd", "c"), Event(3, "t2", "rcv", "c")]
    inst = make_instance("abstract", events, {"c": INF})
    v = brute_force(inst, inst.cap_map, rf=((2, 3), (1, 3)))
    assert not v.consistent and v.witness is None
