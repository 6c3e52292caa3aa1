"""Frontier-graph solvers: figure instances, witnesses, rf validation."""

from __future__ import annotations

import random

import pytest

from chanlin import (
    Event,
    INF,
    brute_force,
    make_instance,
    parse_instance,
    solve_vch,
    solve_vchrf,
    solve_vchrf_saturated,
)
from chanlin.generators import mutate_rf, random_positive
from .conftest import assert_valid_witness, rand_instance


def _load(fixtures, name):
    return parse_instance((fixtures / name).read_text())


class TestSolveVch:
    def test_two_thread_cap1_positive(self, fixtures):
        inst = _load(fixtures, "two_thread_cap1_positive.vchk")
        v = solve_vch(inst)
        assert v.consistent
        assert v.witness == (1, 4, 2, 5, 6, 3)
        assert_valid_witness(inst, v)

    def test_three_thread_cap2_positive(self, fixtures):
        inst = _load(fixtures, "three_thread_cap2_positive.vchk")
        v = solve_vch(inst)
        assert v.consistent
        assert_valid_witness(inst, v)

    def test_requires_values(self):
        inst = make_instance("abstract", [Event(1, "t", "snd", "c")], {"c": INF})
        with pytest.raises(ValueError, match="value"):
            solve_vch(inst)

    def test_empty_instance_consistent(self):
        inst = make_instance("abstract", [], {"c": 1.0})
        v = solve_vch(inst)
        assert v.consistent and v.witness == ()

    def test_sync_send_needs_other_thread(self):
        events = [Event(1, "t1", "snd", "c", "1"), Event(2, "t1", "rcv", "c", "1")]
        inst = make_instance("abstract", events, {"c": 0.0})
        assert not solve_vch(inst).consistent

    def test_value_mismatch_blocks(self):
        events = [Event(1, "t1", "snd", "c", "1"), Event(2, "t2", "rcv", "c", "2")]
        inst = make_instance("abstract", events, {"c": 1.0})
        assert not solve_vch(inst).consistent

    def test_unmatched_sends_allowed(self):
        events = [Event(1, "t1", "snd", "c", "1"), Event(2, "t1", "snd", "c", "2")]
        inst = make_instance("abstract", events, {"c": 2.0})
        assert solve_vch(inst).consistent


class TestSolveVchrf:
    def test_negative_fixture(self, fixtures):
        inst = _load(fixtures, "two_thread_cap1_negative_rf.vchk")
        assert not solve_vchrf(inst).consistent

    def test_saturated_rejects_without_search(self, fixtures):
        inst = _load(fixtures, "two_thread_cap1_negative_rf.vchk")
        v = solve_vchrf_saturated(inst)
        assert not v.consistent
        assert v.explored == 0

    def test_receive_without_source_inconsistent(self):
        events = [Event(1, "t1", "rcv", "c")]
        inst = make_instance("abstract", events, {"c": INF}, [])
        v = solve_vchrf(inst)
        assert not v.consistent
        assert "no rf source" in (v.reason or "")

    def test_rf_order_must_hold(self):
        # Both sends precede both receives, but rf crosses the FIFO order.
        events = [
            Event(1, "t1", "snd", "c"),
            Event(2, "t1", "snd", "c"),
            Event(3, "t1", "rcv", "c"),
            Event(4, "t1", "rcv", "c"),
        ]
        inst = make_instance("abstract", events, {"c": INF}, [(1, 4), (2, 3)])
        assert not solve_vchrf(inst).consistent


class TestAgainstOracle:
    def test_vch_matches_brute_force(self):
        rng = random.Random(101)
        for _ in range(150):
            inst = rand_instance(rng, with_rf=False)
            got = solve_vch(inst)
            want = brute_force(inst, inst.cap_map)
            assert got.outcome == want.outcome
            if got.consistent:
                assert_valid_witness(inst, got)

    def test_vchrf_matches_brute_force(self):
        rng = random.Random(102)
        for _ in range(150):
            inst = rand_instance(rng, with_rf=True)
            got = solve_vchrf(inst)
            want = brute_force(inst, inst.cap_map, inst.rf)
            assert got.outcome == want.outcome
            if got.consistent:
                assert_valid_witness(inst, got)

    def test_rf_solvers_match_brute_force_on_random_positive(self):
        # Consistent instances and one rf mutation of each, over every
        # capacity kind; both rf solvers are checked against the oracle.
        rng = random.Random(103)
        checked = 0
        while checked < 1000:
            n, t, m = rng.randint(6, 14), rng.randint(2, 4), rng.randint(1, 3)
            try:
                inst, _ = random_positive(n, t, m, (0, 1, 2, 3, INF), rng.randrange(10**9))
            except ValueError:
                continue  # no enabled event left, e.g. an odd n on sync channels
            cases = [inst]
            if inst.rf:
                cases.append(mutate_rf(inst, rng.randrange(10**9), rounds=1)[0])
            for case in cases:
                cap, rf = case.cap_map, case.rf
                want = brute_force(case, cap, rf, bound=case.n)
                for solve in (solve_vchrf, solve_vchrf_saturated):
                    got = solve(case)
                    assert got.outcome == want.outcome, (solve.__name__, case)
                    if got.consistent:
                        assert_valid_witness(case, got)
                checked += 1


# Instances with synchronous channels and three or four threads: random_positive
# draws, one-round mutate_rf twins of two of them (exhausted rf searches), and
# hand-built value-mode rendezvous where several receivers can take one value.
DRAWS = {
    "draw1": (12, 3, 2, (0.0, 1.0, INF), 1),
    "draw2": (12, 3, 2, (0.0, 1.0, INF), 2),
    "draw3": (14, 4, 2, (0.0, 1.0, INF), 3),
    "draw4": (16, 4, 3, (0.0, 0.0, 2.0), 4),
    "draw5": (16, 3, 1, (0.0,), 5),
    "draw6": (14, 4, 1, (0.0,), 6),
}
HAND = {
    "rendezvous": (
        [(1, "t1", "snd", "c", "a"), (2, "t1", "snd", "c", "a"), (3, "t1", "rcv", "d", "b"),
         (4, "t2", "rcv", "c", "a"), (5, "t2", "snd", "d", "b"),
         (6, "t3", "rcv", "c", "a"), (7, "t3", "snd", "d", "b")],
        {"c": 0.0, "d": 1.0},
        [(1, 6), (2, 4), (5, 3)],
    ),
    "fan_in": (
        [(1, "t1", "snd", "c", "a"), (2, "t1", "snd", "c", "a"), (3, "t1", "snd", "c", "a"),
         (4, "t1", "rcv", "d", "b"), (5, "t1", "rcv", "d", "b"),
         (6, "t2", "rcv", "c", "a"), (7, "t2", "snd", "d", "b"),
         (8, "t3", "rcv", "c", "a"), (9, "t3", "snd", "d", "b"),
         (10, "t4", "rcv", "c", "a")],
        {"c": 0.0, "d": 0.0},
        [(1, 10), (2, 8), (3, 6), (7, 4), (9, 5)],
    ),
    # Two rendezvous sends of y and one receive: value mode exhausts its space.
    "extra_send": (
        [(1, "t1", "snd", "c", "a"), (2, "t1", "snd", "c", "a"),
         (3, "t2", "rcv", "c", "a"), (4, "t2", "snd", "e", "y"),
         (5, "t3", "rcv", "c", "a"), (6, "t3", "rcv", "e", "y"),
         (7, "t4", "snd", "e", "y")],
        {"c": 0.0, "e": 0.0},
        [(1, 3), (2, 5), (4, 6)],
    ),
}


def _pinned_instance(name):
    if name in HAND:
        events, cap, rf = HAND[name]
        return make_instance("abstract", [Event(*e) for e in events], cap, rf)
    base, _, twin = name.partition("-")
    inst, _ = random_positive(*DRAWS[base])
    return mutate_rf(inst, DRAWS[base][-1], rounds=1)[0] if twin else inst


# (witness, explored) of solve_vch (None for the valueless twins), solve_vchrf
# and solve_vchrf_saturated.  The oracle tests above accept any witness; these
# fix the depth-first expansion order and the witness the search reads off.
PINNED = {
    "draw1": (
        ((1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11, 12), 95),
        ((1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11, 12), 82),
        ((1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11, 12), 16),
    ),
    "draw2": (
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 7),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 7),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 7),
    ),
    "draw3": (
        ((3, 4, 1, 2, 5, 6, 7, 8, 9, 13, 10, 11, 12, 14), 27),
        ((3, 4, 1, 2, 5, 6, 7, 8, 9, 10, 13, 11, 12, 14), 22),
        ((3, 4, 1, 2, 5, 6, 7, 8, 9, 10, 13, 11, 12, 14), 14),
    ),
    "draw4": (
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16), 10),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16), 10),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16), 10),
    ),
    "draw5": (
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16), 9),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16), 9),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16), 9),
    ),
    "draw6": (
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14), 8),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14), 8),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14), 8),
    ),
    "draw1-twin": (None, (None, 198), (None, 0)),
    "draw6-twin": (None, (None, 5), (None, 0)),
    "rendezvous": (
        ((1, 4, 2, 6, 5, 3, 7), 9),
        ((1, 6, 2, 4, 5, 3, 7), 8),
        ((1, 6, 2, 4, 5, 3, 7), 6),
    ),
    "fan_in": (
        ((1, 6, 2, 8, 3, 10, 7, 4, 9, 5), 10),
        ((1, 10, 2, 8, 3, 6, 7, 4, 9, 5), 6),
        ((1, 10, 2, 8, 3, 6, 7, 4, 9, 5), 6),
    ),
    "extra_send": ((None, 7), (None, 0), (None, 0)),
}


class TestPinnedSearch:
    @pytest.mark.parametrize("name", list(PINNED))
    def test_witness_and_explored(self, name):
        inst = _pinned_instance(name)
        vch, vchrf, saturated = PINNED[name]
        if vch is not None:
            v = solve_vch(inst)
            assert (v.witness, v.explored) == vch
        for solve, want in ((solve_vchrf, vchrf), (solve_vchrf_saturated, saturated)):
            v = solve(inst)
            assert (v.witness, v.explored) == want, solve.__name__
