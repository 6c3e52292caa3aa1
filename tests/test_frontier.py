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
        v = solve_vch(inst.abstract, inst.cap_map)
        assert v.consistent
        assert v.witness == (1, 4, 2, 5, 6, 3)
        assert_valid_witness(inst, v)

    def test_three_thread_cap2_positive(self, fixtures):
        inst = _load(fixtures, "three_thread_cap2_positive.vchk")
        v = solve_vch(inst.abstract, inst.cap_map)
        assert v.consistent
        assert_valid_witness(inst, v)

    def test_requires_values(self):
        inst = make_instance("abstract", [Event(1, "t", "snd", "c")], {"c": INF})
        with pytest.raises(ValueError, match="value"):
            solve_vch(inst.abstract, inst.cap_map)

    def test_empty_instance_consistent(self):
        inst = make_instance("abstract", [], {"c": 1.0})
        v = solve_vch(inst.abstract, inst.cap_map)
        assert v.consistent and v.witness == ()

    def test_sync_send_needs_other_thread(self):
        events = [Event(1, "t1", "snd", "c", "1"), Event(2, "t1", "rcv", "c", "1")]
        inst = make_instance("abstract", events, {"c": 0.0})
        assert not solve_vch(inst.abstract, inst.cap_map).consistent

    def test_value_mismatch_blocks(self):
        events = [Event(1, "t1", "snd", "c", "1"), Event(2, "t2", "rcv", "c", "2")]
        inst = make_instance("abstract", events, {"c": 1.0})
        assert not solve_vch(inst.abstract, inst.cap_map).consistent

    def test_unmatched_sends_allowed(self):
        events = [Event(1, "t1", "snd", "c", "1"), Event(2, "t1", "snd", "c", "2")]
        inst = make_instance("abstract", events, {"c": 2.0})
        assert solve_vch(inst.abstract, inst.cap_map).consistent


class TestSolveVchrf:
    def test_negative_fixture(self, fixtures):
        inst = _load(fixtures, "two_thread_cap1_negative_rf.vchk")
        assert not solve_vchrf(inst.abstract, inst.cap_map, inst.rf).consistent

    def test_saturated_rejects_without_search(self, fixtures):
        inst = _load(fixtures, "two_thread_cap1_negative_rf.vchk")
        v = solve_vchrf_saturated(inst.abstract, inst.cap_map, inst.rf)
        assert not v.consistent
        assert v.explored == 0

    def test_receive_without_source_inconsistent(self):
        events = [Event(1, "t1", "rcv", "c")]
        inst = make_instance("abstract", events, {"c": INF}, [])
        v = solve_vchrf(inst.abstract, inst.cap_map, inst.rf)
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
        assert not solve_vchrf(inst.abstract, inst.cap_map, inst.rf).consistent


class TestAgainstOracle:
    def test_vch_matches_brute_force(self):
        rng = random.Random(101)
        for _ in range(150):
            inst = rand_instance(rng, with_rf=False)
            got = solve_vch(inst.abstract, inst.cap_map)
            want = brute_force(inst.abstract, inst.cap_map)
            assert got.outcome == want.outcome
            if got.consistent:
                assert_valid_witness(inst, got)

    def test_vchrf_matches_brute_force(self):
        rng = random.Random(102)
        for _ in range(150):
            inst = rand_instance(rng, with_rf=True)
            got = solve_vchrf(inst.abstract, inst.cap_map, inst.rf)
            want = brute_force(inst.abstract, inst.cap_map, inst.rf)
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
                x, cap, rf = case.abstract, case.cap_map, case.rf
                want = brute_force(x, cap, rf, bound=x.n)
                for solve in (solve_vchrf, solve_vchrf_saturated):
                    got = solve(x, cap, rf)
                    assert got.outcome == want.outcome, (solve.__name__, case)
                    if got.consistent:
                        assert_valid_witness(case, got)
                checked += 1
