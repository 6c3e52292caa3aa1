"""Instance model, text format, trace well-formedness, classification."""

from __future__ import annotations

import random
import re
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanlin import (
    INF,
    AlgorithmRefused,
    Event,
    Ok,
    ParseError,
    ValidationError,
    Violation,
    check_well_formed,
    classify_channels,
    communication_topology,
    derive_abstract,
    make_instance,
    parse_instance,
    saturate,
    serialize_instance,
    solve_acyclic,
    solve_sync,
    solve_vchrf,
    solve_vchrf_saturated,
)
from chanlin.core import pending_edges
from chanlin.generators import random_positive
from chanlin.oracle import brute_force
from .conftest import CAP_MENU, po, rand_instance


README = Path(__file__).resolve().parent.parent / "README.md"


class TestParseSerialize:
    def test_readme_examples_parse(self):
        blocks = re.findall(r"```\n(vchk v1\n.*?)```", README.read_text(), re.S)
        assert blocks
        for block in blocks:
            parse_instance(block)

    def test_round_trip_basic(self):
        text = (
            "vchk v1\n"
            "kind abstract\n"
            "channel ch cap 1\n"
            "event 1 t1 snd ch 1\n"
            "event 2 t2 rcv ch 1\n"
            "rf 1 2\n"
        )
        inst = parse_instance(text)
        assert serialize_instance(inst) == text
        assert parse_instance(serialize_instance(inst)) == inst

    def test_comments_and_blank_lines(self):
        inst = parse_instance(
            "# header comment\nvchk v1\n\nkind trace\nchannel c cap inf # inline\nevent 1 t snd c v\n"
        )
        assert inst.kind == "trace"
        assert inst.cap_map["c"] == INF

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_instance("kind abstract\n")

    def test_missing_kind(self):
        with pytest.raises(ParseError, match="kind"):
            parse_instance("vchk v1\nchannel c cap 1\n")

    def test_duplicate_kind(self):
        # The first kind line is not silently overridden by a later one.
        with pytest.raises(ParseError, match="line 3: duplicate kind directive"):
            parse_instance("vchk v1\nkind trace\nkind abstract\nchannel c cap 1\n")

    def test_undeclared_channel(self):
        with pytest.raises(ParseError, match="capacity line"):
            parse_instance("vchk v1\nkind abstract\nevent 1 t snd c\n")

    def test_duplicate_event_id(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_instance(
                "vchk v1\nkind abstract\nchannel c cap 1\nevent 1 t snd c\nevent 1 t snd c\n"
            )

    def test_bad_capacity(self):
        with pytest.raises(ParseError, match="capacity"):
            parse_instance("vchk v1\nkind abstract\nchannel c cap -1\n")

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_instance("vchk v1\nkind abstract\nbogus directive\n")

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.booleans())
    def test_round_trip_random(self, seed, with_rf):
        inst = rand_instance(random.Random(seed), with_rf)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text

    def test_abstract_events_canonicalized(self):
        events = [
            Event(2, "t2", "snd", "c", "1"),
            Event(1, "t1", "snd", "c", "1"),
        ]
        inst = make_instance("abstract", events, {"c": INF})
        assert [e.id for e in inst.events] == [1, 2]

    def test_trace_events_keep_order(self):
        events = [
            Event(2, "t2", "snd", "c", "1"),
            Event(1, "t1", "rcv", "c", "1"),
        ]
        inst = make_instance("trace", events, {"c": INF})
        assert [e.id for e in inst.trace] == [2, 1]
        assert [e.id for e in inst.events] == [1, 2]  # dense order


class TestValidation:
    def test_rf_endpoint_ops(self):
        events = [Event(1, "t", "snd", "c"), Event(2, "t", "snd", "c")]
        with pytest.raises(ValidationError, match="op mismatch"):
            make_instance("abstract", events, {"c": INF}, [(1, 2)])

    def test_rf_cross_channel(self):
        events = [Event(1, "t", "snd", "c"), Event(2, "t", "rcv", "d")]
        with pytest.raises(ValidationError, match="different channels"):
            make_instance("abstract", events, {"c": INF, "d": INF}, [(1, 2)])

    def test_rf_injective(self):
        events = [
            Event(1, "t", "snd", "c"),
            Event(2, "t", "rcv", "c"),
            Event(3, "t", "rcv", "c"),
        ]
        with pytest.raises(ValidationError, match="injective"):
            make_instance("abstract", events, {"c": INF}, [(1, 2), (1, 3)])

    def test_rf_value_agreement(self):
        events = [Event(1, "t", "snd", "c", "1"), Event(2, "t", "rcv", "c", "2")]
        with pytest.raises(ValidationError, match="values"):
            make_instance("abstract", events, {"c": INF}, [(1, 2)])

    @pytest.mark.parametrize(
        "event, match",
        [
            (Event(1, "u", "rcv", "c"), "duplicate event id 1"),
            (Event(-2, "u", "rcv", "c"), "negative id"),
            (Event(2, "u", "recv", "c"), "bad op"),
            (Event(2, "u", "rcv", "d"), "channel 'd' has no capacity line"),
        ],
    )
    def test_event_rules(self, event, match):
        events = [Event(1, "t", "snd", "c"), event]
        with pytest.raises(ValidationError, match=match):
            make_instance("abstract", events, {"c": INF})

    def test_mate_is_rf_as_an_involution(self):
        """``mate`` pairs a send with a receive of its channel, both ways, and
        its pairs are exactly rf, for abstract and trace instances."""
        rng = random.Random(41)
        for k in range(500):
            if k % 2:
                inst = rand_instance(rng, rng.random() < 0.8, n_max=12, t_max=4)
            else:
                n, t, m = rng.randint(0, 16), rng.randint(1, 4), rng.randint(1, 3)
                try:
                    _, trace = random_positive(n, t, m, CAP_MENU, k)
                except ValueError:
                    continue
                caps = {e.channel: rng.choice(CAP_MENU) for e in trace}
                inst = make_instance("trace", trace, caps, derive_abstract(trace, caps).rf)
            mate = inst.mate
            assert len(mate) == inst.n
            pairs = set()
            for i, j in enumerate(mate):
                if j < 0:
                    continue
                assert mate[j] == i and inst.events[i].channel == inst.events[j].channel
                assert {inst.events[i].op, inst.events[j].op} == {"snd", "rcv"}
                if inst.events[i].op == "snd":
                    pairs.add((inst.events[i].id, inst.events[j].id))
            assert pairs == set(inst.rf or ())


def assert_dense_index(x):
    """events are sorted by thread token; index, thr_of, pos_of and start
    agree with them."""
    assert [e.thread for e in x.events] == sorted(e.thread for e in x.events)
    assert x.threads == tuple(sorted({e.thread for e in x.events}))
    assert x.index == {e.id: i for i, e in enumerate(x.events)}
    assert x.start[0] == 0 and x.start[-1] == x.n and len(x.start) == len(x.threads) + 1
    for ti, th in enumerate(x.threads):
        for p, i in enumerate(range(x.start[ti], x.start[ti + 1])):
            assert x.events[i].thread == th
            assert (x.thr_of[i], x.pos_of[i]) == (ti, p)


class TestDenseIndex:
    def test_random_instances(self):
        rng = random.Random(31)
        for _ in range(200):
            inst = rand_instance(rng, rng.random() < 0.5, n_max=12, t_max=4)
            assert_dense_index(inst)

    def test_events_out_of_canonical_order(self):
        events = [
            Event(5, "t2", "rcv", "c"),
            Event(1, "t1", "snd", "c"),
            Event(9, "t3", "snd", "d"),
            Event(3, "t2", "snd", "d"),
            Event(2, "t1", "snd", "c"),
        ]
        x = make_instance("abstract", events, {"c": INF, "d": INF})
        assert_dense_index(x)
        assert [e.id for e in x.events] == [1, 2, 5, 3, 9]
        assert x.start == [0, 2, 4, 5]

    def test_any_input_order_gives_the_dense_build(self):
        """An execution built from a shuffle of its events across threads,
        each thread's order kept, equals the canonical build: same events,
        the same saturation and the same verdict from every rf solver."""
        rng = random.Random(37)
        for k in range(500):
            if k % 2:
                caps = (0.0, 1.0, 2.0, 3.0, INF)
                inst = rand_instance(rng, True, n_max=10, t_max=4, caps=caps)
            else:
                n, t, m = 2 * rng.randint(1, 8), rng.randint(2, 4), rng.randint(1, 3)
                inst, _ = random_positive(n, t, m, CAP_MENU, k)
            threads = [e.thread for e in inst.events]
            rng.shuffle(threads)
            per_thread: dict[str, deque] = {}
            for e in inst.events:
                per_thread.setdefault(e.thread, deque()).append(e)
            shuffled = [per_thread[th].popleft() for th in threads]
            other = make_instance("abstract", shuffled, inst.cap_map, inst.rf)
            assert other.events == inst.events
            ox, oy = saturate(inst), saturate(other)
            assert (oy.cyclic, oy.pred_counts) == (ox.cyclic, ox.pred_counts)
            assert rf_verdicts(other) == rf_verdicts(inst)


def rf_verdicts(inst) -> list:
    """Each rf solver's verdict, or its refusal text; brute force up to 10 events."""
    out = []
    for solve in (solve_vchrf, solve_vchrf_saturated, solve_sync, solve_acyclic):
        try:
            out.append(solve(inst))
        except AlgorithmRefused as exc:
            out.append(str(exc))
    if inst.n <= 10:
        out.append(brute_force(inst, inst.cap_map, inst.rf, bound=10))
    return out


class TestWellFormedness:
    def test_fixture_traces(self, fixtures):
        expected = {
            "trace_async_ok.vchk": None,
            "trace_capacity_violation.vchk": ("capacity", 3),
            "trace_sync_violation.vchk": ("sync", 2),
            "trace_value_violation.vchk": ("value", 5),
        }
        for name, want in expected.items():
            inst = parse_instance((fixtures / name).read_text())
            result = check_well_formed(inst.trace, inst.cap_map)
            if want is None:
                assert isinstance(result, Ok), name
            else:
                assert result == Violation(*want), name

    def test_sync_receive_position_reported(self):
        # A dangling synchronous receive is flagged at its own position.
        trace = [Event(1, "t1", "rcv", "c", "1")]
        assert check_well_formed(trace, {"c": 0.0}) == Violation("sync", 1)
        # So is one right after a completed rendezvous on its channel: the
        # rendezvous consumed the receive before it.
        trace = [
            Event(1, "t1", "snd", "c", "1"),
            Event(2, "t2", "rcv", "c", "1"),
            Event(3, "t3", "rcv", "c", "1"),
        ]
        assert check_well_formed(trace, {"c": 0.0}) == Violation("sync", 3)
        # A trailing synchronous send has no receive to move with.
        trace = trace[:2] + [Event(4, "t1", "snd", "c", "1")]
        assert check_well_formed(trace, {"c": 0.0}) == Violation("sync", 3)

    def test_rf_source_of_a_synchronous_receive(self):
        # A rendezvous receive takes the send right before it.
        trace = [
            Event(1, "t1", "snd", "c"),
            Event(2, "t2", "rcv", "c"),
            Event(3, "t1", "snd", "c"),
            Event(4, "t2", "rcv", "c"),
        ]
        assert isinstance(check_well_formed(trace, {"c": 0.0}, ((1, 2), (3, 4))), Ok)
        assert check_well_formed(trace, {"c": 0.0}, ((1, 4), (3, 2))) == Violation("rf", 2)

    def test_empty_trace_ok(self):
        assert isinstance(check_well_formed([], {"c": 1.0}), Ok)

    def test_derive_abstract_index_matching(self):
        trace = [
            Event(1, "t1", "snd", "c", "1"),
            Event(2, "t1", "snd", "c", "2"),
            Event(3, "t2", "rcv", "c", "1"),
        ]
        x = derive_abstract(trace, {"c": INF})
        assert x.rf == ((1, 3),)
        assert po(x) == {"t1": (1, 2), "t2": (3,)}


class TestClassification:
    def test_classes(self):
        events = [
            Event(1, "t", "snd", "a", "1"),
            Event(2, "t", "snd", "b", "1"),
            Event(3, "t", "snd", "b", "1"),
            Event(4, "t", "snd", "b", "1"),
        ]
        cap = {"a": 0.0, "b": 2.0, "c": 5.0}
        x = make_instance("abstract", events, cap)
        # No sends exceed capacity 5, so c is effectively unbounded.
        assert classify_channels(x) == {"a": 0, "b": 2, "c": INF}

    def test_pending_edges_stand_for_every_matched_unmatched_pair(self):
        rng = random.Random(19)
        for _ in range(500):
            inst = rand_instance(rng, True, n_max=12, t_max=4, caps=(0.0, 1.0, 2.0, 3.0, INF))
            matched = {inst.index[s] for s, _ in inst.rf}

            def po_le(i: int, j: int) -> bool:
                return inst.thr_of[i] == inst.thr_of[j] and i <= j

            edges = pending_edges(inst)  # dense index pairs
            per_channel = Counter()
            for m, u in edges:
                em, eu = inst.events[m], inst.events[u]
                assert em.op == eu.op == "snd" and em.channel == eu.channel
                assert m in matched and u not in matched
                per_channel[em.channel] += 1
            assert all(k <= len(inst.threads) ** 2 for k in per_channel.values())
            sends = [i for i, e in enumerate(inst.events) if e.op == "snd"]
            for m in (i for i in sends if i in matched):
                ch = inst.events[m].channel
                for u in (i for i in sends if i not in matched and inst.events[i].channel == ch):
                    assert any(po_le(m, m2) and po_le(u2, u) for m2, u2 in edges)

    def test_topology_acyclic_pair(self):
        events = [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c")]
        topo = communication_topology(make_instance("abstract", events, {"c": INF}))
        assert topo.acyclic
        assert topo.users == {"c": ("t1", "t2")}

    def test_topology_triangle_cyclic(self):
        events = [
            Event(1, "t1", "snd", "c"),
            Event(2, "t2", "rcv", "c"),
            Event(3, "t3", "snd", "c"),
        ]
        topo = communication_topology(make_instance("abstract", events, {"c": INF}))
        assert not topo.acyclic
        assert topo.users == {"c": ("t1", "t2", "t3")}

    def test_topology_cycle_of_two_thread_channels(self):
        # t1-t2, t2-t3, t3-t1: no channel has three users, union-find finds the cycle.
        events = [
            Event(1, "t1", "snd", "a"),
            Event(2, "t2", "rcv", "a"),
            Event(3, "t2", "snd", "b"),
            Event(4, "t3", "rcv", "b"),
            Event(5, "t3", "snd", "c"),
            Event(6, "t1", "rcv", "c"),
        ]
        cap = {"a": INF, "b": INF, "c": INF}
        topo = communication_topology(make_instance("abstract", events, cap))
        assert not topo.acyclic
        assert topo.users == {"a": ("t1", "t2"), "b": ("t2", "t3"), "c": ("t1", "t3")}

    def test_topology_pair_sharing_two_channels(self):
        # Two channels between one thread pair are one edge, not a cycle.
        events = [
            Event(1, "t1", "snd", "a"),
            Event(2, "t2", "rcv", "a"),
            Event(3, "t2", "snd", "b"),
            Event(4, "t1", "rcv", "b"),
        ]
        cap = {"a": INF, "b": INF}
        topo = communication_topology(make_instance("abstract", events, cap))
        assert topo.acyclic
        assert topo.users == {"a": ("t1", "t2"), "b": ("t1", "t2")}

    def test_private_channels(self):
        events = [Event(1, "t1", "snd", "c"), Event(2, "t1", "rcv", "c")]
        topo = communication_topology(make_instance("abstract", events, {"c": INF}))
        assert topo.acyclic
        assert topo.users == {"c": ("t1",)}
