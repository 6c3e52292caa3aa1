"""Saturated order: agreement with a naive fixpoint oracle and pruning power."""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from itertools import pairwise

from chanlin import (
    INF,
    Event,
    brute_force,
    classify_channels,
    make_instance,
    rf_defect,
    saturate,
    solve_vchrf_saturated,
)
from chanlin.generators import random_positive
from .conftest import CAP_MENU, rand_instance, rendezvous_count, token_ring


def precedes(x, order, e, f) -> bool:
    """Whether the saturated ``order`` of ``x`` puts event ``e`` before event ``f``."""
    i, j = x.index[e], x.index[f]
    return order.succ[i][x.thr_of[j]] <= x.pos_of[j]


def naive_saturation(x, cap, rf):
    """Reference fixpoint over an explicit pair set; returns (cyclic, pairs)."""
    ids = [e.id for e in x.events]
    eff_cap = classify_channels(x)
    rel: set[tuple[int, int]] = set()
    for a, b in pairwise(x.start):
        for i in range(a, b):
            for j in range(i + 1, b):
                rel.add((ids[i], ids[j]))
    rel.update(rf)
    pairs_by_ch: dict[str, list[tuple[int, int]]] = defaultdict(list)
    sends_by_ch: dict[str, list[int]] = defaultdict(list)
    matched = {s for s, _ in rf}
    for e in x.events:
        if e.op == "snd":
            sends_by_ch[e.channel].append(e.id)
    for s, r in rf:
        pairs_by_ch[x.events[x.index[s]].channel].append((s, r))
    for ch, sends in sends_by_ch.items():
        for m in sends:
            if m in matched:
                for u in sends:
                    if u not in matched:
                        rel.add((m, u))
    changed = True
    while changed:
        changed = False
        # Transitive closure.
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
        for ch, table in pairs_by_ch.items():
            for s1, r1 in table:
                for s2, r2 in table:
                    if s1 == s2:
                        continue
                    if (s1, s2) in rel and (r1, r2) not in rel:
                        rel.add((r1, r2))
                        changed = True
                    if (r1, r2) in rel and (s1, s2) not in rel:
                        rel.add((s1, s2))
                        changed = True
            if eff_cap[ch] == 0:
                for s, r in table:
                    for e in ids:
                        if e in (s, r):
                            continue
                        if (e, r) in rel and (e, s) not in rel:
                            rel.add((e, s))
                            changed = True
                        if (e, s) in rel and (e, r) not in rel:
                            rel.add((e, r))
                            changed = True
                        if (s, e) in rel and (r, e) not in rel:
                            rel.add((r, e))
                            changed = True
                        if (r, e) in rel and (s, e) not in rel:
                            rel.add((s, e))
                            changed = True
            if eff_cap[ch] == 1:
                for s1, r1 in table:
                    for s2 in sends_by_ch[ch]:
                        if s2 != s1 and (s1, s2) in rel and (r1, s2) not in rel:
                            rel.add((r1, s2))
                            changed = True
    cyclic = any((e, e) in rel for e in ids)
    return cyclic, rel


def assert_matches_naive(inst) -> bool:
    """``saturate`` agrees with the naive fixpoint on cyclicity and on every
    ordered pair; returns whether the instance is cyclic."""
    cap, rf = inst.cap_map, inst.rf
    order = saturate(inst)
    cyclic, rel = naive_saturation(inst, cap, rf)
    assert order.cyclic == cyclic
    if not cyclic:
        ids = [e.id for e in inst.events]
        for e in ids:
            for f in ids:
                if e != f:
                    assert precedes(inst, order, e, f) == ((e, f) in rel), (e, f)
    return cyclic


class TestAgainstNaiveFixpoint:
    def test_random_instances(self):
        rng = random.Random(7)
        for _ in range(120):
            assert_matches_naive(rand_instance(rng, with_rf=True, n_max=7))

    def test_pending_sends_on_every_capacity(self):
        # Consistent histories with about 30% of their rf pairs dropped, so
        # sends stay pending on every capacity, synchronous ones included, and
        # a thread often holds matched sends on both sides of a pending one.
        rng = random.Random(17)
        pending_caps = set()
        for seed in range(300):
            n, t, m = 2 * rng.randint(2, 6), rng.randint(2, 3), rng.randint(1, 2)
            base, _ = random_positive(n, t, m, CAP_MENU, seed)  # n even: handshakes fill it
            rf = [p for p in base.rf if rng.random() >= 0.3]
            inst = make_instance("abstract", base.events, base.cap_map, rf)
            matched = {s for s, _ in rf}
            pending = (e for e in inst.events if e.op == "snd" and e.id not in matched)
            pending_caps.update(inst.cap_map[e.channel] for e in pending)
            assert_matches_naive(inst)
        assert pending_caps == set(CAP_MENU)

    def test_partners_sharing_a_thread(self):
        # Up to 12 events over up to 4 threads, so one thread often holds
        # several partners of a rule 1 or rule 4 trigger; capacity 3 included.
        rng = random.Random(11)
        caps = (0.0, 1.0, 2.0, 3.0, INF)
        insts = [rand_instance(rng, True, n_max=12, t_max=4, caps=caps) for _ in range(300)]
        cyclic = sum(assert_matches_naive(inst) for inst in insts)
        assert 0 < cyclic < len(insts)

    def test_token_rings_every_capacity_layout(self):
        # Two rounds of a four-thread ring: each thread holds two sends and
        # two receives of its channels.  The FIFO-swap twin must be cyclic.
        for i, caps in enumerate(itertools.product(CAP_MENU, repeat=4)):
            assert not assert_matches_naive(token_ring(2, caps))
            assert assert_matches_naive(token_ring(2, caps, swap=i % 4))

    def test_order_reaches_later_partner_through_chain(self):
        # s1 ≺ s2 ≺po s3 on channel c, s2 and s3 in one thread, receives in
        # three other threads.  Rule 1 fires on the earliest partner s2 only,
        # so r1 ≺ r3 follows from r1 ≺ r2 and r2 ≺ r3 (rule 1 on s2 ≺po s3).
        events = [
            Event(1, "t1", "snd", "c"),  # s1
            Event(2, "t1", "snd", "d"),
            Event(3, "t2", "rcv", "d"),
            Event(4, "t2", "snd", "c"),  # s2
            Event(5, "t2", "snd", "c"),  # s3
            Event(6, "t3", "rcv", "c"),  # r1
            Event(7, "t4", "rcv", "c"),  # r2
            Event(8, "t5", "rcv", "c"),  # r3
        ]
        rf = [(1, 6), (2, 3), (4, 7), (5, 8)]
        inst = make_instance("abstract", events, {"c": INF, "d": 0.0}, rf)
        order = saturate(inst)
        assert not order.cyclic
        assert precedes(inst, order, 6, 7) and precedes(inst, order, 7, 8)
        assert precedes(inst, order, 6, 8) and not precedes(inst, order, 8, 6)
        assert order.pred_counts[inst.index[8]] == (2, 3, 1, 1, 0)
        assert not assert_matches_naive(inst)

    def test_pred_counts_match_predecessor_sets(self):
        rng = random.Random(8)
        for _ in range(60):
            inst = rand_instance(rng, with_rf=True, n_max=7)
            cap, rf = inst.cap_map, inst.rf
            order = saturate(inst)
            cyclic, rel = naive_saturation(inst, cap, rf)
            if cyclic:
                continue
            for e, need in zip(inst.events, order.pred_counts):
                for ti, (a, b) in enumerate(pairwise(inst.start)):
                    preds = sum(1 for f in inst.events[a:b] if (f.id, e.id) in rel)
                    assert need[ti] == preds, (e, ti)


class TestRendezvousRule:
    """Rule 3 as static edges: each po or rule 2 edge is copied from a
    synchronous send's receive and into a synchronous receive's send, for all
    four end pairs."""

    def test_po_edge_between_two_pairs_orders_receive_before_send(self):
        # t3 runs snd 5 then rcv 6; pair (5, 4) must complete before pair
        # (1, 6) starts, so 4 ≺ 1, which needs the copy from 5's receive into
        # 6's send of the po edge 5 → 6.
        events = [
            Event(1, "t2", "snd", "c"),
            Event(4, "t4", "rcv", "c"),
            Event(5, "t3", "snd", "c"),
            Event(6, "t3", "rcv", "c"),
        ]
        inst = make_instance("abstract", events, {"c": 0.0}, [(1, 6), (5, 4)])
        order = saturate(inst)
        assert not order.cyclic
        assert precedes(inst, order, 4, 1)
        assert not assert_matches_naive(inst)
        assert solve_vchrf_saturated(inst).consistent

    def test_rule_2_edge_is_copied_from_the_receive(self):
        # Rule 2 gives 2 ≺ 3 (matched before unmatched send), and rule 3 then
        # 1 ≺ 3.  rf_defect rejects the unmatched synchronous send, but
        # saturate takes any input.
        events = [
            Event(1, "t1", "rcv", "c"),
            Event(2, "t2", "snd", "c"),
            Event(3, "t3", "snd", "c"),
        ]
        inst = make_instance("abstract", events, {"c": 0.0}, [(2, 1)])
        assert rf_defect(inst) is not None
        order = saturate(inst)
        assert not order.cyclic
        assert precedes(inst, order, 2, 3) and precedes(inst, order, 1, 3)
        assert not assert_matches_naive(inst)

    def test_synchronous_heavy_instances(self):
        rng = random.Random(13)
        caps = (0.0, 0.0, 1.0, INF)
        for _ in range(1000):
            assert_matches_naive(rand_instance(rng, True, n_max=12, t_max=4, caps=caps))


class TestDirectEdgeCycles:
    """Instances whose po, rf and rule-2 edges alone already form a cycle."""

    def assert_cyclic(self, events, cap, rf):
        inst = make_instance("abstract", events, cap, rf)
        assert saturate(inst).cyclic
        assert assert_matches_naive(inst)
        assert not brute_force(inst, inst.cap_map, inst.rf).consistent

    def test_po_and_rf_cycle_across_two_threads(self):
        # rcv c ≺po snd d ≺rf rcv d ≺po snd c ≺rf rcv c.
        events = [
            Event(1, "t1", "rcv", "c"),
            Event(2, "t1", "snd", "d"),
            Event(3, "t2", "rcv", "d"),
            Event(4, "t2", "snd", "c"),
        ]
        self.assert_cyclic(events, {"c": INF, "d": INF}, [(4, 1), (2, 3)])

    def test_cycle_through_rule_2_edge(self):
        # Unmatched send u ≺po snd d ≺rf rcv d ≺po matched send m on c, and
        # rule 2 closes the cycle with m ≺ u.
        events = [
            Event(1, "t1", "snd", "c"),  # u
            Event(2, "t1", "snd", "d"),
            Event(3, "t2", "rcv", "d"),
            Event(4, "t2", "snd", "c"),  # m
            Event(5, "t3", "rcv", "c"),
        ]
        self.assert_cyclic(events, {"c": INF, "d": 1.0}, [(2, 3), (4, 5)])

class TestReady:
    def test_ready_gates_on_predecessors(self):
        # Synchronous pair: the receive is ready only after the send's thread
        # has executed the send, and the send needs nothing.
        events = [
            Event(1, "t1", "snd", "c"),
            Event(2, "t2", "rcv", "c"),
        ]
        inst = make_instance("abstract", events, {"c": 0.0}, [(1, 2)])
        order = saturate(inst)
        assert not order.cyclic
        assert inst.threads == ("t1", "t2")
        assert order.pred_counts[inst.index[1]] == (0, 0)
        assert order.pred_counts[inst.index[2]] == (1, 0)


class TestPipelinePruning:
    def test_handshake_pipeline_linear_exploration(self):
        n_pairs = 2000
        events, rf, cap = [], [], {}
        eid = 1
        for i in range(n_pairs):
            ch = f"s{i}"
            cap[ch] = 0.0
            events.append(Event(eid, "t1", "snd", ch))
            events.append(Event(eid + 1, "t2", "rcv", ch))
            rf.append((eid, eid + 1))
            eid += 2
        inst = make_instance("abstract", events, cap, rf)
        v = solve_vchrf_saturated(inst)
        assert v.consistent
        assert v.explored == inst.n + 1 - rendezvous_count(inst)
