"""Fast paths: rendezvous-block sort, 2SAT engine, acyclic-topology solver."""

from __future__ import annotations

import heapq
import itertools
import random
import time
from collections import defaultdict

import pytest

from chanlin import (
    AlgorithmRefused,
    Event,
    INF,
    TwoSatFormula,
    brute_force,
    communication_topology,
    encode_2sat,
    make_instance,
    parse_instance,
    solve_2sat,
    solve_acyclic,
    solve_sync,
)
from chanlin.generators import mutate_rf, random_positive
from .conftest import assert_valid_witness, po


def sync_instance(rng, threads=3, channels=2, pairs_max=4):
    """Random all-synchronous instance with every event rf-matched cross-thread."""
    n_pairs = rng.randint(0, pairs_max)
    cap = {f"ch{i}": 0.0 for i in range(1, channels + 1)}
    slots: dict[str, list[tuple[str, str, int]]] = defaultdict(list)
    eid = 1
    rf = []
    for _ in range(n_pairs):
        t1, t2 = rng.sample([f"t{i}" for i in range(1, threads + 1)], 2)
        ch = f"ch{rng.randint(1, channels)}"
        slots[t1].append((ch, "snd", eid))
        slots[t2].append((ch, "rcv", eid + 1))
        rf.append((eid, eid + 1))
        eid += 2
    events = []
    for th, ops in slots.items():
        rng.shuffle(ops)
        for ch, op, i in ops:
            events.append(Event(i, th, op, ch))
    return make_instance("abstract", events, cap, tuple(sorted(rf)))


class TestSolveSync:
    def test_matches_brute_force(self):
        rng = random.Random(22)
        for _ in range(120):
            inst = sync_instance(rng)
            got = solve_sync(inst)
            want = brute_force(inst, inst.cap_map, inst.rf)
            assert got.outcome == want.outcome
            assert got.explored == 0  # not a search
            if got.consistent:
                assert_valid_witness(inst, got)

    def test_refuses_async_channels(self):
        events = [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c")]
        inst = make_instance("abstract", events, {"c": 1.0}, [(1, 2)])
        with pytest.raises(AlgorithmRefused):
            solve_sync(inst)

    def test_unmatched_event_inconsistent(self):
        events = [Event(1, "t1", "snd", "c")]
        inst = make_instance("abstract", events, {"c": 0.0}, [])
        assert not solve_sync(inst).consistent

    def test_same_thread_pair_inconsistent(self):
        events = [Event(1, "t1", "snd", "c"), Event(2, "t1", "rcv", "c")]
        inst = make_instance("abstract", events, {"c": 0.0}, [(1, 2)])
        assert not solve_sync(inst).consistent

    def test_triangle_fixture_block_order(self, fixtures):
        # Blocks (1,4), (7,2), (3,5), (6,8) in po order: ties would go by the
        # dense index of each block's send.
        inst = parse_instance((fixtures / "sync_triangle_positive.vchk").read_text())
        v = solve_sync(inst)
        assert_valid_witness(inst, v)
        assert v.witness == (1, 4, 7, 2, 3, 5, 6, 8)

    def test_consistent_iff_contracted_po_graph_acyclic(self):
        rng = random.Random(21)
        outcomes = set()
        for _ in range(200):
            inst = sync_instance(rng, pairs_max=6)
            node_of = {}
            for s, r in inst.rf:
                node_of[s] = node_of[r] = s
            pos = {eid: (th, p) for th, seq in po(inst).items() for p, eid in enumerate(seq)}
            edges = set()
            for a in pos:
                for b in pos:
                    ta, pa = pos[a]
                    tb, pb = pos[b]
                    if ta == tb and pb == pa + 1 and node_of[a] != node_of[b]:
                        edges.add((node_of[a], node_of[b]))
            nodes = set(node_of.values())
            while True:  # peel off nodes with no incoming edge
                sources = {u for u in nodes if not any(v == u for _, v in edges)}
                if not sources:
                    break
                nodes -= sources
                edges = {(u, v) for u, v in edges if u not in sources}
            got = solve_sync(inst)
            assert got.consistent == (not nodes)
            outcomes.add(got.consistent)
            if got.consistent:
                assert_valid_witness(inst, got)
            else:
                assert got.reason == "rendezvous blocks form a program-order cycle"
        assert outcomes == {True, False}

    def test_pipeline_twin_reports_block_cycle(self):
        # A forward pipeline whose receiver takes the last handshake first:
        # snd_0 ≺po snd_3, rcv_3 ≺po rcv_0 and each pair is one block.
        n_pairs = 4
        cap = {f"s{i}": 0.0 for i in range(n_pairs)}
        events = [Event(2 * i + 1, "t1", "snd", f"s{i}") for i in range(n_pairs)]
        rcvs = [Event(2 * i + 2, "t2", "rcv", f"s{i}") for i in range(n_pairs)]
        events += [rcvs[-1]] + rcvs[:-1]
        rf = [(2 * i + 1, 2 * i + 2) for i in range(n_pairs)]
        inst = make_instance("abstract", events, cap, rf)
        v = solve_sync(inst)
        assert v.outcome == "inconsistent" and v.explored == 0
        assert v.reason == "rendezvous blocks form a program-order cycle"
        assert not brute_force(inst, inst.cap_map, inst.rf).consistent


class TestTwoSat:
    def _truth_table(self, nv, clauses):
        for bits in itertools.product([False, True], repeat=nv):
            if all(
                (bits[abs(a) - 1] == (a > 0)) or (bits[abs(b) - 1] == (b > 0))
                for a, b in clauses
            ):
                return True
        return False

    def test_matches_truth_tables(self):
        rng = random.Random(23)
        for _ in range(200):
            nv = rng.randint(1, 10)
            f = TwoSatFormula(nvars=nv)
            clauses = []
            for _ in range(rng.randint(1, 30)):
                a = rng.randint(1, nv) * rng.choice([1, -1])
                b = rng.randint(1, nv) * rng.choice([1, -1])
                f.add(a, b)
                clauses.append((a, b))
            assign = solve_2sat(f)
            assert (assign is not None) == self._truth_table(nv, clauses)
            if assign is not None:
                for a, b in clauses:
                    assert (assign[abs(a)] == (a > 0)) or (assign[abs(b)] == (b > 0))

    def test_constant_folding(self):
        f = TwoSatFormula(nvars=1)
        f.add(("const", True), -1)  # satisfied clause: dropped
        f.add(("const", False), 1)  # unit clause 1
        assert solve_2sat(f) == [False, True]
        f.add(("const", False), -1)
        assert solve_2sat(f) is None

    def test_empty_clause_infeasible(self):
        f = TwoSatFormula()
        f.add(("const", False), ("const", False))
        assert f.infeasible
        assert solve_2sat(f) is None


class TestSolveAcyclic:
    def _applicable(self, inst):
        from chanlin import classify_channels, communication_topology

        eff_cap = classify_channels(inst)
        if any(c not in (0, 1, INF) for c in eff_cap.values()):
            return False
        return communication_topology(inst).acyclic

    def test_matches_brute_force(self):
        from .conftest import rand_instance

        rng = random.Random(24)
        checked = 0
        while checked < 120:
            inst = rand_instance(rng, with_rf=True)
            if not self._applicable(inst):
                continue
            checked += 1
            got = solve_acyclic(inst)
            want = brute_force(inst, inst.cap_map, inst.rf)
            assert got.outcome == want.outcome
            if got.consistent:
                assert_valid_witness(inst, got)

    def test_refuses_cyclic_topology(self):
        events = [
            Event(1, "t1", "snd", "c"),
            Event(2, "t2", "rcv", "c"),
            Event(3, "t3", "snd", "c"),
        ]
        inst = make_instance("abstract", events, {"c": INF}, [(1, 2)])
        with pytest.raises(AlgorithmRefused):
            solve_acyclic(inst)

    def test_refuses_capacity_two(self):
        events = [
            Event(1, "t1", "snd", "c"),
            Event(2, "t1", "snd", "c"),
            Event(3, "t1", "snd", "c"),
            Event(4, "t2", "rcv", "c"),
        ]
        inst = make_instance("abstract", events, {"c": 2.0}, [(1, 4)])
        with pytest.raises(AlgorithmRefused):
            solve_acyclic(inst)

    def test_private_sync_channel_inconsistent(self):
        events = [Event(1, "t1", "snd", "c"), Event(2, "t1", "rcv", "c")]
        inst = make_instance("abstract", events, {"c": 0.0}, [(1, 2)])
        assert not solve_acyclic(inst).consistent

    def test_private_async_channel_replay(self):
        cases = [
            # FIFO forces the first send to be received first.
            ("snd snd rcv", INF, [(1, 3)], True),
            ("snd snd rcv", INF, [(2, 3)], False),
            # Capacity 1: the second send finds the slot full.
            ("snd snd rcv rcv", 1.0, [(1, 3), (2, 4)], False),
            # Capacity 1: an unmatched send holds the slot for good.
            ("snd snd", 1.0, [], False),
            ("snd rcv snd rcv", 1.0, [(1, 2), (3, 4)], True),
        ]
        for ops, cap, rf, consistent in cases:
            # t2 owns the private channel c and shares d with t1.
            events = [Event(i, "t2", op, "c") for i, op in enumerate(ops.split(), 1)]
            events += [Event(8, "t1", "snd", "d"), Event(9, "t2", "rcv", "d")]
            inst = make_instance("abstract", events, {"c": cap, "d": 1.0}, rf + [(8, 9)])
            got = solve_acyclic(inst)
            assert got.consistent == consistent, ops
            if consistent:
                assert_valid_witness(inst, got)
            else:
                assert got.reason == "projection (t2) unsatisfiable on private channels c"

    def test_refusal_names_first_channel_in_sorted_order(self):
        # Six capacity-2 channels with three sends each: the refusal must not
        # depend on the order of a set of channel names.
        events, rf = [], []
        for i, ch in enumerate("fbdaec"):
            base = 4 * i
            events += [Event(base + j, "t1", "snd", ch) for j in (1, 2, 3)]
            events.append(Event(base + 4, "t2", "rcv", ch))
            rf.append((base + 1, base + 4))
        inst = make_instance("abstract", events, {ch: 2.0 for ch in "abcdef"}, rf)
        for solve in (solve_acyclic, encode_2sat):
            with pytest.raises(AlgorithmRefused, match="channel 'a' has capacity 2 >= 2"):
                solve(inst)

    def test_encode_2sat_refuses_one_thread(self):
        # A thread's private channels are replayed in program order instead.
        events = [Event(1, "t1", "snd", "c"), Event(2, "t1", "rcv", "c")]
        inst = make_instance("abstract", events, {"c": 1.0}, [(1, 2)])
        with pytest.raises(AlgorithmRefused, match="exactly two threads"):
            encode_2sat(inst)
        assert solve_acyclic(inst).consistent

    def test_private_channel_linear(self):
        # 2 000 snd/rcv pairs on one private unbounded channel, replayed in
        # program order.
        events, rf = [], []
        for i in range(1, 4001, 2):
            events += [Event(i, "t1", "snd", "c"), Event(i + 1, "t1", "rcv", "c")]
            rf.append((i, i + 1))
        inst = make_instance("abstract", events, {"c": INF}, rf)
        t0 = time.perf_counter()
        got = solve_acyclic(inst)
        assert time.perf_counter() - t0 < 0.2
        assert got.consistent
        assert_valid_witness(inst, got)

    def test_matches_brute_force_on_two_thread_random_positive(self):
        # Consistent two-thread instances and one rf mutation of each.
        rng = random.Random(25)
        checked = 0
        while checked < 1000:
            n, m = rng.randint(6, 14), rng.randint(1, 3)
            try:
                inst, _ = random_positive(n, 2, m, (0, 1, INF), rng.randrange(10**9))
            except ValueError:
                continue  # no enabled event left, e.g. an odd n on sync channels
            cases = [inst]
            if inst.rf:
                cases.append(mutate_rf(inst, rng.randrange(10**9), rounds=1)[0])
            for case in cases:
                cap, rf = case.cap_map, case.rf
                got = solve_acyclic(case)
                assert got.outcome == brute_force(case, cap, rf, bound=case.n).outcome, case
                if got.consistent:
                    assert_valid_witness(case, got)
                checked += 1
            if len(case.threads) == 2:
                # One variable per unordered cross-thread pair.
                k = case.start[1]
                assert encode_2sat(case).nvars == k * (case.n - k)

    def test_witness_matches_all_pair_orderings(self):
        # The witness sorts po plus one merged order per two-thread projection.
        # Rebuild it from all k·w pair orderings of each projection's model,
        # with a reference 2SAT solver: the two must give the same witness.
        rng = random.Random(26)
        checked = 0
        while checked < 300:
            n, t, m = rng.randint(6, 24), rng.randint(2, 4), rng.randint(1, 4)
            try:
                inst, _ = random_positive(n, t, m, (0, 1, INF), rng.randrange(10**9))
            except ValueError:
                continue
            cap, rf = inst.cap_map, inst.rf
            topo = communication_topology(inst)
            if not topo.acyclic or all(len(ts) == 1 for ts in topo.users.values()):
                continue
            checked += 1
            got = solve_acyclic(inst)
            assert got.consistent
            assert got.witness == _all_orderings_witness(inst, cap, rf, topo.users)


def _reference_2sat(nvars, clauses):
    """Recursive Tarjan over the implication graph, literal +v as node 2v − 2
    and −v as node 2v − 1, roots and edges in order; the model, or None."""
    def node(lit):
        return 2 * lit - 2 if lit > 0 else -2 * lit - 1

    adj = [[] for _ in range(2 * nvars)]
    for a, b in clauses:
        adj[node(a) ^ 1].append(node(b))
        adj[node(b) ^ 1].append(node(a))
    num, low, comp, stack, roots = {}, {}, {}, [], []

    def visit(u):
        num[u] = low[u] = len(num)
        stack.append(u)
        for w in adj[u]:
            if w not in num:
                visit(w)
                low[u] = min(low[u], low[w])
            elif w not in comp:
                low[u] = min(low[u], num[w])
        if low[u] == num[u]:  # components are numbered as they complete
            while True:
                w = stack.pop()
                comp[w] = len(roots)
                if w == u:
                    break
            roots.append(u)

    for u in range(2 * nvars):
        if u not in num:
            visit(u)
    if any(comp[2 * v] == comp[2 * v + 1] for v in range(nvars)):
        return None
    return [False] + [comp[2 * v] < comp[2 * v + 1] for v in range(nvars)]


def _all_orderings_witness(x, cap, rf, users):
    """Heap-ordered topological sort of po plus every pair ordering of each
    two-thread projection's model; synchronous rf pairs are glued."""
    edges = [ab for seq in po(x).values() for ab in zip(seq, seq[1:])]
    for ts in sorted({ts for ts in users.values() if len(ts) == 2}):
        sub_events = [e for e in x.events if users[e.channel] == ts]
        sub_rf = [(s, r) for s, r in rf if users[x.events[x.index[s]].channel] == ts]
        sub = make_instance("abstract", sub_events, cap, sub_rf)
        f = encode_2sat(sub)
        assign = _reference_2sat(f.nvars, f.clauses)
        ids, k = [e.id for e in sub.events], sub.start[1]
        for v, (a, b) in enumerate(itertools.product(ids[:k], ids[k:]), 1):
            edges.append((a, b) if assign[v] else (b, a))
    glue = {s: r for s, r in rf if cap[x.events[x.index[s]].channel] == 0}
    glued = set(glue.values())
    blocks = [(e, glue[e]) if e in glue else (e,) for e in x.index if e not in glued]
    block_of = {e: bi for bi, block in enumerate(blocks) for e in block}
    succ = defaultdict(list)
    indeg = [0] * len(blocks)
    for a, b in edges:
        if block_of[a] != block_of[b]:
            succ[block_of[a]].append(block_of[b])
            indeg[block_of[b]] += 1
    ready = [bi for bi, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        bi = heapq.heappop(ready)
        order.extend(blocks[bi])
        for bj in succ[bi]:
            indeg[bj] -= 1
            if indeg[bj] == 0:
                heapq.heappush(ready, bj)
    return tuple(order)
