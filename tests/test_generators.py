"""Reduction generators vs independent oracles; random generator; rf fuzzer."""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from collections import defaultdict

import pytest

from chanlin import (
    INF,
    parse_instance,
    serialize_instance,
    solve_vch,
    solve_vchrf,
    solve_vchrf_saturated,
)
from chanlin.generators import (
    CnfFormula,
    Graph,
    MemEvent,
    OvInstance,
    VscReadInstance,
    _Builder,
    from_3sat_t3_m5,
    from_hamiltonian,
    from_one_in_three_two_threads,
    from_orthogonal_vectors,
    from_vsc_read,
    mutate_rf,
    parse_digraph,
    parse_dimacs,
    parse_ov,
    parse_vsc_read,
    random_positive,
)


# ---------------------------------------------------------------------------
# Source-problem oracles (independent of the reductions)
# ---------------------------------------------------------------------------


def has_hamiltonian_cycle(g: Graph) -> bool:
    if g.n_nodes < 2:
        return False
    adj: dict[int, set[int]] = {v: set() for v in range(g.n_nodes)}
    for u, v in g.edges:
        adj[u].add(v)
    for perm in itertools.permutations(range(1, g.n_nodes)):
        cyc = (0,) + perm
        if all(cyc[(i + 1) % g.n_nodes] in adj[cyc[i]] for i in range(g.n_nodes)):
            return True
    return False


def one_in_three_satisfiable(f: CnfFormula) -> bool:
    for bits in itertools.product([0, 1], repeat=f.n_vars):
        if all(sum(bits[l - 1] for l in cl) == 1 for cl in f.clauses):
            return True
    return False


def satisfiable(f: CnfFormula) -> bool:
    for bits in itertools.product([False, True], repeat=f.n_vars):
        if all(any((bits[abs(l) - 1]) == (l > 0) for l in cl) for cl in f.clauses):
            return True
    return False


def has_orthogonal_pair(ov: OvInstance) -> bool:
    return any(
        all(x * y == 0 for x, y in zip(a, b)) for a in ov.a for b in ov.b
    )


def sc_consistent(v: VscReadInstance) -> bool:
    """Enumerate interleavings; reads must observe their mapped write last."""
    rf_of = {r: w for w, r in v.rf}
    threads: dict[str, list[MemEvent]] = defaultdict(list)
    for e in v.events:
        threads[e.thread].append(e)
    seqs = [threads[t] for t in sorted(threads)]
    counts = [0] * len(seqs)

    def step(done: int, last_write: dict[str, int]) -> bool:
        if done == len(v.events):
            return True
        for ti, seq in enumerate(seqs):
            if counts[ti] >= len(seq):
                continue
            e = seq[counts[ti]]
            if e.op == "r" and last_write.get(e.register) != rf_of[e.id]:
                continue
            counts[ti] += 1
            prev = last_write.get(e.register)
            if e.op == "w":
                last_write[e.register] = e.id
            if step(done + 1, last_write):
                return True
            if e.op == "w":
                if prev is None:
                    del last_write[e.register]
                else:
                    last_write[e.register] = prev
            counts[ti] -= 1
        return False

    return step(0, {})


def random_vsc_read(rng: random.Random, max_events: int = 8) -> VscReadInstance | None:
    nt = rng.randint(1, 3)
    ne = rng.randint(1, max_events)
    nreg = rng.randint(1, 2)
    events = tuple(
        MemEvent(i, f"t{rng.randint(1, nt)}", rng.choice("rw"), f"x{rng.randint(1, nreg)}")
        for i in range(1, ne + 1)
    )
    writes: dict[str, list[int]] = defaultdict(list)
    for e in events:
        if e.op == "w":
            writes[e.register].append(e.id)
    rf = []
    for e in events:
        if e.op == "r":
            if not writes[e.register]:
                return None
            rf.append((rng.choice(writes[e.register]), e.id))
    return VscReadInstance(events, tuple(rf))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


class TestHamiltonian:
    def test_triangle_with_chord(self):
        g = Graph(3, ((0, 1), (1, 2), (2, 0), (2, 1)))
        inst = from_hamiltonian(g)
        assert solve_vch(inst).consistent

    def test_directed_path(self):
        inst = from_hamiltonian(Graph(3, ((0, 1), (1, 2))))
        assert not solve_vch(inst).consistent

    def test_structural_counts(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        inst = from_hamiltonian(g)
        assert len(inst.cap) == 2 * g.n_nodes + 3
        threads = inst.threads
        assert len(threads) == len(g.edges) + g.n_nodes + 2

    def test_small_digraphs_match_oracle(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(2, 4)
            possible = [(u, v) for u in range(n) for v in range(n) if u != v]
            edges = tuple(e for e in possible if rng.random() < rng.uniform(0.2, 0.9))
            g = Graph(n, edges)
            inst = from_hamiltonian(g)
            got = solve_vch(inst).consistent
            assert got == has_hamiltonian_cycle(g), (n, edges)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 0),))


class TestOneInThree:
    def test_single_clause_satisfiable(self):
        f = CnfFormula(3, ((1, 2, 3),))
        inst = from_one_in_three_two_threads(f)
        assert solve_vch(inst).consistent

    def test_channel_count(self):
        f = CnfFormula(4, ((1, 2, 3), (2, 3, 4)))
        inst = from_one_in_three_two_threads(f)
        assert len(inst.cap) == len(f.clauses) + 3
        assert len(inst.threads) == 2

    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError):
            from_one_in_three_two_threads(CnfFormula(2, ((1, 1, 2),)))

    def test_matches_enumeration(self):
        rng = random.Random(32)
        for _ in range(30):
            nv = rng.randint(3, 4)
            clauses = tuple(
                tuple(sorted(rng.sample(range(1, nv + 1), 3)))
                for _ in range(rng.randint(1, 4))
            )
            f = CnfFormula(nv, clauses)
            inst = from_one_in_three_two_threads(f)
            got = solve_vch(inst).consistent
            assert got == one_in_three_satisfiable(f), clauses


class TestThreeSat:
    def test_structure(self):
        f = CnfFormula(2, ((1, -2, 1),))
        inst = from_3sat_t3_m5(f)
        assert sorted(dict(inst.cap)) == ["c1", "c2", "c3", "ch1", "ch2"]
        assert len(inst.threads) == 3

    def test_satisfiable_mixed_clause(self):
        f = CnfFormula(3, ((1, 2, -3),))
        inst = from_3sat_t3_m5(f)
        assert solve_vchrf_saturated(inst).consistent

    def test_unsatisfiable_all_patterns(self):
        clauses = tuple(
            tuple(v if bit else -v for v, bit in zip((1, 2, 3), bits))
            for bits in itertools.product([0, 1], repeat=3)
        )
        f = CnfFormula(3, clauses)
        inst = from_3sat_t3_m5(f)
        assert not solve_vchrf_saturated(inst).consistent


class TestOrthogonalVectors:
    def test_known_positive(self):
        ov = OvInstance(((0, 1), (1, 0)), ((0, 1), (1, 1)))
        inst = from_orthogonal_vectors(ov)
        assert solve_vchrf(inst).consistent

    def test_single_pair_negative(self):
        ov = OvInstance(((1, 1),), ((1, 1),))
        inst = from_orthogonal_vectors(ov)
        assert not solve_vchrf(inst).consistent

    def test_structure(self):
        ov = OvInstance(((1, 0, 1),), ((0, 1, 1),))
        inst = from_orthogonal_vectors(ov)
        assert len(inst.cap) == 3 + 4
        assert len(inst.threads) == 2

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            from_orthogonal_vectors(OvInstance(((0, 0),), ((1, 1),)))


class TestVscRead:
    def test_single_write_no_reads(self):
        v = VscReadInstance((MemEvent(1, "t1", "w", "x"),), ())
        inst = from_vsc_read(v)
        assert solve_vchrf(inst).consistent
        # One atomic block: a lock send/receive pair.
        assert inst.n == 2

    def test_read_before_write_same_thread(self):
        v = VscReadInstance(
            (MemEvent(1, "t1", "r", "x"), MemEvent(2, "t1", "w", "x")),
            ((2, 1),),
        )
        inst = from_vsc_read(v)
        assert not solve_vchrf(inst).consistent

    def test_cross_register_rf_rejected(self):
        v = VscReadInstance(
            (MemEvent(1, "t1", "w", "x"), MemEvent(2, "t2", "r", "y")),
            ((1, 2),),
        )
        with pytest.raises(ValueError):
            from_vsc_read(v)

    def test_matches_sc_enumeration(self):
        rng = random.Random(33)
        done = 0
        while done < 60:
            v = random_vsc_read(rng)
            if v is None:
                continue
            done += 1
            inst = from_vsc_read(v)
            got = solve_vchrf_saturated(inst).consistent
            assert got == sc_consistent(v), v


# ---------------------------------------------------------------------------
# Parsers
# ---------------------------------------------------------------------------


class TestParsers:
    def test_digraph(self):
        g = parse_digraph("digraph 3\n0 1\n1 2 # edge\n")
        assert g == Graph(3, ((0, 1), (1, 2)))

    def test_dimacs(self):
        f = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 3 0\n")
        assert f == CnfFormula(3, ((1, -2, 3), (-1, 2, 3)))

    def test_ov(self):
        ov = parse_ov("ov 2 3\n101\n010\n1 1 1\n011\n")
        assert ov.a == ((1, 0, 1), (0, 1, 0))
        assert ov.b == ((1, 1, 1), (0, 1, 1))

    def test_vsc_read(self):
        v = parse_vsc_read("event 1 t1 w x\nevent 2 t2 r x\nrf 1 2\n")
        assert v.events[0].op == "w"
        assert v.rf == ((1, 2),)

    def test_dimacs_stops_at_percent_line(self):
        # SATLIB files close with a "%" line and a lone "0".
        f = parse_dimacs("c uf3\np cnf 3 2\n1 -2 3 0\n-1 2 3 0\n%\n0\n\n")
        assert f == CnfFormula(3, ((1, -2, 3), (-1, 2, 3)))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            parse_digraph("3\n0 1\n")
        with pytest.raises(ValueError):
            parse_dimacs("1 2 0\n")
        with pytest.raises(ValueError):
            parse_ov("ov 1 2\n01\n")  # missing B row
        # A bad integer or row names its line.
        for parse, text, line in [
            (parse_digraph, "digraph 3\n0 x", 2),
            (parse_digraph, "digraph three\n", 1),
            (parse_dimacs, "p cnf 3 1\n\n1 y 0\n", 3),
            (parse_ov, "ov 1 z\n1\n1\n", 1),
            (parse_ov, "ov 1 2\n01\n# B\n0a\n", 4),
            (parse_vsc_read, "event 1 t1 w x\nevent k t2 r x\n", 2),
            (parse_vsc_read, "event 1 t1 w x\nrf 1 q\n", 2),
        ]:
            with pytest.raises(ValueError, match=f"^line {line}: "):
                parse(text)


# ---------------------------------------------------------------------------
# Random generator and rf fuzzer
# ---------------------------------------------------------------------------


class TestRandomPositive:
    def test_deterministic(self):
        a, _ = random_positive(25, 3, 3, [0.0, 1.0, INF], seed=1)
        b, _ = random_positive(25, 3, 3, [0.0, 1.0, INF], seed=1)
        assert serialize_instance(a) == serialize_instance(b)

    def test_consistent_by_construction(self):
        for seed in range(20):
            inst, trace = random_positive(20, 3, 3, [0.0, 1.0, 2.0, INF], seed)
            assert solve_vchrf(inst).consistent
            assert len(trace) == 20

    def test_round_trips(self):
        inst, _ = random_positive(15, 2, 2, [1.0, INF], seed=4)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_empty(self):
        inst, trace = random_positive(0, 1, 1, [1.0], seed=0)
        assert inst.n == 0 and trace == ()

    def test_infeasible(self):
        # Only synchronous channels: a handshake needs two threads and two slots.
        for n, threads in [(4, 1), (5, 2)]:
            with pytest.raises(ValueError, match="every channel is synchronous"):
                random_positive(n, threads, 1, [0.0], seed=0)

    def test_handshakes_fill_even_sizes(self):
        inst, trace = random_positive(4, 2, 1, [0.0], seed=0)
        assert len(trace) == 4 and len(inst.rf) == 2


class TestMutateRf:
    def test_requires_rf(self):
        inst, _ = random_positive(0, 1, 1, [1.0], seed=0)
        with pytest.raises(ValueError):
            mutate_rf(inst, seed=0)

    def test_determinism_and_counts(self):
        inst, _ = random_positive(30, 3, 3, [1.0, INF], seed=9)
        m1, ap1, sk1 = mutate_rf(inst, seed=5)
        m2, ap2, sk2 = mutate_rf(inst, seed=5)
        assert serialize_instance(m1) == serialize_instance(m2)
        assert (ap1, sk1) == (ap2, sk2)
        assert ap1 + sk1 == 5  # max(5, ceil(0.05 * 30))

    def test_rounds_scale_with_size(self):
        inst, _ = random_positive(200, 3, 3, [1.0, INF], seed=2)
        _, applied, skipped = mutate_rf(inst, seed=0)
        assert applied + skipped == 10

    @pytest.mark.parametrize(
        "seed, applied, skipped, rf",
        [
            (0, 9, 3, ((2, 3), (4, 10), (7, 12), (8, 11))),
            (2, 7, 5, ((2, 9), (4, 10), (5, 3), (6, 7))),
        ],
    )
    def test_pinned_output(self, seed, applied, skipped, rf):
        # Fixed per seed: the same rng draws pick the same pairs and sends.
        inst, _ = random_positive(12, 3, 4, [1.0, INF], seed)
        mutated, ap, sk = mutate_rf(inst, seed, rounds=12)
        assert (ap, sk, mutated.rf) == (applied, skipped, rf)

    def test_pinned_output_with_redirects(self):
        inst, _ = random_positive(60, 3, 4, [0.0, 1.0, INF], 5)
        mutated, applied, skipped = mutate_rf(inst, 5)
        assert (applied, skipped) == (5, 0)
        assert mutated.rf == (
            (1, 47), (3, 17), (4, 11), (5, 36), (7, 12), (9, 14), (13, 15), (16, 8),
            (18, 20), (21, 22), (25, 31), (28, 30), (29, 35), (32, 33), (34, 52),
            (37, 53), (40, 45), (43, 55), (44, 2), (51, 46), (56, 59),
        )

    def test_large_instance_is_not_quadratic(self):
        # 800 rounds over 16 000 events; re-sorting every rf pair each round
        # took over 1 s.
        inst, _ = random_positive(16_000, 3, 3, [0.0, 1.0, 2.0, INF], 5)
        t0 = time.perf_counter()
        _, applied, skipped = mutate_rf(inst, 3)
        assert time.perf_counter() - t0 < 0.4
        assert applied + skipped == 800

    def test_zero_rounds_identity_rf(self):
        inst, _ = random_positive(20, 3, 3, [1.0, INF], seed=3)
        mutated, applied, skipped = mutate_rf(inst, seed=0, rounds=0)
        assert applied == 0 and skipped == 0
        assert mutated.rf == inst.rf

    def test_single_send_channel_skips(self):
        inst, _ = random_positive(2, 2, 1, [INF], seed=11)
        # Force a one-send instance: a send and its receive.
        if len([e for e in inst.events if e.op == "snd"]) != 1:
            from chanlin import Event, make_instance

            events = [Event(1, "t1", "snd", "ch1"), Event(2, "t2", "rcv", "ch1")]
            inst = make_instance("abstract", events, {"ch1": INF}, [(1, 2)])
        mutated, applied, skipped = mutate_rf(inst, seed=0, rounds=4)
        assert applied == 0 and skipped == 4
        assert mutated.rf == inst.rf

    def test_rf_stays_injective_on_matching_channels(self):
        rng = random.Random(34)
        for seed in range(25):
            inst, _ = random_positive(40, 3, 4, [0.0, 1.0, 2.0, INF], seed)
            mutated, _, _ = mutate_rf(inst, seed=seed + 100)
            snds = [s for s, _ in mutated.rf]
            rcvs = [r for _, r in mutated.rf]
            assert len(set(snds)) == len(snds)
            assert len(set(rcvs)) == len(rcvs)
            events, index = mutated.events, mutated.index
            for s, r in mutated.rf:
                es, er = events[index[s]], events[index[r]]
                assert es.channel == er.channel
                assert es.op == "snd" and er.op == "rcv"


# ---------------------------------------------------------------------------
# Byte pins: every reduction's output on a fixed input family
# ---------------------------------------------------------------------------


def _sign_patterns() -> list[tuple[int, ...]]:
    return [
        tuple(v if bit else -v for v, bit in zip((1, 2, 3), bits))
        for bits in itertools.product([0, 1], repeat=3)
    ]


def _pin_3sat() -> list[CnfFormula]:
    """The 93 formula shapes of the sat3-search workload, then 60 random
    formulas whose clauses may repeat a variable."""
    pats = _sign_patterns()
    shapes = [combo for size in (1, 2, 3) for combo in itertools.combinations(pats, size)]
    shapes.append(tuple(pats))
    out = [CnfFormula(3, shape) for shape in shapes]
    rng = random.Random(41)
    for _ in range(60):
        nv = rng.randint(1, 5)
        out.append(CnfFormula(nv, tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(3))
            for _ in range(rng.randint(0, 4))
        )))
    return out


def _pin_1in3() -> list[CnfFormula]:
    rng = random.Random(42)
    out = [CnfFormula(3, ()), CnfFormula(3, ((1, 2, 3),))]
    for _ in range(40):
        nv = rng.randint(3, 6)
        out.append(CnfFormula(nv, tuple(
            tuple(rng.sample(range(1, nv + 1), 3)) for _ in range(rng.randint(1, 4))
        )))
    return out


def _pin_digraphs() -> list[Graph]:
    rng = random.Random(43)
    out = [Graph(1, ()), Graph(3, ((0, 1), (1, 2)))]
    for _ in range(40):
        n = rng.randint(2, 5)
        out.append(Graph(n, tuple(
            (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.5
        )))
    return out


def _pin_ov() -> list[OvInstance]:
    rng = random.Random(44)
    out = []
    for _ in range(40):
        n, d = rng.randint(1, 4), rng.randint(1, 4)
        vecs = []
        while len(vecs) < 2 * n:
            vec = tuple(rng.randint(0, 1) for _ in range(d))
            if any(vec):
                vecs.append(vec)
        out.append(OvInstance(tuple(vecs[:n]), tuple(vecs[n:])))
    return out


def _pin_vsc() -> list[VscReadInstance]:
    rng = random.Random(45)
    out = []
    while len(out) < 60:
        v = random_vsc_read(rng, max_events=10)
        if v is not None:
            out.append(v)
    return out


def _digest(reduce, inputs) -> str:
    h = hashlib.sha256()
    for x in inputs:
        h.update(serialize_instance(reduce(x)).encode())
    return h.hexdigest()


class TestBytePins:
    # sha256 over serialize_instance of each input's reduction, in order.
    @pytest.mark.parametrize(
        "reduce, family, pin",
        [
            (from_3sat_t3_m5, _pin_3sat,
             "181e7cf0c34523ea1c8259ea86ad335044c1a50673ce65281ab3da5cb5f50be2"),
            (from_one_in_three_two_threads, _pin_1in3,
             "b303a2c154bcd4ce3f34f479e5b299b0dfa53559f954c689cf401308cb0795cd"),
            (from_hamiltonian, _pin_digraphs,
             "8dd096d83a9d158f1a17279cba0f181e90e79dd9446e553d65c6fb99ff0c54b9"),
            (from_orthogonal_vectors, _pin_ov,
             "89f923dc6b217d52e070e920d868902dcf127c077c516c211815ef6ed511d534"),
            (from_vsc_read, _pin_vsc,
             "db0db8338a2f600622137d0f1379b89c0ebe6ccca5a8dd59d77e7617f4f298d2"),
        ],
    )
    def test_reduction_bytes(self, reduce, family, pin):
        assert _digest(reduce, family()) == pin

    def test_undeclared_tag_raises(self):
        b = _Builder()
        b.rcv("t1", "c", "x")  # a receive may come before its send
        b.snd("t2", "c", "x")
        assert b.instance({"c": INF}).rf == ((2, 1),)
        b.rcv("t1", "c", "y")
        with pytest.raises(ValueError, match="takes undeclared tag 'y'"):
            b.instance({"c": INF})
