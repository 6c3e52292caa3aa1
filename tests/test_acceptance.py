"""End-to-end acceptance suite.

Each test mirrors one shipped guarantee: exact verdicts on the bundled
example instances, solver/oracle equivalence on randomized suites, reduction
round-trips against independent oracles of the source problems, pruning and
scaling behavior of saturation, mutation statistics, the 2SAT engine, and the
SMT emitter's variable inventory.
"""

from __future__ import annotations

import itertools
import os
import random
import time

import pytest

from chanlin import (
    AlgorithmRefused,
    Event,
    INF,
    Ok,
    Violation,
    brute_force,
    check_well_formed,
    emit_smtlib,
    make_instance,
    parse_instance,
    run_external_solver,
    solve_acyclic,
    solve_sync,
    solve_vch,
    solve_vchrf,
    solve_vchrf_saturated,
)
from chanlin.fastpath import TwoSatFormula, solve_2sat
from chanlin.generators import (
    CnfFormula,
    Graph,
    OvInstance,
    from_3sat_t3_m5,
    from_hamiltonian,
    from_orthogonal_vectors,
    from_vsc_read,
    mutate_rf,
    random_positive,
)
from .conftest import assert_valid_witness, rand_instance, rendezvous_count, token_ring
from .test_generators import (
    has_hamiltonian_cycle,
    has_orthogonal_pair,
    random_vsc_read,
    satisfiable,
    sc_consistent,
)


def _suite(count: int, start_seed: int = 0):
    """The shared randomized suite: alternating valued / reads-from instances."""
    for i in range(count):
        rng = random.Random(start_seed + i)
        yield rand_instance(rng, with_rf=i % 2 == 1)


class TestCriterion1FigureVerdicts:
    def test_all_bundled_instances(self, fixtures):
        t0 = time.monotonic()
        traces = {
            "trace_async_ok.vchk": None,
            "trace_capacity_violation.vchk": ("capacity", 3),
            "trace_sync_violation.vchk": ("sync", 2),
            "trace_value_violation.vchk": ("value", 5),
        }
        for name, want in traces.items():
            inst = parse_instance((fixtures / name).read_text())
            got = check_well_formed(inst.trace, inst.cap_map)
            if want is None:
                assert isinstance(got, Ok)
            else:
                assert got == Violation(*want)

        pos = parse_instance((fixtures / "two_thread_cap1_positive.vchk").read_text())
        assert solve_vch(pos).consistent

        neg = parse_instance((fixtures / "two_thread_cap1_negative_rf.vchk").read_text())
        assert not solve_vchrf(neg).consistent

        three = parse_instance((fixtures / "three_thread_cap2_positive.vchk").read_text())
        v = solve_vch(three)
        assert v.consistent and len(v.witness) == 4
        assert_valid_witness(three, v)

        tri = parse_instance((fixtures / "sync_triangle_positive.vchk").read_text())
        assert_valid_witness(tri, solve_sync(tri))

        assert time.monotonic() - t0 < 1.0


class TestCriterion2OracleEquivalence:
    def test_thousand_instances(self):
        t0 = time.monotonic()
        for inst in _suite(1000):
            cap, rf = inst.cap_map, inst.rf
            want = brute_force(inst, cap, rf)
            if rf is None:
                got = solve_vch(inst)
            else:
                got = solve_vchrf(inst)
                if inst.events and all(cap[e.channel] == 0 for e in inst.events):
                    try:
                        assert solve_sync(inst).outcome == want.outcome
                    except AlgorithmRefused:
                        pass
                try:
                    assert solve_acyclic(inst).outcome == want.outcome
                except AlgorithmRefused:
                    pass
            assert got.outcome == want.outcome
            if got.consistent:
                assert_valid_witness(inst, got)
        assert time.monotonic() - t0 < 120


class TestCriterion3PruningSoundness:
    def test_saturated_agrees_on_suite(self):
        for inst in _suite(1000):
            if inst.rf is None:
                continue
            plain = solve_vchrf(inst)
            pruned = solve_vchrf_saturated(inst)
            assert pruned.outcome == plain.outcome
            if pruned.consistent:
                assert_valid_witness(inst, pruned)

    def test_negative_fixture_rejected_without_search(self, fixtures):
        inst = parse_instance((fixtures / "two_thread_cap1_negative_rf.vchk").read_text())
        v = solve_vchrf_saturated(inst)
        assert not v.consistent
        assert v.explored == 0


class TestCriterion4ReductionRoundTrips:
    def test_hamiltonian(self):
        t0 = time.monotonic()
        rng = random.Random(1001)
        for _ in range(200):
            n = rng.randint(2, 5)
            possible = [(u, v) for u in range(n) for v in range(n) if u != v]
            edges = tuple(e for e in possible if rng.random() < rng.uniform(0.15, 0.95))
            g = Graph(n, edges)
            inst = from_hamiltonian(g)
            got = solve_vch(inst).consistent
            assert got == has_hamiltonian_cycle(g), (n, edges)
        assert time.monotonic() - t0 < 120

    def test_3sat_exhaustive_small(self):
        # All 3CNF formulas over variables {1,2,3} whose clauses use three
        # distinct variables, with up to four clauses.
        t0 = time.monotonic()
        patterns = [
            tuple(v if bit else -v for v, bit in zip((1, 2, 3), bits))
            for bits in itertools.product([0, 1], repeat=3)
        ]
        count = 0
        for size in range(1, 5):
            for combo in itertools.combinations(patterns, size):
                f = CnfFormula(3, combo)
                inst = from_3sat_t3_m5(f)
                got = solve_vchrf_saturated(inst)
                assert got.consistent == satisfiable(f), combo
                count += 1
        assert count == 162
        assert time.monotonic() - t0 < 120

    def test_3sat_seven_and_eight_clauses(self):
        # Dropping one of the eight sign patterns leaves a satisfiable formula;
        # all eight are unsatisfiable, so the search must exhaust its space.
        patterns = [
            tuple(v if bit else -v for v, bit in zip((1, 2, 3), bits))
            for bits in itertools.product([0, 1], repeat=3)
        ]
        for size in (7, 8):
            for combo in itertools.combinations(patterns, size):
                inst = from_3sat_t3_m5(CnfFormula(3, combo))
                pruned = solve_vchrf_saturated(inst)
                plain = solve_vchrf(inst)
                assert pruned.consistent == plain.consistent == (size == 7), combo
                for got in (pruned, plain):
                    if got.consistent:
                        assert_valid_witness(inst, got)
        # The last formula is the 8-clause one; without the safe-receive
        # reduction its saturated space has 139 843 states.
        assert len(combo) == 8 and pruned.explored < 139_843

    def test_orthogonal_vectors(self):
        t0 = time.monotonic()
        rng = random.Random(1002)
        done = 0
        while done < 300:
            n, d = rng.randint(1, 3), rng.randint(1, 3)
            vecs = [
                tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(2 * n)
            ]
            if any(not any(v) for v in vecs):
                continue
            done += 1
            ov = OvInstance(tuple(vecs[:n]), tuple(vecs[n:]))
            inst = from_orthogonal_vectors(ov)
            got = solve_vchrf_saturated(inst)
            assert got.consistent == has_orthogonal_pair(ov), ov
        assert time.monotonic() - t0 < 120

    def test_vsc_read(self):
        t0 = time.monotonic()
        rng = random.Random(1003)
        done = 0
        while done < 200:
            v = random_vsc_read(rng, max_events=8)
            if v is None:
                continue
            done += 1
            inst = from_vsc_read(v)
            got = solve_vchrf_saturated(inst)
            assert got.consistent == sc_consistent(v), v
        assert time.monotonic() - t0 < 120


class TestCriterion5SaturationScaling:
    def test_hundred_thousand_event_pipeline(self):
        n_pairs = 50000
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
        t0 = time.monotonic()
        v = solve_vchrf_saturated(inst)
        elapsed = time.monotonic() - t0
        assert v.consistent
        assert v.explored == inst.n + 1 - rendezvous_count(inst)
        assert elapsed < 10

    def test_two_thousand_event_token_ring(self):
        inst = token_ring(250, (0.0, 1.0, 2.0, INF))
        assert inst.n == 2000
        t0 = time.monotonic()
        v = solve_vchrf_saturated(inst)
        elapsed = time.monotonic() - t0
        assert v.consistent
        assert v.explored == inst.n + 1 - rendezvous_count(inst)
        assert elapsed < 4

    def test_sixteen_thousand_event_token_ring(self):
        # Saturation pops each event of a ring once (reverse topological
        # order); a thread-major worklist needs about 35 s here.
        inst = token_ring(2000, (0.0, 1.0, 2.0, INF))
        assert inst.n == 16000
        t0 = time.monotonic()
        v = solve_vchrf_saturated(inst)
        elapsed = time.monotonic() - t0
        assert v.consistent
        assert v.explored == inst.n + 1 - rendezvous_count(inst)
        assert elapsed < 3

    def test_pending_tail(self):
        # A cut history: t1 and t2 each send 2 000 messages on one unbounded
        # channel and t3 receives the first 1 000 of each, so 2 000 sends stay
        # pending.  Rule 2 as one edge per thread pair keeps saturation linear
        # here; all matched × unmatched pairs took about 6 s.
        n = 2000
        events = [Event(i, f"t{1 + i // (n + 1)}", "snd", "c") for i in range(1, 2 * n + 1)]
        received = list(range(1, n // 2 + 1)) + list(range(n + 1, n + n // 2 + 1))
        rf = [(s, 2 * n + k) for k, s in enumerate(received, start=1)]
        events += [Event(r, "t3", "rcv", "c") for _, r in rf]
        inst = make_instance("abstract", events, {"c": INF}, rf)
        assert inst.n == 6000
        t0 = time.monotonic()
        v = solve_vchrf_saturated(inst)
        elapsed = time.monotonic() - t0
        assert v.consistent
        assert v.explored == 7001
        assert elapsed < 2


class TestCriterion6MutationStatistics:
    def test_majority_inconsistent(self):
        t0 = time.monotonic()
        inconsistent = 0
        for seed in range(200):
            inst, _ = random_positive(40, 3, 4, [0.0, 0.0, 1.0, 1.0, INF], seed)
            mutated, _, _ = mutate_rf(inst, seed=seed + 5000)
            v = solve_vchrf_saturated(mutated)
            if not v.consistent:
                inconsistent += 1
        assert inconsistent >= 100
        assert time.monotonic() - t0 < 60


class TestCriterion7TwoSat:
    def test_truth_table_agreement(self):
        rng = random.Random(1004)
        for _ in range(200):
            nv = rng.randint(1, 15)
            f = TwoSatFormula(nvars=nv)
            clauses = []
            for _ in range(rng.randint(1, 3 * nv)):
                a = rng.randint(1, nv) * rng.choice([1, -1])
                b = rng.randint(1, nv) * rng.choice([1, -1])
                f.add(a, b)
                clauses.append((a, b))
            got = solve_2sat(f)
            want = any(
                all(
                    (bits[abs(a) - 1] == (a > 0)) or (bits[abs(b) - 1] == (b > 0))
                    for a, b in clauses
                )
                for bits in itertools.product([False, True], repeat=nv)
            )
            assert (got is not None) == want
            if got is not None:
                for a, b in clauses:
                    assert (got[abs(a)] == (a > 0)) or (got[abs(b)] == (b > 0))


class TestCriterion8SmtEmitter:
    def test_variable_inventory(self):
        for seed in range(50):
            rng = random.Random(2000 + seed)
            inst = rand_instance(rng, with_rf=True)
            text = emit_smtlib(inst)
            n, m = inst.n, len(inst.cap)
            assert text.count("(declare-const") == n + m * (2 * n + 2)

    @pytest.mark.skipif(
        not os.environ.get("CHANLIN_SMT_CMD"),
        reason="no external SMT solver configured (set CHANLIN_SMT_CMD)",
    )
    def test_solver_cross_check(self, tmp_path):
        cmd = os.environ["CHANLIN_SMT_CMD"]
        for seed in range(100):
            rng = random.Random(3000 + seed)
            inst = rand_instance(rng, with_rf=True)
            want = solve_vchrf(inst)
            path = tmp_path / f"{seed}.smt2"
            path.write_text(emit_smtlib(inst))
            got = run_external_solver(str(path), cmd)
            assert got == ("sat" if want.consistent else "unsat"), seed
