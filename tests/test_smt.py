"""SMT-LIB emission: shape, variable inventory, saturation strengthening, and
the formula's meaning, decided without a solver by an evaluator of the
fragment that ``emit_smtlib`` writes."""

from __future__ import annotations

import random
import stat
from collections import defaultdict

import pytest

from chanlin import (
    AlgorithmRefused,
    Event,
    INF,
    SolverError,
    emit_smtlib,
    make_instance,
    parse_instance,
    run_external_solver,
    solve_acyclic,
    solve_sync,
    solve_vchrf,
    solve_vchrf_saturated,
)
from chanlin.generators import mutate_rf, random_positive
from .conftest import CAP_MENU, rand_instance


def balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


class TestEmit:
    def test_empty_instance(self):
        inst = make_instance("abstract", [], {}, [])
        text = emit_smtlib(inst)
        assert text.startswith("(set-logic QF_LIA)")
        assert text.rstrip().endswith("(check-sat)")
        assert "declare-const" not in text

    def test_variable_inventory(self):
        for seed in range(8):
            inst, _ = random_positive(10, 2, 3, [0.0, 1.0, INF], seed)
            text = emit_smtlib(inst)
            n, m = inst.n, len(inst.cap)
            assert text.count("(declare-const") == n + m * (2 * n + 2)
            assert balanced(text)

    def test_counters_for_empty_channel(self):
        events = [Event(1, "t1", "snd", "a"), Event(2, "t2", "rcv", "a")]
        inst = make_instance("abstract", events, {"a": INF, "b": 1.0}, [(1, 2)])
        text = emit_smtlib(inst)
        # Channel b has no events but still gets its 2n+2 counters.
        assert "y_b_snd_0" in text and "y_b_rcv_2" in text

    def test_sync_pairs_adjacent(self):
        events = [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c")]
        inst = make_instance("abstract", events, {"c": 0.0}, [(1, 2)])
        text = emit_smtlib(inst)
        assert "(assert (= (+ x_1 1) x_2))" in text

    def test_async_rf_strict(self):
        events = [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c")]
        inst = make_instance("abstract", events, {"c": 1.0}, [(1, 2)])
        text = emit_smtlib(inst)
        assert "(assert (< x_1 x_2))" in text

    def test_saturation_cycle_emits_false(self, fixtures):
        inst = parse_instance((fixtures / "two_thread_cap1_negative_rf.vchk").read_text())
        text = emit_smtlib(inst, with_saturation=True)
        assert "(assert false)" in text

    def test_saturation_adds_constraints(self):
        events = [Event(1, "t1", "snd", "c"), Event(2, "t2", "rcv", "c")]
        inst = make_instance("abstract", events, {"c": 0.0}, [(1, 2)])
        plain = emit_smtlib(inst)
        strengthened = emit_smtlib(inst, with_saturation=True)
        assert len(strengthened) >= len(plain)
        assert balanced(strengthened)


class TestExternalSolver:
    def test_missing_executable(self, tmp_path):
        enc = tmp_path / "e.smt2"
        enc.write_text("(check-sat)\n")
        with pytest.raises(SolverError):
            run_external_solver(str(enc), "/nonexistent/solver")

    def _fake_solver(self, tmp_path, body: str) -> str:
        script = tmp_path / "solver.sh"
        script.write_text(f"#!/bin/sh\n{body}\n")
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        return str(script)

    def test_parses_first_token(self, tmp_path):
        enc = tmp_path / "e.smt2"
        enc.write_text("(check-sat)\n")
        cmd = self._fake_solver(tmp_path, "echo sat")
        assert run_external_solver(str(enc), cmd) == "sat"
        cmd = self._fake_solver(tmp_path, "echo unsat")
        assert run_external_solver(str(enc), cmd) == "unsat"

    def test_unparseable_output(self, tmp_path):
        enc = tmp_path / "e.smt2"
        enc.write_text("(check-sat)\n")
        cmd = self._fake_solver(tmp_path, "echo hello")
        with pytest.raises(SolverError):
            run_external_solver(str(enc), cmd)

    def test_input_placeholder(self, tmp_path):
        enc = tmp_path / "e.smt2"
        enc.write_text("(check-sat)\n")
        cmd = self._fake_solver(tmp_path, 'test -f "$1" && echo unknown')
        assert run_external_solver(str(enc), f"{cmd} {{input}}") == "unknown"


# ---------------------------------------------------------------------------
# An evaluator for the emitted fragment: int and bool terms built from
# <, <=, =, +, ite, distinct, and and false.
# ---------------------------------------------------------------------------

_CMP = {"<": "<", "<=": "<=", "=": "=="}


def _parse(text: str) -> list:
    """The top-level s-expressions of ``text``, ``;`` comments dropped."""
    body = "\n".join(line for line in text.splitlines() if not line.startswith(";"))
    stack: list[list] = [[]]
    for tok in body.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    assert len(stack) == 1, "unbalanced parentheses"
    return stack[0]


def _py(term) -> str:
    """Python source for a term, reading constants from the dict ``v``."""
    if isinstance(term, str):
        if term == "false":
            return "False"
        if term.isdigit():
            return term
        return f"v[{term!r}]"
    op, *args = term
    a = [_py(t) for t in args]
    if op in _CMP and len(a) == 2:
        return f"({a[0]} {_CMP[op]} {a[1]})"
    if op == "+":
        return "(" + " + ".join(a) + ")"
    if op == "ite" and len(a) == 3:
        return f"({a[1]} if {a[0]} else {a[2]})"
    if op == "distinct":
        return f"(len({{{', '.join(a)}}}) == {len(a)})"
    if op == "and":
        return "(" + " and ".join(a) + ")"
    raise ValueError(f"term outside the fragment: {term}")


def compile_formula(text: str):
    """A predicate on assignments (name -> int) that holds iff every assert does."""
    asserts = []
    for cmd in _parse(text):
        if cmd[0] == "assert":
            asserts.append(_py(cmd[1]))
        elif cmd[0] not in ("set-logic", "declare-const", "check-sat"):
            raise ValueError(f"command outside the fragment: {cmd[0]}")
    return eval("lambda v: " + (" and ".join(asserts) or "True"))


def assignment(inst, order) -> dict[str, int]:
    """Positions from ``order`` (event ids, first to last) and the prefix
    counters they determine."""
    v = {f"x_{eid}": p for p, eid in enumerate(order)}
    trace = [inst.events[inst.index[eid]] for eid in order]
    for ch in inst.cap_map:
        for op in ("snd", "rcv"):
            count = v[f"y_{ch}_{op}_0"] = 0
            for i, e in enumerate(trace, 1):
                count += e.channel == ch and e.op == op
                v[f"y_{ch}_{op}_{i}"] = count
    return v


def po_orders(x):
    """Every interleaving of the threads' program orders, as id tuples."""
    seqs = [[e.id for e in x.events[a:b]] for a, b in zip(x.start, x.start[1:])]
    counts = [0] * len(seqs)
    order: list[int] = []

    def walk():
        if len(order) == x.n:
            yield tuple(order)
            return
        for ti, seq in enumerate(seqs):
            if counts[ti] < len(seq):
                order.append(seq[counts[ti]])
                counts[ti] += 1
                yield from walk()
                counts[ti] -= 1
                order.pop()

    return walk()


def _fifo_swap(inst, rng):
    """The instance with the rf partners of two messages swapped whose sends
    share a thread and whose receives share a thread, values dropped; or
    ``None``.  On one channel it is inconsistent for every capacity: FIFO
    gives the po-earlier receive the po-earlier send."""
    thread = {e.id: e.thread for e in inst.events}
    groups = defaultdict(list)
    for s, r in inst.rf:
        groups[thread[s], thread[r]].append((s, r))
    groups = [g for g in groups.values() if len(g) >= 2]
    if not groups:
        return None
    (s1, r1), (s2, r2) = rng.sample(rng.choice(groups), 2)
    rf = [p for p in inst.rf if p not in ((s1, r1), (s2, r2))] + [(s1, r2), (s2, r1)]
    events = [Event(e.id, e.thread, e.op, e.channel) for e in inst.events]
    return make_instance("abstract", events, inst.cap_map, rf)


def _draws(count: int, seed: int, n_max: int):
    """rf instances with synchronous channels in the menus: arbitrary rf, and
    consistent draws with one-round mutate_rf twins and, on one channel,
    FIFO-swap twins."""
    rng = random.Random(seed)
    menus = (CAP_MENU, (0.0,), (0.0, 1.0, INF))
    for k in range(count):
        caps = menus[k % 3]
        if k % 2:
            yield rand_instance(rng, with_rf=True, n_max=n_max, caps=caps)
            continue
        channels = 1 + k % 4 // 2
        try:
            inst, _ = random_positive(rng.randint(2, n_max), rng.randint(2, 3), channels, caps, k)
        except ValueError:
            continue
        yield inst
        if inst.rf:
            yield mutate_rf(inst, k, rounds=1)[0]
        # A FIFO-swap twin of a one-channel draw with room for two messages:
        # without the FIFO asserts, most such twins would read satisfiable.
        twin_rng = random.Random(k)
        one, _ = random_positive(twin_rng.randint(4, n_max), 2, 1, (2.0, INF), k)
        twin = _fifo_swap(one, twin_rng)
        if twin is not None:
            yield twin


def _rendezvous(inst) -> bool:
    return any(inst.cap_map[inst.events[inst.index[s]].channel] == 0
               for s, _ in inst.rf)


class TestSemantics:
    def test_evaluator_rejects_terms_outside_the_fragment(self):
        with pytest.raises(ValueError):
            compile_formula("(assert (or false false))")
        assert not compile_formula("(assert false)")({})
        assert compile_formula("(assert (= (ite (< a 1) 2 0) (+ a 2)))")({"a": 0})

    def test_every_witness_satisfies_the_formula(self):
        checked = rendezvous = 0
        for inst in _draws(300, 61, 10):
            for sat in (False, True):
                holds = compile_formula(emit_smtlib(inst, with_saturation=sat))
                for solve in (solve_vchrf, solve_vchrf_saturated, solve_sync, solve_acyclic):
                    try:
                        v = solve(inst)
                    except AlgorithmRefused:
                        continue
                    if v.consistent:
                        assert holds(assignment(inst, v.witness)), (solve.__name__, sat, inst)
                        checked += 1
                        rendezvous += _rendezvous(inst)
        assert checked > 300 and rendezvous > 100

    def test_satisfiable_iff_consistent(self):
        """Decided by enumeration: a model's positions are a po-respecting
        order (the formula asserts po), and its counters follow from them."""
        seen = {True: 0, False: 0}
        rendezvous = 0
        for inst in _draws(400, 62, 7):
            want = solve_vchrf(inst).consistent
            for sat in (False, True):
                holds = compile_formula(emit_smtlib(inst, with_saturation=sat))
                got = any(holds(assignment(inst, o)) for o in po_orders(inst))
                assert got == want, (sat, inst)
            seen[want] += 1
            rendezvous += want and _rendezvous(inst)
        assert seen[True] > 50 and seen[False] > 50 and rendezvous > 20
