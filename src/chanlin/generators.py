"""Known-answer instance generators, a random generator, and an rf fuzzer.

Each ``from_*`` function reduces a classic decision problem to channel
consistency, so solver verdicts can be cross-checked against independent
oracles of the source problem:

* :func:`from_hamiltonian` — Hamiltonian cycle → VCh (shared value);
* :func:`from_one_in_three_two_threads` — positive 1-in-3 SAT → VCh on two
  threads;
* :func:`from_3sat_t3_m5` — 3SAT → VCh-rf on three threads and five channels;
* :func:`from_orthogonal_vectors` — orthogonal-vectors → VCh-rf on two
  threads;
* :func:`from_vsc_read` — sequential-consistency-with-fixed-reads → VCh-rf
  over capacity-1 channels.

:func:`random_positive` builds consistent-by-construction instances by
simulating a random well-formed trace; :func:`mutate_rf` perturbs a reads-from
relation to produce likely-inconsistent variants.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from .core import (
    INF,
    RCV,
    SND,
    Event,
    Instance,
    derive_abstract,
    make_instance,
)


# ---------------------------------------------------------------------------
# Source-problem types and parsers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Directed graph: ``n_nodes`` vertices ``0..n_nodes-1``, no self-loops."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge ({u},{v}) out of range")


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables ``1..n_vars``; clauses are signed variable indices."""

    n_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for cl in self.clauses:
            for lit in cl:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} out of range")


@dataclass(frozen=True)
class OvInstance:
    """Two equal-cardinality sets of boolean vectors of one dimension."""

    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b) or not self.a:
            raise ValueError("vector sets must be nonempty and equal-sized")
        d = len(self.a[0])
        for vec in self.a + self.b:
            if len(vec) != d:
                raise ValueError("dimension mismatch")
            if any(x not in (0, 1) for x in vec):
                raise ValueError("vectors must be boolean")


@dataclass(frozen=True)
class MemEvent:
    """A shared-memory read or write: ``⟨id, thread, r|w, register⟩``."""

    id: int
    thread: str
    op: str  # "r" | "w"
    register: str


@dataclass(frozen=True)
class VscReadInstance:
    """Memory events in per-thread listing order plus a read→write rf."""

    events: tuple[MemEvent, ...]
    rf: tuple[tuple[int, int], ...]  # (write id, read id)


def parse_digraph(text: str) -> Graph:
    """Parse ``digraph <n>`` followed by ``<u> <v>`` edge lines."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "digraph":
                raise ValueError(f"line {ln}: expected 'digraph <n>'")
            n = int(tokens[1])
        else:
            if len(tokens) != 2:
                raise ValueError(f"line {ln}: expected '<u> <v>'")
            edges.append((int(tokens[0]), int(tokens[1])))
    if n is None:
        raise ValueError("empty digraph input")
    return Graph(n_nodes=n, edges=tuple(edges))


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF (``p cnf <vars> <clauses>``, 0-terminated clauses)."""
    n_vars: int | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            tokens = line.split()
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ValueError(f"line {ln}: bad problem line")
            n_vars = int(tokens[2])
            continue
        if n_vars is None:
            raise ValueError(f"line {ln}: clause before problem line")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if n_vars is None:
        raise ValueError("missing problem line")
    if current:
        clauses.append(tuple(current))
    return CnfFormula(n_vars=n_vars, clauses=tuple(clauses))


def parse_ov(text: str) -> OvInstance:
    """Parse ``ov <n> <d>`` followed by 2n bit rows (first n = A, rest = B)."""
    lines = [
        l.split("#", 1)[0].strip()
        for l in text.splitlines()
    ]
    lines = [l for l in lines if l]
    if not lines:
        raise ValueError("empty ov input")
    tokens = lines[0].split()
    if len(tokens) != 3 or tokens[0] != "ov":
        raise ValueError("expected 'ov <n> <d>' header")
    n, d = int(tokens[1]), int(tokens[2])
    rows = lines[1:]
    if len(rows) != 2 * n:
        raise ValueError(f"expected {2 * n} vector rows, got {len(rows)}")
    vecs: list[tuple[int, ...]] = []
    for row in rows:
        bits = row.replace(" ", "")
        if len(bits) != d or any(ch not in "01" for ch in bits):
            raise ValueError(f"bad vector row {row!r}")
        vecs.append(tuple(int(ch) for ch in bits))
    return OvInstance(a=tuple(vecs[:n]), b=tuple(vecs[n:]))


def parse_vsc_read(text: str) -> VscReadInstance:
    """Parse ``event <id> <thread> r|w <register>`` and ``rf <write> <read>``."""
    events: list[MemEvent] = []
    rf: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "event":
            if len(tokens) != 5 or tokens[3] not in ("r", "w"):
                raise ValueError(f"line {ln}: bad event line")
            events.append(
                MemEvent(id=int(tokens[1]), thread=tokens[2], op=tokens[3], register=tokens[4])
            )
        elif tokens[0] == "rf":
            if len(tokens) != 3:
                raise ValueError(f"line {ln}: bad rf line")
            rf.append((int(tokens[1]), int(tokens[2])))
        else:
            raise ValueError(f"line {ln}: unknown directive {tokens[0]!r}")
    return VscReadInstance(events=tuple(events), rf=tuple(rf))


# ---------------------------------------------------------------------------
# Event-sequence builder
# ---------------------------------------------------------------------------


@dataclass
class _Builder:
    """Allocates event ids and accumulates per-thread sequences."""

    events: list[Event] = field(default_factory=list)
    next_id: int = 1

    def add(self, thread: str, op: str, channel: str, value: str | None = None) -> int:
        eid = self.next_id
        self.next_id += 1
        self.events.append(Event(id=eid, thread=thread, op=op, channel=channel, value=value))
        return eid


# ---------------------------------------------------------------------------
# Hamiltonian cycle → VCh (single shared value)
# ---------------------------------------------------------------------------


def from_hamiltonian(g: Graph) -> Instance:
    """Reduce Hamiltonian-cycle existence to VCh consistency.

    Threads: one per edge, one per node, plus an init and a drain thread.
    Channels: per node a main and an entry channel, plus a shared counter, a
    capacity-1 lock making edge blocks atomic, and a release channel.  Nodes
    with in- or out-degree zero (or fewer than two nodes) cannot lie on a
    cycle; those inputs short-circuit to a canonical inconsistent instance.
    """
    edges = sorted(set(g.edges))
    out_edges: dict[int, list[int]] = defaultdict(list)
    in_deg: dict[int, int] = defaultdict(int)
    for u, v in edges:
        out_edges[u].append(v)
        in_deg[v] += 1
    nodes = range(g.n_nodes)
    if g.n_nodes < 2 or any(not out_edges[v] or in_deg[v] == 0 for v in nodes):
        events = [
            Event(id=1, thread="t0", op=RCV, channel="ch", value="m"),
            Event(id=2, thread="t0", op=SND, channel="ch", value="m"),
        ]
        return make_instance("abstract", events, {"ch": INF})

    cap: dict[str, float] = {"cnt": float(len(edges)), "lock": 1.0, "alpha": float(g.n_nodes)}
    for v in nodes:
        cap[f"ch{v}"] = float(len(out_edges[v]) + in_deg[v])
        cap[f"chp{v}"] = float(in_deg[v])

    b = _Builder()
    m = "m"  # the single shared value
    for v in nodes:
        th = f"n{v}"
        b.add(th, RCV, "alpha", m)
        for w in out_edges[v]:
            b.add(th, SND, f"ch{v}", m)
            b.add(th, SND, f"chp{w}", m)
            b.add(th, SND, "cnt", m)
    for u in nodes:
        for v in out_edges[u]:
            th = f"e{u}_{v}"
            b.add(th, SND, "lock", m)
            b.add(th, RCV, f"ch{u}", m)
            b.add(th, RCV, "cnt", m)
            b.add(th, RCV, f"chp{v}", m)
            b.add(th, SND, f"ch{v}", m)
            b.add(th, RCV, "lock", m)
    b.add("init", SND, "lock", m)
    for _ in nodes:
        b.add("init", SND, "cnt", m)
    b.add("init", SND, "ch0", m)  # node 0 is the designated cycle start
    for v in nodes:
        b.add("init", SND, f"chp{v}", m)
    b.add("init", RCV, "lock", m)
    b.add("free", SND, "lock", m)
    for _ in edges:
        b.add("free", SND, "cnt", m)
    b.add("free", RCV, "ch0", m)
    for _ in edges:
        b.add("free", RCV, "cnt", m)
    b.add("free", RCV, "lock", m)
    for _ in nodes:
        b.add("free", SND, "alpha", m)
    return make_instance("abstract", b.events, cap)


# ---------------------------------------------------------------------------
# Positive 1-in-3 SAT → VCh on two threads
# ---------------------------------------------------------------------------


def from_one_in_three_two_threads(f: CnfFormula) -> Instance:
    """Reduce positive 1-in-3 satisfiability to two-thread VCh consistency.

    One thread plays the "true" side, the other the "false" side.  Per
    variable the two sides race through twin-channel atomicity gadgets so
    exactly one side deposits its clause tokens first; per clause the token
    channel must then serve exactly one true token before the false ones.
    """
    for cl in f.clauses:
        if len(cl) != 3 or any(l <= 0 for l in cl) or len(set(cl)) != 3:
            raise ValueError(f"clause {cl} is not three distinct positive literals")
    nc = len(f.clauses)
    occ: dict[int, list[int]] = defaultdict(list)
    for j, cl in enumerate(f.clauses, start=1):
        for lit in cl:
            occ[lit].append(j)

    cap: dict[str, float] = {"l1": INF, "l2": INF, "alpha": INF}
    for j in range(1, nc + 1):
        cap[f"c{j}"] = INF

    b = _Builder()
    for i in range(1, f.n_vars + 1):
        v = lambda p: f"vi_{i}_{p}"
        b.add("tT", SND, "alpha", v(3))
        b.add("tT", RCV, "alpha", v(4))
        b.add("tT", SND, "l1", v(1))
        b.add("tT", SND, "l2", v(1))
        b.add("tT", RCV, "l2", v(1))
        for j in occ[i]:
            b.add("tT", SND, f"c{j}", "T")
        b.add("tT", RCV, "l1", v(1))
    for j in range(1, nc + 1):
        w = lambda p: f"wj_{j}_{p}"
        b.add("tT", SND, "alpha", w(4))
        b.add("tT", RCV, "alpha", w(5))
        b.add("tT", SND, "l1", w(1))
        b.add("tT", SND, "l2", w(1))
        b.add("tT", RCV, "l2", w(1))
        b.add("tT", RCV, f"c{j}", "T")
        b.add("tT", RCV, f"c{j}", "F")
        b.add("tT", RCV, "l1", w(1))
    for i in range(1, f.n_vars + 1):
        v = lambda p: f"vi_{i}_{p}"
        b.add("tF", SND, "alpha", v(4))
        b.add("tF", RCV, "alpha", v(3))
        b.add("tF", SND, "l2", v(2))
        b.add("tF", SND, "l1", v(2))
        b.add("tF", RCV, "l1", v(2))
        for j in occ[i]:
            b.add("tF", SND, f"c{j}", "F")
        b.add("tF", RCV, "l2", v(2))
    for j in range(1, nc + 1):
        w = lambda p: f"wj_{j}_{p}"
        b.add("tF", SND, "alpha", w(5))
        b.add("tF", RCV, "alpha", w(4))
        b.add("tF", SND, "l2", w(2))
        b.add("tF", SND, "l1", w(2))
        b.add("tF", RCV, "l1", w(2))
        b.add("tF", RCV, f"c{j}", "F")
        b.add("tF", RCV, f"c{j}", "T")
        b.add("tF", RCV, "l2", w(2))
        b.add("tF", SND, "l2", w(3))
        b.add("tF", SND, "l1", w(3))
        b.add("tF", RCV, "l1", w(3))
        b.add("tF", RCV, f"c{j}", "F")
        b.add("tF", RCV, f"c{j}", "T")
        b.add("tF", RCV, "l2", w(3))
    return make_instance("abstract", b.events, cap)


# ---------------------------------------------------------------------------
# 3SAT → VCh-rf on three threads and five channels
# ---------------------------------------------------------------------------


def from_3sat_t3_m5(f: CnfFormula) -> Instance:
    """Reduce 3SAT to VCh-rf with three threads and exactly five channels.

    Thread 1 carries the "false" side of every variable, thread 2 the "true"
    side; two relay channels chain per-variable blocks across one phase per
    clause, and three clause channels with crossed (for negated literals)
    reads-from pairs force a satisfying choice in each phase.
    """
    for cl in f.clauses:
        if len(cl) != 3:
            raise ValueError(f"clause {cl} does not have three literals")
    nc = len(f.clauses)
    nv = f.n_vars
    cap: dict[str, float] = {"ch1": INF, "ch2": INF, "c1": INF, "c2": INF, "c3": INF}

    # Sends of relay channels, per (phase, variable): phase 0 is the prelude.
    s_ch1_f: dict[tuple[int, int], int] = {}
    s_ch2_f: dict[tuple[int, int], int] = {}
    s_ch1_t: dict[tuple[int, int], int] = {}
    s_ch2_t: dict[tuple[int, int], int] = {}
    # Clause-token sends per (phase, slot): slots 1..3 after sorting literals.
    s_cl_f: dict[tuple[int, int], int] = {}
    s_cl_t: dict[tuple[int, int], int] = {}
    # Clause receives wired after all sends exist: (phase, slot, rcv, want_true).
    clause_rcvs: list[tuple[int, int, int, bool]] = []
    rf: list[tuple[int, int]] = []

    sorted_clauses = [
        tuple(sorted(cl, key=abs)) for cl in f.clauses
    ]

    b = _Builder()
    # Thread 1: false side.
    for p in range(1, nv + 1):
        s_ch1_f[0, p] = b.add("t1", SND, "ch1")
        s_ch2_f[0, p] = b.add("t1", SND, "ch2")
    for j, cl in enumerate(sorted_clauses, start=1):
        for p in range(1, nv + 1):
            s_ch1_f[j, p] = b.add("t1", SND, "ch1")
            rf.append((s_ch2_f[j - 1, p], b.add("t1", RCV, "ch2")))
            for q, lit in enumerate(cl, start=1):
                if abs(lit) == p:
                    s_cl_f[j, q] = b.add("t1", SND, f"c{q}")
            rf.append((s_ch1_f[j - 1, p], b.add("t1", RCV, "ch1")))
            s_ch2_f[j, p] = b.add("t1", SND, "ch2")
        clause_rcvs.append((j, 1, b.add("t1", RCV, "c1"), True))
        clause_rcvs.append((j, 2, b.add("t1", RCV, "c2"), False))
    # Thread 2: true side.
    for p in range(1, nv + 1):
        s_ch2_t[0, p] = b.add("t2", SND, "ch2")
        s_ch1_t[0, p] = b.add("t2", SND, "ch1")
    for j, cl in enumerate(sorted_clauses, start=1):
        for p in range(1, nv + 1):
            s_ch2_t[j, p] = b.add("t2", SND, "ch2")
            rf.append((s_ch1_t[j - 1, p], b.add("t2", RCV, "ch1")))
            for q, lit in enumerate(cl, start=1):
                if abs(lit) == p:
                    s_cl_t[j, q] = b.add("t2", SND, f"c{q}")
            rf.append((s_ch2_t[j - 1, p], b.add("t2", RCV, "ch2")))
            s_ch1_t[j, p] = b.add("t2", SND, "ch1")
        clause_rcvs.append((j, 2, b.add("t2", RCV, "c2"), True))
        clause_rcvs.append((j, 3, b.add("t2", RCV, "c3"), False))
    # Thread 3: clause receives only.
    for j in range(1, nc + 1):
        clause_rcvs.append((j, 3, b.add("t3", RCV, "c3"), True))
        clause_rcvs.append((j, 1, b.add("t3", RCV, "c1"), False))
    # Straight wiring for a positive literal, crossed for a negated one.
    for j, slot, rcv_id, want_true in clause_rcvs:
        positive = sorted_clauses[j - 1][slot - 1] > 0
        table = s_cl_t if (want_true == positive) else s_cl_f
        rf.append((table[j, slot], rcv_id))
    return make_instance("abstract", b.events, cap, rf)


# ---------------------------------------------------------------------------
# Orthogonal vectors → VCh-rf on two threads
# ---------------------------------------------------------------------------


def from_orthogonal_vectors(ov: OvInstance) -> Instance:
    """Reduce orthogonal-vectors to VCh-rf on two threads.

    Each vector's nonzero coordinates expand into sends/receives on the
    coordinate channels; thread A streams its vectors forward and thread B
    backward, and the relay channels can only line up when the chosen A/B
    pair shares no coordinate channel — i.e. when the vectors are orthogonal.
    All-zero vectors expand to empty coordinate blocks and are rejected.
    """
    if any(not any(vec) for vec in ov.a + ov.b):
        raise ValueError("all-zero vectors are not supported")
    n = len(ov.a)
    d = len(ov.a[0])
    cap: dict[str, float] = {"alpha": INF, "beta": INF, "gamma": INF, "delta": INF}
    for j in range(1, d + 1):
        cap[f"ch{j}"] = INF

    def nz(vec: tuple[int, ...]) -> list[int]:
        return [j + 1 for j, x in enumerate(vec) if x]

    b = _Builder()
    sends: dict[tuple[str, tuple], int] = {}
    rf: list[tuple[int, int]] = []

    def snd(th: str, ch: str, tag: tuple) -> None:
        sends[ch, tag] = b.add(th, SND, ch)

    def rcv(th: str, ch: str, tag: tuple) -> None:
        rf.append((sends[ch, tag], b.add(th, RCV, ch)))

    for i in range(1, n + 1):
        for j in nz(ov.a[i - 1]):
            snd("tA", f"ch{j}", ("a", i, j))
        snd("tA", "alpha", ("a", i))
    if n == 1:
        rcv("tA", "alpha", ("a", 1))
        snd("tA", "gamma", ("g",))
    else:
        rcv("tA", "alpha", ("a", 1))
        snd("tA", "gamma", ("g",))
        snd("tA", "beta", ("a", 1))
        for j in nz(ov.a[0]):
            rcv("tA", f"ch{j}", ("a", 1, j))
        for i in range(2, n):
            rcv("tA", "alpha", ("a", i))
            rcv("tA", "beta", ("a", i - 1))
            snd("tA", "beta", ("a", i))
            for j in nz(ov.a[i - 1]):
                rcv("tA", f"ch{j}", ("a", i, j))
        rcv("tA", "alpha", ("a", n))
        rcv("tA", "beta", ("a", n - 1))

    for i in range(n, 0, -1):
        snd("tB", "alpha", ("b", i))
        for j in nz(ov.b[i - 1]):
            snd("tB", f"ch{j}", ("b", i, j))

    if n == 1:
        # Degenerate single-vector form: the end blocks merge.
        for j in nz(ov.b[0]):
            rcv("tB", f"ch{j}", ("b", 1, j))
        snd("tB", "delta", ("d",))
        rcv("tA", "delta", ("d",))
        for j in nz(ov.a[0]):
            rcv("tA", f"ch{j}", ("a", 1, j))
        rcv("tB", "gamma", ("g",))
        rcv("tB", "alpha", ("b", 1))
        return make_instance("abstract", b.events, cap, rf)

    for j in nz(ov.b[n - 1]):
        rcv("tB", f"ch{j}", ("b", n, j))
    snd("tB", "delta", ("d",))
    snd("tB", "beta", ("B",))
    # The delta receive closes thread A's last block, built above lazily.
    rcv("tA", "delta", ("d",))
    for j in nz(ov.a[n - 1]):
        rcv("tA", f"ch{j}", ("a", n, j))
    for i in range(n - 1, 1, -1):
        for j in nz(ov.b[i - 1]):
            rcv("tB", f"ch{j}", ("b", i, j))
        rcv("tB", "alpha", ("b", i + 1))
    for j in nz(ov.b[0]):
        rcv("tB", f"ch{j}", ("b", 1, j))
    rcv("tB", "alpha", ("b", 2))
    rcv("tB", "beta", ("B",))
    rcv("tB", "gamma", ("g",))
    rcv("tB", "alpha", ("b", 1))
    return make_instance("abstract", b.events, cap, rf)


# ---------------------------------------------------------------------------
# Sequential consistency with fixed reads → VCh-rf on capacity-1 channels
# ---------------------------------------------------------------------------


def from_vsc_read(v: VscReadInstance) -> Instance:
    """Reduce SC consistency of a read-mapped memory history to VCh-rf.

    Every memory event becomes an atomic block guarded by a capacity-1 lock
    channel.  A write on register x broadcasts on x's slot channels and takes
    back the slots beyond its own reader count; each of its readers drains
    one distinct slot, which forces reader blocks after their write and
    before the next write on x can refill the slots.
    """
    by_id = {e.id: e for e in v.events}
    if len(by_id) != len(v.events):
        raise ValueError("duplicate memory event ids")
    rf_of: dict[int, int] = {}
    for w, r in v.rf:
        if w not in by_id or r not in by_id:
            raise ValueError(f"rf ({w},{r}) references a missing event")
        ew, er = by_id[w], by_id[r]
        if ew.op != "w" or er.op != "r" or ew.register != er.register:
            raise ValueError(f"rf ({w},{r}) must map a read to a same-register write")
        if r in rf_of:
            raise ValueError(f"read {r} has two rf sources")
        rf_of[r] = w
    for e in v.events:
        if e.op == "r" and e.id not in rf_of:
            raise ValueError(f"read {e.id} has no rf source")

    # Reader lists per write, ordered by (thread token, listing order).
    order = {e.id: i for i, e in enumerate(v.events)}
    readers: dict[int, list[int]] = defaultdict(list)
    for r, w in rf_of.items():
        readers[w].append(r)
    for w in readers:
        readers[w].sort(key=lambda r: (by_id[r].thread, order[r]))

    slots: dict[str, int] = defaultdict(int)  # register -> m_x
    for e in v.events:
        if e.op == "w":
            slots[e.register] = max(slots[e.register], len(readers[e.id]))

    cap: dict[str, float] = {"lock": 1.0}
    for x, m in sorted(slots.items()):
        for i in range(1, m + 1):
            cap[f"ch_{x}_{i}"] = 1.0

    b = _Builder()
    rf: list[tuple[int, int]] = []
    slot_snd: dict[tuple[int, int], int] = {}  # (write id, slot) -> send id
    reader_rcv: dict[int, tuple[int, int]] = {}  # read id -> (rcv id, slot)
    threads = sorted({e.thread for e in v.events})
    for th in threads:
        for e in v.events:
            if e.thread != th:
                continue
            lock_s = b.add(th, SND, "lock")
            if e.op == "w":
                m = slots[e.register]
                p = len(readers[e.id])
                for i in range(1, m + 1):
                    slot_snd[e.id, i] = b.add(th, SND, f"ch_{e.register}_{i}")
                for i in range(p + 1, m + 1):
                    rf.append((slot_snd[e.id, i], b.add(th, RCV, f"ch_{e.register}_{i}")))
            else:
                w = rf_of[e.id]
                i = readers[w].index(e.id) + 1
                reader_rcv[e.id] = (b.add(th, RCV, f"ch_{e.register}_{i}"), i)
            rf.append((lock_s, b.add(th, RCV, "lock")))
    for r, (rcv_id, i) in reader_rcv.items():
        rf.append((slot_snd[rf_of[r], i], rcv_id))
    return make_instance("abstract", b.events, cap, rf)


# ---------------------------------------------------------------------------
# Random positive instances and rf mutation
# ---------------------------------------------------------------------------


def random_positive(
    n: int,
    threads: int,
    channels: int,
    cap_menu: Sequence[float],
    seed: int,
) -> tuple[Instance, tuple[Event, ...]]:
    """Generate a consistent instance by simulating a random well-formed trace.

    Capacities are drawn from ``cap_menu`` per channel; the trace is built one
    enabled event at a time (synchronous handshakes count as two events), then
    abstracted with its index-matched reads-from.  Deterministic per seed.
    Raises ValueError when every drawn channel is synchronous and ``threads``
    is 1 or ``n`` is odd, since each handshake takes two threads and two events.
    """
    if threads < 1 or channels < 1 or not cap_menu:
        raise ValueError("need at least one thread, channel, and capacity")
    rng = random.Random(seed)
    thread_names = [f"t{i}" for i in range(1, threads + 1)]
    chan_names = [f"ch{i}" for i in range(1, channels + 1)]
    cap = {ch: float(rng.choice(list(cap_menu))) for ch in chan_names}

    trace: list[Event] = []
    queues: dict[str, list[str]] = {ch: [] for ch in chan_names}
    next_val = 1

    def fresh() -> str:
        nonlocal next_val
        val = f"v{next_val}"
        next_val += 1
        return val

    while len(trace) < n:
        remaining = n - len(trace)
        moves: list[tuple[str, str]] = []
        for ch in chan_names:
            c = cap[ch]
            if c == 0:
                if threads >= 2 and remaining >= 2:
                    moves.append(("sync", ch))
            else:
                if c == INF or len(queues[ch]) < c:
                    moves.append(("snd", ch))
                if queues[ch]:
                    moves.append(("rcv", ch))
        if not moves:
            raise ValueError(
                "infeasible parameters: no enabled event; every channel is synchronous and a"
                f" handshake needs 2 threads (have {threads}) and 2 events ({remaining} left)"
            )
        kind, ch = rng.choice(moves)
        if kind == "sync":
            t1, t2 = rng.sample(thread_names, 2)
            val = fresh()
            trace.append(Event(id=len(trace) + 1, thread=t1, op=SND, channel=ch, value=val))
            trace.append(Event(id=len(trace) + 1, thread=t2, op=RCV, channel=ch, value=val))
        elif kind == "snd":
            val = fresh()
            queues[ch].append(val)
            th = rng.choice(thread_names)
            trace.append(Event(id=len(trace) + 1, thread=th, op=SND, channel=ch, value=val))
        else:
            val = queues[ch].pop(0)
            th = rng.choice(thread_names)
            trace.append(Event(id=len(trace) + 1, thread=th, op=RCV, channel=ch, value=val))

    return derive_abstract(trace, cap), tuple(trace)


def mutate_rf(
    instance: Instance,
    seed: int,
    rounds: int | None = None,
) -> tuple[Instance, int, int]:
    """Perturb the reads-from relation; returns (instance, applied, skipped).

    Each round picks an rf pair and another send on its channel: if that send
    is matched, the two mappings swap; otherwise the receive is redirected to
    it.  Rounds without an alternate send are skipped.  Values are dropped
    from the output so only the mutated rf constrains consistency.
    """
    if not instance.rf:
        raise ValueError("instance has no rf pairs to mutate")
    rng = random.Random(seed)
    if rounds is None:
        rounds = max(5, math.ceil(0.05 * instance.n))
    events, index = instance.events, instance.index
    mate = list(instance.mate)  # receives' entries go stale; only sends' are read
    matched = [s for s, _ in instance.rf]  # kept sorted across rounds
    sends_by_ch: dict[str, list[int]] = defaultdict(list)
    slot: dict[int, tuple[list[int], int]] = {}  # send -> its channel's sends, its place
    for e in instance.events:
        if e.op == SND:
            sends = sends_by_ch[e.channel]
            slot[e.id] = sends, len(sends)
            sends.append(e.id)

    applied = 0
    skipped = 0
    for _ in range(rounds):
        s1 = matched[rng.randrange(len(matched))]
        sends, k1 = slot[s1]
        if len(sends) == 1:
            skipped += 1
            continue
        k = rng.randrange(len(sends) - 1)  # a send of the channel other than s1
        s2 = sends[k + (k >= k1)]
        i1, i2 = index[s1], index[s2]
        if mate[i2] < 0:  # s1 leaves the matched sends and s2 joins them
            del matched[bisect_left(matched, s1)]
            insort(matched, s2)
        mate[i1], mate[i2] = mate[i2], mate[i1]
        applied += 1

    stripped = [
        Event(id=e.id, thread=e.thread, op=e.op, channel=e.channel)
        for e in instance.events
    ]
    rf = [(s, events[mate[index[s]]].id) for s in matched]
    mutated = make_instance("abstract", stripped, instance.cap_map, rf)
    return mutated, applied, skipped
