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

Every reduction writes its threads through one private builder.  A send may
name its message with a tag; a receive names the message it takes by its
channel and tag, and the builder turns the tags into rf pairs once every
event exists, so a receive may be written before its send.  A tag names one
send on its channel.  Event ids follow the order in which events are
written.  A receive whose tag no send on its channel declared raises
:class:`ValueError`, because it is a bug in the reduction.

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


def _lines(text: str):
    """Each non-blank line's number and tokens, with ``#`` comments cut."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield ln, tokens


def _int(token: str, ln: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {ln}: expected an integer, got {token!r}") from None


def parse_digraph(text: str) -> Graph:
    """Parse ``digraph <n>`` followed by ``<u> <v>`` edge lines."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for ln, tokens in _lines(text):
        if n is None:
            if len(tokens) != 2 or tokens[0] != "digraph":
                raise ValueError(f"line {ln}: expected 'digraph <n>'")
            n = _int(tokens[1], ln)
        else:
            if len(tokens) != 2:
                raise ValueError(f"line {ln}: expected '<u> <v>'")
            edges.append((_int(tokens[0], ln), _int(tokens[1], ln)))
    if n is None:
        raise ValueError("empty digraph input")
    return Graph(n_nodes=n, edges=tuple(edges))


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF (``p cnf <vars> <clauses>``, 0-terminated clauses).

    A ``%`` line ends the input, as in the SATLIB files that close with
    ``%`` and ``0``.
    """
    n_vars: int | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for ln, tokens in _lines(text):
        if tokens[0] == "%":
            break
        if tokens[0].startswith("c"):
            continue
        if tokens[0].startswith("p"):
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ValueError(f"line {ln}: bad problem line")
            n_vars = _int(tokens[2], ln)
            continue
        if n_vars is None:
            raise ValueError(f"line {ln}: clause before problem line")
        for tok in tokens:
            lit = _int(tok, ln)
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
    lines = list(_lines(text))
    if not lines:
        raise ValueError("empty ov input")
    ln, tokens = lines[0]
    if len(tokens) != 3 or tokens[0] != "ov":
        raise ValueError(f"line {ln}: expected 'ov <n> <d>' header")
    n, d = _int(tokens[1], ln), _int(tokens[2], ln)
    if len(lines) != 2 * n + 1:
        raise ValueError(f"expected {2 * n} vector rows, got {len(lines) - 1}")
    vecs: list[tuple[int, ...]] = []
    for ln, tokens in lines[1:]:
        bits = "".join(tokens)
        if len(bits) != d or any(ch not in "01" for ch in bits):
            raise ValueError(f"line {ln}: bad vector row {bits!r}")
        vecs.append(tuple(int(ch) for ch in bits))
    return OvInstance(a=tuple(vecs[:n]), b=tuple(vecs[n:]))


def parse_vsc_read(text: str) -> VscReadInstance:
    """Parse ``event <id> <thread> r|w <register>`` and ``rf <write> <read>``."""
    events: list[MemEvent] = []
    rf: list[tuple[int, int]] = []
    for ln, tokens in _lines(text):
        if tokens[0] == "event":
            if len(tokens) != 5 or tokens[3] not in ("r", "w"):
                raise ValueError(f"line {ln}: bad event line")
            events.append(MemEvent(_int(tokens[1], ln), tokens[2], tokens[3], tokens[4]))
        elif tokens[0] == "rf":
            if len(tokens) != 3:
                raise ValueError(f"line {ln}: bad rf line")
            rf.append((_int(tokens[1], ln), _int(tokens[2], ln)))
        else:
            raise ValueError(f"line {ln}: unknown directive {tokens[0]!r}")
    return VscReadInstance(events=tuple(events), rf=tuple(rf))


# ---------------------------------------------------------------------------
# Event-sequence builder
# ---------------------------------------------------------------------------


@dataclass
class _Builder:
    """Events with ids 1, 2, ... in the order written; rf wired by tag."""

    events: list[Event] = field(default_factory=list)
    sends: dict[tuple[str, object], int] = field(default_factory=dict)
    takes: list[tuple[str, object, int]] = field(default_factory=list)

    def snd(self, thread: str, channel: str, tag: object = None, value: str | None = None) -> None:
        eid = len(self.events) + 1
        self.events.append(Event(eid, thread, SND, channel, value))
        if tag is not None:
            self.sends[channel, tag] = eid

    def rcv(self, thread: str, channel: str, tag: object = None, value: str | None = None) -> None:
        eid = len(self.events) + 1
        self.events.append(Event(eid, thread, RCV, channel, value))
        if tag is not None:
            self.takes.append((channel, tag, eid))

    def instance(self, cap: dict[str, float], rf: bool = True) -> Instance:
        """The ``kind abstract`` instance; without ``rf`` its rf is ``None``."""
        try:
            pairs = [(self.sends[channel, tag], r) for channel, tag, r in self.takes]
        except KeyError as exc:
            channel, tag = exc.args[0]
            raise ValueError(f"a receive on {channel} takes undeclared tag {tag!r}") from None
        return make_instance("abstract", self.events, cap, pairs if rf else None)


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
    b = _Builder()
    m = "m"  # the single shared value
    if g.n_nodes < 2 or any(not out_edges[v] or in_deg[v] == 0 for v in nodes):
        b.rcv("t0", "ch", value=m)
        b.snd("t0", "ch", value=m)
        return b.instance({"ch": INF}, rf=False)

    cap: dict[str, float] = {"cnt": float(len(edges)), "lock": 1.0, "alpha": float(g.n_nodes)}
    for v in nodes:
        cap[f"ch{v}"] = float(len(out_edges[v]) + in_deg[v])
        cap[f"chp{v}"] = float(in_deg[v])

    for v in nodes:
        th = f"n{v}"
        b.rcv(th, "alpha", value=m)
        for w in out_edges[v]:
            b.snd(th, f"ch{v}", value=m)
            b.snd(th, f"chp{w}", value=m)
            b.snd(th, "cnt", value=m)
    for u in nodes:
        for v in out_edges[u]:
            th = f"e{u}_{v}"
            b.snd(th, "lock", value=m)
            b.rcv(th, f"ch{u}", value=m)
            b.rcv(th, "cnt", value=m)
            b.rcv(th, f"chp{v}", value=m)
            b.snd(th, f"ch{v}", value=m)
            b.rcv(th, "lock", value=m)
    b.snd("init", "lock", value=m)
    for _ in nodes:
        b.snd("init", "cnt", value=m)
    b.snd("init", "ch0", value=m)  # node 0 is the designated cycle start
    for v in nodes:
        b.snd("init", f"chp{v}", value=m)
    b.rcv("init", "lock", value=m)
    b.snd("free", "lock", value=m)
    for _ in edges:
        b.snd("free", "cnt", value=m)
    b.rcv("free", "ch0", value=m)
    for _ in edges:
        b.rcv("free", "cnt", value=m)
    b.rcv("free", "lock", value=m)
    for _ in nodes:
        b.snd("free", "alpha", value=m)
    return b.instance(cap, rf=False)


# ---------------------------------------------------------------------------
# Positive 1-in-3 SAT → VCh on two threads
# ---------------------------------------------------------------------------


def from_one_in_three_two_threads(f: CnfFormula) -> Instance:
    """Reduce positive 1-in-3 satisfiability to two-thread VCh consistency.

    One thread plays the "true" side, the other the "false" side.  Per
    variable the two sides race through twin-channel atomicity gadgets so
    exactly one side deposits its clause tokens first; per clause the token
    channel must then serve exactly one true token before the false ones.
    The sides mirror each other: each takes the twin locks in its own order.
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
    sides = (("tT", "T", "F", "l1", "l2", (1,)), ("tF", "F", "T", "l2", "l1", (2, 3)))
    for s, (th, mine, other, la, lb, checks) in enumerate(sides):

        def locked(val: str, body: list) -> None:
            """Hold ``la``, then ``lb``, around the ``(put, channel, value)`` body."""
            b.snd(th, la, value=val)
            b.snd(th, lb, value=val)
            b.rcv(th, lb, value=val)
            for put, ch, x in body:
                put(th, ch, value=x)
            b.rcv(th, la, value=val)

        for i in range(1, f.n_vars + 1):
            b.snd(th, "alpha", value=f"vi_{i}_{3 + s}")
            b.rcv(th, "alpha", value=f"vi_{i}_{4 - s}")
            locked(f"vi_{i}_{1 + s}", [(b.snd, f"c{j}", mine) for j in occ[i]])
        for j in range(1, nc + 1):
            b.snd(th, "alpha", value=f"wj_{j}_{4 + s}")
            b.rcv(th, "alpha", value=f"wj_{j}_{5 - s}")
            for k in checks:
                locked(f"wj_{j}_{k}", [(b.rcv, f"c{j}", mine), (b.rcv, f"c{j}", other)])
    return b.instance(cap, rf=False)


# ---------------------------------------------------------------------------
# 3SAT → VCh-rf on three threads and five channels
# ---------------------------------------------------------------------------


def from_3sat_t3_m5(f: CnfFormula) -> Instance:
    """Reduce 3SAT to VCh-rf with three threads and exactly five channels.

    Thread 1 carries the "false" side of every variable, thread 2 the "true"
    side; two relay channels chain per-variable blocks across one phase per
    clause, and three clause channels with crossed (for negated literals)
    reads-from pairs force a satisfying choice in each phase.  The two sides
    mirror each other with the relay channels swapped.
    """
    for cl in f.clauses:
        if len(cl) != 3:
            raise ValueError(f"clause {cl} does not have three literals")
    cap: dict[str, float] = {"ch1": INF, "ch2": INF, "c1": INF, "c2": INF, "c3": INF}
    sorted_clauses = [tuple(sorted(cl, key=abs)) for cl in f.clauses]
    b = _Builder()

    def take(th: str, j: int, slot: int, want_true: bool) -> None:
        # Straight wiring for a positive literal, crossed for a negated one.
        side = want_true == (sorted_clauses[j - 1][slot - 1] > 0)
        b.rcv(th, f"c{slot}", (side, j))

    # Relay sends are tagged (side, phase, variable); phase 0 is the prelude.
    for side, th, ra, rb in ((False, "t1", "ch1", "ch2"), (True, "t2", "ch2", "ch1")):
        for p in range(1, f.n_vars + 1):
            b.snd(th, ra, (side, 0, p))
            b.snd(th, rb, (side, 0, p))
        for j, cl in enumerate(sorted_clauses, start=1):
            for p in range(1, f.n_vars + 1):
                b.snd(th, ra, (side, j, p))
                b.rcv(th, rb, (side, j - 1, p))
                for q, lit in enumerate(cl, start=1):
                    if abs(lit) == p:
                        b.snd(th, f"c{q}", (side, j))
                b.rcv(th, ra, (side, j - 1, p))
                b.snd(th, rb, (side, j, p))
            take(th, j, 1 + side, True)
            take(th, j, 2 + side, False)
    # Thread 3: clause receives only.
    for j in range(1, len(sorted_clauses) + 1):
        take("t3", j, 3, True)
        take("t3", j, 1, False)
    return b.instance(cap)


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
    With one vector per side the first and last blocks are one, and the
    beta relay is not used.
    """
    if any(not any(vec) for vec in ov.a + ov.b):
        raise ValueError("all-zero vectors are not supported")
    n = len(ov.a)
    cap: dict[str, float] = {"alpha": INF, "beta": INF, "gamma": INF, "delta": INF}
    for j in range(1, len(ov.a[0]) + 1):
        cap[f"ch{j}"] = INF
    b = _Builder()

    def coords(put, th: str, vec: tuple[int, ...], tag: tuple) -> None:
        for j, x in enumerate(vec, start=1):
            if x:
                put(th, f"ch{j}", tag)

    for i in range(1, n + 1):
        coords(b.snd, "tA", ov.a[i - 1], ("a", i))
        b.snd("tA", "alpha", ("a", i))
    for i in range(1, n + 1):
        b.rcv("tA", "alpha", ("a", i))
        if i == 1:
            b.snd("tA", "gamma", "g")
        else:
            b.rcv("tA", "beta", i - 1)
        if i < n:
            b.snd("tA", "beta", i)
            coords(b.rcv, "tA", ov.a[i - 1], ("a", i))
    for i in range(n, 0, -1):
        b.snd("tB", "alpha", ("b", i))
        coords(b.snd, "tB", ov.b[i - 1], ("b", i))
    coords(b.rcv, "tB", ov.b[n - 1], ("b", n))
    b.snd("tB", "delta", "d")
    if n > 1:
        b.snd("tB", "beta", "B")
    # The delta receive closes thread A's last block.
    b.rcv("tA", "delta", "d")
    coords(b.rcv, "tA", ov.a[n - 1], ("a", n))
    for i in range(n - 1, 0, -1):
        coords(b.rcv, "tB", ov.b[i - 1], ("b", i))
        b.rcv("tB", "alpha", ("b", i + 1))
    if n > 1:
        b.rcv("tB", "beta", "B")
    b.rcv("tB", "gamma", "g")
    b.rcv("tB", "alpha", ("b", 1))
    return b.instance(cap)


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

    # Threads by token, each in listing order (the sort is stable), so each
    # write's readers are listed by (thread token, listing order).
    ordered = sorted(v.events, key=lambda e: e.thread)
    readers: dict[int, list[int]] = defaultdict(list)
    for e in ordered:
        if e.op == "r":
            readers[rf_of[e.id]].append(e.id)

    slots: dict[str, int] = defaultdict(int)  # register -> m_x
    for e in v.events:
        if e.op == "w":
            slots[e.register] = max(slots[e.register], len(readers[e.id]))

    cap: dict[str, float] = {"lock": 1.0}
    for x, m in sorted(slots.items()):
        for i in range(1, m + 1):
            cap[f"ch_{x}_{i}"] = 1.0

    # Every send is tagged with its memory event's id; a read takes its write's.
    b = _Builder()
    for e in ordered:
        th, x = e.thread, e.register
        b.snd(th, "lock", e.id)
        if e.op == "w":
            for i in range(1, slots[x] + 1):
                b.snd(th, f"ch_{x}_{i}", e.id)
            for i in range(len(readers[e.id]) + 1, slots[x] + 1):
                b.rcv(th, f"ch_{x}_{i}", e.id)
        else:
            w = rf_of[e.id]
            b.rcv(th, f"ch_{x}_{readers[w].index(e.id) + 1}", w)
        b.rcv(th, "lock", e.id)
    return b.instance(cap)


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
