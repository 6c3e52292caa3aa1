"""Special-case polynomial solvers.

* :func:`solve_sync` — all channels synchronous: matched pairs become nodes of
  a send-receive graph whose acyclicity characterizes consistency.
* :func:`solve_acyclic` — acyclic communication topology with channels that
  are synchronous, capacity-1, or effectively unbounded: the instance is
  projected onto every pair of communicating threads and each projection is
  decided by a 2SAT encoding.
* :func:`solve_2sat` — implication-graph strongly-connected-components 2SAT.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .core import (
    CONSISTENT,
    INCONSISTENT,
    RCV,
    SND,
    AbstractExecution,
    AlgorithmRefused,
    ChannelClass,
    Verdict,
    classify_channels,
    communication_topology,
    rf_defect,
)


# ---------------------------------------------------------------------------
# Send-receive graph for all-synchronous instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SendReceiveGraph:
    """Graph over matched (send, receive) pairs; edges follow po adjacency."""

    nodes: tuple[tuple[int, int], ...]  # (send id, rcv id), sorted
    edges: tuple[tuple[int, int], ...]  # indices into nodes


def build_send_receive_graph(
    x: AbstractExecution, rf: Sequence[tuple[int, int]]
) -> SendReceiveGraph:
    """Pack rf pairs into atomic nodes; edge u→v iff an element of u is the
    immediate po predecessor of an element of v.

    Every event must lie in an rf pair, which :func:`rf_defect` guarantees for
    an all-synchronous instance it accepts.
    """
    node_of: dict[int, int] = {}
    nodes = tuple(sorted(rf))
    for i, (s, r) in enumerate(nodes):
        node_of[s] = i
        node_of[r] = i
    edges: set[tuple[int, int]] = set()
    for th in x.threads:
        seq = x.po[th]
        for p in range(len(seq) - 1):
            u, v = node_of[seq[p]], node_of[seq[p + 1]]
            if u != v:
                edges.add((u, v))
    return SendReceiveGraph(nodes=nodes, edges=tuple(sorted(edges)))


def solve_sync(
    x: AbstractExecution,
    cap: Mapping[str, float],
    rf: Sequence[tuple[int, int]],
) -> Verdict:
    """All-synchronous fast path: consistent iff the send-receive graph is
    acyclic; the witness is a topological order expanded into snd·rcv pairs."""
    if any(cap[e.channel] != 0 for e in x.events):
        raise AlgorithmRefused("solve_sync requires all channels synchronous")
    bad = rf_defect(x, cap, rf)
    if bad is not None:
        return Verdict(INCONSISTENT, reason=bad)
    g = build_send_receive_graph(x, rf)
    order = _topo_sort(len(g.nodes), g.edges)
    if order is None:
        return Verdict(INCONSISTENT, explored=len(g.nodes))
    witness: list[int] = []
    for i in order:
        s, r = g.nodes[i]
        witness.extend((s, r))
    return Verdict(CONSISTENT, witness=tuple(witness), explored=len(g.nodes))


def _topo_sort(n: int, edges: Sequence[tuple[int, int]]) -> list[int] | None:
    adj: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        adj[u].append(v)
        indeg[v] += 1
    heap = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        u = heapq.heappop(heap)
        out.append(u)
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    return out if len(out) == n else None


# ---------------------------------------------------------------------------
# 2SAT engine
# ---------------------------------------------------------------------------


TRUE = ("const", True)
FALSE = ("const", False)


@dataclass
class TwoSatFormula:
    """CNF with at most two literals per clause.

    Literals are nonzero ints: ``+v``/``-v`` for variable ``v`` in
    ``1..nvars``.  ``var_of`` maps ordered event pairs to variables (filled by
    :func:`encode_2sat`).  ``infeasible`` records that constant folding
    derived an empty clause.
    """

    nvars: int = 0
    clauses: list[tuple[int, int]] = field(default_factory=list)
    var_of: dict[tuple[int, int], int] = field(default_factory=dict)
    infeasible: bool = False

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def add(self, *lits) -> None:
        """Add a clause of literal ints and/or TRUE/FALSE constants."""
        out: list[int] = []
        for l in lits:
            if l is TRUE or l == TRUE:
                return
            if l is FALSE or l == FALSE:
                continue
            out.append(l)
        if not out:
            self.infeasible = True
        elif len(out) == 1:
            self.clauses.append((out[0], out[0]))
        else:
            self.clauses.append((out[0], out[1]))


def solve_2sat(f: TwoSatFormula) -> list[bool] | None:
    """Aspvall-style 2SAT: implication graph + strongly connected components.

    Returns a satisfying assignment indexed ``1..nvars`` (index 0 unused), or
    ``None`` when unsatisfiable.  Linear in variables + clauses.
    """
    if f.infeasible:
        return None
    nv = f.nvars
    size = 2 * nv

    def node(lit: int) -> int:
        v = abs(lit) - 1
        return 2 * v + (0 if lit > 0 else 1)

    def neg(u: int) -> int:
        return u ^ 1

    adj: list[list[int]] = [[] for _ in range(size)]
    for a, b in f.clauses:
        adj[node(-a)].append(node(b))
        adj[node(-b)].append(node(a))

    # Iterative Tarjan SCC.
    comp = [-1] * size
    low = [0] * size
    num = [0] * size
    on_stack = [False] * size
    visited = [False] * size
    scc_stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(size):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            u, pi = work[-1]
            if pi == 0:
                visited[u] = True
                num[u] = low[u] = counter
                counter += 1
                scc_stack.append(u)
                on_stack[u] = True
            if pi < len(adj[u]):
                work[-1] = (u, pi + 1)
                w = adj[u][pi]
                if not visited[w]:
                    work.append((w, 0))
                elif on_stack[w]:
                    if num[w] < low[u]:
                        low[u] = num[w]
            else:
                work.pop()
                if work:
                    pu = work[-1][0]
                    if low[u] < low[pu]:
                        low[pu] = low[u]
                if low[u] == num[u]:
                    while True:
                        w = scc_stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomp
                        if w == u:
                            break
                    ncomp += 1

    assign = [False] * (nv + 1)
    for v in range(nv):
        cp, cn = comp[2 * v], comp[2 * v + 1]
        if cp == cn:
            return None
        # Tarjan numbers components in reverse topological order.
        assign[v + 1] = cp < cn
    return assign


# ---------------------------------------------------------------------------
# 2SAT encoding of a two-thread projection
# ---------------------------------------------------------------------------


def encode_2sat(
    x: AbstractExecution,
    cap: Mapping[str, float],
    rf: Sequence[tuple[int, int]],
) -> TwoSatFormula:
    """Encode a ≤2-thread instance whose channels are synchronous, capacity-1,
    or effectively unbounded.

    Variables exist only for ordered cross-thread event pairs; same-thread
    orderings are program-order constants folded into clauses.  Emits the
    mutual-exclusion + totality clauses, the rf / matched-before-unmatched /
    FIFO / transitivity / capacity-1 / synchronous-adjacency subformulae.
    """
    if len(x.threads) > 2:
        raise AlgorithmRefused("2SAT encoding requires at most two threads")
    classes = classify_channels(x, cap)
    for ch in {e.channel for e in x.events}:
        cl = classes[ch]
        if cl.kind == ChannelClass.BOUNDED and cl.bound != 1:
            raise AlgorithmRefused(f"channel {ch!r} has capacity {cl.bound} >= 2")

    by_id = x.by_id
    pos: dict[int, int] = {}
    thr: dict[int, str] = {}
    pred: dict[int, int | None] = {}
    succ: dict[int, int | None] = {}
    for th in x.threads:
        seq = x.po[th]
        for p, eid in enumerate(seq):
            pos[eid] = p
            thr[eid] = th
            pred[eid] = seq[p - 1] if p > 0 else None
            succ[eid] = seq[p + 1] if p + 1 < len(seq) else None

    f = TwoSatFormula()

    def lit(e: int, g: int):
        """Literal asserting event e is ordered before event g."""
        if thr[e] == thr[g]:
            return TRUE if pos[e] < pos[g] else FALSE
        v = f.var_of.get((e, g))
        if v is None:
            v = f.new_var()
            f.var_of[(e, g)] = v
        return v

    ids = [e.id for e in x.events]
    cross = [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if thr[a] != thr[b]
    ]
    # Mutual exclusion and totality over each unordered cross pair.
    for a, b in cross:
        f.add(-lit(a, b), -lit(b, a))
        f.add(lit(a, b), lit(b, a))

    # Reads-from orderings.
    for s, r in rf:
        f.add(lit(s, r))

    # Matched sends before unmatched sends, per channel; FIFO between pairs.
    matched_snd = {s for s, _ in rf}
    pairs_by_ch: dict[str, list[tuple[int, int]]] = {}
    sends_by_ch: dict[str, list[int]] = {}
    for e in x.events:
        if e.op == SND:
            sends_by_ch.setdefault(e.channel, []).append(e.id)
    for s, r in sorted(rf):
        pairs_by_ch.setdefault(by_id[s].channel, []).append((s, r))
    for ch, sends in sends_by_ch.items():
        unmatched = [s for s in sends if s not in matched_snd]
        for m in sends:
            if m in matched_snd:
                for u in unmatched:
                    f.add(lit(m, u))
    for ch, table in pairs_by_ch.items():
        for i, (e, e2) in enumerate(table):
            for g, g2 in table[i + 1 :]:
                a, b = lit(e, g), lit(e2, g2)
                f.add(_neg(a), b)
                f.add(_neg(b), a)

    # Transitivity via immediate po neighbours.
    for a, b in cross:
        for e, g in ((a, b), (b, a)):
            l = lit(e, g)
            p = pred[e]
            if p is not None:
                f.add(_neg(l), lit(p, g))
            s2 = succ[g]
            if s2 is not None:
                f.add(_neg(l), lit(e, s2))

    # Capacity-1 channels: a later send evicts only after the receive, and at
    # most one send may stay unmatched (it occupies the slot forever).
    for ch, sends in sends_by_ch.items():
        cl = classes[ch]
        if cl.kind == ChannelClass.BOUNDED and cl.bound == 1:
            if sum(1 for s in sends if s not in matched_snd) > 1:
                f.add(FALSE, FALSE)
    for ch, table in pairs_by_ch.items():
        cl = classes[ch]
        if cl.kind == ChannelClass.BOUNDED and cl.bound == 1:
            for e, r in table:
                for e2 in sends_by_ch.get(ch, []):
                    if e2 != e:
                        f.add(_neg(lit(e, e2)), lit(r, e2))

    # Synchronous adjacency: nothing fits between a sync send and receive.
    for ch, table in pairs_by_ch.items():
        if classes[ch].kind == ChannelClass.SYNC:
            for e, r in table:
                e2 = succ[e]
                if e2 is not None:
                    f.add(lit(r, e2))
                f2 = pred[r]
                if f2 is not None:
                    f.add(lit(f2, e))
    return f


def _neg(l):
    if l is TRUE or l == TRUE:
        return FALSE
    if l is FALSE or l == FALSE:
        return TRUE
    return -l


# ---------------------------------------------------------------------------
# Acyclic-topology compositional solver
# ---------------------------------------------------------------------------


def solve_acyclic(
    x: AbstractExecution,
    cap: Mapping[str, float],
    rf: tuple[tuple[int, int], ...],
) -> Verdict:
    """Compositional solver for acyclic communication topologies.

    Projects the instance onto every pair of communicating threads (events of
    the two threads on channels they share, program order as the induced
    subsequence) and decides each projection by 2SAT; channels accessed by a
    single thread are validated by a direct replay of that thread's program
    order.  Consistent iff all subproblems pass; the witness is a global
    topological sort of program order plus all true pair orderings, with
    synchronous rf pairs contracted into atomic blocks.
    """
    classes = classify_channels(x, cap)
    for ch in {e.channel for e in x.events}:
        cl = classes[ch]
        if cl.kind == ChannelClass.BOUNDED and cl.bound != 1:
            raise AlgorithmRefused(f"channel {ch!r} has capacity {cl.bound} >= 2")
    topo = communication_topology(x)
    if not topo.acyclic:
        raise AlgorithmRefused("communication topology is cyclic")

    bad = rf_defect(x, cap, rf)
    if bad is not None:
        return Verdict(INCONSISTENT, reason=bad)
    by_rcv = {r: s for s, r in rf}

    # Channels accessed by a single thread (never synchronous once rf_defect
    # has passed): replay po directly.
    for ch, th in topo.private_channels:
        verdict = _replay_private(x, cap, classes, by_rcv, ch, th)
        if verdict is not None:
            return verdict

    # One 2SAT subproblem per topology edge.
    orderings: list[tuple[int, int]] = []
    accessors = _shared_channels(x)
    for t1, t2 in topo.edges:
        shared = [ch for ch, ts in accessors.items() if ts == {t1, t2}]
        keep = {
            e.id
            for e in x.events
            if e.thread in (t1, t2) and e.channel in shared
        }
        sub_events = [e for e in x.events if e.id in keep]
        sub = AbstractExecution(events=tuple(sub_events))
        sub_rf = tuple((s, r) for s, r in rf if s in keep and r in keep)
        formula = encode_2sat(sub, cap, sub_rf)
        assign = solve_2sat(formula)
        if assign is None:
            return Verdict(INCONSISTENT, reason=f"projection ({t1},{t2}) unsatisfiable")
        for (e, g), v in formula.var_of.items():
            if assign[v]:
                orderings.append((e, g))

    witness = _assemble_witness(x, by_rcv, classes, orderings)
    return Verdict(CONSISTENT, witness=witness)


def _shared_channels(x: AbstractExecution) -> dict[str, set[str]]:
    accessors: dict[str, set[str]] = {}
    for e in x.events:
        accessors.setdefault(e.channel, set()).add(e.thread)
    return {ch: ts for ch, ts in accessors.items() if len(ts) >= 2}


def _replay_private(
    x: AbstractExecution,
    cap: Mapping[str, float],
    classes: Mapping[str, ChannelClass],
    by_rcv: Mapping[int, int],
    ch: str,
    th: str,
) -> Verdict | None:
    """Validate a single-thread asynchronous channel; po totally orders its events."""
    queue: list[int] = []
    bounded = classes[ch].kind == ChannelClass.BOUNDED
    for eid in x.po[th]:
        e = x.by_id[eid]
        if e.channel != ch:
            continue
        if e.op == SND:
            if bounded and len(queue) >= (classes[ch].bound or 0):
                return Verdict(INCONSISTENT, reason=f"capacity exceeded on {ch!r}")
            queue.append(eid)
        else:
            if not queue or queue[0] != by_rcv.get(eid):
                return Verdict(INCONSISTENT, reason=f"FIFO order violated on {ch!r}")
            queue.pop(0)
    return None


def _assemble_witness(
    x: AbstractExecution,
    by_rcv: Mapping[int, int],
    classes: Mapping[str, ChannelClass],
    orderings: Sequence[tuple[int, int]],
) -> tuple[int, ...]:
    """Topologically sort po plus pair orderings; synchronous rf pairs are
    contracted so the snd·rcv adjacency survives; ties by thread token."""
    block_of: dict[int, int] = {}
    blocks: list[tuple[int, ...]] = []
    for e in x.events:
        if e.id in block_of:
            continue
        if (
            e.op == RCV
            and e.id in by_rcv
            and classes[e.channel].kind == ChannelClass.SYNC
        ):
            s = by_rcv[e.id]
            bi = len(blocks)
            blocks.append((s, e.id))
            block_of[s] = bi
            block_of[e.id] = bi
    for e in x.events:
        if e.id not in block_of:
            bi = len(blocks)
            blocks.append((e.id,))
            block_of[e.id] = bi

    nb = len(blocks)
    adj: list[set[int]] = [set() for _ in range(nb)]
    indeg = [0] * nb

    def add_edge(a: int, b: int) -> None:
        u, v = block_of[a], block_of[b]
        if u != v and v not in adj[u]:
            adj[u].add(v)
            indeg[v] += 1

    for th in x.threads:
        seq = x.po[th]
        for p in range(len(seq) - 1):
            add_edge(seq[p], seq[p + 1])
    for a, b in orderings:
        add_edge(a, b)

    # Priority: (thread token, po position) of the block's first event.
    pos = {eid: i for th in x.threads for i, eid in enumerate(x.po[th])}

    def prio(bi: int) -> tuple[str, int]:
        first = blocks[bi][0]
        return (x.by_id[first].thread, pos[first])

    heap = [(prio(bi), bi) for bi in range(nb) if indeg[bi] == 0]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        _, bi = heapq.heappop(heap)
        out.extend(blocks[bi])
        for v in adj[bi]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, (prio(v), v))
    if len(out) != x.n:
        raise AlgorithmRefused("witness assembly failed to linearize")
    return tuple(out)
