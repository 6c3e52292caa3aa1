"""Special-case polynomial solvers.

* :func:`solve_sync` — all channels synchronous: each rf pair is a rendezvous,
  contracted into one block, and the instance is consistent iff program order
  is acyclic on the blocks (the block sort is the witness).
* :func:`solve_acyclic` — acyclic communication topology with channels that
  are synchronous, capacity-1, or effectively unbounded: the instance is
  projected onto every pair of communicating threads, each decided by a 2SAT
  encoding with one variable per unordered cross-thread event pair, numbered
  from the dense index, and each thread's private channels are checked by
  replaying its events in program order.  The witness is the same block sort
  as :func:`solve_sync`'s, over program order plus each two-thread model read
  as one merged order of its projection.
* :func:`solve_2sat` — implication-graph strongly-connected-components 2SAT
  (Aspvall, Plass & Tarjan 1979).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from .core import (
    CONSISTENT,
    INCONSISTENT,
    INF,
    SND,
    AlgorithmRefused,
    Instance,
    Verdict,
    Violation,
    check_well_formed,
    classify_channels,
    communication_topology,
    format_cap,
    make_instance,
    pending_edges,
    rf_defect,
)


# ---------------------------------------------------------------------------
# Rendezvous blocks: the all-synchronous solver and the witness sort
# ---------------------------------------------------------------------------


def solve_sync(inst: Instance) -> Verdict:
    """All-synchronous fast path: consistent iff program order is acyclic on
    the rendezvous blocks; the witness is their block sort."""
    cap = inst.cap_map
    if any(cap[e.channel] != 0 for e in inst.events):
        raise AlgorithmRefused("solve_sync requires all channels synchronous")
    bad = rf_defect(inst)
    if bad is not None:
        return Verdict(INCONSISTENT, reason=bad)
    witness = _block_sort(inst, ())
    if witness is None:
        return Verdict(INCONSISTENT, reason="rendezvous blocks form a program-order cycle")
    return Verdict(CONSISTENT, witness=witness)


def _block_sort(inst: Instance, orderings: Sequence[tuple[int, int]]) -> tuple[int, ...] | None:
    """Sort the events under po plus ``orderings`` (pairs of dense indices),
    or return ``None`` when they are cyclic.  Each synchronous rf pair is one
    block, named by the dense index of its send; the lowest ready block goes
    first, so ties go by the (thread token, po) of a block's first event."""
    cap, mate = inst.cap_map, inst.mate
    events, thr_of = inst.events, inst.thr_of
    n = len(events)
    head = list(range(n))  # event -> its block
    tail = [-1] * n  # synchronous send -> its receive
    for i, e in enumerate(events):
        if e.op == SND and mate[i] >= 0 and cap[e.channel] == 0:
            head[mate[i]], tail[i] = i, mate[i]
    indeg = [0] * n
    later: dict[int, list[int]] = defaultdict(list)  # block -> blocks ordered after it
    for e, f in orderings:
        u, v = head[e], head[f]
        if u != v:  # not a rendezvous's own send and receive
            later[u].append(v)
            indeg[v] += 1
    for i in range(1, n):  # po; inside a block (a one-thread rendezvous) it never clears
        if thr_of[i - 1] == thr_of[i]:
            indeg[head[i]] += 1

    ready = [b for b in range(n) if head[b] == b and not indeg[b]]  # sorted: a heap
    witness: list[int] = []
    while ready:
        b = heapq.heappop(ready)
        block = (b,) if tail[b] < 0 else (b, tail[b])
        witness += [events[i].id for i in block]
        po = [head[i + 1] for i in block if i + 1 < n and thr_of[i + 1] == thr_of[i]]
        for v in po + later.get(b, []):
            indeg[v] -= 1
            if not indeg[v]:
                heapq.heappush(ready, v)
    return tuple(witness) if len(witness) == n else None


# ---------------------------------------------------------------------------
# 2SAT engine
# ---------------------------------------------------------------------------


TRUE = ("const", True)
FALSE = ("const", False)


@dataclass
class TwoSatFormula:
    """CNF with at most two literals per clause.

    Literals are nonzero ints: ``+v``/``-v`` for variable ``v`` in
    ``1..nvars``.  ``infeasible`` records that constant folding derived an
    empty clause.
    """

    nvars: int = 0
    clauses: list[tuple[int, int]] = field(default_factory=list)
    infeasible: bool = False

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
    ``None`` when unsatisfiable.  Linear in variables + clauses.  Literal +v
    is node 2v − 2 and −v is node 2v − 1, so ``^ 1`` negates a node.
    """
    if f.infeasible:
        return None
    size = 2 * f.nvars
    adj: list[list[int]] = [[] for _ in range(size)]
    for a, b in f.clauses:
        na = 2 * a - 2 if a > 0 else -2 * a - 1
        nb = 2 * b - 2 if b > 0 else -2 * b - 1
        adj[na ^ 1].append(nb)
        adj[nb ^ 1].append(na)

    # Iterative Tarjan SCC: num is -1 until visited, comp is -1 while on the stack.
    num = [-1] * size
    low = [0] * size
    comp = [-1] * size
    scc_stack: list[int] = []
    counter = ncomp = 0
    for root in range(size):
        if num[root] >= 0:
            continue
        num[root] = low[root] = counter
        counter += 1
        scc_stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            u, edges = work[-1]
            for w in edges:
                if num[w] < 0:
                    num[w] = low[w] = counter
                    counter += 1
                    scc_stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] < 0 and num[w] < low[u]:
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
                        comp[w] = ncomp
                        if w == u:
                            break
                    ncomp += 1

    assign = [False]
    for v in range(0, size, 2):
        if comp[v] == comp[v + 1]:
            return None
        # Tarjan numbers components in reverse topological order.
        assign.append(comp[v] < comp[v + 1])
    return assign


# ---------------------------------------------------------------------------
# 2SAT encoding of a two-thread projection
# ---------------------------------------------------------------------------


def _classify(inst: Instance) -> dict[str, float]:
    """The effective capacities; refuse the first channel, in sorted order,
    whose effective capacity is neither 0, 1 nor ``INF``."""
    eff_cap = classify_channels(inst)
    for ch in inst.channels:
        c = eff_cap[ch]
        if c not in (0, 1, INF):
            raise AlgorithmRefused(f"channel {ch!r} has capacity {format_cap(c)} >= 2")
    return eff_cap


def encode_2sat(inst: Instance) -> TwoSatFormula:
    """Encode a two-thread instance whose channels are synchronous,
    capacity-1, or effectively unbounded.

    Same-thread orderings are program-order constants folded into clauses.
    Each unordered cross-thread pair has one variable, numbered from the dense
    index: with k = ``inst.start[1]`` and w = n − k, the variable ``i·w + (j−k) + 1``
    says that dense event i of the first thread precedes dense event j of the
    second (i < k ≤ j), and its negation says that j precedes i.  Clauses: rf,
    matched sends before unmatched ones, FIFO between pairs, transitivity along
    po, capacity-1 eviction and synchronous adjacency.

    This is the encoding with two variables per pair, ``a<b`` and ``b<a``, made
    each other's negation by a mutual-exclusion and a totality clause, with
    ``b<a := ¬(a<b)`` substituted and duplicate clauses dropped; so it has the
    same models.  Half of transitivity is such a duplicate: ``(b<a) → (pb<a)``
    is the clause ``(a<pb) → (a<b)`` of the pair (a, pb), and ``(b<a) → (b<sa)``
    is the clause ``(sa<b) → (a<b)`` of (sa, b), where p and s name the po
    predecessor and successor.  Only ``(a<b) → (pa<b)`` and ``(a<b) → (a<sb)``
    remain, which are variable v implying v − w and v + 1.

    Matched before unmatched sends is one literal per pair (m', u') of
    :func:`~chanlin.core.pending_edges`; the clause of any matched m ≤po m' and
    unmatched u ≥po u' follows.  With m' in the first thread, ``m'<u'`` gives
    ``m<u`` by v → v − w, then v → v + 1 steps; with m' in the second, the
    literal is ``¬(u'<m')`` and the same steps give ``(u<m) → (u'<m')``.  So
    the models are those of every matched × unmatched pair.

    Every pair is compared, also on a channel that one thread uses alone;
    :func:`solve_acyclic` builds no such projection.
    """
    mate = inst.mate
    if len(inst.threads) != 2:
        raise AlgorithmRefused("2SAT encoding requires exactly two threads")
    eff_cap = _classify(inst)

    events, index, thr_of, pos_of = inst.events, inst.index, inst.thr_of, inst.pos_of
    n = len(events)
    k = inst.start[1]
    w = n - k

    def lit(i: int, j: int):
        """Literal asserting that dense event i is ordered before dense event j."""
        if thr_of[i] == thr_of[j]:
            return TRUE if i < j else FALSE
        return i * w + j - k + 1 if i < j else -(j * w + i - k + 1)

    f = TwoSatFormula(nvars=k * w)
    # Transitivity along po: a<b implies pa<b (i > 0) and a<sb (j < n − 1).
    f.clauses.extend((-v, v - w) for v in range(w + 1, f.nvars + 1))
    f.clauses.extend((-v, v + 1) for v in range(1, f.nvars + 1) if v % w)

    # Reads-from orderings, in sorted rf order.
    for s, _ in inst.rf:
        i = index[s]
        f.add(lit(i, mate[i]))

    sends_by_ch: dict[str, list[int]] = defaultdict(list)
    for i, ev in enumerate(events):
        if ev.op == SND:
            sends_by_ch[ev.channel].append(i)
    for m, u in pending_edges(inst):  # matched sends before unmatched sends
        f.add(lit(m, u))
    for ch in inst.channels:
        sends = sends_by_ch[ch]  # in dense order, so po-ordered per thread
        table = [(s, mate[s]) for s in sends if mate[s] >= 0]

        # FIFO between pairs.
        for i, (e, e2) in enumerate(table):
            for g, g2 in table[i + 1 :]:
                a, b = lit(e, g), lit(e2, g2)
                f.add(_neg(a), b)
                f.add(_neg(b), a)

        if eff_cap[ch] == 1:
            # At most one send may stay unmatched (it occupies the slot
            # forever), and a later send evicts only after the receive.
            if len(sends) - len(table) > 1:
                f.add(FALSE, FALSE)
            for i, e in enumerate(sends):
                if mate[e] >= 0:
                    for e2 in sends[:i] + sends[i + 1 :]:
                        f.add(_neg(lit(e, e2)), lit(mate[e], e2))
        elif eff_cap[ch] == 0:
            # Nothing fits between a synchronous send and its receive: the
            # receive precedes the send's po successor, and the receive's po
            # predecessor precedes the send.
            for e, r in table:
                if e + 1 < n and pos_of[e + 1] > 0:
                    f.add(lit(r, e + 1))
                if pos_of[r] > 0:
                    f.add(lit(r - 1, e))
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


def _acyclic_users(inst: Instance) -> dict[str, tuple[str, ...]]:
    """Refuse an instance outside :func:`solve_acyclic`'s scope, a channel of
    effective capacity 2 or more or a cyclic communication topology; else
    return each channel's users."""
    _classify(inst)
    topo = communication_topology(inst)
    if not topo.acyclic:
        raise AlgorithmRefused("communication topology is cyclic")
    return topo.users


def solve_acyclic(inst: Instance) -> Verdict:
    """Compositional solver for acyclic communication topologies.

    Groups the channels by their users (``communication_topology(inst).users``).
    In an acyclic topology no channel has three users, so each group is either
    the channels of one topology edge or the private channels of one thread.
    A thread's private channels pass iff :func:`~chanlin.core.check_well_formed`
    accepts the thread's events on them in program order, with their rf: one
    thread has no other order, and :func:`~chanlin.core.rf_defect` has
    rejected any synchronous channel that one thread uses alone.  An edge's
    projection (its events, program order as the induced subsequence), built
    by :func:`~chanlin.core.make_instance`, is decided by one 2SAT encoding.
    Consistent iff all groups pass.  A projection's events are in the
    instance's dense order, so its dense index k is ``idx[k]`` of the
    instance.

    The transitivity clauses make the events of one thread that follow an
    event of the other a po suffix, so a two-thread model is one interleaving
    of its projection, which a merge of the two threads reads with one
    variable per step.  The witness is :func:`_block_sort` of program order
    plus the consecutive pairs of each merged order.  Those pairs have the
    transitive closure of all k·w pair orderings of the model, so the sort,
    which takes the lowest ready block, returns the same order.
    """
    cap, mate = inst.cap_map, inst.mate
    users = _acyclic_users(inst)
    bad = rf_defect(inst)
    if bad is not None:
        return Verdict(INCONSISTENT, reason=bad)

    events = inst.events
    sub_idx: dict[tuple[str, ...], list[int]] = defaultdict(list)
    sub_rf: dict[tuple[str, ...], list[tuple[int, int]]] = defaultdict(list)
    for i, e in enumerate(events):  # mate has put both ends of a pair on one channel
        sub_idx[users[e.channel]].append(i)
        if e.op == SND and mate[i] >= 0:
            sub_rf[users[e.channel]].append((e.id, events[mate[i]].id))

    # Private channels first, then the topology edges in order.
    orderings: list[tuple[int, int]] = []
    for ts in sorted(sub_idx, key=lambda ts: (len(ts), ts)):
        idx = sub_idx[ts]
        sub_events = [events[i] for i in idx]
        if len(ts) == 1:
            if isinstance(check_well_formed(sub_events, cap, sub_rf[ts]), Violation):
                private = ", ".join(sorted(ch for ch, g in users.items() if g == ts))
                reason = f"projection ({ts[0]}) unsatisfiable on private channels {private}"
                return Verdict(INCONSISTENT, reason=reason)
            continue
        sub = make_instance("abstract", sub_events, cap, sub_rf[ts])
        assign = solve_2sat(encode_2sat(sub))
        if assign is None:
            return Verdict(INCONSISTENT, reason=f"projection ({','.join(ts)}) unsatisfiable")
        # Variable i·w + (j−k) + 1 orders dense events i < k ≤ j.
        k = sub.start[1]
        n, w = len(idx), len(idx) - k
        i, j, merged = 0, k, []
        while i < k and j < n:
            if assign[i * w + j - k + 1]:
                merged.append(idx[i])
                i += 1
            else:
                merged.append(idx[j])
                j += 1
        merged += idx[i:k] + idx[j:]
        orderings.extend(zip(merged, merged[1:]))

    witness = _block_sort(inst, orderings)
    if witness is None:
        raise AlgorithmRefused("witness assembly failed to linearize")
    return Verdict(CONSISTENT, witness=witness)
