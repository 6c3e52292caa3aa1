"""Saturated-order construction for instances with a reads-from relation.

The saturated order is the least transitive relation containing program order
and reads-from that is closed under four channel rules:

1. matched sends on a channel are ordered iff their receives are;
2. matched sends precede unmatched sends on the same channel;
3. on a synchronous channel a matched pair behaves as one event: anything
   ordered against the receive is equally ordered against the send and vice
   versa;
4. on a capacity-1 channel, a matched send preceding another send forces its
   receive to precede that send too.

A cycle in the saturated order certifies inconsistency; otherwise every
concretization must respect the order, which licenses aggressive pruning of
the frontier search.

Representation: for every event ``e`` and thread ``τ`` we keep the minimal
program-order position in ``τ`` of any known successor of ``e``.  Because the
order is transitive and contains po, successor sets are upward closed along
each thread, so the minimum is exact and ordering queries are O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .core import (
    RCV,
    SND,
    AbstractExecution,
    ChannelClass,
    classify_channels,
)


@dataclass
class SaturatedOrder:
    """Queryable result of :func:`saturate`.

    ``threads`` fixes the thread indexing used by ``counts`` arguments;
    ``cyclic`` signals that some event is ordered before itself.  When
    acyclic, ``query(e, f)`` answers whether ``e`` precedes ``f`` and
    ``pred_counts[i]`` gives, for the event with dense index ``i``, the
    per-thread number of events that must precede it.
    """

    threads: tuple[str, ...]
    cyclic: bool
    index: dict[int, int] = field(repr=False, default_factory=dict)
    thr_of: list[int] = field(repr=False, default_factory=list)
    pos_of: list[int] = field(repr=False, default_factory=list)
    succ: list[list[int]] = field(repr=False, default_factory=list)
    pred_counts: list[tuple[int, ...]] = field(repr=False, default_factory=list)

    def query(self, e: int, f: int) -> bool:
        """True iff event ``e`` is ordered before event ``f``."""
        ei, fi = self.index[e], self.index[f]
        return self.succ[ei][self.thr_of[fi]] <= self.pos_of[fi]


def saturate(
    x: AbstractExecution,
    cap: Mapping[str, float],
    rf: Sequence[tuple[int, int]],
) -> SaturatedOrder:
    """Compute the least fixpoint of the four saturation rules.

    Worklist algorithm over direct-edge adjacency: popping an event flows its
    ordering knowledge backward into its direct predecessors; rule triggers
    add derived direct edges, and the synchronous-pair rule glues each pair's
    knowledge together.  Worst-case cubic; aborts as soon as a self-ordering
    (cycle) appears.
    """
    threads = x.threads
    t = len(threads)
    tidx = {th: i for i, th in enumerate(threads)}
    n = x.n

    index: dict[int, int] = {}
    ids: list[int] = []
    thr_of: list[int] = []
    pos_of: list[int] = []
    for th in threads:
        for p, eid in enumerate(x.po[th]):
            index[eid] = len(ids)
            ids.append(eid)
            thr_of.append(tidx[th])
            pos_of.append(p)

    big = n + 1  # sentinel: larger than any po position
    succ: list[list[int]] = [[big] * t for _ in range(n)]
    preds: list[list[int]] = [[] for _ in range(n)]

    # Program order: immediate successor edges seed both succ and preds.
    for th in threads:
        seq = x.po[th]
        ti = tidx[th]
        for p in range(len(seq) - 1):
            a, b = index[seq[p]], index[seq[p + 1]]
            succ[a][ti] = p + 1
            preds[b].append(a)

    # Reads-from edges, channel pair tables, and rule bookkeeping.
    classes = classify_channels(x, cap)
    by_id = x.by_id
    pairs_by_ch: dict[str, list[tuple[int, int]]] = {}
    sends_by_ch: dict[str, list[int]] = {}
    matched: set[int] = set()
    send_pair: dict[int, int] = {}  # matched send idx -> (own pair position in table)
    rcv_pair: dict[int, int] = {}
    glue_of: dict[int, int] = {}  # sync rcv idx -> its send idx
    sync_send: dict[int, int] = {}  # sync send idx -> its rcv idx

    for e in x.events:
        if e.op == SND:
            sends_by_ch.setdefault(e.channel, []).append(index[e.id])

    for s, r in sorted(rf):
        si, ri = index[s], index[r]
        preds[ri].append(si)
        ch = by_id[s].channel
        table = pairs_by_ch.setdefault(ch, [])
        send_pair[si] = len(table)
        rcv_pair[ri] = len(table)
        table.append((si, ri))
        matched.add(si)
        if classes[ch].kind == ChannelClass.SYNC:
            glue_of[ri] = si
            sync_send[si] = ri

    # Rule 2: matched sends precede unmatched sends, statically.
    for ch, sends in sends_by_ch.items():
        unmatched = [s for s in sends if s not in matched]
        if not unmatched:
            continue
        for m in sends:
            if m in matched:
                for u in unmatched:
                    preds[u].append(m)

    cap1_chs = {ch for ch, cl in classes.items() if cl.kind == ChannelClass.BOUNDED and cl.bound == 1}
    ch_of = [by_id[eid].channel for eid in ids]

    cyclic = False
    added: set[tuple[int, int]] = set()
    in_list = [True] * n
    work = list(range(n))  # LIFO; processed in reverse dense order first

    def flow(p: int, a: int) -> bool:
        """Record p ≺ a and pull a's successor knowledge into p."""
        changed = False
        sp = succ[p]
        sa = succ[a]
        for ti in range(t):
            v = sa[ti]
            if v < sp[ti]:
                sp[ti] = v
                changed = True
        ta, pa = thr_of[a], pos_of[a]
        if pa < sp[ta]:
            sp[ta] = pa
            changed = True
        g = glue_of.get(a)
        if g is not None and g != p:
            # Rule 3 backward: p ≺ rcv implies p ≺ snd (and snd's successors).
            sg = succ[g]
            for ti in range(t):
                v = sg[ti]
                if v < sp[ti]:
                    sp[ti] = v
                    changed = True
            tg, pg = thr_of[g], pos_of[g]
            if pg < sp[tg]:
                sp[tg] = pg
                changed = True
        return changed

    def push(a: int) -> None:
        if not in_list[a]:
            in_list[a] = True
            work.append(a)

    def add_edge(u: int, v: int) -> None:
        """Materialize a derived ordering u ≺ v as a direct edge."""
        nonlocal cyclic
        added.add((u, v))
        preds[v].append(u)
        if flow(u, v):
            if succ[u][thr_of[u]] <= pos_of[u]:
                cyclic = True
            push(u)

    def q(a: int, b: int) -> bool:
        return succ[a][thr_of[b]] <= pos_of[b]

    while work and not cyclic:
        a = work.pop()
        in_list[a] = False
        # Rule 1 / rule 4 triggers: orderings out of a matched endpoint.
        pi = send_pair.get(a)
        if pi is not None:
            ch = ch_of[a]
            table = pairs_by_ch[ch]
            s1, r1 = table[pi]
            for s2, r2 in table:
                if s2 != s1 and (r1, r2) not in added and q(s1, s2):
                    add_edge(r1, r2)
                    if cyclic:
                        break
            if not cyclic and ch in cap1_chs:
                for s2 in sends_by_ch[ch]:
                    if s2 != s1 and (r1, s2) not in added and q(s1, s2):
                        add_edge(r1, s2)
                        if cyclic:
                            break
        if cyclic:
            break
        pi = rcv_pair.get(a)
        if pi is not None:
            table = pairs_by_ch[ch_of[a]]
            s1, r1 = table[pi]
            for s2, r2 in table:
                if r2 != r1 and (s1, s2) not in added and q(r1, r2):
                    add_edge(s1, s2)
                    if cyclic:
                        break
        if cyclic:
            break
        # Rule 3 forward: snd ≺ e implies rcv ≺ e.
        ri = sync_send.get(a)
        if ri is not None:
            sr = succ[ri]
            sa = succ[a]
            tr, pr = thr_of[ri], pos_of[ri]
            changed = False
            for ti in range(t):
                v = sa[ti]
                if ti == tr and v == pr:
                    continue  # that successor is the receive itself
                if v < sr[ti]:
                    sr[ti] = v
                    changed = True
            if changed:
                if sr[tr] <= pr:
                    cyclic = True
                    break
                push(ri)
        # Transitive backward propagation to direct predecessors.
        for p in preds[a]:
            if flow(p, a):
                if succ[p][thr_of[p]] <= pos_of[p]:
                    cyclic = True
                    break
                push(p)

    order = SaturatedOrder(
        threads=threads,
        cyclic=cyclic,
        index=index,
        thr_of=thr_of,
        pos_of=pos_of,
        succ=succ,
    )
    if not cyclic:
        order.pred_counts = _pred_counts(x, threads, index, thr_of, pos_of, succ)
    return order


def _pred_counts(
    x: AbstractExecution,
    threads: tuple[str, ...],
    index: dict[int, int],
    thr_of: list[int],
    pos_of: list[int],
    succ: list[list[int]],
) -> list[tuple[int, ...]]:
    """For each event, the per-thread count of saturated predecessors.

    Along a thread, minimal-successor indices are monotone, so for a target
    thread the set of source-thread events preceding position ``q`` is a
    prefix; a two-pointer sweep per thread pair computes all thresholds.
    """
    t = len(threads)
    seqs = [[index[eid] for eid in x.po[th]] for th in threads]
    counts: list[list[int]] = [[0] * t for _ in range(len(thr_of))]
    for target_ti in range(t):
        tgt = seqs[target_ti]
        for src_ti in range(t):
            src = seqs[src_ti]
            j = 0
            for qpos, ei in enumerate(tgt):
                while j < len(src) and succ[src[j]][target_ti] <= qpos:
                    j += 1
                counts[ei][src_ti] = j
    return [tuple(row) for row in counts]
