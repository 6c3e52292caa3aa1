"""Domain model and instance file format for FIFO-channel consistency checking.

An :class:`Instance` bundles a set of send/receive events over named channels
with a per-channel capacity map, and optionally a reads-from relation pairing
sends with the receives that observe them.  It holds its events in one dense
layout (threads by token, program order within each) and checks every
structural rule when it is built.  Instances come in two kinds:

* ``abstract`` — events carry only a per-thread order (program order); the
  solvers decide whether some interleaving (a *concretization*) exists.
* ``trace`` — the instance also keeps a global total order, ``trace``, which
  :func:`check_well_formed` checks directly (against rf too, when given) and
  :func:`derive_abstract` abstracts back into an instance.

The text format is line-oriented (see :func:`parse_instance`) and
byte-deterministic under :func:`serialize_instance`.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, pairwise
from typing import Iterable, Mapping, Sequence

#: Capacity mark for channels that never block ("inf" in the file format).
INF: float = math.inf

SND = "snd"
RCV = "rcv"
_OPS = frozenset((SND, RCV))

RfPairs = tuple[tuple[int, int], ...]


class ParseError(ValueError):
    """Raised on malformed instance text; message includes the line number."""


class ValidationError(ValueError):
    """Raised when a structurally parsed instance violates an invariant."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """One send or receive: ``⟨id, thread, op(channel, value)⟩``."""

    id: int
    thread: str
    op: str  # SND or RCV
    channel: str
    value: str | None = None


@dataclass(frozen=True)
class Topology:
    """The threads that use each channel, and whether the undirected thread
    graph (an edge joins two threads sharing a channel) is acyclic."""

    users: dict[str, tuple[str, ...]]  # channel -> its threads, sorted
    acyclic: bool


@dataclass(frozen=True)
class Ok:
    """Result of a successful well-formedness check."""


@dataclass(frozen=True)
class Violation:
    """First well-formedness failure: ``kind`` and 1-based event position."""

    kind: str  # "capacity" | "sync" | "value" | "rf"
    position: int


OK = Ok()

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a consistency check.

    ``witness`` is a tuple of event ids (a concretization) present iff
    consistent; ``explored`` counts distinct search states generated after
    the search's reductions, where a rendezvous is one move (0 for non-search
    algorithms and early rejections); when ``chanlin check``'s ``auto`` falls
    back to ``solve_acyclic`` after its budgeted search ran out, it is that
    budget plus one, the least the search generated before it gave up;
    ``reason`` documents inconsistency verdicts produced by validation
    short-circuits.
    """

    outcome: str  # CONSISTENT | INCONSISTENT
    witness: tuple[int, ...] | None = None
    explored: int = 0
    reason: str | None = None

    @property
    def consistent(self) -> bool:
        return self.outcome == CONSISTENT


class AlgorithmRefused(Exception):
    """A special-case solver refused an instance outside its preconditions."""


@dataclass(frozen=True)
class Instance:
    """A history to check, the one input of every solver: events over
    channels with capacities, and optionally a reads-from relation.

    ``events`` is held in dense order, whatever order it is given in:
    threads sorted by token, each thread's events in the given (program)
    order.  Event ``i`` has dense index ``i``; ``index`` maps an event id to
    it, thread ``threads[ti]`` is ``events[start[ti]:start[ti + 1]]``, and
    ``thr_of`` and ``pos_of`` give each event's thread and position in it.
    ``cap`` holds (channel, capacity) pairs and ``rf`` (send id, receive id)
    pairs or ``None``; the solvers read rf through :attr:`mate`.  A ``kind
    trace`` instance keeps its global order of the same events in ``trace``.

    Building one, through :func:`make_instance` or by hand, checks every
    structural rule and raises :class:`ValidationError` on the first failure:
    each event has a known op, a nonnegative id of its own and a channel with
    a capacity line, each capacity is a natural number or ``INF``, and rf
    passes :attr:`mate`.
    """

    events: tuple[Event, ...]
    cap: tuple[tuple[str, float], ...]
    rf: RfPairs | None
    trace: tuple[Event, ...] | None = None
    threads: tuple[str, ...] = field(init=False, repr=False, compare=False)
    start: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        given = self.events if self.trace is None else self.trace
        cap = self.cap_map
        per_thread: dict[str, list[Event]] = defaultdict(list)
        for e in given:
            if e.op not in _OPS:
                raise ValidationError(f"event {e.id}: bad op {e.op!r}")
            if e.id < 0:
                raise ValidationError(f"event {e.id}: negative id")
            if e.channel not in cap:
                raise ValidationError(f"event {e.id}: channel {e.channel!r} has no capacity line")
            per_thread[e.thread].append(e)
        threads = tuple(sorted(per_thread))
        events = tuple(chain.from_iterable(per_thread[th] for th in threads))
        if self.events not in (given, events):  # a trace's, in its order or dense
            raise ValidationError("events are not the trace's events")
        start = [0, *accumulate(len(per_thread[th]) for th in threads)]
        self.__dict__.update(events=events, threads=threads, start=start)  # past frozen
        if len({e.id for e in events}) < len(events):  # index keeps each id's last event
            dup = next(e.id for i, e in enumerate(events) if self.index[e.id] != i)
            raise ValidationError(f"duplicate event id {dup}")
        for ch, c in self.cap:
            if c != INF and (c != int(c) or c < 0):
                raise ValidationError(f"channel {ch!r}: bad capacity {c!r}")
        if self.rf is not None:
            self.mate  # reading it checks the structural rf rules

    @property
    def kind(self) -> str:
        return "abstract" if self.trace is None else "trace"

    @property
    def n(self) -> int:
        return len(self.events)

    @cached_property
    def cap_map(self) -> dict[str, float]:
        return dict(self.cap)

    @cached_property
    def index(self) -> dict[int, int]:
        """Dense index of every event id."""
        return {e.id: i for i, e in enumerate(self.events)}

    @cached_property
    def channels(self) -> tuple[str, ...]:
        return tuple(sorted({e.channel for e in self.events}))

    @cached_property
    def thr_of(self) -> list[int]:
        """Position in ``threads`` of the event with each dense index."""
        return [ti for ti, (a, b) in enumerate(pairwise(self.start)) for _ in range(a, b)]

    @cached_property
    def pos_of(self) -> list[int]:
        """Program-order position in its thread of the event with each dense index."""
        return [p for a, b in pairwise(self.start) for p in range(b - a)]

    @cached_property
    def mate(self) -> list[int]:
        """The rf partner of the event with each dense index, or -1.

        Built, at construction when rf is given, in one pass over ``rf`` that
        checks the structural rules: every pair joins a send and a receive of
        this instance on one channel, with equal values when both carry one,
        and no event is in two pairs.  Raises :class:`ValidationError` naming
        the first bad pair."""
        events, index = self.events, self.index
        mate = [-1] * len(events)
        for s, r in self.rf or ():
            i, j = index.get(s), index.get(r)
            if i is None or j is None:
                raise ValidationError(f"rf ({s},{r}): endpoint missing")
            es, er = events[i], events[j]
            if es.op != SND or er.op != RCV:
                raise ValidationError(f"rf ({s},{r}): rf endpoint op mismatch")
            if es.channel != er.channel:
                raise ValidationError(f"rf ({s},{r}): endpoints on different channels")
            if mate[i] >= 0 or mate[j] >= 0:
                raise ValidationError(f"rf ({s},{r}): rf is not injective")
            if es.value is not None and er.value is not None and es.value != er.value:
                raise ValidationError(f"rf ({s},{r}): matched events carry different values")
            mate[i], mate[j] = j, i
        return mate


# ---------------------------------------------------------------------------
# Instance construction and the reads-from precheck
# ---------------------------------------------------------------------------


def make_instance(
    kind: str,
    events: Sequence[Event],
    cap: Mapping[str, float],
    rf: Iterable[tuple[int, int]] | None = None,
) -> Instance:
    """The canonical :class:`Instance` of a history: ``cap`` and ``rf``
    sorted and, for ``kind trace``, the given order kept as ``trace``.
    Building it checks it (:class:`ValidationError` on failure)."""
    if kind not in ("abstract", "trace"):
        raise ValidationError(f"unknown kind {kind!r}")
    events = tuple(events)
    rf = None if rf is None else tuple(sorted(rf))
    return Instance(events, tuple(sorted(cap.items())), rf, events if kind == "trace" else None)


def rf_defect(inst: Instance) -> str | None:
    """The first reason no interleaving of the instance can realize its rf,
    or ``None``.

    Every rf solver calls this before any search, after :attr:`Instance.mate`
    has checked the structural rules.  In order, it rejects a synchronous pair
    inside one thread (first in sorted rf order), a receive with no rf source,
    and a synchronous send that rf leaves unmatched (first in dense order).

    The source rule holds because in a trace each receive takes exactly one
    send of its own channel.  The two synchronous rules hold because of the
    rendezvous: in a well-formed trace a capacity-0 send is followed at once
    by a receive on its channel from another thread, and every capacity-0
    receive comes right after such a send.  Sends and receives on the channel
    therefore alternate, and the receive right after each send is the one rf
    pairs with it.  So every synchronous send is matched, and never with a
    receive of its own thread.  Together the two rules reject every
    synchronous channel that only one thread uses, so the private channels
    that :func:`~chanlin.fastpath.solve_acyclic` replays in program order
    are asynchronous.
    """
    events, index, cap, mate = inst.events, inst.index, inst.cap_map, inst.mate
    for s, r in inst.rf or ():
        es = events[index[s]]
        if cap[es.channel] == 0 and es.thread == events[index[r]].thread:
            return f"rf ({s},{r}): synchronous pair within one thread"
    for e, m in zip(events, mate):
        if m >= 0:
            continue
        if e.op == RCV:
            return f"receive {e.id} has no rf source"
        if cap[e.channel] == 0:
            return f"send {e.id} is unmatched on a synchronous channel"
    return None


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format.

    Grammar (tokens whitespace-separated, ``#`` starts a comment)::

        vchk v1
        kind abstract|trace
        channel <name> cap <nat>|inf
        event <id> <thread> snd|rcv <channel> [<value>]
        rf <send-id> <rcv-id>

    For ``kind abstract`` the per-thread line order is program order; for
    ``kind trace`` the global line order is the trace order.
    """
    kind: str | None = None
    cap: dict[str, float] = {}
    events: list[Event] = []
    rf: list[tuple[int, int]] | None = None
    header_seen = False

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not header_seen:
            if tokens != ["vchk", "v1"]:
                raise ParseError(f"line {ln}: expected header 'vchk v1'")
            header_seen = True
            continue
        directive = tokens[0]
        if directive == "kind":
            if len(tokens) != 2 or tokens[1] not in ("abstract", "trace"):
                raise ParseError(f"line {ln}: bad kind directive")
            if kind is not None:
                raise ParseError(f"line {ln}: duplicate kind directive")
            kind = tokens[1]
        elif directive == "channel":
            if len(tokens) != 4 or tokens[2] != "cap":
                raise ParseError(f"line {ln}: bad channel directive")
            name = tokens[1]
            if name in cap:
                raise ParseError(f"line {ln}: duplicate channel {name!r}")
            cap[name] = _parse_cap(tokens[3], ln)
        elif directive == "event":
            if len(tokens) not in (5, 6):
                raise ParseError(f"line {ln}: bad event directive")
            try:
                eid = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {ln}: bad event id {tokens[1]!r}") from None
            events.append(
                Event(
                    id=eid,
                    thread=tokens[2],
                    op=tokens[3],
                    channel=tokens[4],
                    value=tokens[5] if len(tokens) == 6 else None,
                )
            )
        elif directive == "rf":
            # A bare "rf" line declares reads-from mode with no pairs, which
            # distinguishes an empty relation from an absent one.
            if len(tokens) == 1:
                if rf is None:
                    rf = []
                continue
            if len(tokens) != 3:
                raise ParseError(f"line {ln}: bad rf directive")
            try:
                pair = (int(tokens[1]), int(tokens[2]))
            except ValueError:
                raise ParseError(f"line {ln}: bad rf ids") from None
            if rf is None:
                rf = []
            rf.append(pair)
        else:
            raise ParseError(f"line {ln}: unknown directive {directive!r}")

    if not header_seen:
        raise ParseError("line 1: expected header 'vchk v1'")
    if kind is None:
        raise ParseError("missing 'kind' directive")
    try:
        return make_instance(kind, events, cap, rf)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def _parse_cap(token: str, ln: int) -> float:
    if token == "inf":
        return INF
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"line {ln}: bad capacity {token!r}") from None
    if value < 0:
        raise ParseError(f"line {ln}: negative capacity")
    return float(value)


def format_cap(c: float) -> str:
    return "inf" if c == INF else str(int(c))


def serialize_instance(inst: Instance) -> str:
    """Emit the canonical text form; byte-deterministic for equal instances."""
    lines = ["vchk v1", f"kind {inst.kind}"]
    for ch, c in inst.cap:
        lines.append(f"channel {ch} cap {format_cap(c)}")
    for e in inst.trace or inst.events:
        parts = ["event", str(e.id), e.thread, e.op, e.channel]
        if e.value is not None:
            parts.append(e.value)
        lines.append(" ".join(parts))
    if inst.rf is not None:
        if not inst.rf:
            lines.append("rf")
        for s, r in inst.rf:
            lines.append(f"rf {s} {r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Well-formedness of traces
# ---------------------------------------------------------------------------


def _values_match(a: Event, b: Event) -> bool:
    if a.value is None or b.value is None:
        return True
    return a.value == b.value


def check_well_formed(
    trace: Sequence[Event], cap: Mapping[str, float], rf: RfPairs | None = None
) -> Ok | Violation:
    """Check a trace in one left-to-right pass; first violation wins.

    Checks, per event position (1-based):

    * capacity — every prefix keeps ``#rcv <= #snd <= #rcv + cap`` per
      asynchronous channel;
    * sync — a capacity-0 send is immediately followed by a matching-value
      receive on the same channel from a different thread, and the pair is
      checked as one step (a rendezvous), so a capacity-0 receive that no
      such send consumed is flagged at its own position;
    * value — the i-th receive on a channel observes the i-th send's value;
    * rf — with ``rf`` given, every receive takes its rf source: the front it
      dequeues on an asynchronous channel, the send right before it on a
      synchronous one.
    """
    src = None if rf is None else {r: s for s, r in rf}
    queues: dict[str, deque[Event]] = defaultdict(deque)
    n = len(trace)
    pos = 0
    while pos < n:
        e = trace[pos]
        pos += 1  # 1-based position of e
        c = cap[e.channel]
        if c == 0:
            r = trace[pos] if pos < n else None
            if (
                e.op != SND
                or r is None
                or r.op != RCV
                or r.channel != e.channel
                or r.thread == e.thread
                or not _values_match(e, r)
            ):
                return Violation("sync", pos)
            pos += 1  # the receive, consumed with its send
            if src is not None and src.get(r.id) != e.id:
                return Violation("rf", pos)
        else:
            q = queues[e.channel]
            if e.op == SND:
                if len(q) >= c:
                    return Violation("capacity", pos)
                q.append(e)
            else:
                if not q:
                    return Violation("capacity", pos)
                front = q.popleft()
                if not _values_match(front, e):
                    return Violation("value", pos)
                if src is not None and src.get(e.id) != front.id:
                    return Violation("rf", pos)
    return OK


def derive_abstract(trace: Sequence[Event], cap: Mapping[str, float]) -> Instance:
    """Abstract a well-formed trace: the ``kind abstract`` instance of its
    events (per-thread po) with index-matched rf.

    The i-th send on each channel is paired with the i-th receive; excess
    sends remain unmatched.
    """
    sends: dict[str, list[int]] = defaultdict(list)
    rcvs: dict[str, list[int]] = defaultdict(list)
    for e in trace:
        (sends if e.op == SND else rcvs)[e.channel].append(e.id)
    rf: list[tuple[int, int]] = []
    for ch, ss in sends.items():
        rf.extend(zip(ss, rcvs.get(ch, [])))
    return make_instance("abstract", trace, cap, rf)


# ---------------------------------------------------------------------------
# Channel classification and communication topology
# ---------------------------------------------------------------------------


def classify_channels(inst: Instance) -> dict[str, float]:
    """Effective capacity per channel of ``inst.cap``: 0 if synchronous, ``INF``
    if its sends can never fill it, else its capacity (below its send count)."""
    sends = Counter(e.channel for e in inst.events if e.op == SND)
    return {ch: c if c == 0 or sends[ch] > c else INF for ch, c in inst.cap}


def pending_edges(inst: Instance) -> list[tuple[int, int]]:
    """Dense index pairs (m, u) of sends that stand for rule 2, matched sends
    before unmatched (still pending) sends of a channel: per channel and pair
    of threads, the po-last matched send of one and the po-first unmatched send
    of the other, so at most t² pairs.  Any other matched m and unmatched u
    have m ≤po m' and u' ≤po u for the pair (m', u') of their threads: po
    gives the rest."""
    mate = inst.mate
    last: dict[str, dict[str, int]] = defaultdict(dict)  # channel -> thread -> send
    first: dict[str, dict[str, int]] = defaultdict(dict)
    for i, e in enumerate(inst.events):  # dense order: po order per thread
        if e.op == SND:
            if mate[i] >= 0:
                last[e.channel][e.thread] = i
            else:
                first[e.channel].setdefault(e.thread, i)
    return [(m, u) for ch, us in first.items() for m in last[ch].values() for u in us.values()]


def communication_topology(inst: Instance) -> Topology:
    """Map each channel to its threads and test the thread graph for cycles.

    A channel with three or more users joins them in a triangle.  Otherwise
    every edge is a channel with two users, and union-find over the distinct
    pairs finds a cycle.
    """
    seen: dict[str, set[str]] = defaultdict(set)
    for e in inst.events:
        seen[e.channel].add(e.thread)
    users = {ch: tuple(sorted(ts)) for ch, ts in seen.items()}
    if any(len(ts) > 2 for ts in users.values()):
        return Topology(users=users, acyclic=False)
    parent = {t: t for t in inst.threads}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    acyclic = True
    for u, v in dict.fromkeys(ts for ts in users.values() if len(ts) == 2):
        ru, rv = find(u), find(v)
        if ru == rv:
            acyclic = False
            break
        parent[ru] = rv
    return Topology(users=users, acyclic=acyclic)
