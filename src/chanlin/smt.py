"""SMT-LIB emission of VCh-rf consistency as quantifier-free linear arithmetic.

Every event gets an integer position variable ``x_<id>`` in ``[0, n-1]``;
every channel gets prefix counters ``y_<ch>_snd_<i>`` / ``y_<ch>_rcv_<i>``
for ``0 <= i <= n``, the sends and receives at positions below i.  The
assertions say positions are distinct, respect program order and reads-from
(synchronous pairs are adjacent), matched pairs obey FIFO, matched sends
precede unmatched ones, and every prefix satisfies the capacity sandwich
``y_rcv <= y_snd <= y_rcv + cap``, with cap read as 1 on a synchronous
channel.  When :func:`~chanlin.core.rf_defect` finds a defect, the formula
also asserts ``false``.

The formula is satisfiable iff the instance is consistent.  A witness gives a
model: its positions respect po and rf; FIFO delivery orders the receives of
matched sends as the sends, and a matched send after an unmatched one could
only be received after it; an asynchronous channel holds between 0 and cap
messages; and on a synchronous channel each send is followed at once by its
receive, so a prefix has at most one send more than receives.  (Bounding that
difference by 0 would forbid every rendezvous.)  Conversely, the positions of
a model order the events as a po-respecting trace.  With no rf defect, every
receive has its rf source.  On an asynchronous channel the matched sends
precede the unmatched ones and are received in their own order, so the k-th
receive takes the k-th send, which is sent before it and is at the front of
the queue, and the counters keep the queue within capacity.  On a synchronous
channel every send is matched, the pair is adjacent and in two threads, and
every receive is matched: the channel's events are back-to-back rendezvous.
So the trace is well formed and realizes rf.

Matched before unmatched sends is asserted for the pairs of
:func:`~chanlin.core.pending_edges` only; the program-order asserts
``x_p < x_{p+1}`` give the other pairs by transitivity, so the models are the
same.

Optionally the saturated order strengthens the formula with derived ``<``
constraints, which every concretization respects; a saturation cycle
collapses the formula to ``(assert false)``.
"""

from __future__ import annotations

import shlex
import subprocess
from itertools import pairwise

from .core import INF, RCV, SND, Instance, format_cap, pending_edges, rf_defect
from .saturation import saturate

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class SolverError(Exception):
    """External solver failed; ``output`` carries captured stdout/stderr."""

    def __init__(self, message: str, output: str = ""):
        super().__init__(message)
        self.output = output


def emit_smtlib(inst: Instance, with_saturation: bool = False) -> str:
    """Emit SMT-LIB v2 text; see the module docstring for the encoding."""
    cap, rf = inst.cap_map, inst.rf
    defect = rf_defect(inst)
    n = inst.n
    channels = sorted(cap)
    events, index = inst.events, inst.index
    lines: list[str] = ["(set-logic QF_LIA)"]

    event_ids = [e.id for e in events]
    for eid in event_ids:
        lines.append(f"(declare-const x_{eid} Int)")
    for ch in channels:
        for i in range(n + 1):
            lines.append(f"(declare-const y_{ch}_snd_{i} Int)")
            lines.append(f"(declare-const y_{ch}_rcv_{i} Int)")

    # Position uniqueness and bounds.
    for eid in event_ids:
        lines.append(f"(assert (and (<= 0 x_{eid}) (<= x_{eid} {n - 1})))")
    if n >= 2:
        lines.append("(assert (distinct " + " ".join(f"x_{e}" for e in event_ids) + "))")

    # Program order and reads-from.
    for a, b in pairwise(inst.start):
        for i in range(a, b - 1):
            lines.append(f"(assert (< x_{event_ids[i]} x_{event_ids[i + 1]}))")
    for s, r in rf:
        if cap[events[index[s]].channel] == 0:
            lines.append(f"(assert (= (+ x_{s} 1) x_{r}))")
        else:
            lines.append(f"(assert (< x_{s} x_{r}))")

    # FIFO between matched pairs, then matched sends before unmatched sends.
    pairs_by_ch: dict[str, list[tuple[int, int]]] = {}
    sends_by_ch: dict[str, list[int]] = {ch: [] for ch in channels}
    rcvs_by_ch: dict[str, list[int]] = {ch: [] for ch in channels}
    for e in events:
        (sends_by_ch if e.op == SND else rcvs_by_ch)[e.channel].append(e.id)
    for s, r in rf:
        pairs_by_ch.setdefault(events[index[s]].channel, []).append((s, r))
    for ch in channels:
        table = pairs_by_ch.get(ch, [])
        for i, (s, r) in enumerate(table):
            for s2, r2 in table[i + 1 :]:
                lines.append(f"(assert (= (< x_{s} x_{s2}) (< x_{r} x_{r2})))")
    for m, u in pending_edges(inst):
        lines.append(f"(assert (< x_{event_ids[m]} x_{event_ids[u]}))")

    # Prefix counters and capacity sandwich.
    for ch in channels:
        lines.append(f"(assert (= y_{ch}_snd_0 0))")
        lines.append(f"(assert (= y_{ch}_rcv_0 0))")
        for op, members in ((SND, sends_by_ch[ch]), (RCV, rcvs_by_ch[ch])):
            for i in range(n):
                terms = [f"(ite (= x_{e} {i}) 1 0)" for e in members]
                if terms:
                    total = f"(+ y_{ch}_{op}_{i} " + " ".join(terms) + ")"
                else:
                    total = f"y_{ch}_{op}_{i}"
                lines.append(f"(assert (= y_{ch}_{op}_{i + 1} {total}))")
        c = cap[ch] or 1  # a rendezvous's send is one ahead until its receive
        for i in range(n + 1):
            lines.append(f"(assert (<= y_{ch}_rcv_{i} y_{ch}_snd_{i}))")
            if c != INF:
                lines.append(
                    f"(assert (<= y_{ch}_snd_{i} (+ y_{ch}_rcv_{i} {format_cap(c)})))"
                )

    if defect is not None:
        lines.append("(assert false)")
    if with_saturation:
        order = saturate(inst)
        if order.cyclic:
            lines.append("; saturated order contains a cycle")
            lines.append("(assert false)")
        else:
            start = inst.start
            for eid, row in zip(event_ids, order.succ):
                for a, b, p in zip(start, start[1:], row):  # thread slice, po position
                    if a + p < b:
                        lines.append(f"(assert (< x_{eid} x_{event_ids[a + p]}))")

    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def run_external_solver(encoding_path: str, solver_command: str) -> str:
    """Run a solver on an emitted file; return ``sat``/``unsat``/``unknown``.

    ``solver_command`` is a shell-style template; an ``{input}`` token is
    replaced by the file path, otherwise the path is appended.
    """
    argv = shlex.split(solver_command)
    if "{input}" in argv:
        argv = [encoding_path if a == "{input}" else a for a in argv]
    else:
        argv = argv + [encoding_path]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        raise SolverError(f"solver invocation failed: {exc}") from exc
    output = proc.stdout + proc.stderr
    for token in output.split():
        if token in (SAT, UNSAT, UNKNOWN):
            return token
    raise SolverError(
        f"no sat/unsat/unknown in solver output (exit {proc.returncode})", output
    )
