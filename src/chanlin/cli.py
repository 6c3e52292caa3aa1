"""Command-line interface: check, generate, mutate, emit-smt, stats.

Exit codes are the machine contract: 0 = consistent (or command succeeded),
1 = inconsistent (or trace violation), 2 = usage/validation error or internal
error (traceback on stderr).  Stdout is stable ``key: value`` lines.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import click

from . import __version__
from .core import (
    INF,
    Instance,
    Ok,
    ParseError,
    ValidationError,
    Verdict,
    AlgorithmRefused,
    check_well_formed,
    classify_channels,
    communication_topology,
    format_cap,
    make_instance,
    parse_instance,
    serialize_instance,
)
from .fastpath import _acyclic_users, solve_acyclic, solve_sync
from .frontier import solve_vch, solve_vchrf, solve_vchrf_saturated
from .generators import (
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
from .oracle import brute_force
from .smt import SolverError, emit_smtlib, run_external_solver

ALGOS = ["auto", "frontier", "frontier-rf", "sync", "acyclic", "brute"]

# `auto` gives the search AUTO_STATES_PER_EVENT * (n + 1) states on an instance
# that `solve_acyclic` accepts before it falls back to the 2SAT.
AUTO_STATES_PER_EVENT = 4


def _echo(text: str, nl: bool = True, stream: str = "stdout") -> None:
    """Print to the standard stream current at call time.

    ``click.echo`` without ``file=`` keeps every ``sys.stdout`` it has seen
    alive, so an in-process caller's redirected buffer would never be freed.
    """
    click.echo(text, nl=nl, file=click.get_text_stream(stream, errors=None))


def _fail(message: str) -> None:
    _echo(f"error: {message}", stream="stderr")
    sys.exit(2)


def _load(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail(str(exc))
    try:
        return parse_instance(text)
    except (ParseError, ValidationError) as exc:
        _fail(str(exc))
    raise AssertionError("unreachable")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(str(exc))


def _dispatch(inst: Instance, algo: str, saturation: bool) -> tuple[Verdict, str]:
    cap = inst.cap_map
    if algo == "brute":
        return brute_force(inst, cap, inst.rf, bound=max(inst.n, 1)), "brute"
    if algo == "frontier" or (algo == "auto" and inst.rf is None):
        return solve_vch(inst), "frontier"
    if inst.rf is None:
        raise ValueError(f"{algo} requires a reads-from relation")
    if algo == "sync":
        return solve_sync(inst), "sync"
    if algo == "acyclic":
        return solve_acyclic(inst), "acyclic"
    if saturation:
        search, name = solve_vchrf_saturated, "frontier-rf-saturated"
    else:
        search, name = solve_vchrf, "frontier-rf"
    if algo == "auto":
        if inst.events and all(cap[e.channel] == 0 for e in inst.events):
            return solve_sync(inst), "sync"
        # Where solve_acyclic applies, the search runs first under a linear
        # budget, and the polynomial 2SAT decides the instance if it runs out.
        try:
            _acyclic_users(inst)
        except AlgorithmRefused:
            return search(inst), name
        max_states = AUTO_STATES_PER_EVENT * (inst.n + 1)
        try:
            return search(inst, max_states=max_states), name
        except AlgorithmRefused:
            return replace(solve_acyclic(inst), explored=max_states + 1), "acyclic"
    return search(inst), name


def _show(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    """Print ``--help`` or ``--version`` through :func:`_echo`, then exit."""
    if value and not ctx.resilient_parsing:
        version = f"{ctx.find_root().info_name}, version {__version__}"
        _echo(version if param.name == "version" else ctx.get_help())
        ctx.exit()


class _Command(click.Command):
    """A command whose ``--help`` prints through :func:`_echo`."""

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show
        return option


class _Main(_Command, click.Group):
    """The command group; an unexpected exception in any command exits 2."""

    command_class = _Command

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception:  # a crash must never read as "inconsistent"
            sys.excepthook(*sys.exc_info())  # the usual traceback, on stderr
            _fail("internal error")


@click.group(cls=_Main)
@click.option("--version", is_flag=True, expose_value=False, is_eager=True, callback=_show,
              help="Show the version and exit.")
def main() -> None:
    """Consistency checking of message-passing executions over FIFO channels."""


@main.command()
@click.argument("input", type=click.Path())
@click.option("--algo", type=click.Choice(ALGOS), default="auto", show_default=True)
@click.option("--no-saturation", is_flag=True, help="Disable saturation pruning.")
@click.option("--witness", type=click.Path(), help="Write the witness trace here.")
def check(input: str, algo: str, no_saturation: bool, witness: str | None) -> None:
    """Decide consistency of an instance file (or well-formedness of a trace)."""
    inst = _load(input)
    if inst.kind == "trace":
        result = check_well_formed(inst.trace, inst.cap_map, inst.rf)
        if isinstance(result, Ok):
            _echo("result: ok")
            sys.exit(0)
        _echo("result: violation")
        _echo(f"violation: {result.kind}")
        _echo(f"position: {result.position}")
        sys.exit(1)
    try:
        verdict, used = _dispatch(inst, algo, saturation=not no_saturation)
    except AlgorithmRefused as exc:
        _fail(f"algorithm refused: {exc}")
    except ValueError as exc:
        _fail(str(exc))
    write_witness = verdict.consistent and witness
    if write_witness:  # before any result line, so that a failure exits 2 alone
        events, index = inst.events, inst.index
        trace = make_instance("trace", [events[index[e]] for e in verdict.witness], inst.cap_map)
        _write(witness, serialize_instance(trace))
    _echo(f"result: {verdict.outcome}")
    _echo(f"algorithm: {used}")
    _echo(f"explored: {verdict.explored}")
    if verdict.reason:
        _echo(f"reason: {verdict.reason}")
    if write_witness:
        _echo(f"witness: {witness}")
    sys.exit(0 if verdict.consistent else 1)


_REDUCTIONS = {
    "ham": (parse_digraph, from_hamiltonian),
    "1in3": (parse_dimacs, from_one_in_three_two_threads),
    "3sat": (parse_dimacs, from_3sat_t3_m5),
    "ov": (parse_ov, from_orthogonal_vectors),
    "vsc": (parse_vsc_read, from_vsc_read),
}


@main.command()
@click.argument("mode", required=False)
@click.option("--reduction", type=click.Choice(sorted(_REDUCTIONS)))
@click.option("--input", "input_path", type=click.Path())
@click.option("--events", type=int, default=20, show_default=True)
@click.option("--threads", type=int, default=3, show_default=True)
@click.option("--channels", type=int, default=3, show_default=True)
@click.option("--caps", default="0,1,2,inf", show_default=True, help="Capacity menu.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(), help="Instance file path (default stdout).")
def generate(
    mode: str | None,
    reduction: str | None,
    input_path: str | None,
    events: int,
    threads: int,
    channels: int,
    caps: str,
    seed: int,
    output: str | None,
) -> None:
    """Generate an instance: `generate random ...` or `generate --reduction ...`."""
    if mode == "random":
        try:
            menu = [INF if tok == "inf" else float(int(tok)) for tok in caps.split(",")]
            inst, _ = random_positive(events, threads, channels, menu, seed)
        except ValueError as exc:
            _fail(str(exc))
    elif mode is None and reduction is not None:
        if input_path is None:
            _fail("--reduction requires --input")
        parser, builder = _REDUCTIONS[reduction]
        try:
            with open(input_path, "r", encoding="utf-8") as fh:
                source = parser(fh.read())
            inst = builder(source)
        except (OSError, ValueError) as exc:
            _fail(str(exc))
    else:
        _fail("expected `generate random ...` or `generate --reduction <name> --input <file>`")
    text = serialize_instance(inst)
    if output:
        _write(output, text)
    else:
        _echo(text, nl=False)
    _echo_shape(inst)
    sys.exit(0)


@main.command()
@click.argument("input", type=click.Path())
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--rounds", type=int, default=None, help="Default max(5, ceil(0.05 n)).")
@click.option("--output", type=click.Path(), help="Mutated file path (default stdout).")
def mutate(input: str, seed: int, rounds: int | None, output: str | None) -> None:
    """Mutate an instance's reads-from relation."""
    inst = _load(input)
    try:
        mutated, applied, skipped = mutate_rf(inst, seed, rounds)
    except ValueError as exc:
        _fail(str(exc))
    text = serialize_instance(mutated)
    if output:
        _write(output, text)
    else:
        _echo(text, nl=False)
    _echo(f"applied: {applied}")
    _echo(f"skipped: {skipped}")
    sys.exit(0)


@main.command("emit-smt")
@click.argument("input", type=click.Path())
@click.option("--with-saturation", is_flag=True, help="Add saturated-order constraints.")
@click.option("--output", type=click.Path(), help="Encoding file path (default stdout).")
@click.option(
    "--solver-cmd",
    default=None,
    help="Solver command template; defaults to $CHANLIN_SMT_CMD.",
)
def emit_smt(
    input: str, with_saturation: bool, output: str | None, solver_cmd: str | None
) -> None:
    """Emit the integer-arithmetic encoding; optionally run a solver on it."""
    inst = _load(input)
    if inst.rf is None:
        _fail("emit-smt requires a reads-from relation")
    cmd = solver_cmd or os.environ.get("CHANLIN_SMT_CMD")
    if cmd and not output:
        _fail("--solver-cmd requires --output")
    text = emit_smtlib(inst, with_saturation)
    if output:
        _write(output, text)
    else:
        _echo(text, nl=False)
    if cmd:
        try:
            _echo(f"solver: {run_external_solver(output, cmd)}")
        except SolverError as exc:
            _fail(str(exc))
    sys.exit(0)


@main.command()
@click.argument("input", type=click.Path())
def stats(input: str) -> None:
    """Print structural statistics of an instance."""
    inst = _load(input)
    _echo_shape(inst)
    for ch, c in sorted(classify_channels(inst).items()):
        desc = "sync" if c == 0 else "unbounded" if c == INF else f"bounded({format_cap(c)})"
        _echo(f"class_{ch}: {desc}")
    topo = communication_topology(inst)
    _echo(f"topology_acyclic: {'true' if topo.acyclic else 'false'}")
    n_rcv = sum(1 for e in inst.events if e.op == "rcv")
    n_rf = len(inst.rf or ())
    _echo(f"rf_pairs: {n_rf}")
    _echo(f"rf_coverage: {n_rf}/{n_rcv}")
    sys.exit(0)


def _echo_shape(inst: Instance) -> None:
    caps = [c for _, c in inst.cap]
    k = format_cap(max(caps)) if caps else "0"
    _echo(f"n: {inst.n}")
    _echo(f"t: {len(inst.threads)}")
    _echo(f"m: {len(inst.cap)}")
    _echo(f"k: {k}")


if __name__ == "__main__":
    main()
