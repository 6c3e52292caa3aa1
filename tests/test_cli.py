"""Command-line interface: exit codes and stable key-value output."""

from __future__ import annotations

import contextlib
import gc
import io
import time
import weakref

import pytest
from click.testing import CliRunner

from chanlin import CONSISTENT, Verdict, parse_instance
from chanlin.cli import main
from .conftest import assert_valid_witness


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def assert_write_error(r, path):
    """An output path that cannot be written exits 2 with one error line."""
    assert r.exit_code == 2
    assert r.stderr.startswith("error: ") and str(path) in r.stderr
    assert "Traceback" not in r.stderr and "internal error" not in r.stderr


def assert_buffers_freed(args, code, line):
    """Run ``main(args)`` in-process with redirected stdout and stderr; check
    the exit code and printed line, then that neither buffer stays alive."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = main(args, standalone_mode=False)
        except SystemExit as exc:
            got = exc.code
    assert got == code
    assert line in (out if code == 0 else err).getvalue()
    refs = [weakref.ref(out), weakref.ref(err)]
    del out, err
    gc.collect()
    assert [r() for r in refs] == [None, None]


class TestCheck:
    def test_trace_ok(self, fixtures):
        r = run("check", fixtures / "trace_async_ok.vchk")
        assert r.exit_code == 0
        assert "result: ok" in r.output

    def test_trace_violation(self, fixtures):
        r = run("check", fixtures / "trace_value_violation.vchk")
        assert r.exit_code == 1
        assert "violation: value" in r.output
        assert "position: 5" in r.output

    @pytest.mark.parametrize(
        "rf, lines",
        [
            ("rf 1 4\nrf 2 3\n", ["result: violation", "violation: rf", "position: 3"]),
            ("rf 1 3\nrf 2 4\n", ["result: ok"]),
            ("rf 1 3\n", ["result: violation", "violation: rf", "position: 4"]),
        ],
    )
    def test_trace_rf_is_checked(self, tmp_path, rf, lines):
        """FIFO gives receive 3 the message of send 1, so rf must say so."""
        trace = tmp_path / "t.vchk"
        events = "event 1 t1 snd c\nevent 2 t1 snd c\nevent 3 t2 rcv c\nevent 4 t2 rcv c\n"
        trace.write_text("vchk v1\nkind trace\nchannel c cap inf\n" + events + rf)
        r = run("check", trace)
        assert r.output.splitlines() == lines
        assert r.exit_code == (0 if len(lines) == 1 else 1)

    def test_consistent_exit_zero(self, fixtures):
        r = run("check", fixtures / "two_thread_cap1_positive.vchk")
        assert r.exit_code == 0
        assert "result: consistent" in r.output

    def test_inconsistent_exit_one(self, fixtures):
        r = run("check", fixtures / "two_thread_cap1_negative_rf.vchk")
        assert r.exit_code == 1
        assert "result: inconsistent" in r.output

    def test_missing_file_exit_two(self):
        r = run("check", "no_such_file.vchk")
        assert r.exit_code == 2

    def test_duplicate_kind_exit_two(self, tmp_path):
        path = tmp_path / "two_kinds.vchk"
        path.write_text("vchk v1\nkind trace\nkind abstract\nchannel c cap 1\n")
        r = run("check", path)
        assert r.exit_code == 2
        assert "line 3: duplicate kind directive" in r.stderr
        assert "result:" not in r.stdout

    def test_algo_selection(self, fixtures):
        r = run("check", fixtures / "sync_triangle_positive.vchk", "--algo", "sync")
        assert r.exit_code == 0
        assert "algorithm: sync" in r.output

    def test_explicit_refusal_exit_two(self, fixtures):
        r = run("check", fixtures / "three_thread_cap2_positive.vchk", "--algo", "sync")
        assert r.exit_code == 2

    @pytest.mark.parametrize("algo", ["frontier-rf", "sync", "acyclic"])
    def test_rf_algo_without_rf_exit_two(self, fixtures, algo):
        r = run("check", fixtures / "two_thread_cap1_positive.vchk", "--algo", algo)
        assert r.exit_code == 2
        assert f"{algo} requires a reads-from relation" in r.stderr

    def test_brute(self, fixtures):
        r = run("check", fixtures / "three_thread_cap2_positive.vchk", "--algo", "brute")
        assert r.exit_code == 0

    def test_witness_file_revalidates(self, fixtures, tmp_path):
        w = tmp_path / "w.vchk"
        r = run("check", fixtures / "two_thread_cap1_positive.vchk", "--witness", w)
        assert r.exit_code == 0
        r2 = run("check", w)
        assert r2.exit_code == 0
        assert "result: ok" in r2.output

    def test_internal_error_exit_two(self, fixtures, monkeypatch):
        def crash(inst):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("chanlin.cli.solve_vch", crash)
        r = run("check", fixtures / "two_thread_cap1_positive.vchk")
        assert r.exit_code == 2
        assert "RecursionError" in r.stderr and "error: internal error" in r.stderr
        assert "result:" not in r.stdout

    def test_brute_takes_a_long_history(self, tmp_path):
        """The oracle's search keeps its own stack, so a 1 200-event pipeline
        does not overflow Python's."""
        lines = ["vchk v1", "kind abstract", "channel c cap inf"]
        for i in range(1, 1201, 2):
            lines += [f"event {i} t1 snd c", f"event {i + 1} t2 rcv c", f"rf {i} {i + 1}"]
        inst, w = tmp_path / "pipe.vchk", tmp_path / "w.vchk"
        inst.write_text("\n".join(lines) + "\n")
        t0 = time.monotonic()
        r = run("check", inst, "--algo", "brute", "--witness", w)
        assert time.monotonic() - t0 < 20
        assert r.exit_code == 0 and "algorithm: brute" in r.output
        witness = tuple(e.id for e in parse_instance(w.read_text()).trace)
        assert_valid_witness(parse_instance(inst.read_text()), Verdict(CONSISTENT, witness))

    def test_unwritable_witness_exit_two(self, fixtures, tmp_path):
        w = tmp_path / "missing" / "w.vchk"
        r = run("check", fixtures / "two_thread_cap1_positive.vchk", "--witness", w)
        assert_write_error(r, w)
        assert "result:" not in r.stdout

    @pytest.mark.parametrize(
        "name, witness, code",
        [
            ("two_thread_cap1_positive.vchk", None, 0),
            ("two_thread_cap1_negative_rf.vchk", None, 1),
            ("no_such_file.vchk", None, 2),
            ("two_thread_cap1_positive.vchk", "missing/w.vchk", 2),
        ],
    )
    def test_exit_codes_without_standalone_mode(self, fixtures, tmp_path, name, witness, code):
        args = ["check", str(fixtures / name)]
        if witness:
            args += ["--witness", str(tmp_path / witness)]
        with pytest.raises(SystemExit) as exc:
            main(args, standalone_mode=False)
        assert exc.value.code == code

    @pytest.mark.parametrize(
        "name, code, line",
        [
            ("two_thread_cap1_positive.vchk", 0, "result: consistent"),
            ("no_such_file.vchk", 2, "error: "),
        ],
    )
    def test_in_process_output_buffers_are_freed(self, fixtures, name, code, line):
        assert_buffers_freed(["check", str(fixtures / name)], code, line)

    @pytest.mark.parametrize(
        "args, line",
        [
            (["--version"], "version 0.1.0"),
            (["--help"], "Usage: "),
            (["check", "--help"], "Usage: "),
        ],
    )
    def test_in_process_help_and_version_buffers_are_freed(self, args, line):
        # click prints these itself, through its own echo, unless told otherwise.
        assert_buffers_freed(args, 0, line)

    def test_no_saturation_flag(self, fixtures):
        r = run("check", fixtures / "two_thread_cap1_negative_rf.vchk", "--algo", "frontier-rf", "--no-saturation")
        assert r.exit_code == 1
        assert "algorithm: frontier-rf" in r.output

    @pytest.fixture
    def two_thread_draw(self, tmp_path):
        """A consistent two-thread draw with acyclic topology whose
        unsaturated search takes 101 states, past the budget of 4·(20 + 1)."""
        path = tmp_path / "draw.vchk"
        r = run("generate", "random", "--events", 20, "--threads", 2, "--channels", 3,
                "--caps", "0,1,inf", "--seed", 71, "--output", path)
        assert r.exit_code == 0
        return path

    def test_auto_tries_the_budgeted_search_first(self, two_thread_draw):
        r = run("check", two_thread_draw)
        assert r.exit_code == 0
        assert "algorithm: frontier-rf-saturated" in r.output

    def test_auto_falls_back_to_2sat_past_the_budget(self, two_thread_draw):
        r = run("check", two_thread_draw, "--no-saturation")
        assert r.exit_code == 0
        assert "algorithm: acyclic\nexplored: 85\n" in r.output

    def test_frontier_rf_is_never_budgeted(self, two_thread_draw):
        r = run("check", two_thread_draw, "--algo", "frontier-rf", "--no-saturation")
        assert r.exit_code == 0
        assert "algorithm: frontier-rf\nexplored: 101\n" in r.output

    def test_auto_at_budget_0(self, fixtures, two_thread_draw, monkeypatch):
        monkeypatch.setattr("chanlin.cli.AUTO_STATES_PER_EVENT", 0)
        r = run("check", two_thread_draw)
        assert r.exit_code == 0
        assert "algorithm: acyclic\nexplored: 1\n" in r.output
        r = run("check", fixtures / "two_thread_cap1_negative_rf.vchk")
        assert r.exit_code == 1  # by a saturation cycle, before any search
        assert "algorithm: frontier-rf-saturated" in r.output

    def test_version_from_source(self):
        r = run("--version")
        assert r.exit_code == 0
        assert "0.1.0" in r.stdout


class TestGenerate:
    def test_random_deterministic(self, tmp_path):
        f1, f2 = tmp_path / "a.vchk", tmp_path / "b.vchk"
        r1 = run("generate", "random", "--events", 20, "--seed", 5, "--output", f1)
        r2 = run("generate", "random", "--events", 20, "--seed", 5, "--output", f2)
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_reduction_ov(self, tmp_path):
        src = tmp_path / "ov.txt"
        src.write_text("ov 2 2\n01\n10\n01\n11\n")
        out = tmp_path / "ov.vchk"
        r = run("generate", "--reduction", "ov", "--input", src, "--output", out)
        assert r.exit_code == 0
        assert run("check", out).exit_code == 0

    def test_reduction_ham_path_graph(self, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text("digraph 3\n0 1\n1 2\n")
        out = tmp_path / "g.vchk"
        r = run("generate", "--reduction", "ham", "--input", src, "--output", out)
        assert r.exit_code == 0
        assert run("check", out).exit_code == 1

    def test_shape_stats_printed(self, tmp_path):
        out = tmp_path / "r.vchk"
        r = run("generate", "random", "--events", 10, "--seed", 1, "--output", out)
        assert "n: 10" in r.output
        assert "t: " in r.output and "m: " in r.output and "k: " in r.output

    def test_malformed_source_exit_two(self, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("not a digraph\n")
        r = run("generate", "--reduction", "ham", "--input", src)
        assert r.exit_code == 2

    def test_satlib_dimacs_source(self, tmp_path):
        src = tmp_path / "uf3.cnf"
        src.write_text("c SATLIB style\np cnf 3 1\n1 -2 3 0\n%\n0\n")
        r = run("generate", "--reduction", "3sat", "--input", src)
        assert r.exit_code == 0
        assert r.output.startswith("vchk v1\n")

    def test_usage_error(self):
        r = run("generate")
        assert r.exit_code == 2

    def test_unwritable_output_exit_two(self, tmp_path):
        out = tmp_path / "missing" / "x.vchk"
        assert_write_error(run("generate", "random", "--output", out), out)


class TestMutate:
    def test_round_counts(self, tmp_path):
        inst = tmp_path / "i.vchk"
        run("generate", "random", "--events", 200, "--seed", 1, "--output", inst)
        out = tmp_path / "m.vchk"
        r = run("mutate", inst, "--seed", 2, "--output", out)
        assert r.exit_code == 0
        applied = skipped = None
        for line in r.output.splitlines():
            if line.startswith("applied:"):
                applied = int(line.split()[1])
            if line.startswith("skipped:"):
                skipped = int(line.split()[1])
        assert applied is not None and skipped is not None
        assert applied + skipped == 10  # max(5, ceil(0.05 * 200))

    def test_zero_rounds_identity(self, tmp_path):
        inst = tmp_path / "i.vchk"
        run("generate", "random", "--events", 20, "--seed", 1, "--output", inst)
        out = tmp_path / "m.vchk"
        r = run("mutate", inst, "--seed", 2, "--rounds", 0, "--output", out)
        assert r.exit_code == 0
        # rf is untouched; values are stripped by design.
        from chanlin import parse_instance

        assert parse_instance(out.read_text()).rf == parse_instance(inst.read_text()).rf

    def test_unwritable_output_exit_two(self, fixtures, tmp_path):
        out = tmp_path / "missing" / "m.vchk"
        r = run("mutate", fixtures / "two_thread_cap1_negative_rf.vchk", "--output", out)
        assert_write_error(r, out)
        assert "applied:" not in r.stdout

    def test_no_rf_exit_two(self, fixtures):
        r = run("mutate", fixtures / "two_thread_cap1_positive.vchk")
        assert r.exit_code == 2


class TestEmitSmtAndStats:
    def test_emit_variable_count(self, tmp_path):
        inst = tmp_path / "i.vchk"
        run("generate", "random", "--events", 12, "--seed", 3, "--output", inst)
        out = tmp_path / "e.smt2"
        r = run("emit-smt", inst, "--output", out)
        assert r.exit_code == 0
        from chanlin import parse_instance

        parsed = parse_instance(inst.read_text())
        n, m = parsed.n, len(parsed.cap)
        assert out.read_text().count("(declare-const") == n + m * (2 * n + 2)

    def test_solver_cmd_without_output_emits_nothing(self, tmp_path):
        inst = tmp_path / "i.vchk"
        run("generate", "random", "--events", 12, "--seed", 3, "--output", inst)
        r = run("emit-smt", inst, "--solver-cmd", "true {input}")
        assert r.exit_code == 2
        assert "(set-logic" not in r.stdout

    def test_unwritable_output_exit_two(self, fixtures, tmp_path):
        out = tmp_path / "missing" / "e.smt2"
        r = run("emit-smt", fixtures / "two_thread_cap1_negative_rf.vchk", "--output", out)
        assert_write_error(r, out)

    def test_emit_requires_rf(self, fixtures):
        r = run("emit-smt", fixtures / "two_thread_cap1_positive.vchk")
        assert r.exit_code == 2

    def test_stats_shape(self, fixtures):
        r = run("stats", fixtures / "three_thread_cap2_positive.vchk")
        assert r.exit_code == 0
        assert "n: 4" in r.output
        assert "t: 3" in r.output
        assert "m: 1" in r.output
        assert "k: 2" in r.output

    def test_stats_classes_and_topology(self, fixtures):
        r = run("stats", fixtures / "sync_triangle_positive.vchk")
        assert "class_ch1: sync" in r.output
        assert "topology_acyclic: false" in r.output
        assert "rf_coverage: 4/4" in r.output
