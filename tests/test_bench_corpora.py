"""The benchmark's corpora still build through chanlin, and `chanlin check`
gives every case its known exit code and the pinned explored-state totals."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

import chanlin.cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload, explored",
    [("sat3-search", 210_033), ("ring-saturate", 7_060), ("twothread-2sat", 0)],
)
def test_seed_1_exit_codes_and_explored_states(workload, explored, tmp_path):
    total = 0
    for case in load_workloads().WORKLOADS[workload](1):
        path = tmp_path / f"{case.name}.vchk"
        path.write_text(case.text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                chanlin.cli.main(["check", str(path)], standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
        assert code == case.expect, case.name
        total += int(re.search(r"^explored: (\d+)$", out.getvalue(), re.M).group(1))
    assert total == explored
