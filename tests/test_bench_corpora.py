"""The benchmark's corpora still build through chanlin, and `chanlin check`
gives every case its known exit code, the pinned explored-state totals, and
byte-identical witnesses and reasons."""

from __future__ import annotations

import contextlib
import hashlib
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


# sha256 over every witness file's bytes and every `reason:` line, case by
# case; the same under any PYTHONHASHSEED.
WITNESS_SHA256 = {
    "sat3-search": "1e7b674532bf301a495d8ccd09dc3436b8ffdafefa69839ba9c7d04aa25a10ca",
    "ring-saturate": "ba703d3e916265317725a89edbfbd90669ee3eb231d6623c4ebfbd7c196cdc01",
    "twothread-2sat": "ffc39e95f4a169acec9422e0f39d5d26325edd39fecaff5083a73ac4148b9308",
}


@pytest.mark.parametrize(
    "workload, explored",
    [("sat3-search", 210_033), ("ring-saturate", 6_180), ("twothread-2sat", 3_330)],
)
def test_seed_1_exit_codes_and_explored_states(workload, explored, tmp_path):
    total = 0
    digest = hashlib.sha256()
    for case in load_workloads().WORKLOADS[workload](1):
        path, wit = tmp_path / f"{case.name}.vchk", tmp_path / f"{case.name}.wit.vchk"
        path.write_text(case.text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                chanlin.cli.main(["check", str(path), "--witness", str(wit)], standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
        assert code == case.expect, case.name
        total += int(re.search(r"^explored: (\d+)$", out.getvalue(), re.M).group(1))
        if wit.exists():
            digest.update(wit.read_bytes())
        digest.update("".join(re.findall(r"^reason: .*\n", out.getvalue(), re.M)).encode())
    assert total == explored
    assert digest.hexdigest() == WITNESS_SHA256[workload]
