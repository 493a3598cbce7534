"""One op of each benchmark workload through its own correctness check.

The full benchmark run (``perfbench/run.py``) takes seconds per workload;
this runs op 0 of each so that a library change that would make the
benchmark report ``correct: false`` fails tier-1 first."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["fuzz_small", "sweep_qubit", "cli_json"])
def test_first_op_passes_its_check(tmp_path, name):
    w = workloads.make(name)
    w.setup(seed=1, workdir=str(tmp_path))
    assert w.op_ok(0, w.run_op(0))
    if name == "fuzz_small":
        assert w.final_problems() == []
