"""One op of each benchmark workload through its own correctness check.

The full benchmark run (``perfbench/run.py``) takes seconds per workload;
this runs op 0 of each, and the cold-launch command once, so that a change
that would make the benchmark report ``correct: false`` or a failed launch
fails tier-1 first."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["fuzz_small", "sweep_qubit", "cli_json"])
def test_first_op_passes_its_check(tmp_path, name):
    w = workloads.make(name)
    w.setup(seed=1, workdir=str(tmp_path))
    assert w.op_ok(0, w.run_op(0))
    if name == "fuzz_small":
        assert w.final_problems() == []


def test_cold_launch_prints_the_expected_stdout(tmp_path):
    """The cold-launch case as the benchmark launches it: a fresh
    ``python -m qobs.cli`` process on the sources in this checkout."""
    argv, expected = workloads.cold_cli_case(np.random.default_rng(1),
                                             str(tmp_path))
    res = subprocess.run([sys.executable, "-m", "qobs.cli", *argv],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (res.returncode, res.stdout) == (0, expected)
