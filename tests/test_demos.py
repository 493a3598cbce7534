"""Smoke test: every narrative script in demos/ runs to completion."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_script_runs(script):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(script), run_name="__main__")
    assert out.getvalue().strip()
