"""Each demo script runs to completion in-process and prints its report."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# a line of the report that a demo must print, where one is pinned
EXPECTED = {
    "05_pi3_and_classification.py":
        "  (2V1 | V2+2C)  pi3 = 0\n  (V1+V2 | 4C)  pi3 = 0\n",
}


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
    assert EXPECTED.get(path.name, "") in out.getvalue()
