"""Each demo prints the same bytes as its transcript in tests/golden."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / (name + ".py"))],
                         cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / ("demo_%s.txt" % name)).read_bytes()
