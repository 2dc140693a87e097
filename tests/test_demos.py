"""Every narrative script in demos/ runs to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def test_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    # a scratch working directory: demos may write files next to themselves
    src = os.path.abspath(os.path.join(ROOT, "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.abspath(os.path.join(ROOT, "demos", name))],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
