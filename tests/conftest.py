"""Fixtures shared across test modules."""

import time

import pytest

from purestat.harness import run_suite


@pytest.fixture(scope="session")
def suite(tmp_path_factory):
    """The default suite at seed 7, run once per session: its results by
    experiment id, its wall time and its output directory."""
    out = tmp_path_factory.mktemp("suite")
    t0 = time.monotonic()
    results = run_suite(seed=7, out_dir=str(out))
    wall = time.monotonic() - t0
    return {"results": {r.spec.experiment_id: r for r in results},
            "wall": wall, "out": str(out)}
