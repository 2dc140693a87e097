"""The default suite at seed 7 against its committed summary.csv.

Counts (rows, violations, vacuous rows) must match exactly, and every
experiment's mean and standard error of lhs and mean of rhs to 1e-10 relative,
so a change that moves any statistic of the default suite beyond float noise
fails here, also one that moves only the bounds and flips no verdict.
"""

import csv
import os

from purestat.harness import summarize

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "summary_seed7.csv")
EXACT = ("rows", "violations", "vacuous_rows", "seed")
STATISTICS = ("mean_lhs", "stderr_lhs", "mean_rhs")
RTOL = 1e-10
REGENERATE = ("if the change is intended, regenerate the golden file: "
              "purestat run --config configs/default_suite.cfg --out DIR, "
              "then copy DIR/summary.csv to tests/golden/summary_seed7.csv")


def _read(path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["experiment_id"]: row for row in csv.DictReader(fh)}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def test_the_golden_summary_has_no_violations():
    golden = _read(GOLDEN)
    assert golden and all(int(row["violations"]) == 0 for row in golden.values())


def test_the_default_suite_matches_the_golden_summary(suite):
    summarize(list(suite["results"].values()))   # writes summary.csv as `purestat run` does
    got, golden = _read(os.path.join(suite["out"], "summary.csv")), _read(GOLDEN)
    assert list(got) == list(golden), REGENERATE
    for eid, want in golden.items():
        row = got[eid]
        for key in EXACT:
            assert row[key] == want[key], f"{eid} {key}: {row[key]} != {want[key]}; {REGENERATE}"
        for key in STATISTICS:
            assert _close(float(row[key]), float(want[key])), \
                f"{eid} {key}: {row[key]} != {want[key]} (rtol {RTOL}); {REGENERATE}"
        # the summary's row count is the row count of the experiment's CSV
        with open(os.path.join(suite["out"], f"{eid}.csv"), encoding="utf-8") as fh:
            assert sum(1 for _ in fh) - 1 == int(want["rows"]), eid
