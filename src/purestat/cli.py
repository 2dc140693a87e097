"""Command line interface: run experiments, report results, list the catalog.

Exit code 0 iff the run (or the reported directory) has no non-vacuous
violations.  Worker count comes from the PURESTAT_WORKERS environment
variable (default 1).
"""

from __future__ import annotations

import argparse
import sys

from .bounds import THEOREMS
from .experiments import EXPERIMENTS, experiment_ids
from .harness import ExperimentSpec, parse_config, run_experiment, run_suite, summarize


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    # seed, out and experiment are run settings, never experiment parameters
    seed, out = cfg.pop("seed", 7), cfg.pop("out", None)
    seed = args.seed if args.seed is not None else seed
    out = args.out if args.out is not None else out
    experiment = str(cfg.pop("experiment", "ALL"))
    params = cfg
    if experiment == "ALL":
        results = run_suite(seed=seed, out_dir=out, overrides=params)
    else:
        results = [run_experiment(ExperimentSpec(experiment, params, seed=seed,
                                                 out_dir=out))]
    violations = 0
    for r in results:
        violations += r.violations
        status = "ok" if r.violations == 0 else f"{r.violations} violation(s)"
        print(f"{r.spec.experiment_id:28s} rows={r.summary['rows']:<6d} "
              f"vacuous={r.summary['vacuous_rows']:<5d} {status}")
    if out:
        summarize(results)
        print(f"results written to {out}")
    return 0 if violations == 0 else 1


def _cmd_report(args) -> int:
    rows = summarize(args.indir)
    header = f"{'experiment':28s} {'rows':>6s} {'violations':>10s} {'vacuous':>8s} {'mean_lhs':>12s}"
    print(header)
    print("-" * len(header))
    violations = 0
    for row in rows:
        violations += row["violations"]
        print(f"{row['experiment_id']:28s} {row['rows']:>6d} {row['violations']:>10d} "
              f"{row['vacuous_rows']:>8d} {row['mean_lhs']:>12.5g}")
    print(f"\ntotal non-vacuous violations: {violations}")
    return 0 if violations == 0 else 1


def _cmd_list(_args) -> int:
    print("theorem catalog (analytic bound formulas):\n")
    for name, entry in THEOREMS.items():
        print(f"  {name:28s} [{entry.kind:8s}{', tail' if entry.tail else ''}]")
        print(f"      {entry.formula}")
    print("\nexperiments:\n")
    for experiment_id in experiment_ids():
        exp = EXPERIMENTS[experiment_id]
        print(f"  {experiment_id:28s} {exp.description}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="purestat",
        description="Monte Carlo verification of pure-state quantum statistical "
                    "mechanics bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a config file")
    p_run.add_argument("--config", required=True, help="flat key=value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory for CSV/manifests")
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("report", help="summarize a results directory")
    p_rep.add_argument("--in", dest="indir", required=True, help="results directory")
    p_rep.set_defaults(fn=_cmd_report)

    p_list = sub.add_parser("list", help="print the theorem catalog and experiments")
    p_list.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
