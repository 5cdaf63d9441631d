"""Command-line harness: single inferences, sweeps, and verification runs.

Exit codes: 0 success; 1 error, or every trial of a sweep raised; 2
abstained (infer) or every trial abstained (sweep).  A sweep with any
failed trials reports on stderr how many failed, then how many raised
each exception class at each stage, without the exception text.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    FileSpec,
    SyntheticSpec,
    csv_table,
    emit_report,
    run_sweep,
    run_trial,
    verify_sensitivity_table,
    verify_utility_table,
)
from .data_io import SYNTH_SHAPES
from .inference import TARGET_SIDES, Decision
from .scores import ScoreKind

_SCORE_NAMES = tuple(kind.value for kind in ScoreKind)


def _numbers(text: str, convert, what: str) -> tuple:
    """A nonempty comma-separated list, each stripped token passed through
    ``convert``; an empty one is a usage error rather than a grid that
    checks or runs nothing."""
    try:
        values = tuple(convert(tok) for raw in text.split(",") if (tok := raw.strip()))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got none in {text!r}")
    return values


def _floats(text: str) -> tuple[float, ...]:
    return _numbers(text, float, "numbers")


def _ints(text: str) -> tuple[int, ...]:
    return _numbers(text, int, "integers")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1, got {value}")
    return value


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lams", type=_floats, default=(1e-3,),
                   help="regularization grid (comma-separated), default 1e-3")
    p.add_argument("--delta", type=float, default=1e-2, help="privacy delta, default 1e-2")
    p.add_argument("--target", choices=tuple(TARGET_SIDES), default="test",
                   help="which half of the data the privacy guarantee covers")
    p.add_argument("--seed", type=int, default=0, help="master seed, default 0")
    p.add_argument("--bandwidth", type=float, default=0.3,
                   help="regression kernel bandwidth, default 0.3 (dependence-score "
                        "kernels use the median heuristic non-privately, 0.5 privately)")
    p.add_argument("--pairs-dir", default=None,
                   help="directory of two-column pairs files (optional .truth sidecars)")
    p.add_argument("--synthetic", choices=SYNTH_SHAPES, default=None,
                   help="generate a synthetic dataset instead of loading files")
    p.add_argument("--n-total", type=int, default=500,
                   help="synthetic sample count before splitting, default 500")
    p.add_argument("--noise-level", type=float, default=0.3,
                   help="synthetic additive noise level, default 0.3")
    p.add_argument("--test-fraction", type=float, default=0.5,
                   help="held-out fraction of each dataset, default 0.5")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def _datasets(args) -> tuple:
    specs = []
    if args.pairs_dir is not None:
        root = Path(args.pairs_dir)
        if not root.is_dir():
            raise ValueError(f"not a directory: {root}")
        # a report written into the directory by an earlier run is not data
        report = None if args.out is None else Path(args.out).resolve()
        files = sorted(
            p for p in root.iterdir()
            if p.is_file() and p.suffix != ".truth" and p.resolve() != report
        )
        if not files:
            raise ValueError(f"no pairs files in {root}")
        specs.extend(FileSpec(str(p)) for p in files)
    if args.synthetic is not None:
        specs.append(SyntheticSpec(args.synthetic, args.n_total, args.noise_level))
    if not specs:
        raise ValueError("give --pairs-dir and/or --synthetic")
    return tuple(specs)


def _config(args, scores, epsilons, trials) -> ExperimentConfig:
    return ExperimentConfig(
        datasets=_datasets(args),
        scores=scores,
        epsilons=epsilons,
        lams=args.lams,
        delta=args.delta,
        target=args.target,
        trials=trials,
        master_seed=args.seed,
        reg_bandwidth=args.bandwidth,
        test_fraction=args.test_fraction,
    )


def cmd_infer(args) -> int:
    epsilons = (args.epsilon,) if args.epsilon is not None else ()
    config = _config(args, scores=(ScoreKind(args.score),), epsilons=epsilons, trials=1)
    if len(config.datasets) != 1:
        raise ValueError("infer wants exactly one dataset")
    if len(config.lams) != 1:
        raise ValueError("infer wants exactly one lambda")
    row, report, private = run_trial(config, 0, 0, 0, 0, 0)
    print(f"dataset: {row.dataset}")
    print(f"score: {row.score}  lambda: {row.lam:g}  seed: {row.seed}")
    print(f"s_xy: {report.s_xy:.6g}  s_yx: {report.s_yx:.6g}  margin: {report.margin:.6g}")
    print(f"non-private decision: {report.decision.value}")
    for target, mech in private.items():
        released = tuple(
            f"{o.value:.6g}" if o.released else "bottom"
            for o in (mech.outcome_xy, mech.outcome_yx)
        )
        predicted = "n/a" if mech.predicted_utility is None else f"{mech.predicted_utility:.4f}"
        print(
            f"private[{target}] decision: {mech.decision.value}  released: {released[0]} vs "
            f"{released[1]}  sigma: {mech.noise_scale:.6g}  predicted_utility: {predicted}  "
            f"budget: ({mech.epsilon_spent:g}, {mech.delta_spent:g})"
        )
    if args.out is not None:
        emit_report([row], args.format, args.out)
    return 2 if row.decision == Decision.ABSTAIN.value else 0


def cmd_sweep(args) -> int:
    config = _config(args, scores=args.score, epsilons=args.epsilon or (), trials=args.trials)
    rows = run_sweep(config, jobs=args.jobs)
    text = emit_report(rows, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {len(rows)} rows to {args.out}")
    trial_rows = [r for r in rows if r.seed != "all"]
    errors = Counter(r.error for r in trial_rows if r.decision == "error")
    if errors:
        # class and stage only: some exception messages embed data values
        print(f"{errors.total()} of {len(trial_rows)} trials raised an error", file=sys.stderr)
        for site, count in sorted(errors.items()):
            print(f"  {site}: {count}", file=sys.stderr)
    if trial_rows and errors.total() == len(trial_rows):
        return 1
    if trial_rows and all(r.decision == "abstain" for r in trial_rows):
        return 2
    return 0


def cmd_verify(args) -> int:
    """Write the subcommand's verification table as CSV (every row has the
    same keys, read from the first), then the verdict."""
    if args.command == "verify-utility":
        rows, ok = verify_utility_table(args.gamma, args.sigma, args.draws, seed=args.seed)
    else:
        rows, ok = verify_sensitivity_table(
            args.m_grid, args.instances, args.grid_points, seed=args.seed
        )
    keys = list(rows[0])
    sys.stdout.write(csv_table(keys, ([row[k] for k in keys] for row in rows), digits=6))
    print(f"{args.command.removeprefix('verify-')} verification: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privcause",
        description="Differentially private bivariate causal inference experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="run one causal direction inference")
    _add_shared(p_infer)
    p_infer.add_argument("--score", choices=_SCORE_NAMES, default="hsic")
    p_infer.add_argument("--epsilon", type=float, default=None,
                         help="privacy budget; omit for a non-private run")
    p_infer.set_defaults(func=cmd_infer)

    p_sweep = sub.add_parser("sweep", help="full factorial experiment grid")
    _add_shared(p_sweep)
    p_sweep.add_argument("--score", default=(ScoreKind.HSIC,),
                         type=lambda text: _numbers(text, ScoreKind, f"scores from {_SCORE_NAMES}"),
                         help="comma-separated score kinds")
    p_sweep.add_argument("--epsilon", type=_floats, default=(),
                         help="epsilon grid; omit for a non-private sweep")
    p_sweep.add_argument("--trials", type=_positive_int, default=10,
                         help="trials per grid cell, default 10")
    p_sweep.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes, at most one per CPU "
                              "(output is identical for any value)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_vu = sub.add_parser("verify-utility", help="Monte Carlo check of the utility formulas")
    p_vu.add_argument("--gamma", type=_floats, default=(0.04, 0.1, 1.0))
    p_vu.add_argument("--sigma", type=_floats, default=(0.04, 0.1, 1.0))
    p_vu.add_argument("--draws", type=_positive_int, default=200_000)
    p_vu.add_argument("--seed", type=int, default=0)
    p_vu.set_defaults(func=cmd_verify)

    p_vs = sub.add_parser(
        "verify-sensitivity", help="brute-force check of the sensitivity bounds"
    )
    p_vs.add_argument("--m-grid", type=_ints, default=(10, 25, 50))
    p_vs.add_argument("--instances", type=_positive_int, default=20,
                      help="random datasets per cell")
    p_vs.add_argument("--grid-points", type=_positive_int, default=50,
                      help="replacement values per coordinate")
    p_vs.add_argument("--seed", type=int, default=0)
    p_vs.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
