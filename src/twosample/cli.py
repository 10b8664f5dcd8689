"""Command-line front end: single tests on CSVs, simulation runs, block scans."""

import argparse
import math
import os
import sys

import numpy as np

from .calibration import DEFAULT_SEED, ESTIMATORS, NullDrawConfig, run_test
from .config import load_configs
from .experiments import _write_json, run_power_curve, write_csv, write_manifest
from .realdata import block_summary, load_matrix_csv, run_realdata_blocks
from .statistic import KERNELS


def _report_fields(report, draws):
    """JSON fields of one TestReport, with the p-value's Monte-Carlo error."""
    p = report.p_value
    return {
        "statistic": report.statistic,
        "cutoff": report.cutoff,
        "p_value": report.p_value,
        "p_value_mcse": math.sqrt(p * (1.0 - p) / draws),
        "reject": report.reject,
        "trace": report.trace,
        "top_eigenvalue": report.top_eigenvalue,
        "negative_eigenvalues": report.negative_eigenvalues,
    }


def _resolve_seed(args):
    if args.seed is None:
        print(f"--seed not given; using fixed default {DEFAULT_SEED}")
        return DEFAULT_SEED
    return args.seed


def _checked(convert, ok, requirement):
    """An argparse type: convert the text, then reject a value failing `ok` (exit 2)."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "at least 1")
_LEVEL = _checked(float, lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")
_POSITIVE = _checked(float, lambda v: v > 0.0, "positive")


def _add_test_flags(parser):
    parser.add_argument("--x", required=True, help="CSV of the first sample; rows are observations")
    parser.add_argument("--y", required=True, help="CSV of the second sample")
    parser.add_argument("--kernel", choices=KERNELS, default="sign")
    parser.add_argument("--estimator", choices=ESTIMATORS, default="plain")
    parser.add_argument("--beta", type=_POSITIVE, default=0.25, help="taper smoothness exponent")
    parser.add_argument("--alpha", type=_LEVEL, default=0.05)
    parser.add_argument("--draws", type=_COUNT, default=10000, help="Monte-Carlo reference draws M")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--json", dest="json_path", default=None, help="write the report as JSON")


def _cmd_test(args):
    x = load_matrix_csv(args.x)
    y = load_matrix_csv(args.y)
    seed = _resolve_seed(args)
    config = NullDrawConfig(draws=args.draws, alpha=args.alpha, seed=seed)
    report = run_test(x, y, args.kernel, args.estimator, config, beta=args.beta)
    print(f"statistic  {report.statistic:.10g}")
    print(f"cutoff     {report.cutoff:.10g} (alpha={args.alpha})")
    print(f"p_value    {report.p_value:.10g}")
    print(f"reject     {report.reject}")
    if args.json_path:
        _write_json(
            args.json_path,
            {
                **_report_fields(report, args.draws),
                "p": int(x.shape[1]),
                "n1": int(x.shape[0]),
                "n2": int(y.shape[0]),
                "kernel": args.kernel,
                "estimator": args.estimator,
                "alpha": args.alpha,
                "M": args.draws,
                "seed": seed,
            },
        )
    return 0


def _cmd_simulate(args):
    configs = load_configs(
        args.config,
        on_default_seed=lambda name: print(
            f"{name}: no seed in config; using fixed default {DEFAULT_SEED}"
        ),
    )
    os.makedirs(args.out, exist_ok=True)
    for config in configs:
        rows = run_power_curve(config, threads=args.threads)
        csv_path = os.path.join(args.out, f"{config.scenario_id}.csv")
        manifest_path = os.path.join(args.out, f"{config.scenario_id}.json")
        write_csv(rows, csv_path)
        write_manifest(config, manifest_path)
        print(f"{config.scenario_id}: wrote {len(rows)} rows to {csv_path}")
    return 0


def _cmd_blocks(args):
    x = load_matrix_csv(args.x)
    y = load_matrix_csv(args.y)
    seed = _resolve_seed(args)
    reports = run_realdata_blocks(
        x,
        y,
        args.width,
        kernel=args.kernel,
        estimator=args.estimator,
        beta=args.beta,
        alpha=args.alpha,
        draws=args.draws,
        seed=seed,
    )
    summary = block_summary(reports)
    for item in reports:
        r = item.report
        print(
            f"block {item.index:3d} cols [{item.start}, {item.stop}): "
            f"statistic {r.statistic:.6g} p_value {r.p_value:.6g} reject {r.reject}"
        )
    print(f"blocks     {len(reports)}")
    print(f"mean p     {summary.mean_p_value:.10g}")
    if args.json_path:
        _write_json(
            args.json_path,
            {
                "width": args.width,
                "kernel": args.kernel,
                "estimator": args.estimator,
                "alpha": args.alpha,
                "M": args.draws,
                "seed": seed,
                "blocks": [
                    {
                        "index": item.index,
                        "start": item.start,
                        "stop": item.stop,
                        **_report_fields(item.report, args.draws),
                    }
                    for item in reports
                ],
                "summary": {
                    "mean_p_value": summary.mean_p_value,
                    "histogram": list(summary.histogram),
                },
            },
        )
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="twosample",
        description="Two-sample location tests with Monte-Carlo calibrated cutoffs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one test on a pair of CSV samples")
    _add_test_flags(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="run simulation scenarios from a JSON config")
    p_sim.add_argument("--config", required=True, help="JSON file with one scenario or a list")
    p_sim.add_argument("--out", required=True, help="output directory for CSV and manifest files")
    p_sim.add_argument("--threads", type=_COUNT, default=1)
    p_sim.set_defaults(func=_cmd_simulate)

    p_blocks = sub.add_parser("blocks", help="test consecutive column blocks of a CSV pair")
    _add_test_flags(p_blocks)
    p_blocks.add_argument("--width", type=_COUNT, required=True, help="columns per block")
    p_blocks.set_defaults(func=_cmd_blocks)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
