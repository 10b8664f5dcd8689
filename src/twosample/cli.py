"""Command-line front end: single tests on CSVs, simulation runs, block scans."""

import argparse
import contextlib
import dataclasses
import math
import os
import sys

import numpy as np

from .calibration import DEFAULT_SEED, NullDrawConfig, run_test
from .covariance import _BETA, ESTIMATORS, PLAIN, _taper_bandwidth
from .experiments import _write_json, load_configs, run_power_curves, write_csv, write_manifest
from .realdata import block_summary, load_matrix_csv, run_realdata_blocks
from .statistic import KERNELS, SIGN, _check_int


def _report_fields(report, draws):
    """JSON fields of one TestReport, with the p-value's Monte-Carlo error."""
    p = report.p_value
    return {**dataclasses.asdict(report), "p_value_mcse": math.sqrt(p * (1.0 - p) / draws)}


def _flag(convert, check):
    """An argparse type: the text converted, then checked by the library code that uses it."""

    def parse(text):
        value = convert(text)
        try:
            check(value)
        except ValueError as err:  # a usage error (exit 2), raised before any file is read
            raise argparse.ArgumentTypeError(str(err)) from None
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _add_test_flags(parser):
    beta = _flag(float, lambda v: _taper_bandwidth(v, 2, 1))
    alpha = _flag(float, lambda v: NullDrawConfig(alpha=v))
    draws = _flag(int, lambda v: NullDrawConfig(draws=v))
    parser.add_argument("--x", required=True, help="CSV of the first sample; rows are observations")
    parser.add_argument("--y", required=True, help="CSV of the second sample")
    parser.add_argument("--kernel", choices=KERNELS, default=SIGN)
    parser.add_argument("--estimator", choices=ESTIMATORS, default=PLAIN)
    parser.add_argument("--beta", type=beta, default=_BETA, help="taper smoothness exponent")
    parser.add_argument("--alpha", type=alpha, default=NullDrawConfig.alpha)
    parser.add_argument(
        "--draws", type=draws, default=NullDrawConfig.draws, help="Monte-Carlo reference draws M"
    )
    parser.add_argument("--seed", type=_flag(int, lambda v: NullDrawConfig(seed=v)), default=None)
    parser.add_argument("--json", dest="json_path", default=None, help="write the report as JSON")


def _check_not_an_input(target, inputs):
    """Refuse an output target that is one of the (flag, path) inputs.

    Compared with os.path.samefile, so a link or another spelling of the
    path counts; a target that does not exist yet is none of them.
    """
    for flag, path in inputs:
        if os.path.exists(target) and os.path.exists(path) and os.path.samefile(target, path):
            raise ValueError(f"{target} is the {flag} file {path}: an output may not replace it")


def _read_inputs(args):
    """The two samples of `test` and `blocks`, and their NullDrawConfig.

    A --json target that is empty, a directory, lies in none, or is the --x
    or --y file, is refused first: before the run rather than after it, by
    its own name, not its temp file's. Through a link it is judged as the
    file the link names, which is the one the report is written to.
    """
    if args.json_path is not None:
        folder = os.path.dirname(os.path.realpath(args.json_path))
        if not args.json_path or os.path.isdir(args.json_path) or not os.path.isdir(folder):
            raise ValueError(f"--json {args.json_path}: not a file in an existing directory")
        _check_not_an_input(args.json_path, [("--x", args.x), ("--y", args.y)])
    x = load_matrix_csv(args.x)
    y = load_matrix_csv(args.y)
    seed = args.seed
    if seed is None:
        print(f"--seed not given; using fixed default {DEFAULT_SEED}")
        seed = DEFAULT_SEED
    return x, y, NullDrawConfig(draws=args.draws, alpha=args.alpha, seed=seed)


def _settings(args, config):
    """The JSON keys that record how a test was run."""
    return {
        "kernel": args.kernel,
        "estimator": args.estimator,
        "alpha": config.alpha,
        "M": config.draws,
        "seed": config.seed,
    }


def _cmd_test(args):
    x, y, config = _read_inputs(args)
    report = run_test(x, y, args.kernel, args.estimator, config, beta=args.beta)
    print(f"statistic  {report.statistic:.10g}")
    print(f"cutoff     {report.cutoff:.10g} (alpha={config.alpha})")
    print(f"p_value    {report.p_value:.10g}")
    print(f"reject     {report.reject}")
    if args.json_path is not None:
        _write_json(
            args.json_path,
            {
                **_report_fields(report, config.draws),
                "p": int(x.shape[1]),
                "n1": int(x.shape[0]),
                "n2": int(y.shape[0]),
                **_settings(args, config),
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
    for config in configs:  # before --out is made, so a refusal writes nothing
        for ext in (".csv", ".json"):
            target = os.path.join(args.out, config.scenario_id + ext)
            _check_not_an_input(target, [("--config", args.config)])
    os.makedirs(args.out, exist_ok=True)
    # closing() terminates the workers if a write fails; with the curves
    # first, zip runs them to their end, so the workers are joined before we return
    with contextlib.closing(run_power_curves(configs, threads=args.threads)) as curves:
        for rows, config in zip(curves, configs):
            csv_path = os.path.join(args.out, f"{config.scenario_id}.csv")
            manifest_path = os.path.join(args.out, f"{config.scenario_id}.json")
            write_csv(rows, csv_path)
            write_manifest(config, manifest_path)
            print(f"{config.scenario_id}: wrote {len(rows)} rows to {csv_path}")
    return 0


def _cmd_blocks(args):
    x, y, config = _read_inputs(args)
    reports = run_realdata_blocks(
        x, y, args.width, args.kernel, args.estimator, config, beta=args.beta
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
    if args.json_path is not None:
        _write_json(
            args.json_path,
            {
                "width": args.width,
                **_settings(args, config),
                "blocks": [
                    {
                        "index": item.index,
                        "start": item.start,
                        "stop": item.stop,
                        **_report_fields(item.report, config.draws),
                    }
                    for item in reports
                ],
                "summary": dataclasses.asdict(summary),
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
    threads = _flag(int, lambda v: _check_int("threads", v, 1))
    p_sim.add_argument("--threads", type=threads, default=1)
    p_sim.set_defaults(func=_cmd_simulate)

    p_blocks = sub.add_parser("blocks", help="test consecutive column blocks of a CSV pair")
    _add_test_flags(p_blocks)
    width = _flag(int, lambda v: _check_int("width", v, 1))
    p_blocks.add_argument("--width", type=width, required=True, help="columns per block")
    p_blocks.set_defaults(func=_cmd_blocks)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # numpy's names the size it could not allocate
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
