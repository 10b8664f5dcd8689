"""Command-line front end: single tests on CSVs, simulation runs, block scans."""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .calibration import DEFAULT_SEED, ESTIMATORS, NullDrawConfig, TestReport, run_test
from .config import config_from_dict
from .experiments import run_power_curve, write_csv, write_manifest
from .seeding import derive_seed
from .statistic import KERNELS, _check_pair


def load_matrix_csv(path):
    """Read a numeric CSV as an observations-by-variables matrix.

    A single leading header row is skipped when its cells fail to parse as
    numbers. Ragged rows, non-numeric cells, and non-finite values raise
    ValueError naming the offending line; fully blank lines are ignored.
    """
    rows = []
    with open(path, newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            rows.append((lineno, [cell.strip() for cell in record]))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    start = 0
    try:
        [float(cell) for cell in rows[0][1]]
    except ValueError:
        start = 1  # header row
        if len(rows) == 1:
            raise ValueError(f"{path}: header row but no data rows") from None
    data = []
    width = None
    for lineno, cells in rows[start:]:
        try:
            values = [float(cell) for cell in cells]
        except ValueError as err:
            raise ValueError(f"{path}: line {lineno}: non-numeric cell") from err
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(
                f"{path}: line {lineno}: expected {width} columns, found {len(values)}"
            )
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        data.append(values)
    return np.asarray(data, dtype=float)


@dataclass(frozen=True)
class BlockReport:
    """Test outcome for one block of consecutive columns [start, stop)."""

    index: int
    start: int
    stop: int
    report: TestReport


@dataclass(frozen=True)
class BlockSummary:
    mean_p_value: float
    histogram: tuple  # 20 equal-width p-value bins over [0, 1]


def run_realdata_blocks(
    x,
    y,
    width,
    *,
    kernel="sign",
    estimator="plain",
    beta=0.25,
    alpha=0.05,
    draws=10000,
    seed=DEFAULT_SEED,
):
    """Column-block scan: one test per block of `width` consecutive columns.

    Trailing columns short of a full block are dropped. Block b uses the
    seed derived from (seed, b), so its report does not depend on how many
    other blocks run or in what order.
    """
    mx, my = _check_pair(x, y)
    if width < 1:
        raise ValueError("width must be at least 1")
    cols = mx.shape[1]
    blocks = cols // width
    if blocks == 0:
        raise ValueError(f"width {width} exceeds the {cols} available columns")
    reports = []
    for b in range(blocks):
        lo, hi = b * width, (b + 1) * width
        config = NullDrawConfig(draws=draws, alpha=alpha, seed=derive_seed(seed, b))
        result = run_test(mx[:, lo:hi], my[:, lo:hi], kernel, estimator, config, beta=beta)
        reports.append(BlockReport(index=b, start=lo, stop=hi, report=result))
    return reports


def block_summary(reports):
    """Mean p-value and 20-bin histogram over [0, 1] across blocks."""
    pvals = np.array([item.report.p_value for item in reports])
    counts, _ = np.histogram(pvals, bins=20, range=(0.0, 1.0))
    return BlockSummary(
        mean_p_value=float(pvals.mean()),
        histogram=tuple(int(c) for c in counts),
    )


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


def _write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _resolve_seed(args):
    if args.seed is None:
        print(f"--seed not given; using fixed default {DEFAULT_SEED}")
        return DEFAULT_SEED
    return args.seed


def _thread_count(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_test_flags(parser):
    parser.add_argument("--x", required=True, help="CSV of the first sample; rows are observations")
    parser.add_argument("--y", required=True, help="CSV of the second sample")
    parser.add_argument("--kernel", choices=KERNELS, default="sign")
    parser.add_argument("--estimator", choices=ESTIMATORS, default="plain")
    parser.add_argument("--beta", type=float, default=0.25, help="taper smoothness exponent")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--draws", type=int, default=10000, help="Monte-Carlo reference draws M")
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
    with open(args.config) as fh:
        payload = json.load(fh)
    items = payload if isinstance(payload, list) else [payload]
    configs = []
    for item in items:
        if isinstance(item, dict) and "seed" not in item:
            name = item.get("scenario_id", "<unnamed>")
            print(f"{name}: no seed in config; using fixed default {DEFAULT_SEED}")
        configs.append(config_from_dict(item))
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
    p_sim.add_argument("--threads", type=_thread_count, default=1)
    p_sim.set_defaults(func=_cmd_simulate)

    p_blocks = sub.add_parser("blocks", help="test consecutive column blocks of a CSV pair")
    _add_test_flags(p_blocks)
    p_blocks.add_argument("--width", type=int, required=True, help="columns per block")
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
