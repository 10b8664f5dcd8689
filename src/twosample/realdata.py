"""Real-data tests: numeric CSV samples and column-block scans of a pair."""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .calibration import PLAIN, NullDrawConfig, TestReport, _check_int, run_test
from .covariance import _BETA
from .seeding import derive_seed
from .statistic import SIGN, _check_pair


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_matrix_csv(path):
    """Read a numeric CSV as an observations-by-variables matrix.

    A first row in which no cell parses as a number is a header and is
    skipped. A header of another width than the data, ragged rows,
    non-numeric cells, and non-finite values raise ValueError naming the
    offending line; fully blank lines are ignored. A leading UTF-8
    byte-order mark, as spreadsheet exports write, is dropped.
    """
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            rows.append((lineno, [cell.strip() for cell in record]))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    start = 0
    if not any(_is_number(cell) for cell in rows[0][1]):
        start = 1  # header row
        if len(rows) == 1:
            raise ValueError(f"{path}: header row but no data rows")
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
    if start and len(rows[0][1]) != width:
        found = f"header has {len(rows[0][1])} columns, the data have {width}"
        raise ValueError(f"{path}: line {rows[0][0]}: {found}")
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


def run_realdata_blocks(x, y, width, kernel=SIGN, estimator=PLAIN, config=None, *, beta=_BETA):
    """Column-block scan: one `run_test` per block of `width` consecutive columns.

    Trailing columns short of a full block are dropped. Block b runs with
    `config` (default `NullDrawConfig()`) at the seed derived from
    (config.seed, b), so its report does not depend on how many other
    blocks run or in what order.
    """
    mx, my = _check_pair(x, y)
    _check_int("width", width, 1)
    config = NullDrawConfig() if config is None else config
    cols = mx.shape[1]
    blocks = cols // width
    if blocks == 0:
        raise ValueError(f"width {width} exceeds the {cols} available columns")
    reports = []
    for b in range(blocks):
        lo, hi = b * width, (b + 1) * width
        block_config = replace(config, seed=derive_seed(config.seed, b))
        result = run_test(mx[:, lo:hi], my[:, lo:hi], kernel, estimator, block_config, beta=beta)
        reports.append(BlockReport(index=b, start=lo, stop=hi, report=result))
    return reports


def block_summary(reports):
    """Mean p-value and 20-bin histogram over [0, 1] across one or more blocks."""
    if not reports:
        raise ValueError("block_summary needs at least one block report; the list is empty")
    pvals = np.array([item.report.p_value for item in reports])
    counts, _ = np.histogram(pvals, bins=20, range=(0.0, 1.0))
    return BlockSummary(
        mean_p_value=float(pvals.mean()),
        histogram=tuple(int(c) for c in counts),
    )
