"""Replication harness: power curves over a delta grid, CSV/JSON emission."""

import contextlib
import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, replace

import numpy as np

from .baselines import hotelling_t2
from .calibration import NullDrawConfig, _shift_tests
from .config import HOTELLING, config_to_dict
from .datagen import generate_scenario, shift_vector
from .seeding import derive_seed, substream

CSV_COLUMNS = (
    "scenario_id",
    "family",
    "cov_form",
    "p",
    "n1",
    "n2",
    "kernel",
    "estimator",
    "alpha",
    "M",
    "R",
    "delta",
    "reject_frac",
    "mcse",
    "seconds",
)


@dataclass(frozen=True)
class ResultRow:
    """One CSV line; the fields are in CSV_COLUMNS order (draws is M, replications R)."""

    scenario_id: str
    family: str
    cov_form: str
    p: int
    n1: int
    n2: int
    kernel: str
    estimator: str
    alpha: float
    draws: int
    replications: int
    delta: float
    reject_frac: float
    mcse: float
    seconds: float


def _replicate(task):
    """One replication: sample once, return the rejection flag at each delta.

    The data stream is keyed by (seed, r, 0) and the null-draw stream by
    (seed, r, 1). The sampler draws y as location + noise, so y0 + the shift
    at d is bit for bit the y that a config with the single delta d draws.
    The kernel tests at all deltas share one calibration where they can
    (`_shift_tests`) and reject when T > c(alpha), as `run_test` does.
    """
    config, r = task
    x, y0 = generate_scenario(replace(config, deltas=(0.0,)), substream(config.seed, r, 0))
    shifts = [shift_vector(config.p, d) for d in config.deltas]
    if config.estimator == HOTELLING:
        return [hotelling_t2(x, y0 + s).p_value <= config.alpha for s in shifts]
    draw_config = NullDrawConfig(
        draws=config.draws, alpha=config.alpha, seed=derive_seed(config.seed, r, 1)
    )
    tests = _shift_tests(
        x, y0, shifts, config.kernel, config.estimator, draw_config, config.beta
    )
    return [stat > cutoff for stat, cutoff in tests]


def _row(config, delta, count, seconds):
    frac = int(count) / config.replications
    return ResultRow(
        scenario_id=config.scenario_id,
        family=config.family,
        cov_form=config.cov_form,
        p=config.p,
        n1=config.n1,
        n2=config.n2,
        kernel=config.kernel,
        estimator=config.estimator,
        alpha=config.alpha,
        draws=config.draws,
        replications=config.replications,
        delta=delta,
        reject_frac=frac,
        mcse=math.sqrt(frac * (1.0 - frac) / config.replications),
        seconds=seconds,
    )


def run_power_curve(config, threads=1):
    """One ResultRow per grid delta; a one-point grid is a size experiment.

    threads > 1 runs the replications in one process pool of
    min(threads, replications) workers; when that is 1 they run serially.
    Each row's `seconds` is the curve's wall time divided by the number of
    deltas.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    start = time.perf_counter()
    tasks = [(config, r) for r in range(config.replications)]
    workers = min(threads, config.replications)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, config.replications // (workers * 4))
            flags = list(pool.map(_replicate, tasks, chunksize=chunk))
    else:
        flags = [_replicate(t) for t in tasks]
    seconds = (time.perf_counter() - start) / len(config.deltas)
    counts = np.count_nonzero(flags, axis=0)  # rejections per delta
    return [_row(config, d, c, seconds) for d, c in zip(config.deltas, counts)]


@contextlib.contextmanager
def _replacing(path, newline=None):
    """A text file that replaces `path` only once the with block completes.

    It is written beside `path` and moved over it with os.replace, so a
    failed or interrupted write leaves any earlier file whole. A target
    that is not a regular file, such as a pipe or /dev/stdout, cannot be
    replaced and is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline=newline) as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv(rows, path):
    """Write ResultRows under the fixed column schema, one line per row."""
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(astuple(row) for row in rows)


def _write_json(path, payload):
    """Write payload as sorted, indented JSON ending in a newline."""
    with _replacing(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def write_manifest(config, path):
    """Echo the full scenario config as sorted, indented JSON."""
    _write_json(path, config_to_dict(config))
