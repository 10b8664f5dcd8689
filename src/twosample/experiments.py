"""Replication harness: size experiments, power curves, CSV/JSON emission."""

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, replace

import numpy as np

from .baselines import hotelling_t2
from .calibration import NullDrawConfig, run_test
from .config import config_to_dict
from .datagen import generate_scenario
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
    """One replication: sample, test, return the rejection flag.

    The data stream is keyed by (seed, r, 0) and the null-draw stream by
    (seed, r, 1), so neither depends on the delta grid position or on which
    worker runs the task.
    """
    config, r = task
    x, y = generate_scenario(config, substream(config.seed, r, 0))
    if config.estimator == "hotelling":
        return hotelling_t2(x, y).p_value <= config.alpha
    draw_config = NullDrawConfig(
        draws=config.draws, alpha=config.alpha, seed=derive_seed(config.seed, r, 1)
    )
    report = run_test(x, y, config.kernel, config.estimator, draw_config, beta=config.beta)
    return report.reject


def _run_delta(config, delta, threads):
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    start = time.perf_counter()
    single = replace(config, deltas=(float(delta),))
    tasks = [(single, r) for r in range(config.replications)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = max(1, config.replications // (threads * 4))
            flags = list(pool.map(_replicate, tasks, chunksize=chunk))
    else:
        flags = [_replicate(t) for t in tasks]
    frac = int(np.count_nonzero(flags)) / config.replications
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
        delta=float(delta),
        reject_frac=frac,
        mcse=math.sqrt(frac * (1.0 - frac) / config.replications),
        seconds=time.perf_counter() - start,
    )


def run_size_experiment(config, threads=1):
    """Rejection fraction at the config's single delta (normally 0)."""
    if len(config.deltas) != 1:
        raise ValueError("size experiment expects a single-delta config")
    return _run_delta(config, config.deltas[0], threads)


def run_power_curve(config, threads=1):
    """One ResultRow per grid delta; the delta=0 row equals the size run."""
    return [_run_delta(config, d, threads) for d in config.deltas]


def write_csv(rows, path):
    """Write ResultRows under the fixed column schema, one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(astuple(row) for row in rows)


def write_manifest(config, path):
    """Echo the full scenario config as sorted, indented JSON."""
    with open(path, "w") as fh:
        fh.write(json.dumps(config_to_dict(config), indent=2, sort_keys=True))
        fh.write("\n")
