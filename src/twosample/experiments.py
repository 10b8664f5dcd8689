"""Replication harness: power curves over a delta grid, CSV/JSON emission."""

import contextlib
import csv
import itertools
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import calibration
from ._blas import _openblas_threads
from .baselines import hotelling_t2
from .config import HOTELLING, config_to_dict
from .datagen import generate_scenario, shift_vector
from .seeding import substream


@dataclass(frozen=True)
class ResultRow:
    """One CSV line; CSV_COLUMNS names its fields, draws as M and replications as R."""

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


_CSV_NAMES = {"draws": "M", "replications": "R"}
CSV_COLUMNS = tuple(_CSV_NAMES.get(f.name, f.name) for f in fields(ResultRow))

# workers must inherit the parent's one-thread BLAS, which a forkserver or
# spawned worker would not; None (no fork here) keeps the default method
_FORK = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else None
)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS at one thread and restore its count after.

    Entered before a fork pool starts, so each worker inherits one BLAS
    thread: workers that each start a multi-threaded BLAS oversubscribe the
    cores. Without an OpenBLAS thread setter it changes nothing.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    setter, getter = calls
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)


def _replicate(task):
    """One replication: sample once, return the rejection flag at each delta.

    The data stream is keyed by (seed, r, 0) and the null-draw stream by
    (seed, r, 1). The sampler draws y as location + noise, so y0 + the shift
    at d is bit for bit the y that a config with the single delta d draws.
    The kernel tests at all deltas share the null normals (`_shift_tests`)
    and reject when T > c(alpha), as `run_test` does.
    """
    config, r = task
    x, y0 = generate_scenario(replace(config, deltas=(0.0,)), substream(config.seed, r, 0))
    shifts = [shift_vector(config.p, d) for d in config.deltas]
    if config.estimator == HOTELLING:
        return [hotelling_t2(x, y0 + s).p_value <= config.alpha for s in shifts]
    stats, _, draws = calibration._shift_tests(
        x, y0, shifts, config.kernel, config.estimator, config._draw_config(r), config.beta
    )
    # a cutoff per calibration (called on the module, so its wrappers see it)
    cutoffs = [calibration.empirical_quantile(d, 1.0 - config.alpha) for d in draws.T]
    return np.asarray(stats) > cutoffs  # one cutoff broadcasts over the grid


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


def run_power_curves(configs, threads=1):
    """Yield each config's ResultRows, one list per config, in order.

    One row per grid delta; a one-point grid is a size experiment.
    threads > 1 runs every config's replications in one fork pool of
    min(threads, total replications) workers, each with one BLAS thread
    (the parent's count is restored after); when that is 1 they run
    serially. All replications are queued at once, so the workers go on
    with later configs while the caller handles a yielded curve. On an
    error or an early close the pending replications are cancelled.
    Each row's `seconds` is the wall time since the previous curve was
    done (since the start for the first) divided by the number of deltas,
    so the rows sum to the run's wall time.
    """
    calibration._check_int("threads", threads, 1)
    start = time.perf_counter()
    configs = list(configs)
    tasks = [(config, r) for config in configs for r in range(config.replications)]
    workers = min(threads, len(tasks))
    with contextlib.ExitStack() as stack:
        flags = map(_replicate, tasks)
        if workers > 1:
            stack.enter_context(_one_blas_thread())
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=_FORK)
            stack.callback(pool.shutdown, cancel_futures=True)
            # a chunk size dividing every R keeps each chunk inside one config,
            # so a failing replication cannot take an earlier curve with it
            chunk = max(1, len(tasks) // (workers * 4))
            chunk = math.gcd(chunk, *(c.replications for c in configs))
            flags = pool.map(_replicate, tasks, chunksize=chunk)
        for config in configs:
            # rejections per delta, over this config's replications
            counts = np.count_nonzero(list(itertools.islice(flags, config.replications)), axis=0)
            done = time.perf_counter()
            seconds, start = (done - start) / len(config.deltas), done
            yield [_row(config, d, c, seconds) for d, c in zip(config.deltas, counts)]


def run_power_curve(config, threads=1):
    """The ResultRows of one config; see run_power_curves."""
    [rows] = run_power_curves([config], threads)
    return rows


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
