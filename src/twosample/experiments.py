"""Replication harness: power curves over a delta grid, CSV/JSON emission."""

import contextlib
import csv
import json
import math
import multiprocessing
import os
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import calibration
from ._blas import _one_blas_thread
from .baselines import hotelling_t2
from .calibration import NullDrawConfig
from .config import HOTELLING, config_to_dict
from .datagen import generate_scenario, shift_vector
from .seeding import derive_seed, substream


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

# workers must inherit the run's one-thread BLAS (`_one_blas_thread`) and the
# caller's state, which a forkserver or spawned worker would not; where there
# is no fork, the default start method is used
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


def _replicate(task):
    """One replication: sample once, return the rejection flag at each delta.

    The data stream is keyed by (seed, r, 0) and the null-draw stream by
    (seed, r, 1). The sampler draws y as location + noise, so y0 + the shift
    at d is bit for bit the y that a config with the single delta d draws.
    The kernel tests at all deltas share the null normals (`_shift_tests`).
    It runs at one BLAS thread, in the caller or in a worker (see
    run_power_curves).
    """
    config, r = task
    x, y0 = generate_scenario(replace(config, deltas=(0.0,)), substream(config.seed, r, 0))
    shifts = [shift_vector(config.p, d) for d in config.deltas]
    if config.estimator == HOTELLING:
        return [hotelling_t2(x, y0 + s).p_value <= config.alpha for s in shifts]
    draw_config = NullDrawConfig(config.draws, config.alpha, derive_seed(config.seed, r, 1))
    reports = calibration._shift_tests(
        x, y0, shifts, config.kernel, config.estimator, draw_config, config.beta
    )
    return [report.reject for report in reports]


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


def _count(config, share):
    """Rejections per delta over the replications r in `share` of config."""
    counts = np.zeros(len(config.deltas), dtype=int)
    for r in share:
        counts += _replicate((config, r))
    return counts


def _work(configs, w, workers, conn):
    """Worker w: send the counts of replications r = w mod workers, config by config.

    A replication that raises sends its exception instead, and ends the work.
    """
    try:
        for config in configs:
            conn.send(_count(config, range(w, config.replications, workers)))
    except Exception as err:
        conn.send(err)
    finally:
        conn.close()


def _start_worker(stack, configs, w, workers):
    """Start worker w, which `stack` terminates and joins; its process and receiving end."""
    recv, send = _CONTEXT.Pipe(duplex=False)
    stack.enter_context(recv)
    process = _CONTEXT.Process(target=_work, args=(configs, w, workers, send), daemon=True)
    process.start()
    stack.callback(process.join)
    stack.callback(process.terminate)
    # the worker holds the only send end, so its exit closes the pipe
    send.close()
    return process, recv


def _received(process, recv, config):
    """The counts of config that a worker sends; its exception or exit is raised."""
    try:
        message = recv.recv()
    except EOFError:
        process.join()
        raise ChildProcessError(
            f"worker process {process.pid} exited with code {process.exitcode} "
            f"before sending its counts for {config.scenario_id!r}"
        ) from None
    if isinstance(message, Exception):
        raise message
    return message


def run_power_curves(configs, threads=1):
    """Yield each config's ResultRows, one list per config, in order.

    One row per grid delta; a one-point grid is a size experiment.
    The whole run, its yields included, holds OpenBLAS at one thread
    (`_one_blas_thread`, process-wide: caller BLAS work between yields too),
    so no row depends on the caller's BLAS count, unless two runs overlap.
    The run uses W = min(threads, the largest R) processes: the caller and
    W - 1 workers, forked once per run (a worker beyond the largest R
    would have nothing to run). Of each config, worker w runs the replications r = w mod W,
    and the caller runs r = 0 mod W itself, then adds the counts that
    each worker sends after each config. The workers go on with later
    configs while the caller handles a yielded curve. When W is 1 every
    replication runs in the caller. A replication's exception is raised
    in the caller; a worker that exits without sending its counts raises
    ChildProcessError. On an error or an early close the workers are
    terminated and joined.
    Each row's `seconds` is the wall time since the previous curve was
    done (since the start for the first) divided by the number of deltas,
    so the rows sum to the run's wall time.
    """
    calibration._check_int("threads", threads, 1)
    start = time.perf_counter()
    configs = list(configs)
    workers = min(threads, max((c.replications for c in configs), default=1))
    with _one_blas_thread(), contextlib.ExitStack() as stack:
        started = [_start_worker(stack, configs, w, workers) for w in range(1, workers)]
        for config in configs:
            counts = _count(config, range(0, config.replications, workers))
            for process, recv in started:
                counts += _received(process, recv, config)
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
