"""Scenario configs and the replication harness: power curves over a delta grid, CSV/JSON."""

import contextlib
import csv
import json
import math
import multiprocessing
import os
import time
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from . import calibration
from ._blas import _one_blas_thread
from .baselines import _check_hotelling_dims, hotelling_t2
from .calibration import DEFAULT_SEED, NullDrawConfig
from .covariance import _BETA, ESTIMATORS, PLAIN, _taper_bandwidth
from .datagen import COV_FORMS, generate_scenario, parse_family, shift_vector
from .seeding import derive_seed, substream
from .statistic import _MIN_ROWS, KERNELS, SIGN, _check_choice, _check_int, _is_real, _number

HOTELLING = "hotelling"
ESTIMATOR_CHOICES = ESTIMATORS + (HOTELLING,)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: model, design sizes, test choice, and seeds.

    `deltas` is the location-shift grid; a singleton (0.0,) describes a size
    experiment. `draws` is the Monte-Carlo reference size M per test and
    `replications` the number R of independent data replications. `seed`
    is any integer: the replications draw from seeds derived from it.
    """

    scenario_id: str
    family: str
    cov_form: str
    p: int
    n1: int
    n2: int
    deltas: tuple = (0.0,)
    kernel: str = SIGN
    estimator: str = PLAIN
    beta: float = _BETA
    alpha: float = NullDrawConfig.alpha
    draws: int = 1000  # below NullDrawConfig.draws on purpose: a scenario runs R tests
    replications: int = 500
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not isinstance(self.scenario_id, str) or not self.scenario_id:
            raise ValueError(f"scenario_id must be a nonempty string, got {self.scenario_id!r}")
        # it names the scenario's output files
        if self.scenario_id in (".", "..") or "/" in self.scenario_id or "\\" in self.scenario_id:
            raise ValueError(f"scenario_id {self.scenario_id!r} is not a plain file name")
        parse_family(self.family)
        # the form, each delta and the kernel follow the rules of the code that uses them
        _check_choice("covariance form", self.cov_form, COV_FORMS)
        # checked before == compares it, which on a numpy array is elementwise
        _check_choice("estimator", self.estimator, ESTIMATOR_CHOICES)
        rows = 1 if self.estimator == HOTELLING else _MIN_ROWS  # hotelling: see its p rule below
        # a numpy number is kept as the Python number it equals, which a manifest can write
        for name, low in (("p", 1), ("n1", rows), ("n2", rows), ("replications", 1)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low))
        object.__setattr__(self, "seed", _check_int("seed", self.seed))
        if not isinstance(self.deltas, (list, tuple)) or not all(map(_is_real, self.deltas)):
            raise ValueError(f"deltas must be a list of numbers, got {self.deltas!r}")
        grid = tuple(float(d) for d in self.deltas)
        if not grid:
            raise ValueError("deltas must be a nonempty grid")
        for d in grid:
            shift_vector(1, d)
        object.__setattr__(self, "deltas", grid)
        _check_choice("kernel", self.kernel, KERNELS)
        if self.estimator == HOTELLING:
            _check_hotelling_dims(self.p, self.n1, self.n2, f"scenario {self.scenario_id!r}: ")
        # beta, draws and alpha follow the rules of the tests that use them, and are kept alike
        _taper_bandwidth(self.beta, self.n1 + self.n2, self.p)
        NullDrawConfig(self.draws, self.alpha)
        for name in ("draws", "alpha", "beta"):
            object.__setattr__(self, name, _number(getattr(self, name)))


def config_to_dict(config):
    d = asdict(config)
    d["deltas"] = list(config.deltas)
    return d


def config_from_dict(payload):
    if not isinstance(payload, dict):
        raise ValueError(f"a scenario must be a JSON object, got {payload!r}")
    names = {f.name for f in fields(ScenarioConfig)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    try:
        return ScenarioConfig(**payload)
    except TypeError as err:
        raise ValueError(f"incomplete config: {err}") from err


def load_configs(path, on_default_seed=None):
    """Read one scenario object or a list of them from a JSON file.

    An empty list is an error. Every scenario is validated, and the
    scenario_ids checked to be unique, before any is returned. `on_default_seed`, if given, is then called with
    the scenario_id of each scenario that names no seed and so runs with
    DEFAULT_SEED.
    """
    with open(path) as fh:
        payload = json.load(fh)
    items = payload if isinstance(payload, list) else [payload]
    if not items:
        raise ValueError(f"{path}: the scenario list is empty")
    configs = [config_from_dict(item) for item in items]
    ids = [config.scenario_id for config in configs]
    duplicates = sorted({name for name in ids if ids.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate scenario_id {', '.join(map(repr, duplicates))}")
    if on_default_seed is not None:
        for item, config in zip(items, configs):
            if "seed" not in item:
                on_default_seed(config.scenario_id)
    return configs


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
# the columns that repeat a scenario field, copied from the config into each row
_SCENARIO_FIELDS = tuple(
    f.name for f in fields(ResultRow) if f.name in {g.name for g in fields(ScenarioConfig)}
)

# workers must inherit the caller's state, which a forkserver or spawned
# worker would not; where there is no fork, the default start method is used.
# Each worker pins its own BLAS to one thread (`_work`), which under fork,
# inheriting the run's one thread, sets nothing
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


def _replicate(config, r):
    """One replication: sample once, return the rejection flag at each delta.

    The data stream is keyed by (seed, r, 0) and the null-draw stream by
    (seed, r, 1). The sampler draws y as location + noise, so y0 + the shift
    at d is bit for bit the y that a config with the single delta d draws.
    The kernel tests at all deltas share the null normals (`_shift_tests`).
    It runs at one BLAS thread, in the caller or in a worker (see
    run_power_curves).
    """
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
        **{name: getattr(config, name) for name in _SCENARIO_FIELDS},
        delta=delta,
        reject_frac=frac,
        mcse=math.sqrt(frac * (1.0 - frac) / config.replications),
        seconds=seconds,
    )


def _counts(configs, w, workers):
    """Per config in turn, its rejections per delta over the replications r = w mod workers."""
    for config in configs:
        counts = np.zeros(len(config.deltas), dtype=int)
        for r in range(w, config.replications, workers):
            counts += _replicate(config, r)
        yield counts


def _work(configs, w, workers, conn):
    """Worker w: send the counts of `_counts`, config by config.

    It runs at one BLAS thread, as the caller does. A replication that
    raises sends its exception instead, and ends the work.
    """
    try:
        with _one_blas_thread():
            for counts in _counts(configs, w, workers):
                conn.send(counts)
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
    Each replication's tests run their BLAS work at one OpenBLAS thread
    (`_one_blas_thread`), so no row depends on the caller's BLAS count,
    also when two runs overlap. The whole run, its yields included, holds
    OpenBLAS at one thread as well (process-wide: caller BLAS work between
    yields too), so that the caller's OpenBLAS pool threads do not spin
    beside the workers, as a restore between configs would leave them.
    The run uses W = min(threads, the largest R) processes: the caller and
    W - 1 workers, forked once per run (a worker beyond the largest R
    would have nothing to run). Of each config, process w runs its share
    of the replications (`_counts`), the caller as process 0, which then
    adds the counts that each worker sends after each config. The workers
    go on with later configs while the caller handles a yielded curve.
    When W is 1 every replication runs in the caller. A replication's
    exception is raised in the caller; a worker that exits without
    sending its counts raises ChildProcessError. On an error or an early
    close the workers are terminated and joined.
    Each row's `seconds` is the wall time since the previous curve was
    done (since the start for the first) divided by the number of deltas,
    so the rows sum to the run's wall time.
    """
    _check_int("threads", threads, 1)
    start = time.perf_counter()
    configs = list(configs)
    workers = min(threads, max((c.replications for c in configs), default=1))
    with _one_blas_thread(), contextlib.ExitStack() as stack:
        started = [_start_worker(stack, configs, w, workers) for w in range(1, workers)]
        for config, counts in zip(configs, _counts(configs, 0, workers)):
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
