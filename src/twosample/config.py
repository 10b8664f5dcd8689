"""Scenario configuration shared by the experiment harness and the CLI."""

import json
from dataclasses import asdict, dataclass, fields

from .baselines import _check_hotelling_dims
from .calibration import DEFAULT_SEED, ESTIMATORS, PLAIN, NullDrawConfig, _check_int
from .covariance import _BETA, _is_real, _taper_bandwidth
from .datagen import parse_family, scenario_sigma, shift_vector
from .statistic import _MIN_ROWS, SIGN, _check_kernel

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
        scenario_sigma(self.cov_form, 1)
        rows = 1 if self.estimator == HOTELLING else _MIN_ROWS  # hotelling: see its p rule below
        for name, low in (("p", 1), ("n1", rows), ("n2", rows), ("replications", 1)):
            _check_int(name, getattr(self, name), low)
        _check_int("seed", self.seed)
        if not isinstance(self.deltas, (list, tuple)) or not all(map(_is_real, self.deltas)):
            raise ValueError(f"deltas must be a list of numbers, got {self.deltas!r}")
        grid = tuple(float(d) for d in self.deltas)
        if not grid:
            raise ValueError("deltas must be a nonempty grid")
        for d in grid:
            shift_vector(1, d)
        object.__setattr__(self, "deltas", grid)
        _check_kernel(self.kernel)
        if self.estimator not in ESTIMATOR_CHOICES:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; expected one of {ESTIMATOR_CHOICES}"
            )
        if self.estimator == HOTELLING:
            _check_hotelling_dims(self.p, self.n1, self.n2, f"scenario {self.scenario_id!r}: ")
        # beta, draws and alpha follow the rules of the tests that use them
        _taper_bandwidth(self.beta, self.n1 + self.n2, self.p)
        NullDrawConfig(self.draws, self.alpha)


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
