"""Golden outputs: seeded results that a refactor must reproduce bit for bit.

The files under tests/golden/ hold the full `TestReport` repr of seeded
sample pairs, the statistics and cutoffs of the replication path
(`calibration._shift_tests`) on the same pairs, and the `simulate` CSV
output, minus the `seconds` column, of `configs/demo.json` and of the
`size_*`/`power_*` configs with R cut to 20.
A float's repr round-trips, so equal text means equal bits. A change that
means to alter these numbers re-records them with

    PYTHONPATH=src python tests/test_golden.py

and lists every changed value in CHANGES.md. The reports are bit-exact to
the OpenBLAS kernel they ran on, so each kernel with a recorded file has
its own: re-record the Haswell file under OPENBLAS_CORETYPE=Haswell.
"""

import ctypes
import json
import pathlib

import numpy as np
import pytest

from twosample import ESTIMATORS, IDENTITY, KERNELS, NullDrawConfig, run_test, shift_vector
from twosample.calibration import _shift_tests
from twosample.cli import main

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
CONFIGS = HERE.parent / "configs"
SIMULATE = ("demo", "size_p5", "size_p100", "power_p5", "power_p100")
REDUCED_R = 20
# the reports file per OpenBLAS core; any other core reads reports.txt
REPORTS = {"Haswell": "reports_haswell.txt"}

# the replication lines test each pair at these shifts of y
GRID = (0.0, 0.5, 1.0)

# (label, p, n1, n2, shift); the last has p > n1 + n2 - 2
PAIRS = (
    ("p5", 5, 40, 50, 0.4),
    ("p100", 100, 40, 50, 0.1),
    ("p40-n12-n15", 40, 12, 15, 0.5),
)


def _openblas_core():
    """The OpenBLAS core numpy's BLAS runs, such as "SkylakeX", or None."""
    try:
        getter = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return None
    getter.argtypes, getter.restype = [], ctypes.c_char_p
    return getter().decode()


def _reports_golden():
    return GOLDEN / REPORTS.get(_openblas_core(), "reports.txt")


def _pairs():
    """(label, x, y, config) of each seeded sample pair."""
    for index, (label, p, n1, n2, shift) in enumerate(PAIRS):
        rng = np.random.default_rng([20250819, index])
        x = rng.standard_normal((n1, p))
        y = rng.standard_t(3, size=(n2, p)) + shift
        yield label, x, y, NullDrawConfig(draws=2000, alpha=0.05, seed=97 + index)


def _report_lines():
    """A `run_test` line per pair, kernel and estimator, then a line of the
    replication path's statistics and 0.95 cutoffs over GRID for each (one
    cutoff for the identity kernel, whose one calibration serves the grid)."""
    lines = []
    for label, x, y, config in _pairs():
        for kernel in KERNELS:
            for estimator in ESTIMATORS:
                report = run_test(x, y, kernel, estimator, config)
                lines.append(f"{label} {kernel} {estimator} {report!r}")
    for label, x, y, config in _pairs():
        shifts = [shift_vector(x.shape[1], d) for d in GRID]
        for kernel in KERNELS:
            for estimator in ESTIMATORS:
                reports = _shift_tests(x, y, shifts, kernel, estimator, config, 0.25)
                stats = [report.statistic for report in reports]
                cutoffs = [report.cutoff for report in reports]
                if kernel == IDENTITY:
                    # one calibration serves every shift: print its one cutoff
                    assert len(set(cutoffs)) == 1
                    cutoffs = cutoffs[:1]
                lines.append(f"{label} {kernel} {estimator} shifts {stats!r} {cutoffs!r}")
    return "".join(line + "\n" for line in lines)


def _simulate_text(name, workdir, threads=1):
    """CSV text of every scenario in configs/<name>.json, without `seconds`."""
    scenarios = json.loads((CONFIGS / f"{name}.json").read_text())
    scenarios = scenarios if isinstance(scenarios, list) else [scenarios]
    if name != "demo":
        scenarios = [dict(s, replications=REDUCED_R) for s in scenarios]
    config_path = workdir / f"{name}.json"
    config_path.write_text(json.dumps(scenarios))
    out = workdir / f"{name}-out"
    argv = ["simulate", "--config", str(config_path), "--out", str(out), "--threads", str(threads)]
    assert main(argv) == 0
    text = ""
    for scenario in scenarios:
        csv_text = (out / f"{scenario['scenario_id']}.csv").read_text()
        text += "".join(line.rsplit(",", 1)[0] + "\n" for line in csv_text.splitlines())
    return text


def test_reports_match_golden():
    assert _report_lines() == _reports_golden().read_text()


@pytest.mark.parametrize("name", SIMULATE)
def test_simulate_matches_golden(name, tmp_path):
    assert _simulate_text(name, tmp_path) == (GOLDEN / f"simulate_{name}.csv").read_text()


@pytest.mark.parametrize("name", SIMULATE)
def test_threaded_simulate_matches_golden(name, tmp_path):
    # one pool runs every scenario of the file; the rows must not change
    text = _simulate_text(name, tmp_path, threads=2)
    assert text == (GOLDEN / f"simulate_{name}.csv").read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    _reports_golden().write_text(_report_lines())
    with tempfile.TemporaryDirectory() as tmp:
        for name in SIMULATE:
            text = _simulate_text(name, pathlib.Path(tmp))
            (GOLDEN / f"simulate_{name}.csv").write_text(text)
