"""Self-tests of the benchmark: tiny runs of each workload and its checks.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import check
import run

run.import_program()

from twosample import calibration, cli, config_from_dict, datagen  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}

TINY = {
    "test-p5": run.TestWorkload(p=5, pairs=4, draws=500, ref_draws=5000),
    "test-p1000": run.TestWorkload(p=1000, pairs=2, draws=200, ref_draws=5000),
    "sim-p100": run.SimWorkload(replications=1),
}


def tiny(name, trace, seed=3):
    return run.run_workload(TINY[name], seed, 0.01, trace)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_and_passes_its_checks(name, trace):
    result = tiny(name, trace)
    assert set(result.metrics) == (PER_LAYER if trace else END_TO_END)
    assert result.attempted > 0
    assert result.failed == 0, result.problems
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for metric, (value, unit) in result.metrics.items():
        assert unit == units[metric]
        assert isinstance(value, float) and value == value


def test_corrupted_test_reports_are_counted(monkeypatch):
    original = calibration.run_test

    def corrupted(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, statistic=report.statistic * 1.01 + 1e-3)

    monkeypatch.setattr(calibration, "run_test", corrupted)
    result = tiny("test-p5", 0)
    assert result.failed == result.attempted > 0
    assert all("statistic" in line for line in result.problems)


def test_corrupted_simulate_rows_are_counted(monkeypatch):
    original = cli.write_csv

    def corrupted(rows, path):
        original([dataclasses.replace(r, delta=r.delta + 1.0) for r in rows], path)

    monkeypatch.setattr(cli, "write_csv", corrupted)
    result = tiny("sim-p100", 0)
    reports = sum(len(s["deltas"]) for s in json.loads(run.SIM_CONFIG.read_text()))
    assert result.failed == result.attempted - reports > 0


def test_simulate_reports_catch_a_missing_taper(monkeypatch):
    def untapered(x, y, kernel, taper):
        return calibration.estimate_plain(x, y, kernel)

    monkeypatch.setattr(calibration, "estimate_tapered", untapered)
    result = tiny("sim-p100", 0)
    flagged = [line for line in result.problems if line.startswith("report ")]
    assert len(flagged) == 5
    assert all("identity-taper" in line and "top_eigenvalue" in line for line in flagged)


def test_identity_taper_reference():
    scenario = json.loads(run.SIM_CONFIG.read_text())[1]
    config = dataclasses.replace(config_from_dict(scenario), deltas=(1.0,))
    assert (config.kernel, config.estimator) == ("identity", "taper")
    rng = np.random.default_rng(7)
    x, y = datagen.generate_scenario(config, rng)
    draws = calibration.NullDrawConfig(1000, 0.05, 11)
    report = calibration.run_test(x, y, "identity", "taper", draws, beta=config.beta)
    k = check.taper_bandwidth(config.beta, config.n1 + config.n2, config.p)
    good = check.PairReference(x, y, 20000, rng, kernel="identity", taper_k=k)
    assert good.problems(report, 1000, 0.05) == []
    for wrong in (
        check.PairReference(x, y, 20000, rng, kernel="sign", taper_k=k),
        check.PairReference(x, y, 20000, rng, kernel="identity"),
    ):
        assert wrong.problems(report, 1000, 0.05)


def test_reference_catches_a_wrong_cutoff():
    spec = run.WORKLOADS["test-p5"]
    pairs, _ = run.make_pairs(spec, seed=5)
    report = calibration.run_test(*pairs[1], "sign", "plain", run.draw_config(spec, 5, 1))
    rng = run.np.random.default_rng(0)
    reference = check.PairReference(*pairs[1], spec.ref_draws, rng)
    assert reference.problems(report, spec.draws, run.ALPHA) == []
    cutoff = report.cutoff * 2.0
    wrong = dataclasses.replace(report, cutoff=cutoff, reject=report.statistic > cutoff)
    assert any("cutoff" in p for p in reference.problems(wrong, spec.draws, run.ALPHA))


def test_power_cell_check():
    reference = {"rejections": 100, "replications": 2000}  # power 0.05
    assert check.power_cell_problem(5, 100, reference) is None
    assert check.power_cell_problem(40, 100, reference) is not None
    assert check.power_cell_problem(0, 1000, reference) is not None
    full = {"rejections": 2000, "replications": 2000}
    assert check.power_cell_problem(99, 100, full) is None
    assert check.power_cell_problem(50, 100, full) is not None


def test_binomial_tails_sum_to_one():
    for k in range(0, 11):
        total = check.binom_cdf(k, 10, 0.3) + check.binom_sf(k + 1, 10, 0.3)
        assert total == pytest.approx(1.0)


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", "test-p5", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
