import csv
import dataclasses
import json

import numpy as np
import pytest

from twosample import (
    CSV_COLUMNS,
    ResultRow,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    load_configs,
    run_power_curve,
    run_size_experiment,
    write_csv,
    write_manifest,
)


def _config(**overrides):
    base = dict(
        scenario_id="tiny",
        family="gaussian",
        cov_form="identity",
        p=3,
        n1=15,
        n2=15,
        deltas=(0.0,),
        kernel="sign",
        estimator="plain",
        alpha=0.05,
        draws=200,
        replications=40,
        seed=20250819,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _strip_time(row):
    return dataclasses.replace(row, seconds=0.0)


class TestScenarioConfig:
    def test_delta_grid_is_normalized_to_floats(self):
        config = _config(deltas=[0, 1])
        assert config.deltas == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            _config(family="laplace")
        with pytest.raises(ValueError):
            _config(cov_form="wishart")
        with pytest.raises(ValueError):
            _config(deltas=())
        with pytest.raises(ValueError):
            _config(deltas=(-1.0,))
        with pytest.raises(ValueError):
            _config(estimator="ridge")
        with pytest.raises(ValueError):
            _config(kernel="rbf")
        with pytest.raises(ValueError):
            _config(alpha=1.5)
        with pytest.raises(ValueError):
            _config(replications=0)

    def test_dict_round_trip(self):
        config = _config(deltas=(0.0, 0.5))
        assert config_from_dict(config_to_dict(config)) == config

    def test_unknown_keys_rejected(self):
        payload = config_to_dict(_config())
        payload["power"] = 1
        with pytest.raises(ValueError):
            config_from_dict(payload)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"scenario_id": "x"})


class TestRunSizeExperiment:
    def test_identical_configs_identical_rows(self):
        a = run_size_experiment(_config())
        b = run_size_experiment(_config())
        assert _strip_time(a) == _strip_time(b)
        assert 0.0 <= a.reject_frac <= 1.0
        assert a.seconds >= 0.0

    def test_parallel_matches_serial(self):
        serial = run_size_experiment(_config(replications=24), threads=1)
        parallel = run_size_experiment(_config(replications=24), threads=3)
        assert _strip_time(serial) == _strip_time(parallel)

    def test_multi_delta_config_rejected(self):
        with pytest.raises(ValueError):
            run_size_experiment(_config(deltas=(0.0, 1.0)))

    def test_mcse_formula(self):
        row = run_size_experiment(_config())
        f, r = row.reject_frac, row.replications
        assert row.mcse == np.sqrt(f * (1.0 - f) / r)

    def test_hotelling_estimator_row(self):
        row = run_size_experiment(_config(estimator="hotelling", p=3, replications=30))
        again = run_size_experiment(_config(estimator="hotelling", p=3, replications=30))
        assert _strip_time(row) == _strip_time(again)
        assert 0.0 <= row.reject_frac <= 1.0


class TestRunPowerCurve:
    def test_singleton_grid_reduces_to_size_run(self):
        rows = run_power_curve(_config())
        size_row = run_size_experiment(_config())
        assert len(rows) == 1
        assert _strip_time(rows[0]) == _strip_time(size_row)

    def test_zero_delta_point_matches_size_run_exactly(self):
        rows = run_power_curve(_config(deltas=(0.0, 3.0)))
        size_row = run_size_experiment(_config())
        assert rows[0].reject_frac == size_row.reject_frac
        assert rows[0].mcse == size_row.mcse

    def test_large_shift_saturates(self):
        rows = run_power_curve(_config(deltas=(0.0, 3.0)))
        assert rows[-1].reject_frac >= 0.9
        assert rows[-1].reject_frac >= rows[0].reject_frac - 2.0 * rows[0].mcse


class TestOutputFiles:
    def test_csv_schema_and_round_trip(self, tmp_path):
        rows = run_power_curve(_config(deltas=(0.0, 3.0)))
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert tuple(records[0]) == CSV_COLUMNS
        assert len(records) == 3
        first = dict(zip(records[0], records[1]))
        assert first["scenario_id"] == "tiny"
        assert int(first["p"]) == 3
        assert int(first["M"]) == 200
        assert int(first["R"]) == 40
        assert float(first["delta"]) == 0.0
        assert float(first["reject_frac"]) == rows[0].reject_frac
        assert float(first["seconds"]) >= 0.0

    def test_result_row_fields_follow_the_csv_columns(self):
        # write_csv emits the fields in declaration order
        renamed = {"draws": "M", "replications": "R"}
        names = [renamed.get(f.name, f.name) for f in dataclasses.fields(ResultRow)]
        assert tuple(names) == CSV_COLUMNS

    def test_manifest_mirrors_config(self, tmp_path):
        config = _config(deltas=(0.0, 1.0))
        path = tmp_path / "manifest.json"
        write_manifest(config, path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload == config_to_dict(config)

    def test_load_configs_accepts_object_and_list(self, tmp_path):
        config = _config()
        single = tmp_path / "one.json"
        single.write_text(json.dumps(config_to_dict(config)))
        many = tmp_path / "two.json"
        many.write_text(json.dumps([config_to_dict(config), config_to_dict(config)]))
        assert load_configs(single) == [config]
        assert load_configs(many) == [config, config]
