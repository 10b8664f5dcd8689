import csv
import dataclasses
import inspect
import json
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from twosample import (
    CSV_COLUMNS,
    DEFAULT_SEED,
    NullDrawConfig,
    ResultRow,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    experiments,
    generate_scenario,
    load_configs,
    run_power_curve,
    run_power_curves,
    run_realdata_blocks,
    run_test,
    write_csv,
    write_manifest,
)
from twosample import _blas, calibration

from oracle import second_scenario_fails, worker_exits, worker_raises


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


def _one_blas_thread_seen(config, r):
    """A replication that flags whether its process runs one BLAS thread."""
    _, getter = _blas._openblas_threads()
    return [getter() == 1]


def _failing_replication(config, r):
    raise RuntimeError(f"replication {r} failed")


def _pid_logging(path, replicate=experiments._replicate):
    """A replication that appends its process id to `path`, then runs `replicate`."""

    def spy(config, r):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return replicate(config, r)

    return spy


def _pids(path):
    """The process ids a `_pid_logging` spy wrote, each once: the caller's first."""
    seen = set(path.read_text().split()) if path.exists() else set()
    caller = str(os.getpid())
    return [caller] * (caller in seen) + sorted(seen - {caller})


def _logged_replication(config, r):
    """A slow replication that appends its scenario to a log in the cwd."""
    time.sleep(0.01)
    with open("replications.log", "a") as fh:
        fh.write(config.scenario_id + "\n")
    return [False] * len(config.deltas)


class TestScenarioConfig:
    def test_delta_grid_is_normalized_to_floats(self):
        config = _config(deltas=[0, 1])
        assert config.deltas == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            _config(family="laplace")
        with pytest.raises(ValueError, match="unknown family 5"):
            _config(family=5)
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

    @pytest.mark.parametrize(
        "estimator",
        # the config compares the estimator by ==, which on an array is elementwise
        [np.array(["plain", "taper"]), np.array(["hotelling"]), 7],
        ids=["two-array", "one-array", "int"],
    )
    def test_only_a_plain_name_is_an_estimator(self, estimator):
        with pytest.raises(ValueError) as err:
            _config(estimator=estimator)
        assert str(err.value) == (
            f"unknown estimator {estimator!r}; expected one of ('plain', 'taper', 'hotelling')"
        )

    @pytest.mark.parametrize("scenario_id", [["a"], {"k": 1}, 7, ""])
    def test_scenario_id_must_be_a_nonempty_string(self, scenario_id):
        with pytest.raises(ValueError, match="scenario_id must be a nonempty string") as err:
            _config(scenario_id=scenario_id)
        assert repr(scenario_id) in str(err.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p", 3.5),
            ("p", "5"),
            ("n1", True),
            ("n1", np.bool_(True)),
            ("n2", None),
            ("draws", 10.5),
            ("replications", 2.5),
            ("seed", 1.7),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            _config(**{field: value})

    @pytest.mark.parametrize(
        "field, value", [("alpha", "0.05"), ("beta", True), ("alpha", np.bool_(True))]
    )
    def test_levels_must_be_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a number"):
            _config(**{field: value})

    def test_numpy_scalars_write_the_manifest_of_python_numbers(self, tmp_path):
        numeric = dict(p=3, n1=15, n2=15, draws=50, replications=4, seed=20250819)
        python = _config(**numeric, alpha=0.125, beta=0.5)
        config = _config(
            **{name: np.int64(value) for name, value in numeric.items()},
            alpha=np.float32(0.125),
            beta=np.float32(0.5),
        )
        assert config == python and repr(config) == repr(python)
        write_manifest(config, tmp_path / "numpy.json")
        write_manifest(python, tmp_path / "python.json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()
        rows = [_strip_time(row) for row in run_power_curve(config)]
        assert rows == [_strip_time(row) for row in run_power_curve(python)]

    @pytest.mark.parametrize("deltas", [0.5, "1", ["1"], [0.0, True], None])
    def test_deltas_must_be_a_list_of_numbers(self, deltas):
        with pytest.raises(ValueError, match="^deltas must be a list of numbers"):
            _config(deltas=deltas)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_deltas_must_be_finite(self, delta):
        with pytest.raises(ValueError, match="deltas must be finite"):
            _config(deltas=[0.0, delta])

    @pytest.mark.parametrize("scenario_id", ["../escaped", "a/b", "a\\b", ".", "..", "a\ud800"])
    def test_scenario_id_must_be_a_plain_file_name(self, scenario_id):
        with pytest.raises(ValueError, match="is not a plain file name"):
            _config(scenario_id=scenario_id)

    @pytest.mark.parametrize("scenario_id", ["r" * 251, "é" * 126], ids=["ascii", "two-byte"])
    def test_scenario_id_must_fit_a_file_name(self, scenario_id):
        # 255 bytes with ".json"; é is two bytes in UTF-8
        _config(scenario_id=scenario_id[:-1])
        with pytest.raises(ValueError) as err:
            _config(scenario_id=scenario_id)
        assert str(err.value) == (
            f"scenario_id {scenario_id!r} is too long for a file name: "
            "with .json it exceeds 255 bytes in UTF-8"
        )

    def test_load_configs_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "config.json"
        items = [config_to_dict(_config(scenario_id=name)) for name in ("twice", "once", "twice")]
        path.write_text(json.dumps(items))
        with pytest.raises(ValueError, match="^duplicate scenario_id 'twice'$"):
            load_configs(path)

    def test_load_configs_rejects_an_empty_list(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[]")
        with pytest.raises(ValueError) as err:
            load_configs(path)
        assert str(err.value) == f"{path}: the scenario list is empty"

    def test_hotelling_needs_p_at_most_n1_plus_n2_minus_2(self):
        assert _config(estimator="hotelling", p=28).p == 28
        with pytest.raises(ValueError, match=r"'tiny'.*p=29, n1=15, n2=15"):
            _config(estimator="hotelling", p=29)
        assert _config(estimator="plain", p=29).p == 29

    @pytest.mark.parametrize("field", ["n1", "n2"])
    @pytest.mark.parametrize("estimator", ["plain", "taper"])
    def test_kernel_tests_need_two_rows_per_sample(self, field, estimator):
        with pytest.raises(ValueError, match=f"^{field} must be at least 2, got 1$"):
            _config(estimator=estimator, **{field: 1})
        assert getattr(_config(estimator=estimator, **{field: 2}), field) == 2

    def test_hotelling_runs_on_one_row(self):
        # its only floor is p <= n1 + n2 - 2
        config = _config(estimator="hotelling", n1=1, replications=10)
        [row] = run_power_curve(config)
        assert row.n1 == 1 and 0.0 <= row.reject_frac <= 1.0
        with pytest.raises(ValueError, match="^n1 must be at least 1, got 0$"):
            _config(estimator="hotelling", n1=0)

    def test_defaults_are_the_library_defaults(self):
        # a scenario that names no test settings runs the test a library call runs
        config = ScenarioConfig("s", "gaussian", "identity", p=3, n1=5, n2=5)
        test = inspect.signature(run_test).parameters
        blocks = inspect.signature(run_realdata_blocks).parameters
        assert config.kernel == blocks["kernel"].default
        assert config.estimator == test["estimator"].default == blocks["estimator"].default
        assert config.beta == test["beta"].default == blocks["beta"].default
        assert config.alpha == NullDrawConfig().alpha

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
    """A size experiment is run_power_curve on a one-point grid."""

    def test_identical_configs_identical_rows(self):
        [a] = run_power_curve(_config())
        [b] = run_power_curve(_config())
        assert _strip_time(a) == _strip_time(b)
        assert 0.0 <= a.reject_frac <= 1.0
        assert a.seconds >= 0.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"deltas": (0.0, 0.4, 1.5)},
            {"estimator": "hotelling", "deltas": (0.0, 1.5)},
        ],
        ids=["size", "grid", "hotelling"],
    )
    def test_parallel_matches_serial(self, overrides):
        config = _config(replications=24, **overrides)
        serial = run_power_curve(config, threads=1)
        parallel = run_power_curve(config, threads=2)
        assert len(serial) == len(config.deltas)
        assert [_strip_time(r) for r in serial] == [_strip_time(r) for r in parallel]

    @pytest.mark.parametrize("threads", [0, -3, 2.5, True, "2"])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_power_curve(_config(deltas=(0.0, 1.0)), threads=threads)

    def test_mcse_formula(self):
        [row] = run_power_curve(_config())
        f, r = row.reject_frac, row.replications
        assert row.mcse == np.sqrt(f * (1.0 - f) / r)

    def test_hotelling_estimator_row(self):
        [row] = run_power_curve(_config(estimator="hotelling", p=3, replications=30))
        [again] = run_power_curve(_config(estimator="hotelling", p=3, replications=30))
        assert _strip_time(row) == _strip_time(again)
        assert 0.0 <= row.reject_frac <= 1.0


class TestRunPowerCurve:
    def test_singleton_grid_reduces_to_size_run(self):
        # every point of a grid equals the one-point curve at that delta
        rows = run_power_curve(_config(deltas=(0.0, 0.8, 3.0)))
        for row in rows:
            [single] = run_power_curve(_config(deltas=(row.delta,)))
            assert _strip_time(single) == _strip_time(row)

    def test_zero_delta_point_matches_size_run_exactly(self):
        rows = run_power_curve(_config(deltas=(0.0, 3.0)))
        [size_row] = run_power_curve(_config())
        assert rows[0].reject_frac == size_row.reject_frac
        assert rows[0].mcse == size_row.mcse

    def test_large_shift_saturates(self):
        rows = run_power_curve(_config(deltas=(0.0, 3.0)))
        assert rows[-1].reject_frac >= 0.9
        assert rows[-1].reject_frac >= rows[0].reject_frac - 2.0 * rows[0].mcse

    def test_overflowing_identity_shift_names_the_delta(self):
        # the data are fine; only T at the far shift overflows, which the
        # bounded sign kernel does not
        config = _config(kernel="identity", deltas=(0.0, 1e200), replications=2, draws=50)
        with pytest.raises(ValueError) as err:
            run_power_curve(config)
        assert str(err.value) == (
            "a shift of y of norm delta = 1e+200 is too large for the identity kernel: "
            "T(delta) overflows; use a smaller delta"
        )
        assert len(run_power_curve(dataclasses.replace(config, kernel="sign"))) == 2

    def test_rows_share_the_curve_seconds(self):
        # seconds is the curve's wall time split evenly over its deltas
        rows = run_power_curve(_config(deltas=(0.0, 0.5, 1.0, 3.0)))
        assert len({row.seconds for row in rows}) == 1
        assert rows[0].seconds >= 0.0

    def test_one_draw_per_replication_shared_by_the_processes(self, monkeypatch, tmp_path):
        draws = []

        def counting_generate(config, rng):
            draws.append(config.deltas)
            return generate_scenario(config, rng)

        log = tmp_path / "pids.log"
        monkeypatch.setattr(experiments, "_replicate", _pid_logging(log))
        monkeypatch.setattr(experiments, "generate_scenario", counting_generate)
        config = _config(deltas=(0.0, 1.0, 3.0), replications=8)
        run_power_curve(config, threads=1)
        assert draws == [(0.0,)] * 8 and _pids(log) == [str(os.getpid())]
        log.unlink()
        draws.clear()
        run_power_curve(config, threads=2)
        # the caller's share is drawn here, the worker's in its own process
        assert draws == [(0.0,)] * 4 and len(_pids(log)) == 2

    @pytest.mark.parametrize(
        "threads, replications, processes",
        [(6, 3, 3), (2, 8, 2), (3, 8, 3), (4, 1, 1)],
        ids=["fewer-replications", "fewer-threads", "three-threads", "serial"],
    )
    def test_processes_are_sized_to_the_work(
        self, monkeypatch, tmp_path, threads, replications, processes
    ):
        log = tmp_path / "pids.log"
        monkeypatch.setattr(experiments, "_replicate", _pid_logging(log))
        config = _config(deltas=(0.0, 1.0), replications=replications)
        rows = run_power_curve(config, threads=threads)
        # the caller and min(threads, R) - 1 workers each run a share
        assert len(_pids(log)) == processes
        # the workers are joined before the call returns
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        serial = run_power_curve(config, threads=1)
        assert [_strip_time(r) for r in rows] == [_strip_time(r) for r in serial]


class TestSharedWorkers:
    """run_power_curves forks its workers once for all configs' replications."""

    def _configs(self, *replications):
        return [
            _config(scenario_id=f"s{i}", deltas=(0.0, 1.0), replications=r, seed=7 + i)
            for i, r in enumerate(replications)
        ]

    @pytest.mark.parametrize(
        "threads, replications, processes",
        [(6, (2, 1), 2), (2, (1, 1), 1), (2, (3, 5, 2), 2), (3, (3, 5, 2), 3), (3, (), 0)],
        ids=["fewer-replications", "one-each", "fewer-threads", "three-threads", "no-configs"],
    )
    def test_one_set_of_workers_sized_to_the_largest_config(
        self, monkeypatch, tmp_path, threads, replications, processes
    ):
        log = tmp_path / "pids.log"
        monkeypatch.setattr(experiments, "_replicate", _pid_logging(log))
        configs = self._configs(*replications)
        curves = list(run_power_curves(configs, threads=threads))
        # min(threads, the largest R) processes, the caller included, over
        # the whole run: a worker more would have no replication to run
        assert len(_pids(log)) == processes and len(curves) == len(configs)
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        serial = [run_power_curve(c, threads=1) for c in configs]
        assert [[_strip_time(r) for r in rows] for rows in curves] == [
            [_strip_time(r) for r in rows] for rows in serial
        ]

    def test_failure_in_a_later_config_keeps_the_earlier_curve(
        self, monkeypatch, blas_at_two_threads
    ):
        monkeypatch.setattr(experiments, "_replicate", second_scenario_fails)
        configs = [_config(scenario_id="first", replications=4), _config(scenario_id="second")]
        curves = run_power_curves(configs, threads=2)
        [first] = next(curves)
        assert first.scenario_id == "first" and first.reject_frac == 0.0
        with pytest.raises(ValueError, match="of second failed"):
            next(curves)
        assert blas_at_two_threads() == 2
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_is_named_after_the_earlier_curve(
        self, monkeypatch, blas_at_two_threads
    ):
        monkeypatch.setattr(experiments, "_replicate", worker_exits(os.getpid()))
        configs = [_config(scenario_id="first", replications=1), _config(scenario_id="second")]
        curves = run_power_curves(configs, threads=2)
        # the worker has nothing of "first" to run, and dies on its share of "second"
        [first] = next(curves)
        assert first.scenario_id == "first"
        with pytest.raises(ChildProcessError, match=r"exited with code 3 .* for 'second'"):
            next(curves)
        assert blas_at_two_threads() == 2
        assert multiprocessing.active_children() == []

    def test_a_workers_exception_is_raised_in_the_caller(self, monkeypatch, blas_at_two_threads):
        # the caller's own replications pass, so only the worker's message raises
        monkeypatch.setattr(experiments, "_replicate", worker_raises(os.getpid()))
        with pytest.raises(ValueError, match=r"^replication 1 failed in process \d+$") as err:
            run_power_curve(_config(replications=2), threads=2)
        assert int(str(err.value).rsplit(" ", 1)[1]) != os.getpid()
        assert multiprocessing.active_children() == []
        assert blas_at_two_threads() == 2

    def test_early_close_cancels_the_queued_replications(
        self, monkeypatch, tmp_path, blas_at_two_threads
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments, "_replicate", _logged_replication)
        configs = [
            _config(scenario_id="first", replications=2),
            _config(scenario_id="rest", replications=200),
        ]
        curves = run_power_curves(configs, threads=2)
        next(curves)
        curves.close()
        assert multiprocessing.active_children() == []
        assert blas_at_two_threads() == 2
        # only the chunks already running or queued to a worker finish
        ran = (tmp_path / "replications.log").read_text().split()
        assert ran.count("first") == 2 and ran.count("rest") < 200


class TestBlasThreads:
    """Replications run at one BLAS thread, serial or pooled; the parent's count is kept."""

    def test_workers_run_one_blas_thread(self, monkeypatch, blas_at_two_threads):
        monkeypatch.setattr(experiments, "_replicate", _one_blas_thread_seen)
        config = _config(replications=4)
        [serial] = run_power_curve(config, threads=1)
        [pooled] = run_power_curve(config, threads=2)
        assert serial.reject_frac == 1.0 and pooled.reject_frac == 1.0
        assert blas_at_two_threads() == 2

    def test_a_worker_pins_its_own_blas(self, monkeypatch, blas_at_two_threads):
        # a worker started without fork does not inherit the run's one thread:
        # run worker 1 of 2 here, at the caller's two threads
        monkeypatch.setattr(experiments, "_replicate", _one_blas_thread_seen)
        recv, send = multiprocessing.Pipe(duplex=False)
        with recv:
            experiments._work([_config(replications=4)], 1, 2, send)
            counts = recv.recv()
        # replications 1 and 3, each at one thread
        assert counts.tolist() == [2]
        assert blas_at_two_threads() == 2

    def test_a_worker_sends_the_exception_of_a_replication_and_closes(self, monkeypatch):
        # run worker 0 of 2 here: its first replication raises, which it sends
        # in place of counts before it closes its end of the pipe
        def failing(config, r):
            raise RuntimeError(f"replication {r} failed")

        monkeypatch.setattr(experiments, "_replicate", failing)
        recv, send = multiprocessing.Pipe(duplex=False)
        with recv:
            experiments._work([_config(replications=4)], 0, 2, send)
            err = recv.recv()
            assert isinstance(err, RuntimeError) and str(err) == "replication 0 failed"
            with pytest.raises(EOFError):
                recv.recv()
        assert send.closed

    @pytest.mark.parametrize("estimator", ["plain", "taper"])
    @pytest.mark.parametrize("cov_form", ["equicorr", "ar"])
    def test_serial_bits_do_not_depend_on_the_callers_count(
        self, monkeypatch, blas_threads, cov_form, estimator
    ):
        # at p=300 OpenBLAS rounds the pair pass, CᵀC and the taper spectrum's
        # eigvalsh differently at 1 and 2 threads; the CSV rows are too
        # coarse to show that, so compare the bits of T and the null draws
        shift_tests, null_draws = calibration._shift_tests, calibration.simulate_null_draws
        seen = []

        def draws_spy(*args):
            draws = null_draws(*args)
            seen.append(draws.tobytes())
            return draws

        def spy(*args):
            reports = shift_tests(*args)
            seen.append(np.array([r.statistic for r in reports]).tobytes())
            return reports

        monkeypatch.setattr(calibration, "simulate_null_draws", draws_spy)
        monkeypatch.setattr(calibration, "_shift_tests", spy)
        setter, getter = blas_threads
        config = _config(
            cov_form=cov_form,
            p=300,
            n1=40,
            n2=50,
            deltas=(0.0, 0.5),
            estimator=estimator,
            draws=40,
            replications=2,
        )
        runs = []
        for threads in (1, 2):
            setter(threads)
            seen.clear()
            run_power_curve(config, threads=1)
            assert getter() == threads
            runs.append(list(seen))
        # the draws, then T, of each of the two replications
        assert len(runs[0]) == 4 and runs[0] == runs[1]

    def test_parent_count_restored_when_a_replication_raises(
        self, monkeypatch, blas_at_two_threads
    ):
        monkeypatch.setattr(experiments, "_replicate", _failing_replication)
        with pytest.raises(RuntimeError, match="replication"):
            run_power_curve(_config(replications=4), threads=2)
        assert blas_at_two_threads() == 2

    def test_workers_are_forked_from_the_caller(self, monkeypatch, tmp_path):
        # the spy is a closure patched into the caller only: a worker that
        # runs it inherited the caller's memory, as a forked one does
        log = tmp_path / "pids.log"
        monkeypatch.setattr(experiments, "_replicate", _pid_logging(log))
        run_power_curve(_config(replications=4), threads=2)
        [caller, worker] = _pids(log)
        assert caller == str(os.getpid()) and worker != caller
        assert experiments._CONTEXT.get_start_method() == "fork"
        assert multiprocessing.active_children() == []

    def test_spawned_workers_give_the_rows_of_one_thread(self, monkeypatch):
        # where there is no fork, the workers start from a fresh import
        monkeypatch.setattr(experiments, "_CONTEXT", multiprocessing.get_context("spawn"))
        config = _config(deltas=(0.0, 1.0), replications=4)
        pooled = run_power_curve(config, threads=2)
        serial = run_power_curve(config, threads=1)
        assert [_strip_time(r) for r in pooled] == [_strip_time(r) for r in serial]
        assert multiprocessing.active_children() == []

    def test_one_thread_already_sets_nothing(self, monkeypatch):
        # a set in a forked worker restarts OpenBLAS's thread pool, whose idle
        # threads spin on the cores the other workers need
        sets = []
        monkeypatch.setattr(_blas, "_openblas_threads", lambda: (sets.append, lambda: 1))
        run_power_curve(_config(cov_form="ar", replications=4), threads=1)
        assert sets == []

    def test_one_set_and_one_restore_per_run(self, monkeypatch):
        # a restore between configs, with a set for the next, would leave
        # OpenBLAS's pool threads spinning on the cores the workers need
        count, sets = [2], []

        def setter(n):
            sets.append(n)
            count[0] = n

        monkeypatch.setattr(_blas, "_openblas_threads", lambda: (setter, lambda: count[0]))
        configs = [_config(scenario_id=f"c{i}", replications=4) for i in range(3)]
        assert len(list(run_power_curves(configs))) == 3
        assert sets == [1, 2] and count == [2]

    def test_no_blas_setter_changes_no_rows(self, monkeypatch):
        monkeypatch.setattr(_blas, "_openblas_threads", lambda: None)
        config = _config(deltas=(0.0, 1.0), replications=8)
        pooled = run_power_curve(config, threads=2)
        serial = run_power_curve(config, threads=1)
        assert [_strip_time(r) for r in pooled] == [_strip_time(r) for r in serial]


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

    @pytest.mark.parametrize("write", ["csv", "json"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, write):
        path = tmp_path / "out"
        path.write_text("old contents\n")
        with pytest.raises(TypeError):
            if write == "csv":
                # the header and the first row are written before the second fails
                write_csv([ResultRow(*CSV_COLUMNS), object()], path)
            else:
                experiments._write_json(path, {"a": 1, "b": object()})
        assert path.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_a_target_at_the_file_name_limit_is_written(self, tmp_path):
        # a 255-byte name, the limit of common file systems: the temp file's
        # name used to add the process id and ".tmp" to it, and could not be made
        path = tmp_path / ("r" * 251 + ".csv")
        write_csv([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"
        # with the mode that open() gives a new file
        (tmp_path / "plain").write_text("")
        assert os.stat(path).st_mode == os.stat(tmp_path / "plain").st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, "plain"])

    @pytest.mark.parametrize("write", ["csv", "json"])
    def test_a_linked_target_is_written_through_the_link(self, tmp_path, write):
        # the temp file used to be moved over the link itself, which became a
        # regular file while the file it named kept its old contents
        (tmp_path / "real").mkdir()
        real = tmp_path / "real" / "r.out"
        real.write_text("old contents\n")
        link = tmp_path / "link.out"
        link.symlink_to(real)
        if write == "csv":
            write_csv([], link)
            expected = ",".join(CSV_COLUMNS) + "\n"
        else:
            experiments._write_json(link, {"a": 1})
            expected = '{\n  "a": 1\n}\n'
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == expected
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.out", "r.out", "real"]

    @pytest.mark.parametrize("write", ["csv", "json"])
    def test_an_existing_target_keeps_its_mode(self, tmp_path, write):
        # as open(path, "w") keeps it; the replacing file used to come back 0644
        path = tmp_path / "r.out"
        path.write_text("old contents\n")
        os.chmod(path, 0o600)
        if write == "csv":
            write_csv([], path)
        else:
            experiments._write_json(path, {"a": 1})
        assert oct(os.stat(path).st_mode & 0o7777) == oct(0o600)
        assert path.read_text() != "old contents\n"

    @pytest.mark.parametrize("write", ["csv", "json"])
    def test_an_unwritable_target_is_named(self, tmp_path, write):
        path = tmp_path / "missing" / "out"
        with pytest.raises(FileNotFoundError) as err:
            if write == "csv":
                write_csv([], path)
            else:
                experiments._write_json(path, {"a": 1})
        assert str(err.value) == f"[Errno 2] No such file or directory: {str(path)!r}"

    def test_a_pipe_is_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
        reader.start()
        experiments._write_json(pipe, {"a": 1})
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == ['{\n  "a": 1\n}\n']
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_load_configs_accepts_object_and_list(self, tmp_path):
        config = _config()
        single = tmp_path / "one.json"
        single.write_text(json.dumps(config_to_dict(config)))
        other = _config(scenario_id="other")
        many = tmp_path / "two.json"
        many.write_text(json.dumps([config_to_dict(config), config_to_dict(other)]))
        assert load_configs(single) == [config]
        assert load_configs(many) == [config, other]

    def test_load_configs_names_the_scenarios_without_a_seed(self, tmp_path):
        seeded = config_to_dict(_config(scenario_id="seeded"))
        unseeded = config_to_dict(_config(scenario_id="unseeded"))
        del unseeded["seed"]
        path = tmp_path / "two.json"
        path.write_text(json.dumps([seeded, unseeded]))
        named = []
        configs = load_configs(path, on_default_seed=named.append)
        assert named == ["unseeded"]
        assert [c.seed for c in configs] == [20250819, DEFAULT_SEED]
