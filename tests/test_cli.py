import csv
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from twosample import (
    DEFAULT_SEED,
    NullDrawConfig,
    block_summary,
    cli,
    derive_seed,
    experiments,
    load_matrix_csv,
    run_realdata_blocks,
    run_test,
)
from twosample.cli import main

from oracle import (
    second_scenario_fails,
    second_scenario_runs_out_of_memory,
    worker_exits,
    write_matrix,
)


@pytest.fixture
def sample_pair(tmp_path):
    rng = np.random.default_rng(20250819)
    x = rng.standard_normal((12, 7))
    y = rng.standard_normal((14, 7))
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    write_matrix(x_path, x)
    write_matrix(y_path, y)
    return x, y, str(x_path), str(y_path)


class TestLoadMatrixCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        matrix = np.array([[1.5, -2.0], [0.25, 3.0], [7.0, 0.125]])
        write_matrix(path, matrix)
        assert np.array_equal(load_matrix_csv(path), matrix)

    def test_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("g1,g2\n1,2\n3,4\n")
        assert np.array_equal(load_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rows_name_the_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_matrix_csv(path)

    def test_non_numeric_cell_names_the_line(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("g1,g2\n1,2\nbad,4\n")
        with pytest.raises(ValueError, match="line 3"):
            load_matrix_csv(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,nan\n2,3\n")
        with pytest.raises(ValueError, match="line 1"):
            load_matrix_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            load_matrix_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "ho.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            # a bad cell is found while reading, the header width only after
            ("a,b\n1,2,3\nx,5,6\n", "line 3: non-numeric cell"),
            ("\n  \n\n", "no data rows"),
            ("a,b\n\n", "header row but no data rows"),
        ],
    )
    def test_message_precedence(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_matrix_csv(path)
        assert str(err.value) == f"{path}: {message}"

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a spreadsheet's UTF-8 export leads a headerless first row with one
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        assert np.array_equal(load_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1,2\n\n3,4\n")
        assert np.array_equal(load_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "text, message",
        [
            # a first row with one typo is data, not a header to drop
            ("1,2,x\n3,4,5\n6,7,8\n", "line 1: non-numeric cell"),
            ("a,b\n3,4,5\n6,7,8\n", "line 1: header has 2 columns, the data have 3"),
        ],
    )
    def test_bad_first_row_names_line_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_matrix_csv(path)
        good = tmp_path / "good.csv"
        good.write_text("1,2,3\n4,5,6\n7,8,9\n")
        out = tmp_path / "report.json"
        args = ["--x", str(path), "--y", str(good), "--seed", "1", "--json", str(out)]
        assert main(["test", *args]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRunRealdataBlocks:
    def test_blocks_partition_and_drop_remainder(self, sample_pair):
        x, y, _, _ = sample_pair
        reports = run_realdata_blocks(x, y, 3, config=NullDrawConfig(draws=200, seed=5))
        assert [(b.start, b.stop) for b in reports] == [(0, 3), (3, 6)]
        summary = block_summary(reports)
        assert sum(summary.histogram) == 2
        assert len(summary.histogram) == 20

    def test_summary_of_no_blocks_raises(self):
        with pytest.raises(ValueError, match="the list is empty"):
            block_summary([])

    def test_single_block_when_width_is_column_count(self, sample_pair):
        x, y, _, _ = sample_pair
        reports = run_realdata_blocks(x, y, 7, config=NullDrawConfig(draws=200, seed=5))
        assert len(reports) == 1

    def test_width_beyond_columns_raises(self, sample_pair):
        x, y, _, _ = sample_pair
        with pytest.raises(ValueError, match="width"):
            run_realdata_blocks(x, y, 8, config=NullDrawConfig(draws=200, seed=5))

    @pytest.mark.parametrize("width", [2.5, True])
    def test_width_must_be_an_integer(self, sample_pair, width):
        x, y, _, _ = sample_pair
        with pytest.raises(ValueError, match=f"^width must be an integer, got {width!r}$"):
            run_realdata_blocks(x, y, width, config=NullDrawConfig(draws=200, seed=5))

    def test_numpy_width_gives_python_int_columns(self, sample_pair):
        # a numpy integer is taken as the Python int it equals, which JSON writes
        x, y, _, _ = sample_pair
        reports = run_realdata_blocks(x, y, np.int64(3), config=NullDrawConfig(draws=200, seed=5))
        assert [(type(b.start), type(b.stop)) for b in reports] == [(int, int)] * 2
        assert json.loads(json.dumps([[b.start, b.stop] for b in reports])) == [[0, 3], [3, 6]]

    def test_constant_block_names_its_columns(self, pair_passes):
        # block 1 is constant in each sample; it used to reject without a word
        rng = np.random.default_rng(41)
        x, y = rng.standard_normal((20, 6)), rng.standard_normal((25, 6))
        x[:, 3:], y[:, 3:] = 1.0, 2.0
        with pytest.raises(ValueError, match=r"^block 1, columns \[3, 6\): x and y are each constant"):
            run_realdata_blocks(x, y, 3, config=NullDrawConfig(draws=200, seed=5))
        assert pair_passes == []  # checked before block 0's pair pass

    def test_block_reports_do_not_depend_on_other_blocks(self, sample_pair):
        # block b is keyed by (seed, b), so a standalone run reproduces it
        x, y, _, _ = sample_pair
        reports = run_realdata_blocks(x, y, 3, config=NullDrawConfig(draws=200, seed=5))
        config = NullDrawConfig(draws=200, alpha=0.05, seed=derive_seed(5, 1))
        standalone = run_test(x[:, 3:6], y[:, 3:6], "sign", "plain", config)
        assert reports[1].report == standalone


class TestCliTest:
    def test_json_report_keys_and_determinism(self, sample_pair, tmp_path):
        _, _, x_path, y_path = sample_pair
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            code = main(
                [
                    "test",
                    "--x", x_path,
                    "--y", y_path,
                    "--kernel", "sign",
                    "--estimator", "plain",
                    "--draws", "500",
                    "--seed", "11",
                    "--json", str(out),
                ]
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert set(payload) == {
            "statistic", "cutoff", "p_value", "reject", "p", "n1", "n2",
            "kernel", "estimator", "alpha", "M", "seed",
            "trace", "top_eigenvalue", "negative_eigenvalues", "p_value_mcse",
        }
        assert payload["p"] == 7
        assert payload["n1"] == 12
        assert payload["n2"] == 14
        assert payload["M"] == 500
        assert isinstance(payload["reject"], bool)

    def test_byte_order_marked_csv_is_read(self, sample_pair, tmp_path):
        x, y, x_path, y_path = sample_pair
        marked = tmp_path / "x-bom.csv"
        with open(x_path, "rb") as fh:
            marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
        outs = [tmp_path / "plain.json", tmp_path / "marked.json"]
        for path, out in zip((x_path, marked), outs):
            args = ["--x", str(path), "--y", y_path, "--draws", "200", "--seed", "3"]
            assert main(["test", *args, "--json", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_default_seed_is_printed(self, sample_pair, capsys):
        _, _, x_path, y_path = sample_pair
        assert main(["test", "--x", x_path, "--y", y_path, "--draws", "200"]) == 0
        assert "using fixed default" in capsys.readouterr().out

    def test_usage_error_exits_2(self, sample_pair):
        _, _, x_path, y_path = sample_pair
        with pytest.raises(SystemExit) as err:
            main(["test", "--x", x_path, "--y", y_path, "--kernel", "rbf"])
        assert err.value.code == 2

    def test_data_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        good = tmp_path / "good.csv"
        good.write_text("1,2\n3,4\n5,6\n")
        code = main(["test", "--x", str(bad), "--y", str(good), "--seed", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_json_diagnostics_match_the_report(self, sample_pair, tmp_path, capsys):
        x, y, x_path, y_path = sample_pair
        out = tmp_path / "report.json"
        args = ["test", "--x", x_path, "--y", y_path, "--draws", "500", "--seed", "11"]
        assert main(args) == 0
        plain_stdout = capsys.readouterr().out
        assert main(args + ["--json", str(out)]) == 0
        assert capsys.readouterr().out == plain_stdout
        payload = json.loads(out.read_text())
        report = run_test(x, y, "sign", "plain", NullDrawConfig(draws=500, seed=11))
        assert payload["trace"] == report.trace
        assert payload["top_eigenvalue"] == report.top_eigenvalue
        assert payload["negative_eigenvalues"] == report.negative_eigenvalues
        p = report.p_value
        assert payload["p_value_mcse"] == pytest.approx((p * (1 - p) / 500) ** 0.5, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_identity_kernel_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_matrix(x_path, rng.standard_normal((6, 3)) * 1e160)
        write_matrix(y_path, rng.standard_normal((7, 3)))
        args = ["test", "--x", str(x_path), "--y", str(y_path), "--seed", "1"]
        code = main(args + ["--kernel", "identity", "--draws", "100"])
        assert code == 1
        err = capsys.readouterr().err
        assert "x and y" in err and "identity kernel" in err

    @pytest.mark.parametrize("command", [["test"], ["blocks", "--width", "1"]])
    def test_one_row_sample_names_the_input(self, tmp_path, capsys, command):
        one = tmp_path / "one.csv"
        one.write_text("1,2\n")
        good = tmp_path / "good.csv"
        good.write_text("1,2\n3,4\n5,6\n")
        code = main([*command, "--x", str(one), "--y", str(good), "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: x and y need at least two rows each: x has 1, y has 3\n"

    @pytest.mark.parametrize("command", [["test"], ["blocks", "--width", "2"]])
    def test_constant_samples_exit_1(self, tmp_path, capsys, command):
        ones = tmp_path / "ones.csv"
        ones.write_text("1,1\n" * 20)
        twos = tmp_path / "twos.csv"
        twos.write_text("2,2\n" * 25)
        out = tmp_path / "report.json"
        code = main([*command, "--x", str(ones), "--y", str(twos), "--json", str(out)])
        assert code == 1
        assert "x and y are each constant" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("1,2\n3,4\n")
        code = main(["test", "--x", str(tmp_path / "nope.csv"), "--y", str(good), "--seed", "1"])
        assert code == 1

    @pytest.mark.parametrize("command", [["test"], ["blocks", "--width", "3"]])
    @pytest.mark.parametrize("target", ["missing/r.json", "r.json"])
    def test_unwritable_json_target_exits_1_before_the_run(
        self, sample_pair, tmp_path, capsys, pair_passes, command, target
    ):
        # a missing folder, or a folder where the file would go: each used to
        # fail only after the run, naming the temp file beside the target
        (tmp_path / "r.json").mkdir()
        _, _, x_path, y_path = sample_pair
        code = main([*command, "--x", x_path, "--y", y_path, "--json", str(tmp_path / target)])
        assert code == 1
        assert pair_passes == []
        out, err = capsys.readouterr()
        assert out == ""
        assert "r.json" in err and ".tmp" not in err

    @pytest.mark.parametrize("command", [["test"], ["blocks", "--width", "3"]])
    def test_empty_json_target_exits_1_before_the_run(
        self, sample_pair, capsys, pair_passes, command
    ):
        # an empty name used to count as no --json: the report printed, no file, exit 0
        _, _, x_path, y_path = sample_pair
        code = main([*command, "--x", x_path, "--y", y_path, "--seed", "1", "--json", ""])
        assert code == 1
        assert pair_passes == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --json : not a file in an existing directory\n"

    def test_json_link_into_a_missing_folder_exits_1_before_the_run(
        self, sample_pair, tmp_path, capsys, pair_passes
    ):
        # the report goes to the file the link names, so that file's folder is checked
        _, _, x_path, y_path = sample_pair
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "missing" / "r.json")
        code = main(["test", "--x", x_path, "--y", y_path, "--seed", "1", "--json", str(link)])
        assert code == 1
        assert pair_passes == []
        assert capsys.readouterr().err == (
            f"error: --json {link}: not a file in an existing directory\n"
        )
        assert link.is_symlink()

    @pytest.mark.parametrize("command", [["test"], ["blocks", "--width", "3"]])
    def test_json_target_that_is_an_input_exits_1_before_the_run(
        self, sample_pair, tmp_path, capsys, pair_passes, command
    ):
        # the report used to replace the --x file; a link to the --y file counts too
        _, _, x_path, y_path = sample_pair
        link = tmp_path / "link.json"
        link.symlink_to(y_path)
        before = [Path(x_path).read_bytes(), Path(y_path).read_bytes()]
        for target, flag, source in [(x_path, "--x", x_path), (str(link), "--y", y_path)]:
            argv = ["--x", x_path, "--y", y_path, "--seed", "1", "--json", target]
            assert main([*command, *argv]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                f"error: {target} is the {flag} file {source}: an output may not replace it\n"
            )
        assert pair_passes == []
        assert [Path(x_path).read_bytes(), Path(y_path).read_bytes()] == before
        assert link.is_symlink()

    @pytest.mark.parametrize(
        "text, line",
        [
            ("Unable to allocate 72.8 TiB for an array", "Unable to allocate 72.8 TiB for an array"),
            ("", "out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_is_a_one_line_error(
        self, sample_pair, monkeypatch, capsys, text, line
    ):
        # no allocation is made: the test itself raises what numpy would
        def run_test(*args, **kwargs):
            raise MemoryError(text)

        monkeypatch.setattr(cli, "run_test", run_test)
        _, _, x_path, y_path = sample_pair
        code = main(["test", "--x", x_path, "--y", y_path, "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {line}\n"


class TestCliBlocks:
    def test_json_structure(self, sample_pair, tmp_path):
        _, _, x_path, y_path = sample_pair
        out = tmp_path / "blocks.json"
        code = main(
            [
                "blocks",
                "--x", x_path,
                "--y", y_path,
                "--width", "3",
                "--draws", "200",
                "--seed", "9",
                "--json", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["width"] == 3
        assert len(payload["blocks"]) == 2
        assert sum(payload["summary"]["histogram"]) == 2
        pvals = [b["p_value"] for b in payload["blocks"]]
        assert abs(payload["summary"]["mean_p_value"] - np.mean(pvals)) < 1e-15

    def test_json_blocks_carry_the_diagnostics(self, sample_pair, tmp_path):
        x, y, x_path, y_path = sample_pair
        out = tmp_path / "blocks.json"
        args = ["blocks", "--x", x_path, "--y", y_path, "--width", "3", "--draws", "200"]
        assert main(args + ["--seed", "9", "--json", str(out)]) == 0
        blocks = json.loads(out.read_text())["blocks"]
        reports = run_realdata_blocks(x, y, 3, config=NullDrawConfig(draws=200, seed=9))
        for block, item in zip(blocks, reports):
            assert set(block) == {
                "index", "start", "stop", "statistic", "cutoff", "p_value", "reject",
                "trace", "top_eigenvalue", "negative_eigenvalues", "p_value_mcse",
            }
            assert block["trace"] == item.report.trace
            assert block["top_eigenvalue"] == item.report.top_eigenvalue
            assert block["negative_eigenvalues"] == item.report.negative_eigenvalues

    def test_width_error_exits_1(self, sample_pair, capsys):
        _, _, x_path, y_path = sample_pair
        code = main(["blocks", "--x", x_path, "--y", y_path, "--width", "8", "--seed", "1"])
        assert code == 1
        assert "width" in capsys.readouterr().err


class TestCliSimulate:
    def test_runs_configs_and_writes_outputs(self, tmp_path, capsys):
        config = {
            "scenario_id": "cli-tiny",
            "family": "gaussian",
            "cov_form": "identity",
            "p": 3,
            "n1": 10,
            "n2": 12,
            "deltas": [0.0],
            "kernel": "sign",
            "estimator": "plain",
            "draws": 100,
            "replications": 10,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        code = main(["simulate", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0
        assert "no seed in config" in capsys.readouterr().out
        csv_path = out_dir / "cli-tiny.csv"
        manifest_path = out_dir / "cli-tiny.json"
        assert csv_path.exists() and manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["scenario_id"] == "cli-tiny"
        assert manifest["seed"] == 12345  # the printed fixed default
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[0] == "scenario_id"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, threads):
        config_path = tmp_path / "config.json"
        config_path.write_text("{}")
        out_dir = tmp_path / "o"
        argv = ["simulate", "--config", str(config_path), "--out", str(out_dir)]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--threads", threads])
        assert err.value.code == 2
        assert not out_dir.exists()

    def test_bad_config_exits_1(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"scenario_id": "x"}))
        code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == 1

    def _scenario(self, scenario_id, **overrides):
        base = {
            "scenario_id": scenario_id,
            "family": "gaussian",
            "cov_form": "identity",
            "p": 3,
            "n1": 10,
            "n2": 12,
            "deltas": [0.0],
            "draws": 50,
            "replications": 4,
            "seed": 1,
        }
        return {**base, **overrides}

    def _simulate(self, tmp_path, scenarios, threads=1):
        """Run simulate on a scenario list; the exit code and output directory."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(scenarios))
        out_dir = tmp_path / "out"
        argv = ["simulate", "--config", str(config_path), "--out", str(out_dir)]
        return main(argv + ["--threads", str(threads)]), out_dir

    def _run_invalid(self, tmp_path, capsys, scenarios):
        """Run simulate on a bad scenario list; no result file may appear."""
        code, _ = self._simulate(tmp_path, scenarios)
        assert code == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]
        return capsys.readouterr()

    def test_infeasible_hotelling_scenario_rejected_before_any_output(self, tmp_path, capsys):
        scenarios = [
            self._scenario("fine"),
            self._scenario("too-wide", estimator="hotelling", p=21),
        ]
        err = self._run_invalid(tmp_path, capsys, scenarios).err
        assert "'too-wide'" in err and "p=21, n1=10, n2=12" in err

    def test_empty_scenario_list_rejected(self, tmp_path, capsys):
        err = self._run_invalid(tmp_path, capsys, []).err
        assert err == f"error: {tmp_path / 'config.json'}: the scenario list is empty\n"

    @pytest.mark.parametrize("scenario_id", ["../escaped", "a/b", "a\\b", ".", ".."])
    def test_path_unsafe_scenario_id_rejected(self, tmp_path, capsys, scenario_id):
        err = self._run_invalid(tmp_path, capsys, [self._scenario(scenario_id)]).err
        assert "not a plain file name" in err

    def test_scenario_id_with_a_nul_rejected_before_any_output(self, tmp_path, capsys):
        # unchecked, open() would refuse the path only once it got there, after ok.csv
        scenarios = [self._scenario("ok"), self._scenario("a\x00b")]
        err = self._run_invalid(tmp_path, capsys, scenarios).err
        assert err == "error: scenario_id 'a\\x00b' is not a plain file name\n"

    def test_scenario_id_too_long_for_a_file_rejected_before_any_output(
        self, tmp_path, capsys
    ):
        # unchecked, the long scenario ran its replications after ok.csv was
        # written, and then could not name its file
        scenarios = [self._scenario("ok"), self._scenario("s" * 300)]
        err = self._run_invalid(tmp_path, capsys, scenarios).err
        assert err.startswith(f"error: scenario_id {'s' * 300!r} is too long for a file name")

    def test_scenario_id_with_a_lone_surrogate_rejected_before_any_output(self, tmp_path, capsys):
        # UTF-8 cannot encode it: the length check used to raise the codec's
        # error, which named neither the field nor the scenario
        scenarios = [self._scenario("ok"), self._scenario("a\ud800")]
        err = self._run_invalid(tmp_path, capsys, scenarios).err
        assert err == "error: scenario_id 'a\\ud800' is not a plain file name\n"

    def test_output_that_is_the_config_file_rejected_before_any_output(self, tmp_path, capsys):
        # with --out beside it, the power scenario's manifest used to replace the config
        config_path = tmp_path / "power.json"
        text = json.dumps([self._scenario("power"), self._scenario("other")])
        config_path.write_text(text)
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config_path} is the --config file {config_path}: "
            "an output may not replace it\n"
        )
        assert config_path.read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["power.json"]

    @pytest.mark.parametrize("scenario_id", [["a"], {"k": 1}, 7])
    def test_non_string_scenario_id_rejected(self, tmp_path, capsys, scenario_id):
        scenarios = [self._scenario("fine"), self._scenario(scenario_id)]
        err = self._run_invalid(tmp_path, capsys, scenarios).err
        assert f"scenario_id must be a nonempty string, got {scenario_id!r}" in err

    @pytest.mark.parametrize("scenario", [5, "abc", [1]])
    def test_non_object_scenario_rejected(self, tmp_path, capsys, scenario):
        err = self._run_invalid(tmp_path, capsys, [self._scenario("fine"), scenario]).err
        assert f"a scenario must be a JSON object, got {scenario!r}" in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"p": 3.5}, "p must be an integer, got 3.5"),
            ({"p": "5"}, "p must be an integer, got '5'"),
            ({"n1": True}, "n1 must be an integer, got True"),
            ({"draws": 10.5}, "draws must be an integer, got 10.5"),
            ({"replications": 2.5}, "replications must be an integer, got 2.5"),
            ({"seed": 1.7}, "seed must be an integer, got 1.7"),
            ({"deltas": 0.5}, "deltas must be a list of numbers, got 0.5"),
            # ints that no float holds: named, not an OverflowError traceback
            pytest.param(
                {"deltas": [0.0, 10**400]},
                f"deltas must be a list of numbers, got [0.0, {10**400}]",
                id="delta-beyond-float",
            ),
            pytest.param(
                {"beta": 10**400}, f"beta must be a number, got {10**400}", id="beta-beyond-float"
            ),
            pytest.param(
                {"beta": -(10**400)},
                f"beta must be a number, got {-(10**400)}",
                id="beta-below-float",
            ),
            ({"family": 5}, "unknown family 5; expected gaussian, cauchy, or t<k>"),
            pytest.param({"beta": float("inf")}, "beta must be finite, got inf", id="beta-inf"),
            pytest.param(
                {"alpha": 1e-17},
                "alpha must be above 2**-54, or 1 - alpha rounds to 1, got 1e-17",
                id="alpha-level-rounds-to-1",
            ),
        ],
    )
    def test_mistyped_field_rejected_before_any_output(self, tmp_path, capsys, overrides, message):
        scenarios = [self._scenario("good"), self._scenario("bad", **overrides)]
        err = self._run_invalid(tmp_path, capsys, scenarios).err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "overrides, field",
        [({"n1": 1}, "n1"), ({"n2": 1, "estimator": "taper"}, "n2")],
        ids=["n1-sign-plain", "n2-sign-taper"],
    )
    def test_one_row_scenario_rejected_before_any_output(
        self, tmp_path, capsys, overrides, field
    ):
        # every replication of it would fail in the test, after earlier files were written
        scenarios = [self._scenario("good"), self._scenario("bad", **overrides)]
        err = self._run_invalid(tmp_path, capsys, scenarios).err
        assert err == f"error: {field} must be at least 2, got 1\n"

    @pytest.mark.parametrize(
        "threads, replications, processes",
        [(2, (4, 4, 4), 2), (4, (1, 2), 2), (3, (4, 4, 4), 3)],
        ids=["three-scenarios", "fewer-replications", "three-threads"],
    )
    def test_one_set_of_workers_per_run(
        self, tmp_path, monkeypatch, threads, replications, processes
    ):
        pids = tmp_path / "pids.log"
        replicate = experiments._replicate

        def pid_logging(config, r):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()} {os.getppid()}\n")
            return replicate(config, r)

        monkeypatch.setattr(experiments, "_replicate", pid_logging)
        scenarios = [self._scenario(f"s{i}", replications=r) for i, r in enumerate(replications)]
        code, out_dir = self._simulate(tmp_path, scenarios, threads)
        assert code == 0
        # the caller and its forked workers, which ran the patched replication
        seen = {tuple(map(int, line.split())) for line in pids.read_text().splitlines()}
        caller = os.getpid()
        assert len(seen) == processes and (caller, os.getppid()) in seen
        assert {parent for pid, parent in seen if pid != caller} == {caller}
        # the workers are joined before simulate returns
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            f"s{i}.{ext}" for i in range(len(replications)) for ext in ("csv", "json")
        )

    def test_dead_worker_is_a_one_line_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "_replicate", worker_exits(os.getpid()))
        # the worker has no replication of "first", and dies on its first of "second"
        scenarios = [self._scenario("first", replications=1), self._scenario("second")]
        code, out_dir = self._simulate(tmp_path, scenarios, threads=2)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: worker process ") and err.count("\n") == 1
        assert "exited with code 3 before sending its counts for 'second'" in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["first.csv", "first.json"]
        assert multiprocessing.active_children() == []

    def test_failing_scenario_keeps_the_earlier_files(
        self, tmp_path, monkeypatch, capsys, blas_at_two_threads
    ):
        monkeypatch.setattr(experiments, "_replicate", second_scenario_fails)
        scenarios = [self._scenario("first"), self._scenario("second")]
        code, out_dir = self._simulate(tmp_path, scenarios, threads=2)
        assert blas_at_two_threads() == 2
        assert code == 1
        assert "replication" in capsys.readouterr().err
        assert sorted(p.name for p in out_dir.iterdir()) == ["first.csv", "first.json"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_out_of_memory_keeps_the_earlier_files(self, tmp_path, monkeypatch, capsys, threads):
        monkeypatch.setattr(experiments, "_replicate", second_scenario_runs_out_of_memory)
        scenarios = [self._scenario("first"), self._scenario("second")]
        code, out_dir = self._simulate(tmp_path, scenarios, threads=threads)
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["first.csv", "first.json"]
        assert multiprocessing.active_children() == []

    def test_seconds_count_the_time_since_the_previous_curve(self, tmp_path, monkeypatch):
        # a slow write of one curve's file is counted in the next curve's seconds
        original = cli.write_csv

        def slow_write_csv(rows, path):
            time.sleep(0.1)
            original(rows, path)

        monkeypatch.setattr(cli, "write_csv", slow_write_csv)
        scenarios = [self._scenario(f"s{i}", deltas=[0.0, 1.0]) for i in range(3)]
        start = time.perf_counter()
        code, out_dir = self._simulate(tmp_path, scenarios, threads=2)
        wall = time.perf_counter() - start
        assert code == 0
        seconds = []
        for i in range(3):
            with open(out_dir / f"s{i}.csv", newline="") as fh:
                seconds += [float(row["seconds"]) for row in csv.DictReader(fh)]
        assert len(seconds) == 6 and min(seconds) >= 0.0
        assert 0.2 <= sum(seconds) <= wall

    def test_duplicate_scenario_id_rejected(self, tmp_path, capsys):
        scenarios = [self._scenario("twice"), self._scenario("once"), self._scenario("twice", p=4)]
        err = self._run_invalid(tmp_path, capsys, scenarios).err
        assert "duplicate scenario_id 'twice'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--draws", "0"],
        ["test", "--draws", "-2"],
        ["test", "--alpha", "0"],
        ["test", "--alpha", "1"],
        ["test", "--alpha", "2"],
        ["test", "--alpha", "nan"],
        ["test", "--alpha", "1e-17"],
        ["test", "--beta", "0"],
        ["test", "--beta", "-1"],
        ["blocks", "--width", "0"],
        ["blocks", "--width", "3", "--draws", "0"],
        ["blocks", "--width", "3", "--alpha", "-0.5"],
        ["blocks", "--width", "3", "--beta", "-1"],
        ["test", "--seed", "-1"],
        ["blocks", "--width", "3", "--seed", "-1"],
        ["test", "--beta", "inf"],
        ["blocks", "--width", "3", "--beta", "inf"],
    ],
)
def test_out_of_range_numeric_flag_is_a_usage_error(tmp_path, capsys, argv):
    # the CSVs do not exist, so exit 2 shows the flag was checked before any read
    missing = str(tmp_path / "missing.csv")
    with pytest.raises(SystemExit) as err:
        main([argv[0], "--x", missing, "--y", missing, *argv[1:]])
    assert err.value.code == 2
    message = capsys.readouterr().err
    flag = argv[-2]
    assert f"argument {flag}:" in message and "must be" in message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["test", "--draws", "0"], "argument --draws: draws must be at least 1, got 0"),
        (
            ["test", "--alpha", "2"],
            "argument --alpha: alpha must be strictly between 0 and 1, got 2.0",
        ),
        (
            ["test", "--alpha", "1e-17"],
            "argument --alpha: alpha must be above 2**-54, or 1 - alpha rounds to 1, got 1e-17",
        ),
        (["test", "--seed", "-1"], "argument --seed: seed must be at least 0, got -1"),
        (["test", "--beta", "-1"], "argument --beta: beta must be positive, got -1.0"),
        (["test", "--beta", "inf"], "argument --beta: beta must be finite, got inf"),
        (["test", "--beta", "nan"], "argument --beta: beta must be finite, got nan"),
        (["blocks", "--width", "0"], "argument --width: width must be at least 1, got 0"),
        (["simulate", "--threads", "0"], "argument --threads: threads must be at least 1, got 0"),
    ],
)
def test_numeric_flag_reports_the_library_message(tmp_path, capsys, argv, message):
    # the flag's value is checked by the library code that uses it, in its words
    missing = str(tmp_path / "missing")
    if argv[0] == "simulate":
        files = ["--config", missing, "--out", missing]
    else:
        files = ["--x", missing, "--y", missing]
    with pytest.raises(SystemExit) as err:
        main([argv[0], *files, *argv[1:]])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--config", "{config}", "--out", "{out}", "--threads", "2"],
        ["test", "--x", "{x}", "--y", "{y}", "--json", "{out}.json"],
        ["blocks", "--x", "{x}", "--y", "{y}", "--width", "3", "--json", "{out}.json"],
    ],
)
def test_every_file_is_opened_as_utf8(tmp_path, sample_pair, command):
    # EncodingWarning flags each open() that falls back to the locale's encoding. The
    # flags take effect from the interpreter's start, so the command runs in a new one
    _, _, x_path, y_path = sample_pair
    config = tmp_path / "config.json"
    scenario = dict(scenario_id="tiny", family="gaussian", cov_form="identity", p=3, n1=10)
    config.write_text(json.dumps({**scenario, "n2": 12, "draws": 50, "replications": 2}))
    paths = dict(config=config, out=tmp_path / "out", x=x_path, y=y_path)
    argv = [arg.format(**paths) for arg in command]
    flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, *flags, "-m", "twosample", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", [["test"], ["blocks", "--width", "3"]])
def test_flag_defaults_are_the_library_defaults(command):
    # a flag left out runs the test that a library call with no such argument runs
    args = cli._build_parser().parse_args([*command, "--x", "x.csv", "--y", "y.csv"])
    test = inspect.signature(run_test).parameters
    blocks = inspect.signature(run_realdata_blocks).parameters
    library = NullDrawConfig()
    assert args.kernel == blocks["kernel"].default
    assert args.estimator == test["estimator"].default == blocks["estimator"].default
    assert args.beta == test["beta"].default == blocks["beta"].default
    assert (args.draws, args.alpha) == (library.draws, library.alpha)
    # with no --seed, _read_inputs says so and runs at DEFAULT_SEED, NullDrawConfig's own
    assert args.seed is None and library.seed == DEFAULT_SEED
