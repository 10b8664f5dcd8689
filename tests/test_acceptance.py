"""End-to-end acceptance checks: operating characteristics at desk scale.

Each test prints one `criterion N: PASS/FAIL` line; run with `pytest -s`
to see the lines as they complete. The statistical criteria use fixed
seeds, so reruns are exact.
"""

import dataclasses
import json
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np

from twosample import (
    NullDrawConfig,
    ScenarioConfig,
    compute_statistic,
    derive_seed,
    run_power_curve,
    shift_vector,
    simulate_null_draws,
)

from oracle import compute_statistic_oracle, write_matrix

SEED = 20250819


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _cfg(**kw):
    base = dict(
        scenario_id="accept",
        family="gaussian",
        cov_form="equicorr",
        p=5,
        n1=40,
        n2=50,
        deltas=(0.0,),
        kernel="sign",
        estimator="plain",
        alpha=0.05,
        draws=1000,
        replications=1000,
        seed=SEED,
    )
    base.update(kw)
    return ScenarioConfig(**base)


@lru_cache(maxsize=None)
def _size_row(config):
    # the caller and one forked worker; rows do not depend on the thread count, and
    # criterion 5 compares these against its serial curves' delta=0 rows
    [row] = run_power_curve(config, threads=2)
    return row


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(derive_seed(SEED, 1))
    start = time.perf_counter()
    worst = 0.0
    for k in range(200):
        n1 = int(rng.integers(2, 7))
        n2 = int(rng.integers(2, 7))
        p = int(rng.integers(1, 5))
        kernel = ("identity", "sign")[k % 2]
        x = rng.standard_normal((n1, p))
        y = rng.standard_normal((n2, p))
        fast = compute_statistic(x, y, kernel)
        slow = compute_statistic_oracle(x, y, kernel)
        worst = max(worst, abs(fast - slow) / (1.0 + abs(slow)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _verdict(1, ok, f"200 instances, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_size_p5():
    start = time.perf_counter()
    sign_gauss = _size_row(_cfg(scenario_id="size-p5-gauss-equicorr-sign")).reject_frac
    sign_cauchy = _size_row(
        _cfg(scenario_id="size-p5-cauchy-equicorr-sign", family="cauchy")
    ).reject_frac
    id_cauchy = _size_row(
        _cfg(scenario_id="size-p5-cauchy-equicorr-id", family="cauchy", kernel="identity")
    ).reject_frac
    elapsed = time.perf_counter() - start
    ok = (
        0.03 <= sign_gauss <= 0.07
        and 0.03 <= sign_cauchy <= 0.07
        and id_cauchy <= 0.03
    )
    _verdict(
        2,
        ok,
        f"sign gauss {sign_gauss:.4f}, sign cauchy {sign_cauchy:.4f} in [0.03,0.07], "
        f"identity cauchy {id_cauchy:.4f} <= 0.03, {elapsed:.0f}s",
    )


def test_criterion_3_size_p100():
    start = time.perf_counter()
    sign_equi = _size_row(
        _cfg(scenario_id="size-p100-gauss-equicorr-sign", p=100, replications=500)
    ).reject_frac
    taper_equi = _size_row(
        _cfg(
            scenario_id="size-p100-gauss-equicorr-id-taper",
            p=100,
            replications=500,
            kernel="identity",
            estimator="taper",
        )
    ).reject_frac
    sign_ident = _size_row(
        _cfg(
            scenario_id="size-p100-gauss-ident-sign",
            p=100,
            cov_form="identity",
            replications=500,
        )
    ).reject_frac
    elapsed = time.perf_counter() - start
    ok = (
        0.025 <= sign_equi <= 0.075
        and taper_equi >= 0.12
        and sign_ident <= 0.03
    )
    _verdict(
        3,
        ok,
        f"sign equicorr {sign_equi:.4f} in [0.025,0.075], "
        f"identity taper {taper_equi:.4f} >= 0.12, "
        f"sign identity-cov {sign_ident:.4f} <= 0.03, {elapsed:.0f}s",
    )


def test_criterion_4_hotelling_size_p5():
    frac = _size_row(
        _cfg(scenario_id="size-p5-gauss-equicorr-ht2", estimator="hotelling")
    ).reject_frac
    ok = 0.03 <= frac <= 0.07
    _verdict(4, ok, f"hotelling size {frac:.4f} in [0.03,0.07]")


def test_criterion_5_power_saturation():
    start = time.perf_counter()
    p5 = _cfg(
        scenario_id="power-p5-gauss-ident-sign",
        cov_form="identity",
        deltas=(0.0, 2.0),
        replications=500,
    )
    p100 = _cfg(
        scenario_id="size-p100-gauss-ident-sign",
        p=100,
        cov_form="identity",
        deltas=(0.0, 4.0),
        replications=500,
    )
    strip = lambda row: dataclasses.replace(row, seconds=0.0)
    oks = []
    tops = []
    for cfg in (p5, p100):
        rows = run_power_curve(cfg)
        size = _size_row(dataclasses.replace(cfg, deltas=(0.0,)))
        tops.append(rows[-1].reject_frac)
        oks.append(rows[-1].reject_frac >= 0.9 and strip(rows[0]) == strip(size))
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        all(oks),
        f"top power p5 {tops[0]:.3f}, p100 {tops[1]:.3f} >= 0.9, "
        f"delta=0 rows equal size runs, {elapsed:.0f}s",
    )


def test_criterion_6_identity_kernel_mean_law():
    p, n1, n2, reps = 10, 40, 50, 500
    rng = np.random.default_rng(derive_seed(SEED, 6))
    shift = shift_vector(p, 0.5)
    target = (n1 - 1) * (n2 - 1) * 0.25 / (n1 + n2)
    null_vals = np.empty(reps)
    alt_vals = np.empty(reps)
    for r in range(reps):
        null_vals[r] = compute_statistic(
            rng.standard_normal((n1, p)), rng.standard_normal((n2, p)), "identity"
        )
        alt_vals[r] = compute_statistic(
            rng.standard_normal((n1, p)),
            rng.standard_normal((n2, p)) + shift,
            "identity",
        )
    null_gap = abs(null_vals.mean())
    null_se = null_vals.std(ddof=1) / np.sqrt(reps)
    alt_gap = abs(alt_vals.mean() - target)
    alt_se = alt_vals.std(ddof=1) / np.sqrt(reps)
    ok = null_gap <= 3 * null_se and alt_gap <= 3 * alt_se
    _verdict(
        6,
        ok,
        f"null mean off by {null_gap / null_se:.2f} se, "
        f"shifted mean off target {target:.4f} by {alt_gap / alt_se:.2f} se",
    )


def test_criterion_7_null_draw_moments():
    p = 5
    draws = simulate_null_draws(
        np.ones(p), NullDrawConfig(draws=10**6), np.random.default_rng(SEED)
    )
    mean = float(draws.mean())
    var = float(draws.var(ddof=1))
    mean_tol = 0.02 * np.sqrt(2 * p)
    ok = abs(mean) <= mean_tol and abs(var - 2 * p) <= 0.03 * 2 * p
    _verdict(
        7,
        ok,
        f"mean {mean:+.4f} within {mean_tol:.4f}, var {var:.4f} within 3% of {2 * p}",
    )


def test_criterion_8_invariances():
    rng = np.random.default_rng(derive_seed(SEED, 8))
    p = 4
    xi = rng.integers(-5, 6, size=(9, p)).astype(float)
    yi = rng.integers(-5, 6, size=(11, p)).astype(float)
    shift = rng.integers(-7, 8, size=p).astype(float)
    x = rng.standard_normal((9, p))
    y = rng.standard_normal((11, p))
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))

    checks = []
    for kernel in ("identity", "sign"):
        base_i = compute_statistic(xi, yi, kernel)
        # integer-valued data keeps float translation arithmetic exact
        checks.append(compute_statistic(xi + shift, yi + shift, kernel) == base_i)
        base = compute_statistic(x, y, kernel)
        rotated = compute_statistic(x @ q, y @ q, kernel)
        checks.append(abs(rotated - base) <= 1e-8 * (1.0 + abs(base)))
    base = compute_statistic(x, y, "identity")
    c = 3.7
    scaled = compute_statistic(c * x, c * y, "identity")
    checks.append(abs(scaled - c * c * base) <= 1e-10 * (1.0 + c * c * abs(base)))
    base = compute_statistic(x, y, "sign")
    for c in (0.002, 2000.0):
        scaled = compute_statistic(c * x, c * y, "sign")
        checks.append(abs(scaled - base) <= 1e-12 * (1.0 + abs(base)))
    _verdict(
        8,
        all(checks),
        "translation exact, orthogonal 1e-8, identity scale 1e-10, sign scale 1e-12",
    )


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "twosample", *args],
        capture_output=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _mask_seconds(csv_bytes):
    lines = csv_bytes.decode().splitlines()
    idx = lines[0].split(",").index("seconds")
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[idx] = "-"
        masked.append(",".join(cells))
    return "\n".join(masked)


def test_criterion_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(derive_seed(SEED, 9))
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    write_matrix(x_path, rng.standard_normal((20, 6)))
    write_matrix(y_path, rng.standard_normal((22, 6)))

    checks = []
    for sub, extra in (("test", ()), ("blocks", ("--width", "3"))):
        outs = []
        for tag in ("a", "b"):
            report = tmp_path / f"{sub}_{tag}.json"
            stdout = _run_cli(
                [
                    sub,
                    "--x", str(x_path),
                    "--y", str(y_path),
                    *extra,
                    "--draws", "500",
                    "--seed", "11",
                    "--json", str(report),
                ]
            )
            outs.append((stdout, report.read_bytes()))
        checks.append(outs[0] == outs[1])

    scenario = {
        "scenario_id": "accept-demo",
        "family": "gaussian",
        "cov_form": "identity",
        "p": 3,
        "n1": 15,
        "n2": 15,
        "deltas": [0.0, 1.5],
        "kernel": "sign",
        "estimator": "plain",
        "alpha": 0.05,
        "draws": 200,
        "replications": 20,
        "seed": SEED,
    }
    config_path = tmp_path / "demo.json"
    config_path.write_text(json.dumps(scenario))
    produced = []
    for tag, threads in (("s1", "1"), ("s2", "1"), ("s3", "8")):
        out_dir = tmp_path / tag
        _run_cli(
            [
                "simulate",
                "--config", str(config_path),
                "--out", str(out_dir),
                "--threads", threads,
            ]
        )
        produced.append(
            (
                _mask_seconds((out_dir / "accept-demo.csv").read_bytes()),
                (out_dir / "accept-demo.json").read_bytes(),
            )
        )
    checks.append(produced[0] == produced[1] == produced[2])
    _verdict(
        9,
        all(checks),
        "test/blocks/simulate byte-identical across reruns and threads 1 vs 8 "
        "(wall-time column masked)",
    )
