"""Benchmark of the twosample package: single tests and a simulated power curve.

Run from the repository root:

    python3 bench/run.py --workload test-p5 --seed 1 --seconds 20 --trace 0

Workloads (inputs are made from --seed during set-up, outside the timing;
README.md gives the reason for each and defines every metric):

- test-p5     closed loop of run_test, n1=40, n2=50, p=5, sign kernel, plain
              estimator, M=10^4 draws; half null and half shifted pairs.
- test-p1000  the same at p=1000, far above the rank n1+n2-2 of the estimate.
- sim-p100    `twosample simulate --threads 2` on configs/power_p100.json
              with fewer replications.

--trace 0 measures end to end with nothing instrumented. --trace 1 runs the
workload serially, untraced and then traced (a span around each layer
call, see tracing.py), and reports per-layer numbers; for sim-p100 it also
reruns the threaded command untraced to measure parallel efficiency.
Every output is checked (check.py); sim-p100 also checks, after its
timing, run_test reports on pairs of each of its scenarios. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; run metadata, extra
figures and spans go to bench/results/. `--workload all` runs the three in
turn, each in its own process printing its own lines and JSON object.
"""

import argparse
import array
import collections
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

MIN_SAMPLES = 20  # a median is reported only with ten samples beyond it
TAIL_SAMPLES = 100  # likewise for the 90th percentile
SETUP_REPEATS = 3
TIME_CAP = 120.0  # a run stops measuring here even short of MIN_SAMPLES
TRACE_MIN_CALLS = 3


# test-* design: sample sizes, level, and the shift of the odd-numbered pairs
N1, N2, ALPHA, SHIFT = 40, 50, 0.05, 0.5
THREADS = 2  # sim-p100 runs `simulate --threads 2`


@dataclasses.dataclass(frozen=True)
class TestWorkload:
    p: int
    pairs: int  # distinct input pairs; the closed loop cycles through them
    draws: int = 10000  # M, the CLI default
    ref_draws: int = 40000  # size of the checker's own reference-law sample


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    replications: int = 6
    ref_draws: int = 40000  # as TestWorkload, for the checked run_test reports


WORKLOADS = {
    "test-p5": TestWorkload(p=5, pairs=256),
    "test-p1000": TestWorkload(p=1000, pairs=12),
    "sim-p100": SimWorkload(),
}
SIM_CONFIG = ROOT / "configs" / "power_p100.json"
POWER_REFERENCE = HERE / "power_reference.json"


@dataclasses.dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    metrics: dict = dataclasses.field(default_factory=dict)  # name -> (value, unit)
    extra: dict = dataclasses.field(default_factory=dict)
    spans: list | None = None

    def fail(self, where, reasons):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {'; '.join(reasons)}")


def derived_seed(*words):
    """A 63-bit seed from the benchmark seed and a path of indices."""
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint64)[0] >> 1)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # largest child
    return (own + child) / 1024.0


def latency_metrics(result, setups, tests, busy, samples):
    """End-to-end figures from set-up times, tests done in `busy` seconds, and
    per-test latency samples in seconds."""
    if not samples:
        raise SystemExit("error: no test completed")
    # read the peak before the import timing, whose children must not count in it
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    result.metrics["setup_s"] = (import_seconds() + statistics.median(setups), "s")
    result.metrics["tests_per_s"] = (tests / busy, "1/s")
    result.extra["test_ms_samples"] = len(samples)
    result.extra["test_ms_p50"] = 1e3 * percentile(samples, 50)
    if len(samples) >= TAIL_SAMPLES:
        result.extra["test_ms_p90"] = 1e3 * percentile(samples, 90)


def layer_metrics(result, tracer):
    """Per-test layer figures from the spans and counters of a traced phase."""
    tests = max(1, sum(1 for s in tracer.spans if s.name == "calibration.run_test"))
    own = tracer.self_times()

    def ms(*names):
        return 1e3 * sum(own[n] for n in names) / tests

    lengths = tracer.spectrum_lengths
    result.metrics.update(
        {
            "statistic.pair_passes_per_test": (tracer.counts["statistic.pair_aggregates"] / tests, "count"),
            "statistic.ms_per_test": (ms("statistic.pair_aggregates", "statistic.compute_statistic"), "ms"),
            "covariance.estimate_ms_per_test": (
                ms("covariance.estimate_plain", "covariance.estimate_tapered"),
                "ms",
            ),
            "covariance.eig_ms_per_test": (ms("covariance.eigenvalues_sym"), "ms"),
            "covariance.spectrum_len": (sum(lengths) / max(1, len(lengths)), "count"),
            "calibration.draws_ms_per_test": (ms("calibration.simulate_null_draws"), "ms"),
            "calibration.normals_per_test": (tracer.counts["calibration.normals"] / tests, "count"),
            "calibration.quantile_ms_per_test": (ms("calibration.empirical_quantile"), "ms"),
            "calibration.run_test_self_ms": (ms("calibration.run_test"), "ms"),
            "datagen.ms_per_test": (ms("datagen.generate_scenario"), "ms"),
            "experiments.self_ms_per_test": (ms("experiments.run_power_curve"), "ms"),
        }
    )
    result.spans = tracer.to_json()


def trace_overhead(result, untraced_ms, traced_ms):
    result.metrics["trace.untraced_ms_per_test"] = (untraced_ms, "ms")
    result.metrics["trace.overhead_ms_per_test"] = (traced_ms - untraced_ms, "ms")


# ---------------------------------------------------------------- test-*


def make_pairs(spec, seed):
    """Gaussian equicorrelated (x, y) pairs; returns them and the datagen seconds."""
    from twosample import ScenarioConfig, datagen

    pairs, seconds = [], 0.0
    for k in range(spec.pairs):
        config = ScenarioConfig(
            scenario_id="bench",
            family="gaussian",
            cov_form="equicorr",
            p=spec.p,
            n1=N1,
            n2=N2,
            deltas=(SHIFT * (k % 2),),
        )
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0, k]))
        start = time.perf_counter()
        pairs.append(datagen.generate_scenario(config, rng))
        seconds += time.perf_counter() - start
    return pairs, seconds


def draw_config(spec, seed, i, stream=2):
    from twosample import NullDrawConfig

    return NullDrawConfig(draws=spec.draws, alpha=ALPHA, seed=derived_seed(seed, stream, i))


REPORT_FIELDS = ("statistic", "cutoff", "p_value", "reject", "trace", "top_eigenvalue")
Report = collections.namedtuple("Report", REPORT_FIELDS)


class Outcomes:
    """Test outputs, kept as 7 doubles per test until they are checked, so
    the benchmark's own memory hardly grows with the number of tests."""

    def __init__(self):
        self.values = array.array("d")
        self.errors = []  # (test index, error text)

    def add(self, i, report):
        if isinstance(report, str):
            self.errors.append((i, report))
        else:
            self.values.extend([i, *(float(getattr(report, f)) for f in REPORT_FIELDS)])

    def check(self, result, spec, pairs, seed):
        """Check every output against a reference built once per input pair."""
        for i, text in self.errors:
            result.attempted += 1
            result.fail(f"test {i}", [text])
        references = {}
        width = 1 + len(REPORT_FIELDS)
        for row in range(0, len(self.values), width):
            result.attempted += 1
            i = int(self.values[row])
            report = Report(*self.values[row + 1 : row + width])._replace(
                reject=bool(self.values[row + 4])
            )
            k = i % len(pairs)
            if k not in references:
                rng = np.random.default_rng(np.random.SeedSequence([seed, 3, k]))
                references[k] = check.PairReference(*pairs[k], spec.ref_draws, rng)
            problems = references[k].problems(report, spec.draws, ALPHA)
            if problems:
                result.fail(f"test {i}", problems)


def one_test(spec, pairs, seed, i, outcomes):
    """Run test i on pair i mod len(pairs); returns its seconds, or None if it raised."""
    from twosample import calibration

    x, y = pairs[i % len(pairs)]
    config = draw_config(spec, seed, i)
    start = time.perf_counter()
    try:
        report = calibration.run_test(x, y, "sign", "plain", config)
    except Exception as err:  # a test that raises is counted as failed
        outcomes.add(i, f"{type(err).__name__}: {err}")
        return None
    seconds = time.perf_counter() - start
    outcomes.add(i, report)
    return seconds


def done(start, busy, seconds, samples, min_samples=MIN_SAMPLES):
    """True once `busy`, the seconds spent in the program, reaches `seconds`
    with `min_samples` taken, or TIME_CAP has passed since `start`."""
    return time.perf_counter() - start >= TIME_CAP or (busy >= seconds and samples >= min_samples)


def run_tests(spec, seed, seconds, trace):
    from twosample import calibration

    result = Result()
    setups = []
    for _ in range(SETUP_REPEATS if not trace else 1):
        start = time.perf_counter()
        pairs, gen_seconds = make_pairs(spec, seed)
        calibration.run_test(*pairs[0], "sign", "plain", draw_config(spec, seed, 0, stream=4))
        setups.append(time.perf_counter() - start)
    outcomes = Outcomes()
    if not trace:
        latencies = array.array("d")
        busy = 0.0
        start = time.perf_counter()
        i = 0
        while not done(start, busy, seconds, len(latencies)):
            dt = one_test(spec, pairs, seed, i, outcomes)
            if dt is not None:
                latencies.append(dt)
                busy += dt
            i += 1
        latency_metrics(result, setups, len(latencies), busy, latencies)
        outcomes.check(result, spec, pairs, seed)
        return result

    # each test runs twice, untraced and then traced, so drift hits both alike
    tracer = tracing.Tracer()
    plain, traced = [], []
    busy = 0.0
    start = time.perf_counter()
    i = 0
    while not done(start, busy, seconds, len(plain)):
        dt = one_test(spec, pairs, seed, i, outcomes)
        tracer.request = i
        with tracer.active():
            dt_traced = one_test(spec, pairs, seed, i, outcomes)
        if dt is not None and dt_traced is not None:
            plain.append(dt)
            traced.append(dt_traced)
            busy += dt + dt_traced
        i += 1
    layer_metrics(result, tracer)
    result.metrics["datagen.ms_per_test"] = (1e3 * gen_seconds / len(pairs), "ms")
    trace_overhead(result, 1e3 * statistics.fmean(plain), 1e3 * statistics.fmean(traced))
    result.extra["trace.layer_self_sum_ms_per_test"] = sum(
        result.metrics[name][0]
        for name in (
            "statistic.ms_per_test",
            "covariance.estimate_ms_per_test",
            "covariance.eig_ms_per_test",
            "calibration.draws_ms_per_test",
            "calibration.quantile_ms_per_test",
            "calibration.run_test_self_ms",
        )
    )
    result.metrics.update(
        {
            "experiments.serial_tests_per_s": (0.0, "1/s"),
            "experiments.parallel_efficiency": (0.0, "ratio"),
            "experiments.pools_per_run": (0.0, "count"),
        }
    )
    outcomes.check(result, spec, pairs, seed)
    return result


# ---------------------------------------------------------------- sim-p100


@dataclasses.dataclass
class SimCall:
    index: int
    threads: int
    seconds: float
    error: str | None
    rows: dict  # scenario_id -> list of CSV rows, or None when the file is missing


class Simulation:
    """Runs `twosample simulate` on seeded, reduced copies of SIM_CONFIG."""

    def __init__(self, spec, seed, workdir):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.scenarios = [
            dict(item, replications=spec.replications) for item in json.loads(SIM_CONFIG.read_text())
        ]
        self.tests_per_call = sum(s["replications"] * len(s["deltas"]) for s in self.scenarios)

    def call(self, index, threads, stream=1):
        from twosample import cli

        seed = derived_seed(self.seed, stream, index)
        config = self.workdir / "config.json"
        config.write_text(json.dumps([dict(s, seed=seed) for s in self.scenarios]))
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["simulate", "--config", str(config), "--out", str(out), "--threads", str(threads)]
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as err:  # a run that raises is counted as failed
            code, error = None, f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - start
        if code != 0 and error is None:
            error = f"exit code {code}"
        rows = {}
        for s in self.scenarios:
            rows[s["scenario_id"]] = read_rows(out / f"{s['scenario_id']}.csv")
        shutil.rmtree(out, ignore_errors=True)
        return SimCall(index, threads, seconds, error, rows)

    def loop(self, threads, seconds):
        calls = []
        start = time.perf_counter()
        while not done(start, sum(c.seconds for c in calls), seconds, len(calls)):
            calls.append(self.call(len(calls), threads))
        return calls

    def check_reports(self, result):
        """Run and check one run_test report per (scenario, delta).

        Rows carry only a rejection count, so this is what checks the
        statistic, the spectrum (tapered or not) and the cutoff of each
        scenario's kernel and estimator tightly. It runs outside the timing.
        """
        from twosample import NullDrawConfig, calibration, config_from_dict, datagen

        for a, s in enumerate(self.scenarios):
            config = config_from_dict(s)
            taper_k = None
            if config.estimator == "taper":
                taper_k = check.taper_bandwidth(config.beta, config.n1 + config.n2, config.p)
            for j, delta in enumerate(config.deltas):
                result.attempted += 1
                where = f"report {s['scenario_id']} delta {delta}"
                rng = np.random.default_rng(np.random.SeedSequence([self.seed, 5, a, j]))
                x, y = datagen.generate_scenario(dataclasses.replace(config, deltas=(delta,)), rng)
                draws = NullDrawConfig(config.draws, config.alpha, derived_seed(self.seed, 6, a, j))
                try:
                    report = calibration.run_test(
                        x, y, config.kernel, config.estimator, draws, beta=config.beta
                    )
                except Exception as err:  # a test that raises is counted as failed
                    result.fail(where, [f"{type(err).__name__}: {err}"])
                    continue
                reference = check.PairReference(
                    x, y, self.spec.ref_draws, rng, kernel=config.kernel, taper_k=taper_k
                )
                problems = reference.problems(report, config.draws, config.alpha)
                if problems:
                    result.fail(where, problems)

    def check(self, result, calls):
        """Row checks per call, then a binomial check per (scenario, delta) cell.

        Calls with the same index share a seed; their rows must agree in
        every column but `seconds`, whatever the thread count. Only the
        first call of each index counts toward the power cells.
        """
        reference = {
            (c["scenario_id"], c["delta"]): c for c in json.loads(POWER_REFERENCE.read_text())["cells"]
        }
        cells = {}  # (scenario_id, delta) -> [rejections, replications, rows]
        first = {}
        for call in calls:
            for s in self.scenarios:
                sid, reps = s["scenario_id"], s["replications"]
                rows = call.rows[sid]
                for j, delta in enumerate(s["deltas"]):
                    result.attempted += 1
                    where = f"call {call.index} threads {call.threads} {sid} delta {delta}"
                    if call.error or rows is None or j >= len(rows):
                        result.fail(where, [call.error or "row missing"])
                        continue
                    row = {k: v for k, v in rows[j].items() if k != "seconds"}
                    problems = check.row_problems(rows[j], s, float(delta))
                    key = (call.index, sid, j)
                    if key in first and first[key] != row:
                        problems.append("differs from the same seed's row at another thread count")
                    if problems:
                        result.fail(where, problems)
                    elif key not in first:
                        first[key] = row
                        cell = cells.setdefault((sid, float(delta)), [0, 0, 0])
                        cell[0] += round(float(row["reject_frac"]) * reps)
                        cell[1] += reps
                        cell[2] += 1
        for (sid, delta), (rejections, reps, nrows) in cells.items():
            problem = check.power_cell_problem(rejections, reps, reference[(sid, delta)])
            if problem:
                result.failed += nrows
                result.problems.append(f"{sid} delta {delta}: {problem}")


def read_rows(path):
    try:
        with path.open(newline="") as fh:
            return list(csv.DictReader(fh))
    except FileNotFoundError:
        return None


def run_sim(spec, seed, seconds, trace):
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run_sim(Simulation(spec, seed, workdir), seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_sim(sim, seconds, trace):
    result = Result()
    if not trace:
        setups = []
        for rep in range(SETUP_REPEATS):
            setups.append(sim.call(rep, THREADS, stream=4).seconds)
        calls = sim.loop(THREADS, seconds)
        completed = [c.seconds for c in calls if c.error is None]
        per_test = [t / sim.tests_per_call for t in completed]
        latency_metrics(result, setups, len(completed) * sim.tests_per_call, sum(completed), per_test)
        sim.check_reports(result)
        sim.check(result, calls)
        return result

    # call k runs serially untraced, serially traced and threaded, in turn,
    # so drift hits all three alike; all three must give the same rows
    sim.call(0, 1, stream=4)
    tracer = tracing.Tracer()
    serial, traced, pooled = [], [], []
    start = time.perf_counter()
    while not done(start, sum(c.seconds for c in serial + traced + pooled), seconds, len(serial), TRACE_MIN_CALLS):
        k = len(serial)
        serial.append(sim.call(k, 1))
        tracer.request = k
        with tracer.active():
            traced.append(sim.call(k, 1))
        with tracing.counting_pools(tracer.counts):
            pooled.append(sim.call(k, THREADS))
    layer_metrics(result, tracer)

    def ms_per_test(calls):
        return 1e3 * sum(c.seconds for c in calls) / (len(calls) * sim.tests_per_call)

    serial_ms, pooled_ms = ms_per_test(serial), ms_per_test(pooled)
    trace_overhead(result, serial_ms, ms_per_test(traced))
    result.metrics.update(
        {
            "experiments.serial_tests_per_s": (1e3 / serial_ms, "1/s"),
            "experiments.parallel_efficiency": (serial_ms / (THREADS * pooled_ms), "ratio"),
            "experiments.pools_per_run": (tracer.counts["experiments.pools"] / len(pooled), "count"),
        }
    )
    sim.check_reports(result)
    sim.check(result, serial + traced + pooled)
    return result


# ---------------------------------------------------------------- metadata


def git_commit():
    """The checked-out commit when ROOT is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata():
    config = getattr(getattr(np, "__config__", None), "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------- main


def _parse(argv):
    def nonnegative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be a nonnegative integer")
        return value

    def positive(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("must be positive")
        return value

    parser = argparse.ArgumentParser(description="Benchmark of the twosample package.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=nonnegative, required=True)
    parser.add_argument("--seconds", type=positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import twosample from this checkout's src/; raise ImportError if absent."""
    sys.path.insert(0, str(ROOT / "src"))
    import twosample

    if not Path(twosample.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"twosample was imported from {twosample.__file__}, not {ROOT / 'src'}")


def import_seconds():
    """Median wall time of a fresh interpreter that imports the package."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import twosample"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_workload(spec, seed, seconds, trace):
    runner = run_sim if isinstance(spec, SimWorkload) else run_tests
    result = runner(spec, seed, seconds, trace)
    for child in multiprocessing.active_children():
        child.join()
    return result


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        # one process per workload, so peak memory and set-up are each its own
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    try:
        import_program()
    except ImportError as err:
        print(f"error: cannot import the program: {err}", file=sys.stderr)
        return 2
    report(args.workload, args)
    return 0


def report(name, args):
    """Run one workload, write its results file and print its block and JSON line."""
    result = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
    meta = metadata()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    if result.spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(result.spans))
    result.extra["failed_frac"] = result.failed / max(1, result.attempted)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()}
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": meta,
        "metrics": metrics,
        "extra": result.extra,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {name} seed {args.seed} trace {args.trace}")
    for key, value in meta.items():
        print(f"  {key}: {value}")
    for metric, (value, unit) in result.metrics.items():
        print(f"{metric:36s} {value:.6g} {unit}")
    for metric, value in result.extra.items():
        print(f"{metric:36s} {value:.6g}")
    for line in result.problems:
        print(f"FAILED {line}")
    summary = {"correct": result.failed == 0, "attempted": result.attempted, "failed": result.failed}
    print(json.dumps(dict(summary, metrics=metrics)), flush=True)


if __name__ == "__main__":
    sys.exit(main())
