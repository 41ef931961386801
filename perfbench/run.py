"""collapsim benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload is a closed loop of one caller: the next invocation starts when
the previous one has finished, until S seconds have passed.  Every invocation
is checked for correctness (see workloads.py).  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give each metric with its unit and sample count, the
failed fraction, and the host record.

With ``--trace 0`` the metrics are end to end, measured untraced.  With
``--trace 1`` a separate run alternates untraced and traced invocations and
reports per-layer self times and counts from the traced ones, the tracing
overhead, and microbenchmarks of the public lattice and PRNG operations.

The benchmark sets no thread variables: BLAS oversubscription in pool
workers is one of the defects it measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import DEFAULT_SEED, WORK, WORKLOADS, CliWorkload

SETUP_REPEATS = 7
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)

END_TO_END_UNITS = {
    "wall_s": "s", "runs_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}
# Reported from the run's totals: mean wall and CPU per invocation, and
# trajectories over total invocation time.  The others are medians.
RUN_TOTALS = ("wall_s", "runs_per_s", "cpu_s")
SPANNED = (
    "lattice.run_forward", "lattice.run_backward",
    "lattice_analysis.reversal_chi_squared", "lattice_analysis.pvalue_uniformity",
    "qmupl.simulate_forward", "qmupl.reverse_trajectory", "qmupl.normality_test",
    "qmupl.ensemble_energy_curve", "stats.ks_test", "stats.chi_squared_sf",
    "retrodiction.momentum_walk_demo", "output.write_csv", "output.write_pgm",
    "output.manifest_record",
)
COUNTS = (
    "lattice.links", "lattice_analysis.bins_screened", "lattice_analysis.degenerate_runs",
    "qmupl.steps", "stats.uniform_draws", "stats.gaussian_draws",
    "retrodiction.walker_steps", "output.bytes_written",
)
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SPANNED},
    **{name: "count" for name in COUNTS},
    "output.files": "count",
    "lattice.ns_per_link": "ns",
    "lattice.apply_vertex_us": "us", "lattice.apply_jump_us": "us",
    "lattice.occupancy_us": "us", "lattice.normalize_us": "us",
    "stats.uniform_ns": "ns", "stats.gaussian_ns": "ns",
    "cli.worker_busy_ratio": "ratio",
    "cli.pool14_cpu_ratio": "ratio",
    "trace.overhead_s": "s",
}

# The contention probe: lattice-pool's command at width 14, the smallest
# width at which each BLAS call in a pool worker is multithreaded.  Its
# per-invocation time is bimodal (3-5 s or 20-45 s on 2 cores), so it is a
# traced-run figure, not an end-to-end metric with a bound.
PROBE_FLAGS = ("--experiment", "lattice-batch", "--lattice-n", "14", "--steps", "4",
               "--runs", "50")


# ======================================================================
# Host record
# ======================================================================


def host_record() -> dict:
    """Host, interpreter, numpy and BLAS versions, and the inherited thread variables.

    numpy is imported in a child process: ``wait4`` reports a child's peak RSS
    as at least that of the process it was spawned from, so the benchmark
    process stays free of numpy while it runs CLI workloads.
    """
    done = subprocess.run(
        [sys.executable, str(workloads.BENCH_DIR / "child.py"), "host"],
        env=workloads.child_env(), capture_output=True, text=True, check=True,
    )
    record = json.loads(done.stdout)
    record.update({
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    })
    return record


# ======================================================================
# Measurement
# ======================================================================


class Tally:
    """Invocations attempted and failed, with each failure's reasons."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.attempted = 0
        self.failed = 0
        reference = workloads.load_reference(name)
        self.reference = reference if seed == DEFAULT_SEED else None
        self.first: dict[int, dict] = {}

    def judge(self, sample, key: int, wanted: dict | None) -> None:
        """Count a sample.

        Samples with the same ``key`` must replay byte-identically; ``wanted``
        holds the reference digests, if the seed has them.
        """
        problems = list(sample.problems)
        if sample.digests:
            if sample.digests != self.first.setdefault(key, sample.digests):
                problems.append("outputs differ from the first invocation of this run")
            if wanted is not None and sample.digests != wanted:
                changed = sorted(k for k in wanted if sample.digests.get(k) != wanted[k])
                problems.append(f"outputs differ from reference.json: {changed}")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"[{self.name}] check failed: {'; '.join(problems)}", file=sys.stderr)


def setup_time(workload, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the point of the first experiment call."""
    start = time.perf_counter()
    done = subprocess.run(
        workload.setup_cmd(seed), cwd=workloads.ROOT, env=workloads.child_env(),
        capture_output=True, text=True, timeout=workloads.INVOCATION_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1]) - start


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def invoke(workload, seed: int, index: int, tally: Tally, spans_dir: Path | None = None):
    """One invocation with its correctness check; returns the sample."""
    out = fresh_dir(WORK / "out" / workload.name / str(index))
    if isinstance(workload, CliWorkload):
        sample = workload.invoke(seed, out, spans_dir)
        tally.judge(sample, 0, tally.reference)
    else:
        sample = workload.invoke(seed, index, out)
        tally.judge(sample, index, (tally.reference or {}).get(str(index)))
    return sample


def end_to_end(workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    # One set-up probe before each invocation, so that set-up is sampled
    # across the same stretch of host time as the invocations.  A round
    # starts only while it should end, on average, by the deadline, so a run
    # lasts about ``seconds`` whatever the length of one invocation.
    setup, samples = [], []
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    while not samples or time.perf_counter() + round_s / 2 < deadline:
        start = time.perf_counter()
        setup.append(setup_time(workload, seed))
        samples.append(invoke(workload, seed, len(samples), tally))
        round_s = time.perf_counter() - start
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_time(workload, seed))
    series = {
        "wall_s": [s.wall_s for s in samples],
        "runs_per_s": [s.trajectories / s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "setup_s": setup,
    }
    values = {k: statistics.median(v) for k, v in series.items()}
    # The time metrics come from the run's totals.  A shared host switches
    # each core between a fast and a slow mode within seconds, in proportions
    # that drift from minute to minute; the median of a run follows that mix,
    # a total averages over it (see README.md).
    walls = series["wall_s"]
    values["wall_s"] = sum(walls) / len(walls)
    values["cpu_s"] = sum(series["cpu_s"]) / len(walls)
    values["runs_per_s"] = sum(s.trajectories for s in samples) / sum(walls)
    return values, series


def layer_metrics(spans_dir: Path) -> tuple[dict, dict]:
    """Per-layer figures of one traced invocation, and its self seconds per module.

    PRNG draws are not spanned, so their time stays in their callers' modules.
    """
    import spans

    records, counts, files = spans.load(spans_dir)
    selfs = spans.self_times(records)
    metrics = {f"{name}.self_s": selfs[name] for name in SPANNED}
    metrics.update({name: counts[name] for name in COUNTS})
    metrics["output.files"] = len(files)
    links = counts["lattice.links"]
    lattice_s = selfs["lattice.run_forward"] + selfs["lattice.run_backward"]
    metrics["lattice.ns_per_link"] = lattice_s / links * 1e9 if links else 0.0
    busy = sum(r["end"] - r["start"] for r in records if r["name"] == "cli.worker")
    phase = sum(r["end"] - r["start"] for r in records if r["name"] == "cli.fan_out")
    workers = counts["cli.pool_workers"]
    metrics["cli.worker_busy_ratio"] = busy / (workers * phase) if phase else 0.0
    modules: dict[str, float] = {}
    for name, seconds in selfs.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + seconds
    return metrics, modules


def traced(workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    import spans

    untraced_walls, traced_walls, layers, modules = [], [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    round_s = 0.0
    while not traced_walls or time.perf_counter() + round_s / 2 < deadline:
        start = time.perf_counter()
        untraced_walls.append(invoke(workload, seed, index, tally).wall_s)
        spans_dir = fresh_dir(WORK / "spans" / workload.name / str(index))
        if isinstance(workload, CliWorkload):
            sample = invoke(workload, seed, index, tally, spans_dir)
        else:
            recorder = spans.Recorder(spans_dir)
            installation = spans.install(recorder)
            try:
                sample = invoke(workload, seed, index, tally)
            finally:
                installation.remove()
                recorder.flush()
        traced_walls.append(sample.wall_s)
        layer, by_module = layer_metrics(spans_dir)
        layers.append(layer)
        modules.append(by_module)
        index += 1
        round_s = time.perf_counter() - start
    # Counts repeat exactly, so a count keeps its integer value.
    metrics = {
        name: (statistics.median_low if PER_LAYER_UNITS[name] == "count" else statistics.median)(
            [layer[name] for layer in layers])
        for name in layers[0]
    }
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    metrics.update(microbenchmarks(seed))
    metrics["cli.pool14_cpu_ratio"] = (
        contention_probe(seed, tally) if workload.name == "lattice-pool" else 0.0
    )
    by_module = {
        m: statistics.median(entry.get(m, 0.0) for entry in modules)
        for m in {m for entry in modules for m in entry}
    }
    return metrics, {"traced_invocations": len(traced_walls), "self_s_by_module": by_module}


def contention_probe(seed: int, tally: Tally) -> float:
    """CPU seconds of the width-14 batch on 2 pool workers over the same runs serially."""
    cpu = {}
    for workers in ("2", "1"):
        probe = CliWorkload("contention-probe", (*PROBE_FLAGS, "--workers", workers), 50,
                            ("pvalues.csv", "histogram.csv", "uniformity.json"))
        sample = probe.invoke(seed, fresh_dir(WORK / "out" / "contention-probe" / workers))
        tally.judge(sample, -1, None)
        cpu[workers] = sample.cpu_s
    return cpu["2"] / cpu["1"]


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median seconds per call over ``repeats`` timed loops of ``calls`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def microbenchmarks(seed: int) -> dict:
    """Public lattice operations on a width-16 state, and PRNG draws."""
    from collapsim import lattice
    from collapsim.stats import PrngStream

    _, state, _ = workloads.superposed_inputs(seed, 0)
    stream = PrngStream(seed)
    return {
        "lattice.apply_vertex_us": _per_call(lambda: lattice.apply_vertex(state, 5, math.pi / 4), 40) * 1e6,
        "lattice.apply_jump_us": _per_call(lambda: lattice.apply_jump(state, 5, 1, 0.5), 40) * 1e6,
        "lattice.occupancy_us": _per_call(lambda: lattice.occupancy_expectation(state, 5), 200) * 1e6,
        "lattice.normalize_us": _per_call(lambda: lattice.normalize(state), 40) * 1e6,
        "stats.uniform_ns": _per_call(stream.uniform, 20000) * 1e9,
        "stats.gaussian_ns": _per_call(stream.gaussian, 20000) * 1e9,
    }


# ======================================================================
# Reporting
# ======================================================================


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    return q, sorted(values)[max(1, math.ceil(q * n / 100.0)) - 1]


def report_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = WORKLOADS[name]
    tally = Tally(name, seed)
    if trace:
        values, extra = traced(workload, seed, seconds, tally)
        units = PER_LAYER_UNITS
        for metric in sorted(units):
            print(f"{name}  {metric} = {values[metric]:.6g} {units[metric]}")
        print(f"{name}  traced invocations: {extra['traced_invocations']}")
        shares = extra["self_s_by_module"]
        total = sum(shares.values()) or 1.0
        print(f"{name}  self time by module: " + ", ".join(
            f"{m} {s:.3g} s ({100 * s / total:.0f}%)" for m, s in sorted(shares.items(), key=lambda kv: -kv[1])))
        draws_s = (values["stats.uniform_draws"] * values["stats.uniform_ns"]
                   + values["stats.gaussian_draws"] * values["stats.gaussian_ns"]) * 1e-9
        print(f"{name}  PRNG draws: about {draws_s:.3g} s (draw counts x per-draw cost), "
              "counted inside their callers' self time")
    else:
        values, series = end_to_end(workload, seed, seconds, tally)
        units = END_TO_END_UNITS
        for metric in units:
            tail = tail_percentile(series[metric])
            tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "tail n/a (< 11 samples)"
            count = len(series[metric])
            summary = f"median of {count}"
            if metric in RUN_TOTALS:
                summary = (f"from run totals over {count}; "
                           f"median {statistics.median(series[metric]):.6g}")
            print(f"{name}  {metric} = {values[metric]:.6g} {units[metric]} "
                  f"({summary}; {tail_text})")
    print(f"{name}  failed_fraction = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} invocations)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "collapsim" / "cli.py").is_file():
        print(f"perfbench: no collapsim sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    print("host " + json.dumps(host_record(), sort_keys=True))

    if args.workload != "all":
        print(json.dumps(report_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    # Each workload gets a benchmark process of its own, so that the in-process
    # workload's memory does not raise the peak RSS reported for CLI children.
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    result = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
