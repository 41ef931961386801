"""Exact-count self-check of the traced run.

On tiny configurations every count the tracer reports must equal the value
computed from the workload's shape (or recomputed without the tracer), and
must repeat exactly across two traced invocations.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil

import pytest

import run
import spans
from workloads import WORK, CliWorkload, SuperposedWorkload

SEED = 5
ZERO = {name: 0 for name in run.COUNTS}


def _traced(workload, tag: str) -> dict:
    out = WORK / "tests" / tag / "out"
    spans_dir = WORK / "tests" / tag / "spans"
    for path in (out, spans_dir):
        shutil.rmtree(path, ignore_errors=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    sample = workload.invoke(SEED, out, spans_dir)
    assert sample.problems == ()
    metrics, _ = run.layer_metrics(spans_dir)
    metrics["_out"] = out
    return metrics


def _output_bytes(out, names) -> int:
    return sum((out / name).stat().st_size for name in (*names, "manifest.jsonl"))


def _screened_bins(n_columns: int, steps: int, runs: int) -> int:
    """Bins dropped by the normal screen, recomputed without the tracer."""
    from collapsim import lattice
    from collapsim.errors import DegenerateTestError
    from collapsim.lattice_analysis import DEFAULT_BINS, reversal_chi_squared
    from collapsim.stats import PrngStream

    config = lattice.LatticeConfig(n_columns, 0.5, 0.7853981633974483, steps)
    total = 0
    for index in range(runs):
        initial = lattice.single_particle_state(n_columns, n_columns // 2 + 1)
        record, final = lattice.run_forward(config, initial, PrngStream(SEED).split(index))
        back, _ = lattice.run_backward(config, record.field, lattice.conjugate(final))
        try:
            report = reversal_chi_squared(record.field, back.probabilities)
            total += sum(not b.retained for b in report.bins)
        except DegenerateTestError:
            total += DEFAULT_BINS.count
    return total


BATCH = ("pvalues.csv", "histogram.csv", "uniformity.json")


def test_lattice_batch_counts():
    workload = CliWorkload(
        "tiny-lattice",
        ("--experiment", "lattice-batch", "--lattice-n", "4", "--steps", "5",
         "--runs", "50", "--workers", "2"),
        50, BATCH,
    )
    first, second = _traced(workload, "lattice-a"), _traced(workload, "lattice-b")
    out = first["_out"]
    report = json.loads((out / "uniformity.json").read_text())
    expected = {
        **ZERO,
        "lattice.links": 2 * 5 * 4 * 50,
        "stats.uniform_draws": 5 * 4 * 50,
        "lattice_analysis.degenerate_runs": report["degenerate"],
        "lattice_analysis.bins_screened": _screened_bins(4, 5, 50),
        "output.bytes_written": _output_bytes(out, BATCH[:2]),
    }
    for name in (*run.COUNTS, "output.files"):
        assert first[name] == second[name], name
    assert {name: first[name] for name in run.COUNTS} == expected
    assert first["output.files"] == 3
    assert 0.0 < first["cli.worker_busy_ratio"] <= 1.0


def test_qmupl_batch_counts():
    workload = CliWorkload(
        "tiny-qmupl",
        ("--experiment", "qmupl-batch", "--runs", "20", "--n-steps", "50", "--workers", "2"),
        20, BATCH,
    )
    first, second = _traced(workload, "qmupl-a"), _traced(workload, "qmupl-b")
    expected = {
        **ZERO,
        "qmupl.steps": 20 * (50 + 50),
        "stats.gaussian_draws": 20 * 50,
        "output.bytes_written": _output_bytes(first["_out"], BATCH[:2]),
    }
    for name in (*run.COUNTS, "output.files"):
        assert first[name] == second[name], name
    assert {name: first[name] for name in run.COUNTS} == expected
    assert first["output.files"] == 3


def test_energy_demo_counts():
    workload = CliWorkload(
        "tiny-energy",
        ("--experiment", "energy-demo", "--walk-runs", "20", "--walk-steps", "10",
         "--grid-half-width", "3", "--runs", "5", "--n-steps", "30"),
        45, ("walk_pre.csv", "walk_post.csv", "qmupl_energy.csv"),
    )
    first, second = _traced(workload, "energy-a"), _traced(workload, "energy-b")
    expected = {
        **ZERO,
        "retrodiction.walker_steps": 2 * 20 * 10,
        # Pre-selected walkers draw once per step; post-selected ones draw
        # their starting level first.
        "stats.uniform_draws": 20 * 10 + 20 * (10 + 1),
        "stats.gaussian_draws": 5 * 30,
        "qmupl.steps": 5 * 30,
        "output.bytes_written": _output_bytes(first["_out"], workload.artifacts),
    }
    for name in (*run.COUNTS, "output.files"):
        assert first[name] == second[name], name
    assert {name: first[name] for name in run.COUNTS} == expected
    assert first["output.files"] == 4


def test_superposed_counts_in_process():
    workload = SuperposedWorkload()
    results = []
    for tag in ("superposed-a", "superposed-b"):
        out = WORK / "tests" / tag / "out"
        spans_dir = WORK / "tests" / tag / "spans"
        for path in (out, spans_dir):
            shutil.rmtree(path, ignore_errors=True)
        recorder = spans.Recorder(spans_dir)
        installation = spans.install(recorder)
        try:
            sample = workload.invoke(SEED, 0, out)
        finally:
            installation.remove()
            recorder.flush()
        assert sample.problems == ()
        results.append((sample.digests, run.layer_metrics(spans_dir)[0], out))
    (digests_a, first, out), (digests_b, second, _) = results
    assert digests_a == digests_b
    panels = ("occupancy_forward.pgm", "field.pgm", "occupancy_backward.pgm")
    assert first["lattice.links"] == 2 * 100 * 16
    assert first["stats.uniform_draws"] == 100 * 16
    assert first["output.files"] == 3
    assert first["output.bytes_written"] == sum((out / p).stat().st_size for p in panels)
    for name in (*run.COUNTS, "output.files"):
        assert first[name] == second[name], name


def test_installation_is_undone():
    from collapsim import cli, lattice, lattice_analysis, qmupl, stats

    before = (cli.run_forward, lattice.run_forward, lattice_analysis.ks_test, qmupl.ks_test,
              stats.PrngStream.uniform, cli._fan_out)
    installation = spans.install(spans.Recorder(WORK / "tests" / "undo"))
    assert cli.run_forward is lattice.run_forward is not before[0]
    assert lattice_analysis.ks_test is qmupl.ks_test is stats.ks_test is not before[2]
    installation.remove()
    after = (cli.run_forward, lattice.run_forward, lattice_analysis.ks_test, qmupl.ks_test,
             stats.PrngStream.uniform, cli._fan_out)
    assert after == before


@pytest.mark.parametrize(
    "children, expected",
    [
        ([], 10.0),
        ([(2, 4), (3, 6)], 6.0),  # concurrent children: their union covers 4 s
        ([(0, 10)], 0.0),
        ([(8, 14)], 8.0),  # a child outliving its parent only covers the overlap
    ],
)
def test_self_time_subtracts_union_of_children(children, expected):
    second = 1_000_000_000
    records = [{"id": "p", "name": "parent", "start": 0, "end": 10 * second, "parent": None}]
    for i, (start, end) in enumerate(children):
        records.append({"id": f"c{i}", "name": "child", "start": start * second,
                        "end": end * second, "parent": "p"})
    assert spans.self_times(records)["parent"] == pytest.approx(expected)
