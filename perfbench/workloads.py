"""The benchmark's workloads, how one invocation of each runs, and its checks.

Three workloads run ``collapsim`` in a fresh process, exactly as the console
script does; ``lattice-superposed`` calls the lattice layer serially in the
benchmark process.  Every invocation's outputs are checked: at the default
seed against the sha256 references in ``reference.json``, at any seed
against structural invariants, and within a run for byte-identical replay.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 1
# The console-script entry point that ``pip install`` generates for collapsim.
CONSOLE_SHIM = "import sys; from collapsim.cli import main; sys.exit(main())"
INVOCATION_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    trajectories: int
    problems: tuple[str, ...]
    digests: dict


def child_env() -> dict:
    """The inherited environment plus the checkout's sources; thread variables untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def run_child(cmd: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one process to completion: exit code, wall s, CPU s and peak RSS MB.

    CPU and peak RSS come from ``wait4``, so they include the pool workers the
    process reaped.  A process that outlives the timeout is killed with its
    process group.
    """
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=err, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference(name: str):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(name)


# ======================================================================
# CLI workloads
# ======================================================================


@dataclass(frozen=True)
class CliWorkload:
    name: str
    flags: tuple[str, ...]
    trajectories: int
    artifacts: tuple[str, ...]

    def argv(self, seed: int, out: Path) -> list[str]:
        return [*self.flags, "--seed", str(seed), "--out", str(out)]

    def setup_cmd(self, seed: int) -> list[str]:
        return [sys.executable, str(BENCH_DIR / "child.py"), "setup-cli",
                *self.argv(seed, WORK / "setup-probe")]

    def invoke(self, seed: int, out: Path, spans: Path | None = None) -> Sample:
        if spans is None:
            cmd = [sys.executable, "-c", CONSOLE_SHIM, *self.argv(seed, out)]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "trace-cli", str(spans),
                   *self.argv(seed, out)]
        code, wall, cpu, rss = run_child(cmd, out.with_suffix(".log"))
        problems = [] if code == 0 else [f"exit code {code}"]
        digests = {}
        if code == 0:
            digests = {p.name: sha256(p.read_bytes()) for p in sorted(out.iterdir())}
            problems += self.check(out)
        return Sample(wall, cpu, rss, self.trajectories, tuple(problems), digests)

    def check(self, out: Path) -> list[str]:
        """Structural invariants that hold at every seed."""
        manifest = out / "manifest.jsonl"
        listed = [json.loads(line)["artifact"] for line in manifest.read_text().splitlines()]
        problems = []
        if sorted(listed) != sorted(self.artifacts):
            problems.append(f"manifest lists {listed}, expected {list(self.artifacts)}")
        missing = [a for a in self.artifacts if not (out / a).is_file()]
        if missing:
            return problems + [f"missing artifacts {missing}"]
        if "uniformity.json" in self.artifacts:
            problems += _check_batch(out)
        else:
            problems += _check_energy(out)
        return problems


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _check_batch(out: Path) -> list[str]:
    report = json.loads((out / "uniformity.json").read_text())
    problems = []
    if report["retained"] + report["degenerate"] != report["runs"]:
        problems.append(f"retained + degenerate != runs in {report}")
    p_values = [float(r["p_value"]) for r in _rows(out / "pvalues.csv") if r["p_value"]]
    if len(p_values) != report["retained"]:
        problems.append(f"{len(p_values)} p-values listed, {report['retained']} retained")
    for test in ("chi_squared", "ks"):
        if test in report:
            p_values.append(report[test]["p_value"])
    if not all(0.0 <= p <= 1.0 for p in p_values):
        problems.append("a p-value lies outside [0, 1]")
    histogram = sum(int(r["count"]) for r in _rows(out / "histogram.csv"))
    if histogram != report["retained"]:
        problems.append(f"histogram holds {histogram} p-values, {report['retained']} retained")
    return problems


def _check_energy(out: Path) -> list[str]:
    problems = []
    for name in ("walk_pre.csv", "walk_post.csv", "qmupl_energy.csv"):
        rows = _rows(out / name)
        values = [float(v) for r in rows for v in r.values()]
        if not rows or not all(math.isfinite(v) for v in values):
            problems.append(f"{name} is empty or holds a non-finite value")
    return problems


# ======================================================================
# lattice-superposed: serial lattice passes in the benchmark process
# ======================================================================

SUPERPOSED_COLUMNS = 16
SUPERPOSED_STEPS = 100
SUPERPOSED_X = 0.5
SUPERPOSED_THETA = math.pi / 4


def superposed_inputs(seed: int, index: int):
    """Config, initial state and PRNG stream of run ``index``.

    The state is a normalized Gaussian-random vector, so every particle-number
    sector carries weight (the construction of ``tests/conftest.py``).
    """
    import numpy as np
    from collapsim import lattice
    from collapsim.stats import PrngStream

    config = lattice.LatticeConfig(
        n_columns=SUPERPOSED_COLUMNS, collapse_x=SUPERPOSED_X,
        theta=SUPERPOSED_THETA, steps=SUPERPOSED_STEPS,
    )
    np_rng = np.random.default_rng([seed, index])
    dim = 1 << SUPERPOSED_COLUMNS
    amps = np_rng.normal(size=dim) + 1j * np_rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    return config, lattice.QuantumState(amps), PrngStream(seed).split(index)


@dataclass(frozen=True)
class SuperposedWorkload:
    name: str = "lattice-superposed"
    trajectories: int = 1

    def setup_cmd(self, seed: int) -> list[str]:
        return [sys.executable, str(BENCH_DIR / "child.py"), "setup-superposed", str(seed)]

    def invoke(self, seed: int, index: int, out: Path) -> Sample:
        """One forward pass, conjugation, backward pass and reversal test.

        The calls go through module attributes, so wrappers installed for a
        traced run intercept them.  The three lattice-run panels are written
        as PGM images, as a single lattice pass emits them.
        """
        import resource

        from collapsim import lattice, lattice_analysis, output

        out.mkdir(parents=True, exist_ok=True)
        inputs = superposed_inputs(seed, index)
        start_cpu = time.process_time()
        start = time.perf_counter()
        record, final = lattice.run_forward(*inputs)
        back, back_final = lattice.run_backward(inputs[0], record.field, lattice.conjugate(final))
        report = lattice_analysis.reversal_chi_squared(record.field, back.probabilities)
        panels = {
            "occupancy_forward.pgm": record.occupancy,
            "field.pgm": record.field.alpha.astype(float),
            "occupancy_backward.pgm": back.occupancy,
        }
        for name, matrix in panels.items():
            output.write_pgm(out / name, matrix[::-1, :])
        wall = time.perf_counter() - start
        cpu = time.process_time() - start_cpu
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        digests = {
            "field": sha256(record.field.alpha.tobytes()),
            "reverse_probabilities": sha256(back.probabilities.tobytes()),
            "p_value": repr(float(report.p_value)),
        }
        digests.update({name: sha256((out / name).read_bytes()) for name in panels})
        problems = []
        for label, state in (("forward", final), ("backward", back_final)):
            if abs(state.norm_squared - 1.0) > 1e-9:
                problems.append(f"{label} final state has |psi|^2 = {state.norm_squared}")
        if not 0.0 <= report.p_value <= 1.0:
            problems.append(f"p-value {report.p_value} outside [0, 1]")
        for label, probs in (("forward", record.probabilities), ("reverse", back.probabilities)):
            if not (probs.min() >= 0.0 and probs.max() <= 1.0):
                problems.append(f"{label} link probability outside [0, 1]")
        return Sample(wall, cpu, rss, self.trajectories, tuple(problems), digests)


WORKLOADS = {
    # The pooled reversal-histogram path.  Width 12 keeps each BLAS call
    # below OpenBLAS's threading threshold; see the contention probe in
    # run.py for width 14, where pooled workers oversubscribe the cores.
    "lattice-pool": CliWorkload(
        "lattice-pool",
        ("--experiment", "lattice-batch", "--lattice-n", "12", "--steps", "60",
         "--runs", "50", "--workers", "2"),
        trajectories=50,
        artifacts=("pvalues.csv", "histogram.csv", "uniformity.json"),
    ),
    "lattice-superposed": SuperposedWorkload(),
    # The reference wave packet, 1000 runs rather than the default 5000: an
    # invocation takes about 3 s, so a run holds enough of them for a steady
    # median.
    "qmupl-pool": CliWorkload(
        "qmupl-pool",
        ("--experiment", "qmupl-batch", "--runs", "1000", "--workers", "2"),
        trajectories=1000,
        artifacts=("pvalues.csv", "histogram.csv", "uniformity.json"),
    ),
    "walk-energy": CliWorkload(
        "walk-energy",
        ("--experiment", "energy-demo"),
        trajectories=2 * 2000 + 200,
        artifacts=("walk_pre.csv", "walk_post.csv", "qmupl_energy.csv"),
    ),
}
