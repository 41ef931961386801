"""Experiment runner: reproduces the reference figures and batch tests.

Usage:  collapsim --experiment NAME [--config FILE] [flags]

Experiments
    lattice-run    one forward+backward lattice pass; occupancy/field images
                   and per-link tables
    lattice-batch  chi-squared reversal test over many seeded runs; p-value
                   list, histogram, uniformity report
    qmupl-run      one wave-packet trajectory with its back-solved reversal
                   and collapse-centre record
    qmupl-batch    normality of back-solved increments over many runs
    markov-demo    retrodiction tables for a finite chain (stationary state,
                   reverse kernel, posteriors, two-time conditioning)
    energy-demo    pre- vs post-selected momentum-walk energy curves next to
                   the wave-packet ensemble energy curve

Configuration is layered: built-in defaults (the reference figure
parameters), then a key=value config file (--config), then explicit flags.
Every artifact is listed in manifest.jsonl with the resolved parameters and
base seed, so any file can be regenerated exactly.  Repeated invocations
with the same configuration and seed produce byte-identical outputs,
including under --workers parallelism.

Each runner is a function of the resolved parameters alone: it computes
everything first, then returns its artifacts as (name, write, *args)
entries in manifest order, and Manifest.emit writes and lists them.  A run
that fails with a configuration or degeneracy error therefore writes
nothing.

Exit codes: 0 success, 2 configuration error, 3 statistical degeneracy
(a DegenerateTestError or one of its subclasses: no usable events, no
survivors, no unique equilibrium), 4 I/O error.  Each CollapsimError
carries its own code as ``exit_code``.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .errors import CollapsimError, ConfigError, DegenerateTestError
from .lattice import (
    LatticeConfig,
    build_basis_state,
    conjugate,
    run_backward,
    run_forward,
    single_particle_state,
)
from .lattice_analysis import pvalue_uniformity, reversal_chi_squared
from .output import Manifest, write_csv, write_json, write_pgm
from .qmupl import (
    QmuplConfig,
    ensemble_energy_curve,
    normality_test,
    reverse_trajectory,
    simulate_forward,
)
from .retrodiction import (
    Distribution,
    MarkovModel,
    SelectionSpec,
    equilibrium_retrodiction,
    load_kernel,
    momentum_walk_demo,
    postselected_prediction,
    retrodict,
    save_distribution,
    save_kernel,
    smoothed_inference,
    stationary,
)
from .stats import PrngStream


# ======================================================================
# lattice-run / lattice-batch
# ======================================================================


def _lattice_initial(params: dict):
    if params["initial"] == "vacuum":
        return build_basis_state([0] * params["lattice_n"])
    return single_particle_state(params["lattice_n"], params["particle_column"])


def _lattice_config(params: dict) -> LatticeConfig:
    return LatticeConfig(
        n_columns=params["lattice_n"],
        collapse_x=params["collapse_x"],
        theta=params["theta"],
        steps=params["steps"],
    )


def _flip_time(matrix: np.ndarray) -> np.ndarray:
    # Image rows run top-down while step indices run 0..T-1, so the latest
    # step prints as the top row.
    return matrix[::-1, :]


def _link_rows(record) -> list:
    steps, n_columns = record.field.alpha.shape
    rows = []
    for t in range(steps):
        for c in range(n_columns):
            rows.append(
                (
                    t,
                    c + 1,
                    record.probabilities[t, c],
                    int(record.field.alpha[t, c]),
                    record.occupancy[t, c],
                )
            )
    return rows


def _lattice_reversal(params: dict, stream: PrngStream) -> tuple:
    """A forward pass and its backward replay from the conjugated final state."""
    config = _lattice_config(params)
    record, final = run_forward(config, _lattice_initial(params), stream)
    back, _ = run_backward(config, record.field, conjugate(final))
    return record, back


def run_lattice_run(params: dict) -> list:
    record, back = _lattice_reversal(params, PrngStream(params["seed"]))
    try:
        report = reversal_chi_squared(record.field, back.probabilities)
        fields = ("statistic", "dof", "p_value", "events_total", "events_retained")
        payload = {"degenerate": False, **{name: getattr(report, name) for name in fields}}
    except DegenerateTestError as exc:
        payload = {"degenerate": True, "reason": str(exc)}
    header = ("step", "column", "probability", "alpha", "occupancy")
    return [
        ("occupancy_forward.pgm", write_pgm, _flip_time(record.occupancy)),
        ("field.pgm", write_pgm, _flip_time(record.field.alpha.astype(float))),
        ("occupancy_backward.pgm", write_pgm, _flip_time(back.occupancy)),
        ("links_forward.csv", write_csv, header, _link_rows(record)),
        ("links_backward.csv", write_csv, header, _link_rows(back)),
        ("chi_squared.json", write_json, payload),
    ]


def _lattice_batch_worker(task) -> tuple:
    index, seed, params = task
    record, back = _lattice_reversal(params, PrngStream(seed).split(index))
    try:
        report = reversal_chi_squared(record.field, back.probabilities)
        return index, report.statistic, report.dof, report.p_value
    except DegenerateTestError:
        return index, None, None, None


def _qmupl_batch_worker(task) -> tuple:
    index, seed, params = task
    config = _qmupl_config(params)
    _, back = _qmupl_reversal(config, PrngStream(seed).split(index))
    try:
        report = normality_test(back.dB, config.dt)
        return index, report.statistic, None, report.p_value
    except DegenerateTestError:
        return index, None, None, None


def _fan_out(worker, params: dict) -> list[tuple]:
    """Run the per-seed worker over all run indices, optionally in parallel.

    Each task depends only on (base seed, run index), so the result list is
    identical for any worker count; outputs are collected in index order.
    No more processes start than there are runs or CPUs.
    """
    tasks = [(i, params["seed"], params) for i in range(params["runs"])]
    workers = min(params["workers"], params["runs"], os.cpu_count() or 1)
    if workers <= 1:
        return [worker(task) for task in tasks]
    chunk = max(1, params["runs"] // (workers * 8))
    with multiprocessing.Pool(workers) as pool:
        return list(pool.imap(worker, tasks, chunksize=chunk))


def _batch_reports(results: list[tuple], params: dict) -> list:
    """Shared tail of the two batch experiments: p-value list, histogram, report."""
    rows = []
    retained = []
    degenerate = 0
    for index, statistic, dof, p_value in results:
        if p_value is None:
            degenerate += 1
            rows.append((index, "", "" if dof is None else dof, ""))
        else:
            retained.append(p_value)
            rows.append((index, statistic, "" if dof is None else dof, p_value))
    edges = np.linspace(0.0, 1.0, 21)
    counts, _ = np.histogram(retained, bins=edges)
    payload: dict = {"runs": params["runs"], "degenerate": degenerate, "retained": len(retained)}
    try:
        report = pvalue_uniformity(retained)
        for name in ("chi_squared", "ks"):
            test = getattr(report, name)
            payload[name] = {"statistic": test.statistic, "p_value": test.p_value, "method": test.method}
        payload["bin_count"] = report.bin_count
    except DegenerateTestError as exc:
        payload["error"] = str(exc)
    return [
        ("pvalues.csv", write_csv, ("run", "statistic", "dof", "p_value"), rows),
        ("histogram.csv", write_csv, ("bin_low", "bin_high", "count"),
         [(edges[i], edges[i + 1], int(counts[i])) for i in range(20)]),
        ("uniformity.json", write_json, payload),
    ]


def run_lattice_batch(params: dict) -> list:
    if params["runs"] < 50:
        raise ConfigError(
            f"lattice-batch needs runs >= 50 for a meaningful uniformity test, got {params['runs']}"
        )
    return _batch_reports(_fan_out(_lattice_batch_worker, params), params)


# ======================================================================
# qmupl-run / qmupl-batch
# ======================================================================


def _qmupl_config(params: dict) -> QmuplConfig:
    return QmuplConfig(g=params["g"], m=params["mass"], dt=params["dt"], n=params["n_steps"])


def _require_finite(what: str, *series: np.ndarray) -> None:
    """Fail fast when a wave-packet table overflowed, naming the first bad step.

    Each array is indexed by step; finite parameters can still overflow the
    recursions (a drift ``p dt / m`` beyond the float range).
    """
    bad = [int(np.argmin(finite)) for finite in map(np.isfinite, series) if not finite.all()]
    if bad:
        raise ConfigError(f"{what} is not finite at step {min(bad)}: the parameters overflow")


def _qmupl_reversal(config: QmuplConfig, stream: PrngStream) -> tuple:
    """A forward trajectory and its back-solve from the final state."""
    trajectory = simulate_forward(config, stream)
    return trajectory, reverse_trajectory(trajectory.z, trajectory.x[-1], trajectory.p[-1], config)


def run_qmupl_run(params: dict) -> list:
    config = _qmupl_config(params)
    trajectory, back = _qmupl_reversal(config, PrngStream(params["seed"]))
    _require_finite("wave-packet trajectory", trajectory.x, trajectory.p, trajectory.z)
    _require_finite("back-solved trajectory", back.x, back.p, back.dB)
    n, dt = config.n, config.dt
    header = ("step", "time", "x", "p")
    return [
        ("trajectory.csv", write_csv, header,
         [(i, i * dt, trajectory.x[i], trajectory.p[i]) for i in range(n + 1)]),
        ("collapse_centres.csv", write_csv, ("step", "time", "z", "dB"),
         [(i, i * dt, trajectory.z[i], trajectory.dB[i]) for i in range(n)]),
        ("reversal.csv", write_csv, header,
         [(i, i * dt, back.x[i], back.p[i]) for i in range(n + 1)]),
    ]


def run_qmupl_batch(params: dict) -> list:
    if params["runs"] < 2:
        raise ConfigError(f"qmupl-batch needs runs >= 2, got {params['runs']}")
    return _batch_reports(_fan_out(_qmupl_batch_worker, params), params)


# ======================================================================
# markov-demo / energy-demo
# ======================================================================

# Default chain for the retrodiction tables: symmetric two-state flip, which
# satisfies detailed balance, so its equilibrium reverse kernel equals the
# forward kernel in the emitted tables.
_DEFAULT_CHAIN = MarkovModel(
    states=("S1", "S2"), kernel=np.array([[0.9, 0.1], [0.1, 0.9]])
)


def run_markov_demo(params: dict) -> list:
    if params.get("kernel_file"):
        model = load_kernel(params["kernel_file"])
    else:
        model = _DEFAULT_CHAIN
    equilibrium = stationary(model)
    reverse = equilibrium_retrodiction(model, equilibrium)

    uniform = Distribution.uniform(model.size)
    retrodiction_rows = []
    for j, observed_label in enumerate(model.states):
        posterior = retrodict(model, uniform, j)
        for i, source_label in enumerate(model.states):
            retrodiction_rows.append((observed_label, source_label, posterior.probabilities[i]))

    # Two-time conditioning on a 4-step window: pin the first state at the
    # boundary (time 0), observe the last state at the far end, and report
    # the interior distribution at the midpoint — once forward, once mirrored.
    first, last = 0, model.size - 1
    smoothed = smoothed_inference(model, SelectionSpec(0, first), SelectionSpec(4, last), 2)
    mirrored = postselected_prediction(model, SelectionSpec(0, first), SelectionSpec(-4, last), -2)
    selection_rows = []
    for label, value in zip(model.states, smoothed.probabilities):
        selection_rows.append(("smoothed", 2, label, value))
    for label, value in zip(model.states, mirrored.probabilities):
        selection_rows.append(("postselected", -2, label, value))
    return [
        ("kernel.csv", save_kernel, model),
        ("stationary.csv", save_distribution, model, equilibrium),
        ("reverse_kernel.csv", save_kernel, MarkovModel(states=model.states, kernel=reverse)),
        ("retrodiction.csv", write_csv, ("observed", "source", "posterior"), retrodiction_rows),
        ("selection.csv", write_csv, ("kind", "time", "state", "probability"), selection_rows),
    ]


def _walk_rows(result) -> list:
    return [
        (
            int(result.times[t]),
            result.mean_energy[t],
            result.mean_energy_reverse[t],
            result.standard_error[t],
            result.survivors,
        )
        for t in range(result.times.size)
    ]


def run_energy_demo(params: dict) -> list:
    root = PrngStream(params["seed"])
    # The curve's stream is independent of the walks', so building it first
    # fails a bad configuration before any walk runs.  _require_finite
    # reports an overflow itself, so numpy's warnings about it stay quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        curve = ensemble_energy_curve(_qmupl_config(params), params["runs"], root.split(2))
    _require_finite("wave-packet energy curve", curve.mean_p_squared, curve.standard_error)
    walk_args = (
        params["grid_half_width"],
        params["step_variance"],
        params["walk_steps"],
        params["walk_runs"],
    )
    pre = momentum_walk_demo(*walk_args, "pre", root.split(0))
    post = momentum_walk_demo(
        *walk_args, "post", root.split(1), post_tolerance=params["selection_tolerance"]
    )
    header = ("t", "mean_energy_forward", "mean_energy_reverse", "standard_error", "survivors")
    return [
        ("walk_pre.csv", write_csv, header, _walk_rows(pre)),
        ("walk_post.csv", write_csv, header, _walk_rows(post)),
        ("qmupl_energy.csv", write_csv, ("step", "time", "mean_p_squared", "standard_error", "runs"),
         [(i, curve.times[i], curve.mean_p_squared[i], curve.standard_error[i], curve.runs)
          for i in range(curve.times.size)]),
    ]


# ======================================================================
# Experiments and configuration keys: defaults <- config file <- flags
# ======================================================================


class Experiment(NamedTuple):
    """A runner and the batch size it uses when ``runs`` is unset.

    ``run(params)`` returns the ``(name, write, *args)`` artifacts that
    :meth:`Manifest.emit` writes and lists.
    """

    run: Callable[[dict], list]
    default_runs: int


# Batch sizes match the reference histograms; energy-demo keeps the
# wave-packet ensemble small enough for interactive use.
EXPERIMENTS = {
    "lattice-run": Experiment(run_lattice_run, 1),
    "lattice-batch": Experiment(run_lattice_batch, 500),
    "qmupl-run": Experiment(run_qmupl_run, 1),
    "qmupl-batch": Experiment(run_qmupl_batch, 5000),
    "markov-demo": Experiment(run_markov_demo, 1),
    "energy-demo": Experiment(run_energy_demo, 200),
}


class Key(NamedTuple):
    """One configuration key: flag ``--a-b`` and config-file key ``a_b``.

    A None default leaves the key unset unless given, and an unset key stays
    out of the manifest; ``resolve_params`` derives ``runs`` and
    ``particle_column`` when they stay unset.
    """

    name: str
    type: type
    default: object
    help: str
    group: str | None = None
    choices: tuple | None = None


_PER_EXPERIMENT_RUNS = ", ".join(
    f"{name} {experiment.default_runs}"
    for name, experiment in EXPERIMENTS.items()
    if experiment.default_runs != 1
)

# Defaults reproduce the reference figures: the one-pass lattice, the wave
# packet and the momentum walk.
KEYS = (
    Key("experiment", str, None, "experiment to run", choices=tuple(EXPERIMENTS)),
    Key("out", str, None, "output directory (created if missing)"),
    Key("seed", int, 1, "base seed; run i uses child stream i"),
    Key("runs", int, None, f"batch size (default: {_PER_EXPERIMENT_RUNS}, otherwise 1)"),
    Key("workers", int, 1, "worker processes for batches (at most the CPU count)"),
    Key("lattice_n", int, 16, "number of columns (even, <= 16)", "lattice"),
    Key("collapse_x", float, 0.5, "jump strength X in [0, 1]", "lattice"),
    Key("theta", float, math.pi / 4.0, "vertex mixing angle (radians)", "lattice"),
    Key("steps", int, 100, "time steps", "lattice"),
    Key("initial", str, "particle", "initial lattice state", "lattice", ("particle", "vacuum")),
    Key(
        "particle_column", int, None,
        "column of the initial particle (default: 11 on 16 columns, else lattice_n // 2 + 1)",
        "lattice",
    ),
    Key("g", float, 20.0, "collapse coupling", "wave packet"),
    Key("mass", float, 1.0, "particle mass", "wave packet"),
    Key("dt", float, 0.001, "step size", "wave packet"),
    Key("n_steps", int, 1000, "steps per trajectory", "wave packet"),
    Key("kernel_file", str, None, "CSV kernel for markov-demo (default: symmetric two-state flip)", "demos"),
    Key("grid_half_width", int, 60, "momentum-walk grid half-width W", "demos"),
    Key("step_variance", float, 0.5, "momentum-walk variance per step, in [0, 1]", "demos"),
    Key("walk_steps", int, 200, "momentum-walk steps", "demos"),
    Key("walk_runs", int, 2000, "momentum walkers per selection", "demos"),
    Key("selection_tolerance", int, 1, "post-selection window around p = 0", "demos"),
)

_KEYS_BY_NAME = {key.name: key for key in KEYS}


def load_config_file(path: str) -> dict:
    """Parse a key=value file; unknown keys and bad values name file:line."""
    text = Path(path).read_text()
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        name, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        name = name.strip().replace("-", "_")
        value = value.strip()
        key = _KEYS_BY_NAME.get(name)
        if key is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {name!r}")
        try:
            values[name] = key.type(value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: invalid {key.type.__name__} for {name}: {value!r}"
            ) from None
        if key.choices is not None and values[name] not in key.choices:
            raise ConfigError(
                f"{path}:{lineno}: invalid {name} {value!r}; choose from {', '.join(key.choices)}"
            )
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    groups = {None: parser}
    for key in KEYS:
        if key.group not in groups:
            groups[key.group] = parser.add_argument_group(key.group)
        shown = "" if key.default is None else f" (default: {key.default})"
        groups[key.group].add_argument(
            "--" + key.name.replace("_", "-"),
            type=key.type,
            choices=key.choices,
            help=key.help + shown,
        )
    parser.add_argument("--version", action="version", version=f"collapsim {__version__}")
    return parser


def resolve_params(args: argparse.Namespace) -> dict:
    params = {key.name: key.default for key in KEYS if key.default is not None}
    if args.config is not None:
        params.update(load_config_file(args.config))
    for key in KEYS:
        flag_value = getattr(args, key.name, None)
        if flag_value is not None:
            params[key.name] = flag_value
    experiment = params.get("experiment")
    if experiment is None:
        raise ConfigError("no experiment selected (use --experiment or an 'experiment=' line)")
    if params.get("runs") is None:
        params["runs"] = EXPERIMENTS[experiment].default_runs
    if params.get("out") is None:
        raise ConfigError("no output directory (use --out or an 'out=' line)")
    if params["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {params['workers']}")
    if params.get("particle_column") is None:
        # Figure default is column 11 on the 16-column lattice; for other
        # sizes fall back to a central column.
        params["particle_column"] = 11 if params["lattice_n"] == 16 else params["lattice_n"] // 2 + 1
    return params


def _manifest_params(params: dict) -> dict:
    # The worker count never changes artifact content, so leaving it out
    # keeps outputs byte-identical across serial and parallel invocations.
    return {k: v for k, v in params.items() if k not in ("out", "workers")}


# ======================================================================
# Entry point
# ======================================================================

def _run(argv: Sequence[str] | None) -> int:
    args = build_parser().parse_args(argv)
    params = resolve_params(args)
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(
        out, params["experiment"], _manifest_params(params), params["seed"], __version__
    )
    manifest.emit(EXPERIMENTS[params["experiment"]].run(params))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _run(argv)
    except CollapsimError as exc:
        print(f"collapsim: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"collapsim: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
