"""End-to-end tests of the experiment runner.

These drive `main()` in-process and inspect the emitted artifacts: PGM
panels, CSV tables, JSON reports, and the manifest. Heavy experiments run at
reduced size; one lattice-run uses the default geometry to pin the documented
image dimensions.
"""

import json
import math
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from collapsim import cli, errors
from collapsim.cli import EXPERIMENTS, KEYS, build_parser, main, resolve_params
from collapsim.lattice import conjugate, run_backward, run_forward
from collapsim.lattice_analysis import reversal_chi_squared
from collapsim.output import read_pgm, write_csv, write_pgm
from collapsim.qmupl import _ARRAY_RUNS, reverse_trajectory, simulate_forward
from collapsim.retrodiction import load_kernel
from collapsim.stats import PrngStream

from artifact_digests import SMALL_RUNS, digest_lines
from test_stats import scalar_normal_cdf, slow_ks_test

GOLDEN = Path(__file__).parent / "golden"

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def run_cli(*args):
    return main([str(a) for a in args])


def manifest_lines(out_dir):
    text = (out_dir / "manifest.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


def total_variation(image):
    pixels = image.astype(float)
    return float(np.abs(np.diff(pixels, axis=0)).sum() + np.abs(np.diff(pixels, axis=1)).sum())


def no_walk(*args, **kwargs):
    raise AssertionError("momentum_walk_demo ran before the configuration was checked")


# ----------------------------------------------------------------------
# lattice-run
# ----------------------------------------------------------------------


def test_lattice_run_default_geometry(tmp_path):
    rc = run_cli("--experiment", "lattice-run", "--out", tmp_path, "--seed", "4")
    assert rc == 0
    for name in (
        "occupancy_forward.pgm",
        "field.pgm",
        "occupancy_backward.pgm",
        "links_forward.csv",
        "links_backward.csv",
        "chi_squared.json",
    ):
        assert (tmp_path / name).exists(), name
    forward = read_pgm(tmp_path / "occupancy_forward.pgm")
    field = read_pgm(tmp_path / "field.pgm")
    backward = read_pgm(tmp_path / "occupancy_backward.pgm")
    assert forward.shape == (100, 16)
    assert field.shape == (100, 16)
    assert backward.shape == (100, 16)
    # The field panel carries the raw accept/reject noise; the occupancy
    # panels are smoothed by the state, so their pixel-to-pixel variation
    # is visibly lower.
    assert total_variation(field) > 2.0 * total_variation(forward)
    report = json.loads((tmp_path / "chi_squared.json").read_text())
    assert not report["degenerate"]
    assert 0.0 <= report["p_value"] <= 1.0


def test_lattice_run_projective_field_equals_occupancy(tmp_path):
    rc = run_cli(
        "--experiment", "lattice-run", "--out", tmp_path, "--seed", "8",
        "--lattice-n", "8", "--steps", "20", "--collapse-x", "0",
    )
    assert rc == 0
    field = (tmp_path / "field.pgm").read_bytes()
    forward = (tmp_path / "occupancy_forward.pgm").read_bytes()
    assert field == forward
    # Near-deterministic links are screened out of the comparison.
    report = json.loads((tmp_path / "chi_squared.json").read_text())
    assert report["events_retained"] < report["events_total"]


def test_lattice_run_vacuum_panels_are_white(tmp_path):
    rc = run_cli(
        "--experiment", "lattice-run", "--out", tmp_path, "--seed", "5",
        "--lattice-n", "8", "--steps", "15", "--initial", "vacuum",
    )
    assert rc == 0
    for name in ("occupancy_forward.pgm", "occupancy_backward.pgm"):
        image = read_pgm(tmp_path / name)
        assert np.all(image == 255)  # occupancy 0 renders as white


def test_lattice_run_without_usable_events_reports_degenerate(tmp_path):
    # At theta = 0 the particle hops without spreading, so every link
    # probability is 0 or 1 and the screen keeps no bin; the run still
    # writes every artifact.
    rc = run_cli(
        "--experiment", "lattice-run", "--out", tmp_path,
        "--lattice-n", "8", "--steps", "15", "--collapse-x", "0", "--theta", "0",
    )
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chi_squared.json", "field.pgm", "links_backward.csv", "links_forward.csv",
        "manifest.jsonl", "occupancy_backward.pgm", "occupancy_forward.pgm",
    ]
    assert json.loads((tmp_path / "chi_squared.json").read_text()) == {
        "degenerate": True,
        "reason": "no probability bin passed the normal-approximation screen; total events = 120",
    }


@pytest.mark.parametrize(
    "values, message",
    [
        (np.zeros(4), "nonempty 2-d"),
        (np.zeros((0, 3)), "nonempty 2-d"),
        (np.full((2, 2), 1.5), r"\[0, 1\]"),
        (np.array([[0.5, math.nan]]), r"\[0, 1\]"),
    ],
    ids=["one-axis", "empty", "above-one", "nan"],
)
def test_write_pgm_rejects_bad_images(tmp_path, values, message):
    with pytest.raises(ValueError, match=message):
        write_pgm(tmp_path / "panel.pgm", values)


def test_read_pgm_keeps_whitespace_pixels(tmp_path):
    # Pixels 10 and 32 are the bytes b"\n" and b" ".
    pixels = np.array([[10, 32, 9], [13, 255, 0]])
    write_pgm(tmp_path / "panel.pgm", 1.0 - pixels / 255.0)
    assert np.array_equal(read_pgm(tmp_path / "panel.pgm"), pixels)


@pytest.mark.parametrize(
    "damage, message",
    [(lambda raw: b"P2" + raw[2:], "not an 8-bit P5 image"), (lambda raw: raw[:-1], "truncated pixel data")],
    ids=["not-p5", "truncated"],
)
def test_read_pgm_rejects_damaged_files(tmp_path, damage, message):
    path = tmp_path / "panel.pgm"
    write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        read_pgm(path)


# ----------------------------------------------------------------------
# batches
# ----------------------------------------------------------------------


def test_lattice_batch_smoke_emits_reports(tmp_path):
    rc = run_cli(
        "--experiment", "lattice-batch", "--out", tmp_path, "--seed", "1",
        "--runs", "50", "--lattice-n", "8", "--steps", "40",
    )
    assert rc == 0
    pvalue_rows = (tmp_path / "pvalues.csv").read_text().splitlines()
    assert pvalue_rows[0] == "run,statistic,dof,p_value"
    assert len(pvalue_rows) == 51
    histogram_rows = (tmp_path / "histogram.csv").read_text().splitlines()
    assert len(histogram_rows) >= 3
    report = json.loads((tmp_path / "uniformity.json").read_text())
    assert report["runs"] == 50
    assert report["retained"] + report["degenerate"] == 50
    assert 0.0 <= report["chi_squared"]["p_value"] <= 1.0
    assert 0.0 <= report["ks"]["p_value"] <= 1.0


def test_lattice_batch_refuses_tiny_ensembles(tmp_path, capsys):
    rc = run_cli(
        "--experiment", "lattice-batch", "--out", tmp_path, "--seed", "1",
        "--runs", "1", "--lattice-n", "8", "--steps", "40",
    )
    assert rc == 2
    assert "runs" in capsys.readouterr().err


def test_qmupl_batch_refuses_a_single_run(tmp_path, capsys):
    rc = run_cli("--experiment", "qmupl-batch", "--out", tmp_path, "--runs", "1")
    assert rc == 2
    assert "qmupl-batch needs runs >= 2, got 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_lattice_batch_all_degenerate_is_reported_not_hidden(tmp_path):
    # With hopping and randomness both switched off, every link is
    # deterministic, every per-run comparison is degenerate, and the report
    # must say so explicitly instead of silently dropping runs.
    rc = run_cli(
        "--experiment", "lattice-batch", "--out", tmp_path, "--seed", "1",
        "--runs", "50", "--lattice-n", "8", "--steps", "30",
        "--collapse-x", "0", "--theta", "0",
    )
    assert rc == 0
    rows = (tmp_path / "pvalues.csv").read_text().splitlines()
    assert len(rows) == 51
    assert all(row.endswith(",,,") for row in rows[1:])
    report = json.loads((tmp_path / "uniformity.json").read_text())
    assert report["degenerate"] == 50
    assert report["retained"] == 0
    assert "error" in report


def test_qmupl_run_artifacts(tmp_path):
    rc = run_cli(
        "--experiment", "qmupl-run", "--out", tmp_path, "--seed", "12",
        "--n-steps", "50",
    )
    assert rc == 0
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 52
    assert len((tmp_path / "collapse_centres.csv").read_text().splitlines()) == 51
    assert len((tmp_path / "reversal.csv").read_text().splitlines()) == 52


def test_qmupl_batch_quick_mode(tmp_path):
    rc = run_cli(
        "--experiment", "qmupl-batch", "--out", tmp_path, "--seed", "12",
        "--runs", "100", "--n-steps", "400",
    )
    assert rc == 0
    report = json.loads((tmp_path / "uniformity.json").read_text())
    assert report["runs"] == report["retained"] == 100
    assert report["ks"]["p_value"] > 1e-4  # sane calibration on a healthy batch


# ----------------------------------------------------------------------
# demos
# ----------------------------------------------------------------------


def test_markov_demo_default_chain_is_self_reverse(tmp_path):
    rc = run_cli("--experiment", "markov-demo", "--out", tmp_path, "--seed", "2")
    assert rc == 0
    for name in (
        "kernel.csv", "stationary.csv", "reverse_kernel.csv",
        "retrodiction.csv", "selection.csv",
    ):
        assert (tmp_path / name).exists(), name
    forward = load_kernel(tmp_path / "kernel.csv")
    reverse = load_kernel(tmp_path / "reverse_kernel.csv")
    assert forward.states == reverse.states
    assert np.abs(forward.kernel - reverse.kernel).max() < 1e-12


def test_markov_demo_identity_kernel_exits_degenerate(tmp_path, capsys):
    kernel_file = tmp_path / "identity.csv"
    kernel_file.write_text("target,from_a,from_b\na,1.0,0.0\nb,0.0,1.0\n")
    out = tmp_path / "out"
    rc = run_cli(
        "--experiment", "markov-demo", "--out", out, "--seed", "2",
        "--kernel-file", kernel_file,
    )
    assert rc == 3
    assert "equilibrium" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_markov_demo_nan_kernel_is_a_config_error(tmp_path, capsys):
    kernel_file = tmp_path / "nan.csv"
    kernel_file.write_text("target,from_a,from_b\na,nan,0.5\nb,0.5,0.5\n")
    out = tmp_path / "out"
    rc = run_cli("--experiment", "markov-demo", "--out", out, "--kernel-file", kernel_file)
    assert rc == 2
    assert "kernel entries must be finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_markov_demo_non_utf8_kernel_is_a_config_error(tmp_path, capsys):
    kernel_file = tmp_path / "latin1.csv"
    kernel_file.write_bytes("target,from_\u00e9,from_b\n".encode("latin-1"))
    out = tmp_path / "out"
    rc = run_cli("--experiment", "markov-demo", "--out", out, "--kernel-file", kernel_file)
    assert rc == 2
    assert "latin1.csv: not UTF-8 text (byte 12)" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_markov_demo_slowly_mixing_chain_exits_zero(tmp_path):
    # Flip probability 1e-9: ergodic, so its equilibrium and reverse kernel
    # exist however long the chain takes to mix.
    kernel_file = tmp_path / "slow.csv"
    kernel_file.write_text("target,from_a,from_b\na,0.999999999,1e-09\nb,1e-09,0.999999999\n")
    rc = run_cli("--experiment", "markov-demo", "--out", tmp_path / "out", "--kernel-file", kernel_file)
    assert rc == 0
    rows = (tmp_path / "out" / "stationary.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_energy_demo_curve_shapes(tmp_path):
    rc = run_cli(
        "--experiment", "energy-demo", "--out", tmp_path, "--seed", "6",
        "--walk-runs", "2000", "--walk-steps", "40", "--grid-half-width", "40",
        "--runs", "60", "--n-steps", "100",
    )
    assert rc == 0
    pre = np.genfromtxt(tmp_path / "walk_pre.csv", delimiter=",", names=True)
    post = np.genfromtxt(tmp_path / "walk_post.csv", delimiter=",", names=True)
    # Pre-selected: rising, close to the (variance/2) per step line.
    rise = pre["mean_energy_forward"]
    assert rise[0] == 0.0
    assert rise[-1] > rise[0]
    slope = np.polyfit(pre["t"], rise, 1)[0]
    assert abs(slope - 0.25) < 0.04
    # Post-selected: decreasing toward the selection window.
    fall = post["mean_energy_forward"]
    assert fall[0] > fall[-1]
    assert fall[-1] <= 0.5 + 1e-12
    assert np.array_equal(post["mean_energy_reverse"], fall[::-1])
    curve = np.genfromtxt(tmp_path / "qmupl_energy.csv", delimiter=",", names=True)
    assert curve["mean_p_squared"].size == 101
    assert curve["mean_p_squared"][-1] > curve["mean_p_squared"][0]


def test_energy_demo_zero_variance_is_flat(tmp_path):
    rc = run_cli(
        "--experiment", "energy-demo", "--out", tmp_path, "--seed", "6",
        "--walk-runs", "200", "--walk-steps", "30", "--grid-half-width", "10",
        "--step-variance", "0", "--runs", "20", "--n-steps", "50",
    )
    assert rc == 0
    pre = np.genfromtxt(tmp_path / "walk_pre.csv", delimiter=",", names=True)
    post = np.genfromtxt(tmp_path / "walk_post.csv", delimiter=",", names=True)
    assert np.all(pre["mean_energy_forward"] == 0.0)
    assert np.all(post["mean_energy_forward"] == post["mean_energy_forward"][0])


@pytest.mark.parametrize(
    "flags, code, walks",
    [
        (("--runs", "1"), 2, False),
        (("--step-variance", "1.0", "--walk-runs", "3", "--selection-tolerance", "0"), 3, True),
    ],
    ids=["one-run", "no-survivors"],
)
def test_energy_demo_failure_writes_nothing(tmp_path, monkeypatch, flags, code, walks):
    if not walks:
        # A configuration error must fail before any momentum walk starts.
        monkeypatch.setattr(cli, "momentum_walk_demo", no_walk)
    out = tmp_path / "out"
    assert run_cli("--experiment", "energy-demo", "--out", out, *flags) == code
    assert list(out.iterdir()) == []


# ----------------------------------------------------------------------
# config handling and exit codes
# ----------------------------------------------------------------------


def test_config_file_flags_override_file_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment=qmupl-run\nseed=9\nn_steps=50\ng=30\n")
    out = tmp_path / "out"
    rc = run_cli("--config", cfg, "--out", out, "--g", "40")
    assert rc == 0
    line = manifest_lines(out)[0]
    assert line["experiment"] == "qmupl-run"
    assert line["seed"] == 9
    assert line["parameters"]["g"] == 40.0
    assert line["parameters"]["n_steps"] == 50
    assert len((out / "trajectory.csv").read_text().splitlines()) == 52


def test_config_file_errors_carry_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed=3\nnot a setting\n")
    rc = run_cli("--config", cfg, "--out", tmp_path / "out")
    assert rc == 2
    assert "bad.cfg:2" in capsys.readouterr().err
    cfg.write_text("runs=3\nseed=abc\n")
    rc = run_cli("--config", cfg, "--out", tmp_path / "out")
    assert rc == 2
    assert "bad.cfg:2: invalid int for seed: 'abc'" in capsys.readouterr().err
    # Not UTF-8: the offset names the first byte that does not decode.
    cfg.write_bytes(b"seed=3\nexperiment=qmupl-run\xe9\n")
    rc = run_cli("--config", cfg, "--out", tmp_path / "out")
    assert rc == 2
    assert "bad.cfg: not UTF-8 text (byte 27)" in capsys.readouterr().err


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    text = b"experiment=qmupl-run\nseed=9\nn_steps=50\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert run_cli("--config", plain, "--out", tmp_path / "plain") == 0
    assert run_cli("--config", marked, "--out", tmp_path / "marked") == 0
    assert artifact_bytes(tmp_path / "marked") == artifact_bytes(tmp_path / "plain")
    # The offset of a later bad byte counts the mark's three bytes.
    marked.write_bytes(b"\xef\xbb\xbfseed=3\n\xe9\n")
    assert run_cli("--config", marked, "--out", tmp_path / "bad") == 2
    assert "marked.cfg: not UTF-8 text (byte 10)" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["experiment=lattice-rn", "initial=wave"])
def test_config_file_choice_errors_carry_file_and_line(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"seed=3\n{line}\n")
    rc = run_cli("--config", cfg, "--experiment", "qmupl-run", "--out", tmp_path / "out")
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err
    assert line.partition("=")[2] in err


# One non-default value per configuration key, as the program resolves it.
KEY_SAMPLES = {
    "experiment": "energy-demo",
    "out": "out-dir",
    "seed": 7,
    "runs": 9,
    "workers": 2,
    "lattice_n": 8,
    "collapse_x": 0.25,
    "theta": 0.5,
    "steps": 12,
    "initial": "vacuum",
    "particle_column": 3,
    "g": 5.5,
    "mass": 2.0,
    "dt": 0.01,
    "n_steps": 30,
    "kernel_file": "chain.csv",
    "grid_half_width": 9,
    "step_variance": 0.75,
    "walk_steps": 11,
    "walk_runs": 13,
    "selection_tolerance": 2,
}


@pytest.mark.parametrize("separator", ["_", "-"])
def test_flag_and_config_file_resolve_every_key_alike(tmp_path, separator):
    assert set(KEY_SAMPLES) == {key.name for key in KEYS}
    flags = []
    for name, value in KEY_SAMPLES.items():
        flags += ["--" + name.replace("_", "-"), str(value)]
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "# every key\n"
        + "".join(f"{name.replace('_', separator)} = {value}\n" for name, value in KEY_SAMPLES.items())
    )
    parser = build_parser()
    from_flags = resolve_params(parser.parse_args(flags))
    from_file = resolve_params(parser.parse_args(["--config", str(cfg)]))
    assert from_flags == from_file == KEY_SAMPLES
    for name, value in KEY_SAMPLES.items():
        assert type(from_file[name]) is type(value), name


@pytest.mark.parametrize("flag", ["--g", "--dt", "--mass"])
def test_non_finite_wave_packet_parameter_is_a_config_error(tmp_path, capsys, flag):
    rc = run_cli("--experiment", "qmupl-run", "--out", tmp_path, flag, "inf")
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("g, dt, product", [("1e-200", "1e-200", "0.0"), ("1e300", "1e10", "inf")])
def test_g_dt_that_is_not_positive_finite_is_a_config_error(tmp_path, capsys, g, dt, product):
    rc = run_cli(
        "--experiment", "qmupl-batch", "--out", tmp_path, "--g", g, "--dt", dt,
        "--runs", "20", "--n-steps", "50",
    )
    assert rc == 2
    assert f"g * dt must be a positive finite number, got {product}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_qmupl_batch_counts_non_finite_runs_as_degenerate(tmp_path):
    # With mass 1e-300 the drift p dt / m overflows, so every back-solved
    # increment is NaN and no run has a usable KS test.
    rc = run_cli(
        "--experiment", "qmupl-batch", "--out", tmp_path, "--g", "1e300", "--dt", "1e-300",
        "--mass", "1e-300", "--runs", "20", "--n-steps", "50",
    )
    assert rc == 0
    report = json.loads((tmp_path / "uniformity.json").read_text())
    assert (report["degenerate"], report["retained"]) == (20, 0)


@pytest.mark.parametrize(
    "experiment, table",
    [("qmupl-run", "wave-packet trajectory"), ("energy-demo", "wave-packet energy curve")],
    ids=["qmupl-run", "energy-demo"],
)
def test_overflowing_wave_packet_is_a_config_error(tmp_path, capsys, monkeypatch, experiment, table):
    # The drift overflow of the qmupl-batch case above, which would leave the
    # single-run tables full of inf/nan.  energy-demo finds it before any walk.
    monkeypatch.setattr(cli, "momentum_walk_demo", no_walk)
    rc = run_cli(
        "--experiment", experiment, "--out", tmp_path, *SMALL_RUNS[experiment],
        "--g", "1e300", "--dt", "1e-300", "--mass", "1e-300",
    )
    assert rc == 2
    assert re.search(rf"{table} is not finite at step \d+", capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def error_classes(base=errors.CollapsimError):
    for subclass in base.__subclasses__():
        if subclass.__module__ == errors.__name__:
            yield subclass
        yield from error_classes(subclass)


# The exit codes the README states for each error class.
README_EXIT_CODES = {
    "ConfigError": 2,
    "DimensionError": 2,
    "InvalidStateError": 2,
    "DegenerateTestError": 3,
    "ConditioningError": 3,
    "NoUniqueEquilibriumError": 3,
    "ResampleExhaustedError": 3,
}


@pytest.mark.parametrize("error", list(error_classes()), ids=lambda error: error.__name__)
def test_each_error_class_exits_with_its_documented_code(tmp_path, capsys, monkeypatch, error):
    def fail(params):
        raise error("planted failure")

    monkeypatch.setitem(EXPERIMENTS, "markov-demo", cli.Experiment(fail, 1))
    rc = run_cli("--experiment", "markov-demo", "--out", tmp_path)
    assert rc == README_EXIT_CODES[error.__name__]
    assert capsys.readouterr().err == "collapsim: planted failure\n"
    assert list(tmp_path.iterdir()) == []


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lattice_m=4\n")
    rc = run_cli("--config", cfg, "--out", tmp_path / "out")
    assert rc == 2
    assert "bad.cfg:1" in capsys.readouterr().err


def test_missing_experiment_is_a_config_error(tmp_path, capsys):
    rc = run_cli("--out", tmp_path)
    assert rc == 2
    assert "experiment" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--experiment", "markov-demo"), "no output directory"),
        (("--experiment", "markov-demo", "--out", "out", "--workers", "0"), "workers must be >= 1, got 0"),
    ],
    ids=["no-out", "zero-workers"],
)
def test_run_settings_are_checked_before_running(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.chdir(tmp_path)
    rc = run_cli(*flags)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--experiment", "lattice-run", "--lattice-n", "7"), "n_columns must be even and within 2..16, got 7"),
        # The batches size their ranges from the model parameters, so they
        # must be checked before that.
        (("--experiment", "lattice-batch", "--lattice-n", "-2"), "n_columns must be even and within 2..16, got -2"),
        (("--experiment", "qmupl-batch", "--n-steps", "0"), "n must lie in 1..100000, got 0"),
    ],
    ids=["lattice-run", "lattice-batch", "qmupl-batch"],
)
def test_invalid_model_parameter_is_a_config_error(tmp_path, capsys, flags, message):
    rc = run_cli(*flags, "--out", tmp_path, "--seed", "1")
    assert rc == 2
    assert f"collapsim: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# determinism and the manifest
# ----------------------------------------------------------------------

BATCH_ARGS = (
    "--experiment", "lattice-batch", "--seed", "77",
    "--runs", "50", "--lattice-n", "8", "--steps", "40",
)


def artifact_bytes(out_dir):
    return {
        p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
    }


def test_repeat_invocations_are_byte_identical(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_cli(*BATCH_ARGS, "--out", first) == 0
    assert run_cli(*BATCH_ARGS, "--out", second) == 0
    assert artifact_bytes(first) == artifact_bytes(second)


def test_prng_driven_artifacts_match_golden_digests(tmp_path):
    """``qmupl-run``, ``qmupl-batch`` and ``energy-demo`` keep every byte.

    These three experiments are functions of the PRNG's draws and call no
    BLAS, so ``golden/artifact_digests.json`` holds their digests from
    ``scripts/artifact_digests.py 1 123`` on any host, with those of its two
    serial ``qmupl-batch`` lines, ``qmupl-ranges`` and ``qmupl-narrow``, and
    of its ``qmupl-backsolve`` line, the ``x``, ``p`` and ``dB`` of batch
    back-solves.  The lattice and Markov artifacts are left out, because
    their bytes depend on the host's OpenBLAS kernel.  A change that declares a byte change to these
    experiments regenerates the file from the script's lines for them.
    """
    golden = json.loads((GOLDEN / "artifact_digests.json").read_text())
    digests = {}
    for line in digest_lines(["1", "123"], tmp_path):
        digest, path = line.split("  ")
        if path.split("/")[1] in (
            "qmupl-run", "qmupl-batch", "energy-demo", "qmupl-ranges", "qmupl-narrow",
            "qmupl-backsolve",
        ):
            digests[path] = digest
    assert digests == golden


# 53 runs split into ranges of ceil(53 / workers) runs: one range serially,
# and on two or more CPUs a last range shorter than the first.
WORKER_ARGS = {
    "lattice-batch": ("--runs", "53", "--lattice-n", "8", "--steps", "40"),
    "qmupl-batch": ("--runs", "53", "--n-steps", "200"),
}


@pytest.mark.parametrize("experiment", WORKER_ARGS)
def test_worker_count_does_not_change_outputs(tmp_path, experiment):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = ("--experiment", experiment, "--seed", "77", *WORKER_ARGS[experiment])
    assert run_cli(*args, "--out", serial, "--workers", "1") == 0
    assert run_cli(*args, "--out", parallel, "--workers", "3") == 0
    assert artifact_bytes(serial) == artifact_bytes(parallel)
    runs = [row.split(",")[0] for row in (serial / "pvalues.csv").read_text().splitlines()[1:]]
    assert runs == [str(i) for i in range(53)]


def test_rerun_into_same_directory_rewrites_manifest(tmp_path):
    assert run_cli(*BATCH_ARGS, "--out", tmp_path) == 0
    once = (tmp_path / "manifest.jsonl").read_bytes()
    assert run_cli(*BATCH_ARGS, "--out", tmp_path) == 0
    assert (tmp_path / "manifest.jsonl").read_bytes() == once


def readme_artifacts() -> dict:
    """The README's artifact table: experiment -> file names in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return {
        experiment: re.findall(r"`([^`]+)`", files)
        for experiment, files in re.findall(r"^\| `([a-z-]+)` \| (.+) \|$", text, re.M)
    }


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_manifest_covers_every_artifact(tmp_path, experiment):
    rc = run_cli(
        "--experiment", experiment, "--out", tmp_path, "--seed", "3", *SMALL_RUNS[experiment],
    )
    assert rc == 0
    lines = manifest_lines(tmp_path)
    listed = [line["artifact"] for line in lines]
    emitted = {p.name for p in tmp_path.iterdir()} - {"manifest.jsonl"}
    assert set(listed) == emitted
    assert listed == readme_artifacts()[experiment]
    for line in lines:
        assert set(line) == {"artifact", "experiment", "parameters", "seed", "version"}
        assert line["experiment"] == experiment
        assert "out" not in line["parameters"]
        assert "workers" not in line["parameters"]


def test_manifest_parameters_are_pinned(tmp_path):
    # Exactly the resolved keys: unset None-default keys (kernel_file) and the
    # invocation-only ones (out, workers, config) stay out.
    rc = run_cli(
        "--experiment", "qmupl-run", "--out", tmp_path, "--seed", "3",
        "--n-steps", "40",
    )
    assert rc == 0
    assert manifest_lines(tmp_path)[0]["parameters"] == {
        "collapse_x": 0.5,
        "dt": 0.001,
        "experiment": "qmupl-run",
        "g": 20.0,
        "grid_half_width": 60,
        "initial": "particle",
        "lattice_n": 16,
        "mass": 1.0,
        "n_steps": 40,
        "particle_column": 11,
        "runs": 1,
        "seed": 3,
        "selection_tolerance": 1,
        "step_variance": 0.5,
        "steps": 100,
        "theta": 0.7853981633974483,
        "walk_runs": 2000,
        "walk_steps": 200,
    }


def test_failed_write_leaves_no_partial_artifact(tmp_path, monkeypatch, capsys):
    def write_then_fail(path, header, rows):
        if Path(path).name.startswith("collapse_centres.csv"):
            Path(path).write_text("step,time,z,dB\r\n0,")
            raise OSError("disk full")
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", write_then_fail)
    rc = run_cli("--experiment", "qmupl-run", "--out", tmp_path, "--n-steps", "40")
    assert rc == 4
    assert "disk full" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl", "trajectory.csv"]
    assert [line["artifact"] for line in manifest_lines(tmp_path)] == ["trajectory.csv"]


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run pool tasks in this process instead; returns the list of pool sizes started."""
    started = []

    class InProcessPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, worker, tasks):
            return map(worker, tasks)

    monkeypatch.setattr(cli, "multiprocessing", SimpleNamespace(Pool=InProcessPool))
    return started


def range_rows(task):
    """A batch worker's shape: one row per run of the task's index range."""
    start, stop, seed, _ = task
    return [(index, seed) for index in range(start, stop)]


range_rows.range_cap = lambda params: 64


@pytest.mark.parametrize("cpus, pools", [(3, [3]), (16, [10]), (1, []), (None, [])])
def test_workers_are_capped_at_cpu_count(monkeypatch, pool_sizes, cpus, pools):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    results = cli._fan_out(range_rows, {"seed": 5, "runs": 10, "workers": 64})
    assert pool_sizes == pools
    assert results == [(i, 5) for i in range(10)]


# (runs, workers, range cap, range size) on 2 CPUs; a case's id leaves out
# the cap.
FAN_OUT_CASES = [
    (1000, 2, 64, 64),  # qmupl-pool's runs and workers
    (5000, 2, 64, 64),  # the default qmupl-batch
    (53, 1, 6, 6),
    (3, 2, 1, 1),  # qmupl-batch at 100 000 steps
    (50, 2, 64, 25),  # lattice-pool: 12 columns allow 64 runs
    (500, 1, 4, 4),  # the default lattice-batch: 16 columns allow 4 runs
    (53, 2, 64, 27),
    (50, 64, 1024, 25),
    (10, 1, 0, 1),
]


@pytest.mark.parametrize(
    "runs, workers, cap, size",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}-{case[3]}") for case in FAN_OUT_CASES],
)
def test_fan_out_hands_out_contiguous_capped_ranges(monkeypatch, pool_sizes, runs, workers, cap, size):
    # On 2 CPUs a range holds ceil(runs / workers) runs, at least 1 and at
    # most the worker's range cap, and the rows come back in run order.
    tasks = []

    def worker(task):
        tasks.append(task[:3])
        return range_rows(task)

    worker.range_cap = lambda params: cap
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    results = cli._fan_out(worker, {"seed": 5, "runs": runs, "workers": workers})
    assert tasks == [(start, min(start + size, runs), 5) for start in range(0, runs, size)]
    assert results == [(i, 5) for i in range(runs)]
    assert pool_sizes == ([] if workers == 1 else [2])


@pytest.mark.parametrize(
    "experiment, n_steps, lattice_n, cap",
    [("qmupl-batch", 1000, 16, 128), ("qmupl-batch", 10_000, 16, 12), ("qmupl-batch", 100_000, 16, 1),
     ("lattice-batch", 1000, 12, 64), ("lattice-batch", 1000, 16, 4), ("lattice-batch", 1000, 2, 65_536)],
)
def test_range_caps_bound_a_range_by_memory(experiment, n_steps, lattice_n, cap):
    # A qmupl range holds at most 128 000 record values, a lattice range at
    # most 2**18 dense amplitudes.
    worker = {"qmupl-batch": cli._qmupl_batch_worker, "lattice-batch": cli._lattice_batch_worker}
    assert worker[experiment].range_cap({"n_steps": n_steps, "lattice_n": lattice_n}) == cap


@pytest.mark.parametrize("workers", [1, 2])
def test_lattice_batch_rows_match_a_one_run_oracle(workers):
    # 53 runs at width 12 in ranges of one forward and one backward call
    # each; every row must equal the per-run run_forward/run_backward loop.
    params = {
        "seed": 31, "runs": 53, "workers": workers, "lattice_n": 12, "collapse_x": 0.5,
        "theta": 0.7853981633974483, "steps": 12, "initial": "particle", "particle_column": 7,
    }
    config = cli._lattice_config(params)
    expected = []
    for index in range(53):
        record, final = run_forward(config, cli._lattice_initial(params), PrngStream(31).split(index))
        back, _ = run_backward(config, record.field, conjugate(final))
        try:
            report = reversal_chi_squared(record.field, back.probabilities)
            expected.append((index, report.statistic, report.dof, report.p_value))
        except errors.DegenerateTestError:
            expected.append((index, None, None, None))
    assert cli._fan_out(cli._lattice_batch_worker, params) == expected


QMUPL_PARAMS = {"g": 20.0, "mass": 1.0, "dt": 0.001, "n_steps": 1000}


@pytest.mark.parametrize("workers", [1, 2])
def test_qmupl_batch_rows_match_a_one_run_oracle(workers):
    # 267 runs at 1000 steps in ranges of 128, 128 and 11 runs; the last is
    # narrower than _ARRAY_RUNS, so both back-solve operands run.  Every row
    # must equal the one-run simulate_forward / reverse_trajectory loop,
    # scored by the element-loop KS test with a scalar normal CDF.
    params = {"seed": 31, "runs": 267, "workers": workers, **QMUPL_PARAMS}
    assert 267 % cli._qmupl_batch_worker.range_cap(params) < _ARRAY_RUNS
    config = cli._qmupl_config(params)
    scale = 1.0 / math.sqrt(config.dt)
    expected = []
    for index in range(267):
        forward = simulate_forward(config, PrngStream(31).split(index))
        back = reverse_trajectory(forward.z, forward.x[-1], forward.p[-1], config)
        statistic, p_value = slow_ks_test(back.dB * scale, scalar_normal_cdf)
        expected.append((index, statistic, None, p_value))
    assert cli._fan_out(cli._qmupl_batch_worker, params) == expected


def test_a_full_qmupl_range_stays_within_its_memory_budget():
    # One range of the default 1000 steps: its four (128, 1000) arrays take
    # 4.1 MB; the traced peak must stay below 4.5 MB.
    params = {"seed": 1, "runs": 1000, "workers": 1, **QMUPL_PARAMS}
    task = (0, cli._qmupl_batch_worker.range_cap(params), 1, params)
    cli._qmupl_batch_worker(task)
    tracemalloc.start()
    try:
        cli._qmupl_batch_worker(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6
