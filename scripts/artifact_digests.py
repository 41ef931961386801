"""Print the sha256 of every artifact the six experiments write, at small sizes.

Usage:  PYTHONPATH=src python3 scripts/artifact_digests.py [SEED ...]

Each experiment runs once per seed (default: seed 1) at the small sizes of
``SMALL_RUNS``, into a temporary directory.  One line
``<sha256>  <seed>/<experiment>/<file>`` is printed per output file,
``manifest.jsonl`` included.  Every experiment starts its lattice in the
vacuum and one-particle sectors, so none of them runs the dense pass; one
more line per seed, ``<sha256>  <seed>/dense-pass/width-8``, digests a
width-8 forward and backward pass from a state with weight in every sector
(see ``dense_pass_digest``).  Two more lines per seed,
``<sha256>  <seed>/<name>/pvalues.csv``, digest the p-values of the serial
``qmupl-batch`` runs of ``QMUPL_BATCHES``: ``qmupl-ranges`` is long enough to
span several back-solve ranges, so a change that moves the range edges shows
there if it moves any row, and ``qmupl-narrow``'s 4000-step ranges of 32 and
18 runs all back-solve on Python floats.  No artifact writes a batch
back-solve's positions or momenta, so a last line per seed,
``<sha256>  <seed>/qmupl-backsolve/x-p-dB``, digests ``x``, ``p`` and ``dB``
of the back-solves of ``BACK_SOLVES`` (see ``back_solve_digest``).  The
byte-identical replay criterion (criterion 12 in ``tests/test_acceptance.py``)
imports ``SMALL_RUNS`` and ``digest_lines`` from here and compares two
listings.  The script imports only the standard library, numpy and the
public names of ``collapsim``, so it runs against any checkout whose ``src``
is on ``PYTHONPATH``.  To check that a change leaves every artifact byte
alone, run it against both trees and diff the two listings:

    PYTHONPATH=/path/to/parent/src python3 scripts/artifact_digests.py 1 123 > before.txt
    PYTHONPATH=src python3 scripts/artifact_digests.py 1 123 > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from collapsim.cli import main
from collapsim.lattice import LatticeConfig, QuantumState, conjugate, normalize, run_backward, run_forward
from collapsim.qmupl import QmuplConfig, reverse_trajectory, simulate_forward
from collapsim.stats import PrngStream

# Small sizes of every experiment, also the sizes of criterion 12.
SMALL_RUNS = {
    "lattice-run": ("--lattice-n", "8", "--steps", "15"),
    "lattice-batch": ("--runs", "50", "--lattice-n", "8", "--steps", "30"),
    "qmupl-run": ("--n-steps", "60"),
    "qmupl-batch": ("--runs", "50", "--n-steps", "200"),
    "markov-demo": (),
    "energy-demo": (
        "--walk-runs", "100", "--walk-steps", "20",
        "--grid-half-width", "15", "--runs", "20", "--n-steps", "50",
    ),
}


# Serial qmupl-batch runs whose p-values are digested: one at the default
# 1000 steps that spans several ranges, and one whose ranges are all too
# narrow for the back-solve's array operand.
QMUPL_BATCHES = {
    "qmupl-ranges": ("--runs", "300", "--n-steps", "1000"),
    "qmupl-narrow": ("--runs", "50", "--n-steps", "4000"),
}


def dense_pass_digest(seed: int) -> str:
    """Sha256 of a width-8 forward and backward pass from an all-sector state.

    The state is normalized from ``PrngStream(seed)`` Gaussians, real and
    imaginary part in turn, and the same stream then draws the field.  The
    digest covers the field and, in both directions, the probabilities, the
    occupancies and the final amplitudes.
    """
    config = LatticeConfig(n_columns=8, collapse_x=0.5, theta=np.pi / 4, steps=15)
    rng = PrngStream(seed)
    parts = np.array([rng.gaussian() for _ in range(2 << config.n_columns)])
    initial = normalize(QuantumState(parts.view(np.complex128)))
    record, final = run_forward(config, initial, rng)
    back, recovered = run_backward(config, record.field, conjugate(final))
    arrays = (
        record.field.alpha, record.probabilities, record.occupancy, final.amplitudes,
        back.probabilities, back.occupancy, recovered.amplitudes,
    )
    return hashlib.sha256(b"".join(array.tobytes() for array in arrays)).hexdigest()


# Back-solves whose x, p and dB are digested, as (runs, steps): a batch on
# the array operand, a batch on Python floats, and one run (None) passed as
# one-dimensional arrays.
BACK_SOLVES = ((128, 1000), (12, 2000), (None, 3000))


def back_solve_digest(seed: int) -> str:
    """Sha256 of ``x``, ``p`` and ``dB`` of the back-solves of ``BACK_SOLVES``.

    Each run is a ``simulate_forward`` run at the reference coupling and step
    (g = 20, m = 1, dt = 0.001) from its own child stream
    ``PrngStream(seed).split(index)``, numbered across the three inputs, and
    each back-solve is anchored at its runs' forward end points.
    """
    rng = PrngStream(seed)
    digest = hashlib.sha256()
    index = 0
    for runs, steps in BACK_SOLVES:
        config = QmuplConfig(g=20.0, m=1.0, dt=0.001, n=steps)
        forwards = [simulate_forward(config, rng.split(index + r)) for r in range(runs or 1)]
        index += len(forwards)
        z = np.array([forward.z for forward in forwards])
        x_n = np.array([forward.x[-1] for forward in forwards])
        p_n = np.array([forward.p[-1] for forward in forwards])
        if runs is None:
            z, x_n, p_n = z[0], x_n[0], p_n[0]
        back = reverse_trajectory(z, x_n, p_n, config)
        for array in (back.x, back.p, back.dB):
            digest.update(array.tobytes())
    return digest.hexdigest()


def digest_lines(seeds: list[str], root: Path) -> list[str]:
    lines = []
    for seed in seeds:
        for experiment, extra in SMALL_RUNS.items():
            out = root / seed / experiment
            code = main(["--experiment", experiment, "--out", str(out), "--seed", seed, *extra])
            if code != 0:
                raise SystemExit(f"{experiment} at seed {seed} exited {code}")
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
        lines.append(f"{dense_pass_digest(int(seed))}  {seed}/dense-pass/width-8")
        for name, extra in QMUPL_BATCHES.items():
            out = root / seed / name
            argv = ["--experiment", "qmupl-batch", "--workers", "1", *extra]
            if main([*argv, "--out", str(out), "--seed", seed]) != 0:
                raise SystemExit(f"{name} at seed {seed} failed")
            digest = hashlib.sha256((out / "pvalues.csv").read_bytes()).hexdigest()
            lines.append(f"{digest}  {seed}/{name}/pvalues.csv")
        lines.append(f"{back_solve_digest(int(seed))}  {seed}/qmupl-backsolve/x-p-dB")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digest_lines(sys.argv[1:] or ["1"], Path(tmp))))
