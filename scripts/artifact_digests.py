"""Print the sha256 of every artifact the six experiments write, at small sizes.

Usage:  PYTHONPATH=src python3 scripts/artifact_digests.py [SEED ...]

Each experiment runs once per seed (default: seed 1) at the small sizes of
``SMALL_RUNS``, into a temporary directory.  One line
``<sha256>  <seed>/<experiment>/<file>`` is printed per output file,
``manifest.jsonl`` included.  The byte-identical replay criterion
(criterion 12 in ``tests/test_acceptance.py``) imports ``SMALL_RUNS`` and
``digest_lines`` from here and compares two listings.  The script imports
only the standard library and ``collapsim.cli.main``, so it runs against any
checkout whose ``src`` is on ``PYTHONPATH``.  To check that a change leaves
every artifact byte alone, run it against both trees and diff the two listings:

    PYTHONPATH=/path/to/parent/src python3 scripts/artifact_digests.py 1 123 > before.txt
    PYTHONPATH=src python3 scripts/artifact_digests.py 1 123 > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from collapsim.cli import main

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
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digest_lines(sys.argv[1:] or ["1"], Path(tmp))))
