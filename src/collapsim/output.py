"""Artifact writers: CSV tables, PGM images, and a replay manifest.

Conventions shared by all emitters:

* CSV files are RFC-4180: header row, comma-separated, CRLF line endings
  (the ``csv`` module's defaults).  Floats are written with ``repr`` so a
  round trip through text is bit-exact.

* Images are 8-bit binary PGM (P5).  Values are floats in [0, 1]; a value
  of 1.0 maps to black (pixel = round(255 * (1 - value))), matching the
  convention that occupied sites print dark.

* JSON reports are written with sorted keys, two-space indents and a
  trailing newline.

* Every artifact gets one JSON line in ``manifest.jsonl`` recording the
  experiment name, full parameter set, base seed, artifact filename, and
  package version — enough to replay the file exactly.  :meth:`Manifest.emit`
  lands each artifact under a temporary name, renames it into place, and
  only then appends its line, so every listed artifact is complete.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError

_MANIFEST_NAME = "manifest.jsonl"


def format_value(value) -> str:
    """Render a cell for CSV: floats via repr (round-trip exact), rest via str."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a table with a header row; see module docstring for format rules."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """Write a float matrix in [0, 1] as binary PGM; row 0 is the top row."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError(f"image must be a nonempty 2-d array, got shape {grid.shape}")
    if not (grid.min() >= 0.0 and grid.max() <= 1.0):
        raise ValueError("image values must lie in [0, 1]")
    pixels = np.rint(255.0 * (1.0 - grid)).astype(np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(pixels.tobytes())


def write_json(path: str | Path, payload: Mapping) -> None:
    """Write a JSON report; see module docstring for format rules."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_text(path: str | Path) -> str:
    """Read an input file as UTF-8; other bytes raise ``ConfigError`` naming their offset.

    One leading byte-order mark is dropped.  The ``utf-8-sig`` codec would
    drop it too, but would count the offset from after the mark.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return text.removeprefix("\ufeff")


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM written by :func:`write_pgm`; returns uint8 pixels."""
    raw = Path(path).read_bytes()
    # Split on newlines only: pixel bytes may be whitespace.
    header = raw.split(b"\n", 3)
    if len(header) != 4 or header[0] != b"P5" or header[2] != b"255":
        raise ValueError(f"{path}: not an 8-bit P5 image")
    width, height = (int(v) for v in header[1].split(b" "))
    pixels = np.frombuffer(header[3][: width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise ValueError(f"{path}: truncated pixel data")
    return pixels.reshape(height, width)


class Manifest:
    """Accumulates one JSON line per emitted artifact for exact replay."""

    def __init__(self, directory: str | Path, experiment: str, parameters: Mapping, seed: int, version: str):
        self.path = Path(directory) / _MANIFEST_NAME
        self.experiment = experiment
        self.parameters = {k: parameters[k] for k in sorted(parameters)}
        self.seed = seed
        self.version = version
        self._fresh = True

    def record(self, artifact: str | Path) -> None:
        mode = "w" if self._fresh else "a"
        self._fresh = False
        line = json.dumps(
            {
                "experiment": self.experiment,
                "parameters": self.parameters,
                "seed": self.seed,
                "artifact": Path(artifact).name,
                "version": self.version,
            },
            sort_keys=True,
        )
        with open(self.path, mode) as handle:
            handle.write(line + "\n")

    def emit(self, artifacts: Iterable[Sequence]) -> None:
        """Land each ``(name, write, *args)`` artifact, then record it.

        ``write(path, *args)`` fills ``name + ".part"``, which is renamed onto
        ``name``; a write that raises leaves no file and no manifest line.
        """
        for name, write, *args in artifacts:
            final = self.path.parent / name
            part = final.with_name(name + ".part")
            try:
                write(part, *args)
                os.replace(part, final)
            except BaseException:
                part.unlink(missing_ok=True)
                raise
            self.record(name)
