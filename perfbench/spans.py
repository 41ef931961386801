"""Span recording around collapsim's public calls, installed from outside.

A :class:`Recorder` keeps finished spans and counters in memory and appends
them as JSON lines to ``<directory>/spans-<pid>.jsonl`` when flushed.  The
wrappers are installed into every ``collapsim`` module namespace that holds
the original function, because ``cli``, ``qmupl`` and ``lattice_analysis``
import names directly (``from .lattice import run_forward``); patching only
the defining module would miss those callers.

Pool workers are forked, and ``Pool.__exit__`` terminates them, so the
batch-worker wrapper flushes the worker's records before its task returns.
PRNG draws are counted, not spanned: a span per draw would cost more than the
draw, and the per-draw cost comes from a microbenchmark instead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path


class Recorder:
    """In-memory spans and counters of one process, flushed to a JSONL file."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.home_pid = os.getpid()
        self._reset(self.home_pid)
        self.stack: list[str] = []
        self.run = None

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.files: set[str] = set()
        self._next = 0

    def _own(self) -> None:
        # A forked worker inherits the parent's unflushed records; the parent
        # writes those itself, so the child starts empty.  The open-span stack
        # is kept: a worker span's parent is the pool phase that forked it.
        pid = os.getpid()
        if pid != self.pid:
            self._reset(pid)

    @contextlib.contextmanager
    def span(self, name: str):
        self._own()
        span_id = f"{self.pid}:{self._next}"
        self._next += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, "run": self.run, "pid": self.pid}
            )

    def count(self, key: str, amount: int = 1) -> None:
        self._own()
        self.counts[key] += amount

    def wrote(self, path, size: int) -> None:
        self._own()
        self.files.add(str(Path(path).resolve()))
        self.counts["output.bytes_written"] += size

    def flush(self) -> None:
        self._own()
        if not (self.spans or self.counts or self.files):
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / f"spans-{self.pid}.jsonl", "a") as handle:
            for record in self.spans:
                handle.write(json.dumps({"span": record}) + "\n")
            handle.write(
                json.dumps({"counts": dict(self.counts), "files": sorted(self.files)}) + "\n"
            )
        self._reset(self.pid)


# ======================================================================
# Wrappers
# ======================================================================


def _spanned(recorder: Recorder, name: str, fn, after=None, on_error=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(recorder, exc, args, kwargs)
                raise
        if after is not None:
            after(recorder, result, args, kwargs)
        return result

    return wrapper


def _count_links(recorder, result, args, kwargs):
    recorder.count("lattice.links", result[0].probabilities.size)


def _count_screened(recorder, report, args, kwargs):
    recorder.count("lattice_analysis.bins_screened", sum(not b.retained for b in report.bins))


def _count_degenerate(recorder, exc, args, kwargs):
    from collapsim.errors import DegenerateTestError
    from collapsim.lattice_analysis import DEFAULT_BINS

    if isinstance(exc, DegenerateTestError):
        bins = kwargs.get("bins", args[2] if len(args) > 2 else DEFAULT_BINS)
        recorder.count("lattice_analysis.degenerate_runs")
        recorder.count("lattice_analysis.bins_screened", bins.count)


def _count_qmupl_steps(recorder, result, args, kwargs):
    recorder.count("qmupl.steps", result.dB.size)


def _count_walker_steps(recorder, result, args, kwargs):
    recorder.count("retrodiction.walker_steps", result.runs * (result.times.size - 1))


def _count_file(recorder, result, args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    recorder.wrote(path, os.path.getsize(path))


class Installation:
    """Wrappers installed into the loaded collapsim modules; undone by :meth:`remove`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "collapsim" or module_name.startswith("collapsim.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# (module, function, span name, count hook on return, count hook on error)
_FUNCTIONS = (
    ("lattice", "run_forward", "lattice.run_forward", _count_links, None),
    ("lattice", "run_backward", "lattice.run_backward", _count_links, None),
    ("lattice_analysis", "reversal_chi_squared", "lattice_analysis.reversal_chi_squared",
     _count_screened, _count_degenerate),
    ("lattice_analysis", "pvalue_uniformity", "lattice_analysis.pvalue_uniformity", None, None),
    ("qmupl", "simulate_forward", "qmupl.simulate_forward", _count_qmupl_steps, None),
    ("qmupl", "reverse_trajectory", "qmupl.reverse_trajectory", _count_qmupl_steps, None),
    ("qmupl", "normality_test", "qmupl.normality_test", None, None),
    ("qmupl", "ensemble_energy_curve", "qmupl.ensemble_energy_curve", None, None),
    ("stats", "ks_test", "stats.ks_test", None, None),
    ("stats", "chi_squared_sf", "stats.chi_squared_sf", None, None),
    ("retrodiction", "momentum_walk_demo", "retrodiction.momentum_walk_demo", _count_walker_steps, None),
    ("output", "write_csv", "output.write_csv", _count_file, None),
    ("output", "write_pgm", "output.write_pgm", _count_file, None),
)


def install(recorder: Recorder) -> Installation:
    """Wrap every traced public call of collapsim; returns the undo handle."""
    import importlib

    for name in ("lattice", "lattice_analysis", "qmupl", "stats", "retrodiction", "output", "cli"):
        importlib.import_module(f"collapsim.{name}")
    installation = Installation()
    for module_name, attr, span_name, after, on_error in _FUNCTIONS:
        original = getattr(sys.modules[f"collapsim.{module_name}"], attr)
        installation._replace(original, _spanned(recorder, span_name, original, after, on_error))

    from collapsim import cli, output
    from collapsim.stats import PrngStream

    original_record = output.Manifest.record

    def record(self, artifact):
        before = self.path.stat().st_size if not self._fresh and self.path.exists() else 0
        with recorder.span("output.manifest_record"):
            original_record(self, artifact)
        recorder.wrote(self.path, self.path.stat().st_size - before)

    installation._patch_attr(output.Manifest, "record", functools.wraps(original_record)(record))

    original_uniform = PrngStream.uniform
    original_gaussian = PrngStream.gaussian

    def uniform(self):
        recorder.counts["stats.uniform_draws"] += 1
        return original_uniform(self)

    def gaussian(self):
        # Box-Muller consumes uniforms internally; only caller-requested
        # uniforms count as uniform draws.
        before = recorder.counts["stats.uniform_draws"]
        value = original_gaussian(self)
        recorder.counts["stats.uniform_draws"] = before
        recorder.counts["stats.gaussian_draws"] += 1
        return value

    installation._patch_attr(PrngStream, "uniform", functools.wraps(original_uniform)(uniform))
    installation._patch_attr(PrngStream, "gaussian", functools.wraps(original_gaussian)(gaussian))

    original_fan_out = cli._fan_out

    def fan_out(worker, params):
        recorder.count("cli.pool_workers", min(params["workers"], params["runs"]))
        with recorder.span("cli.fan_out"):
            return original_fan_out(worker, params)

    installation._replace(original_fan_out, functools.wraps(original_fan_out)(fan_out))

    for attr in ("_lattice_batch_worker", "_qmupl_batch_worker"):
        installation._replace(getattr(cli, attr), _batch_worker(recorder, getattr(cli, attr)))
    return installation


def _batch_worker(recorder: Recorder, original):
    # functools.wraps copies __module__ and __qualname__, so the pool pickles
    # the wrapper by the same name it is now bound to in collapsim.cli.
    @functools.wraps(original)
    def worker(task):
        recorder.run = task[0]
        try:
            with recorder.span("cli.worker"):
                return original(task)
        finally:
            recorder.run = None
            if os.getpid() != recorder.home_pid:
                recorder.flush()

    return worker


# ======================================================================
# Analysis
# ======================================================================


def load(directory: str | Path) -> tuple[list[dict], Counter, set[str]]:
    """Read every span file of one traced invocation."""
    spans: list[dict] = []
    counts: Counter = Counter()
    files: set[str] = set()
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                if "span" in record:
                    spans.append(record["span"])
                else:
                    counts.update(record["counts"])
                    files.update(record["files"])
    return spans, counts, files


def self_times(spans: list[dict]) -> Counter:
    """Seconds of self time per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Children of one parent may run concurrently in
    different pool workers, so the covered part is the union of their
    intervals, not the sum of their durations.
    """
    children: dict[str, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: Counter = Counter()
    for span in spans:
        covered = 0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        totals[span["name"]] += (span["end"] - span["start"] - covered) * 1e-9
    return totals
