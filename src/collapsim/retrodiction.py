"""Finite-state Markov machinery for time-directed inference.

A :class:`MarkovModel` stores a one-step stochastic kernel with **columns
indexed by the source state**: ``kernel[j, i]`` is the probability of moving
to state ``j`` from state ``i``, and every column sums to 1.  On top of the
forward rule (`evolve`) this module provides:

* Bayesian retrodiction of the previous state from an observation
  (`retrodict`), and the equilibrium reverse kernel obtained when the prior
  is stationary (`equilibrium_retrodiction`) — the unique situation in which
  retrodiction is itself a time-independent stochastic rule;

* two-point conditioning, `pinned_inference`: the interior distribution of
  a chain pinned at an early and a late time.  Smoothing (prepare a state,
  observe a later one) and post-selection (select a state, observe an
  earlier one) are this one rule with the pins swapped; neither direction
  has an entry point of its own;

* `momentum_walk_demo`, a bounded random walk over integer momentum levels
  showing that the direction in which "energy grows" follows the boundary
  condition, not the dynamics: pre-selected walkers heat up linearly, while
  the sub-ensemble post-selected to end near zero momentum cools toward the
  selection value in forward time.

All time arguments live on an integer step grid; one `evolve` application
advances one step.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConditioningError,
    ConfigError,
    DimensionError,
    NoUniqueEquilibriumError,
    ResampleExhaustedError,
)
from .output import read_text, write_csv
from .stats import PrngStream

_COLUMN_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10
# Kernel squarings before `stationary` gives up: 2**64 steps.
_STATIONARY_MAX_DOUBLINGS = 64

# ======================================================================
# Types
# ======================================================================


@dataclass(frozen=True)
class MarkovModel:
    """State labels plus a column-stochastic one-step kernel (columns = sources)."""

    states: tuple[str, ...]
    kernel: np.ndarray

    def __post_init__(self):
        labels = tuple(str(s) for s in self.states)
        kernel = np.asarray(self.kernel, dtype=float)
        n = len(labels)
        if n < 1 or len(set(labels)) != n:
            raise ConfigError(f"state labels must be nonempty and distinct, got {labels}")
        if kernel.shape != (n, n):
            raise DimensionError(f"kernel shape {kernel.shape} does not match {n} states")
        if not np.isfinite(kernel).all():
            raise ConfigError("kernel entries must be finite")
        if kernel.min() < 0.0:
            raise ConfigError("kernel entries must be nonnegative")
        sums = kernel.sum(axis=0)
        worst = float(np.abs(sums - 1.0).max())
        if worst > _COLUMN_SUM_TOL:
            raise ConfigError(f"kernel columns must sum to 1 (worst deviation {worst:.2e})")
        object.__setattr__(self, "states", labels)
        object.__setattr__(self, "kernel", kernel)

    @property
    def size(self) -> int:
        return len(self.states)

    def index_of(self, state: int | str) -> int:
        if isinstance(state, str):
            try:
                return self.states.index(state)
            except ValueError:
                raise DimensionError(f"unknown state label {state!r}") from None
        if not 0 <= state < self.size:
            raise DimensionError(f"state index {state} out of range 0..{self.size - 1}")
        return int(state)


@dataclass(frozen=True)
class Distribution:
    """Probability vector over the model's states."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise DimensionError(f"distribution must be a nonempty vector, got shape {probs.shape}")
        if not np.isfinite(probs).all():
            raise ConfigError("probabilities must be finite")
        if probs.min() < 0.0:
            raise ConfigError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > _COLUMN_SUM_TOL:
            raise ConfigError(f"probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def uniform(cls, size: int) -> "Distribution":
        return cls(np.full(size, 1.0 / size))


@dataclass(frozen=True)
class SelectionSpec:
    """A pinned state (label or index) at a fixed time step."""

    time: int
    state: int | str


# ======================================================================
# Forward and backward rules
# ======================================================================


def evolve(model: MarkovModel, dist: Distribution) -> Distribution:
    """Advance a distribution one step: P'(j) = sum_i kernel[j, i] P(i)."""
    if dist.probabilities.size != model.size:
        raise DimensionError(
            f"distribution size {dist.probabilities.size} does not match model size {model.size}"
        )
    return Distribution(model.kernel @ dist.probabilities)


def _reaches_one_state_from_all(kernel: np.ndarray) -> bool:
    """Whether some state is reachable from every state in exactly 2^k steps.

    Such a state exists exactly when the chain has one closed class and it
    is aperiodic.  From two closed classes no state is reachable from both,
    and in a class of period d > 1 states of different phase reach disjoint
    sets at every step.  One aperiodic closed class of c states is entered
    within n - c steps, and walks inside it reach all of it from
    (c - 1)^2 + 1 steps on, so 2^k >= n^2 steps always suffice.

    The 0/1 support is squared until a row is all ones (it stays so), the
    support stops changing (it stays so) or 2^k reaches n^2.
    """
    n = kernel.shape[0]
    reach = kernel > 0.0
    steps = 1
    while not reach.all(axis=1).any():
        if steps >= n * n:
            return False
        squared = reach.astype(float) @ reach > 0.0
        if np.array_equal(squared, reach):
            return False
        reach = squared
        steps *= 2
    return True


def stationary(model: MarkovModel) -> Distribution:
    """Unique attracting fixed point of `evolve`, by power convergence.

    Repeatedly squares the kernel; the chain is ergodic exactly when the
    matrix powers converge to a rank-one matrix, whose common column is the
    stationary distribution.  Each square's columns are renormalized to sum
    to 1: squaring a slowly mixing kernel without it drifts off stochastic,
    and the column spread stalls above tolerance.  A chain with more than one
    closed class, or with a periodic one (the identity, a cycle), is rejected
    from the kernel's support before any squaring; transient states are fine.
    A chain that passes but whose powers still differ after
    ``_STATIONARY_MAX_DOUBLINGS`` squarings is rejected too.
    """
    if not _reaches_one_state_from_all(model.kernel):
        raise NoUniqueEquilibriumError(
            "kernel has more than one closed class, or a periodic one: no unique equilibrium"
        )
    power = model.kernel
    for _ in range(_STATIONARY_MAX_DOUBLINGS):
        power = power @ power
        power /= power.sum(axis=0)
        if float((power.max(axis=1) - power.min(axis=1)).max()) <= _STATIONARY_TOL:
            # One more squaring: convergence is quadratic, so this pushes the
            # column spread from ~1e-10 down to rounding level and the result
            # is a fixed point to machine precision, not just to tolerance.
            power = power @ power
            pi = power.mean(axis=1)
            pi /= pi.sum()
            if float(np.abs(model.kernel @ pi - pi).max()) > _STATIONARY_TOL:
                break
            return Distribution(pi)
    raise NoUniqueEquilibriumError(
        "kernel powers did not converge to a unique equilibrium"
    )


def retrodict(model: MarkovModel, prior: Distribution, observed: int | str) -> Distribution:
    """Bayesian posterior over the source state given one observed outcome.

    P(source = i | target = j) = kernel[j, i] prior(i) / P(target = j).
    """
    j = model.index_of(observed)
    if prior.probabilities.size != model.size:
        raise DimensionError(
            f"prior size {prior.probabilities.size} does not match model size {model.size}"
        )
    joint = model.kernel[j, :] * prior.probabilities
    total = float(joint.sum())
    if total <= 0.0:
        raise ConditioningError(
            f"observation {model.states[j]!r} has probability zero under this prior"
        )
    return Distribution(joint / total)


def equilibrium_retrodiction(model: MarkovModel, p_e: Distribution) -> np.ndarray:
    """Reverse kernel at equilibrium: entry [i, j] = kernel[j, i] p_e(i) / p_e(j).

    Requires ``p_e`` stationary with full support; the result's columns
    (indexed by the conditioned later state j) each sum to 1, making the
    reverse rule a time-independent stochastic kernel in its own right.
    """
    if p_e.probabilities.size != model.size:
        raise DimensionError(
            f"distribution size {p_e.probabilities.size} does not match model size {model.size}"
        )
    probs = p_e.probabilities
    if probs.min() <= 0.0:
        raise ConfigError("equilibrium distribution must have full support")
    drift = float(np.abs(model.kernel @ probs - probs).max())
    if drift > _STATIONARY_TOL:
        raise ConfigError(f"distribution is not stationary (drift {drift:.2e})")
    return model.kernel.T * probs[:, None] / probs[None, :]


def pinned_inference(
    model: MarkovModel, early: SelectionSpec, late: SelectionSpec, t: int
) -> Distribution:
    """Interior distribution at time ``t`` of a chain pinned at both ends.

    One rule serves both time directions: smoothing pins a prepared state
    early and observes a later one, post-selection pins a selected state late
    and observes an earlier one.  For ``early.time < t < late.time``,

        P(i at t) is proportional to
        kernel^(late.time - t)[late, i] kernel^(t - early.time)[i, early].

    Pin states are labels or indices.  A joint boundary of probability zero
    raises ``ConditioningError``.
    """
    if not early.time < t < late.time:
        raise ConfigError(
            f"need early.time < t < late.time, got {early.time}, {t}, {late.time}"
        )
    first = model.index_of(early.state)
    last = model.index_of(late.state)
    weights = (
        np.linalg.matrix_power(model.kernel, late.time - t)[last, :]
        * np.linalg.matrix_power(model.kernel, t - early.time)[:, first]
    )
    total = float(weights.sum())
    if total <= 0.0:
        raise ConditioningError(
            f"joint boundary ({model.states[first]!r} at {early.time}, "
            f"{model.states[last]!r} at {late.time}) has probability zero"
        )
    return Distribution(weights / total)


# ======================================================================
# Momentum-walk demonstration
# ======================================================================


@dataclass(frozen=True)
class MomentumWalkResult:
    """Mean kinetic energy per step of a (possibly post-selected) walker ensemble.

    ``mean_energy`` is the forward-time reading; the reverse reading is the
    same series traversed backward.  ``survivors`` counts the trajectories
    entering the averages (equals ``runs`` for pre-selection).
    """

    times: np.ndarray
    mean_energy: np.ndarray
    standard_error: np.ndarray
    survivors: int
    runs: int
    selection: str
    truncation_ok: bool

    @property
    def mean_energy_reverse(self) -> np.ndarray:
        return self.mean_energy[::-1]


def momentum_walk_demo(
    grid_half_width: int,
    step_variance: float,
    steps: int,
    runs: int,
    selection: str,
    rng: PrngStream,
    *,
    post_tolerance: int = 1,
) -> MomentumWalkResult:
    """Random walk over integer momentum levels in [-W, W] with reflecting walls.

    Each step moves +-1 with probability ``step_variance / 2`` each (so the
    free-walk momentum variance grows by ``step_variance`` per step); a move
    that would leave the grid stays put, which keeps the uniform distribution
    stationary.  Pre-selection starts every walker at p = 0 and reports mean
    p^2/2 rising linearly.  Post-selection starts walkers from the uniform
    (truncated-broad) distribution and keeps only those ending within
    ``post_tolerance`` of p = 0; their forward-time mean energy decreases
    toward the selection value.  ``truncation_ok`` records whether the grid
    is wide enough (W >= 6 sqrt(steps * step_variance)) for wall effects on
    the mean energy to be negligible.
    """
    if grid_half_width < 1:
        raise ConfigError(f"grid_half_width must be >= 1, got {grid_half_width}")
    if not 0.0 <= step_variance <= 1.0:
        raise ConfigError(f"step_variance must lie in [0, 1], got {step_variance}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    if selection not in ("pre", "post"):
        raise ConfigError(f"selection must be 'pre' or 'post', got {selection!r}")
    if post_tolerance < 0:
        raise ConfigError(f"post_tolerance must be >= 0, got {post_tolerance}")

    width = grid_half_width
    half_variance = 0.5 * step_variance
    n_levels = 2 * width + 1
    sum_energy = np.zeros(steps + 1)
    sum_energy_sq = np.zeros(steps + 1)
    survivors = 0
    for run_index in range(runs):
        stream = rng.split(run_index)
        if selection == "pre":
            p = 0
        else:
            p = int(stream.uniform() * n_levels) - width
        energies = [0.5 * p * p]
        for _ in range(steps):
            u = stream.uniform()
            if u < half_variance:
                candidate = p + 1
            elif u < step_variance:
                candidate = p - 1
            else:
                candidate = p
            if -width <= candidate <= width:
                p = candidate
            energies.append(0.5 * p * p)
        if selection == "post" and abs(p) > post_tolerance:
            continue
        survivors += 1
        energy = np.array(energies)
        sum_energy += energy
        sum_energy_sq += energy * energy
    if survivors == 0:
        raise ResampleExhaustedError(
            f"post-selection |p| <= {post_tolerance} kept 0 of {runs} trajectories"
        )
    mean = sum_energy / survivors
    if survivors > 1:
        variance = np.maximum(sum_energy_sq / survivors - mean**2, 0.0)
        se = np.sqrt(variance / (survivors - 1))
    else:
        se = np.full(steps + 1, np.nan)
    return MomentumWalkResult(
        times=np.arange(steps + 1),
        mean_energy=mean,
        standard_error=se,
        survivors=survivors,
        runs=runs,
        selection=selection,
        truncation_ok=width >= 6.0 * math.sqrt(steps * step_variance),
    )


# ======================================================================
# CSV serialization (kernel columns are sources; stated in the header)
# ======================================================================


def save_kernel(path: str | Path, model: MarkovModel) -> None:
    """Write the kernel as CSV; first column = target label, one column per source."""
    write_csv(
        path,
        ["target"] + [f"from_{s}" for s in model.states],
        ([label, *row] for label, row in zip(model.states, model.kernel)),
    )


def load_kernel(path: str | Path) -> MarkovModel:
    """Read a kernel written by :func:`save_kernel`."""
    # Blank lines, a trailing one included, are skipped as config files skip
    # them; a bad row names its line in the file, as config files do.
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    rows = [(reader.line_num, row) for row in reader if row]
    if len(rows) < 2:
        raise ConfigError(f"{path}: empty kernel file")
    header = rows[0][1]
    states = [name.removeprefix("from_") for name in header[1:]]
    if len(rows) - 1 != len(states):
        raise ConfigError(f"{path}: kernel must be square, got {len(rows) - 1} rows x {len(states)} columns")
    kernel = np.empty((len(states), len(states)))
    for j, (line, row) in enumerate(rows[1:]):
        if len(row) != len(states) + 1 or row[0] != states[j]:
            raise ConfigError(f"{path}:{line}: row does not match header state order")
        try:
            kernel[j, :] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ConfigError(f"{path}:{line}: {exc}") from None
    return MarkovModel(states=tuple(states), kernel=kernel)


def save_distribution(path: str | Path, model: MarkovModel, dist: Distribution) -> None:
    """Write a distribution as two-column CSV (state, probability)."""
    write_csv(path, ("state", "probability"), zip(model.states, dist.probabilities))
