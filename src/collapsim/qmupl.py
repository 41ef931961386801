"""Localized wave-packet collapse dynamics in one dimension.

The reduced model follows the packet's centre coordinates ``(x, p)`` under
discrete Euler updates driven by Brownian increments ``dB ~ N(0, dt)``:

    x_{i+1} = x_i + (p_i / m) dt + dB_i / sqrt(m)
    p_{i+1} = p_i + (g / 2) dB_i

Each step also exposes a collapse centre

    z_i = x_i + dB_i / (g dt),

the record an external observer keeps of the packet's position.  These
explicit recursions ARE the model here: trajectories are constructed by
them, so consecutive points satisfy them exactly in floating point.

Reverse-time reconstruction starts from the time-reversed final point
``(x_n, -p_n)`` and back-solves the same dynamical law against the recorded
centres:

    dB'_{i-1} = g dt (z_{i-1} - x'_i)
    x'_{i-1}  = x'_i + (p'_i / m) dt + dB'_{i-1} / sqrt(m)
    p'_{i-1}  = p'_i + (g / 2) dB'_{i-1}

Both directions return one ``WavePacketTrajectory(x, p, z, dB)`` indexed in
forward time: the forward run's ``z`` is the record it wrote, the
back-solve's the record it consumed.

The recursions are computed in the order of the step-by-step updates, so
every value rounds exactly as the scalar recursion would.  The forward run
is two running sums (``np.add.accumulate``).  The back-solve is one loop
that solves the positions, last first, on floats per run or on arrays over
a wide batch; array calls then give the increments and the momentum sum.

If the implied increments ``dB'`` pass a normality test at scale
``sqrt(dt)``, the record is statistically indistinguishable from one
generated in reverse time, except for two combinations of ``dB'`` that the
initial state fixes.  Read forward as a filter of the record ``z``, the
recursion forgets its start within about ``2 / g``, so the record pins the
end state to within ``exp(-g n dt / 2)``.  Replayed from that end state, the
back-solved increments must reproduce a record that the forward filter,
started at ``(x0, p0)``, carries back onto ``(x_n, p_n)``: two linear
constraints.  ``projected_normality_test`` tests the ``n - 2`` free
coordinates for normality and checks the two pinned ones against the values
the boundary states fix them to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateTestError, DimensionError
from .stats import PrngStream, TestReport, ks_test, standard_normal_cdf

MAX_STEPS = 100_000


@dataclass(frozen=True)
class QmuplConfig:
    """Coupling ``g``, mass ``m``, step ``dt``, step count ``n``, and start point."""

    g: float
    m: float
    dt: float
    n: int
    x0: float = 0.0
    p0: float = 0.0

    def __post_init__(self):
        for name in ("g", "m", "dt", "x0", "p0"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.g > 0.0:
            raise ConfigError(f"g must be positive, got {self.g}")
        if not self.m > 0.0:
            raise ConfigError(f"m must be positive, got {self.m}")
        if not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        g_dt = self.g * self.dt
        if not 0.0 < g_dt < math.inf:
            raise ConfigError(f"g * dt must be a positive finite number, got {g_dt}")
        if not 1 <= self.n <= MAX_STEPS:
            raise ConfigError(f"n must lie in 1..{MAX_STEPS}, got {self.n}")


@dataclass(frozen=True)
class WavePacketTrajectory:
    """A run in either time direction, indexed in forward time.

    ``x`` and ``p`` have length n + 1; ``z``, the collapse-centre record, and
    ``dB``, the increments, have length n.  A forward run writes ``z``; a
    back-solve carries the record it consumed.
    """

    x: np.ndarray
    p: np.ndarray
    z: np.ndarray
    dB: np.ndarray


def simulate_forward(
    config: QmuplConfig,
    rng: PrngStream,
    increments: Sequence[float] | None = None,
) -> WavePacketTrajectory:
    """Generate a forward trajectory of ``config.n`` steps.

    ``increments`` substitutes a fixed noise sequence for the sampled one
    (useful for noise-free and replay tests); otherwise each ``dB_i`` is an
    independent N(0, dt) draw from ``rng``, one :meth:`PrngStream.gaussian`
    call per step.

    The recursion runs as two running sums, which add in the order of the
    step-by-step update and so round exactly as it does: ``p`` sums
    ``(g / 2) dB_i`` onto ``p0``, and ``x`` sums the interleaved terms
    ``(p_i / m) dt`` and ``dB_i / sqrt(m)`` onto ``x0``.  An overflow gives
    inf or NaN quietly, as Python float arithmetic does.
    """
    n = config.n
    if increments is None:
        dB = np.fromiter(iter(rng.gaussian, None), dtype=float, count=n) * math.sqrt(config.dt)
    else:
        dB = np.asarray(increments, dtype=float)
        if dB.shape != (n,):
            raise DimensionError(f"increments must have shape ({n},), got {dB.shape}")
    p = np.empty(n + 1)
    terms = np.empty(2 * n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        _momenta(config.p0, dB, config, p)
        terms[0] = config.x0
        terms[1::2] = (p[:-1] / config.m) * config.dt
        terms[2::2] = dB / math.sqrt(config.m)
        x = np.add.accumulate(terms)[::2].copy()
        z = x[:-1] + dB / (config.g * config.dt)
    return WavePacketTrajectory(x=x, p=p, z=z, dB=dB)


def _momenta(p0, dB: np.ndarray, config: QmuplConfig, out: np.ndarray) -> None:
    """Write ``p0`` and its running sum of ``(g / 2) dB`` into ``out``, one longer than ``dB``."""
    out[..., 0] = p0
    np.multiply(0.5 * config.g, dB, out=out[..., 1:])
    np.add.accumulate(out, axis=-1, out=out)


def reverse_trajectory(
    z: Sequence[float] | np.ndarray,
    x_n: float | np.ndarray,
    p_n: float | np.ndarray,
    config: QmuplConfig,
) -> WavePacketTrajectory:
    """Back-solve a trajectory from the recorded centres and the forward end point.

    ``(x_n, p_n)`` is the forward run's final state.  The reversal anchors at
    the position unchanged and flips the momentum sign itself, then runs the
    recursion ``i = n .. 1``, filling the primed arrays down to index 0.  The
    result carries the record ``z`` it was solved against.

    One call also back-solves a batch: a ``(runs, n)`` record with ``(runs,)``
    end points gives ``(runs, n + 1)`` and ``(runs, n)`` arrays, row ``r``
    bit for bit what row ``r`` alone gives.  A batch holds its record and
    the three run-major result arrays and no other copy of that size.
    ``_back_solve`` solves the positions, per run on Python floats below
    ``_ARRAY_RUNS`` runs and on arrays over runs from there on; array calls
    over the batch then give the increments and momenta in the loop's order.
    """
    centres = np.asarray(z, dtype=float)
    n = config.n
    if centres.shape[-1:] != (n,) or centres.ndim > 2:
        raise DimensionError(f"centres must have shape ({n},) or (runs, {n}), got {centres.shape}")
    runs = centres.shape[:-1]
    if runs == (0,):
        raise DimensionError("a batch of runs needs at least one run")
    x_end = np.asarray(x_n, dtype=float)
    p_end = np.asarray(p_n, dtype=float)
    if x_end.shape != runs or p_end.shape != runs:
        raise DimensionError(
            f"end points must have shape {runs}, got {x_end.shape} and {p_end.shape}"
        )
    record = centres.reshape(-1, n)
    x_anchor = x_end.ravel()
    p_anchor = -p_end.ravel()
    xs = np.empty((record.shape[0], n + 1))
    ps = np.empty_like(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        if record.shape[0] < _ARRAY_RUNS:
            anchors = zip(xs, record, x_anchor.tolist(), p_anchor.tolist())
            for positions, centres_row, x, p in anchors:
                _back_solve(centres_row.tolist(), x, p, config, memoryview(positions))
        else:
            _back_solve(record.T, x_anchor, p_anchor, config, xs.T)
        steps = np.subtract(record, xs[:, 1:])
        np.multiply(config.g * config.dt, steps, out=steps)
        _momenta(p_anchor, steps[:, ::-1], config, ps[:, ::-1])
    return WavePacketTrajectory(
        x=xs.reshape(*runs, -1), p=ps.reshape(*runs, -1), z=centres, dB=steps.reshape(*runs, -1)
    )


# Fewest runs for which the back-solve runs on arrays: its nine ufunc calls
# per step cost as much as this many runs on Python floats (equal time at 30
# to 40 runs at 200 and 1000 steps; timeit, 2 vCPUs, numpy 2.4).  Lone runs and
# the narrow ranges of long batches (12 runs at 10 000 steps) take floats.
_ARRAY_RUNS = 35


def _back_solve(centres, x, p, config: QmuplConfig, positions) -> None:
    """Write the positions ``x'`` solved from the anchor ``(x, p)`` into ``positions``.

    The anchor goes into ``positions[n]``; step ``i = n - 1 .. 0`` reads
    ``centres[i]`` and writes ``positions[i]``.  The operands are one run's
    floats, record list and ``x`` row memoryview (which frees each float as
    it is stored), or a batch's transposed record and positions with
    ``(runs,)`` anchors; both round alike and overflow to inf or NaN.
    """
    m, dt = config.m, config.dt
    sqrt_m = math.sqrt(m)
    g_dt = config.g * dt
    half_g = 0.5 * config.g
    positions[len(centres)] = x
    for i in range(len(centres) - 1, -1, -1):
        step = g_dt * (centres[i] - x)
        x = x + (p / m) * dt + step / sqrt_m
        p = p + half_g * step
        positions[i] = x


def normality_test(increments: Sequence[float], dt: float) -> TestReport:
    """KS test of ``increments / sqrt(dt)`` against the standard normal."""
    if not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")
    scale = 1.0 / math.sqrt(dt)
    return ks_test(np.asarray(increments, dtype=float) * scale, standard_normal_cdf)


@dataclass(frozen=True)
class ProjectedNormalityReport:
    """Back-solved increments split into the free and the pinned part.

    ``free`` is the KS test of the ``n - 2`` free coordinates at scale
    ``sqrt(dt)``.  ``pinned`` holds the two pinned combinations of the
    increments and ``pinned_expected`` the values that the initial state and
    the anchor fix them to; a lawful back-solve matches them up to rounding.
    """

    free: TestReport
    pinned: tuple[float, float]
    pinned_expected: tuple[float, float]

    @property
    def pinned_gap(self) -> float:
        """Largest absolute gap between a pinned combination and its value."""
        return max(abs(a - b) for a, b in zip(self.pinned, self.pinned_expected))


def _householder(v: np.ndarray) -> np.ndarray:
    """Unit ``w`` whose reflection ``I - 2 w w^T`` maps ``v`` onto the first axis."""
    w = v.copy()
    w[0] += math.copysign(np.linalg.norm(v), v[0])
    return w / np.linalg.norm(w)


def _free_coordinates(dB: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Coordinates of ``dB`` in the orthonormal basis the two reflections leave free."""
    coords = dB - 2.0 * first * (first @ dB)
    coords[1:] -= 2.0 * second * (second @ coords[1:])
    return coords[2:]


@functools.lru_cache(maxsize=4)
def _boundary_response(g: float, m: float, dt: float, n: int):
    """The forward filter's end point as a linear map of the back-solve's inputs.

    A back-solve is a forward march from the anchor ``(x'_n, p'_n)`` with
    increments ``dB'`` that writes the record ``z``; the forward filter reads
    ``z`` from ``(x0, p0)`` and ends at ``(x_n, p_n)``.  Returns ``pinned``
    (2, n), whose column ``k`` is the end point's response to a unit
    ``dB'_k`` with zero anchor and zero start; ``anchor`` and ``start``
    (2, 2), the responses to the anchor and to the initial state; and the
    two Householder vectors whose reflections carry the row space of
    ``pinned`` onto the first two axes, so that the remaining ``n - 2``
    coordinates form an orthonormal basis of its complement.

    The responses are accumulated through the transposed recursions, in O(n)
    time and memory.
    """
    sqrt_m = math.sqrt(m)
    g_dt = g * dt
    drift = np.array([[1.0, dt / m], [0.0, 1.0]])  # one step with no increment
    kick = np.array([1.0 / sqrt_m, 0.5 * g])  # one increment's imprint on (x, p)
    # Forward filter: dB_i = g dt (z_i - x_i) closes the loop on the record.
    filt = drift - g_dt * np.outer(kick, [1.0, 0.0])
    gain = g_dt * kick

    # to_centre[i]: end point's response to the centre z_i.
    to_centre = np.empty((n, 2))
    power = np.eye(2)  # filt ** (n - 1 - i)
    for i in range(n - 1, -1, -1):
        to_centre[i] = power @ gain
        power = filt @ power
    start = power

    # z_i = x'_{i+1} + dB'_i / (g dt), and x'_{i+1} carries every increment
    # of higher index through the drift.  through_x accumulates, over the
    # centres already passed, the end point's response to the march state.
    pinned = np.empty((2, n))
    through_x = np.zeros((2, 2))
    for k in range(n):
        pinned[:, k] = to_centre[k] / g_dt + through_x @ kick
        through_x = through_x @ drift + np.outer(to_centre[k], [1.0, 0.0])
    anchor = through_x

    first = _householder(pinned[0])
    second_row = pinned[1] - 2.0 * first * (first @ pinned[1])
    second = _householder(second_row[1:])
    for array in (pinned, anchor, start, first, second):
        array.setflags(write=False)
    return pinned, anchor, start, first, second


def projected_normality_test(
    increments: Sequence[float], x_n: float, p_n: float, config: QmuplConfig
) -> ProjectedNormalityReport:
    """Normality test of back-solved increments, with the two pinned ones checked.

    ``increments`` are the ``dB'`` that ``reverse_trajectory`` back-solved
    from the forward end point ``(x_n, p_n)``.  The two combinations of them
    that the initial state ``(config.x0, config.p0)`` fixes are not free, so
    a KS test of all ``n`` against N(0, dt) reads conservative.  This test
    instead takes the ``n - 2`` coordinates in an orthonormal basis of the
    complement of the pinned plane and KS-tests them at scale ``sqrt(dt)``.
    The plane and the pinned values come from the model's recursions alone;
    nothing is estimated from the increments.
    """
    dB = np.asarray(increments, dtype=float)
    n = config.n
    if dB.shape != (n,):
        raise DimensionError(f"increments must have shape ({n},), got {dB.shape}")
    if n < 3:
        raise DegenerateTestError(f"{n} increments leave no free coordinate")
    pinned, anchor, start, first, second = _boundary_response(
        config.g, config.m, config.dt, n
    )
    expected = (
        np.array([x_n, p_n])
        - anchor @ np.array([x_n, -p_n])
        - start @ np.array([config.x0, config.p0])
    )
    free = ks_test(
        _free_coordinates(dB, first, second) / math.sqrt(config.dt),
        standard_normal_cdf,
    )
    return ProjectedNormalityReport(
        free=free,
        pinned=tuple(float(v) for v in pinned @ dB),
        pinned_expected=tuple(float(v) for v in expected),
    )


@dataclass(frozen=True)
class EnergyCurve:
    """Ensemble mean of p^2 per time, with its standard error."""

    times: np.ndarray
    mean_p_squared: np.ndarray
    standard_error: np.ndarray
    runs: int


def ensemble_energy_curve(config: QmuplConfig, runs: int, rng: PrngStream) -> EnergyCurve:
    """Mean squared momentum across an ensemble of independent forward runs.

    The noise pumps momentum diffusively, so the ensemble mean of p^2 grows
    linearly: (g^2 / 4) t  (plus p0^2).  Each run draws from its own child
    stream ``rng.split(run_index)``.
    """
    if runs < 2:
        raise ConfigError(f"need at least 2 runs for a standard error, got {runs}")
    sum_p2 = np.zeros(config.n + 1)
    sum_p4 = np.zeros(config.n + 1)
    for index in range(runs):
        trajectory = simulate_forward(config, rng.split(index))
        p2 = trajectory.p**2
        sum_p2 += p2
        sum_p4 += p2 * p2
    mean = sum_p2 / runs
    variance = np.maximum(sum_p4 / runs - mean**2, 0.0) * runs / (runs - 1)
    return EnergyCurve(
        times=np.arange(config.n + 1) * config.dt,
        mean_p_squared=mean,
        standard_error=np.sqrt(variance / runs),
        runs=runs,
    )
