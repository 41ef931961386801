"""Discrete-lattice collapse dynamics on a ring of qubit columns.

Geometry
--------
The system is a periodic row of ``n_columns`` qubit columns (``n_columns`` is
even, at most 16).  A basis state assigns each column an occupancy bit; basis
index ``b`` encodes column ``i`` in bit ``i - 1``, so patterns read
left-to-right as columns ``1 .. n_columns``.  The full state is a dense
vector of ``2 ** n_columns`` complex amplitudes.

One time step interleaves two kinds of events, swept left to right:

* **vertex unitaries** on adjacent column pairs.  The pairing alternates in a
  brickwork pattern: on even steps (0-based) vertex ``k`` couples columns
  ``(2k - 1, 2k)``; on odd steps it couples ``(2k, 2k + 1)`` with the last
  pair wrapping around the ring.  The two-qubit matrix, in occupancy basis
  order ``(00, 01, 10, 11)``, fixes 00 and 11 and mixes the single-particle
  block with ``[[i sin(theta), cos(theta)], [cos(theta), i sin(theta)]]``.
  At ``theta = 0`` an excitation hops one column per vertex (light-speed
  motion); at ``theta = pi/2`` it stands still.

* **collapse jumps** on the two outgoing links of each vertex (its two
  columns, left link first).  A link carries a binary field value ``alpha``
  drawn with the Born weight of the jump pair

      J(0) = (|0><0| + X |1><1|) / sqrt(1 + X^2)
      J(1) = (X |0><0| + |1><1|) / sqrt(1 + X^2)

  whose squares sum to the identity.  ``X = 1`` makes both jumps trivial and
  ``X = 0`` makes them projective.  The state is renormalized after every
  jump; sampling uses only norm ratios, so this is purely a numerical-
  hygiene choice.  Renormalizing multiplies by the reciprocal norm: numpy
  divides complex by real as ``a * (1 / r)`` through its complex-division
  loop, which costs about ten times as much for the same values (only the
  sign of an exact zero can differ, and every output is a squared modulus).
  After a projective jump a lone complex amplitude can renormalize to a
  squared modulus one rounding above 1, so an occupancy is clamped to at
  most 1; no value at or below 1 changes.

Forward and reverse-time runs are one pass over the same list of events.
A reverse-time run walks the forward event order reversed, with the field
fixed: it replays the recorded field on the complex-conjugated final state,
reusing the same vertex and jump matrices (the jumps are real; conjugation
is absorbed once at the hand-off), and records the link probabilities
conditioned on everything later in coordinate time.

The vertex fixes ``00`` and ``11`` and the jumps are diagonal, so particle
number is conserved and every popcount sector of the basis is invariant.  A
pass from a vacuum or one-particle state, the starts of the command line or
a superposition of them, runs on the ``n_columns + 1`` amplitudes of those
two sectors: a vertex mixes two of them and an occupancy reads one, so at
width 16 a one-particle run's vertices and occupancies touch one or two
amplitudes, not 65,536.  The renormalizing norms stay BLAS sums over the
dense vectors, into which the compact amplitudes are scattered first: the
sum over the support alone adds in another order and moves the last bit of
about three norms in ten.  States with two or more
particles, like a Gaussian-random vector, run on the dense vector: a vertex
mixes two reshaped block views, and a jump is one multiply of the vector's
float view by a factor pattern built once per pass for each column, whose
bit picks each amplitude's factor.  The occupancy still sums its column's
reshaped half view with ``einsum``, and the norm is still the BLAS sum, in
the order that fixes the artifacts' bytes.

Runs differ only in their draws, so :func:`run_forward` also takes a
sequence of R streams, and :func:`run_backward` the R conjugated final
states of such a batch; the records then carry a leading runs axis.  A lone
stream or state is a batch of one, and a batch of more than one run starts
in the vacuum and one-particle sectors.  Such a batch is one pass over an
``(n + 1, R)`` compact array with numpy over runs, each run drawing from its
own stream.  One ``np.vecdot`` over the ``(R, 2**n)`` dense rows gives every
run's norm: it conjugates its first argument and makes per row the BLAS
``zdotc`` call that ``np.vdot`` makes, so every run's bytes are those of its
one-run call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, InvalidStateError
from .stats import PrngStream

MAX_COLUMNS = 16

# ======================================================================
# Types
# ======================================================================


@dataclass(frozen=True)
class LatticeConfig:
    """Model parameters for one lattice realization.

    ``n_columns`` is the ring width (even, 2..16), ``collapse_x`` the jump
    parameter X in [0, 1], ``theta`` the vertex mixing angle, and ``steps``
    the number of time steps.
    """

    n_columns: int
    collapse_x: float
    theta: float
    steps: int

    def __post_init__(self):
        if self.n_columns < 2 or self.n_columns > MAX_COLUMNS or self.n_columns % 2:
            raise ConfigError(
                f"n_columns must be even and within 2..{MAX_COLUMNS}, got {self.n_columns}"
            )
        if not 0.0 <= self.collapse_x <= 1.0:
            raise ConfigError(f"collapse_x must lie in [0, 1], got {self.collapse_x}")
        if not math.isfinite(self.theta):
            raise ConfigError(f"theta must be finite, got {self.theta}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")

    @property
    def n_vertices(self) -> int:
        return self.n_columns // 2


@dataclass(frozen=True)
class QuantumState:
    """Dense state vector over column-occupancy basis states.

    ``norm_squared`` is recomputed on construction, so it always equals the
    sum of squared amplitude moduli.
    """

    amplitudes: np.ndarray
    norm_squared: float = dataclass_field(init=False)

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        dim = amps.shape[0] if amps.ndim == 1 else 0
        n_columns = dim.bit_length() - 1
        if dim < 4 or dim != 1 << n_columns or n_columns % 2 or n_columns > MAX_COLUMNS:
            raise DimensionError(
                f"amplitude vector must have length 2**n for even n in 2..{MAX_COLUMNS}, got shape {self.amplitudes.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm_squared", float(np.vdot(amps, amps).real))

    @property
    def n_columns(self) -> int:
        return self.amplitudes.shape[0].bit_length() - 1


@dataclass(frozen=True)
class StochasticField:
    """Realized binary field: one value per (time step, column) link crossing.

    A batch of runs carries its fields on a leading runs axis.
    """

    alpha: np.ndarray  # shape ([runs,] steps, n_columns), entries 0 or 1

    def __post_init__(self):
        arr = np.asarray(self.alpha)
        if arr.ndim not in (2, 3) or arr.shape[-2] < 1 or arr.shape[-1] < 2 or arr.shape[-1] % 2:
            raise DimensionError(
                f"field must have shape (steps, n_columns) or (runs, steps, n_columns), got {arr.shape}"
            )
        if not ((arr == 0) | (arr == 1)).all():
            raise DimensionError("field values must be 0 or 1")
        object.__setattr__(self, "alpha", np.ascontiguousarray(arr, dtype=np.uint8))


@dataclass(frozen=True)
class LatticeRunRecord:
    """Per-link diagnostics of one run.

    ``probabilities[t, i-1]`` is the Born weight of ``alpha = 1`` on column
    ``i``'s link at step ``t``, evaluated on the state current when that link
    was crossed (for reverse runs this conditions on everything later in
    coordinate time).  ``occupancy`` holds the column occupancy expectation
    sampled immediately after the jump at that link.  A batch of runs carries
    its field, probabilities and occupancies on a leading runs axis.
    """

    field: StochasticField
    probabilities: np.ndarray
    occupancy: np.ndarray


# ======================================================================
# Basis helpers
# ======================================================================


def pattern_to_index(pattern: Sequence[int]) -> int:
    """Map an occupancy pattern (column 1 first) to its basis index."""
    index = 0
    for position, bit in enumerate(pattern):
        if bit not in (0, 1):
            raise DimensionError(f"occupancy bits must be 0 or 1, got {bit!r}")
        index |= int(bit) << position
    return index


def build_basis_state(pattern: Sequence[int]) -> QuantumState:
    """Normalized basis state for the given occupancy pattern."""
    n_columns = len(pattern)
    amps = np.zeros(1 << n_columns, dtype=np.complex128)
    amps[pattern_to_index(pattern)] = 1.0
    return QuantumState(amps)


def single_particle_state(n_columns: int, column: int) -> QuantumState:
    """Basis state with exactly one occupied column."""
    if not 1 <= column <= n_columns:
        raise DimensionError(f"column must lie in 1..{n_columns}, got {column}")
    pattern = [0] * n_columns
    pattern[column - 1] = 1
    return build_basis_state(pattern)


def conjugate(state: QuantumState) -> QuantumState:
    """Complex-conjugate a state (the reverse-run hand-off operation)."""
    return QuantumState(np.conj(state.amplitudes))


# ======================================================================
# In-place kernels (shared by the public operations and the run loops)
# ======================================================================


def _occupied_half(amps: np.ndarray, n_columns: int, column: int) -> np.ndarray:
    """View of the amplitudes whose ``column`` bit is 1."""
    p = column - 1
    return amps.reshape(1 << (n_columns - 1 - p), 2, 1 << p)[:, 1, :]

def _vertex_blocks(amps: np.ndarray, n_columns: int, left_column: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(01, 10)`` block views of the vertex on ``left_column`` and its right neighbour.

    Where the pair wraps the ring they come swapped; the vertex mixes the two
    blocks symmetrically, so their order changes no bit of the result.
    """
    pa, pb = left_column - 1, left_column % n_columns
    hi, lo = max(pa, pb), min(pa, pb)
    view = amps.reshape(1 << (n_columns - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    return view[:, 1, :, 0, :], view[:, 0, :, 1, :]

def _vertex_constants(theta: float) -> tuple[complex, float]:
    return 1j * math.sin(theta), math.cos(theta)

def _jump_constants(x: float) -> tuple[float, float]:
    """Factors of the favoured and the suppressed branch: ``1/sqrt(1+X^2)`` and ``X`` times it."""
    scale = 1.0 / math.sqrt(1.0 + x * x)
    return scale, x * scale

def _vertex_inplace(s01: np.ndarray, s10: np.ndarray, diag: complex, off: float) -> None:
    kept = s01.copy()
    s01[...] = diag * kept + off * s10
    s10[...] = off * kept + diag * s10

def _jump_operands(amps: np.ndarray, n_columns: int, column: int, x: float) -> tuple[np.ndarray, tuple]:
    """A float view of ``amps`` and the factor patterns of ``J(0)`` and ``J(1)`` on ``column``.

    ``view *= factors[alpha]`` applies ``J(alpha)`` in one multiply.  Bit
    ``column - 1`` of an amplitude's index picks its factor, so on the float
    view the pattern repeats every ``2**(column + 1)`` values.  A period
    shorter than the tile (2048 values, or the whole vector if shorter)
    repeats along one row that multiplies every ``(-1, tile)`` row of the
    view; a longer one is a ``(2, 1)`` column against the two halves of each
    period.  Each part is the one rounded product that ``complex *= float``
    computes as ``re * f - im * 0`` and ``re * 0 + im * f``.  Only the sign
    of an exact zero can differ, and the renormalization and the next
    link's complex multiply give it back.
    """
    scale, x_scale = _jump_constants(x)
    parts = amps.view(np.float64)
    period, tile = 2 << column, min(2048, 2 << n_columns)
    if period < tile:
        view, bits = parts.reshape(-1, tile), np.arange(tile) >> column & 1
    else:
        view, bits = parts.reshape(-1, 2, period // 2), np.arange(2)[:, None]
    return view, tuple(np.where(bits == alpha, scale, x_scale) for alpha in (0, 1))

def _occupancy(occupied: np.ndarray, norm_squared: float) -> float:
    """Weight of the ``occupied`` half over ``norm_squared``, clamped to at most 1."""
    re, im = occupied.real, occupied.imag
    weight = float(np.einsum("ij,ij->", re, re) + np.einsum("ij,ij->", im, im)) / norm_squared
    return weight if weight <= 1.0 else 1.0

def _reciprocal_norms(rows: np.ndarray) -> np.ndarray:
    """Factors that rescale each dense row of ``(R, 2**n)`` to unit norm; a zero or NaN norm raises."""
    norms_squared = np.vecdot(rows, rows).real
    if not norms_squared.min() > 0.0:
        raise InvalidStateError("state collapsed to zero norm")
    return 1.0 / np.sqrt(norms_squared)


def _link_probability(occ: float, x: float) -> float:
    # Born weight of alpha = 1 given the column occupancy expectation:
    # <J(1)^2> = (X^2 (1 - occ) + occ) / (1 + X^2).
    x2 = x * x
    return (x2 + (1.0 - x2) * occ) / (1.0 + x2)


# ======================================================================
# Public operations
# ======================================================================


def apply_vertex(state: QuantumState, i: int, theta: float) -> QuantumState:
    """Apply the two-column vertex unitary to columns ``(i, i + 1)`` (cyclic)."""
    n = state.n_columns
    if not 1 <= i <= n:
        raise DimensionError(f"vertex column must lie in 1..{n}, got {i}")
    if not math.isfinite(theta):
        raise ConfigError(f"theta must be finite, got {theta}")
    amps = state.amplitudes.copy()
    _vertex_inplace(*_vertex_blocks(amps, n, i), *_vertex_constants(theta))
    return QuantumState(amps)


def apply_jump(state: QuantumState, i: int, alpha: int, x: float) -> QuantumState:
    """Apply jump ``J(alpha)`` on column ``i``; the result is NOT renormalized."""
    n = state.n_columns
    if not 1 <= i <= n:
        raise DimensionError(f"jump column must lie in 1..{n}, got {i}")
    if alpha not in (0, 1):
        raise DimensionError(f"field value must be 0 or 1, got {alpha!r}")
    if not 0.0 <= x <= 1.0:
        raise ConfigError(f"collapse_x must lie in [0, 1], got {x}")
    amps = state.amplitudes.copy()
    view, factors = _jump_operands(amps, n, i, x)
    view *= factors[int(alpha)]
    return QuantumState(amps)


def normalize(state: QuantumState) -> QuantumState:
    """Rescale a state to unit norm."""
    if not state.norm_squared > 0.0:
        raise InvalidStateError("cannot normalize a zero state")
    return QuantumState(state.amplitudes * (1.0 / math.sqrt(state.norm_squared)))


def occupancy_expectation(state: QuantumState, i: int) -> float:
    """Expected occupancy of column ``i`` in [0, 1]."""
    n = state.n_columns
    if not 1 <= i <= n:
        raise DimensionError(f"column must lie in 1..{n}, got {i}")
    if not state.norm_squared > 0.0:
        raise InvalidStateError("occupancy undefined for a zero state")
    return _occupancy(_occupied_half(state.amplitudes, n, i), state.norm_squared)


def link_collapse_probability(state: QuantumState, i: int, x: float) -> float:
    """Born weight of ``alpha = 1`` on column ``i``'s outgoing link."""
    if not 0.0 <= x <= 1.0:
        raise ConfigError(f"collapse_x must lie in [0, 1], got {x}")
    return _link_probability(occupancy_expectation(state, i), x)


def vertex_columns(t: int, k: int, n_vertices: int) -> tuple[int, int]:
    """Columns (left, right) coupled by vertex ``k`` at 0-based step ``t``.

    Even steps pair ``(2k - 1, 2k)``; odd steps shift by one so vertex
    ``n_vertices`` wraps around the ring to ``(2 n_vertices, 1)``.
    """
    if t < 0:
        raise DimensionError(f"time step must be >= 0, got {t}")
    if not 1 <= k <= n_vertices:
        raise DimensionError(f"vertex index must lie in 1..{n_vertices}, got {k}")
    if t % 2 == 0:
        return 2 * k - 1, 2 * k
    return 2 * k, 2 * k + 1 if k < n_vertices else 1


def _check_run_inputs(config: LatticeConfig, state: QuantumState, role: str) -> None:
    if state.n_columns != config.n_columns:
        raise DimensionError(
            f"{role} state has {state.n_columns} columns, config expects {config.n_columns}"
        )
    if not abs(state.norm_squared - 1.0) <= 1e-8:
        raise InvalidStateError(f"{role} state must be normalized, |psi|^2 = {state.norm_squared}")


class _ViewKernels:
    """The pass's kernels on views of the dense vector of a batch of one run.

    They serve a state with weight outside the vacuum and one-particle
    sectors; each kernel's views, factor patterns and constants are built
    once per pass.  A vertex mixes the two block views of its columns.  A
    jump is one multiply of a float view by its column's factor pattern
    (:func:`_jump_operands`); the occupancy sums the column's occupied half
    view with ``einsum`` and the norm is :func:`_reciprocal_norms`' BLAS sum
    over the one dense row, so both add in the order the artifacts' bytes
    follow.
    """

    def __init__(self, config: LatticeConfig, amps: np.ndarray):
        n = config.n_columns
        self.amps = amps
        self.dense_rows = amps[np.newaxis]
        self.vertex = _vertex_constants(config.theta)
        self.blocks = [_vertex_blocks(amps, n, column) for column in range(1, n + 1)]
        self.jumps = [_jump_operands(amps, n, column, config.collapse_x) for column in range(1, n + 1)]
        self.occupied = [_occupied_half(amps, n, column) for column in range(1, n + 1)]

    def apply_vertex(self, slot: int) -> None:
        _vertex_inplace(*self.blocks[slot], *self.vertex)

    def collapse(self, slot: int, alpha: np.ndarray) -> None:
        """Apply the run's jump ``J(alpha)`` on the column at ``slot`` and renormalize."""
        view, factors = self.jumps[slot]
        view *= factors[alpha.item()]
        self.amps *= _reciprocal_norms(self.dense_rows)[0]

    def occupancy(self, slot: int) -> float:
        return _occupancy(self.occupied[slot], 1.0)

    def finish(self) -> None:
        pass


class _ParticleKernels:
    """The pass's kernels on the ``n + 1`` amplitudes of R vacuum or one-particle runs.

    Row ``k`` of the compact ``(n + 1, R)`` array holds, for every run, the
    amplitude of basis state ``1 << k``, the particle on column ``k + 1``;
    the last row is the vacuum.  A vertex mixes the two rows of its columns
    with :func:`_vertex_inplace`, and an occupancy is the squared modulus of
    the column's row, the only nonzero term of the view kernels' sums,
    clamped to 1 as theirs is.  A jump scales each run's amplitudes by the
    factors of its own ``alpha``, as the view kernels scale the dense vector;
    the norms are their dense BLAS sum, one ``np.vecdot`` over the rows of a
    ``(R, 2**n)`` array into which the compact amplitudes are scattered.
    Each run agrees bit for bit with the view kernels.
    """

    def __init__(self, config: LatticeConfig, starts: Sequence[np.ndarray]):
        n = config.n_columns
        support = np.append(1 << np.arange(n), 0)
        self.compact = np.stack([amps[support] for amps in starts], axis=1)
        self.rows = list(self.compact)
        self.parts = list(self.compact.view(np.float64))  # each row's (re, im) pairs
        self.squares = np.empty(2 * len(starts))
        # Off the support every state is zero.  A fresh +0 there drops the
        # sign a conjugated start gives those zeros, as the first jump of
        # the view kernels does.
        self.dense_rows = np.zeros((len(starts), 1 << n), dtype=np.complex128)
        # Where each compact amplitude goes in the flattened dense array.
        self.scatter = support[:, None] + np.arange(len(starts)) * (1 << n)
        self.diag, self.off = _vertex_constants(config.theta)
        scale, x_scale = _jump_constants(config.collapse_x)
        # Complex factor columns, so the multiply needs no cast: (alpha = 0,
        # alpha = 1).
        self.factors = [
            (np.where(mask, x_scale, scale)[:, None] + 0j, np.where(mask, scale, x_scale)[:, None] + 0j)
            for mask in np.eye(n + 1, dtype=bool)[:n]
        ]
        # The rows a vertex mixes: its columns' bits, higher first, as in
        # _vertex_blocks.
        self.pairs = [(max(p, (p + 1) % n), min(p, (p + 1) % n)) for p in range(n)]

    def apply_vertex(self, slot: int) -> None:
        upper, lower = self.pairs[slot]
        _vertex_inplace(self.rows[upper], self.rows[lower], self.diag, self.off)

    def collapse(self, slot: int, alpha: np.ndarray) -> None:
        """Apply each run's jump ``J(alpha)`` on the column at ``slot`` and renormalize."""
        self.compact *= np.where(alpha, self.factors[slot][1], self.factors[slot][0])
        self.finish()
        self.compact *= _reciprocal_norms(self.dense_rows)

    def occupancy(self, slot: int) -> np.ndarray:
        squares = np.square(self.parts[slot], out=self.squares)
        weight = squares[0::2] + squares[1::2]
        return np.minimum(weight, 1.0, out=weight)

    def finish(self) -> None:
        self.dense_rows.ravel()[self.scatter] = self.compact


def _in_particle_sectors(amps: np.ndarray) -> bool:
    """Whether every nonzero amplitude sits at index 0 or at a power of two.

    The count comes first and needs no index arrays, so a state with weight
    everywhere is turned away at its cost.
    """
    if np.count_nonzero(amps) > amps.size.bit_length():  # n + 1 of 2**n
        return False
    nonzero = np.flatnonzero(amps)
    return not (nonzero & (nonzero - 1)).any()


def _pass(config: LatticeConfig, kernels, alpha_at, backward: bool, runs: int):
    """Walk the runs' events with ``kernels``, in forward or reversed order.

    Forward, each step sweeps its vertices left to right: the vertex, then
    its left link, then its right link.  At a link the Born weight of
    ``alpha = 1`` is evaluated for every run, ``alpha_at(t, slot, p_one)``
    gives the runs' field values, the jumps are applied and the states
    renormalized.  Returns the field, the per-link probabilities and the
    occupancies sampled after each jump, of shape ``(runs, steps, n)``: a
    lone run is a batch of one, and a batch of more than one run is on the
    particle kernels.  The kernels' dense rows hold the final states.
    """
    x = config.collapse_x
    events = []
    for t in range(config.steps):
        for k in range(1, config.n_vertices + 1):
            left, right = vertex_columns(t, k, config.n_vertices)
            events += ((t, left - 1, False), (t, left - 1, True), (t, right - 1, True))
    shape = (runs, config.steps, config.n_columns)
    field = np.empty(shape, dtype=np.uint8)
    probabilities = np.empty(shape)
    occupancy = np.empty(shape)
    for t, slot, is_link in reversed(events) if backward else events:
        if not is_link:
            kernels.apply_vertex(slot)
            continue
        p_one = _link_probability(kernels.occupancy(slot), x)
        field[:, t, slot] = alpha = alpha_at(t, slot, p_one)
        kernels.collapse(slot, alpha)
        probabilities[:, t, slot] = p_one
        occupancy[:, t, slot] = kernels.occupancy(slot)
    kernels.finish()
    return field, probabilities, occupancy


def _as_batch(runs, lone_type: type) -> tuple[list, bool]:
    """``runs`` as a list of runs, and whether it was one lone ``lone_type`` run."""
    lone = isinstance(runs, lone_type)
    runs = [runs] if lone else list(runs)
    if not runs:
        raise DimensionError("a batch of runs needs at least one run")
    return runs, lone


def _batch(config: LatticeConfig, starts: list, alpha_at, backward: bool = False):
    """One pass of ``starts`` together: :func:`_pass`'s arrays and the list of final states.

    Vacuum and one-particle starts pass on the particle kernels and a lone
    other start on the view kernels, over a copy of it; anything else
    raises.  The starts of a forward batch are one shared state, checked once.
    """
    if all(map(_in_particle_sectors, starts if backward else starts[:1])):
        kernels = _ParticleKernels(config, starts)
    elif len(starts) == 1:
        kernels = _ViewKernels(config, starts[0].copy())
    else:
        raise InvalidStateError(
            "a batch of runs starts in the vacuum and one-particle sectors; "
            "pass other states one run at a time"
        )
    arrays = _pass(config, kernels, alpha_at, backward, len(starts))
    return arrays, [QuantumState(amps) for amps in kernels.dense_rows]


def _result(field: StochasticField, probabilities, occupancy, finals: list, lone: bool):
    """The record and final states of a batch, or of its one run without the runs axis."""
    if lone:
        return LatticeRunRecord(field, probabilities[0], occupancy[0]), finals[0]
    return LatticeRunRecord(field, probabilities, occupancy), finals


def run_forward(
    config: LatticeConfig, initial: QuantumState, rng: PrngStream | Sequence[PrngStream]
) -> tuple[LatticeRunRecord, QuantumState | list[QuantumState]]:
    """Evolve ``initial`` forward, sampling the field link by link.

    One uniform draw per link decides ``alpha`` with the Born weight of
    ``alpha = 1``.  Returns the per-link record and the final state.

    A sequence of R streams runs R independent runs from ``initial``, run
    ``r`` drawing from stream ``r``, one uniform per link in event order.
    The record's arrays then have shape ``(R, steps, n_columns)`` and the
    final states come as a list; row ``r`` is bit for bit what stream ``r``
    alone gives.  A lone stream is a batch of one, and a batch of more than
    one run starts in the vacuum and one-particle sectors.
    """
    _check_run_inputs(config, initial, "initial")
    streams, lone = _as_batch(rng, PrngStream)
    uniforms = [stream.uniform for stream in streams]
    (alpha, probabilities, occupancy), finals = _batch(
        config,
        [initial.amplitudes] * len(uniforms),
        lambda t, slot, p_one: np.array([uniform() for uniform in uniforms]) < p_one,
    )
    return _result(StochasticField(alpha[0] if lone else alpha), probabilities, occupancy, finals, lone)


def run_backward(
    config: LatticeConfig,
    field: StochasticField,
    final_state: QuantumState | Sequence[QuantumState],
) -> tuple[LatticeRunRecord, QuantumState | list[QuantumState]]:
    """Replay a recorded field anti-chronologically from the conjugated end state.

    ``final_state`` must be the complex conjugate of the forward run's final
    state (see :func:`conjugate`); with that hand-off the forward vertex and
    jump matrices are reused verbatim.  The pass walks the forward events in
    reversed order.  The recorded probability at each link is the Born
    weight of ``alpha = 1`` conditioned on all field values later in
    coordinate time; the jump then consumes the FIXED recorded ``alpha``,
    never a fresh draw.

    A batch replays a ``(R, steps, n_columns)`` field, such as a batched
    :func:`run_forward` records, from a sequence of R conjugated final
    states, and returns a record by run and a list of states; row ``r`` is
    bit for bit what run ``r`` alone gives.  A lone state is a batch of
    one, and a batch of more than one run starts in the vacuum and
    one-particle sectors.
    """
    states, lone = _as_batch(final_state, QuantumState)
    for state in states:
        _check_run_inputs(config, state, "final")
    # A lone state's field has no runs axis.
    expected = (len(states), config.steps, config.n_columns)[lone:]
    if field.alpha.shape != expected:
        raise DimensionError(f"field shape {field.alpha.shape} does not match config {expected}")
    alpha = field.alpha.reshape(len(states), config.steps, config.n_columns)
    starts = [state.amplitudes for state in states]
    (_, probabilities, occupancy), finals = _batch(
        config, starts, lambda t, slot, p_one: alpha[:, t, slot], backward=True
    )
    return _result(field, probabilities, occupancy, finals, lone)
