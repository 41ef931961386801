import itertools
import math

import numpy as np
import pytest

from collapsim.errors import ConfigError, DegenerateTestError, DimensionError, InvalidStateError
from collapsim.lattice import (
    MAX_COLUMNS,
    _in_particle_sectors,
    _jump_operands,
    _pass,
    _ParticleKernels,
    _reciprocal_norms,
    _ViewKernels,
    LatticeConfig,
    QuantumState,
    StochasticField,
    apply_jump,
    apply_vertex,
    build_basis_state,
    conjugate,
    link_collapse_probability,
    normalize,
    occupancy_expectation,
    pattern_to_index,
    run_backward,
    run_forward,
    single_particle_state,
    vertex_columns,
)
from collapsim.lattice_analysis import reversal_chi_squared
from collapsim.stats import PrngStream


def random_state(n_columns: int, np_rng: np.random.Generator) -> QuantumState:
    """Normalized dense state with Gaussian-random amplitudes."""
    dim = 1 << n_columns
    amps = np_rng.normal(size=dim) + 1j * np_rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    return QuantumState(amps)


# ----------------------------------------------------------------------
# Basis bookkeeping
# ----------------------------------------------------------------------


def test_pattern_index_round_trip():
    for pattern in itertools.product((0, 1), repeat=4):
        index = pattern_to_index(pattern)
        assert tuple((index >> p) & 1 for p in range(4)) == pattern


def test_basis_state_occupancies():
    state = build_basis_state((1, 0, 1, 0))
    assert occupancy_expectation(state, 1) == pytest.approx(1.0)
    assert occupancy_expectation(state, 2) == pytest.approx(0.0)
    assert occupancy_expectation(state, 3) == pytest.approx(1.0)
    assert occupancy_expectation(state, 4) == pytest.approx(0.0)


def test_single_particle_state_bounds():
    state = single_particle_state(6, 3)
    assert occupancy_expectation(state, 3) == pytest.approx(1.0)
    with pytest.raises(DimensionError):
        single_particle_state(6, 7)


def test_quantum_state_dimension_range():
    # Widths 2..MAX_COLUMNS are accepted, as LatticeConfig allows them.
    assert QuantumState(np.eye(4)[0]).n_columns == 2
    for dim in (2, 6, 8, 1 << (MAX_COLUMNS + 2)):
        with pytest.raises(DimensionError, match=rf"even n in 2\.\.{MAX_COLUMNS},"):
            QuantumState(np.zeros(dim))


def test_config_validation():
    with pytest.raises(ConfigError):
        LatticeConfig(n_columns=5, collapse_x=0.5, theta=0.3, steps=10)
    with pytest.raises(ConfigError):
        LatticeConfig(n_columns=18, collapse_x=0.5, theta=0.3, steps=10)
    with pytest.raises(ConfigError):
        LatticeConfig(n_columns=4, collapse_x=-0.1, theta=0.3, steps=10)
    with pytest.raises(ConfigError):
        LatticeConfig(n_columns=4, collapse_x=0.5, theta=0.3, steps=0)
    for theta in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="theta must be finite"):
            LatticeConfig(n_columns=4, collapse_x=0.5, theta=theta, steps=10)


@pytest.mark.parametrize(
    "alpha, message",
    [
        (np.zeros(4), "shape"),
        (np.zeros((0, 4)), "shape"),
        (np.zeros((3, 5)), "shape"),
        (np.full((3, 4), 2), "0 or 1"),
        (np.zeros((2, 3, 4, 2)), "shape"),
        (np.zeros((2, 3, 5)), "shape"),
        (np.array([["0", "1"], ["1", "0"]]), "0 or 1"),
        (np.array([[0, 1], [1, "1"]], dtype=object), "0 or 1"),
        (np.full((3, 4), 0.5), "0 or 1"),
        (np.full((3, 4), math.nan), "0 or 1"),
        (np.full((3, 4), 1j), "0 or 1"),
    ],
    ids=[
        "one-axis", "no-steps", "odd-width", "non-binary", "four-axes", "batch-odd-width",
        "str", "object", "float-half", "float-nan", "complex-imaginary",
    ],
)
def test_field_validation(alpha, message):
    with pytest.raises(DimensionError, match=message):
        StochasticField(alpha)


_PAIR = build_basis_state((1, 0))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: pattern_to_index((0, 2)), DimensionError),
        (lambda: apply_vertex(_PAIR, 3, 0.3), DimensionError),
        (lambda: apply_vertex(_PAIR, 1, math.nan), ConfigError),
        (lambda: apply_vertex(_PAIR, 1, math.inf), ConfigError),
        (lambda: apply_jump(_PAIR, 0, 1, 0.5), DimensionError),
        (lambda: apply_jump(_PAIR, 1, 2, 0.5), DimensionError),
        (lambda: apply_jump(_PAIR, 1, 1, 1.5), ConfigError),
        (lambda: link_collapse_probability(_PAIR, 1, 1.5), ConfigError),
        (lambda: link_collapse_probability(_PAIR, 1, math.nan), ConfigError),
        (lambda: occupancy_expectation(_PAIR, 3), DimensionError),
        (lambda: occupancy_expectation(QuantumState(np.zeros(4)), 1), InvalidStateError),
        (lambda: vertex_columns(-1, 1, 3), DimensionError),
        (lambda: vertex_columns(0, 0, 3), DimensionError),
        (lambda: vertex_columns(0, 4, 3), DimensionError),
    ],
    ids=[
        "bad-bit", "vertex-column", "vertex-theta-nan", "vertex-theta-inf", "jump-column", "jump-alpha", "jump-x",
        "probability-x", "probability-x-nan",
        "occupancy-column", "occupancy-zero-state", "negative-step",
        "vertex-zero", "vertex-past-ring",
    ],
)
def test_public_operations_reject_bad_arguments(call, error):
    with pytest.raises(error):
        call()


def test_runs_check_the_state_they_start_from():
    config = LatticeConfig(n_columns=4, collapse_x=0.5, theta=0.3, steps=2)
    with pytest.raises(DimensionError, match="initial state has 6 columns"):
        run_forward(config, single_particle_state(6, 2), PrngStream(1))
    unnormalized = QuantumState(2.0 * single_particle_state(4, 2).amplitudes)
    with pytest.raises(InvalidStateError, match="final state must be normalized"):
        run_backward(config, StochasticField(np.zeros((2, 4))), unnormalized)


def test_runs_reject_a_nan_state_as_unnormalized():
    config = LatticeConfig(n_columns=4, collapse_x=0.5, theta=0.3, steps=2)
    amps = single_particle_state(4, 2).amplitudes.copy()
    amps[0] = math.nan
    with pytest.raises(InvalidStateError, match="initial state must be normalized"):
        run_forward(config, QuantumState(amps), PrngStream(1))
    with pytest.raises(InvalidStateError, match="final state must be normalized"):
        run_backward(config, StochasticField(np.zeros((2, 4))), QuantumState(amps))


def _two_pair_state() -> QuantumState:
    amps = np.zeros(16, dtype=np.complex128)
    amps[[pattern_to_index((1, 1, 0, 0)), pattern_to_index((0, 0, 1, 1))]] = 1.0
    return normalize(QuantumState(amps))


@pytest.mark.parametrize(
    "start, particle_kernels",
    [(lambda: single_particle_state(4, 1), True), (_two_pair_state, False)],
    ids=["particle-kernels", "view-kernels"],
)
def test_backward_pass_raises_when_the_state_collapses_to_zero(start, particle_kernels):
    # At X = 0 the jump J(1) keeps only the amplitudes whose column is
    # occupied.  Neither start holds four particles, and the pass conserves
    # particle number, so an all-ones field leaves nothing to renormalize.
    config = LatticeConfig(n_columns=4, collapse_x=0.0, theta=math.pi / 2, steps=1)
    state = start()
    assert _in_particle_sectors(state.amplitudes) == particle_kernels
    with pytest.raises(InvalidStateError, match="state collapsed to zero norm"):
        run_backward(config, StochasticField(np.ones((1, 4))), state)


def test_batched_backward_pass_raises_when_one_run_collapses_to_zero():
    # The check over a batch's norms must fail when any one run collapses.
    # At theta = pi/2 the particle stays on column 1, so the first field is
    # lawful and the second, all ones on top of it, leaves nothing.
    config = LatticeConfig(n_columns=4, collapse_x=0.0, theta=math.pi / 2, steps=1)
    lawful = np.array([[1, 0, 0, 0]])
    state = single_particle_state(4, 1)
    run_backward(config, StochasticField(lawful), state)
    fields = StochasticField(np.stack([lawful, np.ones((1, 4))]))
    with pytest.raises(InvalidStateError, match="state collapsed to zero norm"):
        run_backward(config, fields, [state, state])
    with pytest.raises(InvalidStateError, match="state collapsed to zero norm"):
        _reciprocal_norms(np.array([[1.0, 0.0], [math.nan, 0.0]], dtype=np.complex128))


def test_brickwork_pairing():
    # Even steps pair (1,2)(3,4)...; odd steps shift by one and wrap.
    assert vertex_columns(0, 1, 3) == (1, 2)
    assert vertex_columns(0, 3, 3) == (5, 6)
    assert vertex_columns(1, 1, 3) == (2, 3)
    assert vertex_columns(1, 3, 3) == (6, 1)
    assert vertex_columns(2, 2, 3) == (3, 4)


# ----------------------------------------------------------------------
# Vertex
# ----------------------------------------------------------------------


def test_vertex_action_on_two_columns():
    theta = 0.37
    # Empty and doubly-occupied pair states pass through unchanged.
    for pattern in ((0, 0), (1, 1)):
        state = build_basis_state(pattern)
        out = apply_vertex(state, 1, theta)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)
    # A single excitation mixes with its neighbour.
    out = apply_vertex(build_basis_state((1, 0)), 1, theta)
    expected = np.zeros(4, dtype=complex)
    expected[pattern_to_index((1, 0))] = 1j * math.sin(theta)
    expected[pattern_to_index((0, 1))] = math.cos(theta)
    assert np.allclose(out.amplitudes, expected, atol=1e-15)
    out = apply_vertex(build_basis_state((0, 1)), 1, theta)
    expected = np.zeros(4, dtype=complex)
    expected[pattern_to_index((0, 1))] = 1j * math.sin(theta)
    expected[pattern_to_index((1, 0))] = math.cos(theta)
    assert np.allclose(out.amplitudes, expected, atol=1e-15)


def test_vertex_is_unitary_on_random_states():
    np_rng = np.random.default_rng(10)
    for _ in range(50):
        theta = np_rng.uniform(0, 2 * math.pi)
        state = random_state(6, np_rng)
        out = apply_vertex(state, int(np_rng.integers(1, 6)), theta)
        assert out.norm_squared == pytest.approx(1.0, abs=1e-12)


def test_vertex_matrix_is_symmetric():
    # Needed for the backward pass to reuse the forward matrices verbatim.
    theta = 1.1
    matrix = np.zeros((4, 4), dtype=complex)
    for col, pattern in enumerate(itertools.product((0, 1), repeat=2)):
        out = apply_vertex(build_basis_state(pattern), 1, theta)
        matrix[:, col] = out.amplitudes
    assert np.allclose(matrix, matrix.T, atol=1e-15)


def test_theta_zero_vertex_swaps_neighbours():
    out = apply_vertex(build_basis_state((1, 0)), 1, 0.0)
    expected = build_basis_state((0, 1))
    assert np.allclose(out.amplitudes, expected.amplitudes, atol=1e-15)


# ----------------------------------------------------------------------
# Jumps
# ----------------------------------------------------------------------


def test_jump_completeness_povm():
    # |J0 psi|^2 + |J1 psi|^2 = |psi|^2 for any state and strength.
    np_rng = np.random.default_rng(11)
    for _ in range(50):
        x = np_rng.uniform(0, 1)
        state = random_state(4, np_rng)
        column = int(np_rng.integers(1, 5))
        n0 = apply_jump(state, column, 0, x).norm_squared
        n1 = apply_jump(state, column, 1, x).norm_squared
        assert n0 + n1 == pytest.approx(1.0, abs=1e-12)


def test_link_probability_values():
    vacuum = build_basis_state((0, 0))
    occupied = build_basis_state((1, 1))
    assert link_collapse_probability(vacuum, 1, 0.5) == pytest.approx(0.2)
    assert link_collapse_probability(occupied, 1, 0.5) == pytest.approx(0.8)
    # X = 1 makes both outcomes equally likely regardless of the state.
    assert link_collapse_probability(vacuum, 1, 1.0) == pytest.approx(0.5)
    assert link_collapse_probability(occupied, 1, 1.0) == pytest.approx(0.5)


def test_jump_probability_matches_born_rule():
    np_rng = np.random.default_rng(12)
    for _ in range(30):
        x = np_rng.uniform(0.1, 1.0)
        state = random_state(4, np_rng)
        column = int(np_rng.integers(1, 5))
        p_one = link_collapse_probability(state, column, x)
        assert p_one == pytest.approx(apply_jump(state, column, 1, x).norm_squared, abs=1e-12)


def test_projective_jump_can_annihilate_branch():
    state = build_basis_state((0, 0))
    collapsed = apply_jump(state, 1, 1, 0.0)
    assert collapsed.norm_squared == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(InvalidStateError):
        normalize(collapsed)


def test_particle_number_conserved_exactly():
    config = LatticeConfig(n_columns=6, collapse_x=0.7, theta=0.9, steps=12)
    record, final = run_forward(config, single_particle_state(6, 2), PrngStream(31))
    amps = final.amplitudes
    outside = [abs(amps[i]) for i in range(amps.size) if bin(i).count("1") != 1]
    assert max(outside) == 0.0


# ----------------------------------------------------------------------
# Forward run
# ----------------------------------------------------------------------


def test_run_forward_record_shapes_and_ranges():
    config = LatticeConfig(n_columns=6, collapse_x=0.5, theta=math.pi / 4, steps=9)
    record, final = run_forward(config, single_particle_state(6, 3), PrngStream(7))
    assert record.field.alpha.shape == (9, 6)
    assert record.probabilities.shape == (9, 6)
    assert record.occupancy.shape == (9, 6)
    assert set(np.unique(record.field.alpha)) <= {0, 1}
    assert record.probabilities.min() >= 0.0 and record.probabilities.max() <= 1.0
    assert record.occupancy.min() >= -1e-12 and record.occupancy.max() <= 1.0 + 1e-12
    assert final.norm_squared == pytest.approx(1.0, abs=1e-10)


def test_run_forward_deterministic_in_seed():
    config = LatticeConfig(n_columns=6, collapse_x=0.5, theta=0.8, steps=10)
    initial = single_particle_state(6, 3)
    rec_a, fin_a = run_forward(config, initial, PrngStream(55))
    rec_b, fin_b = run_forward(config, initial, PrngStream(55))
    assert np.array_equal(rec_a.field.alpha, rec_b.field.alpha)
    assert np.array_equal(rec_a.probabilities, rec_b.probabilities)
    assert np.array_equal(fin_a.amplitudes, fin_b.amplitudes)
    rec_c, _ = run_forward(config, initial, PrngStream(56))
    assert not np.array_equal(rec_a.field.alpha, rec_c.field.alpha)


def _replay_forward(config, initial, field, backward=False):
    """Re-run the sweep with a fixed field via the public single ops.

    With ``backward`` the steps, the vertices within a step and the two links
    of a vertex are visited in reversed order, each vertex after its links.
    Returns the per-link conditional probabilities of the realized outcomes,
    the occupancies after each jump, the product of those probabilities and
    the final state.
    """
    state = initial
    probabilities = np.empty((config.steps, config.n_columns))
    occupancy = np.empty((config.steps, config.n_columns))
    product = 1.0
    order = reversed if backward else iter
    for t in order(range(config.steps)):
        for k in order(range(1, config.n_vertices + 1)):
            left, right = vertex_columns(t, k, config.n_vertices)
            if not backward:
                state = apply_vertex(state, left, config.theta)
            for column in order((left, right)):
                alpha = int(field.alpha[t, column - 1])
                p_one = link_collapse_probability(state, column, config.collapse_x)
                probabilities[t, column - 1] = p_one
                product *= p_one if alpha == 1 else 1.0 - p_one
                state = normalize(apply_jump(state, column, alpha, config.collapse_x))
                occupancy[t, column - 1] = occupancy_expectation(state, column)
            if backward:
                state = apply_vertex(state, left, config.theta)
    return probabilities, occupancy, product, state


def test_run_forward_probabilities_match_public_op_replay():
    # Both directions against a replay through the public ops: the forward
    # pass from the initial state, the backward pass in reversed order from
    # the conjugated final state, on the same recorded field.
    config = LatticeConfig(n_columns=6, collapse_x=0.5, theta=math.pi / 4, steps=8)
    initial = single_particle_state(6, 3)
    record, final = run_forward(config, initial, PrngStream(21))
    back, recovered = run_backward(config, record.field, conjugate(final))
    for run, start, end, backward in (
        (record, initial, final, False),
        (back, conjugate(final), recovered, True),
    ):
        replay_probs, replay_occ, _, replay_final = _replay_forward(
            config, start, record.field, backward
        )
        assert np.allclose(replay_probs, run.probabilities, atol=1e-12)
        assert np.allclose(replay_occ, run.occupancy, atol=1e-12)
        assert np.allclose(replay_final.amplitudes, end.amplitudes, atol=1e-10)


def test_sampling_probabilities_are_norm_ratios_exhaustively():
    # Oracle on the smallest full lattice: for EVERY complete field history
    # the product of conditional link probabilities must equal the squared
    # norm of the unnormalized evolved state, and the products must sum to 1.
    config = LatticeConfig(n_columns=4, collapse_x=0.6, theta=0.9, steps=2)
    initial = single_particle_state(4, 2)
    n_links = config.steps * config.n_columns
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n_links):
        field = StochasticField(np.array(bits, dtype=np.uint8).reshape(config.steps, 4))
        _, _, product, _ = _replay_forward(config, initial, field)

        state = initial
        for t in range(config.steps):
            for k in range(1, config.n_vertices + 1):
                left, right = vertex_columns(t, k, config.n_vertices)
                state = apply_vertex(state, left, config.theta)
                for column in (left, right):
                    state = apply_jump(
                        state, column, int(field.alpha[t, column - 1]), config.collapse_x
                    )
        assert product == pytest.approx(state.norm_squared, abs=1e-10)
        total += product
    assert total == pytest.approx(1.0, abs=1e-10)


# ----------------------------------------------------------------------
# Backward run
# ----------------------------------------------------------------------


def test_run_backward_shapes_and_fixed_field():
    config = LatticeConfig(n_columns=6, collapse_x=0.5, theta=math.pi / 4, steps=8)
    record, final = run_forward(config, single_particle_state(6, 3), PrngStream(77))
    back, recovered = run_backward(config, record.field, conjugate(final))
    assert back.probabilities.shape == (8, 6)
    assert np.array_equal(back.field.alpha, record.field.alpha)
    assert back.probabilities.min() >= 0.0 and back.probabilities.max() <= 1.0
    assert recovered.norm_squared == pytest.approx(1.0, abs=1e-10)


def test_run_backward_rejects_mismatched_field():
    config = LatticeConfig(n_columns=6, collapse_x=0.5, theta=0.4, steps=8)
    record, final = run_forward(config, single_particle_state(6, 3), PrngStream(2))
    wrong = LatticeConfig(n_columns=6, collapse_x=0.5, theta=0.4, steps=9)
    with pytest.raises(DimensionError):
        run_backward(wrong, record.field, conjugate(final))


def test_equal_strength_jumps_make_reversal_exact():
    # At X = 1 both jump outcomes act as the same scalar rescaling, so the
    # backward pass undoes the forward pass state-by-state.
    config = LatticeConfig(n_columns=6, collapse_x=1.0, theta=0.8, steps=10)
    initial = single_particle_state(6, 3)
    record, final = run_forward(config, initial, PrngStream(13))
    _, recovered = run_backward(config, record.field, conjugate(final))
    for column in range(1, 7):
        assert occupancy_expectation(recovered, column) == pytest.approx(
            occupancy_expectation(initial, column), abs=1e-10
        )


def test_conjugate_is_involution():
    np_rng = np.random.default_rng(9)
    state = random_state(4, np_rng)
    assert np.array_equal(conjugate(conjugate(state)).amplitudes, state.amplitudes)
    assert conjugate(state).norm_squared == pytest.approx(state.norm_squared, abs=1e-14)


# ----------------------------------------------------------------------
# Exact time symmetry of the history measure
# ----------------------------------------------------------------------
# The vertex matrix is symmetric and the jumps are real and diagonal, so the
# reversed event list composes the transpose of the forward product K_alpha.
# With a maximally mixed one-particle sector at the boundary, P(alpha) is the
# sector trace of K_alpha^dagger K_alpha over its dimension either way (the
# trace is cyclic and blind to transposition): forward and backward assign
# every field history the same probability.  Only a pure boundary state can
# tell the two directions apart.


def _events(config):
    """The pass's events in forward order: per step and vertex, the vertex,
    then its left and right links, as (step, column, is_link)."""
    events = []
    for t in range(config.steps):
        for k in range(1, config.n_vertices + 1):
            left, right = vertex_columns(t, k, config.n_vertices)
            events += ((t, left, False), (t, left, True), (t, right, True))
    return events


def _history_probabilities(config, starts, events):
    """P(alpha) for every field history, averaged over the start states.

    Walks ``events`` in the given order through the public ops with
    unnormalized jumps; histories are enumerated in one fixed order of the
    (step, column) field, so both directions index them alike.
    """
    probabilities = []
    for bits in itertools.product((0, 1), repeat=config.steps * config.n_columns):
        alpha = np.array(bits).reshape(config.steps, config.n_columns)
        total = 0.0
        for state in starts:
            for t, column, is_link in events:
                if is_link:
                    state = apply_jump(state, column, int(alpha[t, column - 1]), config.collapse_x)
                else:
                    state = apply_vertex(state, column, config.theta)
            total += state.norm_squared
        probabilities.append(total / len(starts))
    return np.array(probabilities)


@pytest.mark.parametrize("theta, x", [(math.pi / 4, 0.5), (0.3, 0.2)])
@pytest.mark.parametrize("n_columns, steps", [(4, 1), (4, 2), (6, 1)])
def test_sector_mixed_boundaries_make_histories_time_symmetric(n_columns, steps, theta, x):
    config = LatticeConfig(n_columns=n_columns, collapse_x=x, theta=theta, steps=steps)
    sector = [single_particle_state(n_columns, column) for column in range(1, n_columns + 1)]
    events = _events(config)
    forward = _history_probabilities(config, sector, events)
    backward = _history_probabilities(config, sector, events[::-1])
    assert np.abs(forward - backward).max() < 1e-14
    assert abs(forward.sum() - 1.0) < 1e-13
    assert abs(backward.sum() - 1.0) < 1e-13


@pytest.mark.parametrize("theta, x", [(math.pi / 4, 0.5), (0.3, 0.2)])
def test_pure_start_breaks_history_time_symmetry(theta, x):
    # The same histories from the particle at column 2 alone: the directions
    # disagree by 0.086 at (pi/4, 0.5) and 0.67 at (0.3, 0.2).
    config = LatticeConfig(n_columns=4, collapse_x=x, theta=theta, steps=2)
    start = [single_particle_state(4, 2)]
    events = _events(config)
    forward = _history_probabilities(config, start, events)
    backward = _history_probabilities(config, start, events[::-1])
    assert np.abs(forward - backward).max() > 0.05


def _link_bias(config, start):
    """E_fwd[alpha - p_back] at every link, summed exactly over all histories.

    Each history is weighted by its forward probability from ``start``.  Its
    backward probabilities come from the conjugated, normalized final state,
    walked through the reversed events with the history's field fixed, as
    ``run_backward`` does, but through the public ops.
    """
    events = _events(config)
    bias = np.zeros((config.steps, config.n_columns))
    for bits in itertools.product((0, 1), repeat=config.steps * config.n_columns):
        alpha = np.array(bits).reshape(config.steps, config.n_columns)
        state = start
        for t, column, is_link in events:
            if is_link:
                state = apply_jump(state, column, int(alpha[t, column - 1]), config.collapse_x)
            else:
                state = apply_vertex(state, column, config.theta)
        weight = state.norm_squared
        state = conjugate(normalize(state))
        p_back = np.empty_like(bias)
        for t, column, is_link in reversed(events):
            if is_link:
                p_back[t, column - 1] = link_collapse_probability(state, column, config.collapse_x)
                state = normalize(apply_jump(state, column, int(alpha[t, column - 1]), config.collapse_x))
            else:
                state = apply_vertex(state, column, config.theta)
        bias += weight * (alpha - p_back)
    return bias


@pytest.mark.parametrize("theta, x, biased", [(math.pi / 4, 0.5, False), (0.3, 0.2, True)])
def test_pure_start_link_bias_after_one_step(theta, x, biased):
    # From the particle at column 2, one step leaves no link biased at
    # (pi/4, 0.5) (measured 5.2e-17), but column 1's link by 0.019 at
    # (0.3, 0.2).
    config = LatticeConfig(n_columns=4, collapse_x=x, theta=theta, steps=1)
    largest = np.abs(_link_bias(config, single_particle_state(4, 2))).max()
    if biased:
        assert largest > 0.01
    else:
        assert largest < 1e-12


@pytest.mark.parametrize("theta, x", [(math.pi / 4, 0.5), (0.3, 0.2)])
def test_pure_start_link_bias_map_over_three_steps(theta, x):
    # At (pi/4, 0.5) the bias sits at step 0 (0.124); steps 1 and 2 reach
    # 0.0038 and 0.0156.  At (0.3, 0.2) step 1 carries 0.108 as well, so
    # the shape depends on the parameters.
    config = LatticeConfig(n_columns=4, collapse_x=x, theta=theta, steps=3)
    per_step = np.abs(_link_bias(config, single_particle_state(4, 2))).max(axis=1)
    assert per_step.argmax() == 0
    assert per_step[0] > 0.1
    if theta == math.pi / 4:
        assert per_step[1:].max() <= 0.016
    else:
        assert per_step[1] > 0.1


# ----------------------------------------------------------------------
# Fast kernels against the slow path they replaced
# ----------------------------------------------------------------------


def _unnormalized_state(kind: str, n_columns: int, np_rng: np.random.Generator) -> np.ndarray:
    """Amplitudes of one of three kinds, deliberately off unit norm."""
    dim = 1 << n_columns
    amps = np.zeros(dim, dtype=np.complex128)
    if kind == "one-particle":
        index = 1 << np.arange(n_columns)
        amps[index] = np_rng.normal(size=n_columns) + 1j * np_rng.normal(size=n_columns)
        return amps * 0.37
    amps[:] = np_rng.normal(size=dim) + 1j * np_rng.normal(size=dim)
    if kind == "signed-zeros":
        parts = amps.view(np.float64)
        chosen = np_rng.random(parts.size) < 0.3
        parts[chosen] = np.where(np_rng.random(chosen.sum()) < 0.5, 0.0, -0.0)
    return amps


@pytest.mark.parametrize("kind", ["dense", "one-particle", "signed-zeros"])
@pytest.mark.parametrize("n_columns", range(2, MAX_COLUMNS + 1, 2))
def test_renormalize_matches_division(kind, n_columns):
    # Multiplying by the reciprocal norm gives the values that dividing by
    # the norm gave; only the sign of an exact zero may differ, and
    # np.array_equal counts +0.0 and -0.0 as equal.
    amps = _unnormalized_state(kind, n_columns, np.random.default_rng([13, n_columns]))
    norm_squared = float(np.vdot(amps, amps).real)
    expected = amps / math.sqrt(norm_squared)
    amps *= _reciprocal_norms(amps[np.newaxis])[0]
    assert np.array_equal(amps.view(np.float64), expected.view(np.float64))


def _assert_norms_match_per_row_vdot(rows):
    expected = [1.0 / math.sqrt(np.vdot(row, row).real) for row in rows]
    assert _reciprocal_norms(rows).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("runs", [1, 3, 25])
@pytest.mark.parametrize("n_columns", [4, 8, 12, 16])
def test_reciprocal_norms_match_per_row_vdot_on_particle_rows(n_columns, runs):
    # One np.vecdot over a batch's dense rows against the np.vdot per row
    # that it replaced, bit for bit, on random vacuum and one-particle rows
    # scattered into the dense vectors as the particle kernels scatter them.
    np_rng = np.random.default_rng([41, n_columns, runs])
    support = np.append(1 << np.arange(n_columns), 0)
    shape = (runs, n_columns + 1)
    rows = np.zeros((runs, 1 << n_columns), dtype=np.complex128)
    rows[:, support] = np_rng.normal(size=shape) + 1j * np_rng.normal(size=shape)
    _assert_norms_match_per_row_vdot(rows)


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("n_columns", [14, 16])
def test_reciprocal_norms_match_per_row_vdot_on_dense_rows(n_columns, runs):
    # Gaussian vectors wide enough that OpenBLAS may thread each row's sum.
    np_rng = np.random.default_rng([43, n_columns, runs])
    shape = (runs, 1 << n_columns)
    _assert_norms_match_per_row_vdot(np_rng.normal(size=shape) + 1j * np_rng.normal(size=shape))


def _halves_jump(amps, n_columns, column, alpha, x):
    """``J(alpha)`` on ``column`` as two multiplies of the strided half-views.

    The form that the factor-pattern multiply replaced, kept as its oracle:
    ``complex *= float`` multiplies each half by ``f + 0j``.
    """
    scale = 1.0 / math.sqrt(1.0 + x * x)
    p = column - 1
    view = amps.reshape(1 << (n_columns - 1 - p), 2, 1 << p)
    suppressed = view[:, 1 - alpha, :]
    suppressed *= x * scale
    favoured = view[:, alpha, :]
    favoured *= scale


@pytest.mark.parametrize("kind", ["dense", "one-particle", "signed-zeros"])
@pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("n_columns", range(2, MAX_COLUMNS + 1, 2))
def test_jump_pattern_matches_halves_multiply(kind, x, n_columns):
    # One multiply of the float view by a factor pattern against the two
    # half-view multiplies, on every column and for both field values.  Each
    # part is the same rounded product, so the bytes agree unless an exact
    # zero goes in (signed zeros) or comes out (X = 0): then its sign may
    # differ.  The renormalization and the next link's complex multiply
    # give every such sign back.
    amps = _unnormalized_state(kind, n_columns, np.random.default_rng([29, n_columns]))
    rescale = _reciprocal_norms(amps[np.newaxis])[0]
    for column in range(1, n_columns + 1):
        for alpha in (0, 1):
            expected = amps.copy()
            _halves_jump(expected, n_columns, column, alpha, x)
            got = amps.copy()
            view, factors = _jump_operands(got, n_columns, column, x)
            view *= factors[alpha]
            assert np.array_equal(got.view(np.float64), expected.view(np.float64))
            if x > 0.0 and kind != "signed-zeros":
                assert got.tobytes() == expected.tobytes()
            for state in (got, expected):
                state *= rescale
                state *= rescale
            assert got.tobytes() == expected.tobytes()


def _division_pass(config, amps, alpha_at, backward=False):
    """The per-event loop that ``lattice._pass`` replaced, kept as its oracle.

    Every event rebuilds its reshaped views and recomputes its constants, and
    each jump is renormalized by dividing by the norm.
    """
    n = config.n_columns
    x = config.collapse_x

    def half(column, occupied):
        p = column - 1
        return amps.reshape(1 << (n - 1 - p), 2, 1 << p)[:, occupied, :]

    def occupancy_of(column):
        # Clamped to at most 1, as the pass does: after a projective jump a
        # lone amplitude can renormalize to 1 + 1 ulp.
        sub = half(column, 1)
        re, im = sub.real, sub.imag
        return min(float(np.einsum("ij,ij->", re, re) + np.einsum("ij,ij->", im, im)), 1.0)

    events = []
    for t in range(config.steps):
        for k in range(1, config.n_vertices + 1):
            left, right = vertex_columns(t, k, config.n_vertices)
            events += ((t, left, False), (t, left, True), (t, right, True))
    probabilities = np.empty((config.steps, n))
    occupancy = np.empty((config.steps, n))
    for t, column, is_link in reversed(events) if backward else events:
        if not is_link:
            pa, pb = column - 1, column % n
            hi, lo = max(pa, pb), min(pa, pb)
            view = amps.reshape(1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
            s01 = view[:, int(hi == pb), :, int(lo == pb), :]
            s10 = view[:, int(hi == pa), :, int(lo == pa), :]
            diag = 1j * math.sin(config.theta)
            off = math.cos(config.theta)
            kept = s01.copy()
            s01[...] = diag * kept + off * s10
            s10[...] = off * kept + diag * s10
            continue
        slot = column - 1
        occ = occupancy_of(column)
        p_one = (x * x + (1.0 - x * x) * occ) / (1.0 + x * x)
        alpha = alpha_at(t, slot, p_one)
        _halves_jump(amps, n, column, alpha, x)
        amps /= math.sqrt(float(np.vdot(amps, amps).real))
        probabilities[t, slot] = p_one
        occupancy[t, slot] = occupancy_of(column)
    return probabilities, occupancy


def _start_state(start: str, n_columns: int) -> QuantumState:
    if start == "single-particle":
        return single_particle_state(n_columns, n_columns // 2)
    if start == "vacuum":
        return build_basis_state([0] * n_columns)
    return random_state(n_columns, np.random.default_rng([17, n_columns]))


@pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("start", ["single-particle", "vacuum", "all-sector"])
@pytest.mark.parametrize("n_columns", [4, 8, 12, 16])
def test_pass_matches_division_loop(n_columns, start, x):
    # Forward from the start state, then backward on the recorded field from
    # the conjugated final state, through the pass and through the oracle.
    config = LatticeConfig(n_columns, x, 0.9, steps=3 if n_columns == 16 else 5)
    initial = _start_state(start, n_columns)
    record, final = run_forward(config, initial, PrngStream(n_columns))
    back, recovered = run_backward(config, record.field, conjugate(final))

    rng = PrngStream(n_columns)
    amps = initial.amplitudes.copy()
    probabilities, occupancy = _division_pass(
        config, amps, lambda t, slot, p_one: 1 if rng.uniform() < p_one else 0
    )
    assert probabilities.tobytes() == record.probabilities.tobytes()
    assert occupancy.tobytes() == record.occupancy.tobytes()
    assert np.array_equal(amps, final.amplitudes)

    amps = np.conj(amps)
    probabilities, occupancy = _division_pass(
        config, amps, lambda t, slot, p_one: int(record.field.alpha[t, slot]), backward=True
    )
    assert probabilities.tobytes() == back.probabilities.tobytes()
    assert occupancy.tobytes() == back.occupancy.tobytes()
    assert np.array_equal(amps, recovered.amplitudes)


# ----------------------------------------------------------------------
# Particle kernels against the view kernels
# ----------------------------------------------------------------------


def _kernel_run(config, amplitudes, make_kernels, field=None, backward=False, seed=0):
    """A one-run pass through the given kernels on a copy of ``amplitudes``.

    Without ``field`` the pass draws the field from ``PrngStream(seed)`` as
    ``run_forward`` does; with one it replays that fixed field.  Returns the
    field, probabilities, occupancy and final amplitudes.
    """
    amps = amplitudes.copy()
    kernels = make_kernels(config, [amps] if make_kernels is _ParticleKernels else amps)
    if field is None:
        rng = PrngStream(seed)

        def alpha_at(t, slot, p_one):
            return np.array([rng.uniform()]) < p_one
    else:
        def alpha_at(t, slot, p_one):
            return field[t, slot, None]

    arrays = _pass(config, kernels, alpha_at, backward, 1)
    return tuple(array[0] for array in arrays) + (kernels.dense_rows[0],)


def _two_particle_state(n_columns, np_rng):
    """Normalized Gaussian-random amplitudes on the two-particle sector."""
    support = [i for i in range(1 << n_columns) if bin(i).count("1") == 2]
    amps = np.zeros(1 << n_columns, dtype=np.complex128)
    amps[support] = np_rng.normal(size=len(support)) + 1j * np_rng.normal(size=len(support))
    return amps / np.linalg.norm(amps)


def _particle_start(start, n_columns):
    """A vacuum, one-particle, or vacuum + particle superposition start."""
    if start == "vacuum":
        return build_basis_state([0] * n_columns).amplitudes
    particle = single_particle_state(n_columns, n_columns // 2 + 1).amplitudes
    if start == "particle":
        return particle
    return 0.6 * particle + 0.8j * build_basis_state([0] * n_columns).amplitudes


@pytest.mark.parametrize(
    "theta, x", [(math.pi / 4, 0.5), (0.3, 0.0), (1.1, 1.0), (0.0, 0.2), (math.pi / 2, 0.7)]
)
@pytest.mark.parametrize("start", ["vacuum", "particle", "superposition"])
@pytest.mark.parametrize("n_columns", range(2, MAX_COLUMNS + 1, 2))
def test_sector_kernels_match_view_kernels_bit_for_bit(n_columns, start, theta, x):
    # The particle kernels against the view kernels.  Each vertex of a
    # vacuum or one-particle state mixes two amplitudes and each occupancy
    # sums one nonzero term, so the particle kernels must reproduce every
    # bit of the dense pass: field, probabilities, occupancies and final
    # amplitudes, forward and backward from the conjugated final state.
    config = LatticeConfig(n_columns, x, theta, steps=6)
    initial = _particle_start(start, n_columns)
    runs = []
    for make_kernels in (_ViewKernels, _ParticleKernels):
        forward = _kernel_run(config, initial, make_kernels, seed=n_columns)
        backward = _kernel_run(
            config, np.conj(forward[3]), make_kernels, field=forward[0], backward=True
        )
        runs.append([array.tobytes() for array in forward + backward])
    assert runs[0] == runs[1]


def _assert_batch_matches_one_run_calls(config, initial, seed, runs):
    """One call over the R streams ``PrngStream(seed).split(index)`` against R one-run calls.

    Every row of the batch's field, probabilities, occupancies and final
    states, forward and backward from the conjugated final states, must
    equal the bytes of its own one-run call.
    """
    streams = [PrngStream(seed).split(index) for index in range(runs)]
    record, finals = run_forward(config, initial, streams)
    back, recovered = run_backward(config, record.field, [conjugate(final) for final in finals])
    assert record.probabilities.shape == (runs, config.steps, config.n_columns)
    for index in range(runs):
        one, final = run_forward(config, initial, PrngStream(seed).split(index))
        one_back, one_recovered = run_backward(config, one.field, conjugate(final))
        pairs = [
            (record.field.alpha[index], one.field.alpha),
            (record.probabilities[index], one.probabilities),
            (record.occupancy[index], one.occupancy),
            (finals[index].amplitudes, final.amplitudes),
            (back.probabilities[index], one_back.probabilities),
            (back.occupancy[index], one_back.occupancy),
            (recovered[index].amplitudes, one_recovered.amplitudes),
        ]
        for batched, alone in pairs:
            assert batched.shape == alone.shape
            assert batched.tobytes() == alone.tobytes()


@pytest.mark.parametrize("runs", [1, 3, 17])
@pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("start", ["vacuum", "particle", "superposition"])
@pytest.mark.parametrize("n_columns", range(2, MAX_COLUMNS + 1, 2))
def test_batched_runs_match_one_run_calls_bit_for_bit(n_columns, start, x, runs):
    config = LatticeConfig(n_columns, x, 0.7, steps=4)
    _assert_batch_matches_one_run_calls(
        config, QuantumState(_particle_start(start, n_columns)), n_columns, runs
    )


def test_batched_runs_check_their_field_and_states():
    config = LatticeConfig(4, 0.5, 0.3, steps=2)
    initial = single_particle_state(4, 2)
    record, finals = run_forward(config, initial, [PrngStream(1), PrngStream(2)])
    conjugated = [conjugate(final) for final in finals]
    with pytest.raises(DimensionError, match=r"does not match config \(3, 2, 4\)"):
        run_backward(config, record.field, conjugated + conjugated[:1])
    with pytest.raises(DimensionError, match=r"does not match config \(2, 4\)"):
        run_backward(config, record.field, conjugated[0])
    with pytest.raises(DimensionError, match="at least one"):
        run_forward(config, initial, [])
    with pytest.raises(DimensionError, match="at least one"):
        run_backward(config, record.field, [])
    with pytest.raises(InvalidStateError, match="final state must be normalized"):
        run_backward(config, record.field, [conjugated[0], QuantumState(2.0 * initial.amplitudes)])


def test_dispatch_takes_particle_kernels_only_for_small_sectors(monkeypatch):
    # The particle kernels take exactly the states with weight in the vacuum
    # and one-particle sectors alone; every other state takes the views.
    config = LatticeConfig(8, 0.5, 0.7, steps=1)
    np_rng = np.random.default_rng(23)
    built = []

    class Recorded(_ParticleKernels):
        def __init__(self, config, starts):
            built.append(len(starts))
            super().__init__(config, starts)

    monkeypatch.setattr("collapsim.lattice._ParticleKernels", Recorded)
    streams = [PrngStream(1), PrngStream(2)]
    for start in ("vacuum", "particle", "superposition"):
        amps = _particle_start(start, 8)
        assert _in_particle_sectors(amps)
        record, finals = run_forward(config, QuantumState(amps), streams)
        run_backward(config, record.field, [conjugate(final) for final in finals])
        run_forward(config, QuantumState(amps), PrngStream(3))
    assert built == [2, 2, 1] * 3
    # Two particles; weight in every sector; and a few amplitudes in
    # sectors 3, 4 and 5.
    wide = np.zeros(256, dtype=np.complex128)
    wide[[0b111, 0b1111, 0b11111]] = 1 / math.sqrt(3)
    for amps in (_two_particle_state(8, np_rng), random_state(8, np_rng).amplitudes, wide):
        assert not _in_particle_sectors(amps)
        record, final = run_forward(config, QuantumState(amps), PrngStream(3))
        back, recovered = run_backward(config, record.field, conjugate(final))
        # Such starts pass one run per call, on the views: a lone stream or
        # state and a sequence of one give the same bytes.
        batch, finals = run_forward(config, QuantumState(amps), [PrngStream(3)])
        batch_back, batch_recovered = run_backward(config, batch.field, [conjugate(finals[0])])
        pairs = [
            (batch.field.alpha[0], record.field.alpha),
            (batch.probabilities[0], record.probabilities),
            (batch.occupancy[0], record.occupancy),
            (finals[0].amplitudes, final.amplitudes),
            (batch_back.probabilities[0], back.probabilities),
            (batch_back.occupancy[0], back.occupancy),
            (batch_recovered[0].amplitudes, recovered.amplitudes),
        ]
        for batched, alone in pairs:
            assert batched.shape == alone.shape
            assert batched.tobytes() == alone.tobytes()
        with pytest.raises(InvalidStateError, match="one run at a time"):
            run_forward(config, QuantumState(amps), streams)
        # Every start of a backward batch is checked, not only the first.
        mixed = [QuantumState(_particle_start("particle", 8)), conjugate(final)]
        with pytest.raises(InvalidStateError, match="one run at a time"):
            run_backward(config, StochasticField(np.stack([record.field.alpha] * 2)), mixed)
    assert built == [2, 2, 1] * 3


def _complex_phase_start(n_columns, column):
    """One particle at ``column`` with amplitude ``0.6 + 0.8i``."""
    amps = np.zeros(1 << n_columns, dtype=np.complex128)
    amps[1 << (column - 1)] = 0.6 + 0.8j
    return QuantumState(amps)


def test_projective_runs_record_occupancies_within_one():
    # At X = 0 a jump leaves a lone complex amplitude, whose squared modulus
    # after renormalizing can round to 1 + 1 ulp.  Random states take the
    # view kernels and the complex-phase start takes the particle kernels;
    # every recorded value must stay in [0, 1], so the reversal test scores
    # the run (or finds it degenerate) instead of rejecting its input.
    np_rng = np.random.default_rng(59)
    starts = [random_state(n, np_rng) for n in (4, 6, 8) for _ in range(5)]
    starts += [_complex_phase_start(8, 4)] * 20
    for seed, initial in enumerate(starts):
        config = LatticeConfig(initial.n_columns, 0.0, 0.3, steps=10)
        record, final = run_forward(config, initial, PrngStream(seed))
        back, _ = run_backward(config, record.field, conjugate(final))
        for values in (record.occupancy, record.probabilities, back.occupancy, back.probabilities):
            assert values.max() <= 1.0
        try:
            reversal_chi_squared(record.field, back.probabilities)
        except DegenerateTestError:
            pass
