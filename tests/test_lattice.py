import itertools
import math

import numpy as np
import pytest

from collapsim.errors import ConfigError, DimensionError, InvalidStateError
from collapsim.lattice import (
    LatticeConfig,
    QuantumState,
    StochasticField,
    apply_jump,
    apply_vertex,
    build_basis_state,
    conjugate,
    index_to_pattern,
    link_collapse_probability,
    normalize,
    occupancy_expectation,
    pattern_to_index,
    run_backward,
    run_forward,
    single_particle_state,
    vertex_columns,
)
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
        assert index_to_pattern(index, 4) == pattern


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


def test_config_validation():
    with pytest.raises(ConfigError):
        LatticeConfig(n_columns=5, collapse_x=0.5, theta=0.3, steps=10)
    with pytest.raises(ConfigError):
        LatticeConfig(n_columns=18, collapse_x=0.5, theta=0.3, steps=10)
    with pytest.raises(ConfigError):
        LatticeConfig(n_columns=4, collapse_x=-0.1, theta=0.3, steps=10)
    with pytest.raises(ConfigError):
        LatticeConfig(n_columns=4, collapse_x=0.5, theta=0.3, steps=0)


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


def _replay_forward(config, initial, field):
    """Re-run the sweep with a fixed field via the public single ops.

    Returns the per-link conditional probabilities of the realized outcomes
    and the product of those probabilities.
    """
    state = initial
    probabilities = np.empty((config.steps, config.n_columns))
    product = 1.0
    for t in range(config.steps):
        for k in range(1, config.n_vertices + 1):
            left, right = vertex_columns(t, k, config.n_vertices)
            state = apply_vertex(state, left, config.theta)
            for column in (left, right):
                alpha = int(field.alpha[t, column - 1])
                p_one = link_collapse_probability(state, column, config.collapse_x)
                probabilities[t, column - 1] = p_one
                product *= p_one if alpha == 1 else 1.0 - p_one
                state = normalize(apply_jump(state, column, alpha, config.collapse_x))
    return probabilities, product, state


def test_run_forward_probabilities_match_public_op_replay():
    config = LatticeConfig(n_columns=6, collapse_x=0.5, theta=math.pi / 4, steps=8)
    initial = single_particle_state(6, 3)
    record, final = run_forward(config, initial, PrngStream(21))
    replay_probs, _, replay_final = _replay_forward(config, initial, record.field)
    assert np.allclose(replay_probs, record.probabilities, atol=1e-12)
    assert np.allclose(replay_final.amplitudes, final.amplitudes, atol=1e-10)


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
        _, product, _ = _replay_forward(config, initial, field)

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
