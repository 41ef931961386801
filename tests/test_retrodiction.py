"""Tests for the finite-state Markov retrodiction machinery.

Oracles: 2-state chains solved by hand, brute-force path enumeration for the
conditioned inferences (exhaustive over small chains and short horizons), and
reversible chains built by column-normalizing a symmetric weight matrix.
"""

import itertools
import time

import numpy as np
import pytest

from collapsim.errors import (
    ConditioningError,
    ConfigError,
    DimensionError,
    NoUniqueEquilibriumError,
    ResampleExhaustedError,
)
from collapsim.retrodiction import (
    Distribution,
    MarkovModel,
    SelectionSpec,
    _reaches_one_state_from_all,
    equilibrium_retrodiction,
    evolve,
    load_kernel,
    momentum_walk_demo,
    pinned_inference,
    retrodict,
    save_distribution,
    save_kernel,
    stationary,
)
from collapsim.stats import PrngStream

from test_stats import ScalarSplitMix64

SYMMETRIC = MarkovModel(("S1", "S2"), np.array([[0.9, 0.1], [0.1, 0.9]]))
# Columns are sources: column 0 = (0.5, 0.5), column 1 = (0.25, 0.75).
TWO_STATE = MarkovModel(("a", "b"), np.array([[0.5, 0.25], [0.5, 0.75]]))
IDENTITY3 = MarkovModel(("x", "y", "z"), np.eye(3))


def random_chain(n, np_rng, floor=0.05):
    """Strictly positive column-stochastic kernel (irreducible, aperiodic)."""
    raw = np_rng.random((n, n)) + floor
    return MarkovModel(tuple(f"s{i}" for i in range(n)), raw / raw.sum(axis=0))


def reversible_chain(n, np_rng):
    """Column-normalize a symmetric positive weight matrix.

    The resulting chain satisfies detailed balance with stationary weights
    proportional to the column sums of the symmetric matrix.
    """
    w = np_rng.random((n, n)) + 0.1
    w = w + w.T
    kernel = w / w.sum(axis=0)
    pi = w.sum(axis=0) / w.sum()
    return MarkovModel(tuple(f"s{i}" for i in range(n)), kernel), Distribution(pi)


# ----------------------------------------------------------------------
# Model and distribution validation
# ----------------------------------------------------------------------


def test_model_rejects_bad_kernels():
    with pytest.raises(DimensionError):
        MarkovModel(("a", "b"), np.ones((2, 3)) / 2)
    with pytest.raises(ConfigError):
        MarkovModel(("a", "b"), np.array([[1.1, 0.5], [-0.1, 0.5]]))
    with pytest.raises(ConfigError):
        MarkovModel(("a", "b"), np.array([[0.6, 0.5], [0.6, 0.5]]))
    with pytest.raises(ConfigError):
        MarkovModel(("a", "a"), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_and_distribution_reject_non_finite_entries(bad):
    # Every comparison with NaN is false, so NaN slips past the sign and
    # sum checks unless finiteness is tested first.
    with pytest.raises(ConfigError, match="kernel entries must be finite"):
        MarkovModel(("a", "b"), np.array([[bad, 0.5], [0.5, 0.5]]))
    with pytest.raises(ConfigError, match="probabilities must be finite"):
        Distribution(np.array([bad, 0.5]))


def test_model_index_of_accepts_labels_and_indices():
    assert SYMMETRIC.index_of("S2") == 1
    assert SYMMETRIC.index_of(0) == 0
    with pytest.raises(DimensionError):
        SYMMETRIC.index_of("nope")
    with pytest.raises(DimensionError):
        SYMMETRIC.index_of(5)


def test_distribution_validation_and_constructors():
    assert np.allclose(Distribution.uniform(4).probabilities, 0.25)
    with pytest.raises(ConfigError):
        Distribution(np.array([0.7, 0.7]))
    with pytest.raises(ConfigError):
        Distribution(np.array([1.5, -0.5]))
    for not_a_vector in (np.array(1.0), np.full((2, 2), 0.25), np.array([])):
        with pytest.raises(DimensionError):
            Distribution(not_a_vector)


# ----------------------------------------------------------------------
# Forward evolution
# ----------------------------------------------------------------------


def test_evolve_identity_keeps_distribution():
    dist = Distribution(np.array([0.2, 0.3, 0.5]))
    assert np.array_equal(evolve(IDENTITY3, dist).probabilities, dist.probabilities)


def test_evolve_two_state_substitution():
    out = evolve(SYMMETRIC, Distribution(np.array([1.0, 0.0])))
    assert np.allclose(out.probabilities, [0.9, 0.1], atol=1e-15)


def test_evolve_doubly_stochastic_fixes_uniform():
    rng = np.random.default_rng(41)
    # Mixture of permutation matrices is doubly stochastic.
    perms = [np.eye(4)[list(p)] for p in itertools.permutations(range(4))]
    weights = rng.random(len(perms))
    kernel = sum(w * p for w, p in zip(weights, perms)) / weights.sum()
    model = MarkovModel(("a", "b", "c", "d"), kernel)
    out = evolve(model, Distribution.uniform(4))
    assert np.allclose(out.probabilities, 0.25, atol=1e-12)


def test_evolve_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        evolve(SYMMETRIC, Distribution.uniform(3))
    with pytest.raises(DimensionError):
        retrodict(SYMMETRIC, Distribution.uniform(3), "S1")
    with pytest.raises(DimensionError):
        equilibrium_retrodiction(SYMMETRIC, Distribution.uniform(3))


# ----------------------------------------------------------------------
# Stationary distribution
# ----------------------------------------------------------------------


def test_stationary_symmetric_chain_is_uniform():
    assert np.allclose(stationary(SYMMETRIC).probabilities, 0.5, atol=1e-12)


def test_stationary_two_state_hand_oracle():
    # Solve R pi = pi by hand: 0.25 pi_b = 0.5 pi_a, so pi = (1/3, 2/3).
    pi = stationary(TWO_STATE)
    assert np.allclose(pi.probabilities, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_stationary_rejects_identity_and_period_two():
    with pytest.raises(NoUniqueEquilibriumError):
        stationary(IDENTITY3)
    with pytest.raises(NoUniqueEquilibriumError):
        stationary(MarkovModel(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]])))
    with pytest.raises(NoUniqueEquilibriumError):
        stationary(MarkovModel(("x", "y", "z"), np.roll(np.eye(3), 1, axis=0)))
    two_classes = np.kron(np.eye(2), np.full((2, 2), 0.5))
    with pytest.raises(NoUniqueEquilibriumError):
        stationary(MarkovModel(("a", "b", "c", "d"), two_classes))


def test_stationary_rejects_two_closed_classes_from_the_support():
    # 300 states in two closed classes of 150: the support shows it at
    # once, where 64 squarings of the kernel took about a second.
    rng = np.random.default_rng(3)
    kernel = np.zeros((300, 300))
    for block in (slice(0, 150), slice(150, 300)):
        weights = rng.uniform(size=(150, 150))
        kernel[block, block] = weights / weights.sum(axis=0)
    model = MarkovModel(tuple(f"s{i}" for i in range(300)), kernel)
    started = time.perf_counter()
    with pytest.raises(NoUniqueEquilibriumError, match="more than one closed class"):
        stationary(model)
    assert time.perf_counter() - started < 0.25


@pytest.mark.parametrize(
    "kernel, unique",
    [
        (np.array([[1.0]]), True),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), False),  # period 2
        (np.array([[0.5, 1.0], [0.5, 0.0]]), True),  # a self-loop breaks the period
        (np.roll(np.eye(4), 1, axis=0), False),  # period 4
        # 0 -> 1 -> 2 -> 3 -> 0 with the chord 3 -> 1: cycles of 4 and 3 steps.
        (np.array([[0, 0, 0, 0.5], [1, 0, 0, 0.5], [0, 1, 0, 0], [0, 0, 1, 0]]), True),
        (np.kron(np.eye(2), np.full((2, 2), 0.5)), False),  # two closed classes
        (np.array([[0.5, 0.0, 0.0], [0.5, 0.5, 0.5], [0.0, 0.5, 0.5]]), True),  # transient a
        (np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.5, 1.0]]), False),  # b leaks to two
    ],
)
def test_support_check_finds_one_aperiodic_closed_class(kernel, unique):
    assert _reaches_one_state_from_all(kernel) is unique
    model = MarkovModel(tuple(f"s{i}" for i in range(len(kernel))), kernel)
    if unique:
        assert np.abs(evolve(model, stationary(model)).probabilities
                      - stationary(model).probabilities).max() < 1e-12
    else:
        with pytest.raises(NoUniqueEquilibriumError, match="more than one closed class"):
            stationary(model)


def slow_cycle(n, step):
    """Each state stays put, or moves to the next one round a cycle with probability ``step``."""
    kernel = (1.0 - step) * np.eye(n) + step * np.roll(np.eye(n), 1, axis=0)
    return MarkovModel(tuple(f"s{i}" for i in range(n)), kernel)


@pytest.mark.parametrize("n, step", [(2, 1e-9), (2, 1e-12), (3, 1e-12)])
def test_stationary_accepts_slowly_mixing_chains(n, step):
    # Ergodic however slowly they mix: the powers reach rank one within
    # 2**64 steps, and the equilibrium is uniform by symmetry.
    pi = stationary(slow_cycle(n, step))
    assert np.allclose(pi.probabilities, 1.0 / n, atol=1e-12)


def test_stationary_accepts_transient_states():
    # One closed class {b, c}; a leaks into it and is never re-entered.
    model = MarkovModel(("a", "b", "c"), np.array([[0.5, 0.0, 0.0], [0.5, 0.5, 0.5], [0.0, 0.5, 0.5]]))
    assert np.allclose(stationary(model).probabilities, [0.0, 0.5, 0.5], atol=1e-12)


def test_stationary_is_a_fixed_point_on_random_chains():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 6):
        model = random_chain(n, rng)
        pi = stationary(model)
        drift = evolve(model, pi).probabilities - pi.probabilities
        assert np.abs(drift).max() < 1e-10


# ----------------------------------------------------------------------
# Bayesian retrodiction
# ----------------------------------------------------------------------


def test_retrodict_identity_kernel_returns_point_mass():
    prior = Distribution(np.array([0.2, 0.3, 0.5]))
    out = retrodict(IDENTITY3, prior, "y")
    assert np.array_equal(out.probabilities, [0.0, 1.0, 0.0])


def test_retrodict_symmetric_uniform_hand_value():
    out = retrodict(SYMMETRIC, Distribution.uniform(2), "S1")
    assert np.allclose(out.probabilities, [0.9, 0.1], atol=1e-15)


def test_retrodict_zero_probability_observation_raises():
    # Second state is unreachable from anywhere.
    model = MarkovModel(("a", "b"), np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ConditioningError):
        retrodict(model, Distribution.uniform(2), "b")


def test_retrodict_matches_joint_enumeration():
    rng = np.random.default_rng(43)
    # Brute force the joint over (source, target) and condition by division.
    for _ in range(5):
        model = random_chain(4, rng)
        prior = rng.dirichlet(np.ones(4))
        joint = model.kernel * prior[None, :]  # joint[j, i] = R(j|i) prior(i)
        for j in range(4):
            expected = joint[j] / joint[j].sum()
            out = retrodict(model, Distribution(prior), j)
            assert np.abs(out.probabilities - expected).max() < 1e-12


# ----------------------------------------------------------------------
# Equilibrium reverse kernel
# ----------------------------------------------------------------------


def test_equilibrium_reverse_equals_forward_for_symmetric_kernel():
    reverse = equilibrium_retrodiction(SYMMETRIC, Distribution.uniform(2))
    assert np.abs(reverse - SYMMETRIC.kernel).max() < 1e-15


def test_equilibrium_reverse_columns_sum_to_one():
    pi = stationary(TWO_STATE)
    reverse = equilibrium_retrodiction(TWO_STATE, pi)
    assert np.abs(reverse.sum(axis=0) - 1.0).max() < 1e-12
    assert reverse.min() >= 0.0


def test_reversible_chain_is_its_own_reverse():
    rng = np.random.default_rng(44)
    for n in (2, 3, 5):
        model, pi = reversible_chain(n, rng)
        reverse = equilibrium_retrodiction(model, pi)
        assert np.abs(reverse - model.kernel).max() < 1e-12


def test_equilibrium_reverse_rejects_bad_equilibria():
    with pytest.raises(ConfigError):
        equilibrium_retrodiction(TWO_STATE, Distribution.uniform(2))
    with pytest.raises(ConfigError):
        equilibrium_retrodiction(
            MarkovModel(("a", "b"), np.array([[1.0, 1.0], [0.0, 0.0]])),
            Distribution(np.array([1.0, 0.0])),
        )


def test_retrodict_at_stationary_prior_reproduces_reverse_kernel():
    rng = np.random.default_rng(45)
    # Time independence at equilibrium: the Bayes posterior from the
    # stationary prior IS the reverse-kernel column, for every conditioned
    # state.  Away from equilibrium a one-step time shift changes the
    # posterior, so the stationary prior is exactly the shift-invariant one.
    for _ in range(3):
        model = random_chain(4, rng)
        pi = stationary(model)
        reverse = equilibrium_retrodiction(model, pi)
        for j in range(4):
            posterior = retrodict(model, pi, j)
            assert np.abs(posterior.probabilities - reverse[:, j]).max() < 1e-12

        skewed = Distribution(rng.dirichlet(np.ones(4) * 0.5))
        shifted = evolve(model, skewed)
        worst = 0.0
        for j in range(4):
            before = retrodict(model, skewed, j).probabilities
            after = retrodict(model, shifted, j).probabilities
            worst = max(worst, np.abs(before - after).max())
        assert worst > 1e-6  # non-stationary priors are not shift invariant

        worst_pi = 0.0
        shifted_pi = evolve(model, pi)
        for j in range(4):
            before = retrodict(model, pi, j).probabilities
            after = retrodict(model, shifted_pi, j).probabilities
            worst_pi = max(worst_pi, np.abs(before - after).max())
        assert worst_pi < 1e-9


# ----------------------------------------------------------------------
# Two-point conditioning: one rule, pins in either order
# ----------------------------------------------------------------------
# Smoothing prepares a state at time 0 and observes a later one;
# post-selection selects a state at time 0 and observes an earlier one.  Both
# call `pinned_inference`, with the pin at time 0 as the early or the late
# end.


def enumerate_smoothed(model, s0, j, t1, tf):
    """Path-enumeration oracle for the interior distribution at t1."""
    k = model.size
    weights = np.zeros(k)
    for path in itertools.product(range(k), repeat=tf - 1):
        full = (s0,) + path + (j,)
        prob = 1.0
        for a, b in zip(full[:-1], full[1:]):
            prob *= model.kernel[b, a]
        weights[full[t1]] += prob
    return weights / weights.sum()


def test_smoothed_identity_kernel_pins_everything():
    out = pinned_inference(IDENTITY3, SelectionSpec(0, "x"), SelectionSpec(4, "x"), 2)
    assert np.array_equal(out.probabilities, [1.0, 0.0, 0.0])


def test_smoothed_near_identity_concentrates_on_the_boundary():
    # Weak mixing: one step away from the pinned start, the interior state
    # has almost certainly not moved yet.
    eps = 1e-6
    kernel = (1.0 - eps) * np.eye(3) + eps / 3.0
    model = MarkovModel(("x", "y", "z"), kernel / kernel.sum(axis=0))
    out = pinned_inference(model, SelectionSpec(0, "y"), SelectionSpec(3, "y"), 1)
    assert out.probabilities[1] > 1.0 - 1e-5


def test_smoothed_matches_path_enumeration_exhaustively():
    rng = np.random.default_rng(46)
    # Every chain size up to 4, every horizon up to 4, every interior time,
    # every boundary pair with nonzero joint probability, and the pin at time
    # 0 as the early end (smoothing) or the late end (post-selection).
    for n in (2, 3, 4):
        model = random_chain(n, rng)
        for tf in (2, 3, 4):
            for shift in (0, -tf):
                for t1 in range(1, tf):
                    for s0 in range(n):
                        for j in range(n):
                            expected = enumerate_smoothed(model, s0, j, t1, tf)
                            out = pinned_inference(
                                model,
                                SelectionSpec(shift, s0),
                                SelectionSpec(shift + tf, j),
                                shift + t1,
                            )
                            assert np.abs(out.probabilities - expected).max() < 1e-12


def test_smoothed_guards():
    # The reading time must lie strictly between the pins.
    for t in (0, 3, 5, -1):
        with pytest.raises(ConfigError):
            pinned_inference(SYMMETRIC, SelectionSpec(0, "S1"), SelectionSpec(3, "S1"), t)
    with pytest.raises(DimensionError):
        pinned_inference(SYMMETRIC, SelectionSpec(0, "S3"), SelectionSpec(3, "S1"), 1)
    # Disconnected blocks: pinning the two ends in different blocks is
    # impossible, so the conditioning mass is zero.
    blocks = MarkovModel(("a", "b"), np.eye(2))
    with pytest.raises(ConditioningError):
        pinned_inference(blocks, SelectionSpec(0, "a"), SelectionSpec(2, "b"), 1)


def test_postselected_identity_kernel_pins_everything():
    out = pinned_inference(IDENTITY3, SelectionSpec(-4, "z"), SelectionSpec(0, "z"), -2)
    assert np.array_equal(out.probabilities, [0.0, 0.0, 1.0])


def test_postselected_near_boundary_concentrates():
    eps = 1e-6
    kernel = (1.0 - eps) * np.eye(3) + eps / 3.0
    model = MarkovModel(("x", "y", "z"), kernel / kernel.sum(axis=0))
    out = pinned_inference(model, SelectionSpec(-3, "z"), SelectionSpec(0, "z"), -1)
    assert out.probabilities[2] > 1.0 - 1e-5


def test_pinned_inference_is_time_translation_invariant():
    rng = np.random.default_rng(47)
    # Only the distances between the pins and the reading time enter, so
    # shifting all three leaves the result bit for bit unchanged; the shift
    # by -total moves the pin at time 0 from the early end to the late end.
    for _ in range(3):
        model = random_chain(3, rng)
        for total in (2, 3, 4):
            for m in range(1, total):
                for s0 in range(3):
                    for j in range(3):
                        reference = pinned_inference(
                            model, SelectionSpec(0, j), SelectionSpec(total, s0), m
                        )
                        for shift in (-total, -7, 5):
                            out = pinned_inference(
                                model,
                                SelectionSpec(shift, j),
                                SelectionSpec(shift + total, s0),
                                shift + m,
                            )
                            assert np.array_equal(
                                out.probabilities, reference.probabilities
                            )


def test_postselected_guards():
    # Pins out of order: the late pin at or before the early one.
    for early, late in ((0, 0), (0, -3), (-1, -3)):
        with pytest.raises(ConfigError):
            pinned_inference(
                SYMMETRIC, SelectionSpec(early, "S1"), SelectionSpec(late, "S1"), -2
            )
    # The reading time must lie strictly between the pins.
    for t in (-3, 0, 1):
        with pytest.raises(ConfigError):
            pinned_inference(SYMMETRIC, SelectionSpec(-3, "S1"), SelectionSpec(0, "S1"), t)


def test_uninformative_far_boundary_reduces_to_one_sided_rules():
    rng = np.random.default_rng(48)
    # With a long mixing stretch between the reading time and the far pin,
    # the far boundary carries no information: smoothing falls back to the
    # forward-evolved filter, and post-selection falls back to the
    # stationary-weighted backward rule.
    model = random_chain(3, rng)
    pi = stationary(model).probabilities
    far = 300
    s0, j, t1 = 0, 2, 2
    out = pinned_inference(model, SelectionSpec(0, s0), SelectionSpec(far, j), t1)
    forward = np.linalg.matrix_power(model.kernel, t1)[:, s0]
    assert np.abs(out.probabilities - forward / forward.sum()).max() < 1e-8

    m = 2
    out_post = pinned_inference(model, SelectionSpec(-far, j), SelectionSpec(0, s0), -m)
    weights = np.linalg.matrix_power(model.kernel, m)[s0, :] * pi
    assert np.abs(out_post.probabilities - weights / weights.sum()).max() < 1e-8


# ----------------------------------------------------------------------
# Momentum walk
# ----------------------------------------------------------------------


def test_pre_selected_walk_energy_grows_linearly():
    result = momentum_walk_demo(40, 0.5, 60, 4000, "pre", PrngStream(7))
    assert result.survivors == result.runs == 4000
    assert result.truncation_ok
    assert result.mean_energy[0] == 0.0
    # Free-walk law: variance of p grows by step_variance per step, so the
    # mean energy p^2/2 has slope step_variance / 2.
    slope = np.polyfit(result.times, result.mean_energy, 1)[0]
    assert abs(slope - 0.25) < 0.02
    end = result.mean_energy[-1]
    assert abs(end - 15.0) < 3.0 * result.standard_error[-1] + 1e-9


def test_post_selected_walk_energy_decreases():
    result = momentum_walk_demo(30, 0.5, 80, 4000, "post", PrngStream(11))
    assert 0 < result.survivors < result.runs
    assert result.selection == "post"
    # The kept trajectories end within one grid unit of zero momentum.
    assert result.mean_energy[-1] <= 0.5 + 1e-12
    drop = result.mean_energy[0] - result.mean_energy[-1]
    combined = np.hypot(result.standard_error[0], result.standard_error[-1])
    assert drop > 2.0 * combined
    assert np.array_equal(result.mean_energy_reverse, result.mean_energy[::-1])


def test_zero_step_variance_keeps_energy_constant():
    pre = momentum_walk_demo(10, 0.0, 30, 50, "pre", PrngStream(3))
    assert np.array_equal(pre.mean_energy, np.zeros(31))
    post = momentum_walk_demo(10, 0.0, 30, 200, "post", PrngStream(3))
    assert np.all(post.mean_energy == post.mean_energy[0])


def test_post_selection_can_exhaust_the_sample():
    # Frozen walkers (zero variance) never move; this seed's eight uniform
    # start draws all miss p = 0, so a zero-tolerance selection keeps none.
    with pytest.raises(ResampleExhaustedError):
        momentum_walk_demo(
            25, 0.0, 5, 8, "post", PrngStream(1), post_tolerance=0
        )


def test_truncation_flag_tracks_grid_width():
    # Threshold is 6 * sqrt(steps * variance) = 30 for these parameters.
    assert momentum_walk_demo(30, 0.25, 100, 5, "pre", PrngStream(2)).truncation_ok
    assert not momentum_walk_demo(29, 0.25, 100, 5, "pre", PrngStream(2)).truncation_ok


def slow_walk_sums(grid_half_width, step_variance, steps, runs, selection, rng, post_tolerance):
    """The walk with one numpy element store per step, summed over survivors."""
    width = grid_half_width
    half_variance = 0.5 * step_variance
    n_levels = 2 * width + 1
    sum_energy = np.zeros(steps + 1)
    sum_energy_sq = np.zeros(steps + 1)
    survivors = 0
    energies = np.empty(steps + 1)
    for run_index in range(runs):
        stream = rng.split(run_index)
        p = 0 if selection == "pre" else int(stream.uniform() * n_levels) - width
        energies[0] = 0.5 * p * p
        for t in range(1, steps + 1):
            u = stream.uniform()
            if u < half_variance:
                candidate = p + 1
            elif u < step_variance:
                candidate = p - 1
            else:
                candidate = p
            if -width <= candidate <= width:
                p = candidate
            energies[t] = 0.5 * p * p
        if selection == "post" and abs(p) > post_tolerance:
            continue
        survivors += 1
        sum_energy += energies
        sum_energy_sq += energies * energies
    return survivors, sum_energy, sum_energy_sq


@pytest.mark.parametrize("steps", [1, 2, 10, 1000])
def test_walk_matches_element_loop(steps):
    np_rng = np.random.default_rng(steps)
    for index in range(4):
        width = int(np_rng.integers(1, 40))
        variance = float(np_rng.uniform(0.0, 1.0))
        runs = int(np_rng.integers(2, 60))
        tolerance = int(np_rng.integers(0, 4))
        for selection in ("pre", "post"):
            args = (width, variance, steps, runs, selection)
            survivors, sum_energy, sum_energy_sq = slow_walk_sums(
                *args, ScalarSplitMix64(steps, index), tolerance
            )
            if survivors == 0:
                with pytest.raises(ResampleExhaustedError):
                    momentum_walk_demo(*args, PrngStream(steps, index), post_tolerance=tolerance)
                continue
            result = momentum_walk_demo(*args, PrngStream(steps, index), post_tolerance=tolerance)
            assert result.survivors == survivors
            mean = sum_energy / survivors
            assert result.mean_energy.tobytes() == mean.tobytes()
            if survivors > 1:
                variance_hat = np.maximum(sum_energy_sq / survivors - mean**2, 0.0)
                se = np.sqrt(variance_hat / (survivors - 1))
                assert result.standard_error.tobytes() == se.tobytes()


def test_walk_determinism_and_guards():
    a = momentum_walk_demo(12, 0.5, 20, 100, "post", PrngStream(9))
    b = momentum_walk_demo(12, 0.5, 20, 100, "post", PrngStream(9))
    assert np.array_equal(a.mean_energy, b.mean_energy)
    assert a.survivors == b.survivors
    for bad in (
        dict(grid_half_width=0),
        dict(step_variance=1.5),
        dict(steps=0),
        dict(runs=0),
        dict(selection="both"),
        dict(post_tolerance=-1),
    ):
        kwargs = dict(
            grid_half_width=5, step_variance=0.5, steps=5, runs=5, selection="pre"
        )
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            momentum_walk_demo(rng=PrngStream(0), **kwargs)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def test_kernel_round_trip(tmp_path):
    rng = np.random.default_rng(49)
    model = random_chain(3, rng)
    path = tmp_path / "kernel.csv"
    save_kernel(path, model)
    text = path.read_text()
    assert text.splitlines()[0] == "target,from_s0,from_s1,from_s2"
    loaded = load_kernel(path)
    assert loaded.states == model.states
    assert np.array_equal(loaded.kernel, model.kernel)


def test_load_kernel_skips_blank_lines(tmp_path):
    # A saved kernel with a trailing blank line loads to the same model, as
    # an editor that ends the file with an empty line leaves it; a header
    # followed by blank lines alone is still an empty kernel.
    model = random_chain(3, np.random.default_rng(50))
    path = tmp_path / "kernel.csv"
    save_kernel(path, model)
    path.write_bytes(path.read_bytes() + b"\r\n")
    loaded = load_kernel(path)
    assert loaded.states == model.states
    assert np.array_equal(loaded.kernel, model.kernel)
    path.write_text("target,from_a,from_b\r\n\r\n\r\n", newline="")
    with pytest.raises(ConfigError, match="empty kernel file"):
        load_kernel(path)


def test_save_distribution_contents(tmp_path):
    path = tmp_path / "dist.csv"
    save_distribution(path, TWO_STATE, Distribution(np.array([0.25, 0.75])))
    lines = path.read_text().splitlines()
    assert lines[0] == "state,probability"
    assert lines[1] == "a,0.25"
    assert lines[2] == "b,0.75"


def test_load_kernel_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("")
    with pytest.raises(ConfigError):
        load_kernel(bad)
    bad.write_text("target,from_a,from_b\na,0.5,0.5\n")
    with pytest.raises(ConfigError):
        load_kernel(bad)
    bad.write_text("target,from_a,from_b\nb,0.5,0.5\na,0.5,0.5\n")
    with pytest.raises(ConfigError):
        load_kernel(bad)
    bad.write_text("target,from_a,from_b\na,0.5,oops\nb,0.5,0.5\n")
    with pytest.raises(ConfigError):
        load_kernel(bad)
    # A blank line above a bad row: the error names the row's line in the file.
    bad.write_bytes(b"target,from_A,from_B\r\n\r\nA,0.9,0.1\r\nB,0.1,x\r\n")
    with pytest.raises(ConfigError, match=r"bad\.csv:4: could not convert string to float: 'x'"):
        load_kernel(bad)
    bad.write_bytes(b"target,from_A,from_B\r\n\r\nA,0.9,0.1\r\nC,0.1,0.9\r\n")
    with pytest.raises(ConfigError, match=r"bad\.csv:4: row does not match header state order"):
        load_kernel(bad)
    bad.write_bytes(b"target,from_a,from_b\na,0.5,0.5\nb,0.5,0.5\xff\n")
    with pytest.raises(ConfigError, match=r"bad\.csv: not UTF-8 text \(byte 40\)"):
        load_kernel(bad)
