import math

import numpy as np
import pytest

from collapsim.errors import (
    ConfigError,
    DegenerateTestError,
    DimensionError,
)
from collapsim.lattice import LatticeConfig, StochasticField, build_basis_state, run_forward
from collapsim.lattice_analysis import (
    DEFAULT_BINS,
    BinSpec,
    pvalue_uniformity,
    reversal_chi_squared,
    vacuum_noise_stats,
)
from collapsim.stats import PrngStream, chi_squared_sf

# ----------------------------------------------------------------------
# Vacuum noise
# ----------------------------------------------------------------------


def test_vacuum_noise_values():
    stats = vacuum_noise_stats(0.5, 100)
    assert stats.mu == pytest.approx(0.2)
    assert stats.sigma_squared == pytest.approx(0.25 / (100 * 1.5625))
    stats = vacuum_noise_stats(1.0, 4)
    assert stats.mu == pytest.approx(0.5)
    assert stats.sigma_squared == pytest.approx(1.0 / 16.0)
    silent = vacuum_noise_stats(0.0, 10)
    assert silent.mu == 0.0 and silent.sigma_squared == 0.0


@pytest.mark.parametrize("x", [0.5, 1.0])
def test_vacuum_noise_matches_simulation(x):
    # A vacuum start stays vacuum, so every link is an i.i.d. Bernoulli draw
    # with weight X^2 / (1 + X^2): the whole field's mean must sit within the
    # noise that vacuum_noise_stats predicts for that many links.
    config = LatticeConfig(n_columns=8, collapse_x=x, theta=0.7, steps=150)
    record, _ = run_forward(config, build_basis_state([0] * 8), PrngStream(41))
    alpha = record.field.alpha
    assert alpha.size == 1200
    noise = vacuum_noise_stats(x, alpha.size)
    z = (alpha.mean() - noise.mu) / math.sqrt(noise.sigma_squared)
    assert abs(z) < 4.0


# ----------------------------------------------------------------------
# Reversal chi-squared
# ----------------------------------------------------------------------


def _uniform_half_field(ones: int, total: int = 100):
    alpha = np.zeros(total, dtype=np.uint8)
    alpha[:ones] = 1
    field = StochasticField(alpha.reshape(10, total // 10))
    probs = np.full((10, total // 10), 0.5)
    return field, probs


def test_chi_squared_exact_hand_value_zero():
    field, probs = _uniform_half_field(50)
    report = reversal_chi_squared(field, probs)
    assert report.dof == 1
    assert report.statistic == pytest.approx(0.0, abs=1e-12)
    assert report.p_value == pytest.approx(1.0)
    assert report.events_total == 100
    assert report.events_retained == 100


def test_chi_squared_exact_hand_value_four():
    # 60 ones out of 100 at p = 0.5: (60-50)^2 / 25 = 4, one retained bin.
    field, probs = _uniform_half_field(60)
    report = reversal_chi_squared(field, probs)
    assert report.statistic == pytest.approx(4.0, abs=1e-12)
    assert report.dof == 1
    assert report.p_value == pytest.approx(chi_squared_sf(4.0, 1))
    assert report.p_value == pytest.approx(0.0455, abs=2e-4)


def test_chi_squared_mu_is_exact_probability_sum():
    # Probabilities varying inside a bin: the expected count must be their
    # exact sum, not a rounded bin-centre approximation.
    probs = np.array([[0.41, 0.43, 0.45, 0.47, 0.49] * 4] * 2)
    alpha = np.zeros_like(probs, dtype=np.uint8)
    alpha[:, ::2] = 1
    report = reversal_chi_squared(StochasticField(alpha), probs)
    retained = [b for b in report.bins if b.retained]
    assert len(retained) == 1
    assert retained[0].expected_ones == pytest.approx(probs.sum(), abs=1e-12)


def test_chi_squared_invariant_under_event_order():
    np_rng = np.random.default_rng(6)
    probs = np_rng.uniform(0.05, 0.95, size=400)
    alpha = (np_rng.uniform(size=400) < probs).astype(np.uint8)
    base = reversal_chi_squared(
        StochasticField(alpha.reshape(40, 10)), probs.reshape(40, 10)
    )
    order = np_rng.permutation(400)
    shuffled = reversal_chi_squared(
        StochasticField(alpha[order].reshape(40, 10)), probs[order].reshape(40, 10)
    )
    assert shuffled.statistic == pytest.approx(base.statistic, abs=1e-10)
    assert shuffled.dof == base.dof


def test_chi_squared_screens_thin_bins():
    # 4 events at p=0.5 expect 2 ones: below the normal screen, so dropped.
    alpha = np.zeros((2, 2), dtype=np.uint8)
    probs = np.full((2, 2), 0.5)
    with pytest.raises(DegenerateTestError):
        reversal_chi_squared(StochasticField(alpha), probs)


def test_chi_squared_projective_probabilities_degenerate():
    # All probabilities 0 or 1 leave no bin with both outcomes expected.
    alpha = np.ones((10, 10), dtype=np.uint8)
    probs = np.ones((10, 10))
    with pytest.raises(DegenerateTestError):
        reversal_chi_squared(StochasticField(alpha), probs)


def test_chi_squared_shape_mismatch():
    field, probs = _uniform_half_field(50)
    with pytest.raises(DimensionError):
        reversal_chi_squared(field, probs[:, :5])


def test_bin_spec_validation():
    assert DEFAULT_BINS.count == 10
    assert BinSpec.equal_width(4).edges() == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ConfigError):
        BinSpec((0.5, 0.4))
    with pytest.raises(ConfigError):
        BinSpec((0.0, 0.5))
    with pytest.raises(ConfigError):
        BinSpec.equal_width(0)


def test_chi_squared_calibrated_on_synthetic_null():
    # Bernoulli draws from the very probabilities under test: p-values spread
    # over [0, 1] instead of piling near 0.
    np_rng = np.random.default_rng(8)
    p_values = []
    for _ in range(300):
        probs = np_rng.uniform(0.1, 0.9, size=500)
        alpha = (np_rng.uniform(size=500) < probs).astype(np.uint8)
        report = reversal_chi_squared(
            StochasticField(alpha.reshape(50, 10)), probs.reshape(50, 10)
        )
        p_values.append(report.p_value)
    p_values = np.array(p_values)
    assert (p_values < 0.05).mean() < 0.12
    assert 0.35 < p_values.mean() < 0.65


def test_chi_squared_detects_miscalibrated_probabilities():
    np_rng = np.random.default_rng(9)
    probs = np_rng.uniform(0.2, 0.7, size=10_000)
    alpha = (np_rng.uniform(size=10_000) < probs).astype(np.uint8)
    shifted = np.clip(probs + 0.1, 0.0, 1.0)
    report = reversal_chi_squared(
        StochasticField(alpha.reshape(100, 100)), shifted.reshape(100, 100)
    )
    assert report.p_value < 1e-6


# ----------------------------------------------------------------------
# p-value uniformity
# ----------------------------------------------------------------------


def test_pvalue_uniformity_on_uniform_sample():
    np_rng = np.random.default_rng(10)
    report = pvalue_uniformity(np_rng.uniform(size=2000))
    assert report.bin_count == 20
    assert report.bin_counts.sum() == 2000
    assert report.chi_squared.p_value > 0.001
    assert report.ks.p_value > 0.001


def test_pvalue_uniformity_rejects_skewed_sample():
    np_rng = np.random.default_rng(11)
    skewed = np_rng.uniform(size=2000) ** 2
    report = pvalue_uniformity(skewed)
    assert report.chi_squared.p_value < 1e-10
    assert report.ks.p_value < 1e-10


def test_pvalue_uniformity_needs_enough_data():
    with pytest.raises(DegenerateTestError, match=r"need at least 10 p-values, got shape \(5,\)"):
        pvalue_uniformity([0.5] * 5)
    with pytest.raises(ConfigError):
        pvalue_uniformity([1.5] * 100)


@pytest.mark.parametrize("size, bins", [(10, 2), (19, 2), (99, 9), (100, 20), (5000, 20)])
def test_pvalue_uniformity_bins_expect_at_least_five(size, bins):
    report = pvalue_uniformity(np.linspace(0.0, 1.0, size))
    assert report.bin_count == bins
    assert report.bin_counts.size == bins
    assert size / report.bin_count >= 5
