import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from collapsim.errors import DegenerateTestError
from collapsim.stats import (
    _BLOCK,
    GAMMA,
    PrngStream,
    chi_squared_sf,
    kolmogorov_sf,
    ks_test,
    regularized_gamma_q,
    standard_normal_cdf,
)

GOLDEN = Path(__file__).parent / "golden"

# ----------------------------------------------------------------------
# Generator core
# ----------------------------------------------------------------------


def test_mixer_matches_published_splitmix64_vector():
    # Reference outputs for the standard SplitMix64 sequence started at
    # state 0 (widely reproduced seeding vector for other generators).
    stream = PrngStream(0)
    stream._state = 0
    assert [stream.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_gamma_is_odd_64bit_constant():
    assert GAMMA % 2 == 1
    assert 0 < GAMMA < 1 << 64


def test_golden_regression_vectors():
    fixture = json.loads((GOLDEN / "prng_reference.json").read_text())
    stream = PrngStream(123)
    assert [stream.next_u64() for _ in range(8)] == fixture["seed123_stream0_u64"]
    stream = PrngStream(123, stream_id=7)
    assert [stream.next_u64() for _ in range(8)] == fixture["seed123_stream7_u64"]
    child = PrngStream(123).split(5)
    assert [child.next_u64() for _ in range(8)] == fixture["seed123_child5_u64"]
    stream = PrngStream(2026)
    assert [stream.uniform() for _ in range(8)] == fixture["seed2026_uniform"]
    stream = PrngStream(2026)
    assert [stream.gaussian() for _ in range(8)] == fixture["seed2026_gaussian"]


def test_same_seed_reproduces_and_streams_differ():
    a = [PrngStream(42).next_u64() for _ in range(100)]
    b = [PrngStream(42).next_u64() for _ in range(100)]
    assert a == b
    c = [PrngStream(42, stream_id=1).next_u64() for _ in range(100)]
    assert a != c


def test_split_depends_only_on_seed_and_stream():
    parent = PrngStream(99)
    before = parent.split(3)
    for _ in range(50):
        parent.next_u64()
    after = parent.split(3)
    assert [before.next_u64() for _ in range(10)] == [after.next_u64() for _ in range(10)]


def test_split_children_are_distinct():
    parent = PrngStream(7)
    seqs = set()
    for child_id in range(100):
        child = parent.split(child_id)
        seqs.add(tuple(child.next_u64() for _ in range(4)))
    assert len(seqs) == 100


def test_uniform_range_and_moments():
    stream = PrngStream(11)
    draws = np.array([stream.uniform() for _ in range(200_000)])
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert abs(draws.mean() - 0.5) < 0.005
    assert abs(draws.var() - 1.0 / 12.0) < 0.002


def test_gaussian_moments_and_distribution():
    stream = PrngStream(12)
    draws = np.array([stream.gaussian() for _ in range(200_000)])
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.02
    # One-sample KS against the exact normal CDF; a fixed healthy seed
    # should sit far from the rejection region.
    stat, p = scipy.stats.kstest(draws[:20_000], "norm")
    assert p > 0.01


def test_parallel_streams_uncorrelated():
    n = 100_000
    a = PrngStream(5, stream_id=0)
    b = PrngStream(5, stream_id=1)
    xs = np.array([a.uniform() for _ in range(n)])
    ys = np.array([b.uniform() for _ in range(n)])
    r = np.corrcoef(xs, ys)[0, 1]
    assert abs(r) < 0.01


# ----------------------------------------------------------------------
# Block draws vs a scalar SplitMix64 oracle
# ----------------------------------------------------------------------

MASK64 = (1 << 64) - 1


def scalar_mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class ScalarSplitMix64:
    """One counter at a time: output k is the finalizer of ``state + k GAMMA``.

    Seeding, splitting, the uniform and the Box-Muller Gaussian follow the
    same recipe as ``PrngStream``, written out with Python integers and floats.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = seed & MASK64
        self.stream_id = stream_id & MASK64
        salted = (self.stream_id * 0xC2B2AE3D27D4EB4F + 1) & MASK64
        self.state = scalar_mix64(self.seed ^ scalar_mix64(salted))
        self.spare = None

    def split(self, child_id):
        child = scalar_mix64(((child_id & MASK64) + GAMMA) & MASK64)
        return ScalarSplitMix64(self.seed, scalar_mix64(self.stream_id ^ child))

    def next_u64(self):
        self.state = (self.state + GAMMA) & MASK64
        return scalar_mix64(self.state)

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussian(self):
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        radius = math.sqrt(-2.0 * math.log(1.0 - self.uniform()))
        angle = 2.0 * math.pi * self.uniform()
        self.spare = radius * math.sin(angle)
        return radius * math.cos(angle)


# Mixed call pattern: one u64, two uniforms and three Gaussians per cycle,
# so Box-Muller pairs straddle other calls and block edges.
CALL_CYCLE = ("next_u64", "gaussian", "uniform", "gaussian", "uniform", "gaussian")


def draw_mixed(stream, calls):
    return [getattr(stream, CALL_CYCLE[i % len(CALL_CYCLE)])() for i in range(calls)]


@pytest.mark.parametrize("lead", [255, 256, 257, 513])
def test_block_draws_match_scalar_oracle_across_block_edges(lead):
    stream, oracle = PrngStream(31, stream_id=4), ScalarSplitMix64(31, stream_id=4)
    assert [stream.next_u64() for _ in range(lead)] == [oracle.next_u64() for _ in range(lead)]
    assert draw_mixed(stream, 700) == draw_mixed(oracle, 700)


@pytest.mark.parametrize("start, zero_at", [(MASK64, None), ((-3 * GAMMA) & MASK64, 3),
                                            ((-255 * GAMMA) & MASK64, 255)])
def test_block_draws_match_scalar_oracle_where_the_counter_wraps(start, zero_at):
    # The counter passes 2^64 within the first block; from the last two
    # starts it lands exactly on 0, whose finalizer is 0.
    stream, oracle = PrngStream(0), ScalarSplitMix64(0)
    stream._state = oracle.state = start
    assert draw_mixed(stream, 600) == draw_mixed(oracle, 600)
    probe = PrngStream(0)
    probe._state = start
    block = [probe.next_u64() for _ in range(256)]
    assert (block.index(0) + 1 if 0 in block else None) == zero_at


class CountingOracle(ScalarSplitMix64):
    """The scalar generator, counting the outputs it has served."""

    served = 0

    def next_u64(self):
        self.served += 1
        return super().next_u64()


# Call mixes that start Gaussian pairs at even and odd distances from the
# start of a cached block, and draw uniforms or u64s between the two normals
# of a pair.
CALL_MIXES = {
    "uniform-after-one-normal": ("gaussian", "uniform"),
    "uniform-after-three-normals": ("gaussian", "gaussian", "gaussian", "uniform"),
    "u64s-after-two-normals": ("gaussian", "gaussian", "next_u64", "next_u64", "next_u64"),
    "normals-only": ("gaussian",),
    "two-normals-after-one-uniform": ("uniform", "gaussian", "gaussian"),
    "three-normals-after-one-u64": ("next_u64", "gaussian", "gaussian", "gaussian"),
}


@pytest.mark.parametrize("lead", [0, 1, 255])
@pytest.mark.parametrize("cycle", CALL_MIXES.values(), ids=CALL_MIXES)
def test_call_mixes_match_scalar_oracle(cycle, lead, monkeypatch):
    # The lead of u64 outputs moves the position the mix starts at.  The last
    # two mixes draw an odd number of outputs per cycle, which puts their
    # pairs an odd distance from the start of a cached block.  Each case
    # serves outputs across three block edges, computing each block once.
    blocks = 0
    block_uniforms = PrngStream._block_uniforms

    def counting_block_uniforms(self):
        nonlocal blocks
        blocks += 1
        return block_uniforms(self)

    monkeypatch.setattr(PrngStream, "_block_uniforms", counting_block_uniforms)
    stream, oracle = PrngStream(8, stream_id=2), CountingOracle(8, stream_id=2)
    assert [stream.next_u64() for _ in range(lead)] == [oracle.next_u64() for _ in range(lead)]
    calls = 2000
    draws = [getattr(stream, cycle[i % len(cycle)])() for i in range(calls)]
    assert draws == [getattr(oracle, cycle[i % len(cycle)])() for i in range(calls)]
    assert oracle.served >= 3 * _BLOCK + lead
    assert blocks <= math.ceil(oracle.served / _BLOCK) + 1
    # The stream goes on from the same position and waiting normal.
    assert draw_mixed(stream, 300) == draw_mixed(oracle, 300)


def test_split_before_and_after_draws_matches_scalar_oracle():
    parent, oracle = PrngStream(2026, stream_id=9), ScalarSplitMix64(2026, stream_id=9)
    before = parent.split(17)
    assert draw_mixed(parent, 300) == draw_mixed(oracle, 300)
    after = parent.split(17)
    expected = draw_mixed(oracle.split(17), 400)
    assert draw_mixed(before, 400) == expected
    assert draw_mixed(after, 400) == expected
    assert draw_mixed(parent, 300) == draw_mixed(oracle, 300)


# ----------------------------------------------------------------------
# Special functions vs scipy oracles
# ----------------------------------------------------------------------


def test_regularized_gamma_q_against_scipy():
    for a in (0.5, 1.0, 2.5, 10.0, 50.0):
        for x in (0.01, 0.5, 1.0, 3.0, 10.0, 80.0, 1e21, 1e300, math.inf):
            expected = scipy.stats.gamma.sf(x, a)
            assert regularized_gamma_q(a, x) == pytest.approx(expected, abs=1e-12, rel=1e-10)


def test_chi_squared_sf_against_scipy():
    for dof in (1, 2, 3, 5, 9, 20, 100):
        for x in (0.0, 0.5, 1.0, 4.0, 15.0, 60.0, 200.0, 1e21, 1e300, math.inf):
            expected = scipy.stats.chi2.sf(x, dof)
            assert chi_squared_sf(x, dof) == pytest.approx(expected, abs=1e-12, rel=1e-9)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: regularized_gamma_q(0.0, 1.0), "shape parameter"),
        (lambda: regularized_gamma_q(1.0, -1.0), "argument"),
        (lambda: chi_squared_sf(1.0, 0), "degrees of freedom"),
        (lambda: chi_squared_sf(-1.0, 1), "statistic"),
        (lambda: regularized_gamma_q(math.nan, 1.0), "shape parameter must be positive, got nan"),
        (lambda: regularized_gamma_q(1.0, math.nan), "argument must be non-negative, got nan"),
        (lambda: chi_squared_sf(math.nan, 1), "statistic must be non-negative, got nan"),
        (lambda: kolmogorov_sf(math.nan), "Kolmogorov statistic must be a number, got nan"),
    ],
    ids=[
        "gamma-shape", "gamma-argument", "chi-squared-dof", "chi-squared-statistic",
        "gamma-shape-nan", "gamma-argument-nan", "chi-squared-statistic-nan", "kolmogorov-nan",
    ],
)
def test_special_functions_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_standard_normal_cdf_against_scipy():
    xs = np.linspace(-8, 8, 101)
    expected = scipy.stats.norm.cdf(xs)
    got = np.array([standard_normal_cdf(x) for x in xs])
    assert np.allclose(got, expected, atol=1e-14, rtol=1e-12)


def scalar_normal_cdf(x):
    """The standard normal CDF of one float, on ``math`` alone."""
    return 0.5 * math.erfc(-x / math.sqrt(2))


def test_standard_normal_cdf_on_arrays_matches_the_scalar_formula():
    # Signed zeros, the smallest subnormal, tails where erfc underflows or
    # saturates, the float limit, and 1000 normals; each value bit for bit.
    special = [0.0, 5e-324, 1e-300, 8.0, 38.0, 40.0, 1e308]
    xs = np.array(special + [-v for v in special] + list(np.random.default_rng(8).normal(size=1000)))
    got = standard_normal_cdf(xs)
    assert got.dtype == np.float64 and got.shape == xs.shape
    expected = np.array([scalar_normal_cdf(x) for x in xs.tolist()])
    assert got.tobytes() == expected.tobytes()
    assert standard_normal_cdf(xs.reshape(2, -1)).tobytes() == expected.tobytes()
    assert [standard_normal_cdf(x) for x in special] == [scalar_normal_cdf(x) for x in special]


def test_kolmogorov_sf_against_scipy():
    for lam in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0):
        expected = scipy.stats.kstwobign.sf(lam)
        assert kolmogorov_sf(lam) == pytest.approx(expected, abs=1e-10)
    assert kolmogorov_sf(0.01) == pytest.approx(1.0)
    assert kolmogorov_sf(10.0) == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# KS test
# ----------------------------------------------------------------------


def test_ks_statistic_matches_scipy():
    np_rng = np.random.default_rng(3)
    sample = np_rng.normal(size=500)
    report = ks_test(sample, standard_normal_cdf)
    stat, p = scipy.stats.kstest(sample, "norm", mode="asymp")
    assert report.statistic == pytest.approx(stat, abs=1e-12)
    assert report.p_value == pytest.approx(p, rel=1e-6)
    assert report.sample_size == 500
    assert report.method == "ks-asymptotic"


def test_ks_detects_wrong_distribution():
    np_rng = np.random.default_rng(4)
    shifted = np_rng.normal(loc=0.7, size=400)
    report = ks_test(shifted, standard_normal_cdf)
    assert report.p_value < 1e-6


def test_ks_calibration_under_null():
    # p-values across independent replications of true-null data should
    # scatter over [0, 1] rather than bunching at either end.
    np_rng = np.random.default_rng(5)
    p_values = []
    for _ in range(300):
        sample = np_rng.uniform(size=80)
        p_values.append(ks_test(sample, lambda v: np.clip(v, 0.0, 1.0)).p_value)
    p_values = np.array(p_values)
    assert 0.40 < p_values.mean() < 0.60
    assert (p_values < 0.05).mean() < 0.12


def test_ks_requires_minimum_sample():
    with pytest.raises(DegenerateTestError, match="KS test needs at least 10 samples, got 9"):
        ks_test([0.1] * 9, standard_normal_cdf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ks_rejects_non_finite_samples(bad):
    with pytest.raises(DegenerateTestError, match="non-finite"):
        ks_test([bad] * 20, standard_normal_cdf)
    sample = list(np.random.default_rng(6).normal(size=50))
    sample[17] = bad
    with pytest.raises(DegenerateTestError, match="non-finite"):
        ks_test(sample, standard_normal_cdf)


def slow_ks_test(sample, cdf):
    """KS statistic and p-value, one numpy scalar and one cdf call at a time."""
    n = len(sample)
    ordered = sorted(float(v) for v in np.asarray(sample))
    d_stat = 0.0
    for i, value in enumerate(ordered):
        f = float(cdf(value))
        gap_high = (i + 1) / n - f
        gap_low = f - i / n
        if gap_high > d_stat:
            d_stat = gap_high
        if gap_low > d_stat:
            d_stat = gap_low
    return d_stat, kolmogorov_sf(math.sqrt(n) * d_stat)


def clipped_uniform_cdf(v):
    return np.clip(v, 0.0, 1.0)


def partly_undefined_cdf(v):
    # NaN above 0.7: the running maximum skips NaN gaps.
    return np.where(v > 0.7, math.nan, 0.9 * v)


def undefined_cdf(v):
    # Every gap is NaN, so the running maximum stays at its start, 0.0.
    return np.full(np.shape(v), math.nan)


@pytest.mark.parametrize("n", [10, 11, 257, 1000])
def test_ks_test_matches_element_loop(n):
    np_rng = np.random.default_rng(n)
    samples = (
        np_rng.normal(size=n),
        np_rng.standard_t(3, size=n) * 1.3 + 0.2,
        np.round(np_rng.normal(size=n), 1),  # many ties
        np_rng.choice([-0.0, 0.0, -1.0, 0.5, 1.0], size=n),  # signed-zero ties
        np_rng.uniform(size=n),
    )
    for sample in samples:
        for cdf in (standard_normal_cdf, clipped_uniform_cdf, partly_undefined_cdf, undefined_cdf):
            report = ks_test(sample, cdf)
            statistic, p_value = slow_ks_test(sample, cdf)
            assert (report.statistic, report.p_value) == (statistic, p_value)
            assert math.copysign(1.0, report.statistic) == math.copysign(1.0, statistic)


def test_ks_test_calls_its_cdf_once_on_the_sorted_sample():
    sample = np.random.default_rng(9).normal(size=50)
    calls = []

    def recording_cdf(values):
        calls.append(values.copy())
        return standard_normal_cdf(values)

    report = ks_test(list(sample), recording_cdf)
    assert len(calls) == 1 and calls[0].dtype == np.float64
    assert calls[0].tobytes() == np.sort(sample, kind="stable").tobytes()
    assert report == ks_test(sample, standard_normal_cdf)
    with pytest.raises(ValueError, match="one value per sample element"):
        ks_test(sample, lambda values: 0.5)
