"""Ensemble-level analysis of lattice runs.

Two concerns live here:

* the Gaussian noise statistics of the block-averaged field over a vacuum
  region;

* the reverse-time calibration test: binned chi-squared comparison of
  realized field values against the link probabilities recorded by a
  backward run, plus a uniformity check over many runs' p-values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateTestError, DimensionError
from .lattice import StochasticField
from .stats import TestReport, chi_squared_sf, ks_test

# Bins with fewer expected successes or failures than this are dropped
# before the chi-squared sum (normal-approximation screen).
NORMAL_SCREEN_MINIMUM = 5.0

# ======================================================================
# Vacuum noise
# ======================================================================


@dataclass(frozen=True)
class NoiseStats:
    """Mean and variance of the block-averaged field over a vacuum region."""

    mu: float
    sigma_squared: float


def vacuum_noise_stats(x: float, block_size: int) -> NoiseStats:
    """Noise statistics of the mean field over ``block_size`` vacuum links.

    Each vacuum link is an independent Bernoulli draw with success weight
    X^2 / (1 + X^2), so the block mean has that mean and variance
    X^2 / (block_size (1 + X^2)^2).
    """
    if not 0.0 <= x <= 1.0:
        raise ConfigError(f"collapse_x must lie in [0, 1], got {x}")
    if block_size < 1:
        raise ConfigError(f"block_size must be >= 1, got {block_size}")
    weight = x * x / (1.0 + x * x)
    return NoiseStats(mu=weight, sigma_squared=x * x / (block_size * (1.0 + x * x) ** 2))


# ======================================================================
# Reverse-time calibration test
# ======================================================================


@dataclass(frozen=True)
class _Bins:
    """Probability bins on [0, 1], given by their interior boundaries."""

    boundaries: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.boundaries) + 1


DEFAULT_BINS = _Bins(tuple(i / 10 for i in range(1, 10)))


@dataclass(frozen=True)
class BinDiagnostics:
    lower: float
    upper: float
    events: int
    ones: int
    mean_probability: float
    expected_ones: float
    variance: float
    retained: bool


@dataclass(frozen=True)
class ChiSquaredReport:
    statistic: float
    dof: int
    p_value: float
    bins: tuple[BinDiagnostics, ...]
    events_total: int
    events_retained: int


def reversal_chi_squared(
    field: StochasticField, reverse_probabilities: np.ndarray
) -> ChiSquaredReport:
    """Score realized field values against reverse-run link probabilities.

    Links are pooled over the whole run and grouped into ``DEFAULT_BINS`` by
    their reverse-time probability of ``alpha = 1``.  Within bin j, with m_j
    events whose mean probability is pbar_j, the observed count of ones n_j
    is compared to a normal with mean m_j pbar_j and variance
    m_j pbar_j (1 - pbar_j); bins failing the normal screen (expected ones or
    zeros below ``NORMAL_SCREEN_MINIMUM``) are dropped.  The statistic sums the squared
    standardized residuals of the retained bins and is referred to a
    chi-squared distribution with one degree of freedom per retained bin.
    """
    probs = np.asarray(reverse_probabilities, dtype=float)
    if probs.shape != field.alpha.shape:
        raise DimensionError(
            f"probabilities shape {probs.shape} does not match field shape {field.alpha.shape}"
        )
    if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):
        raise ConfigError("probabilities must lie in [0, 1]")
    flat_p = probs.ravel()
    flat_alpha = field.alpha.ravel().astype(np.int64)
    bins = DEFAULT_BINS
    assignment = np.searchsorted(np.asarray(bins.boundaries), flat_p, side="right")

    events = np.bincount(assignment, minlength=bins.count)
    ones = np.bincount(assignment, weights=flat_alpha, minlength=bins.count)
    prob_sums = np.bincount(assignment, weights=flat_p, minlength=bins.count)

    all_edges = (0.0,) + bins.boundaries + (1.0,)
    diagnostics = []
    statistic = 0.0
    dof = 0
    retained_events = 0
    for j in range(bins.count):
        m = int(events[j])
        n = int(ones[j])
        pbar = prob_sums[j] / m if m else 0.0
        mu = prob_sums[j]  # = m * pbar without re-rounding
        variance = m * pbar * (1.0 - pbar)
        keep = mu >= NORMAL_SCREEN_MINIMUM and (m - mu) >= NORMAL_SCREEN_MINIMUM
        if keep:
            statistic += (n - mu) ** 2 / variance
            dof += 1
            retained_events += m
        diagnostics.append(
            BinDiagnostics(
                lower=all_edges[j],
                upper=all_edges[j + 1],
                events=m,
                ones=n,
                mean_probability=pbar,
                expected_ones=mu,
                variance=variance,
                retained=keep,
            )
        )
    if dof == 0:
        raise DegenerateTestError(
            "no probability bin passed the normal-approximation screen; "
            f"total events = {flat_p.size}"
        )
    return ChiSquaredReport(
        statistic=statistic,
        dof=dof,
        p_value=chi_squared_sf(statistic, dof),
        bins=tuple(diagnostics),
        events_total=int(flat_p.size),
        events_retained=retained_events,
    )


@dataclass(frozen=True)
class UniformityReport:
    """Two-pronged check that a p-value sample is Uniform[0, 1]."""

    chi_squared: TestReport
    ks: TestReport
    bin_counts: np.ndarray
    bin_count: int


def pvalue_uniformity(p_values: Sequence[float]) -> UniformityReport:
    """Chi-squared and KS uniformity tests on a sample of p-values.

    The chi-squared test bins ``n`` values into 20 equal bins from
    ``n = 100`` on and into ``max(2, n // 10)`` below, so every bin expects
    at least 5 values.
    """
    values = np.asarray(p_values, dtype=float)
    if values.ndim != 1 or values.size < 10:
        raise DegenerateTestError(f"need at least 10 p-values, got shape {values.shape}")
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ConfigError("p-values must lie in [0, 1]")
    bin_count = 20 if values.size >= 100 else max(2, values.size // 10)
    expected = values.size / bin_count
    slots = np.minimum((values * bin_count).astype(np.int64), bin_count - 1)
    counts = np.bincount(slots, minlength=bin_count)
    chi = float(((counts - expected) ** 2 / expected).sum())
    chi_report = TestReport(
        statistic=chi,
        p_value=chi_squared_sf(chi, bin_count - 1),
        sample_size=int(values.size),
        method=f"chi-squared-uniformity-{bin_count}-bins",
    )
    ks_report = ks_test(values, lambda v: np.clip(v, 0.0, 1.0))
    return UniformityReport(
        chi_squared=chi_report, ks=ks_report, bin_counts=counts, bin_count=bin_count
    )
