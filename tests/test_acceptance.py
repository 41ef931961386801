"""Acceptance suite: one test per release criterion, one printed line each.

Each test prints `[criterion NN] PASS/FAIL - detail` directly to the terminal
(bypassing capture) and then asserts, so a full `pytest -v` run shows the
twelve verdicts inline.

Criterion 6 tests the back-solved wave-packet increments against the law the
boundary conditions leave them.  Read forward as a filter of the collapse
record, the recursion forgets its start within about 2/g; at g*T = 20 the
record fixes the end state to within exp(-gT/2).  Replayed from that end
state, two linear combinations of the back-solved increments are pinned by
the initial state rather than free: the exact covariance of the increments
has two eigenvalues of 1.6e-9 and 2.0e-4, and all others lie within 8.2e-4
of 1.  A KS test of all 1000 increments against N(0, dt) therefore reads
conservative (mean p 0.530; 20-bin chi2 78.9, p 2.8e-9 over 5000 runs); the
dynamics is not at fault.  The per-run statistic is the KS test of the 998
free coordinates (`projected_normality_test`), whose p-values must be uniform,
and every run's two pinned combinations must meet the values that the
initial state and the anchor fix them to.
"""

import itertools
import math
import os
import time

import numpy as np

from collapsim.cli import _fan_out, _lattice_batch_worker, _qmupl_batch_worker, _qmupl_config
from collapsim.lattice import (
    LatticeConfig,
    QuantumState,
    StochasticField,
    apply_jump,
    apply_vertex,
    conjugate,
    link_collapse_probability,
    normalize,
    occupancy_expectation,
    run_backward,
    run_forward,
    single_particle_state,
    vertex_columns,
)
from collapsim.lattice_analysis import pvalue_uniformity, reversal_chi_squared
from collapsim.qmupl import (
    QmuplConfig,
    ensemble_energy_curve,
    projected_normality_test,
    reverse_trajectory,
    simulate_forward,
)
from collapsim.retrodiction import (
    Distribution,
    MarkovModel,
    SelectionSpec,
    equilibrium_retrodiction,
    momentum_walk_demo,
    pinned_inference,
    retrodict,
    stationary,
)
from collapsim.stats import PrngStream, ks_test

from artifact_digests import SMALL_RUNS, digest_lines

BASE_SEED = 20260822
FULL_SCALE = os.environ.get("COLLAPSIM_ACCEPTANCE_FULL") == "1"


def report(capsys, number, passed, detail):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number:2d}] {status} - {detail}", flush=True)
    assert passed, f"criterion {number}: {detail}"


def uniform_cdf(x):
    return np.clip(x, 0.0, 1.0)


# ----------------------------------------------------------------------
# 1. Exact algebra
# ----------------------------------------------------------------------


def test_criterion_01_exact_algebra(capsys):
    started = time.perf_counter()
    np_rng = np.random.default_rng(BASE_SEED)
    n_columns = 6
    dim = 1 << n_columns
    worst_unitary = 0.0
    worst_povm = 0.0
    for _ in range(1000):
        amps = np_rng.normal(size=dim) + 1j * np_rng.normal(size=dim)
        state = normalize(QuantumState(amps))
        theta = np_rng.uniform(0.0, 2.0 * math.pi)
        x = np_rng.uniform(0.0, 1.0)
        column = int(np_rng.integers(1, n_columns))
        turned = apply_vertex(state, column, theta)
        worst_unitary = max(worst_unitary, abs(turned.norm_squared - 1.0))
        kept = apply_jump(state, column, 1, x).norm_squared
        dropped = apply_jump(state, column, 0, x).norm_squared
        worst_povm = max(worst_povm, abs(kept + dropped - 1.0))

    # Particle number is conserved exactly: a one-particle state never leaks
    # amplitude into other occupation sectors, not even at rounding level.
    config = LatticeConfig(n_columns=6, collapse_x=0.5, theta=math.pi / 4, steps=10)
    record, final = run_forward(config, single_particle_state(6, 3), PrngStream(3))
    weights = np.abs(final.amplitudes) ** 2
    leak = max(
        (
            float(weights[index])
            for index in range(dim)
            if index.bit_count() != 1
        ),
        default=0.0,
    )
    elapsed = time.perf_counter() - started
    passed = worst_unitary < 1e-12 and worst_povm < 1e-12 and leak == 0.0 and elapsed < 1.0
    report(
        capsys, 1, passed,
        f"vertex unitarity {worst_unitary:.1e}, jump completeness {worst_povm:.1e} "
        f"over 1000 draws; sector leak {leak}; {elapsed:.2f} s",
    )


# ----------------------------------------------------------------------
# 2. Small-lattice brute force
# ----------------------------------------------------------------------


def test_criterion_02_sampling_matches_unnormalized_norm(capsys):
    started = time.perf_counter()
    config = LatticeConfig(n_columns=4, collapse_x=0.5, theta=math.pi / 4, steps=2)
    initial = single_particle_state(4, 2)
    links = []
    for t in range(config.steps):
        for k in range(1, config.n_vertices + 1):
            left, right = vertex_columns(t, k, config.n_vertices)
            links.append((t, k, left, right))

    worst = 0.0
    total = 0.0
    for bits in itertools.product((0, 1), repeat=2 * len(links)):
        sampled = initial
        raw = initial
        product = 1.0
        position = 0
        for t, k, left, right in links:
            sampled = apply_vertex(sampled, left, config.theta)
            raw = apply_vertex(raw, left, config.theta)
            for column in (left, right):
                alpha = bits[position]
                position += 1
                p_one = link_collapse_probability(sampled, column, config.collapse_x)
                product *= p_one if alpha else 1.0 - p_one
                sampled = normalize(
                    apply_jump(sampled, column, alpha, config.collapse_x)
                )
                raw = apply_jump(raw, column, alpha, config.collapse_x)
        worst = max(worst, abs(product - raw.norm_squared))
        total += raw.norm_squared
    elapsed = time.perf_counter() - started
    passed = worst < 1e-10 and abs(total - 1.0) < 1e-10 and elapsed < 10.0
    report(
        capsys, 2, passed,
        f"256 field histories: worst product-vs-norm gap {worst:.1e}, "
        f"total probability deviates {abs(total - 1.0):.1e}; {elapsed:.1f} s",
    )


# ----------------------------------------------------------------------
# 3. Jump-free reversal at full width
# ----------------------------------------------------------------------


def test_criterion_03_jump_free_backward_recovery(capsys):
    started = time.perf_counter()
    config = LatticeConfig(n_columns=16, collapse_x=1.0, theta=math.pi / 4, steps=100)
    initial = single_particle_state(16, 11)
    record, final = run_forward(config, initial, PrngStream(BASE_SEED))
    _, recovered = run_backward(config, record.field, conjugate(final))
    worst = max(
        abs(occupancy_expectation(recovered, i) - occupancy_expectation(initial, i))
        for i in range(1, 17)
    )
    elapsed = time.perf_counter() - started
    passed = worst < 1e-10 and elapsed < 5.0
    report(
        capsys, 3, passed,
        f"initial occupancy recovered to {worst:.1e} at width 16; {elapsed:.1f} s",
    )


# ----------------------------------------------------------------------
# 4. Lattice batch p-value uniformity
# ----------------------------------------------------------------------


def test_criterion_04_lattice_pvalues_uniform(capsys):
    started = time.perf_counter()
    if FULL_SCALE:
        lattice_n, steps, label = 16, 100, "full scale"
    else:
        lattice_n, steps, label = 10, 60, "desk scale"
    params = {
        "seed": BASE_SEED,
        "runs": 500,
        "workers": 8,  # _fan_out caps the pool at the CPU count
        "lattice_n": lattice_n,
        "collapse_x": 0.5,
        "theta": math.pi / 4,
        "steps": steps,
        "initial": "particle",
        "particle_column": 11 if lattice_n == 16 else lattice_n // 2 + 1,
    }
    results = _fan_out(_lattice_batch_worker, params)
    p_values = np.array([r[3] for r in results if r[3] is not None])
    ks = ks_test(p_values, uniform_cdf)
    low_fraction = float((p_values < 0.05).mean())
    elapsed = time.perf_counter() - started
    passed = (
        p_values.size >= 450
        and ks.p_value > 0.01
        and 0.03 <= low_fraction <= 0.08
        and (elapsed < 1800.0 or not FULL_SCALE)
    )
    report(
        capsys, 4, passed,
        f"{label}, {p_values.size}/500 runs scored: KS p={ks.p_value:.3f}, "
        f"fraction below 0.05 = {low_fraction:.3f}; {elapsed:.0f} s",
    )


# ----------------------------------------------------------------------
# 5. Calibration and power of the comparison test
# ----------------------------------------------------------------------


def test_criterion_05_null_calibration_and_shift_power(capsys):
    started = time.perf_counter()
    np_rng = np.random.default_rng(BASE_SEED)
    null_p = np.empty(1000)
    for i in range(1000):
        probs = np_rng.uniform(0.1, 0.9, size=500)
        alpha = (np_rng.uniform(size=500) < probs).astype(np.uint8)
        null_p[i] = reversal_chi_squared(
            StochasticField(alpha.reshape(50, 10)), probs.reshape(50, 10)
        ).p_value
    ks = ks_test(null_p, uniform_cdf)

    rejections = 0
    replications = 200
    for _ in range(replications):
        probs = np_rng.uniform(0.2, 0.7, size=10_000)
        alpha = (np_rng.uniform(size=10_000) < probs).astype(np.uint8)
        shifted = np.clip(probs + 0.1, 0.0, 1.0)
        rep = reversal_chi_squared(
            StochasticField(alpha.reshape(100, 100)), shifted.reshape(100, 100)
        )
        rejections += rep.p_value < 0.005
    power = rejections / replications
    elapsed = time.perf_counter() - started
    passed = ks.p_value > 0.01 and power > 0.9
    report(
        capsys, 5, passed,
        f"null KS p={ks.p_value:.3f} over 1000 replications; "
        f"+0.1 shift power {power:.3f} at 0.5% with 10^4 events; {elapsed:.0f} s",
    )


# ----------------------------------------------------------------------
# 6. Wave-packet batch p-value uniformity
# ----------------------------------------------------------------------

# A lawful back-solve meets its pinned values to rounding (below 1e-12 here).
PINNED_TOLERANCE = 1e-9


def wavepacket_runs(task):
    """A range of runs of the qmupl-batch stream: (projected KS p-value, pinned gap) each."""
    start, stop, seed, params = task
    config = _qmupl_config(params)
    root = PrngStream(seed)
    forward = [simulate_forward(config, root.split(index)) for index in range(start, stop)]
    x_n = np.array([trajectory.x[-1] for trajectory in forward])
    p_n = np.array([trajectory.p[-1] for trajectory in forward])
    back = reverse_trajectory(np.array([trajectory.z for trajectory in forward]), x_n, p_n, config)
    rows = []
    for increments, x_end, p_end in zip(back.dB, x_n, p_n):
        result = projected_normality_test(increments, x_end, p_end, config)
        rows.append((result.free.p_value, result.pinned_gap))
    return rows


wavepacket_runs.range_cap = _qmupl_batch_worker.range_cap


def test_criterion_06_wavepacket_pvalues_uniform(capsys):
    started = time.perf_counter()
    params = {
        "seed": BASE_SEED,
        "runs": 5000,
        "workers": 8,
        "g": 20.0,
        "mass": 1.0,
        "dt": 0.001,
        "n_steps": 1000,
    }
    results = _fan_out(wavepacket_runs, params)
    p_values = np.array([p_value for p_value, _ in results])
    worst_gap = max(gap for _, gap in results)
    uniformity = pvalue_uniformity(p_values)
    chi = uniformity.chi_squared
    elapsed = time.perf_counter() - started
    passed = (
        p_values.size == 5000
        and uniformity.bin_count == 20
        and chi.p_value > 0.01
        and worst_gap < PINNED_TOLERANCE
        and elapsed < 300.0
    )
    report(
        capsys, 6, passed,
        f"5000 runs: 20-bin uniformity chi2={chi.statistic:.1f}, "
        f"p={chi.p_value:.2e} (mean p-value {p_values.mean():.3f}); "
        f"worst pinned gap {worst_gap:.1e}; {elapsed:.0f} s",
    )


# ----------------------------------------------------------------------
# 7. Noise-free reversal fixed point
# ----------------------------------------------------------------------


def test_criterion_07_noise_free_fixed_point(capsys):
    config = QmuplConfig(g=20.0, m=1.0, dt=0.001, n=1000, x0=0.3, p0=0.0)
    trajectory = simulate_forward(config, PrngStream(1), increments=np.zeros(1000))
    back = reverse_trajectory(trajectory.z, trajectory.x[-1], trajectory.p[-1], config)
    worst = max(
        float(np.abs(back.x - trajectory.x).max()),
        float(np.abs(back.p + trajectory.p).max()),
        float(np.abs(back.dB).max()),
    )
    passed = worst < 1e-12
    report(capsys, 7, passed, f"round trip deviates by {worst:.1e}")


# ----------------------------------------------------------------------
# 8. Momentum diffusion law
# ----------------------------------------------------------------------


def test_criterion_08_energy_growth_law(capsys):
    started = time.perf_counter()
    config = QmuplConfig(g=20.0, m=1.0, dt=0.001, n=1000, x0=0.0, p0=0.0)
    curve = ensemble_energy_curve(config, 1000, PrngStream(BASE_SEED))
    gap = abs(curve.mean_p_squared[-1] - 100.0)
    limit = 3.0 * curve.standard_error[-1]
    elapsed = time.perf_counter() - started
    passed = gap < limit and elapsed < 60.0
    report(
        capsys, 8, passed,
        f"mean p^2(t=1) = {curve.mean_p_squared[-1]:.2f} vs 100 "
        f"(3 SE = {limit:.2f}) over 1000 runs; {elapsed:.0f} s",
    )


# ----------------------------------------------------------------------
# 9. Correlation signature of the reversal
# ----------------------------------------------------------------------


def test_criterion_09_correlation_signature(capsys):
    config = QmuplConfig(g=20.0, m=1.0, dt=0.001, n=1000)
    trajectory = simulate_forward(config, PrngStream(5))
    noise = np.diff(trajectory.x) - (trajectory.p[:-1] / config.m) * config.dt
    forward_corr = float(np.corrcoef(noise, np.diff(trajectory.p))[0, 1])

    x_flip = trajectory.x[::-1]
    p_flip = -trajectory.p[::-1]
    noise_flip = np.diff(x_flip) - (p_flip[:-1] / config.m) * config.dt
    flip_corr = float(np.corrcoef(noise_flip, np.diff(p_flip))[0, 1])

    back = reverse_trajectory(trajectory.z, trajectory.x[-1], trajectory.p[-1], config)
    noise_back = back.x[:-1] - back.x[1:] - (back.p[1:] / config.m) * config.dt
    back_corr = float(np.corrcoef(noise_back, back.p[:-1] - back.p[1:])[0, 1])

    passed = forward_corr > 0.99 and flip_corr < -0.99 and back_corr > 0.99
    report(
        capsys, 9, passed,
        f"noise/momentum-step correlation: forward {forward_corr:+.4f}, "
        f"naive flip {flip_corr:+.4f}, back-solved {back_corr:+.4f}",
    )


# ----------------------------------------------------------------------
# 10. Markov inference vs path enumeration
# ----------------------------------------------------------------------


def path_tensor(kernel, steps):
    """joint[i0, i1, ..., i_steps] = product of kernel entries along the path."""
    hop = kernel.T  # hop[a, b] = transition probability a -> b
    strings = {
        2: "ab,bc->abc",
        3: "ab,bc,cd->abcd",
        4: "ab,bc,cd,de->abcde",
    }
    return np.einsum(strings[steps], *([hop] * steps))


def test_criterion_10_enumeration_oracle(capsys):
    started = time.perf_counter()
    np_rng = np.random.default_rng(BASE_SEED)
    worst_retro = 0.0
    worst_smooth = 0.0
    worst_post = 0.0
    worst_columns = 0.0
    worst_balance = 0.0
    for draw in range(1000):
        n = 2 + draw % 3
        raw = np_rng.random((n, n)) + 0.02
        model = MarkovModel(tuple(range(n)), raw / raw.sum(axis=0))

        prior = np_rng.dirichlet(np.ones(n))
        joint = model.kernel * prior[None, :]
        for j in range(n):
            mass = joint[j].sum()
            if mass <= 0.0:
                continue
            got = retrodict(model, Distribution(prior), j).probabilities
            worst_retro = max(worst_retro, np.abs(got - joint[j] / mass).max())

        for tf in (2, 3, 4):
            joint_paths = path_tensor(model.kernel, tf)
            for t1 in range(1, tf):
                # Marginalize every interior time except t1.
                keep = (0, t1, tf)
                axes = tuple(a for a in range(tf + 1) if a not in keep)
                table = joint_paths.sum(axis=axes)  # [s0, i, j]
                for s0 in range(n):
                    for j in range(n):
                        weights = table[s0, :, j]
                        mass = weights.sum()
                        if mass <= 0.0:
                            continue
                        smooth = pinned_inference(
                            model, SelectionSpec(0, s0), SelectionSpec(tf, j), t1
                        ).probabilities
                        worst_smooth = max(
                            worst_smooth, np.abs(smooth - weights / mass).max()
                        )
                        post = pinned_inference(
                            model, SelectionSpec(-tf, s0), SelectionSpec(0, j), t1 - tf
                        ).probabilities
                        # Same path set read with the selection at the late
                        # end: condition on ending at j, observe s0 earlier.
                        worst_post = max(
                            worst_post, np.abs(post - weights / mass).max()
                        )

        if draw % 10 == 0:
            pi = stationary(model)
            reverse = equilibrium_retrodiction(model, pi)
            worst_columns = max(
                worst_columns, float(np.abs(reverse.sum(axis=0) - 1.0).max())
            )
            weight = np_rng.random((n, n)) + 0.1
            weight = weight + weight.T
            balanced = MarkovModel(tuple(range(n)), weight / weight.sum(axis=0))
            balance_pi = Distribution(weight.sum(axis=0) / weight.sum())
            self_reverse = equilibrium_retrodiction(balanced, balance_pi)
            worst_balance = max(
                worst_balance, float(np.abs(self_reverse - balanced.kernel).max())
            )
    elapsed = time.perf_counter() - started
    passed = (
        worst_retro < 1e-12
        and worst_smooth < 1e-12
        and worst_post < 1e-12
        and worst_columns < 1e-12
        and worst_balance < 1e-12
    )
    report(
        capsys, 10, passed,
        f"1000 kernels, horizons to 4: retrodiction {worst_retro:.1e}, "
        f"smoothing {worst_smooth:.1e}, post-selection {worst_post:.1e}, "
        f"column sums {worst_columns:.1e}, detailed balance {worst_balance:.1e}; "
        f"{elapsed:.0f} s",
    )


# ----------------------------------------------------------------------
# 11. Boundary conditions set the energy arrow
# ----------------------------------------------------------------------


def test_criterion_11_selection_sets_energy_direction(capsys):
    started = time.perf_counter()
    pre = momentum_walk_demo(40, 0.5, 60, 20000, "pre", PrngStream(BASE_SEED))
    slope, intercept = np.polyfit(pre.times, pre.mean_energy, 1)
    linear = abs(slope - 0.25) < 0.01 and abs(intercept) < 0.2

    post = momentum_walk_demo(40, 0.5, 60, 20000, "post", PrngStream(BASE_SEED + 1))
    increases = np.diff(post.mean_energy)
    slack = 2.0 * np.hypot(post.standard_error[1:], post.standard_error[:-1])
    monotone = bool((increases <= slack).all())
    settles = post.mean_energy[-1] <= 0.5 + 2.0 * post.standard_error[-1]
    elapsed = time.perf_counter() - started
    passed = linear and monotone and settles
    report(
        capsys, 11, passed,
        f"pre slope {slope:.3f} (target 0.25); post monotone within 2 SE: {monotone}, "
        f"final energy {post.mean_energy[-1]:.3f} with {post.survivors} survivors; "
        f"{elapsed:.0f} s",
    )


# ----------------------------------------------------------------------
# 12. Determinism of every experiment
# ----------------------------------------------------------------------


def test_criterion_12_byte_identical_replay(capsys, tmp_path):
    # Two digest listings of the small runs at one seed; a run that does not
    # exit 0 stops the listing with its experiment's name.
    try:
        listings = [digest_lines(["123"], tmp_path / attempt) for attempt in ("a", "b")]
    except SystemExit as exc:
        report(capsys, 12, False, str(exc))
    differing = set(listings[0]) ^ set(listings[1])
    mismatched = [name for name in SMALL_RUNS if any(f"/{name}/" in line for line in differing)]
    passed = not mismatched
    report(
        capsys, 12, passed,
        "all six experiments replay byte-identically"
        if passed
        else f"non-identical replays: {', '.join(mismatched)}",
    )
