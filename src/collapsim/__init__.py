"""Simulation and analysis of time-symmetric stochastic collapse dynamics.

Subpackages by theme:

* :mod:`collapsim.lattice` — discrete light-cone lattice: dense many-column
  quantum state, brickwork scattering vertices, stochastic collapse jumps,
  matched forward and backward passes.
* :mod:`collapsim.lattice_analysis` — statistics of lattice runs: vacuum
  noise of the block-averaged field, the chi-squared calibration test
  comparing a recorded field against backward-pass probabilities, and the
  uniformity check over many runs' p-values.
* :mod:`collapsim.qmupl` — continuous wave-packet collapse: forward Euler
  trajectories and exact back-solved reversals, one trajectory type for
  both, and ensemble energy growth.
* :mod:`collapsim.retrodiction` — finite Markov chains: Bayesian
  retrodiction, equilibrium reverse kernels, one two-point conditioning rule
  for both time directions, and the pre-/post-selected momentum-walk
  demonstration.
* :mod:`collapsim.stats` — deterministic splittable PRNG and the special
  functions behind the KS and chi-squared reports.
* :mod:`collapsim.output` / :mod:`collapsim.cli` — artifact emission (CSV,
  PGM, manifest) and the experiment runner.
"""

from .errors import (
    CollapsimError,
    ConditioningError,
    ConfigError,
    DegenerateTestError,
    DimensionError,
    InvalidStateError,
    NoUniqueEquilibriumError,
    ResampleExhaustedError,
)
from .lattice import (
    LatticeConfig,
    LatticeRunRecord,
    QuantumState,
    StochasticField,
    run_backward,
    run_forward,
    single_particle_state,
)
from .lattice_analysis import (
    ChiSquaredReport,
    UniformityReport,
    pvalue_uniformity,
    reversal_chi_squared,
)
from .qmupl import (
    QmuplConfig,
    WavePacketTrajectory,
    ensemble_energy_curve,
    reverse_trajectory,
    simulate_forward,
)
from .retrodiction import (
    Distribution,
    MarkovModel,
    SelectionSpec,
    equilibrium_retrodiction,
    evolve,
    momentum_walk_demo,
    pinned_inference,
    retrodict,
    stationary,
)
from .stats import PrngStream, TestReport, ks_test

__version__ = "0.1.0"

__all__ = [
    "ChiSquaredReport",
    "CollapsimError",
    "ConditioningError",
    "ConfigError",
    "DegenerateTestError",
    "DimensionError",
    "Distribution",
    "InvalidStateError",
    "LatticeConfig",
    "LatticeRunRecord",
    "MarkovModel",
    "NoUniqueEquilibriumError",
    "PrngStream",
    "QmuplConfig",
    "QuantumState",
    "ResampleExhaustedError",
    "SelectionSpec",
    "StochasticField",
    "TestReport",
    "UniformityReport",
    "WavePacketTrajectory",
    "__version__",
    "ensemble_energy_curve",
    "equilibrium_retrodiction",
    "evolve",
    "ks_test",
    "momentum_walk_demo",
    "pinned_inference",
    "pvalue_uniformity",
    "retrodict",
    "reversal_chi_squared",
    "reverse_trajectory",
    "run_backward",
    "run_forward",
    "simulate_forward",
    "single_particle_state",
    "stationary",
]
