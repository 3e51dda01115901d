"""Density-matrix simulator for cat states of small spin-1/2 clusters.

The package covers the full life cycle of a highest-order coherence
experiment on a dense register: pseudopure preparation, cat-state
creation, entanglement with a control spin, configurable decoherence
(closed-form channels or Monte Carlo phase kicks), and
information-conditioned recovery, plus coherence-order bookkeeping,
decay fitting, and linear-response spectra.
"""

from .analysis import (
    DecayFit,
    FitError,
    RegressionResult,
    fit_exponential,
    linear_regression,
    scaling_study,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .dynamics import (
    Coupling,
    NoiseModel,
    Pulse,
    SpinSystem,
    apply_dephasing,
    apply_flip_relaxation,
    apply_phase_kicks_mc,
    apply_pulse,
    apply_unitary,
    build_hamiltonian,
    controlled_not_all,
    dephasing_rate_for_lifetime,
    evolve,
    flip_rate_for_lifetime,
)
from .operators import (
    partial_trace,
    propagator,
    single_spin_operator,
    total_spin_operator,
)
from .protocol import (
    ProtocolConfig,
    ProtocolReport,
    StepRecord,
    measure_diagonal_decay,
    measure_nq_decay,
    run_protocol,
)
from .spectra import Peak, Spectrum, linear_response_spectrum, peak_list
from .states import (
    CatWeights,
    DensityMatrix,
    StateInvariantError,
    cat_state,
    coherence_orders,
    decohered_mixture,
    ferro_state,
    fidelity,
    nq_amplitude,
    pseudopure,
    purity,
    reduced_state,
    thermal_state,
    von_neumann_entropy,
)

__version__ = "0.1.0"
