"""Loss-tolerant phase-error-rate estimation and key-rate simulation for QKD.

Subpackages:
    qstate      qubit states, Pauli/Bloch algebra, source and virtual states
    estimator   linear-system recovery of transmission rates and error rates
    channel     analytic fiber model (loss, dark counts, gains, error rates)
    keyrate     binary entropy, secret key rate, intensity optimization, sweeps
    montecarlo  event-level i.i.d. simulation and statistical estimation
    cli         command-line interface
"""

from .channel import ChannelParams, ZStats, conditional_virtual_yields, single_photon_stats, transmittance, zbasis_stats
from .errors import (
    InconsistentYieldsError,
    PlanarityError,
    UndefinedRateError,
    ValidationError,
    WellPosednessError,
)
from .estimator import (
    ConditioningReport,
    TransmissionFunctional,
    TwoQubitFunctional,
    YieldTable,
    check_well_posed,
    mdi_phase_error,
    mdi_solve,
    phase_error_three_state,
    phase_error_virtual,
    predict_yield,
    solve_functional,
    solve_functionals,
)
from .keyrate import (
    OptimizeResult,
    SweepTable,
    binary_entropy,
    optimize_alpha,
    secret_key_rate,
    sweep,
)
from .montecarlo import (
    BobPovm,
    FiberExperiment,
    KrausChannel,
    OutcomeMixer,
    TrialEstimate,
    TrialRecord,
    dark_count_mixer,
    estimate_from_trial,
    exact_yields,
    fiber_experiment,
    random_channel,
    random_povm,
    run_protocol,
)
from .qstate import (
    BlochVector,
    QubitState,
    SourceSet,
    VirtualEnsemble,
    basis_state,
    bloch_to_density,
    encode_single_photon,
    four_state_sources,
    modulated_three_state_sources,
    pauli_decompose,
    three_state_sources,
    virtual_amplitudes,
    virtual_states_from_purification,
    virtual_states_planar,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector", "BobPovm", "ChannelParams", "ConditioningReport",
    "FiberExperiment", "InconsistentYieldsError", "KrausChannel",
    "OptimizeResult", "OutcomeMixer", "PlanarityError", "QubitState",
    "SourceSet", "SweepTable", "TransmissionFunctional", "TrialEstimate",
    "TrialRecord", "TwoQubitFunctional", "UndefinedRateError",
    "ValidationError", "VirtualEnsemble", "WellPosednessError", "YieldTable",
    "ZStats", "basis_state", "binary_entropy", "bloch_to_density",
    "check_well_posed", "conditional_virtual_yields",
    "dark_count_mixer", "encode_single_photon", "estimate_from_trial",
    "exact_yields", "fiber_experiment", "four_state_sources",
    "mdi_phase_error", "mdi_solve", "modulated_three_state_sources",
    "optimize_alpha", "pauli_decompose", "phase_error_three_state",
    "phase_error_virtual", "predict_yield", "random_channel", "random_povm",
    "run_protocol", "secret_key_rate", "single_photon_stats",
    "solve_functional", "solve_functionals", "sweep", "three_state_sources", "transmittance",
    "virtual_amplitudes", "virtual_states_from_purification",
    "virtual_states_planar", "zbasis_stats",
]
