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

#: every class and function imported above, sorted
__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith(__name__ + "."))
