"""Loss-tolerant phase-error-rate estimation and key-rate simulation for QKD.

Modules:
    qstate      qubit states, Pauli/Bloch algebra, source and virtual states
    estimator   linear-system recovery of transmission rates and error rates
    channel     analytic fiber model (loss, dark counts, gains, error rates)
    keyrate     binary entropy, secret key rate, intensity optimization, sweeps
    montecarlo  event-level i.i.d. simulation and statistical estimation
    cli         command-line interface

``import qkdkit`` loads none of them.  A name of ``__all__`` resolves when
it is accessed, by importing only the module that defines it: a program
that uses the estimator never loads the sampler, the fiber model or the
key-rate code.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "channel": ("ChannelParams", "ZStats", "conditional_virtual_yields", "single_photon_stats",
                "transmittance", "zbasis_stats"),
    "errors": ("InconsistentYieldsError", "PlanarityError", "UndefinedRateError",
               "ValidationError", "WellPosednessError"),
    "estimator": ("ConditioningReport", "TransmissionFunctional", "TwoQubitFunctional",
                  "YieldTable", "check_well_posed", "mdi_phase_error", "mdi_solve",
                  "phase_error_three_state", "phase_error_virtual", "predict_yield",
                  "solve_functional", "solve_functionals"),
    "keyrate": ("OptimizeResult", "SweepTable", "binary_entropy", "optimize_alpha",
                "secret_key_rate", "sweep"),
    "montecarlo": ("BobPovm", "FiberExperiment", "KrausChannel", "OutcomeMixer",
                   "TrialEstimate", "TrialRecord", "dark_count_mixer", "estimate_from_trial",
                   "exact_yields", "fiber_experiment", "random_channel", "random_povm",
                   "run_protocol"),
    "qstate": ("BlochVector", "QubitState", "SourceSet", "VirtualEnsemble", "basis_state",
               "bloch_to_density", "encode_single_photon", "four_state_sources",
               "modulated_three_state_sources", "pauli_decompose", "three_state_sources",
               "virtual_amplitudes", "virtual_states_from_purification",
               "virtual_states_planar"),
}
#: the module that defines each public name
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

#: every public class and function, sorted
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, read from its module on every access (not cached here),
    so that a name replaced in its module reads the same through the package."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
