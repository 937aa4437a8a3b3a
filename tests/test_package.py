"""The package's names, resolved on first access, and the library's rules for
a value of the wrong Python type and for a complex scalar or an array where a
number belongs."""

import importlib
import warnings
from pathlib import Path

import numpy as np
import pytest

import qkdkit as qk
from qkdkit import cli, estimator
from qkdkit.errors import ValidationError

DATA = Path(__file__).parent / "data"


def test_every_public_name_is_its_modules_object():
    for name in qk.__all__:
        value = getattr(qk, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert set(qk.__all__) <= set(dir(qk))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'qkdkit' has no attribute 'sampler'$"):
        qk.sampler
    assert not hasattr(qk, "DEFAULT_F_EC")  # a module constant is not a package name


def test_a_name_replaced_in_its_module_reads_the_same_through_the_package(monkeypatch):
    # the package holds no copy, so a wrapper installed in the module is seen
    monkeypatch.setattr(estimator, "solve_functional", len)
    assert qk.solve_functional is len


def _fiber():
    experiment = qk.fiber_experiment(qk.ChannelParams())
    return experiment.sources, experiment.channel, experiment.povm


def _pairs():
    return cli._read_pair_yield_csv(str(DATA / "mdi_relay.csv"))[0]


# per call: the call of one value, a value it takes, and one of a wrong type
WRONG_TYPES = {
    "YieldTable.scaled": (
        lambda v: qk.exact_yields(qk.three_state_sources(), qk.random_channel(1),
                                  qk.random_povm(1)).scaled(v), 0.5, "a"),
    "mdi_solve-gamma": (
        lambda v: qk.mdi_solve(_pairs(), qk.three_state_sources(), qk.three_state_sources(),
                               gamma=v), 0.4, "a"),
    "secret_key_rate-f_ec": (
        lambda v: qk.secret_key_rate(qk.ZStats(0.1, 0.01, 0.05, 0.02), f_ec=v), 1.22, "a"),
    "ZStats": (lambda v: qk.ZStats(v, 0.01, 0.05, 0.02), 0.1, "a"),
    "BlochVector": (lambda v: qk.BlochVector(1.0, v, 0.0, 0.0), 0.0, None),
    "optimize_alpha-tol": (lambda v: qk.optimize_alpha(qk.ChannelParams(), tol=v), 1e-4, "a"),
    "ChannelParams-alpha": (lambda v: qk.ChannelParams(alpha=v), 0.5, "a"),
    "run_protocol-n_pulses": (lambda v: qk.run_protocol(v, *_fiber(), seed=1), 10, "a"),
}


@pytest.mark.parametrize("call, good, wrong", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_wrong_python_type_raises_type_error(call, good, wrong):
    # the library checks values, not Python types: a string or None where a
    # number belongs fails in Python's own operations on it, as TypeError
    call(good)
    with pytest.raises(TypeError) as info:
        call(wrong)
    assert info.type is TypeError


COMPLEX = np.complex128(0.5 + 1j)
SQUARE = np.full((2, 2), 0.5)
# per call: the call of one hostile value, the value, and the exact message
HOSTILE_VALUES = {
    "ChannelParams-alpha": (lambda v: qk.ChannelParams(alpha=v), COMPLEX,
                            "alpha must be real, got complex values"),
    "ChannelParams-dark_count": (lambda v: qk.ChannelParams(dark_count=v), COMPLEX,
                                 "dark_count must be real, got complex values"),
    "secret_key_rate-f_ec": (
        lambda v: qk.secret_key_rate(qk.ZStats(0.1, 0.01, 0.05, 0.02), f_ec=v), COMPLEX,
        "f_ec must be real, got complex values"),
    "BlochVector-px": (lambda v: qk.BlochVector(1.0, v, 0.0, 0.0), COMPLEX,
                       "px must be real, got complex values"),
    "virtual_states_planar-delta": (qk.virtual_states_planar, COMPLEX,
                                    "delta must be real, got complex values"),
    "encode_single_photon-delta": (lambda v: qk.encode_single_photon(0.0, v), COMPLEX,
                                   "delta must be real, got complex values"),
    "optimize_alpha-tol": (lambda v: qk.optimize_alpha(qk.ChannelParams(), tol=v), SQUARE,
                           "alpha_tol must be a number, got an array of shape (2, 2)"),
    "dark_count_mixer": (qk.dark_count_mixer, SQUARE,
                         "dark count rate must be a number, got an array of shape (2, 2)"),
}


@pytest.mark.parametrize("call, value, message", HOSTILE_VALUES.values(), ids=HOSTILE_VALUES)
def test_complex_scalar_or_array_in_a_number_slot_is_a_validation_error(call, value, message):
    # a NumPy complex used to lose its imaginary part with only a ComplexWarning,
    # and an array to fail NumPy's truth test as a bare ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            call(value)
    assert info.type is ValidationError and str(info.value) == message
