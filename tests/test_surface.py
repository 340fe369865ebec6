"""The exported surface: every name in ``hiddenstring.__all__`` and its parameters."""

import inspect

import pytest

import hiddenstring
from hiddenstring import protocol

EXPORTS = [
    "AnnealResult", "AnnealSchedule", "BV_PROBES", "BitVector", "BvOracle",
    "EXHAUSTIVE_CAP", "ExperimentReport", "IsingModel", "QuboFormatError", "QuboModel",
    "SimonOracle", "Spectrum", "VarKind", "VarLabel", "__version__", "anneal",
    "anneal_black_box", "bench_calls", "build_bv_qubo", "build_bv_qubo_from_bits",
    "build_simon_literal_qubo", "bv_labels", "check_collision", "default_schedule",
    "exhaustive_solve", "export_qubo", "import_qubo", "inequality_penalty", "ising_energy",
    "ising_to_qubo", "model_from_dict", "model_to_dict", "qubo_energy", "qubo_to_ising",
    "random_hidden_string", "simon_coupled_energy", "simon_labels", "solve_bv",
    "solve_simon", "verify_simon", "xor_recover",
]

# Parameters of every exported function and class constructor. The enum
# VarKind and the exception QuboFormatError take their signatures from
# the standard library, so they are pinned by what they are instead.
SIGNATURES = {
    "AnnealResult": ["best_assignment", "best_energy", "restarts_used",
                     "energy_evaluations", "seed", "trajectory"],
    "AnnealSchedule": ["sweeps", "t_initial", "t_final", "restarts"],
    "BitVector": ["bits"],
    "BvOracle": ["a"],
    "ExperimentReport": ["problem", "n", "seed", "solver", "mode", "j_policy", "signal",
                         "budget", "hidden_a", "recovered_a", "success", "aqc_calls",
                         "oracle_queries", "wall_time_s", "trace", "diagnostics"],
    "IsingModel": ["labels", "linear", "quadratic", "offset"],
    "QuboModel": ["labels", "linear", "quadratic"],
    "SimonOracle": ["a", "seed"],
    "Spectrum": ["labels", "_order", "_scaled", "_denominator"],
    "VarLabel": ["kind", "index"],
    "anneal": ["model", "schedule", "seed", "target_energy", "record_trajectory"],
    "anneal_black_box": ["energy", "n_vars", "schedule", "seed", "target_energy",
                         "record_trajectory"],
    "bench_calls": ["problem", "n_values", "trials", "seed", "solver", "mode", "j_policy",
                    "j", "budget", "schedule"],
    "build_bv_qubo": ["oracle"],
    "build_bv_qubo_from_bits": ["a"],
    "build_simon_literal_qubo": ["n", "j"],
    "bv_labels": ["n"],
    "check_collision": ["oracle", "w", "y"],
    "default_schedule": ["model"],
    "exhaustive_solve": ["model"],
    "export_qubo": ["model"],
    "import_qubo": ["source"],
    "inequality_penalty": ["j", "n"],
    "ising_energy": ["model", "sigma"],
    "ising_to_qubo": ["m"],
    "model_from_dict": ["data"],
    "model_to_dict": ["model"],
    "qubo_energy": ["model", "s"],
    "qubo_to_ising": ["q"],
    "random_hidden_string": ["n", "rng", "nonzero"],
    "simon_coupled_energy": ["oracle", "w", "y", "j"],
    "simon_labels": ["n"],
    "solve_bv": ["oracle", "solver", "schedule", "seed", "blind"],
    "solve_simon": ["oracle", "mode", "j_policy", "j", "budget", "signal", "schedule",
                    "seed", "blind"],
    "verify_simon": ["oracle", "candidate", "seed"],
    "xor_recover": ["w", "y"],
}


def test_exported_names():
    assert sorted(hiddenstring.__all__) == EXPORTS


def test_every_exported_callable_is_pinned():
    callables = {
        name for name in hiddenstring.__all__ if callable(getattr(hiddenstring, name))
    }
    assert callables == set(SIGNATURES) | {"VarKind", "QuboFormatError"}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature(name):
    obj = getattr(hiddenstring, name)
    assert list(inspect.signature(obj).parameters) == SIGNATURES[name]


def test_the_two_standard_library_shapes():
    assert [kind.value for kind in hiddenstring.VarKind] == ["w", "y", "gw", "gy", "x"]
    assert issubclass(hiddenstring.QuboFormatError, ValueError)


def test_removed_options_and_accessors_stay_removed():
    assert not hasattr(hiddenstring.QuboModel, "position")
    assert not hasattr(hiddenstring.Spectrum, "__len__")
    assert not hasattr(hiddenstring.SimonOracle, "seed")
    assert not hasattr(protocol, "MIN_VERIFY_PROBES")
    assert "MIN_VERIFY_PROBES" not in protocol.__all__
    assert "probes" not in inspect.signature(hiddenstring.verify_simon).parameters
    assert "cap" not in inspect.signature(hiddenstring.exhaustive_solve).parameters
    assert "destination" not in inspect.signature(hiddenstring.export_qubo).parameters
