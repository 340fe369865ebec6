"""Property tests: the integer-compiled model against the exact Fraction forms."""

import dataclasses
import operator
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiddenstring import annealer
from hiddenstring.annealer import AnnealSchedule, anneal, default_schedule
from hiddenstring.model import (
    BitVector,
    QuboModel,
    VarLabel,
    _compile,
    _fits_int64,
    _scaled_energy_table,
    exhaustive_solve,
    qubo_energy,
)

coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def models(draw, max_vars=8):
    n = draw(st.integers(1, max_vars))
    labels = tuple(VarLabel.plain(i) for i in range(n))
    linear = {lab: draw(coefficients) for lab in labels if draw(st.booleans())}
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    quadratic = {pair: draw(coefficients) for pair in pairs if draw(st.booleans())}
    return QuboModel(labels, linear, quadratic)


@st.composite
def diagonal_models(draw, max_vars=10):
    """Coupler-free models: the ones anneal sweeps with numpy arrays."""
    n = draw(st.integers(1, max_vars))
    labels = tuple(VarLabel.plain(i) for i in range(n))
    linear = {lab: draw(coefficients) for lab in labels if draw(st.booleans())}
    return QuboModel(labels, linear)


# Coefficient magnitudes per sort-key dtype. With at least one nonzero bias
# and at most 8 variables (36 coefficients), every span lands in the range
# of its key dtype: 1..252, 256..65 520, 65 536..2^32 - 1, 2^32..2^63 - 1
# (int64 table) and at least 2^64 (object table and keys).
KEY_MAGNITUDES = {
    "uint8": (1, 7),
    "uint16": (256, 1820),
    "uint32": (2**16, 2**26),
    "uint64": (2**32, 2**56),
    "object": (2**64, 2**70),
}


@st.composite
def models_by_key_dtype(draw):
    """A drawn key dtype and a model whose energy span needs exactly that dtype.

    The "span 0" case is a model with no coefficients, from 0 to 8 variables.
    """
    key = draw(st.sampled_from(["span 0", *KEY_MAGNITUDES]))
    if key == "span 0":
        n = draw(st.integers(0, 8))
        return key, QuboModel(tuple(VarLabel.plain(i) for i in range(n)))
    lo, hi = KEY_MAGNITUDES[key]
    coefficient = st.builds(operator.mul, st.sampled_from([-1, 1]), st.integers(lo, hi))
    n = draw(st.integers(1, 8))
    labels = tuple(VarLabel.plain(i) for i in range(n))
    linear = {labels[0]: draw(coefficient)}
    linear.update({lab: draw(coefficient) for lab in labels[1:] if draw(st.booleans())})
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    quadratic = {pair: draw(coefficient) for pair in pairs if draw(st.booleans())}
    return key, QuboModel(labels, linear, quadratic)


def reference_entries(model):
    """Every (assignment, energy), sorted by energy, then by assignment integer."""
    n = model.n_vars
    energy = {v: qubo_energy(model, BitVector.from_integer(v, n)) for v in range(1 << n)}
    return [(v, energy[v]) for v in sorted(energy, key=lambda v: (energy[v], v))]


def fraction_t_initial(model):
    """The starting temperature computed in Fractions, label by label."""
    strength = {lab: abs(h) for lab, h in model.linear.items()}
    for (a, b), j in model.quadratic.items():
        strength[a] = strength.get(a, Fraction(0)) + abs(j)
        strength[b] = strength.get(b, Fraction(0)) + abs(j)
    return max(1.0, float(max(strength.values(), default=Fraction(0))))


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@SETTINGS
@given(models())
def test_compiled_energies_over_den_equal_qubo_energy(model):
    n = model.n_vars
    den, h, couplers = _compile(model)
    energies, table_den = _scaled_energy_table(model)
    assert table_den == den
    for v in range(1 << n):
        s = BitVector.from_integer(v, n)
        exact = qubo_energy(model, s)
        summed = sum(h[k] for k in range(n) if s[k]) + sum(c for i, j, c in couplers
                                                          if s[i] and s[j])
        assert Fraction(summed, den) == exact
        assert Fraction(int(energies[v]), den) == exact


@SETTINGS
@given(models(), st.sampled_from([2**61, 2**64, 3**45]))
def test_table_past_int64_equals_den_times_qubo_energy(model, scale):
    big = QuboModel(
        model.labels,
        {lab: c * scale for lab, c in model.linear.items()},
        {pair: c * scale for pair, c in model.quadratic.items()},
    )
    n = big.n_vars
    energies, den = _scaled_energy_table(big)
    _den, h, couplers = _compile(big)
    assert energies.dtype == (np.int64 if _fits_int64(h, couplers) else object)
    for v in range(1 << n):
        assert energies[v] == den * qubo_energy(big, BitVector.from_integer(v, n))


@SETTINGS
@given(models())
def test_spectrum_order_is_energy_then_integer(model):
    spectrum = exhaustive_solve(model)
    reference = reference_entries(model)
    assert [(s.to_integer(), e) for s, e in spectrum.iter_entries()] == reference
    assert spectrum.ground_count == sum(e == reference[0][1] for _v, e in reference)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(models_by_key_dtype())
def test_spectrum_order_for_every_key_dtype(drawn):
    key, model = drawn
    reference = reference_entries(model)
    ground = reference[0][1]
    span = int((reference[-1][1] - ground) * _compile(model)[0])
    assert (span == 0) if key == "span 0" else (np.min_scalar_type(span).name == key)
    spectrum = exhaustive_solve(model)
    assert [(s.to_integer(), e) for s, e in spectrum.iter_entries()] == reference
    assert spectrum.ground_states() == [
        BitVector.from_integer(v, model.n_vars) for v, e in reference if e == ground
    ]


@SETTINGS
@given(models())
def test_default_t_initial_equals_the_fraction_formula(model):
    assert default_schedule(model).t_initial == fraction_t_initial(model)


@SETTINGS
@given(models(), st.integers(0, 2**32))
def test_exact_float_target_ends_at_the_exhaustive_ground(model, seed):
    ground = exhaustive_solve(model).ground_energy
    result = anneal(model, target_energy=float(ground), seed=seed)
    assert result.best_energy == ground


@SETTINGS
@given(diagonal_models(), st.integers(0, 2**32))
def test_coupler_free_anneal_ends_at_the_exhaustive_ground(model, seed):
    ground = exhaustive_solve(model).ground_energy
    sched = default_schedule(model)
    result = anneal(model, sched, target_energy=float(ground), seed=seed)
    assert result.best_energy == ground
    assert result.energy_evaluations <= result.restarts_used * sched.sweeps * model.n_vars


@SETTINGS
@given(diagonal_models(), st.integers(0, 2**32), st.booleans())
def test_coupler_free_sweeps_repeat_the_sequential_loop(model, seed, targeted):
    """The numpy sweep against the sequential loop, forced by a failing bound."""
    ground = exhaustive_solve(model).ground_energy
    sched = AnnealSchedule(sweeps=3 * model.n_vars, t_initial=default_schedule(model).t_initial,
                           t_final=0.05, restarts=3)
    kwargs = dict(seed=seed, record_trajectory=True,
                  target_energy=float(ground) if targeted else None)
    fast = anneal(model, sched, **kwargs)
    with mock.patch.object(annealer, "_fits_int64", return_value=False):
        sequential = anneal(model, sched, **kwargs)
    assert fast == sequential


def coupler_free(biases):
    labels = tuple(VarLabel.plain(i) for i in range(len(biases)))
    return QuboModel(labels, dict(zip(labels, biases)))


COUPLER_FREE = {
    "mixed": coupler_free([3, -2, 0, 5, -5, 1, -1, 4, 0, -3, 2]),
    "zero-bias": coupler_free([0] * 7),
    "decimal": coupler_free([Fraction(3, 10), Fraction(-7, 4), Fraction(1, 3),
                             Fraction(-1, 12), Fraction(5, 2), Fraction(-9, 5)]),
}
BATCH_VISITS = {
    "1": lambda n: 1,
    "n-1": lambda n: n - 1,
    "n": lambda n: n,
    "n+1": lambda n: n + 1,
    "3n+1": lambda n: 3 * n + 1,
    "10**6": lambda n: 10**6,
}


def ground_target(model):
    return float(exhaustive_solve(model).ground_energy)


def batched_and_sequential(model, sched, batch_visits, **kwargs):
    with mock.patch.object(annealer, "_BATCH_VISITS", batch_visits):
        batched = anneal(model, sched, record_trajectory=True, **kwargs)
    with mock.patch.object(annealer, "_fits_int64", return_value=False):
        sequential = anneal(model, sched, record_trajectory=True, **kwargs)
    return batched, sequential


@pytest.mark.parametrize("above_ground", [None, 0, 1, 2],
                         ids=["untargeted", "ground", "ground+1", "ground+2"])
@pytest.mark.parametrize("visits", BATCH_VISITS)
@pytest.mark.parametrize("name", COUPLER_FREE)
def test_batch_size_does_not_change_the_anneal(name, visits, above_ground):
    model = COUPLER_FREE[name]
    sched = AnnealSchedule(sweeps=23, t_initial=default_schedule(model).t_initial,
                           t_final=0.05, restarts=3)
    target = None if above_ground is None else ground_target(model) + above_ground
    # With seed 8, some loose targets are met before a lower state later in
    # the same sweep, which pins the stopping sweep's trajectory value.
    batched, sequential = batched_and_sequential(
        model, sched, BATCH_VISITS[visits](model.n_vars), seed=8, target_energy=target)
    assert batched == sequential


def stop_visit(model, sched, seed):
    """(sweep, visit), both 0-based, at which the last restart reaches the ground."""
    result = anneal(model, sched, seed=seed, target_energy=ground_target(model))
    n = model.n_vars
    visits = result.energy_evaluations - (result.restarts_used - 1) * sched.sweeps * n
    return divmod(visits - 1, n)


@pytest.mark.parametrize("wanted", [(1, -1), (0, 0)],
                         ids=["last visit of a batch", "first visit of the next batch"])
def test_stop_on_a_batch_boundary_matches_the_sequential_loop(wanted):
    """Two-sweep batches, and a seed whose stop falls on a batch boundary.

    ``wanted`` is (sweep parity, visit): the last visit of an odd sweep ends
    a batch, and the first visit of an even sweep starts one.
    """
    model = COUPLER_FREE["mixed"]
    n = model.n_vars
    sched = AnnealSchedule(sweeps=40, t_initial=8.0, t_final=2.0, restarts=3)

    def on_boundary(seed):
        sweep, visit = stop_visit(model, sched, seed)
        return sweep >= 2 and (sweep % 2, visit) == (wanted[0], wanted[1] % n)

    seed = next(filter(on_boundary, range(1000)))
    batched, sequential = batched_and_sequential(
        model, sched, 2 * n, seed=seed, target_energy=ground_target(model))
    assert batched == sequential
    assert batched.best_energy == exhaustive_solve(model).ground_energy


def test_compile_runs_once_per_model():
    a, b = VarLabel.plain(0), VarLabel.plain(1)
    model = QuboModel((a, b), {a: Fraction(1, 2)}, {(a, b): -3})
    compiled = _compile(model)
    assert _compile(model) is compiled
    assert compiled == (2, (1, 0), ((0, 1, -6),))
    # The cache is no field: equality, repr and the fields are unchanged.
    twin = QuboModel((a, b), {a: Fraction(1, 2)}, {(a, b): -3})
    assert model == twin and repr(model) == repr(twin)
    assert [f.name for f in dataclasses.fields(model)] == ["labels", "linear", "quadratic"]


def test_int64_bound():
    assert _fits_int64([2**62, 2**62 - 1], [])
    assert not _fits_int64([2**62, 2**62], [])
    assert not _fits_int64([2**62], [(0, 1, -(2**62))])


def test_energy_table_past_int64_is_exact():
    # Both biases 2**62: the all-ones energy 2**63 wrapped to -2**63 in int64.
    a, b = VarLabel.plain(0), VarLabel.plain(1)
    model = QuboModel((a, b), {a: 2**62, b: 2**62})
    spectrum = exhaustive_solve(model)
    assert spectrum.ground_energy == 0
    assert spectrum.ground_states() == [BitVector([0, 0])]
    assert [e for _, e in spectrum.iter_entries()] == [0, 2**62, 2**62, 2**63]
