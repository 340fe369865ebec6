"""Property tests: the integer-compiled model against the exact Fraction forms."""

import dataclasses
from fractions import Fraction
from unittest import mock

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
