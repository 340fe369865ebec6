"""Property tests: the integer-compiled model against the exact Fraction forms."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hiddenstring.annealer import anneal, default_schedule
from hiddenstring.model import (
    BitVector,
    QuboModel,
    VarLabel,
    _compile,
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
