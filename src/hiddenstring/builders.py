"""Construct the problem Hamiltonians.

Three binary quadratic models, plus one oracle-coupled objective:

* the parity-problem model: purely diagonal, bias ``1 - 2 a_k`` on
  variable w_k, learned through n unit-weight oracle queries;
* the strict-inequality penalty ``-w_j + 3 y_j - 2 w_j y_j``, the expansion
  of ``(w_j - y_j - 1)^2 = 0`` that is minimal exactly at ``w_j > y_j``;
* the literal 2-to-1 search model: the penalty plus two free single-bit
  variables standing in for the black-box outputs g(w) and g(y) with biases
  +1 and -1 (kept verbatim for export and matrix-reproduction tests; note
  nothing couples those two bits to the w/y bits, so this model cannot
  steer the search toward collisions);
* the coupled objective, which queries the oracle for the labels of w and
  y and adds the penalty to their mismatch ``[g(w) != g(y)]``; this is the
  form an annealer can actually minimize to find a collision.

For the 2-to-1 problem, bit variables are indexed 1..n (label ``w_j`` reads
bit j-1 of the vector); the parity problem indexes 0..n-1.
"""

from __future__ import annotations

from fractions import Fraction

from .model import BitVector, QuboModel, VarLabel
from .oracles import BvOracle, SimonOracle, _check_simon_width, _check_width

__all__ = [
    "build_bv_qubo",
    "build_bv_qubo_from_bits",
    "inequality_penalty",
    "build_simon_literal_qubo",
    "simon_coupled_energy",
    "bv_labels",
    "simon_labels",
]


def bv_labels(n: int) -> tuple[VarLabel, ...]:
    """Parity-model variable order: w_0 .. w_{n-1}."""
    return tuple(VarLabel.w(k) for k in range(n))


def simon_labels(n: int) -> tuple[VarLabel, ...]:
    """Literal-model variable order: w_1 .. w_n, y_1 .. y_n, gw, gy."""
    return (
        tuple(VarLabel.w(i) for i in range(1, n + 1))
        + tuple(VarLabel.y(i) for i in range(1, n + 1))
        + (VarLabel.gw(), VarLabel.gy())
    )


def build_bv_qubo(oracle: BvOracle) -> QuboModel:
    """Parity-problem model learned from the oracle.

    Queries the unit-weight inputs 2^k (exactly n queries); each answer is
    the hidden bit a_k, giving the diagonal bias 1 - 2 a_k on w_k. The
    unique minimum of the resulting model is w = a.
    """
    n = oracle.n
    a = sum(oracle.query(BitVector.from_integer(1 << k, n)) << k for k in range(n))
    return build_bv_qubo_from_bits(BitVector.from_integer(a, n))


def build_bv_qubo_from_bits(a: BitVector) -> QuboModel:
    """Same model as :func:`build_bv_qubo`, built from known bits, zero queries."""
    if not isinstance(a, BitVector):
        a = BitVector(a)
    _check_width(len(a))
    linear = {VarLabel.w(k): 1 - 2 * a[k] for k in range(len(a))}
    return QuboModel(bv_labels(len(a)), linear)


def _check_j(j: int, n: int) -> None:
    if not 1 <= j <= n:
        raise ValueError(f"j must be in 1..{n}, got {j}")


def inequality_penalty(j: int, n: int) -> QuboModel:
    """Penalty enforcing w_j = 1, y_j = 0 over the w/y bit variables.

    Expanding (w_j - y_j - 1)^2 = 0 with b^2 = b and dropping the constant
    gives -w_j + 3 y_j - 2 w_j y_j, whose unique minimum -1 is at (1, 0).
    All 2n bit labels are present; only the three j-terms are nonzero.
    """
    _check_j(j, n)
    labels = tuple(VarLabel.w(i) for i in range(1, n + 1)) + tuple(
        VarLabel.y(i) for i in range(1, n + 1)
    )
    linear = {VarLabel.w(j): -1, VarLabel.y(j): 3}
    quadratic = {(VarLabel.w(j), VarLabel.y(j)): -2}
    return QuboModel(labels, linear, quadratic)


def build_simon_literal_qubo(n: int, j: int) -> QuboModel:
    """The literal 2-to-1 search model over 2n + 2 variables.

    Inequality penalty on (w_j, y_j) plus free single-bit variables gw, gy
    with biases +1 and -1, exactly as the objective's matrix form treats
    the two black-box outputs.
    """
    _check_simon_width(n)
    _check_j(j, n)
    penalty = inequality_penalty(j, n)
    gw_gy = QuboModel(
        (VarLabel.gw(), VarLabel.gy()),
        {VarLabel.gw(): 1, VarLabel.gy(): -1},
    )
    return penalty + gw_gy


def coupled_value(gw: int, gy: int, wj: int, yj: int) -> int:
    """The coupled objective from the two oracle labels and the two j-bits.

    The label mismatch ``[gw != gy]`` plus the inequality penalty
    ``-w_j + 3 y_j - 2 w_j y_j``, an exact int. This is the one place the
    objective's formula lives: the public :func:`simon_coupled_energy` and
    the coupled search's energy callback, which memoizes labels instead of
    querying twice, both call it.
    """
    return int(gw != gy) - wj + 3 * yj - 2 * wj * yj


def simon_coupled_energy(
    oracle: SimonOracle,
    w: BitVector,
    y: BitVector,
    j: int,
) -> Fraction:
    """Label mismatch of (w, y) plus the inequality penalty on bit j.

    Makes exactly two oracle queries. The mismatch is 0 when the labels
    g(w) and g(y) are equal and 1 otherwise. The minimum is -1, reached
    exactly when the labels collide with w_j = 1 and y_j = 0 (possible iff
    bit j of the hidden string is set).
    """
    n = oracle.n
    if len(w) != n or len(y) != n:
        raise ValueError(f"w and y must each have {n} bits")
    _check_j(j, n)
    gw = oracle.query(w)
    gy = oracle.query(y)
    return Fraction(coupled_value(gw, gy, w[j - 1], y[j - 1]))
