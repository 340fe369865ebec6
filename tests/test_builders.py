"""Hamiltonian builders: diagonal parity model, penalty, literal and coupled forms."""

import itertools

import numpy as np
import pytest

from hiddenstring.builders import (
    build_bv_qubo,
    build_bv_qubo_from_bits,
    build_simon_literal_qubo,
    bv_labels,
    inequality_penalty,
    simon_coupled_energy,
    simon_labels,
)
from hiddenstring.model import BitVector, VarLabel, exhaustive_solve, qubo_energy
from hiddenstring.oracles import BvOracle, SimonOracle, random_hidden_string


class TestBvBuilder:
    def test_diagonal_coefficients(self):
        for value in range(16):
            a = BitVector.from_integer(value, 4)
            model = build_bv_qubo_from_bits(a)
            assert model.labels == bv_labels(4)
            assert model.quadratic == {}
            for k in range(4):
                assert model.linear_coefficient(VarLabel.w(k)) == 1 - 2 * a[k]

    def test_oracle_build_matches_bits_build(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_hidden_string(9, rng)
            oracle = BvOracle(a)
            assert build_bv_qubo(oracle) == build_bv_qubo_from_bits(a)

    def test_oracle_build_uses_exactly_n_queries(self):
        for n in (1, 5, 64):
            oracle = BvOracle(random_hidden_string(n, np.random.default_rng(n)))
            build_bv_qubo(oracle)
            assert oracle.queries == n

    def test_bits_build_uses_no_queries(self):
        # the bits-form builder never sees an oracle at all
        model = build_bv_qubo_from_bits([1, 0, 1])
        assert model.linear_coefficient(VarLabel.w(0)) == -1
        assert model.linear_coefficient(VarLabel.w(1)) == 1

    def test_ground_state_is_hidden_string(self):
        rng = np.random.default_rng(13)
        for n in range(1, 7):
            for value in range(1 << n):
                a = BitVector.from_integer(value, n)
                spectrum = exhaustive_solve(build_bv_qubo_from_bits(a))
                assert spectrum.ground_count == 1
                assert spectrum.ground_states()[0] == a
                assert spectrum.ground_energy == -a.popcount()


class TestInequalityPenalty:
    def test_square_expansion_identity(self):
        # (w - y - 1)^2 - 1 == -w + 3y - 2wy on binary inputs
        for w, y in itertools.product((0, 1), repeat=2):
            assert (w - y - 1) ** 2 - 1 == -w + 3 * y - 2 * w * y

    def test_energy_table_and_unique_minimum(self):
        model = inequality_penalty(1, 1)
        table = {
            (w, y): qubo_energy(model, (w, y))
            for w, y in itertools.product((0, 1), repeat=2)
        }
        assert table == {(0, 0): 0, (1, 0): -1, (0, 1): 3, (1, 1): 0}
        assert min(table, key=table.get) == (1, 0)

    def test_covers_all_bit_variables(self):
        model = inequality_penalty(2, 4)
        assert model.labels == simon_labels(4)[:-2]
        assert model.linear == {VarLabel.w(2): -1, VarLabel.y(2): 3}
        assert model.quadratic == {(VarLabel.w(2), VarLabel.y(2)): -2}

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            inequality_penalty(0, 3)
        with pytest.raises(ValueError):
            inequality_penalty(4, 3)


class TestSimonLiteralModel:
    def test_label_order(self):
        model = build_simon_literal_qubo(3, 1)
        assert model.labels == simon_labels(3)
        assert [str(lab) for lab in model.labels] == [
            "w1", "w2", "w3", "y1", "y2", "y3", "gw", "gy",
        ]

    def test_matrix_entries(self):
        model = build_simon_literal_qubo(3, 1)
        assert model.linear == {
            VarLabel.w(1): -1,
            VarLabel.y(1): 3,
            VarLabel.gw(): 1,
            VarLabel.gy(): -1,
        }
        assert model.quadratic == {(VarLabel.w(1), VarLabel.y(1)): -2}

    @pytest.mark.parametrize("n,j", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 3)])
    def test_ground_manifold(self, n, j):
        spectrum = exhaustive_solve(build_simon_literal_qubo(n, j))
        assert spectrum.ground_energy == -2
        # w_j = 1, y_j = 0, gw = 0, gy = 1, everything else free
        assert spectrum.ground_count == 1 << (2 * (n - 1))
        for state in spectrum.ground_states():
            assert state[j - 1] == 1
            assert state[n + j - 1] == 0
            assert state[2 * n] == 0
            assert state[2 * n + 1] == 1

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_simon_literal_qubo(1, 1)


class TestCoupledEnergy:
    def _oracle(self, n=4, a_value=0b1011, seed=3):
        return SimonOracle(BitVector.from_integer(a_value, n), seed=seed)

    def test_collision_satisfying_constraint_reaches_minimum(self):
        oracle = self._oracle()  # hidden string has bit 1 set
        a = oracle.reveal_hidden_string()
        w = BitVector.from_integer(0b0010, 4)
        y = w ^ a
        assert w[1] == 1 and y[1] == 0
        assert simon_coupled_energy(oracle, w, y, 2) == -1

    def test_equal_pair_never_reaches_minimum(self):
        oracle = self._oracle()
        for value in range(16):
            w = BitVector.from_integer(value, 4)
            assert simon_coupled_energy(oracle, w, w, 2) >= 0

    def test_non_collision_pays_signal(self):
        oracle = self._oracle()
        w = BitVector.from_integer(0b0010, 4)
        y = BitVector.from_integer(0b0001, 4)  # w ^ y = 3, not the hidden string
        assert simon_coupled_energy(oracle, w, y, 2) == 1 + _pen(w[1], y[1])

    def test_floor_is_minus_one_iff_hidden_bit_set(self):
        rng = np.random.default_rng(11)
        for n in (3, 4):
            a = random_hidden_string(n, rng, nonzero=True)
            oracle = SimonOracle(a, seed=int(rng.integers(1 << 30)))
            for j in range(1, n + 1):
                floor = min(
                    simon_coupled_energy(
                        oracle,
                        BitVector.from_integer(wv, n),
                        BitVector.from_integer(yv, n),
                        j,
                    )
                    for wv in range(1 << n)
                    for yv in range(1 << n)
                )
                assert (floor == -1) == (a[j - 1] == 1)
                assert floor >= -1

    def test_exactly_two_queries_per_evaluation(self):
        oracle = self._oracle()
        w = BitVector.from_integer(5, 4)
        y = BitVector.from_integer(9, 4)
        before = oracle.queries
        simon_coupled_energy(oracle, w, y, 1)
        assert oracle.queries - before == 2

    def test_validates_arguments(self):
        oracle = self._oracle()
        w = BitVector.from_integer(5, 4)
        with pytest.raises(ValueError):
            simon_coupled_energy(oracle, w, BitVector.from_integer(1, 3), 1)
        with pytest.raises(ValueError):
            simon_coupled_energy(oracle, w, w, 0)


def _pen(wj, yj):
    return -wj + 3 * yj - 2 * wj * yj
