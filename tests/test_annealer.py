"""Annealer: schedules, Metropolis dynamics, determinism, black-box parity."""

import math

import numpy as np
import pytest

from hiddenstring.annealer import (
    AnnealSchedule,
    anneal,
    anneal_black_box,
    default_schedule,
)
from hiddenstring.builders import build_bv_qubo_from_bits, build_simon_literal_qubo
from hiddenstring.model import BitVector, QuboModel, VarLabel, exhaustive_solve, qubo_energy
from hiddenstring.oracles import random_hidden_string

from test_model import random_integer_model


class TestAnnealSchedule:
    def test_geometric_endpoints(self):
        sched = AnnealSchedule(sweeps=200, t_initial=8.0, t_final=0.01)
        assert sched.temperature(0) == 8.0
        assert math.isclose(sched.temperature(199), 0.01, rel_tol=1e-6)
        temps = [sched.temperature(k) for k in range(200)]
        assert all(a > b for a, b in zip(temps, temps[1:]))

    def test_halving_decay(self):
        sched = AnnealSchedule(sweeps=3, t_initial=4.0, t_final=1.0)
        assert math.isclose(sched.decay, 0.5)
        assert math.isclose(sched.temperature(1), 2.0)

    def test_single_sweep_holds_initial_temperature(self):
        sched = AnnealSchedule(sweeps=1, t_initial=2.0, t_final=1.0)
        assert sched.decay == 1.0
        assert sched.temperature(0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=0, t_initial=1.0, t_final=0.1)
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=5, t_initial=1.0, t_final=0.1, restarts=0)
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=5, t_initial=1.0, t_final=0.0)
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=5, t_initial=0.5, t_final=1.0)


class TestDefaultSchedule:
    def test_sized_to_model(self):
        model = build_bv_qubo_from_bits([1, 0, 1, 1])
        sched = default_schedule(model)
        assert sched.sweeps == 100 * 4
        assert sched.t_initial == 1.0  # largest |h| is 1
        assert sched.t_final == 0.01
        assert sched.restarts == 8

    def test_literal_model_temperature(self):
        # y_j sees |3| + |-2| = 5, the largest single-flip magnitude
        sched = default_schedule(build_simon_literal_qubo(3, 1))
        assert sched.t_initial == 5.0
        assert sched.sweeps == 100 * 8

    def test_flat_model_floors_at_one(self):
        model = QuboModel(tuple(VarLabel.plain(i) for i in range(3)))
        assert default_schedule(model).t_initial == 1.0

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            default_schedule(QuboModel(()))


class TestAnneal:
    def test_deterministic_for_fixed_seed(self):
        model = random_integer_model(np.random.default_rng(5), 8)
        sched = AnnealSchedule(sweeps=50, t_initial=4.0, t_final=0.05, restarts=3)
        r1 = anneal(model, sched, seed=9, record_trajectory=True)
        r2 = anneal(model, sched, seed=9, record_trajectory=True)
        assert r1.best_assignment == r2.best_assignment
        assert r1.best_energy == r2.best_energy
        assert r1.energy_evaluations == r2.energy_evaluations
        assert r1.trajectory == r2.trajectory

    def test_counts_one_evaluation_per_flip_attempt(self):
        model = random_integer_model(np.random.default_rng(6), 5)
        sched = AnnealSchedule(sweeps=20, t_initial=2.0, t_final=0.1, restarts=4)
        result = anneal(model, sched, seed=1)
        assert result.energy_evaluations == 4 * 20 * 5
        assert result.restarts_used == 4

    def test_trajectory_is_monotone(self):
        model = random_integer_model(np.random.default_rng(7), 8)
        sched = AnnealSchedule(sweeps=60, t_initial=4.0, t_final=0.05, restarts=2)
        result = anneal(model, sched, seed=2, record_trajectory=True)
        assert len(result.trajectory) == 2 * 60
        assert all(a >= b for a, b in zip(result.trajectory, result.trajectory[1:]))

    def test_cold_descent_solves_separable_model(self):
        rng = np.random.default_rng(8)
        sched = AnnealSchedule(sweeps=2, t_initial=0.01, t_final=0.01, restarts=1)
        for n in (8, 32, 128):
            a = random_hidden_string(n, rng)
            result = anneal(build_bv_qubo_from_bits(a), sched, seed=int(rng.integers(1000)))
            assert result.best_assignment == a
            assert result.best_energy == -a.popcount()

    def test_finds_ground_state_of_random_models(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            model = random_integer_model(rng, 8)
            expected = exhaustive_solve(model).ground_energy
            result = anneal(model, seed=trial)  # default schedule
            assert result.best_energy == expected

    def test_reported_energy_is_exact(self):
        model = random_integer_model(np.random.default_rng(12), 6)
        result = anneal(model, AnnealSchedule(30, 2.0, 0.05, restarts=2), seed=0)
        assert result.best_energy == qubo_energy(model, result.best_assignment)

    def test_target_energy_stops_early(self):
        a = BitVector.from_integer(0b101101, 6)
        model = build_bv_qubo_from_bits(a)
        sched = AnnealSchedule(sweeps=400, t_initial=0.05, t_final=0.01, restarts=8)
        result = anneal(model, sched, seed=3, target_energy=float(-a.popcount()))
        assert result.best_assignment == a
        assert result.restarts_used == 1
        assert result.energy_evaluations < 8 * 400 * 6

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            anneal(QuboModel(()), AnnealSchedule(1, 1.0, 1.0))


class TestAnnealBlackBox:
    def test_matches_explicit_anneal_on_wrapped_model(self):
        # same rng stream and exact float arithmetic: identical outcome
        model = random_integer_model(np.random.default_rng(14), 7)
        sched = AnnealSchedule(sweeps=40, t_initial=3.0, t_final=0.05, restarts=3)
        explicit = anneal(model, sched, seed=21)
        wrapped = anneal_black_box(
            lambda s: qubo_energy(model, s), model.n_vars, sched, seed=21
        )
        assert wrapped.best_assignment == explicit.best_assignment
        assert wrapped.best_energy == explicit.best_energy

    def test_one_evaluation_per_flip_attempt_plus_one_per_restart(self):
        model = random_integer_model(np.random.default_rng(15), 4)
        sched = AnnealSchedule(sweeps=10, t_initial=1.0, t_final=0.1, restarts=2)
        calls = []

        def energy(s):
            calls.append(s)
            return qubo_energy(model, s)

        result = anneal_black_box(energy, 4, sched, seed=0)
        assert result.energy_evaluations == len(calls) == 2 * (1 + 10 * 4)

    def test_constant_objective_returns_some_assignment(self):
        sched = AnnealSchedule(sweeps=5, t_initial=1.0, t_final=0.5, restarts=2)
        result = anneal_black_box(lambda s: 0, 6, sched, seed=4)
        assert len(result.best_assignment) == 6
        assert result.best_energy == 0

    def test_target_energy_stops_early(self):
        model = build_bv_qubo_from_bits([1] * 8)
        sched = AnnealSchedule(sweeps=200, t_initial=0.05, t_final=0.01, restarts=4)
        result = anneal_black_box(
            lambda s: qubo_energy(model, s), 8, sched, seed=5, target_energy=-8.0
        )
        assert result.best_energy == -8
        assert result.restarts_used == 1
        assert result.energy_evaluations < 2 * 4 * 200 * 8

    def test_deterministic_for_fixed_seed(self):
        model = random_integer_model(np.random.default_rng(16), 5)
        sched = AnnealSchedule(sweeps=15, t_initial=2.0, t_final=0.1, restarts=2)
        r1 = anneal_black_box(lambda s: qubo_energy(model, s), 5, sched, seed=6)
        r2 = anneal_black_box(lambda s: qubo_energy(model, s), 5, sched, seed=6)
        assert r1.best_assignment == r2.best_assignment
        assert r1.energy_evaluations == r2.energy_evaluations

    def test_rejects_empty_search_space(self):
        with pytest.raises(ValueError):
            anneal_black_box(lambda s: 0, 0, AnnealSchedule(1, 1.0, 1.0))
