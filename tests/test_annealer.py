"""Annealer: schedules, Metropolis dynamics, determinism, black-box parity."""

import contextlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from hiddenstring import annealer
from hiddenstring.annealer import (
    AnnealSchedule,
    anneal,
    anneal_black_box,
    default_schedule,
)
from hiddenstring.builders import build_bv_qubo_from_bits, build_simon_literal_qubo
from hiddenstring.model import (
    BitVector,
    QuboModel,
    VarLabel,
    _compile,
    _fits_int64,
    exhaustive_solve,
    qubo_energy,
)
from hiddenstring.oracles import random_hidden_string

from test_model import random_integer_model, random_tenths_model


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

    @pytest.mark.parametrize("t_initial, t_final", [
        (math.inf, 0.01), (math.nan, 0.01), (1.0, math.nan), (math.inf, math.inf),
    ])
    def test_rejects_a_temperature_that_is_not_finite(self, t_initial, t_final):
        # An infinite start made every later sweep's temperature nan.
        with pytest.raises(ValueError, match=f"finite, got t_initial={t_initial}"):
            AnnealSchedule(sweeps=5, t_initial=t_initial, t_final=t_final)

    def test_rejects_a_last_sweep_that_underflows(self):
        # 1e-200 / 1e200 underflows to 0.0, so decay and the last sweep's
        # temperature do too, and pricing a flip divided by zero.
        with pytest.raises(ValueError, match="underflows to 0.0: t_initial=1e[+]200"):
            AnnealSchedule(sweeps=2, t_initial=1e200, t_final=1e-200)
        sched = AnnealSchedule(sweeps=2, t_initial=1e150, t_final=1e-150)
        assert sched.temperature(1) > 0


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
        with pytest.raises(ValueError, match="cannot build a schedule for an empty model"):
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

    def test_decimal_target_fires_at_the_exact_floor(self):
        # Ten biases of -1/10: float sums of the running energy read
        # -0.9999999999999999 at the floor, so -1.0 never fired and all
        # eight restarts ran. Integer energies stop in the first restart.
        labels = tuple(VarLabel.plain(i) for i in range(10))
        model = QuboModel(labels, {lab: Fraction(-1, 10) for lab in labels})
        result = anneal(model, target_energy=-1.0, seed=0)
        assert result.restarts_used == 1
        assert result.energy_evaluations < default_schedule(model).sweeps * 10
        assert result.best_energy == -1

    def test_decimal_target_fires_at_the_exhaustive_ground(self):
        model = random_tenths_model(np.random.default_rng(1), 10)
        ground = exhaustive_solve(model).ground_energy
        result = anneal(model, target_energy=float(ground), seed=1)
        assert result.best_energy == ground
        assert result.restarts_used == 1

    def test_coupler_free_model_past_int64_anneals_exactly_in_sequence(self):
        # Summed magnitudes reach 2**63, so numpy int64 sums could wrap: the
        # model must take the sequential Python-int loop and still reach
        # its floor -2**63 - 2**60 exactly, with or without a target.
        labels = tuple(VarLabel.plain(i) for i in range(4))
        model = QuboModel(labels, dict(zip(labels, [-2**62, -2**62, 2**61, -2**60])))
        den, h, couplers = _compile(model)
        assert not couplers and not _fits_int64(h, couplers)
        floor = -2**63 - 2**60
        with mock.patch.object(annealer, "_diagonal_sweeps", side_effect=AssertionError):
            free = anneal(model, seed=4)
            targeted = anneal(model, seed=4, target_energy=float(floor))
        assert free.best_energy == floor
        assert free.best_assignment == BitVector([1, 1, 0, 1])
        assert targeted.best_energy == floor
        assert targeted.restarts_used == 1

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
        with pytest.raises(ValueError, match="cannot anneal an empty model"):
            anneal(QuboModel(()), AnnealSchedule(1, 1.0, 1.0))
        with pytest.raises(ValueError, match="cannot build a schedule for an empty model"):
            anneal(QuboModel(()))

    def test_every_target_type_stops_where_the_float_target_does(self):
        # Ten biases of -1/10: the floor -1 is exact, and so is its float.
        # Rational targets are compared exactly, other reals as floats.
        labels = tuple(VarLabel.plain(i) for i in range(10))
        model = QuboModel(labels, {lab: Fraction(-1, 10) for lab in labels})
        targets = (-1.0, -1, Fraction(-1), np.int64(-1), np.float32(-1))
        runs = [anneal(model, target_energy=t, seed=0) for t in targets]
        assert all(r == runs[0] for r in runs)
        assert runs[0].restarts_used == 1


@pytest.mark.parametrize("kernel", ["diagonal", "sequential", "black box"])
def test_exact_target_stops_only_at_the_ground(kernel):
    """The ground -1 - 2**-60 and the level -1 round to the same float.

    A float target therefore also fires at -1, and the run stops there in
    some seeds; the exact target fires only at the ground.
    """
    labels = (VarLabel.plain(0), VarLabel.plain(1))
    model = QuboModel(labels, {labels[0]: -1, labels[1]: -Fraction(1, 2**60)})
    ground = exhaustive_solve(model).ground_energy
    assert float(ground) == -1.0
    sched = AnnealSchedule(20, 1.0, 0.01, restarts=4)

    def run(seed, target):
        if kernel == "black box":
            return anneal_black_box(lambda v: qubo_energy(model, BitVector.from_integer(v, 2)),
                                    2, sched, seed=seed, target_energy=target)
        sequential = mock.patch.object(annealer, "_fits_int64", return_value=False)
        with sequential if kernel == "sequential" else contextlib.nullcontext():
            return anneal(model, sched, seed=seed, target_energy=target)

    exact = [run(seed, ground) for seed in range(50)]
    assert all(r.best_energy == ground and r.restarts_used == 1 for r in exact)
    above = sum(run(seed, float(ground)).best_energy != ground for seed in range(50))
    assert above == {"diagonal": 21, "sequential": 21, "black box": 13}[kernel]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 14, 16, 33, 128, 256])
def test_sweep_draws_are_permutation_then_random(n):
    """The visit loops' draws are numpy's ``permutation(n)`` then ``random(n)``.

    The sequential and black-box loops shuffle a copy of a list (indices or
    bit masks) and refill one float buffer each sweep; the diagonal kernel
    shuffles a row of ``arange(n)`` and fills a row of uniforms in place.
    Every golden rests on these drawing one stream.
    """
    sweeps = 50
    for seed in range(20):
        plain, indexed, masked, rows = (annealer._seeded_rng(seed, 0) for _ in range(4))
        for rng in (plain, indexed, masked, rows):
            rng.integers(0, 2, size=n)  # the restart's start state
        indices, masks, uniforms = list(range(n)), [1 << i for i in range(n)], np.empty(n)
        orders, draws = np.tile(np.arange(n), (sweeps, 1)), np.empty((sweeps, n))
        expected = []
        for m in range(sweeps):
            expected.append((plain.permutation(n).tolist(), plain.random(n).tolist()))
            order = indices.copy()
            indexed.shuffle(order)
            indexed.random(out=uniforms)
            assert (order, uniforms.tolist()) == expected[-1], (seed, m)
            order = masks.copy()
            masked.shuffle(order)
            masked.random(out=uniforms)
            assert ([b.bit_length() - 1 for b in order], uniforms.tolist()) == expected[-1]
            rows.shuffle(orders[m])
            rows.random(out=draws[m])
        assert list(zip(orders.tolist(), draws.tolist())) == expected, seed


def reference_metropolis(model, schedule, seed, target, start_evaluations):
    """Plain Metropolis loop with the annealers' draws, priced by qubo_energy.

    Counts one evaluation per flip attempt, plus ``start_evaluations`` per
    restart; stops after the visit whose new best energy is at most
    ``target``. A start state already at the target stops the run before
    any visit, or after one flip attempt when ``start_evaluations`` is set
    (the black box). Returns ``(best bits, best energy, restarts used,
    evaluations)``.
    """
    n = model.n_vars
    best_e = best_bits = None
    evaluations = 0
    for r in range(schedule.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
        s = rng.integers(0, 2, size=n).tolist()
        e = qubo_energy(model, s)
        evaluations += start_evaluations
        run_e, run_bits = e, list(s)
        met = e <= target
        done = met and not start_evaluations
        for sweep in range(schedule.sweeps):
            if done:
                break
            t = schedule.temperature(sweep)
            order, uniforms = rng.permutation(n).tolist(), rng.random(n).tolist()
            if met:
                order, done = order[:1], True
            for i, u in zip(order, uniforms):
                s[i] ^= 1
                de = qubo_energy(model, s) - e
                evaluations += 1
                if de > 0 and not u < math.exp(-float(de) / t):
                    s[i] ^= 1
                    continue
                e += de
                if e < run_e:
                    run_e, run_bits = e, list(s)
                    if run_e <= target:
                        done = True
                        break
        if best_e is None or run_e < best_e or (run_e == best_e and run_bits < best_bits):
            best_e, best_bits = run_e, run_bits
        if done:
            break
    return best_bits, best_e, r + 1, evaluations


@pytest.mark.parametrize("kernel", ["sequential", "black box"])
def test_target_fired_mid_sweep_counts_only_the_visits_made(kernel):
    # A coupled model on a cold, short schedule: the ground is reached part
    # way through a sweep, and in some seeds only after the first restart.
    model = random_tenths_model(np.random.default_rng(25), 10)
    ground = exhaustive_solve(model).ground_energy
    sched = AnnealSchedule(sweeps=3, t_initial=0.5, t_final=0.1, restarts=8)
    start_evaluations = int(kernel == "black box")
    mid_sweep_in_a_later_restart = False
    for seed in range(4):
        if kernel == "black box":
            result = anneal_black_box(lambda v: qubo_energy(model, BitVector.from_integer(v, 10)),
                                      10, sched, seed=seed, target_energy=ground)
        else:
            result = anneal(model, sched, seed=seed, target_energy=ground)
        ref = reference_metropolis(model, sched, seed, ground, start_evaluations)
        assert (list(result.best_assignment.bits), result.best_energy, result.restarts_used,
                result.energy_evaluations) == ref
        assert result.best_energy == ground
        attempts = result.energy_evaluations - start_evaluations * result.restarts_used
        mid_sweep_in_a_later_restart |= result.restarts_used > 1 and attempts % 10 != 0
    assert mid_sweep_in_a_later_restart


def block_model(rng, n, block=8):
    """A random tenths model whose couplers stay inside blocks of ``block``
    variables, and its exact ground energy: the sum of the blocks' grounds."""
    labels, linear, quadratic, ground = [], {}, {}, 0
    for first in range(0, n, block):
        part = random_tenths_model(rng, min(block, n - first))
        ground += exhaustive_solve(part).ground_energy
        rename = {lab: VarLabel.plain(first + lab.index) for lab in part.labels}
        labels += rename.values()
        linear.update((rename[a], h) for a, h in part.linear.items())
        quadratic.update(((rename[a], rename[b]), j) for (a, b), j in part.quadratic.items())
    return QuboModel(tuple(labels), linear, quadratic), ground


@pytest.mark.parametrize("target", ["none", "ground"])
@pytest.mark.parametrize("n", [1, 2, 16, 24])
@pytest.mark.parametrize("kernel", ["sequential", "black box"])
def test_kernels_match_the_reference_loop(kernel, n, target):
    model, ground = block_model(np.random.default_rng(40 + n), n)
    target_energy = ground if target == "ground" else None
    sched = AnnealSchedule(sweeps=6, t_initial=1.0, t_final=0.1, restarts=3)
    start_evaluations = int(kernel == "black box")
    for seed in range(3):
        if kernel == "black box":
            result = anneal_black_box(lambda v: qubo_energy(model, BitVector.from_integer(v, n)),
                                      n, sched, seed=seed, target_energy=target_energy)
        else:
            with mock.patch.object(annealer, "_fits_int64", return_value=False):
                result = anneal(model, sched, seed=seed, target_energy=target_energy)
        ref = reference_metropolis(model, sched, seed,
                                   -math.inf if target_energy is None else target_energy,
                                   start_evaluations)
        assert (list(result.best_assignment.bits), result.best_energy, result.restarts_used,
                result.energy_evaluations) == ref, seed


class TestAnnealBlackBox:
    def test_matches_explicit_anneal_on_wrapped_model(self):
        # same rng stream and exact float arithmetic: identical outcome
        model = random_integer_model(np.random.default_rng(14), 7)
        sched = AnnealSchedule(sweeps=40, t_initial=3.0, t_final=0.05, restarts=3)
        explicit = anneal(model, sched, seed=21)
        wrapped = anneal_black_box(
            lambda v: qubo_energy(model, BitVector.from_integer(v, 7)), model.n_vars, sched, seed=21
        )
        assert wrapped.best_assignment == explicit.best_assignment
        assert wrapped.best_energy == explicit.best_energy

    def test_one_evaluation_per_flip_attempt_plus_one_per_restart(self):
        model = random_integer_model(np.random.default_rng(15), 4)
        sched = AnnealSchedule(sweeps=10, t_initial=1.0, t_final=0.1, restarts=2)
        calls = []

        def energy(v):
            calls.append(v)
            return qubo_energy(model, BitVector.from_integer(v, 4))

        result = anneal_black_box(energy, 4, sched, seed=0)
        assert result.energy_evaluations == len(calls) == 2 * (1 + 10 * 4)

    def test_constant_objective_returns_some_assignment(self):
        sched = AnnealSchedule(sweeps=5, t_initial=1.0, t_final=0.5, restarts=2)
        result = anneal_black_box(lambda s: 0, 6, sched, seed=4)
        assert len(result.best_assignment) == 6
        assert result.best_energy == 0

    def test_energy_ties_go_to_least_bit_sequence(self):
        # A flat objective keeps each restart at its start: 7, 47, 33 and 31.
        # 33 = (1,0,0,0,0,1) is the least bit sequence, 7 = (1,1,1,0,0,0)
        # the least integer.
        sched = AnnealSchedule(sweeps=5, t_initial=1.0, t_final=0.5, restarts=4)
        result = anneal_black_box(lambda s: 0, 6, sched, seed=0)
        assert result.best_assignment.to_integer() == 33

    def test_start_state_at_target_stops_after_one_flip_attempt(self):
        seen = []

        def energy(v):
            assert type(v) is int and 0 <= v < 2**6
            seen.append(v)
            return 0

        sched = AnnealSchedule(sweeps=5, t_initial=1.0, t_final=0.5, restarts=2)
        result = anneal_black_box(energy, 6, sched, seed=4, target_energy=0.0)
        assert result.restarts_used == 1
        assert result.energy_evaluations == len(seen) == 2
        assert result.best_assignment.to_integer() == 63

    def test_popcount_trajectory(self):
        # Recorded with the earlier bit-list implementation of the loop.
        def energy(v):
            assert type(v) is int and 0 <= v < 2**16
            return -v.bit_count()

        sched = AnnealSchedule(sweeps=5, t_initial=10.0, t_final=1.0, restarts=2)
        result = anneal_black_box(energy, 16, sched, seed=3, record_trajectory=True)
        assert result.trajectory == (-11.0, -11.0, -12.0, -12.0, -13.0, -13.0, -13.0, -13.0, -14.0, -14.0)
        assert result.best_assignment.to_integer() == 61311
        assert result.best_energy == -14
        assert (result.restarts_used, result.energy_evaluations) == (2, 162)

    def test_infinite_energies(self):
        # inf - inf is NaN, and a NaN cost is rejected: on an objective that
        # is inf everywhere the state never leaves its start, and the run
        # still returns that start (it used to raise TypeError).
        seen = []

        def energy(v):
            seen.append(v)
            return math.inf

        sched = AnnealSchedule(sweeps=4, t_initial=1.0, t_final=0.5, restarts=2)
        result = anneal_black_box(energy, 5, sched, seed=2)
        starts = {seen[0], seen[1 + 4 * 5]}
        assert all(min((v ^ s).bit_count() for s in starts) <= 1 for v in seen)
        assert result.best_energy == math.inf
        assert result.best_assignment.to_integer() in starts
        assert result.energy_evaluations == len(seen) == 2 * (1 + 4 * 5)

    def test_target_energy_stops_early(self):
        model = build_bv_qubo_from_bits([1] * 8)
        sched = AnnealSchedule(sweeps=200, t_initial=0.05, t_final=0.01, restarts=4)
        result = anneal_black_box(
            lambda v: qubo_energy(model, BitVector.from_integer(v, 8)), 8, sched, seed=5,
            target_energy=-8.0,
        )
        assert result.best_energy == -8
        assert result.restarts_used == 1
        assert result.energy_evaluations < 2 * 4 * 200 * 8

    def test_best_energy_is_the_least_value_evaluated(self):
        # Every value rounds to the float nearest 1/3, so only exact
        # comparisons tell them apart.
        seen = []

        def energy(v):
            seen.append(Fraction(1, 3) + Fraction(v, 10**30))
            return seen[-1]

        sched = AnnealSchedule(5, 1.0, 0.5, restarts=2)
        result = anneal_black_box(energy, 6, sched, seed=4, record_trajectory=True)
        assert result.best_energy == min(seen)
        assert energy(result.best_assignment.to_integer()) == result.best_energy
        assert all(type(e) is float for e in result.trajectory)

    def test_fraction_floor_stops_at_its_float_target(self):
        # float(1/3) lies below 1/3, so an exact test against it would never fire.
        sched = AnnealSchedule(sweeps=200, t_initial=0.05, t_final=0.01, restarts=4)
        result = anneal_black_box(
            lambda v: Fraction(1, 3) + v.bit_count(), 8, sched, seed=5,
            target_energy=float(Fraction(1, 3)),
        )
        assert result.best_energy == Fraction(1, 3)
        assert result.best_assignment.to_integer() == 0
        assert result.restarts_used == 1
        assert result.energy_evaluations < 200 * 8

    def test_deterministic_for_fixed_seed(self):
        model = random_integer_model(np.random.default_rng(16), 5)
        sched = AnnealSchedule(sweeps=15, t_initial=2.0, t_final=0.1, restarts=2)
        def energy(v):
            return qubo_energy(model, BitVector.from_integer(v, 5))

        r1 = anneal_black_box(energy, 5, sched, seed=6)
        r2 = anneal_black_box(energy, 5, sched, seed=6)
        assert r1.best_assignment == r2.best_assignment
        assert r1.energy_evaluations == r2.energy_evaluations

    def test_rejects_empty_search_space(self):
        with pytest.raises(ValueError, match="need at least one variable, got n_vars=0"):
            anneal_black_box(lambda s: 0, 0, AnnealSchedule(1, 1.0, 1.0))
