"""Protocols: recovery, verification probes, query accounting, bench tables."""

import dataclasses
import functools
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiddenstring import protocol
from hiddenstring.annealer import AnnealSchedule, anneal_black_box, default_schedule
from hiddenstring.builders import build_bv_qubo, coupled_value, simon_coupled_energy
from hiddenstring.model import BitVector
from hiddenstring.oracles import BvOracle, SimonOracle, random_hidden_string
from hiddenstring.protocol import (
    BV_PROBES,
    ExperimentReport,
    bench_calls,
    check_collision,
    solve_bv,
    solve_simon,
    verify_simon,
    xor_recover,
)
from hiddenstring.protocol import _coupled_objective

GOLDEN = json.loads((Path(__file__).parent / "data" / "coupled_golden.json").read_text())
# The exact oracle queries of each golden case. The golden file records
# the larger counts of an earlier search, which no test reads.
COUPLED_QUERIES = [42, 49, 36, 65, 162, 196, 41, 92, 53, 100, 85]


class TestXorRecover:
    def test_recovers_hidden_string(self):
        a = BitVector.from_integer(0b0110, 4)
        w = BitVector.from_integer(0b1010, 4)
        assert xor_recover(w, w ^ a) == a

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_recover(BitVector.from_integer(1, 3), BitVector.from_integer(1, 4))

    def test_rejects_identical_inputs(self):
        w = BitVector.from_integer(5, 4)
        with pytest.raises(ValueError):
            xor_recover(w, w)


class TestCheckCollision:
    def test_true_exactly_on_cosets(self):
        a = BitVector.from_integer(0b101, 3)
        oracle = SimonOracle(a, seed=2)
        for wv in range(8):
            w = BitVector.from_integer(wv, 3)
            assert check_collision(oracle, w, w ^ a)
            other = BitVector.from_integer(wv ^ 0b001, 3)  # not in {w, w^a}
            assert not check_collision(oracle, w, other)

    def test_uses_two_queries(self):
        oracle = SimonOracle(BitVector.from_integer(3, 2), seed=0)
        before = oracle.queries
        check_collision(oracle, BitVector.from_integer(0, 2), BitVector.from_integer(3, 2))
        assert oracle.queries - before == 2


class TestVerifySimon:
    def test_accepts_only_the_hidden_string(self):
        a = BitVector.from_integer(0b1010, 4)
        oracle = SimonOracle(a, seed=4)
        for cv in range(16):
            candidate = BitVector.from_integer(cv, 4)
            assert verify_simon(oracle, candidate, seed=1) == (candidate == a)

    def test_query_cost_of_a_passing_check(self):
        a = BitVector.from_integer(0b0111, 4)
        oracle = SimonOracle(a, seed=9)
        before = oracle.queries
        assert verify_simon(oracle, a, seed=0)
        assert oracle.queries - before == 2 * 16

    def test_rejects_length_mismatch(self):
        oracle = SimonOracle(BitVector.from_integer(3, 2), seed=0)
        with pytest.raises(ValueError):
            verify_simon(oracle, BitVector.from_integer(1, 3))


class TestSolveBv:
    def test_exhaustive_recovers_every_string(self):
        n = 4
        for value in range(1 << n):
            a = BitVector.from_integer(value, n)
            report = solve_bv(BvOracle(a), solver="exhaustive", seed=1)
            assert report.success
            assert report.recovered_a == value
            assert report.hidden_a == value
            assert report.oracle_queries == n + BV_PROBES
            assert report.aqc_calls == 1

    def test_anneal_recovers_wide_string(self):
        rng = np.random.default_rng(31)
        a = random_hidden_string(64, rng)
        sched = AnnealSchedule(sweeps=40, t_initial=1.0, t_final=0.01, restarts=2)
        report = solve_bv(BvOracle(a), schedule=sched, seed=7)
        assert report.success
        assert report.recovered_a == a.to_integer()
        assert report.oracle_queries == 64 + BV_PROBES

    def test_failed_run_still_counts_flat_queries(self):
        # a schedule too hot to settle: the candidate is wrong, the probe
        # check catches it, and the query count is unchanged
        a = BitVector.from_integer(0xBEEF, 16)
        hot = AnnealSchedule(sweeps=2, t_initial=50.0, t_final=50.0, restarts=1)
        report = solve_bv(BvOracle(a), schedule=hot, seed=0)
        assert not report.success
        assert report.recovered_a != a.to_integer()
        assert report.diagnostics["probe_mismatches"] > 0
        assert report.oracle_queries == 16 + BV_PROBES

    def test_blind_report_hides_the_string(self):
        a = BitVector.from_integer(9, 4)
        report = solve_bv(BvOracle(a), solver="exhaustive", seed=0, blind=True)
        assert report.hidden_a is None
        assert report.recovered_a == 9

    def test_rejects_unknown_solver(self):
        with pytest.raises(ValueError):
            solve_bv(BvOracle(BitVector.from_integer(1, 2)), solver="brute")

    def test_exhaustive_cap_is_checked_before_any_query(self):
        oracle = BvOracle(BitVector.from_integer(1, 25))
        with pytest.raises(ValueError, match="cap is 24"):
            solve_bv(oracle, solver="exhaustive")
        assert oracle.queries == 0


class TestCoupledSearch:
    @pytest.mark.parametrize(
        "case, recorded, queries",
        [(g["case"], g["report"], q) for g, q in zip(GOLDEN["cases"], COUPLED_QUERIES, strict=True)],
        ids=[f"{k}-n{g['case']['n']}-{g['case']['signal']}-{g['case']['j_policy']}"
             for k, g in enumerate(GOLDEN["cases"])],
    )
    def test_reproduces_recorded_reports_within_the_query_bound(self, case, recorded, queries):
        oracle = SimonOracle(BitVector.from_integer(case["a"], case["n"]), seed=case["oracle_seed"])
        schedule = AnnealSchedule(**case["schedule"]) if case["schedule"] else None
        report = solve_simon(
            oracle,
            j_policy=case["j_policy"],
            j=case["j"],
            budget=case["budget"],
            signal=case["signal"],
            schedule=schedule,
            seed=case["seed"],
        ).to_dict()
        del report["wall_time_s"]
        recorded = dict(recorded)
        del recorded["oracle_queries"]
        assert report.pop("oracle_queries") == queries
        # A call's label memo holds at most 2^n half-strings (w and y share
        # it), a check costs 2 queries and a verified candidate 32.
        assert queries <= report["diagnostics"]["calls"] * (2 ** case["n"] + 2) + 32
        assert report == recorded

    @pytest.mark.parametrize("n", [3, 4])
    def test_objective_equals_simon_coupled_energy_on_every_state(self, n):
        oracle = SimonOracle(BitVector.from_integer(0b101 if n == 3 else 0b0110, n), seed=n)
        for j in range(1, n + 1):
            energy = _coupled_objective(oracle, j)
            for v in range(1 << (2 * n)):
                value = energy(v)
                w = BitVector.from_integer(v & ((1 << n) - 1), n)
                y = BitVector.from_integer(v >> n, n)
                assert value == simon_coupled_energy(oracle, w, y, j)
                assert type(value) is int

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_objective_equals_simon_coupled_energy_at_bench_sizes(self, data):
        n = data.draw(st.integers(5, 8), label="n")
        a = data.draw(st.integers(1, (1 << n) - 1), label="a")
        oracle = SimonOracle(BitVector.from_integer(a, n), seed=data.draw(st.integers(0, 2**32)))
        states = st.lists(st.integers(0, (1 << (2 * n)) - 1), min_size=1, max_size=8)
        for j in range(1, n + 1):
            energy = _coupled_objective(oracle, j)
            for v in data.draw(states, label=f"states at j={j}"):
                w = BitVector.from_integer(v & ((1 << n) - 1), n)
                y = BitVector.from_integer(v >> n, n)
                assert energy(v) == simon_coupled_energy(oracle, w, y, j)

    def test_objective_queries_each_half_string_once_per_callback(self):
        n = 3
        oracle = SimonOracle(BitVector.from_integer(0b110, n), seed=1)
        for _call in range(2):  # a new callback starts with an empty memo
            energy = _coupled_objective(oracle, 2)
            before = oracle.queries
            for v in range(1 << (2 * n)):
                energy(v)
            assert oracle.queries - before == 1 << n

    def test_objective_memoizes_the_y_half_too(self):
        # Visiting y = 0..2**n - 1 with w = 0 first, so each label is first
        # needed as a y half, then every w: one query per half-string.
        n = 4
        oracle = SimonOracle(BitVector.from_integer(0b0110, n), seed=2)
        energy = _coupled_objective(oracle, 3)
        for v in [y << n for y in range(1 << n)] * 2 + list(range(1 << n)):
            energy(v)
        assert oracle.queries == 1 << n

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_floor_is_exact_once_the_memo_is_full(self, n):
        for a in range(1, 1 << n):
            oracle = SimonOracle(BitVector.from_integer(a, n), seed=a + 10 * n)
            table = oracle.reveal_label_table().tolist()
            for j in range(1, n + 1):
                energy = _coupled_objective(oracle, j)
                for s in range(1 << n):  # the w halves, with y = 0 bought first
                    assert energy._floor() == -1
                    energy(s)
                lowest = min(
                    coupled_value(table[w], table[y], w >> (j - 1) & 1, y >> (j - 1) & 1)
                    for w in range(1 << n) for y in range(1 << n)
                )
                assert energy._floor() == lowest
                assert energy._floor() == (-1 if a >> (j - 1) & 1 else 0)

    @pytest.mark.parametrize("restarts", [None, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_floor_stop_changes_no_result(self, n, restarts):
        schedule = protocol._default_schedule("simon", "coupled", n)
        if restarts is not None:
            schedule = dataclasses.replace(schedule, restarts=restarts)
        if n <= 4:
            hidden = range(1, 1 << n)
        else:
            hidden = np.random.default_rng(n).choice(np.arange(1, 1 << n), 20, replace=False).tolist()
        for a in hidden:
            for j in range(1, n + 1):
                oracles = [SimonOracle(BitVector.from_integer(a, n), seed=a) for _ in range(2)]
                stopped = _coupled_objective(oracles[0], j)
                plain = _coupled_objective(oracles[1], j)
                runs = [
                    anneal_black_box(energy, 2 * n, schedule, seed=a * n + j, target_energy=-1,
                                     record_trajectory=True)
                    for energy in (stopped, lambda v: plain(v))  # the lambda has no _floor
                ]
                assert runs[0] == runs[1]
                assert oracles[0].queries == oracles[1].queries

    def test_floor_stop_skips_the_sweeps_after_a_full_memo(self):
        # Bit 1 of a is clear, so the j = 1 call cannot reach -1 and runs
        # its whole schedule: 384 sweeps of 16 visits plus the start.
        n, a = 8, 0b10110110
        oracle = SimonOracle(BitVector.from_integer(a, n), seed=3)
        energy = _coupled_objective(oracle, 1)
        calls = 0

        @functools.wraps(energy)
        def counted(v):
            nonlocal calls
            calls += 1
            return energy(v)

        schedule = protocol._default_schedule("simon", "coupled", n)
        result = anneal_black_box(counted, 2 * n, schedule, seed=5, target_energy=-1)
        assert result.best_energy == 0
        assert result.energy_evaluations == 384 * 2 * n + 1 == 6145
        assert calls <= result.energy_evaluations - 1000
        assert oracle.queries == 1 << n


    @pytest.mark.parametrize("signal", ["square", "hamming"])
    @pytest.mark.parametrize("mode", ["coupled", "literal"])
    def test_unknown_signal_rejected_before_any_query(self, mode, signal):
        oracle = SimonOracle(BitVector.from_integer(0b101, 3), seed=0)
        with pytest.raises(ValueError, match="signal"):
            solve_simon(oracle, mode=mode, signal=signal)
        assert oracle.queries == 0

    def test_indicator_signal_is_accepted_in_both_modes(self):
        a = BitVector.from_integer(0b101, 3)
        for mode in ("coupled", "literal"):
            named = solve_simon(SimonOracle(a, seed=0), mode=mode, signal="indicator", seed=2)
            default = solve_simon(SimonOracle(a, seed=0), mode=mode, seed=2)
            assert named.to_dict() | {"wall_time_s": 0} == default.to_dict() | {"wall_time_s": 0}
            assert named.signal == ("indicator" if mode == "coupled" else None)


class TestSolveSimon:
    def test_coupled_mode_end_to_end(self):
        rng = np.random.default_rng(41)
        for seed in range(4):
            a = random_hidden_string(6, rng, nonzero=True)
            oracle = SimonOracle(a, seed=seed)
            report = solve_simon(oracle, seed=seed)
            assert report.success
            assert report.recovered_a == a.to_integer()
            assert 1 <= report.aqc_calls <= report.budget == 64 * 6
            assert report.trace[-1]["accepted"]

    def test_literal_mode_with_valid_fixed_j(self):
        rng = np.random.default_rng(43)
        bits = list(random_hidden_string(5, rng))
        bits[0] = 1  # make j=1 a coordinate where the strings must differ
        a = BitVector(bits)
        oracle = SimonOracle(a, seed=3)
        report = solve_simon(oracle, mode="literal", j_policy="fixed", j=1, seed=5)
        assert report.success
        assert report.recovered_a == a.to_integer()
        assert report.mode == "literal"
        assert report.signal is None

    def test_fixed_j_on_unset_bit_exhausts_budget(self):
        a = BitVector.from_integer(0b1110, 4)  # bit 1 of the string is 0
        oracle = SimonOracle(a, seed=1)
        report = solve_simon(
            oracle, mode="literal", j_policy="fixed", j=1, budget=5, seed=2
        )
        assert not report.success
        assert report.recovered_a is None
        assert report.aqc_calls == 5
        assert not any(rec["accepted"] for rec in report.trace)

    def test_cycle_policy_reaches_the_set_bit(self):
        a = BitVector.from_integer(0b1000, 4)  # only j=4 admits a collision
        oracle = SimonOracle(a, seed=6)
        report = solve_simon(oracle, mode="literal", seed=3)
        assert report.success
        assert report.trace[-1]["j"] == 4
        assert report.trace[-1]["accepted"]

    def test_trace_and_counters_are_consistent(self):
        a = BitVector.from_integer(0b011, 3)
        oracle = SimonOracle(a, seed=2)
        report = solve_simon(oracle, seed=0)
        assert len(report.trace) == report.diagnostics["calls"]
        for rec in report.trace:
            assert 1 <= rec["j"] <= 3
            assert 0 <= rec["w"] < 8 and 0 <= rec["y"] < 8
        assert report.oracle_queries == oracle.queries

    def test_blind_report_hides_the_string(self):
        a = BitVector.from_integer(0b110, 3)
        report = solve_simon(SimonOracle(a, seed=0), seed=1, blind=True)
        assert report.hidden_a is None
        assert report.success

    def test_validates_arguments(self):
        oracle = SimonOracle(BitVector.from_integer(3, 2), seed=0)
        with pytest.raises(ValueError):
            solve_simon(oracle, mode="spectral")
        with pytest.raises(ValueError, match="unknown j policy 'random'"):
            solve_simon(oracle, j_policy="random")
        with pytest.raises(ValueError):
            solve_simon(oracle, j_policy="fixed")  # no j given
        with pytest.raises(ValueError):
            solve_simon(oracle, j=1)  # j without fixed policy
        with pytest.raises(ValueError):
            solve_simon(oracle, budget=0)
        with pytest.raises(ValueError, match="budget must be an integer"):
            solve_simon(oracle, budget=1.5)
        for mode in ("coupled", "literal"):
            for j in (0, oracle.n + 1):
                with pytest.raises(ValueError, match="j must be in"):
                    solve_simon(oracle, mode=mode, j_policy="fixed", j=j)
            # True ran as j = 1 and 1.5 died in a shift, both after checking.
            for j in (True, 1.5):
                with pytest.raises(ValueError, match="j must be an integer"):
                    solve_simon(oracle, mode=mode, j_policy="fixed", j=j)
        assert oracle.queries == 0


class TestDefaultSchedule:
    """``_default_schedule`` is the schedule each solve runs when given none."""

    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_bv_is_the_parity_models_default(self, n):
        rng = np.random.default_rng(n)
        strings = [0, (1 << n) - 1, *(random_hidden_string(n, rng).to_integer() for _ in range(4))]
        for a in strings:
            model = build_bv_qubo(BvOracle(BitVector.from_integer(a, n)))
            for mode in ("coupled", "literal"):
                assert protocol._default_schedule("bv", mode, n) == default_schedule(model)
        assert protocol._default_schedule("bv", "coupled", n) == AnnealSchedule(
            sweeps=100 * n, t_initial=1.0, t_final=0.01, restarts=8
        )

    @pytest.mark.parametrize(
        "mode, solver, expected",
        [
            ("coupled", "anneal_black_box", AnnealSchedule(48 * 5, 6.0, 0.01, 1)),
            ("literal", "anneal", AnnealSchedule(40, 5.0, 0.01, 1)),
        ],
    )
    def test_simon_solve_runs_it(self, monkeypatch, mode, solver, expected):
        seen = []
        real = getattr(protocol, solver)

        def spy(objective, *args, **options):
            seen.append(args[-1])  # both solvers take the schedule last by position
            return real(objective, *args, **options)

        monkeypatch.setattr(protocol, solver, spy)
        oracle = SimonOracle(BitVector.from_integer(0b10110, 5), seed=4)
        report = solve_simon(oracle, mode=mode, budget=6, seed=1)
        assert len(seen) == report.diagnostics["calls"] >= 1
        assert set(seen) == {protocol._default_schedule("simon", mode, 5)} == {expected}


class TestExperimentReport:
    def test_dict_form_is_json_ready_and_versioned(self):
        report = solve_bv(BvOracle(BitVector.from_integer(5, 4)), solver="exhaustive")
        data = report.to_dict()
        assert data["schema_version"] == 1
        assert data["problem"] == "bv"
        round_tripped = json.loads(json.dumps(data, sort_keys=True))
        assert round_tripped == data

    def test_dict_keys_are_the_version_then_the_fields(self):
        report = solve_simon(SimonOracle(BitVector.from_integer(0b101, 3), seed=1), seed=2)
        data = report.to_dict()
        assert list(data) == [
            "schema_version", "problem", "n", "seed", "solver", "mode", "j_policy",
            "signal", "budget", "hidden_a", "recovered_a", "success", "aqc_calls",
            "oracle_queries", "wall_time_s", "trace", "diagnostics",
        ]
        assert list(data) == [
            "schema_version", *(f.name for f in dataclasses.fields(ExperimentReport))
        ]
        # trace and diagnostics are copies, the trace as a list
        assert data["trace"] == list(report.trace) and data["trace"][0] is not report.trace[0]
        assert data["diagnostics"] == report.diagnostics
        assert data["diagnostics"] is not report.diagnostics


class TestBenchCalls:
    def test_bv_rows_have_flat_query_counts(self):
        rows = bench_calls("bv", [4, 6], trials=3, seed=1, solver="exhaustive")
        assert [row["n"] for row in rows] == [4, 6]
        for row in rows:
            assert row["trials"] == 3
            assert row["success_count"] == 3
            assert row["correct_count"] == 3
            assert row["mean_queries"] == row["n"] + BV_PROBES
            assert row["stdev_queries"] == 0.0
            assert row["median_calls"] == 1.0

    def test_single_trial_has_zero_spread(self):
        rows = bench_calls("simon", [3], trials=1, seed=2, mode="literal")
        assert rows[0]["stdev_calls"] == 0.0
        assert rows[0]["stdev_queries"] == 0.0

    @pytest.mark.parametrize(
        "problem, options",
        [("bv", {"solver": "exhaustive"}), ("simon", {"mode": "literal"})],
    )
    def test_repeated_n_gives_its_own_row(self, problem, options):
        rows = bench_calls(problem, [4, 6, 4], trials=2, seed=5, **options)
        singles = [
            row for n in (4, 6, 4)
            for row in bench_calls(problem, [n], trials=2, seed=5, **options)
        ]
        assert rows == singles
        assert all(row["success_count"] <= row["trials"] for row in rows)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bench_calls("parity", [4], trials=1)
        with pytest.raises(ValueError):
            bench_calls("bv", [4], trials=0)
        with pytest.raises(ValueError, match="trials must be an integer"):
            bench_calls("bv", [4], trials=2.5)
        with pytest.raises(ValueError, match="trials must be an integer"):
            bench_calls("bv", [4], trials=True)
        # A numpy count is stored as the int it stands for, so the row stays JSON.
        (row,) = bench_calls("bv", [4], trials=np.int64(1))
        assert type(row["trials"]) is int
        json.dumps(row)

    @pytest.mark.parametrize("problem", ["bv", "simon"])
    def test_rejects_an_empty_size_list_before_any_trial(self, problem):
        with mock.patch.object(protocol, "random_hidden_string", side_effect=AssertionError):
            with pytest.raises(ValueError, match="n_values"):
                bench_calls(problem, [], trials=1)

    @pytest.mark.parametrize(
        "problem, n_values, options, named",
        [
            ("bv", [4, 0], {}, "at least one bit, got n=0"),
            ("simon", [8, 1], {}, "needs n >= 2, got n=1"),
            ("simon", [4, 0], {}, "at least one bit, got n=0"),
            # A fixed j past a later size stops the run before the first size's trials.
            ("simon", [8, 4], {"j_policy": "fixed", "j": 6}, r"j must be in 1\.\.4, got 6"),
            # So does a size past the exhaustive cap.
            ("bv", [12, 30], {"solver": "exhaustive"}, "30 variables .* cap is 24"),
        ],
    )
    def test_rejects_every_bad_size_before_any_trial(self, problem, n_values, options, named):
        with mock.patch.object(protocol, "random_hidden_string", side_effect=AssertionError):
            with pytest.raises(ValueError, match=named):
                bench_calls(problem, n_values, trials=1, **options)

    @pytest.mark.parametrize("problem, solver", [("bv", "magic"), ("simon", "exhaustive")])
    def test_rejects_a_solver_before_any_query(self, problem, solver):
        # An unknown solver is solve_bv's check, made before its first query;
        # a solver for simon is bench_calls' own, made before any trial.
        with mock.patch.object(BvOracle, "query", side_effect=AssertionError), \
                mock.patch.object(SimonOracle, "query", side_effect=AssertionError):
            with pytest.raises(ValueError, match="solver"):
                bench_calls(problem, [4], trials=1, solver=solver)
