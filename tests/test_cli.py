"""Command-line interface: subcommands, exit codes, config merging."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from hiddenstring import cli
from hiddenstring.annealer import AnnealSchedule
from hiddenstring.builders import build_bv_qubo_from_bits, build_simon_literal_qubo
from hiddenstring.cli import _build_parser, _config_flags, main
from hiddenstring.model import BitVector
from hiddenstring.protocol import _SCHEMA_VERSION, _default_schedule
from hiddenstring.qubofile import export_qubo, model_to_dict


# Exact spectrum outputs; see the file's "about" field.
SPECTRUM_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "spectrum_golden.json").read_text()
)["cases"]

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dumped(payload):
    """The bytes the CLI writes for a JSON payload."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def stable_lines(text):
    """A report's lines apart from the one that varies, wall_time_s."""
    return [ln for ln in text.splitlines() if "wall_time_s" not in ln]


class TestBuild:
    def test_bv_qubo_document(self, capsys):
        code, out, _ = run(
            capsys, "build", "--problem", "bv", "--n", "4", "--a", "10",
            "--format", "qubo",
        )
        assert code == 0
        assert out == export_qubo(build_bv_qubo_from_bits(BitVector.from_integer(10, 4)))

    def test_simon_literal_document(self, capsys):
        code, out, _ = run(
            capsys, "build", "--problem", "simon", "--n", "3", "--j", "1",
            "--format", "qubo",
        )
        assert code == 0
        assert out.startswith("p qubo 0 8 4 1\n")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "build", "--problem", "simon", "--n", "3", "--j", "2",
        )
        assert code == 0
        assert json.loads(out) == json.loads(
            json.dumps(model_to_dict(build_simon_literal_qubo(3, 2)))
        )

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "m.qubo"
        code, out, _ = run(
            capsys, "build", "--problem", "bv", "--n", "2", "--a", "3",
            "--format", "qubo", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("p qubo 0 2 2 0\n")


class TestSolve:
    def test_bv_end_to_end(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--problem", "bv", "--n", "8", "--a", "170",
            "--seed", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["recovered_a"] == 170
        assert report["success"] is True
        assert report["oracle_queries"] == 8 + 16

    def test_simon_end_to_end(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--problem", "simon", "--n", "5", "--a", "11",
            "--seed", "3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["recovered_a"] == 11
        assert report["hidden_a"] == 11

    def test_blind_omits_hidden_string(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--problem", "bv", "--n", "4", "--a", "7",
            "--solver", "exhaustive", "--blind",
        )
        assert code == 0
        assert json.loads(out)["hidden_a"] is None

    def test_failed_solve_exits_one(self, capsys):
        code, out, err = run(
            capsys, "solve", "--problem", "bv", "--n", "16", "--a", "48879",
            "--seed", "0", "--sweeps", "2", "--restarts", "1",
            "--t0", "50", "--t1", "50",
        )
        assert code == 1
        assert json.loads(out)["success"] is False
        assert "failed" in err

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (("--problem", "bv", "--sweeps", "50"), AnnealSchedule(50, 1.0, 0.01, 8)),
            (("--problem", "simon", "--restarts", "3"), AnnealSchedule(384, 6.0, 0.01, 3)),
            (("--problem", "simon", "--mode", "literal", "--t0", "2", "--t1", "0.5"),
             AnnealSchedule(40, 2.0, 0.5, 1)),
            (("--problem", "bv", "--t0", "2.0"), AnnealSchedule(800, 2.0, 0.01, 8)),
        ],
        ids=["bv-sweeps", "coupled-restarts", "literal-temperatures", "bv-t0"],
    )
    def test_a_schedule_flag_replaces_only_its_field(self, capsys, monkeypatch, flags,
                                                     expected):
        seen = []
        for name in ("solve_bv", "solve_simon"):
            def spy(oracle, *, schedule, solve=getattr(cli, name), **options):
                seen.append(schedule)
                return solve(oracle, schedule=schedule, **options)
            monkeypatch.setattr(cli, name, spy)
        code, _, _ = run(capsys, "solve", *flags, "--n", "8", "--budget", "1")
        assert code in (0, 1)
        assert seen == [expected]

    def test_deterministic_apart_from_wall_time(self, capsys, tmp_path):
        argv = [
            "solve", "--problem", "simon", "--n", "4", "--a", "random",
            "--seed", "9",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert stable_lines(first.read_text()) == stable_lines(second.read_text())


class TestValidation:
    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "bv")
        assert code == 2
        assert "--n" in err

    def test_missing_problem(self, capsys):
        code, out, err = run(capsys, "solve", "--n", "4")
        assert code == 2 and out == ""
        assert "--problem is required" in err

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_problem(self, capsys):
        assert run(capsys, "solve", "--problem", "parity", "--n", "4")[0] == 2

    def test_bad_hidden_string(self, capsys):
        assert run(capsys, "solve", "--problem", "bv", "--n", "4", "--a", "xyz")[0] == 2
        assert run(capsys, "solve", "--problem", "bv", "--n", "4", "--a", "16")[0] == 2
        assert run(capsys, "solve", "--problem", "simon", "--n", "4", "--a", "0")[0] == 2

    def test_bad_j(self, capsys):
        code, _, err = run(
            capsys, "build", "--problem", "simon", "--n", "4", "--j", "9"
        )
        assert code == 2
        assert "j must be in 1..4, got 9" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            ("build --problem bv --n 0 --a 0", "got n=0"),
            ("solve --problem bv --n 0 --a 0", "got n=0"),
            ("spectrum --problem bv --n 0 --a 0", "got n=0"),
            ("solve --problem simon --n 1", "got n=1"),
            ("solve --problem simon --n 4 --a 0", "got a=0"),
            ("solve --problem bv --n 4 --a 16", "value 16 does not fit in 4 bits"),
            ("build --problem simon --n 4 --j 9", "j must be in 1..4, got 9"),
            ("solve --problem simon --n 4 --j-policy fixed --j 9", "j must be in 1..4, got 9"),
            ("bench --problem simon --n 4 --j-policy fixed --j 9 --trials 1",
             "j must be in 1..4, got 9"),
            ("solve --problem simon --n 4 --budget 0", "budget must be positive, got 0"),
            ("solve --problem bv --n 4 --sweeps 0", "sweeps must be positive, got 0"),
            ("solve --problem simon --n 4 --restarts 0", "restarts must be positive, got 0"),
            ("bench --problem bv --n 4 --trials 0", "trials must be positive, got 0"),
            ("solve --problem bv --n 4 --t0 1 --t1 2", "t_initial=1.0, t_final=2.0"),
            # --t0 alone keeps the default t_final, which the schedule checks it against.
            ("solve --problem bv --n 4 --a 1 --t0 0.005", "t_initial=0.005, t_final=0.01"),
            ("solve --problem bv --n 8 --a 5 --t0 inf --t1 0.01 --sweeps 5",
             "temperatures must be finite, got t_initial=inf"),
            ("solve --problem simon --n 4 --t0 nan --t1 0.01", "finite, got t_initial=nan"),
            ("solve --problem bv --n 8 --a 5 --t0 1e200 --t1 1e-200 --sweeps 2",
             "temperature underflows to 0.0: t_initial=1e+200, t_final=1e-200, sweeps=2"),
            ("solve --problem simon --n 4 --t0 1e200 --t1 1e-200 --sweeps 2",
             "temperature underflows to 0.0"),
            ("solve --problem bv --n 25 --solver exhaustive", "cap is 24"),
        ],
    )
    def test_library_checks_exit_two(self, capsys, argv, named):
        # Ranges are checked by the library code that reads the flag, not
        # by the CLI; its ValueError still exits 2 with no output.
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert named in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            # A schedule override is sized to n only after n is checked.
            ("bench --problem bv --n 0 --trials 1 --restarts 2",
             "hidden strings need at least one bit, got n=0"),
            # A bad size late in the list stops the run before any trial.
            ("bench --problem simon --n 8,1 --trials 20",
             "a 2-to-1 oracle needs n >= 2, got n=1"),
            ("bench --problem bv --n 4,0 --trials 3 --restarts 2", "got n=0"),
            # So does a fixed j past a later size.
            ("bench --problem simon --n 8,4 --j-policy fixed --j 6 --trials 20",
             "j must be in 1..4, got 6"),
            # And a size past the exhaustive cap.
            ("bench --problem bv --n 4,30 --solver exhaustive --trials 3",
             "exhaustive enumeration of 30 variables would visit 2^30 assignments; cap is 24"),
        ],
    )
    def test_bench_checks_every_size_before_any_trial(self, capsys, monkeypatch, argv, named):
        trials = []
        monkeypatch.setattr("hiddenstring.protocol.random_hidden_string",
                            lambda *args, **kwargs: trials.append(args))
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert named in err
        assert trials == []

    def test_n_list_only_for_bench(self, capsys):
        assert run(capsys, "solve", "--problem", "bv", "--n", "4,6", "--a", "1")[0] == 2

    @pytest.mark.parametrize("command", ["solve", "build", "spectrum"])
    def test_one_value_list_only_for_bench(self, capsys, command):
        code, out, err = run(capsys, command, "--problem", "bv", "--n", "5,", "--a", "3")
        assert code == 2 and out == ""
        assert "only bench accepts a list of n values" in err

    @pytest.mark.parametrize("n", [",", ",,"])
    def test_empty_n_list(self, capsys, n):
        code, out, err = run(capsys, "bench", "--problem", "bv", "--n", n, "--trials", "1")
        assert code == 2 and out == ""
        assert "--n needs at least one value" in err

    @pytest.mark.parametrize("command", [["solve"], ["bench", "--trials", "1"]])
    def test_solver_applies_only_to_bv(self, capsys, command):
        code, out, err = run(
            capsys, *command, "--problem", "simon", "--n", "3", "--solver", "exhaustive",
        )
        assert code == 2 and out == ""
        assert "--solver exhaustive applies only to --problem bv" in err

    def test_workers_flag_is_gone(self, capsys):
        code, out, err = run(
            capsys, "bench", "--problem", "bv", "--n", "4", "--trials", "1",
            "--workers", "2",
        )
        assert code == 2 and out == ""
        assert "--workers" in err

    @pytest.mark.parametrize("command", [["solve"], ["bench", "--trials", "1"]])
    def test_signal_flag_is_gone(self, capsys, command):
        code, out, err = run(
            capsys, *command, "--problem", "simon", "--n", "4", "--signal", "indicator",
        )
        assert code == 2 and out == ""
        assert "--signal" in err


class TestBench:
    def test_bv_table(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--problem", "bv", "--n", "4,6", "--trials", "2",
            "--solver", "exhaustive", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "bench"
        assert [row["n"] for row in payload["rows"]] == [4, 6]
        assert all(row["success_count"] == 2 for row in payload["rows"])

    def test_row_does_not_depend_on_the_other_sizes(self, capsys):
        args = ("bench", "--problem", "bv", "--restarts", "3", "--trials", "4", "--seed", "2")
        code, out, _ = run(capsys, *args, "--n", "4,8")
        assert code == 0
        code, single, _ = run(capsys, *args, "--n", "4")
        assert code == 0
        assert json.loads(out)["rows"][0] == json.loads(single)["rows"][0]

    @pytest.mark.parametrize(
        "flags, sweeps",
        [
            (("--problem", "bv"), [400, 800]),
            (("--problem", "simon"), [192, 384]),
            (("--problem", "simon", "--mode", "literal"), [40, 40]),
        ],
    )
    def test_schedule_override_sized_per_n(self, capsys, monkeypatch, flags, sweeps):
        # --restarts replaces only restarts: every other field is the solve's
        # default at each n.
        seen = []

        def fake_bench_calls(problem, n_values, trials, **options):
            default = _default_schedule(problem, options["mode"], n_values[0])
            seen.append((options["schedule"], default))
            return []

        monkeypatch.setattr("hiddenstring.cli.bench_calls", fake_bench_calls)
        code, _, _ = run(capsys, "bench", *flags, "--n", "4,8", "--restarts", "3")
        assert code == 0
        assert [schedule.sweeps for schedule, _ in seen] == sweeps
        for schedule, default in seen:
            assert schedule.restarts == 3
            assert (schedule.t_initial, schedule.t_final) == (default.t_initial, default.t_final)


class TestSpectrum:
    def test_literal_model_spectrum(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--problem", "simon", "--n", "3", "--j", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ground_energy"] == "-2"
        assert payload["ground_count"] == 16
        assert len(payload["entries"]) == 256

    def test_top_limits_entries(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--problem", "bv", "--n", "3", "--a", "5", "--top", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["entries"]) == 2
        assert payload["entries"][0] == [5, "-2"]

    def test_top_must_be_positive(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--problem", "bv", "--n", "3", "--a", "5", "--top", "0"
        )
        assert code == 2 and out == ""
        assert "--top must be positive" in err

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "m.qubo"
        path.write_text(export_qubo(build_bv_qubo_from_bits([1, 1, 0])), encoding="ascii")
        code, out, _ = run(capsys, "spectrum", "--in", str(path))
        assert code == 0
        assert json.loads(out)["ground_energy"] == "-2"


class TestSpectrumGolden:
    @pytest.mark.parametrize("case", SPECTRUM_GOLDEN, ids=lambda case: case["name"])
    def test_output_is_byte_identical(self, capsys, tmp_path, case):
        flags = case.get("argv")
        if flags is None:
            path = tmp_path / "model.qubo"
            path.write_text(case["qubo"], encoding="ascii")
            flags = ["--in", str(path)]
        payload, top = case["payload"], case["top"]
        assert run(capsys, "spectrum", *flags) == (0, dumped(payload), "")
        expected_top = dumped(dict(payload, entries=payload["entries"][:top]))
        assert run(capsys, "spectrum", *flags, "--top", str(top)) == (0, expected_top, "")


class TestSchemaVersion:
    def test_every_payload_carries_the_one_version(self, capsys):
        versions = []
        for argv in (
            "solve --problem bv --n 4 --a 5",
            "bench --problem bv --n 4 --trials 1 --solver exhaustive",
            "spectrum --problem simon --n 3 --j 1 --top 2",
        ):
            code, out, _ = run(capsys, *argv.split())
            assert code == 0
            versions.append(json.loads(out)["schema_version"])
        assert versions == [_SCHEMA_VERSION] * 3


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_top_does_not_carry_over(self, capsys):
        args = ("spectrum", "--problem", "bv", "--n", "4", "--a", "6")
        code, topped, _ = run(capsys, *args, "--top", "2")
        assert code == 0 and len(json.loads(topped)["entries"]) == 2
        code, full, _ = run(capsys, *args)
        assert code == 0
        payload = json.loads(full)
        assert len(payload["entries"]) == 16
        assert dict(payload, entries=payload["entries"][:2]) == json.loads(topped)

    def test_usage_error_does_not_break_the_next_call(self, capsys):
        code, out, err = run(capsys, "spectrum", "--problem", "bv", "--n", "3", "--bogus")
        assert code == 2 and out == ""
        assert "--bogus" in err
        code, out, _ = run(capsys, "spectrum", "--problem", "bv", "--n", "3", "--a", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"][0] == [5, "-2"] and len(payload["entries"]) == 8


class TestExportImport:
    def test_json_to_qubo_and_back(self, capsys, tmp_path):
        model = build_simon_literal_qubo(3, 1)
        json_path = tmp_path / "m.json"
        json_path.write_text(json.dumps(model_to_dict(model)))
        qubo_path = tmp_path / "m.qubo"

        code, out, _ = run(capsys, "export", "--in", str(json_path), "--out", str(qubo_path))
        assert code == 0
        assert qubo_path.read_text() == export_qubo(model)

        code, out, _ = run(capsys, "import", "--in", str(qubo_path))
        assert code == 0
        imported = json.loads(out)
        assert imported["quadratic"] == [["x0", "x3", "-2"]]

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.qubo"
        bad.write_text("p qubo 0 2 1 0\n9 9 1\n")
        code, _, err = run(capsys, "import", "--in", str(bad))
        assert code == 2
        assert "out of range" in err

    def test_huge_exponent_exits_two_in_both_readers(self, capsys, tmp_path):
        # Read as a Fraction, 1e20000000 would build 10**20000000 first.
        qubo = tmp_path / "huge.qubo"
        qubo.write_text("p qubo 0 1 1 0\n0 0 1e20000000\n")
        code, out, err = run(capsys, "spectrum", "--in", str(qubo))
        assert (code, out) == (2, "")
        assert "line 2" in err
        model = tmp_path / "huge.json"
        model.write_text(json.dumps({"kind": "qubo", "labels": ["x0"],
                                     "linear": {"x0": "-1E-20000000"}}))
        code, out, err = run(capsys, "export", "--in", str(model))
        assert (code, out) == (2, "")
        assert "exponent" in err

    @pytest.mark.parametrize("text", [
        '{"kind": "qubo", "labels": ["x0"], "linear": {"x0": 1e400}}',
        '{"kind": "qubo", "labels": ["x0"], "linear": {"x0": 0.1}}',
        '{"kind": "qubo", "labels": ["x0"], "linear": {"x0": true}}',
        '{"kind": "qubo", "labels": ["x0", "x1"], "quadratic": [["x0", "x1", false]]}',
        '{"kind": "qubo", "labels": ["x0"], "linear": [1]}',
        '{"kind": "qubo", "labels": ["x0"], "linear": "x"}',
        '{"kind": "qubo", "labels": ["x0", "x1"], "quadratic": {"x0x1": 1}}',
        '{"kind": "qubo", "labels": [1]}',
        '{"kind": "qubo", "labels": ["x0", "x1"], "quadratic": [["x0", "x1"]]}',
        '{"kind": "qubo", "labels": ["x0", "x1"], "quadratic": [5]}',
        '{"kind": "qubo", "labels": ["x0", "x1"], "quadratic": [["x0", "x1", 1, 2]]}',
        "[1]",
        '{"kind": "qubo"}',
    ])
    def test_malformed_json_model_exits_two(self, capsys, tmp_path, text):
        model = tmp_path / "model.json"
        model.write_text(text)
        code, out, err = run(capsys, "export", "--in", str(model))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def write_config(tmp_path, data):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigFile:
    EVERY_KEY = {
        "problem": "simon", "n": [4, 6], "a": "random", "seed": 3, "solver": "anneal",
        "mode": "literal", "j": 2, "j_policy": "fixed", "budget": 12, "sweeps": 5,
        "restarts": 2, "t0": 3.0, "t1": 0.5, "format": "qubo", "out": None,
        "blind": True, "trials": 3,
    }
    EVERY_FLAG = [
        "--problem", "simon", "--n", "4,6", "--a", "random", "--seed", "3",
        "--solver", "anneal", "--mode", "literal", "--j", "2", "--j-policy", "fixed",
        "--budget", "12", "--sweeps", "5", "--restarts", "2", "--t0", "3.0", "--t1", "0.5",
        "--format", "qubo", "--blind",
    ]

    def test_every_key_names_a_flag(self):
        assert set(self.EVERY_KEY) == set(_config_flags())

    def test_bench_from_every_key_matches_the_flags(self, capsys, tmp_path):
        from_file, from_flags = tmp_path / "file.json", tmp_path / "flags.json"
        config = write_config(tmp_path, dict(self.EVERY_KEY, out=str(from_file)))
        assert run(capsys, "bench", "--config", config) == (0, "", "")
        argv = ["bench", *self.EVERY_FLAG, "--trials", "3", "--out", str(from_flags)]
        assert run(capsys, *argv) == (0, "", "")
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_solve_from_every_key_matches_the_flags(self, capsys, tmp_path):
        config = write_config(tmp_path, dict(self.EVERY_KEY, n=4, a=5))
        code, out, err = run(capsys, "solve", "--config", config)
        flags = list(self.EVERY_FLAG)
        flags[flags.index("--n") + 1], flags[flags.index("--a") + 1] = "4", "5"
        expected_code, expected_out, expected_err = run(capsys, "solve", *flags)
        assert (code, err) == (expected_code, expected_err)
        assert stable_lines(out) == stable_lines(expected_out)
        assert json.loads(out)["hidden_a"] is None

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize(
        "key, value, flag",
        [
            ("n", 4.5, "--n"),
            ("n", True, "--n"),
            ("a", True, "--a"),
            ("blind", "no", "--blind"),
            ("sweeps", 2.5, "--sweeps"),
            ("seed", "abc", "--seed"),
        ],
    )
    def test_bad_value_is_read_as_its_flag(self, capsys, tmp_path, command, key, value, flag):
        config = write_config(tmp_path, {"problem": "bv", "n": 4, "a": 3, "trials": 1, key: value})
        code, out, err = run(capsys, command, "--config", config)
        assert code == 2 and out == ""
        assert f"argument {flag}" in err
        assert f"error: in --config {config}\n" in err

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize(
        "data, flags",
        [
            ({"problem": "simon", "n": 4, "a": 3, "budget": "3"},
             ["--problem", "simon", "--n", "4", "--a", "3", "--budget", "3"]),
            ({"problem": "bv", "n": 4, "a": "0x3", "solver": "exhaustive"},
             ["--problem", "bv", "--n", "4", "--a", "0x3", "--solver", "exhaustive"]),
            ({"problem": "bv", "n": 4, "a": 5, "seed": None, "blind": False},
             ["--problem", "bv", "--n", "4", "--a", "5"]),
        ],
        ids=["budget-string", "a-hex-string", "null-and-false"],
    )
    def test_value_reads_as_the_flag_text(self, capsys, tmp_path, command, data, flags):
        # Only bench reads trials; solve drops it from the file.
        config = write_config(tmp_path, dict(data, trials=2))
        if command == "bench":
            flags = [*flags, "--trials", "2"]
        code, out, err = run(capsys, command, "--config", config)
        expected_code, expected_out, expected_err = run(capsys, command, *flags)
        assert (code, err) == (expected_code, expected_err)
        assert stable_lines(out) == stable_lines(expected_out)

    @pytest.mark.parametrize("data", [[1, 2], "bv", 3, None])
    def test_non_object_exits_two(self, capsys, tmp_path, data):
        config = write_config(tmp_path, data)
        code, out, err = run(capsys, "solve", "--config", config)
        assert code == 2 and out == ""
        assert f"error: in --config {config}\n" in err
        assert "--config file must hold a JSON object" in err

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_file_is_named(self, capsys, tmp_path, name):
        # A missing path, and a directory.
        config = str(tmp_path / name)
        code, out, err = run(capsys, "solve", "--config", config)
        assert code == 2 and out == ""
        assert f"error: in --config {config}\n" in err

    def test_flag_clears_a_config_bool(self, capsys, tmp_path):
        config = write_config(tmp_path, {"problem": "bv", "n": 4, "a": 7, "blind": True})
        code, out, _ = run(capsys, "solve", "--config", config, "--solver", "exhaustive")
        assert code == 0 and json.loads(out)["hidden_a"] is None
        code, out, _ = run(capsys, "solve", "--config", config, "--solver", "exhaustive",
                           "--no-blind")
        assert code == 0 and json.loads(out)["hidden_a"] == 7

    def test_config_naming_workers_exits_two(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"problem": "bv", "n": 4, "workers": 2}))
        code, out, err = run(capsys, "bench", "--config", str(cfg_path))
        assert code == 2 and out == ""
        assert "unknown config fields: ['workers']" in err

    def test_config_naming_signal_exits_two(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"problem": "simon", "n": 4, "signal": "indicator"}))
        code, out, err = run(capsys, "solve", "--config", str(cfg_path))
        assert code == 2 and out == ""
        assert "unknown config fields: ['signal']" in err

    def test_config_file_supplies_flags(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"problem": "bv", "n": 6, "a": 9, "seed": 4, "solver": "exhaustive"}
        ))
        code, out, _ = run(capsys, "solve", "--config", str(cfg_path))
        assert code == 0
        assert json.loads(out)["recovered_a"] == 9

    def test_flags_override_config(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"problem": "bv", "n": 6, "a": 9, "solver": "exhaustive"}
        ))
        code, out, _ = run(capsys, "solve", "--config", str(cfg_path), "--a", "33")
        assert code == 0
        assert json.loads(out)["recovered_a"] == 33


class TestReadmeUsage:
    def test_shared_flag_list_matches_the_parser(self):
        text = re.search(r"Every subcommand accepts the same flags \((.*?)\)\.", README, re.DOTALL)
        documented = {item.split()[0] for item in re.findall(r"`([^`]+)`", text.group(1))}
        subparsers = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        shared = set.intersection(*(
            {action.option_strings[0] for action in sub._actions
             if action.option_strings and action.dest != "help"}
            for sub in subparsers.choices.values()
        ))
        assert documented == shared

    def test_every_command_line_example_runs(self, capsys, tmp_path, monkeypatch):
        block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README, re.DOTALL)
        lines = [ln for ln in block.group(1).splitlines() if ln.startswith("hiddenstring ")]
        assert len(lines) >= 10
        monkeypatch.chdir(tmp_path)  # examples write model.json and model.qubo
        for line in lines:
            code, _, err = run(capsys, *shlex.split(line)[1:])
            assert code == 0, f"{line!r} exited {code}: {err}"
