"""Command-line interface: subcommands, exit codes, config merging."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from hiddenstring.builders import build_bv_qubo_from_bits, build_simon_literal_qubo
from hiddenstring.cli import RunConfig, _build_parser, main
from hiddenstring.model import BitVector
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

        def stable_lines(path):
            return [ln for ln in path.read_text().splitlines() if "wall_time_s" not in ln]

        assert stable_lines(first) == stable_lines(second)


class TestValidation:
    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "bv")
        assert code == 2
        assert "--n" in err

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
        assert "--j" in err

    def test_unpaired_temperatures(self, capsys):
        code, _, err = run(
            capsys, "solve", "--problem", "bv", "--n", "4", "--a", "1", "--t0", "2.0"
        )
        assert code == 2
        assert "--t1" in err

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
            (("--problem", "simon"), [800, 1600]),
            (("--problem", "simon", "--mode", "literal"), [1000, 1800]),
        ],
    )
    def test_schedule_override_sized_per_n(self, capsys, monkeypatch, flags, sweeps):
        # --restarts alone sizes sweeps to 100 x the variables of each n.
        seen = []

        def fake_bench_calls(problem, n_values, trials, **options):
            seen.append(options["schedule"].sweeps)
            return []

        monkeypatch.setattr("hiddenstring.cli.bench_calls", fake_bench_calls)
        code, _, _ = run(capsys, "bench", *flags, "--n", "4,8", "--restarts", "3")
        assert code == 0
        assert seen == sweeps


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
        export_qubo(build_bv_qubo_from_bits([1, 1, 0]), path)
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


class TestRunConfig:
    def test_round_trips_through_json(self):
        cfg = RunConfig(
            problem="simon", n=[4, 6], a="random", seed=3, solver="anneal",
            mode="literal", j=2, j_policy="fixed", budget=12,
            sweeps=5, restarts=2, t0=3.0, t1=0.5, format="qubo", out="x.json",
            blind=True, trials=7,
        )
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"problem": "bv", "temperature": 3})

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
