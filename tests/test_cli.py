"""Command-line interface: subcommands, exit codes, config merging."""

import json

import pytest

from hiddenstring.builders import build_bv_qubo_from_bits, build_simon_literal_qubo
from hiddenstring.cli import RunConfig, main
from hiddenstring.model import BitVector
from hiddenstring.qubofile import export_qubo, model_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            mode="literal", j=2, j_policy="fixed", signal="hamming", budget=12,
            sweeps=5, restarts=2, t0=3.0, t1=0.5, format="qubo", out="x.json",
            blind=True, trials=7, workers=2,
        )
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"problem": "bv", "temperature": 3})

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
