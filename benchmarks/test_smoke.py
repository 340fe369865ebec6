"""Smoke tests for the benchmark harness, in its tiny-size mode.

Run from the root of a checkout::

    python3 -m pytest benchmarks/test_smoke.py -q

Each workload runs for well under a second per trace setting; the tests
check the result line's shape, the metric names and units against
BENCHMARK.json, and that every op's output checks pass.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Every workload the harness defines. simon_literal stays runnable and
# tested, but is not in BENCHMARK.json (see README.md).
WORKLOADS = ["simon_coupled", "bv_anneal", "simon_literal", "qubo_pipeline"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]
    assert SPEC["paths"] == ["benchmarks"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert 4 + 22 * len(SPEC["workloads"]) * (SPEC["run_seconds"] + 5) <= 3420
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, proc.stdout
    assert line["failed"] == 0 and line["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in group}
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    if not trace:
        # All eight end-to-end metrics are printed above the result line.
        for name in ("setup_s", "ops_per_s", "op_s.p50", "op_s.p80", "success_rate",
                     "oracle_queries_per_op", "aqc_calls_per_op", "peak_rss_mb"):
            assert re.search(rf"^{re.escape(name)}\s", proc.stdout, re.M)


def test_traced_books_match_the_reports():
    proc = _run("--workload", "simon_literal", "--seed", "5", "--seconds", "0.3",
                "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    value = {n: m["value"] for n, m in metrics.items()}
    by_purpose = sum(value[f"oracles.queries.{p}"] for p in ("model", "search", "check", "verify"))
    assert by_purpose == pytest.approx(value["oracles.query.calls"])
    assert value["oracles.queries.check"] > 0 and value["oracles.queries.verify"] > 0
    assert "conservation" not in proc.stdout


def test_tracer_restores_every_wrapped_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from tracer import Tracer

    tracer = Tracer()
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _ in tracer._boundaries()]
    with tracer:
        assert not tracer.missing
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in before)
    assert all(vars(owner).get(attr) is orig for owner, attr, orig in before)


def test_selfcheck_repeats_counts_exactly():
    proc = subprocess.run([sys.executable, "benchmarks/selfcheck.py", "--workload", "qubo_pipeline",
                           "--seed", "2", "--seconds", "0.2", "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _run("--workload", "bv_anneal", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(l.startswith("{") for l in proc.stdout.splitlines())
