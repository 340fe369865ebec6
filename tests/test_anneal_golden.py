"""Explicit-model annealer against results recorded from the reference loop.

``tests/data/anneal_golden.json`` (Bernstein-Vazirani, Simon literal, random
integer and tenths models) and ``tests/data/diagonal_golden.json``
(coupler-free models: mixed integer biases, zero biases, all-zero biases,
decimal biases with mixed denominators) hold the results of
``reference_metropolis`` in ``test_annealer.py``, the plain Metropolis loop
that prices every flip exactly in Fractions with the annealer's two draw
streams. ``anneal`` must reproduce every field, trajectory included.

``PYTHONPATH=src python tests/test_anneal_golden.py`` rewrites the recorded
results of both files from the reference loop; it takes a few minutes.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hiddenstring.annealer import AnnealSchedule, anneal, default_schedule
from hiddenstring.builders import build_bv_qubo_from_bits, build_simon_literal_qubo
from hiddenstring.model import BitVector, QuboModel, VarLabel, exhaustive_solve
from hiddenstring.oracles import random_hidden_string

from test_annealer import reference_metropolis
from test_model import random_integer_model, random_tenths_model

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "anneal_golden.json").read_text())
DIAGONAL = json.loads((DATA / "diagonal_golden.json").read_text())["cases"]


def diagonal_model(n, biases):
    """Coupler-free model over n plain variables with the given biases."""
    labels = tuple(VarLabel.plain(i) for i in range(n))
    return QuboModel(labels, dict(zip(labels, biases)))


def diagonal_tenths_model(n):
    """n independent variables with bias -1/10: ground -n/10 at all ones."""
    return diagonal_model(n, [Fraction(-1, 10)] * n)


def mixed_diagonal_model(rng, n):
    """Integer biases of magnitude 1..9, so a sweep meets several costs."""
    signs = rng.choice([-1, 1], size=n)
    return diagonal_model(n, [int(k) for k in signs * rng.integers(1, 10, size=n)])


def zero_bias_diagonal_model(rng, n):
    """About half the biases zero (cost-0 flips), the rest integers in [-6, 6]."""
    return diagonal_model(n, [int(rng.integers(-6, 7)) if rng.random() < 0.5 else 0
                              for _ in range(n)])


def decimal_diagonal_model(rng, n):
    """Biases k/d with mixed denominators d, so den is their LCM."""
    return diagonal_model(n, [Fraction(int(rng.integers(-20, 21)), int(rng.choice([2, 3, 4, 5, 7, 10])))
                              for _ in range(n)])


def build_model(case):
    kind, n, model_seed = case["kind"], case["n"], case["model_seed"]
    rng = np.random.default_rng(model_seed)
    if kind == "bv":
        return build_bv_qubo_from_bits(random_hidden_string(n, rng))
    if kind == "simon_literal":
        return build_simon_literal_qubo(n, (n + 1) // 2)
    if kind == "integer":
        return random_integer_model(rng, n)
    if kind == "tenths":
        return random_tenths_model(rng, n)
    if kind == "tenths_diagonal":
        return diagonal_tenths_model(n)
    if kind == "mixed_diagonal":
        return mixed_diagonal_model(rng, n)
    if kind == "zero_bias_diagonal":
        return zero_bias_diagonal_model(rng, n)
    if kind == "zero_diagonal":
        return diagonal_model(n, [])
    if kind == "decimal_diagonal":
        return decimal_diagonal_model(rng, n)
    raise ValueError(f"unknown model kind {kind!r}")


def ground_energy(model):
    """Exact ground energy: by enumeration, or the floor of a diagonal model."""
    if model.n_vars <= 18:
        return exhaustive_solve(model).ground_energy
    assert not model.quadratic
    return sum((c for c in model.linear.values() if c < 0), Fraction(0))


def build_schedule(case, model):
    sched = default_schedule(model)
    if case["schedule"] == "short":
        sched = AnnealSchedule(sweeps=4 * model.n_vars, t_initial=sched.t_initial,
                               t_final=0.05, restarts=3)
    return sched


def run_case(case, reference=False):
    """Anneal one golden case, with ``anneal`` or else the reference loop;
    returns its schedule and result as plain data."""
    model = build_model(case)
    sched = build_schedule(case, model)
    target = float(ground_energy(model)) if case["target"] else None
    if reference:
        bits, energy, restarts, evaluations, trajectory = reference_metropolis(
            model, sched, case["seed"], target, 0)
        best, seed = BitVector(bits), case["seed"]
    else:
        result = anneal(model, sched, seed=case["seed"], target_energy=target,
                        record_trajectory=True)
        best, energy, restarts, evaluations, seed, trajectory = (
            result.best_assignment, result.best_energy, result.restarts_used,
            result.energy_evaluations, result.seed, result.trajectory)
    return {
        "schedule": [sched.sweeps, sched.t_initial, sched.t_final, sched.restarts],
        "best_assignment": best.to_integer(),
        "best_energy": str(energy),
        "restarts_used": restarts,
        "energy_evaluations": evaluations,
        "seed": seed,
        "trajectory": run_length(trajectory),
    }


def run_length(values):
    """[[value, count], ...] for runs of equal consecutive values."""
    runs = []
    for v in values:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


def _case_id(entry):
    c = entry["case"]
    target = "target" if c["target"] else "free"
    return f"{c['kind']}-{c['n']}-{c['schedule']}-{target}"


INTEGER = [e for e in GOLDEN["cases"] if not e["case"]["kind"].startswith("tenths")]
TENTHS = [e for e in GOLDEN["cases"] if e["case"]["kind"].startswith("tenths")]


def test_golden_covers_every_model_schedule_and_target():
    kinds = {(e["case"]["kind"], e["case"]["n"]) for e in GOLDEN["cases"]}
    assert {("bv", 8), ("bv", 32), ("bv", 128), ("simon_literal", 3), ("simon_literal", 5),
            ("simon_literal", 8), ("integer", 6), ("integer", 10), ("integer", 14)} <= kinds
    for kind_n in kinds:
        variants = {(e["case"]["schedule"], e["case"]["target"])
                    for e in GOLDEN["cases"] if (e["case"]["kind"], e["case"]["n"]) == kind_n}
        assert variants == {("default", False), ("default", True),
                            ("short", False), ("short", True)}, kind_n


@pytest.mark.parametrize("entry", INTEGER, ids=_case_id)
def test_integer_models_reproduce_every_field(entry):
    assert run_case(entry["case"]) == entry["result"]


def test_diagonal_golden_covers_every_kind_schedule_and_target():
    kinds = {e["case"]["kind"] for e in DIAGONAL}
    assert kinds == {"mixed_diagonal", "zero_bias_diagonal", "zero_diagonal", "decimal_diagonal"}
    for kind in kinds:
        variants = {(e["case"]["n"], e["case"]["schedule"], e["case"]["target"])
                    for e in DIAGONAL if e["case"]["kind"] == kind}
        assert variants == {(n, s, t) for n in (6, 48) for s in ("default", "short")
                            for t in (False, True)}, kind


@pytest.mark.parametrize("entry", DIAGONAL, ids=_case_id)
def test_coupler_free_models_reproduce_every_field(entry):
    assert run_case(entry["case"]) == entry["result"]


@pytest.mark.parametrize("entry", TENTHS, ids=_case_id)
def test_tenths_models_reproduce_every_field(entry):
    assert run_case(entry["case"]) == entry["result"]


if __name__ == "__main__":
    for path in (DATA / "anneal_golden.json", DATA / "diagonal_golden.json"):
        golden = json.loads(path.read_text())
        for entry in golden["cases"]:
            entry["result"] = run_case(entry["case"], reference=True)
            print(_case_id(entry), flush=True)
        path.write_text(json.dumps(golden, indent=1))
