"""The benchmark's four workloads: input generation, the op, and its checks.

Every input (hidden strings, oracle seeds, solve seeds, ``.qubo`` files) is
generated here from the workload seed; the package only sees the results.
An op calls the package through module attributes (``protocol.solve_simon``,
``cli.main``, ...), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import hiddenstring.annealer as hs_annealer
import hiddenstring.cli as hs_cli
import hiddenstring.protocol as hs_protocol
import hiddenstring.qubofile as hs_qubofile
from hiddenstring.model import BitVector
from hiddenstring.oracles import BvOracle, SimonOracle


@dataclass
class Outcome:
    """What the harness books for one op: its checks and its counters."""

    failures: list[str]  # the op did not reach its goal, and said so
    wrong: list[str]  # the op's output contradicts the known answer
    oracle_queries: int
    aqc_calls: int
    energy_evaluations: int | None
    # Everything deterministic about the op; two runs of one op must agree.
    fingerprint: str
    output_bytes: int = 0
    entries_emitted: int = 0


# Share of the run one pass over the input pool takes at the baseline rate.
POOL_SHARE = 0.7


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable  # (seed, count, params, workdir) -> list of op inputs
    run: Callable  # (item, params) -> raw result; this is the timed op
    check: Callable  # (item, raw result, params) -> Outcome
    # Baseline throughput on a 2-core Xeon, used only to size the input pool.
    nominal_ops_per_s: float
    tiny_ops_per_s: float
    params: dict = field(default_factory=dict)
    tiny_params: dict = field(default_factory=dict)

    def pool_size(self, seconds: float, tiny: bool) -> int:
        rate = self.tiny_ops_per_s if tiny else self.nominal_ops_per_s
        return max(2, math.ceil(POOL_SHARE * seconds * rate))

    def execute(self, item, params: dict, tracer=None, op_id: int = 0) -> tuple[float, Outcome]:
        """Run one op, timed with perf_counter, then check it untimed.

        With a tracer, the op runs inside its root span. An op that raises
        counts as a failed op with a wrong output.
        """
        start = time.perf_counter()
        try:
            if tracer is None:
                raw = self.run(item, params)
            else:
                frame = tracer.begin_op(op_id)
                try:
                    raw = self.run(item, params)
                finally:
                    tracer.end_op(frame)
            seconds = time.perf_counter() - start
            return seconds, self.check(item, raw, params)
        except Exception as exc:
            seconds = time.perf_counter() - start
            note = f"raised {type(exc).__name__}: {exc}"
            return seconds, Outcome([], [note], 0, 0, None, note)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _seed63(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _report_fingerprint(report) -> str:
    data = report.to_dict()
    del data["wall_time_s"]
    return json.dumps(data, sort_keys=True)


# -- Simon (coupled and literal) ---------------------------------------------


@dataclass(frozen=True)
class SimonItem:
    a: int
    oracle: SimonOracle
    solve_seed: int


def _simon_hidden(rng: np.random.Generator, n: int, lowest_bit: int | None) -> int:
    """Uniform nonzero n-bit string; with ``lowest_bit`` (1-based), uniform
    among the strings whose lowest set bit is exactly that one."""
    if lowest_bit is None:
        return int(rng.integers(1, 1 << n))
    high = int(rng.integers(0, 1 << (n - lowest_bit)))
    return ((high << 1) | 1) << (lowest_bit - 1)


def make_simon(seed: int, count: int, params: dict, workdir: Path) -> list[SimonItem]:
    n = params["n"]
    rng = _rng(seed, 0x51)
    items = []
    for _ in range(count):
        a = _simon_hidden(rng, n, params.get("lowest_bit"))
        oracle = SimonOracle(BitVector.from_integer(a, n), seed=_seed63(rng))
        items.append(SimonItem(a, oracle, _seed63(rng)))
    return items


def run_simon(item: SimonItem, params: dict):
    return hs_protocol.solve_simon(
        item.oracle,
        mode=params["mode"],
        j_policy="cycle",
        signal="indicator",
        seed=item.solve_seed,
    )


def check_simon(item: SimonItem, report, params: dict) -> Outcome:
    failures, wrong = [], []
    if not report.success:
        failures.append(f"no verified collision within {report.budget} calls")
    elif report.recovered_a != item.a:
        wrong.append(f"recovered {report.recovered_a}, planted {item.a}")
    return Outcome(failures, wrong, report.oracle_queries, report.aqc_calls, None,
                   _report_fingerprint(report))


# -- Bernstein-Vazirani ------------------------------------------------------


@dataclass(frozen=True)
class BvItem:
    a: int
    oracle: BvOracle
    solve_seed: int


def make_bv(seed: int, count: int, params: dict, workdir: Path) -> list[BvItem]:
    n = params["n"]
    rng = _rng(seed, 0xB5)
    items = []
    for _ in range(count):
        bits = rng.integers(0, 2, size=n).tolist()
        a = sum(b << k for k, b in enumerate(bits))
        items.append(BvItem(a, BvOracle(BitVector(bits)), _seed63(rng)))
    return items


def run_bv(item: BvItem, params: dict):
    return hs_protocol.solve_bv(item.oracle, seed=item.solve_seed)


def check_bv(item: BvItem, report, params: dict) -> Outcome:
    failures, wrong = [], []
    if not report.success:
        failures.append("verification probes rejected the candidate")
    elif report.recovered_a != item.a:
        wrong.append(f"recovered {report.recovered_a}, planted {item.a}")
    expected = params["n"] + hs_protocol.BV_PROBES
    if report.oracle_queries != expected:
        wrong.append(f"{report.oracle_queries} oracle queries, expected {expected}")
    return Outcome(failures, wrong, report.oracle_queries, report.aqc_calls,
                   report.diagnostics["energy_evaluations"], _report_fingerprint(report))


# -- .qubo pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class QuboItem:
    path: str
    out: str
    seed: int
    h: np.ndarray  # diagonal coefficients, in tenths
    J: np.ndarray  # strictly upper-triangular couplings, in tenths
    ground_tenths: int  # true minimum, by brute force over all assignments

    def energy(self, state: int) -> Fraction:
        bits = np.array([(state >> k) & 1 for k in range(len(self.h))], dtype=np.int64)
        return Fraction(int(bits @ self.h + bits @ self.J @ bits), 10)


def _tenths(v: int) -> str:
    sign = "-" if v < 0 else ""
    whole, frac = divmod(abs(v), 10)
    return f"{sign}{whole}" if frac == 0 else f"{sign}{whole}.{frac}"


def _write_qubo(path: Path, h: np.ndarray, J: np.ndarray) -> None:
    n = len(h)
    diag = [(i, int(h[i])) for i in range(n) if h[i]]
    off = [(i, j, int(J[i, j])) for i in range(n) for j in range(i + 1, n) if J[i, j]]
    lines = [f"p qubo 0 {n} {len(diag)} {len(off)}"]
    lines += [f"{i} {i} {_tenths(v)}" for i, v in diag]
    lines += [f"{i} {j} {_tenths(v)}" for i, j, v in off]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def make_qubo(seed: int, count: int, params: dict, workdir: Path) -> list[QuboItem]:
    n = params["n"]
    rng = _rng(seed, 0x9B)
    states = np.arange(1 << n)
    # Float64 so the products go through BLAS; every partial sum is a small
    # integer, hence exact.
    bits = ((states[:, None] >> np.arange(n)) & 1).astype(np.float64)
    items = []
    for k in range(count):
        h = rng.integers(-20, 21, size=n).astype(np.int64)
        coupled = np.triu(rng.random((n, n)) < 0.5, k=1)
        values = rng.integers(1, 21, size=(n, n)) * rng.choice([-1, 1], size=(n, n))
        J = np.where(coupled, values, 0).astype(np.int64)
        path = workdir / f"model-{k}.qubo"
        _write_qubo(path, h, J)
        energies = bits @ h + ((bits @ J) * bits).sum(axis=1)
        items.append(QuboItem(str(path), str(workdir / f"spectrum-{k}.json"),
                              _seed63(rng), h, J, round(energies.min())))
    return items


def run_qubo(item: QuboItem, params: dict):
    code = hs_cli.main(["spectrum", "--in", item.path, "--top", str(params["top"]),
                        "--out", item.out])
    payload = json.loads(Path(item.out).read_text(encoding="utf-8")) if code == 0 else None
    result = None
    if payload is not None:
        model = hs_qubofile.import_qubo(item.path)
        ground = Fraction(payload["ground_energy"])
        result = hs_annealer.anneal(model, hs_annealer.default_schedule(model),
                                    seed=item.seed, target_energy=float(ground))
    return code, payload, result


def check_qubo(item: QuboItem, outcome, params: dict) -> Outcome:
    code, payload, result = outcome
    failures, wrong = [], []
    if code != 0:
        wrong.append(f"spectrum exited with {code}")
        return Outcome(failures, wrong, 0, 0, 0, json.dumps([code]))
    ground = Fraction(payload["ground_energy"])
    entries = [(state, Fraction(e)) for state, e in payload["entries"]]
    if ground != Fraction(item.ground_tenths, 10):
        wrong.append(f"ground energy {ground}, true minimum {Fraction(item.ground_tenths, 10)}")
    if not entries or item.energy(entries[0][0]) != ground:
        wrong.append("ground energy differs from the energy of the first entry")
    if len(entries) != params["top"]:
        wrong.append(f"{len(entries)} entries emitted, asked for {params['top']}")
    if any(e2 < e1 for (_s1, e1), (_s2, e2) in zip(entries, entries[1:])):
        wrong.append("emitted entries are not in non-decreasing energy order")
    if any(item.energy(s) != e for s, e in entries):
        wrong.append("an emitted entry's energy is wrong")
    if result.best_energy != ground:
        failures.append(f"anneal best energy {result.best_energy}, ground {ground}")
    fingerprint = json.dumps([payload, result.best_assignment.to_integer(),
                              str(result.best_energy), result.restarts_used,
                              result.energy_evaluations])
    return Outcome(failures, wrong, 0, result.restarts_used, result.energy_evaluations,
                   fingerprint, output_bytes=Path(item.out).stat().st_size,
                   entries_emitted=len(entries))


# -- registry ----------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload("simon_coupled", make_simon, run_simon, check_simon,
                 nominal_ops_per_s=4.0, tiny_ops_per_s=40.0,
                 params={"n": 8, "mode": "coupled", "lowest_bit": 2},
                 tiny_params={"n": 4, "mode": "coupled", "lowest_bit": 2}),
        Workload("bv_anneal", make_bv, run_bv, check_bv,
                 nominal_ops_per_s=8.0, tiny_ops_per_s=100.0,
                 params={"n": 128}, tiny_params={"n": 16}),
        Workload("simon_literal", make_simon, run_simon, check_simon,
                 nominal_ops_per_s=40.0, tiny_ops_per_s=200.0,
                 params={"n": 5, "mode": "literal"},
                 tiny_params={"n": 3, "mode": "literal"}),
        Workload("qubo_pipeline", make_qubo, run_qubo, check_qubo,
                 nominal_ops_per_s=8.0, tiny_ops_per_s=100.0,
                 params={"n": 14, "top": 16}, tiny_params={"n": 6, "top": 4}),
    )
}
