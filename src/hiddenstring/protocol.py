"""End-to-end hidden-string protocols with query accounting.

Each solve builds the appropriate energy model, hands it to a solver (the
exhaustive enumerator or the annealer standing in for the annealing
hardware), recovers a hidden-string candidate from the returned state, and
verifies the candidate against the oracle with a fixed number of probe
queries. The resulting :class:`ExperimentReport` records the two resource
counters this package exists to measure:

* ``oracle_queries`` -- calls to the problem oracle (black-box function
  evaluations), counted by the oracle itself;
* ``aqc_calls`` -- annealing runs (one per restart), the unit a hardware
  budget would be quoted in.

Reports are deterministic for a fixed seed: ``wall_time_s`` is the single
field that varies between otherwise identical runs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Sequence

from .annealer import (
    AnnealSchedule, _seeded_rng, _spawn_seed, anneal, anneal_black_box, default_schedule,
)
from .builders import _check_j, build_bv_qubo, build_simon_literal_qubo, coupled_value
# Not called here since the coupled search memoizes labels, but kept as an
# attribute of this module: benchmarks/tracer.py wraps it by this name.
from .builders import simon_coupled_energy  # noqa: F401
from .model import BitVector, _compile, exhaustive_solve
from .oracles import BvOracle, SimonOracle, _check_simon_width, _check_width, random_hidden_string

__all__ = [
    "BV_PROBES",
    "MIN_VERIFY_PROBES",
    "ExperimentReport",
    "xor_recover",
    "check_collision",
    "verify_simon",
    "solve_bv",
    "solve_simon",
    "bench_calls",
]

# Verification probes appended to every run. BV always uses exactly
# BV_PROBES, making its per-run oracle cost n + BV_PROBES queries flat.
BV_PROBES = 16
MIN_VERIFY_PROBES = 4
_VERIFY_PROBES = 16

# The schema version of reports and of the CLI's bench and spectrum payloads.
_SCHEMA_VERSION = 1

# The option values the protocols accept; the CLI offers exactly these.
_PROBLEMS = ("bv", "simon")
_SOLVERS = ("anneal", "exhaustive")
_MODES = ("coupled", "literal")
_J_POLICIES = ("cycle", "fixed")


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome and resource counts of one protocol run.

    ``hidden_a`` is the planted string as an integer (None for blind runs),
    ``recovered_a`` the candidate the protocol settled on (None when it gave
    up). ``trace`` holds one dict per solver call. ``wall_time_s`` is the
    only field two identically seeded runs may disagree on.
    """

    problem: str
    n: int
    seed: int
    solver: str | None
    mode: str | None
    j_policy: str | None
    signal: str | None
    budget: int | None
    hidden_a: int | None
    recovered_a: int | None
    success: bool
    aqc_calls: int
    oracle_queries: int
    wall_time_s: float
    trace: tuple[dict, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """``schema_version``, then every field in declaration order."""
        out = {"schema_version": _SCHEMA_VERSION}
        out.update((f.name, getattr(self, f.name)) for f in fields(self))
        out["trace"] = [dict(rec) for rec in self.trace]
        out["diagnostics"] = dict(self.diagnostics)
        return out


def xor_recover(w: BitVector, y: BitVector) -> BitVector:
    """Hidden-string candidate from a colliding pair: a = w xor y."""
    if len(w) != len(y):
        raise ValueError("colliding strings must have equal length")
    if w == y:
        raise ValueError("w and y are identical; their xor carries no hidden string")
    return w ^ y


def check_collision(oracle: SimonOracle, w: BitVector, y: BitVector) -> bool:
    """Whether the oracle maps w and y to the same label (two queries)."""
    return oracle.query(w) == oracle.query(y)


def verify_simon(
    oracle: SimonOracle,
    candidate: BitVector,
    *,
    probes: int = _VERIFY_PROBES,
    seed: int = 0,
) -> bool:
    """Probe whether ``candidate`` behaves like the oracle's hidden string.

    Runs ``probes - 1`` collision probes (g(e) must equal g(e ^ candidate))
    plus one separation probe (g(e) must differ from g(e ^ d) for a random
    d outside {0, candidate}). Under the two-to-one promise the test is
    exact: a wrong nonzero candidate fails the first collision probe.
    """
    if probes < MIN_VERIFY_PROBES:
        raise ValueError(f"need at least {MIN_VERIFY_PROBES} probes")
    n = oracle.n
    if len(candidate) != n:
        raise ValueError("candidate length does not match the oracle")
    if candidate.to_integer() == 0:
        return False
    rng = _seeded_rng(seed, 0xC0111DE)
    for _ in range(probes - 1):
        e = random_hidden_string(n, rng)
        if oracle.query(e) != oracle.query(e ^ candidate):
            return False
    e = random_hidden_string(n, rng)
    while True:
        d = random_hidden_string(n, rng, nonzero=True)
        if d != candidate:
            break
    return oracle.query(e) != oracle.query(e ^ d)


def _model_floor(model) -> Fraction:
    """Sum of all negative coefficients: a lower bound on the energy.

    Tight for diagonal models, which makes it a safe early-stop target.
    """
    den, h, couplers = _compile(model)
    total = sum(c for c in h if c < 0) + sum(c for _i, _j, c in couplers if c < 0)
    return Fraction(total, den)


def solve_bv(
    oracle: BvOracle,
    *,
    solver: str = "anneal",
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    blind: bool = False,
) -> ExperimentReport:
    """Learn a parity-oracle hidden string and verify the answer.

    Builds the diagonal model from n unit-vector queries, finds its ground
    state with the chosen solver ("anneal" or "exhaustive"), reads the
    hidden-string candidate straight off the ground state, then checks it
    against the oracle on BV_PROBES random inputs. Total oracle cost is
    exactly ``n + BV_PROBES`` queries on every run, success or not.
    """
    if solver not in _SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    start = time.perf_counter()
    n = oracle.n
    q0 = oracle.queries
    model = build_bv_qubo(oracle)

    diagnostics: dict[str, Any] = {}
    if solver == "exhaustive":
        spectrum = exhaustive_solve(model)
        candidate = spectrum.ground_states()[0]
        best_energy = spectrum.ground_energy
        aqc_calls = 1
        diagnostics["ground_count"] = spectrum.ground_count
    else:
        if schedule is None:
            schedule = default_schedule(model)
        result = anneal(
            model,
            schedule,
            seed=seed,
            target_energy=_model_floor(model),
        )
        candidate = result.best_assignment
        best_energy = result.best_energy
        aqc_calls = result.restarts_used
        diagnostics["energy_evaluations"] = result.energy_evaluations

    rng = _seeded_rng(seed, 0xB5)
    mismatches = 0
    for _ in range(BV_PROBES):
        probe = random_hidden_string(n, rng)
        predicted = (probe.to_integer() & candidate.to_integer()).bit_count() & 1
        if oracle.query(probe) != predicted:
            mismatches += 1
    success = mismatches == 0
    diagnostics["best_energy"] = float(best_energy)
    diagnostics["probe_mismatches"] = mismatches

    return ExperimentReport(
        problem="bv",
        n=n,
        seed=seed,
        solver=solver,
        mode=None,
        j_policy=None,
        signal=None,
        budget=None,
        hidden_a=None if blind else oracle.reveal_hidden_string().to_integer(),
        recovered_a=candidate.to_integer(),
        success=success,
        aqc_calls=aqc_calls,
        oracle_queries=oracle.queries - q0,
        wall_time_s=time.perf_counter() - start,
        trace=(
            {
                "call": 1,
                "energy": float(best_energy),
                "recovered_a": candidate.to_integer(),
            },
        ),
        diagnostics=diagnostics,
    )


def _coupled_schedule(n: int) -> AnnealSchedule:
    # One hardware call per invocation; the ceiling 6.0 is the largest
    # single-flip move (mismatch step 1 plus constraint step 5).
    return AnnealSchedule(sweeps=48 * n, t_initial=6.0, t_final=0.01, restarts=1)


def _coupled_objective(oracle: SimonOracle, j: int):
    """Energy callback of one coupled solver call, over the 2n-bit state.

    The callback takes the state as a bare int ``v`` that holds w in its
    low n bits and y in its high n bits, and returns an exact int. Oracle
    labels are memoized per callback, so each distinct half-string costs
    one query per solver call however often the search revisits it; the
    memo lives and dies with the call, and a miss queries the oracle with
    the half-string's :class:`BitVector`. The objective is the label
    mismatch plus a penalty keyed by ``v & sel``, the state's w_j and y_j
    bits in place; the table is filled from :func:`builders.coupled_value`
    at equal labels.
    """
    n = oracle.n
    mask = (1 << n) - 1
    w_bit, y_bit = j - 1, j - 1 + n
    sel = 1 << w_bit | 1 << y_bit
    labels: dict[int, int] = {}
    penalty = {
        key: coupled_value(0, 0, key >> w_bit & 1, key >> y_bit & 1)
        for key in (0, 1 << w_bit, 1 << y_bit, sel)
    }

    def energy(v: int) -> int:
        w = v & mask
        y = v >> n
        try:
            gw = labels[w]
        except KeyError:
            gw = labels[w] = oracle.query(BitVector._of(w, n))
        try:
            gy = labels[y]
        except KeyError:
            gy = labels[y] = oracle.query(BitVector._of(y, n))
        return (gw != gy) + penalty[v & sel]

    return energy


def _literal_schedule(n: int) -> AnnealSchedule:
    # Short cold-ish run: the four constrained variables settle in a few
    # sweeps and the unconstrained ones stay uniform.
    return AnnealSchedule(sweeps=40, t_initial=5.0, t_final=0.01, restarts=1)


def solve_simon(
    oracle: SimonOracle,
    *,
    mode: str = "coupled",
    j_policy: str = "cycle",
    j: int | None = None,
    budget: int | None = None,
    signal: str = "indicator",
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    blind: bool = False,
) -> ExperimentReport:
    """Search for a colliding pair and recover the hidden string as w xor y.

    Repeats solver calls until a verified collision is found or ``budget``
    calls are spent (default 64 * n). Each call pins one coordinate j where
    w and y are forced to differ; the "cycle" policy sweeps j over 1..n so
    some call lands on a coordinate where the hidden string has a 1, the
    "fixed" policy keeps the given j throughout.

    mode="coupled" anneals the oracle-coupled objective, paying one oracle
    query per distinct w or y half-string per solver call (labels are
    memoized within the call); mode="literal" anneals the explicit
    constraint model. Either way a returned pair with w != y then costs
    two queries to check whether it actually collides.

    ``signal`` names the coupled objective's mismatch term; ``"indicator"``
    (label equality) is its only value, and coupled reports record it.
    Every argument is checked before the first oracle query.
    """
    n = oracle.n
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if j_policy not in _J_POLICIES:
        raise ValueError(f"unknown j policy {j_policy!r}")
    if signal != "indicator":
        raise ValueError(f"signal must be 'indicator', got {signal!r}")
    if j_policy == "fixed":
        if j is None:
            raise ValueError("fixed j policy needs an explicit j")
        _check_j(j, n)
    elif j is not None:
        raise ValueError("explicit j only makes sense with the fixed policy")

    start = time.perf_counter()
    if budget is None:
        budget = 64 * n
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    if schedule is None:
        schedule = _coupled_schedule(n) if mode == "coupled" else _literal_schedule(n)
    q0 = oracle.queries

    trace: list[dict] = []
    aqc_calls = 0
    success = False
    recovered: BitVector | None = None
    literal_model = None
    mask = (1 << n) - 1

    call = 0
    while aqc_calls < budget and not success:
        call += 1
        j_call = j if j_policy == "fixed" else ((call - 1) % n) + 1
        call_seed_pair = (seed, call)

        if mode == "coupled":
            result = anneal_black_box(
                _coupled_objective(oracle, j_call),
                2 * n,
                schedule,
                seed=_spawn_seed(call_seed_pair),
                target_energy=-1,
            )
        else:
            if literal_model is None or j_policy == "cycle":
                literal_model = build_simon_literal_qubo(n, j_call)
            result = anneal(literal_model, schedule, seed=_spawn_seed(call_seed_pair))
        v = result.best_assignment.to_integer()
        w = BitVector._of(v & mask, n)
        y = BitVector._of(v >> n & mask, n)
        aqc_calls += result.restarts_used

        accepted = w != y and check_collision(oracle, w, y)
        trace.append(
            {
                "call": call,
                "j": j_call,
                "w": w.to_integer(),
                "y": y.to_integer(),
                "energy": float(result.best_energy),
                "accepted": accepted,
            }
        )
        if accepted:
            candidate = xor_recover(w, y)
            if verify_simon(oracle, candidate, seed=_spawn_seed((seed, 0))):
                success = True
                recovered = candidate

    return ExperimentReport(
        problem="simon",
        n=n,
        seed=seed,
        solver="anneal",
        mode=mode,
        j_policy=j_policy,
        signal=signal if mode == "coupled" else None,
        budget=budget,
        hidden_a=None if blind else oracle.reveal_hidden_string().to_integer(),
        recovered_a=recovered.to_integer() if recovered is not None else None,
        success=success,
        aqc_calls=aqc_calls,
        oracle_queries=oracle.queries - q0,
        wall_time_s=time.perf_counter() - start,
        trace=tuple(trace),
        diagnostics={"calls": call},
    )


def _check_sizes(problem: str, n_values: Sequence[int], j_policy: str, j: int | None) -> None:
    """Reject every size in ``n_values`` (or fixed ``j`` past it) that a trial would reject."""
    if len(n_values) == 0:
        raise ValueError("n_values needs at least one size")
    for n in n_values:
        _check_width(n)
        if problem == "simon":
            _check_simon_width(n)
            if j_policy == "fixed" and j is not None:
                _check_j(j, n)


def bench_calls(
    problem: str,
    n_values: Sequence[int],
    trials: int = 50,
    *,
    seed: int = 0,
    solver: str = "anneal",
    mode: str = "coupled",
    j_policy: str = "cycle",
    j: int | None = None,
    budget: int | None = None,
    schedule: AnnealSchedule | None = None,
) -> list[dict[str, Any]]:
    """Measure solver-call and oracle-query statistics across problem sizes.

    Runs ``trials`` independently seeded instances per n and aggregates one
    row per entry of ``n_values``: success and correctness counts plus
    mean/median/population stdev of the call and query counters over its
    trials. Each row is seeded by (seed, n, trial) alone, so it does not
    depend on the other entries. Every size is checked before the first
    trial runs.
    """
    if problem not in _PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    _check_sizes(problem, n_values, j_policy, j)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if problem == "simon" and solver != "anneal":
        raise ValueError(f"solver {solver!r} applies only to problem 'bv'")
    rows = []
    for n in n_values:
        reports = []
        for t in range(trials):
            rng = _seeded_rng(seed, n, t, 0)
            run_seed = _spawn_seed((seed, n, t, 1))
            if problem == "bv":
                oracle = BvOracle(random_hidden_string(n, rng))
                report = solve_bv(oracle, solver=solver, schedule=schedule, seed=run_seed)
            else:
                a = random_hidden_string(n, rng, nonzero=True)
                oracle = SimonOracle(a, seed=_spawn_seed((seed, n, t, 2)))
                report = solve_simon(oracle, mode=mode, j_policy=j_policy, j=j,
                                     budget=budget, schedule=schedule, seed=run_seed)
            reports.append(report)
        calls = [r.aqc_calls for r in reports]
        queries = [r.oracle_queries for r in reports]
        correct = sum(
            1 for r in reports if r.success and r.recovered_a == r.hidden_a
        )
        rows.append(
            {
                "problem": problem,
                "n": int(n),
                "trials": trials,
                "success_count": sum(1 for r in reports if r.success),
                "correct_count": correct,
                "mean_calls": statistics.fmean(calls),
                "median_calls": float(statistics.median(calls)),
                "stdev_calls": statistics.pstdev(calls),
                "mean_queries": statistics.fmean(queries),
                "median_queries": float(statistics.median(queries)),
                "stdev_queries": statistics.pstdev(queries),
            }
        )
    return rows
