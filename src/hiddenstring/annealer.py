"""Simulated-annealing ground-state search.

This is the desk-scale stand-in for the annealing hardware the models are
written for: Metropolis single-flip dynamics with a geometric temperature
schedule, random visit order within each sweep, and independent restarts.

Everything is driven by numpy's PCG64 generator, seeded explicitly, so a
run is reproducible from its (model, schedule, seed) triple alone. Restart
r draws from ``SeedSequence((seed, r))``.

Two entry points: :func:`anneal` works on an explicit model and computes
flip costs incrementally from cached local fields; :func:`anneal_black_box`
works on an opaque energy callback (used for the oracle-coupled search,
where the objective exists only behind oracle queries), carries the
current state's energy and prices every flip with one callback evaluation
of the flipped state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .model import BitVector, QuboModel, qubo_energy

__all__ = [
    "AnnealSchedule",
    "AnnealResult",
    "default_schedule",
    "anneal",
    "anneal_black_box",
]


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling schedule.

    ``sweeps`` full single-flip passes per restart, cooling from
    ``t_initial`` down to ``t_final`` (reached exactly, up to float
    rounding, on the last sweep), repeated for ``restarts`` independent
    restarts.
    """

    sweeps: int
    t_initial: float
    t_final: float
    restarts: int = 1

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError("sweeps must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if not (self.t_final > 0 and self.t_initial >= self.t_final):
            raise ValueError("need t_initial >= t_final > 0")

    @property
    def decay(self) -> float:
        """Per-sweep temperature factor derived from the endpoints."""
        if self.sweeps == 1:
            return 1.0
        return (self.t_final / self.t_initial) ** (1.0 / (self.sweeps - 1))

    def temperature(self, sweep: int) -> float:
        return self.t_initial * self.decay**sweep


@dataclass(frozen=True)
class AnnealResult:
    """Outcome of one annealing run (all restarts of one schedule)."""

    best_assignment: BitVector
    best_energy: Fraction | float
    restarts_used: int
    energy_evaluations: int
    seed: int
    trajectory: tuple[float, ...] | None = None


def default_schedule(model: QuboModel) -> AnnealSchedule:
    """Schedule sized to the model.

    The starting temperature is the largest possible single-flip energy
    change, ``max_i (|h_i| + sum_j |J_ij|)``, floored at 1.0 so degenerate
    landscapes still mix.
    """
    n = model.n_vars
    if n == 0:
        raise ValueError("cannot build a schedule for an empty model")
    strength = {lab: abs(h) for lab, h in model.linear.items()}
    for (a, b), j in model.quadratic.items():
        strength[a] = strength.get(a, Fraction(0)) + abs(j)
        strength[b] = strength.get(b, Fraction(0)) + abs(j)
    t0 = max(1.0, float(max(strength.values(), default=Fraction(0))))
    return AnnealSchedule(sweeps=100 * n, t_initial=t0, t_final=0.01, restarts=8)


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, restart)))


def anneal(
    model: QuboModel,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    *,
    target_energy: float | None = None,
    record_trajectory: bool = False,
) -> AnnealResult:
    """Metropolis single-flip search over an explicit model.

    Each sweep visits the variables in a fresh random order; a flip with
    cost dE is accepted with probability min(1, exp(-dE/T)). Flip costs
    come from incrementally maintained local fields, O(degree) per
    accepted flip. The best assignment ever visited is kept across
    restarts, merging energy ties toward the lexicographically least bit
    sequence; its reported energy is re-evaluated exactly.

    ``target_energy`` stops the run early once the best energy reaches it
    (used when a lower bound for the objective is known).
    """
    if schedule is None:
        schedule = default_schedule(model)
    n = model.n_vars
    if n == 0:
        raise ValueError("cannot anneal an empty model")
    pos = {lab: k for k, lab in enumerate(model.labels)}
    h = [0.0] * n
    for lab, c in model.linear.items():
        h[pos[lab]] = float(c)
    pairs = [(pos[a], pos[b], float(c)) for (a, b), c in model.quadratic.items()]
    neighbors: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, w in pairs:
        neighbors[i].append((j, w))
        neighbors[j].append((i, w))

    best_e = math.inf
    best_bits: list[int] | None = None
    attempts = 0
    restarts_used = 0
    trajectory: list[float] | None = [] if record_trajectory else None
    exp = math.exp

    for r in range(schedule.restarts):
        restarts_used = r + 1
        rng = _restart_rng(seed, r)
        s = rng.integers(0, 2, size=n).tolist()
        field = h.copy()
        for i, j, w in pairs:
            if s[j]:
                field[i] += w
            if s[i]:
                field[j] += w
        energy = sum(h[i] for i in range(n) if s[i])
        energy += sum(w for i, j, w in pairs if s[i] and s[j])
        run_e, run_bits = energy, s.copy()
        done = target_energy is not None and min(best_e, run_e) <= target_energy

        for sweep in range(schedule.sweeps):
            if done:
                break
            t = schedule.temperature(sweep)
            order = rng.permutation(n).tolist()
            uniforms = rng.random(n).tolist()
            for k, i in enumerate(order):
                de = field[i] if s[i] == 0 else -field[i]
                attempts += 1
                if de <= 0.0 or uniforms[k] < exp(-de / t):
                    delta = 1 - 2 * s[i]
                    s[i] ^= 1
                    energy += de
                    for jn, w in neighbors[i]:
                        field[jn] += w * delta
                    if energy < run_e:
                        run_e, run_bits = energy, s.copy()
                        if target_energy is not None and run_e <= target_energy:
                            done = True
                            break
            if trajectory is not None:
                trajectory.append(min(best_e, run_e))
        # Merge this restart's best; ties go to the smallest bit sequence
        # so the outcome is independent of restart ordering.
        if run_e < best_e or (run_e == best_e and run_bits < best_bits):
            best_e, best_bits = run_e, run_bits
        if done:
            break

    assignment = BitVector(best_bits)
    return AnnealResult(
        best_assignment=assignment,
        best_energy=qubo_energy(model, assignment),
        restarts_used=restarts_used,
        energy_evaluations=attempts,
        seed=seed,
        trajectory=tuple(trajectory) if trajectory is not None else None,
    )


def anneal_black_box(
    energy: Callable[[BitVector], Fraction | float | int],
    n_vars: int,
    schedule: AnnealSchedule,
    seed: int = 0,
    *,
    target_energy: float | None = None,
    record_trajectory: bool = False,
) -> AnnealResult:
    """Metropolis single-flip search over an opaque energy callback.

    Identical dynamics to :func:`anneal`, but no structure of the objective
    is assumed: each restart evaluates its start state once, then every
    flip attempt costs one callback evaluation of the flipped state, the
    current state's energy being carried from the last accepted flip.
    ``energy_evaluations`` counts callback calls, ``restarts_used * (1 +
    flips attempted)`` for a run that does not stop early.
    """
    if n_vars < 1:
        raise ValueError("need at least one variable")
    best_e = math.inf
    best_raw = None
    best_bits: list[int] | None = None
    evaluations = 0
    restarts_used = 0
    trajectory: list[float] | None = [] if record_trajectory else None
    exp = math.exp

    for r in range(schedule.restarts):
        restarts_used = r + 1
        rng = _restart_rng(seed, r)
        s = rng.integers(0, 2, size=n_vars).tolist()
        value = sum(b << k for k, b in enumerate(s))
        run_raw = energy(BitVector._trusted(tuple(s), value))
        e_cur = float(run_raw)
        evaluations += 1
        run_e, run_bits = e_cur, s.copy()
        done = False

        for sweep in range(schedule.sweeps):
            if done:
                break
            t = schedule.temperature(sweep)
            order = rng.permutation(n_vars).tolist()
            uniforms = rng.random(n_vars).tolist()
            for k, i in enumerate(order):
                s[i] ^= 1
                value ^= 1 << i
                raw_new = energy(BitVector._trusted(tuple(s), value))
                e_new = float(raw_new)
                evaluations += 1
                de = e_new - e_cur
                if de <= 0.0 or uniforms[k] < exp(-de / t):
                    e_cur = e_new
                    if e_new < run_e:
                        run_e, run_raw, run_bits = e_new, raw_new, s.copy()
                else:
                    s[i] ^= 1
                    value ^= 1 << i
                if target_energy is not None and min(best_e, run_e) <= target_energy:
                    done = True
                    break
            if trajectory is not None:
                trajectory.append(min(best_e, run_e))
        if run_e < best_e or (run_e == best_e and run_bits < best_bits):
            best_e, best_raw, best_bits = run_e, run_raw, run_bits
        if done:
            break

    return AnnealResult(
        best_assignment=BitVector(best_bits),
        best_energy=best_raw,
        restarts_used=restarts_used,
        energy_evaluations=evaluations,
        seed=seed,
        trajectory=tuple(trajectory) if trajectory is not None else None,
    )
