"""Simulated-annealing ground-state search.

This is the desk-scale stand-in for the annealing hardware the models are
written for: Metropolis single-flip dynamics with a geometric temperature
schedule, random visit order within each sweep, and independent restarts.

Everything is driven by numpy's PCG64 generator, seeded explicitly, so a
run is reproducible from its (model, schedule, seed) triple alone. Restart
r draws from ``SeedSequence((seed, r))``.

Two entry points. :func:`anneal` works on an explicit model: it compiles
the rational coefficients once to integers over a common denominator, so
local fields, flip costs and energies are exact ints; each sweep looks up
acceptance probabilities in a table keyed by the integer cost; and an
early-stop target is compared with the exact best energy rounded once to a
float. On a model without couplers whose costs fit in int64 (the
Bernstein-Vazirani model among them), a batch of sweeps, about 4 096 visits,
is a few numpy array operations rather than one Python step per visit, with
identical results.
:func:`anneal_black_box` works on an opaque energy callback (used for the
oracle-coupled search, where the objective exists only behind oracle
queries), carries the current state's energy and prices every flip with one
callback evaluation of the flipped state. It compares and keeps the
callback's own values, so on an exact objective (ints or Fractions) its
flip costs and best-state tracking are exact, and only the early-stop test
rounds a new best energy to a float. Its state is a single integer,
flipped with an xor and handed to the callback as a :class:`BitVector`
that wraps the integer without unpacking its bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .model import BitVector, QuboModel, _compile, _fits_int64, qubo_energy

__all__ = [
    "AnnealSchedule",
    "AnnealResult",
    "default_schedule",
    "anneal",
    "anneal_black_box",
]

# Visits per batch of coupler-free sweeps: enough to amortise numpy's
# per-call overhead, while each batch array stays near 32 KB.
_BATCH_VISITS = 4096


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

    @functools.cached_property
    def decay(self) -> float:
        """Per-sweep temperature factor derived from the endpoints.

        Computed once per schedule: :meth:`temperature` runs every sweep.
        """
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
    den, h, couplers = _compile(model)
    strength = [abs(c) for c in h]
    for i, j, c in couplers:
        strength[i] += abs(c)
        strength[j] += abs(c)
    t0 = max(1.0, max(strength) / den)
    return AnnealSchedule(sweeps=100 * n, t_initial=t0, t_final=0.01, restarts=8)


def _seeded_rng(*path: int) -> np.random.Generator:
    """PCG64 generator seeded from a path of integers, e.g. ``(seed, restart)``.

    Every seeded stream in the package (annealer restarts, protocol probes,
    CLI hidden strings) is derived here.
    """
    return np.random.default_rng(np.random.SeedSequence(path))


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
    cost dE is accepted with probability min(1, exp(-dE/T)). The model is
    compiled to integers over one common denominator ``den``, so local
    fields, flip costs and running energies are exact ints, kept
    incrementally at O(degree) per accepted flip. Each sweep prices a cost
    dE > 0 as ``exp(-(dE/den)/T)``. The best assignment ever visited is kept
    across restarts, merging energy ties toward the lexicographically least
    bit sequence; its reported energy is re-evaluated exactly.

    A model without couplers, whose summed cost magnitudes stay below 2**63,
    takes ``_BATCH_VISITS // n`` sweeps at a time (at least one) as a few
    whole-array numpy operations (:func:`_diagonal_sweep`): no visit changes
    another variable's cost, so each variable's acceptances follow from its
    own uniforms and the sweep temperatures alone. It draws the same numbers
    and returns the same result, trajectory included, as the sequential
    Python-int loop that every other model takes.

    ``target_energy`` stops the run early once a new best energy, rounded
    to the nearest float as ``e / den``, is at most the target (used when a
    lower bound for the objective is known). ``target_energy=float(E)`` for
    an exact ground energy E therefore fires exactly at the ground.
    ``trajectory`` records the best energy after each sweep as ``e / den``.
    """
    if schedule is None:
        schedule = default_schedule(model)
    n = model.n_vars
    if n == 0:
        raise ValueError("cannot anneal an empty model")
    den, h, couplers = _compile(model)
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, w in couplers:
        neighbors[i].append((j, w))
        neighbors[j].append((i, w))
    diagonal = not couplers and _fits_int64(h, couplers)
    if diagonal:
        h_arr = np.array(h, dtype=np.int64)
        h_abs = np.abs(h_arr)
        ground = (h_arr < 0).astype(np.int8)
        levels, level_of = np.unique(h_abs, return_inverse=True)
        costs = [c / den for c in levels.tolist()]  # priced as the sequential loop does
        batch = max(1, _BATCH_VISITS // n)

    def reaches_target(e: int) -> bool:
        return target_energy is not None and e / den <= target_energy

    best_e = math.inf
    best_bits: list[int] | None = None
    attempts = 0
    restarts_used = 0
    trajectory: list[float] | None = [] if record_trajectory else None
    exp = math.exp

    for r in range(schedule.restarts):
        restarts_used = r + 1
        rng = _seeded_rng(seed, r)
        start = rng.integers(0, 2, size=n)
        s = start.tolist()
        field = list(h)
        for i, j, w in couplers:
            if s[j]:
                field[i] += w
            if s[i]:
                field[j] += w
        energy = sum(h[i] for i in range(n) if s[i])
        energy += sum(w for i, j, w in couplers if s[i] and s[j])
        run_e, run_bits = energy, s.copy()
        done = reaches_target(run_e)
        if diagonal:
            excited = start.astype(np.int8) ^ ground
            for first in range(0, schedule.sweeps, batch):
                if done:
                    break
                temps = map(schedule.temperature,
                            range(first, min(first + batch, schedule.sweeps)))
                probs = np.array([exp(-c / t) for t in temps for c in costs])
                energy, run_e, run_bits, visits, done, sweep_bests = _diagonal_sweep(
                    rng, excited, ground, h_abs, probs.reshape(-1, len(costs)).take(level_of, 1),
                    energy, run_e, run_bits, reaches_target)
                attempts += visits
                if trajectory is not None:
                    trajectory.extend(min(best_e, e) / den for e in sweep_bests)
        else:
            for sweep in range(schedule.sweeps):
                if done:
                    break
                t = schedule.temperature(sweep)
                accept: dict[int, float] = {}
                order = rng.permutation(n).tolist()
                uniforms = rng.random(n).tolist()
                for k, i in enumerate(order):
                    de = field[i] if s[i] == 0 else -field[i]
                    attempts += 1
                    if de > 0:
                        p = accept.get(de)
                        if p is None:
                            p = accept[de] = exp(-(de / den) / t)
                        if uniforms[k] >= p:
                            continue
                    delta = 1 - 2 * s[i]
                    s[i] ^= 1
                    energy += de
                    for jn, w in neighbors[i]:
                        field[jn] += w * delta
                    if energy < run_e:
                        run_e, run_bits = energy, s.copy()
                        if reaches_target(run_e):
                            done = True
                            break
                if trajectory is not None:
                    trajectory.append(min(best_e, run_e) / den)
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


def _diagonal_sweep(
    rng: np.random.Generator,
    excited: np.ndarray,
    ground: np.ndarray,
    h_abs: np.ndarray,
    p: np.ndarray,
    energy: int,
    run_e: int,
    run_bits: list[int],
    reaches_target: Callable[[int], bool],
) -> tuple[int, int, list[int], int, bool, list[int]]:
    """A batch of Metropolis sweeps over a coupler-free model, in numpy arrays.

    Runs ``len(p)`` sweeps; ``p[m, i]`` is the acceptance probability of
    variable i's cost |h_i| in sweep m. ``excited`` (int8) marks the
    variables whose bit is not ``ground``, the bit that takes the lower
    energy of their bias, and is updated in place.

    The draws are the sequential loop's: each sweep draws a visit order, then
    one uniform per visit. All of the batch's sweeps are drawn up front; a
    run that stops early leaves some unused, which is harmless because each
    restart's generator is discarded when the restart ends.

    A visit to an excited variable is always accepted (its flip lowers the
    energy) and leaves it relaxed; a visit to a relaxed one is accepted when
    its uniform is below p and excites it. Hence ``excited[m + 1] =
    ~excited[m] & (u[m] < p[m])``: a variable is excited after sweep m
    exactly when an odd number of sweeps passed since its last rejection,
    found for every sweep at once with a running maximum. A variable with
    zero cost has p = 1 and accepts every visit. The accepted costs,
    summed in visit order over the whole batch, give the energy after every
    visit. The strict running minima below ``run_e`` are the loop's new best
    states; they are walked in order so that the exact target check stops
    at the same visit, and the best bits are the state at the start of that
    sweep with the visited head of its order moved on one sweep. Returns the
    updated ``(energy, run_e, run_bits, visits, done)`` and ``run_e`` after
    each sweep that ran.
    """
    k, n = p.shape
    # Shuffling a row of arange(n) in place draws what rng.permutation(n) draws.
    orders = np.tile(np.arange(n), (k, 1))
    draws = np.empty((k, n))
    for order, uniforms in zip(orders, draws):
        rng.shuffle(order)
        rng.random(out=uniforms)
    # Indices into a flattened k x n array, in visit order.
    visit = orders + np.arange(0, k * n, n)[:, None]
    u = np.empty(k * n)
    u[visit] = draws
    sweeps = np.arange(k)[:, None]
    # A relaxed start acts as a rejection at sweep -1, an excited one at -2.
    last = np.where(u.reshape(k, n) < p, -1 - excited, sweeps)
    np.maximum.accumulate(last, axis=0, out=last)
    # states[m] marks the variables excited at the start of sweep m.
    states = np.empty((k + 1, n), dtype=np.int8)
    states[0] = excited
    states[1:] = (sweeps - last) & 1
    # Energy after each visit, less the energy at the start of the batch.
    path = ((states[1:] - states[:-1]) * h_abs).ravel()[visit].ravel().cumsum()
    # The running minimum at the end of each sweep; most batches find no new
    # best, and only those that do pay for the running minimum of every visit.
    ends = np.minimum.accumulate(path.reshape(k, n).min(axis=1))
    below = run_e - energy
    visits, done = k * n, False
    if ends[-1] < below:
        lowest = np.minimum.accumulate(path)
        new_low = np.empty(k * n, dtype=bool)
        new_low[0] = True
        np.less(path[1:], lowest[:-1], out=new_low[1:])
        new_low &= path < below
        for b in np.flatnonzero(new_low).tolist():
            run_e, best = energy + int(path[b]), b
            if reaches_target(run_e):
                visits, done = b + 1, True
                break
        m, v = divmod(best, n)
        bits = states[m].copy()
        head = orders[m, : v + 1]
        bits[head] = states[m + 1, head]
        run_bits = (bits ^ ground).tolist()
    excited[:] = states[k]
    sweep_bests = np.minimum(ends[: (visits - 1) // n], below) + energy
    return (energy + int(path[visits - 1]), run_e, run_bits, visits, done,
            sweep_bests.tolist() + [run_e])


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

    The state is one integer (bit k is variable k) and a flip is an xor;
    the callback receives it as a :class:`BitVector` that stores only that
    integer. Energies are the callback's own values: costs, the best-state
    comparison and the restart merge are exact for an int or Fraction
    objective, and ``best_energy`` is the least value the run kept. Each
    sweep prices a cost dE > 0 once in a ``{dE: p}`` table.
    ``target_energy`` stops the run when a new best energy, rounded to the
    nearest float, is at most the target, so ``target_energy=float(E)``
    fires at an exact floor E as in :func:`anneal`; a start state that
    already meets it stops after one flip attempt. ``trajectory`` records
    the best energy after each sweep as a float.
    """
    if n_vars < 1:
        raise ValueError("need at least one variable")
    best_e = math.inf
    best_value: int | None = None
    evaluations = 0
    restarts_used = 0
    trajectory: list[float] | None = [] if record_trajectory else None
    exp = math.exp
    of = BitVector._of

    for r in range(schedule.restarts):
        restarts_used = r + 1
        rng = _seeded_rng(seed, r)
        start = rng.integers(0, 2, size=n_vars).tolist()
        value = sum(b << k for k, b in enumerate(start))
        e_cur = energy(of(value, n_vars))
        evaluations += 1
        run_e, run_value = e_cur, value
        met = target_energy is not None and float(run_e) <= target_energy
        done = False

        for sweep in range(schedule.sweeps):
            if done:
                break
            t = schedule.temperature(sweep)
            accept: dict = {}
            order = rng.permutation(n_vars).tolist()
            uniforms = rng.random(n_vars).tolist()
            if met:  # the start state is at the target: one attempt, then stop
                del order[1:]
                done = True
            for k, i in enumerate(order):
                value ^= 1 << i
                e_new = energy(of(value, n_vars))
                evaluations += 1
                de = e_new - e_cur
                # Negated tests, so that a NaN cost (inf - inf) is rejected.
                if not de <= 0:
                    p = accept.get(de)
                    if p is None:
                        p = accept[de] = exp(-de / t)
                    if not uniforms[k] < p:
                        value ^= 1 << i
                        continue
                e_cur = e_new
                if e_new < run_e:
                    run_e, run_value = e_new, value
                    if target_energy is not None and float(run_e) <= target_energy:
                        done = True
                        break
            if trajectory is not None:
                trajectory.append(float(min(best_e, run_e)))
        # Ties go to the smallest bit sequence, as in :func:`anneal`. The
        # first restart always merges, even when its best energy is inf.
        if best_value is None or run_e < best_e or (
            run_e == best_e and of(run_value, n_vars).bits < of(best_value, n_vars).bits
        ):
            best_e, best_value = run_e, run_value
        if done:
            break

    return AnnealResult(
        best_assignment=of(best_value, n_vars),
        best_energy=best_e,
        restarts_used=restarts_used,
        energy_evaluations=evaluations,
        seed=seed,
        trajectory=tuple(trajectory) if trajectory is not None else None,
    )
