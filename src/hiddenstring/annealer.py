"""Simulated-annealing ground-state search.

This is the desk-scale stand-in for the annealing hardware the models are
written for: Metropolis single-flip dynamics with a geometric temperature
schedule, random visit order within each sweep, and independent restarts.

Everything is driven by numpy's PCG64 generator, seeded explicitly, so a
run is reproducible from its (model, schedule, seed) triple alone. Restart
r draws from two streams: ``SeedSequence((seed, r))`` draws its start
state and then the visit order of every sweep, and ``SeedSequence((seed,
r, 1))`` draws every sweep's uniforms. Sweep m visits in the order of the
m-th ``permutation(n)`` of the first stream and accepts with the m-th
``random(n)`` of the second. Results for a given seed therefore differ
from versions that drew orders and uniforms alternately from one stream;
their distribution does not.

One draw path, one restart loop, two kernels. :func:`_sweep_draws` draws
the sweeps of a restart a block at a time, about 4 096 visits per block,
with one ``permuted`` and one ``random`` call per block; the block size
changes no value. :func:`_restart_loop` seeds each restart, draws its
start, tests the early stop, records the trajectory, merges the restarts'
best states and builds the result; once per restart it calls a kernel
that runs the sweeps with its visit loop inline. The explicit kernel
(:func:`anneal`) works on the model compiled to exact ints over a common
denominator; on a model without couplers whose costs fit in int64 (the
Bernstein-Vazirani model among them), each block of sweeps is a few numpy
array operations, with identical results. Its arrays are made once per
restart, and each block prices its sweeps with the float expression of
:meth:`AnnealSchedule.temperature`, one price per sweep and cost level,
broadcast over the row when there is one level. The black-box kernel
(:func:`anneal_black_box`) prices every flip with one evaluation of an
opaque energy callback (the oracle-coupled search, whose objective exists
only behind oracle queries); its state is one integer, flipped with an
xor and handed to the callback as that bare int. Energies are compared
exactly, as ints or the callback's own values, and so is an int or
Fraction early-stop target; only a float target and the trajectory round
energies to floats.

Both visit loops keep per-visit interpreter work to what the dynamics
need. A restart binds the schedule's ``temperature`` once and takes each
sweep's order and uniforms as two lists. The sweep walks ``zip(order,
uniforms)``, counts its n attempts up front, and on an early stop takes
back the visits after the stopping one, found by its position in the
order. The explicit loop updates the neighbours' fields on an accepted
flip by branching on the bit instead of multiplying by a sign; the
black-box loop xors the visited bit's mask into a local and keeps it only
on accept, so a rejected flip costs no second xor. Each uphill flip is
priced where it is visited, as ``exp(-(dE/den)/T)`` (or ``exp(-dE/T)``),
so every draw, result and trajectory matches a plain loop that prices and
counts visit by visit.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

# qubo_energy is unused here; benchmarks/tracer.py wraps annealer.qubo_energy.
from .model import BitVector, QuboModel, _compile, _fits_int64, qubo_energy  # noqa: F401

__all__ = [
    "AnnealSchedule",
    "AnnealResult",
    "default_schedule",
    "anneal",
    "anneal_black_box",
]

# Visits per block of drawn sweeps: enough to amortise numpy's per-call
# overhead, while each block array stays near 32 KB. Changes no value.
_BATCH_VISITS = 4096


def _as_count(name: str, value) -> int:
    """``value`` as an int (numpy ints pass), or a ValueError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        if _as_count("sweeps", self.sweeps) < 1:
            raise ValueError(f"sweeps must be positive, got {self.sweeps}")
        if _as_count("restarts", self.restarts) < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")
        if not (math.isfinite(self.t_initial) and math.isfinite(self.t_final)):
            raise ValueError(
                "temperatures must be finite, "
                f"got t_initial={self.t_initial}, t_final={self.t_final}"
            )
        if not (self.t_final > 0 and self.t_initial >= self.t_final):
            raise ValueError(
                "need t_initial >= t_final > 0, "
                f"got t_initial={self.t_initial}, t_final={self.t_final}"
            )
        # No sweep is colder than the last, so this keeps every one above 0.
        coldest = self.temperature(self.sweeps - 1)
        if not coldest > 0:
            raise ValueError(
                f"the last sweep's temperature underflows to {coldest}: "
                f"t_initial={self.t_initial}, t_final={self.t_final}, sweeps={self.sweeps}"
            )

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

    Every seeded stream in the package (an annealer restart's order stream
    ``(seed, r)`` and uniform stream ``(seed, r, 1)``, protocol probes, CLI
    hidden strings) is derived here, and every child seed (solver calls,
    oracle label tables) by :func:`_spawn_seed`.
    """
    return np.random.default_rng(np.random.SeedSequence(path))


def _spawn_seed(path: tuple[int, ...]) -> int:
    """Deterministic 63-bit child seed from a path of integers."""
    return int(np.random.SeedSequence(path).generate_state(1, np.uint64)[0] >> 1)


def _sweeps_per_block(n: int, sweeps: int) -> int:
    """Sweeps drawn per block: about ``_BATCH_VISITS`` visits, at most all of them."""
    return min(max(1, _BATCH_VISITS // n), sweeps)


def _sweep_draws(
    order_rng: np.random.Generator, uniform_path: tuple[int, ...], n: int, sweeps: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(first, orders, uniforms)`` for each block of one restart's sweeps.

    Row m of a block is sweep ``first + m``. Its visit order is the next
    ``permutation(n)`` of ``order_rng`` and its uniforms are the next
    ``random(n)`` of the generator seeded from ``uniform_path``. A block
    takes one ``permuted`` call over rows reset to ``arange(n)`` and one
    ``random`` call, which draw exactly what those per-sweep calls draw,
    so the block size changes no value. The rows are views of buffers
    that the next block overwrites, and the last block may be short. The
    uniform stream is seeded when the first block is drawn.
    """
    block = _sweeps_per_block(n, sweeps)
    uniform_rng = _seeded_rng(*uniform_path)
    order_buffer, uniform_buffer = np.empty((block, n), dtype=np.intp), np.empty((block, n))
    arange = np.arange(n)
    for first in range(0, sweeps, block):
        k = min(block, sweeps - first)
        orders, uniforms = order_buffer[:k], uniform_buffer[:k]
        orders[:] = arange
        order_rng.permuted(orders, axis=1, out=orders)
        uniform_rng.random(out=uniforms)
        yield first, orders, uniforms


def _each_sweep(
    draws: Iterator[tuple[int, np.ndarray, np.ndarray]],
) -> Iterator[tuple[int, list[int], list[float]]]:
    """The sweeps of :func:`_sweep_draws` one at a time, as ``(sweep, order,
    uniforms)`` with the order and uniforms as lists."""
    for first, orders, uniforms in draws:
        yield from zip(itertools.count(first), map(np.ndarray.tolist, orders),
                       map(np.ndarray.tolist, uniforms))


def _restart_loop(
    kernel: Callable[..., tuple],
    n: int,
    schedule: AnnealSchedule,
    seed: int,
    target_energy: Fraction | int | float | None,
    record_trajectory: bool,
    den: int | None = None,
) -> AnnealResult:
    """Run the restarts of one annealing run, one ``kernel`` call each.

    ``kernel(draws, start, reaches_target, sweep_bests)`` anneals from the
    n-bit ``start``, taking its sweeps from the :func:`_sweep_draws`
    iterator ``draws``, and returns ``(run_e, run_value, evaluations, done)``:
    its best energy and state (an int, bit k is variable k), its energy
    evaluations, and whether ``reaches_target`` fired on a new best, which
    ends the run. It appends its best energy after each sweep to the list
    ``sweep_bests``. Energies are ints over ``den``, or the callback's own
    values when ``den`` is None.

    An int or Fraction ``target_energy`` is compared exactly: ``e <= target``
    against the callback's values, ``e * q <= p * den`` against ints over
    ``den`` for a target ``p / q``. A float target (any real that is not
    rational) is compared with the energy rounded to the nearest float, as
    the float nearest an exact floor may lie just below it.
    """
    to_float = float if den is None else lambda e: e / den
    target = target_energy
    if target is None:
        def reaches_target(e) -> bool:
            return False
    elif not isinstance(target, numbers.Rational):
        def reaches_target(e) -> bool:
            return to_float(e) <= target
    elif den is None:
        def reaches_target(e) -> bool:
            return e <= target
    else:
        target = Fraction(target)
        q, bound = target.denominator, target.numerator * den

        def reaches_target(e) -> bool:
            return e * q <= bound

    of = BitVector._of
    best_e, best_value = math.inf, None
    evaluations = 0
    trajectory: list[float] | None = [] if record_trajectory else None
    for r in range(schedule.restarts):
        rng = _seeded_rng(seed, r)
        start = rng.integers(0, 2, size=n)
        draws = _sweep_draws(rng, (seed, r, 1), n, schedule.sweeps)
        sweep_bests: list = []
        run_e, run_value, calls, done = kernel(draws, start, reaches_target, sweep_bests)
        evaluations += calls
        if trajectory is not None:
            trajectory.extend(to_float(min(best_e, e)) for e in sweep_bests)
        # Ties go to the least bit sequence, so the outcome does not depend
        # on restart order. The first restart always merges, even when its
        # best energy is inf.
        if best_value is None or run_e < best_e or (
            run_e == best_e and of(run_value, n).bits < of(best_value, n).bits
        ):
            best_e, best_value = run_e, run_value
        if done:
            break

    return AnnealResult(
        best_assignment=of(best_value, n),
        best_energy=best_e if den is None else Fraction(best_e, den),
        restarts_used=r + 1,
        energy_evaluations=evaluations,
        seed=seed,
        trajectory=tuple(trajectory) if trajectory is not None else None,
    )


def anneal(
    model: QuboModel,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    *,
    target_energy: Fraction | int | float | None = None,
    record_trajectory: bool = False,
) -> AnnealResult:
    """Metropolis single-flip search over an explicit model.

    Each sweep visits the variables in a fresh random order; a flip with
    cost dE is accepted with probability min(1, exp(-dE/T)). Restart r
    draws its start and then each sweep's order (a ``permutation(n)``) from
    ``SeedSequence((seed, r))``, and each sweep's uniforms (a
    ``random(n)``) from ``SeedSequence((seed, r, 1))``, so a given seed
    gives other results than versions that drew both from one stream. The
    model is
    compiled to integers over one common denominator ``den``, so local
    fields, flip costs and running energies are exact ints, kept
    incrementally at O(degree) per accepted flip. Each sweep prices a cost
    dE > 0 as ``exp(-(dE/den)/T)``. The best assignment ever visited is kept
    across restarts, merging energy ties toward the lexicographically least
    bit sequence; its energy is reported exactly, as ``Fraction(e, den)``.

    A model without couplers, whose summed cost magnitudes stay below 2**63,
    takes a block of sweeps at a time (``_BATCH_VISITS // n``, at least
    one, at most the schedule's) as a few whole-array numpy operations
    (:func:`_diagonal_sweeps`): no visit changes another variable's cost, so
    each variable's acceptances follow from its own uniforms and the sweep
    temperatures alone. It draws the same numbers and returns the same
    result, trajectory included, as the sequential Python-int loop that
    every other model takes.

    ``target_energy`` stops the run early once a new best energy is at most
    the target (used when a lower bound for the objective is known). An int
    or Fraction target is compared exactly, so ``target_energy=E`` for an
    exact ground energy E fires at the ground and nowhere else. A float
    target is compared with the energy rounded to the nearest float as
    ``e / den``; ``float(E)`` then fires at E, but also at any level that
    rounds to the same float. ``trajectory`` records the best energy after
    each sweep as ``e / den``.
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
    exp, temperature = math.exp, schedule.temperature

    def restart(draws, start, reaches_target, sweep_bests):
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
        attempts = 0
        if done:  # the start state is at the target: no sweeps
            pass
        elif diagonal:
            run_e, run_bits, attempts, done = _diagonal_sweeps(
                draws, start.astype(np.int8) ^ ground, ground, h_abs, level_of, costs,
                schedule, energy, run_e, run_bits, reaches_target,
                sweep_bests if record_trajectory else None)
        else:
            for sweep, order, uniforms in _each_sweep(draws):
                t = temperature(sweep)
                attempts += n
                for i, u in zip(order, uniforms):
                    de = -field[i] if s[i] else field[i]
                    if de > 0 and u >= exp(-(de / den) / t):
                        continue
                    energy += de
                    if s[i]:
                        s[i] = 0
                        for jn, w in neighbors[i]:
                            field[jn] -= w
                    else:
                        s[i] = 1
                        for jn, w in neighbors[i]:
                            field[jn] += w
                    if energy < run_e:
                        run_e, run_bits = energy, s.copy()
                        if reaches_target(run_e):
                            attempts -= n - 1 - order.index(i)  # the visits not made
                            done = True
                            break
                sweep_bests.append(run_e)
                if done:
                    break
        return run_e, sum(b << k for k, b in enumerate(run_bits)), attempts, done

    return _restart_loop(restart, n, schedule, seed, target_energy, record_trajectory, den)


def _diagonal_sweeps(
    draws: Iterator[tuple[int, np.ndarray, np.ndarray]],
    excited: np.ndarray,
    ground: np.ndarray,
    h_abs: np.ndarray,
    level_of: np.ndarray,
    costs: list[float],
    schedule: AnnealSchedule,
    energy: int,
    run_e: int,
    run_bits: list[int],
    reaches_target: Callable[[int], bool],
    sweep_bests: list[int] | None,
) -> tuple[int, list[int], int, bool]:
    """One restart's Metropolis sweeps over a coupler-free model, in numpy arrays.

    Runs the sweeps a block of ``draws`` (:func:`_sweep_draws`) at a time
    and returns ``(run_e, run_bits, visits, done)``; unless ``sweep_bests``
    is None, appends ``run_e`` after each sweep that ran. ``excited``
    (int8) marks the variables whose bit is not ``ground``, the bit that
    takes the lower energy of their bias.

    Every array is made once per restart, sized to one block, and a short
    last block uses its leading rows. Variable i costs ``costs[level_of[i]]``
    (``|h_i| / den`` as a float); a block prices each level in sweep m as
    ``exp(-c / t)`` with ``t = t_initial * decay**m``, the float expression
    of :meth:`AnnealSchedule.temperature`, so each price is the float the
    sequential loop computes. With one level, as in the Bernstein-Vazirani
    model, a sweep's one price is broadcast over its row.

    The draws are the sequential loop's, one block of orders and uniforms
    at a time. A run that stops early leaves the rest of its block unused,
    which is harmless because each restart's generators are discarded when
    the restart ends.

    A visit to an excited variable is always accepted (its flip lowers the
    energy) and leaves it relaxed; a visit to a relaxed one is accepted when
    its uniform is below p and excites it. Hence ``excited[m + 1] =
    ~excited[m] & (u[m] < p[m])``: a variable is excited after sweep m
    exactly when an odd number of sweeps passed since its last rejection,
    found for every sweep at once with a running maximum, in int16 when the
    block allows. A variable with zero cost has p = 1 and accepts every
    visit. The accepted costs, summed in visit order over the whole block,
    give the energy after every visit. The strict running minima below
    ``run_e`` are the loop's new best states; they are walked in order so
    that the exact target check stops at the same visit, and the best bits
    are the state at the start of that sweep with the visited head of its
    order moved on one sweep.
    """
    n = len(excited)
    exp = math.exp
    block = _sweeps_per_block(n, schedule.sweeps)
    t0, decay = schedule.t_initial, schedule.decay
    # Indices into the flattened arrays below, in visit order.
    offsets = np.arange(0, block * n, n)[:, None]
    visit = np.empty((block, n), dtype=np.intp)
    u = np.empty((block, n))  # the uniforms by variable
    # last[m + 1] is 2 more than the last rejection up to sweep m, so it
    # reaches block + 1; only its parity against m is read. Row 0 makes a
    # relaxed start a rejection at sweep -1 and an excited one at -2.
    index = np.int16 if block < 2**15 - 1 else np.int64
    shifted = np.arange(2, block + 2, dtype=index)[:, None]
    last = np.empty((block + 1, n), dtype=index)
    states = np.empty((block + 1, n), dtype=np.int8)  # excited at the start of each sweep
    states[0] = excited
    steps = np.empty((block, n), dtype=np.int64)
    path = np.empty(block * n, dtype=np.int64)
    attempts, done = 0, False
    for first, order_k, draws_k in draws:
        k = len(order_k)
        p = np.array([exp(-c / (t0 * decay**m)) for m in range(first, first + k) for c in costs])
        p = p[:, None] if len(costs) == 1 else p.reshape(k, -1).take(level_of, 1)
        visit_k, u_k, last_k, states_k = visit[:k], u[:k], last[: k + 1], states[: k + 1]
        np.add(order_k, offsets[:k], out=visit_k)
        u_k.ravel()[visit_k] = draws_k
        np.subtract(1, states[0], out=last_k[0])
        np.multiply(u_k >= p, shifted[:k], out=last_k[1:])
        np.maximum.accumulate(last_k, axis=0, out=last_k)
        np.bitwise_and(last_k[1:] ^ shifted[:k], 1, out=states_k[1:])
        # Energy after each visit, less the energy at the start of the block.
        np.multiply(states_k[1:] - states_k[:-1], h_abs, out=steps[:k])
        path_k = np.add.accumulate(steps[:k].ravel().take(visit_k.ravel()), out=path[: k * n])
        below = run_e - energy
        visits = k * n
        if sweep_bests is None:
            lowest = path_k.min()
        else:  # the running minimum at the end of each sweep
            ends = np.minimum.accumulate(path_k.reshape(k, n).min(axis=1))
            lowest = ends[-1]
        # Most blocks find no new best; only those that do pay for the
        # running minimum of every visit.
        if lowest < below:
            running = np.minimum.accumulate(path_k)
            new_low = np.empty(k * n, dtype=bool)
            new_low[0] = True
            np.less(path_k[1:], running[:-1], out=new_low[1:])
            new_low &= path_k < below
            for b in np.flatnonzero(new_low).tolist():
                run_e, best = energy + int(path_k[b]), b
                if reaches_target(run_e):
                    visits, done = b + 1, True
                    break
            m, v = divmod(best, n)
            bits = states[m].copy()
            head = order_k[m, : v + 1]
            bits[head] = states[m + 1, head]
            run_bits = (bits ^ ground).tolist()
        if sweep_bests is not None:
            sweep_bests.extend((np.minimum(ends[: (visits - 1) // n], below) + energy).tolist())
            sweep_bests.append(run_e)
        states[0] = states[k]
        energy += int(path_k[visits - 1])
        attempts += visits
        if done:
            break
    return run_e, run_bits, attempts, done


def anneal_black_box(
    energy: Callable[[int], Fraction | float | int],
    n_vars: int,
    schedule: AnnealSchedule,
    seed: int = 0,
    *,
    target_energy: Fraction | int | float | None = None,
    record_trajectory: bool = False,
) -> AnnealResult:
    """Metropolis single-flip search over an opaque energy callback.

    The dynamics of :func:`anneal`, with no structure of the objective
    assumed: each restart evaluates its start state once, then every flip
    attempt costs one callback evaluation of the flipped state.
    ``energy_evaluations`` counts callback calls, ``restarts_used * (1 +
    flips attempted)`` for a run that does not stop early. Each sweep
    takes its visit order and uniforms from the two streams of
    :func:`anneal` and flips the visited variable's bit mask ``1 << k``,
    so on the explicit model's energy it runs the dynamics of
    :func:`anneal`. The callback
    receives the state as a plain int ``v`` with ``0 <= v < 2**n_vars``,
    whose bit k is variable k; ``best_assignment`` is the
    :class:`BitVector` of the best such int.

    Energies are the callback's own values, so costs, the best-state
    comparison and the merge are exact for an int or Fraction objective,
    and ``best_energy`` is the least value the run kept. ``target_energy``
    stops the run when a new best energy is at most the target: exactly,
    ``e <= target``, for an int or Fraction target, and with the energy
    rounded to the nearest float for a float target, so that ``float(E)``
    still fires at a floor E whose float lies just below it. A start state
    that already meets the target stops after one flip attempt
    (:func:`anneal` makes none). ``trajectory`` records the best energy
    after each sweep as a float.
    """
    if _as_count("n_vars", n_vars) < 1:
        raise ValueError(f"need at least one variable, got n_vars={n_vars}")
    exp, temperature = math.exp, schedule.temperature
    masks = [1 << k for k in range(n_vars)]

    def restart(draws, start, reaches_target, sweep_bests):
        value = sum(b << k for k, b in enumerate(start.tolist()))
        e_cur = energy(value)
        evaluations = 1
        run_e, run_value = e_cur, value
        met = reaches_target(run_e)
        done = False
        for sweep, order, uniforms in _each_sweep(draws):
            t = temperature(sweep)
            if met:  # the start state is at the target: one attempt, then stop
                del order[1:]
                done = True
            evaluations += len(order)
            for i, u in zip(order, uniforms):
                flipped = value ^ masks[i]
                e_new = energy(flipped)
                de = e_new - e_cur
                # Negated tests, so that a NaN cost (inf - inf) is rejected.
                if not de <= 0 and not u < exp(-de / t):
                    continue
                value, e_cur = flipped, e_new
                if e_new < run_e:
                    run_e, run_value = e_new, value
                    if reaches_target(run_e):
                        evaluations -= len(order) - 1 - order.index(i)  # the visits not made
                        done = True
                        break
            sweep_bests.append(run_e)
            if done:
                break
        return run_e, run_value, evaluations, done

    return _restart_loop(restart, n_vars, schedule, seed, target_energy, record_trajectory)
