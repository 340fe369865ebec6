"""Out-of-program tracing for the traced benchmark run.

The tracer wraps the package's functions at the attributes their callers
resolve at call time (module globals such as ``hiddenstring.protocol.anneal``
and class attributes such as ``SimonOracle.query``) and restores them on
exit. No file of the package changes.

Every wrapped boundary aggregates a call count, its total time and its self
time (total minus the time of wrapped calls made inside it), using a stack of
open frames. A boundary only records while a benchmark op is open; calls made
by the harness itself (set-up, output checks) pass straight through.

Full spans (name, start, end, parent, op id) are kept in memory only for op
boundaries and solver calls, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import hiddenstring.annealer as hs_annealer
import hiddenstring.cli as hs_cli
import hiddenstring.model as hs_model
import hiddenstring.oracles as hs_oracles
import hiddenstring.protocol as hs_protocol
import hiddenstring.qubofile as hs_qubofile

LAYERS = ("model", "oracles", "builders", "annealer", "protocol", "qubofile", "cli")
OP = "bench.op"
# Boundaries whose individual spans are kept, not only aggregated.
_SPAN_KEPT = {OP, "annealer.anneal", "annealer.anneal_black_box"}
# Which part of a solve an oracle query serves, by the innermost open wrapped
# call that sets a purpose. Queries a solve_* function makes itself are its
# verification probes (solve_bv's probe loop), hence the default "verify".
PURPOSES = ("model", "search", "check", "verify")


class _Frame:
    __slots__ = ("name", "start", "child", "purpose", "span_id")

    def __init__(self, name, start, purpose, span_id=None):
        self.name = name
        self.start = start
        self.child = 0.0
        self.purpose = purpose
        self.span_id = span_id


class Tracer:
    """Aggregates wrapped calls; use as a context manager to install the wrappers."""

    def __init__(self):
        self.stack: list[_Frame] = []
        # name -> [calls, total seconds, self seconds]
        self.agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.op_id = -1
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- frames -----------------------------------------------------------

    def _enter(self, name, purpose=None):
        stack = self.stack
        if purpose is None:
            purpose = stack[-1].purpose
        span_id = None
        if name in _SPAN_KEPT:
            span_id = len(self.spans)
            parent = stack[-1].span_id if stack else None
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        frame = _Frame(name, time.perf_counter(), purpose, span_id)
        stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        dur = end - frame.start
        a = self.agg[frame.name]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame.child
        if stack:
            stack[-1].child += dur
        if frame.span_id is not None:
            span = self.spans[frame.span_id]
            span[1] = frame.start
            span[2] = end
        return dur

    def begin_op(self, op_id):
        """Open the root span of one benchmark op; pass the result to end_op."""
        self.op_id = op_id
        return self._enter(OP, purpose="verify")

    def end_op(self, frame):
        self._exit(frame)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, purpose=None):
        stack = self.stack
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = enter(name, purpose)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return wrapper

    def _wrap_query(self, fn):
        stack = self.stack
        counts = self.counts
        enter, leave = self._enter, self._exit
        keys = {p: "oracles.queries." + p for p in PURPOSES}

        @functools.wraps(fn)
        def query(oracle, w):
            if not stack:
                return fn(oracle, w)
            counts[keys[stack[-1].purpose]] += 1
            frame = enter("oracles.query")
            try:
                return fn(oracle, w)
            finally:
                leave(frame)

        return query

    def _wrap_anneal(self, name, fn, purpose=None, callback=False):
        """Solver-call wrapper: also books restarts, flips and target hits.

        With ``callback`` the energy callback (first argument) is wrapped as
        a protocol span, so the annealer's self time excludes it.
        """
        stack = self.stack
        counts = self.counts
        enter, leave = self._enter, self._exit
        energy_wrapper = self._wrap

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if callback:
                args = (energy_wrapper("protocol.energy_callback", args[0]),) + args[1:]
            frame = enter(name, purpose)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            counts[name + ".restarts"] += result.restarts_used
            counts[name + ".evals"] += result.energy_evaluations
            target = kwargs.get("target_energy")
            if target is not None:
                counts[name + ".targeted"] += 1
                if float(result.best_energy) <= target:
                    counts[name + ".target_hits"] += 1
            return result

        return wrapper

    def _wrap_entries(self, fn):
        """Generator wrapper: times each resume, counts entries materialised."""
        stack = self.stack
        counts = self.counts
        enter, leave = self._enter, self._exit
        name = "model.spectrum_entries"

        @functools.wraps(fn)
        def iter_entries(spectrum):
            it = fn(spectrum)
            while True:
                frame = enter(name) if stack else None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        leave(frame)
                if frame is not None:
                    counts["model.spectrum_entries.items"] += 1
                yield item

        return iter_entries

    def _wrap_import(self, fn):
        counts = self.counts
        stack = self.stack
        inner = self._wrap("qubofile.import_qubo", fn)

        @functools.wraps(fn)
        def import_qubo(source):
            if stack and isinstance(source, (str, os.PathLike)) and os.path.isfile(source):
                counts["qubofile.bytes"] += os.path.getsize(source)
            return inner(source)

        return import_qubo

    def _wrap_check(self, fn):
        counts = self.counts
        inner = self._wrap("protocol.check_collision", fn, purpose="check")

        @functools.wraps(fn)
        def check_collision(oracle, w, y):
            accepted = inner(oracle, w, y)
            if self.stack and accepted:
                counts["protocol.collisions_accepted"] += 1
            return accepted

        return check_collision

    def _boundaries(self):
        """(owner, attribute, wrapper factory) for every traced boundary.

        Owners are the modules and classes whose attributes callers resolve
        at call time, so patching them reroutes the package's own calls.
        """
        p, a, m, w = hs_protocol, hs_annealer, hs_model, self._wrap

        def named(name, purpose=None):
            return lambda fn: w(name, fn, purpose)

        def solver(name, purpose=None, callback=False):
            return lambda fn: self._wrap_anneal(name, fn, purpose, callback)

        return [
            (m.BitVector, "__init__", named("model.BitVector.__init__")),
            (a, "qubo_energy", named("model.qubo_energy")),
            (p, "exhaustive_solve", named("model.exhaustive_solve")),
            (hs_cli, "exhaustive_solve", named("model.exhaustive_solve")),
            (m.Spectrum, "iter_entries", self._wrap_entries),
            (hs_oracles.SimonOracle, "query", self._wrap_query),
            (hs_oracles.BvOracle, "query", self._wrap_query),
            (p, "simon_coupled_energy", named("builders.simon_coupled_energy")),
            (p, "build_simon_literal_qubo", named("builders.build_simon_literal_qubo")),
            (p, "build_bv_qubo", named("builders.build_bv_qubo", purpose="model")),
            (p, "anneal", solver("annealer.anneal")),
            (a, "anneal", solver("annealer.anneal")),
            (p, "anneal_black_box", solver("annealer.anneal_black_box", "search", callback=True)),
            (p, "default_schedule", named("annealer.default_schedule")),
            (a, "default_schedule", named("annealer.default_schedule")),
            (p, "solve_bv", named("protocol.solve_bv", purpose="verify")),
            (p, "solve_simon", named("protocol.solve_simon", purpose="verify")),
            (p, "check_collision", self._wrap_check),
            (p, "verify_simon", named("protocol.verify_simon", purpose="verify")),
            (hs_qubofile, "import_qubo", self._wrap_import),
            (hs_cli, "import_qubo", self._wrap_import),
            (hs_cli, "main", named("cli.main")),
        ]

    def __enter__(self):
        """Install the wrappers. A boundary the package no longer has is
        listed in ``missing`` and its metrics read 0."""
        try:
            for owner, attr, make in self._boundaries():
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                self._restore.append((owner, attr, original))
                setattr(owner, attr, make(original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    # -- results ----------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer, plus the harness's own share under "bench"."""
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, (_calls, _total, self_s) in self.agg.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def per_layer_metrics(self, untraced, traced) -> dict:
        """Per-layer metrics as {name: (value, unit)}, per op unless a ratio.

        ``untraced`` and ``traced`` are the (seconds, Outcome) pairs of the
        same ops run without and with the wrappers.
        """
        m = len(traced)
        agg, cnt = self.agg, self.counts

        def calls(key):
            return agg[key][0] if key in agg else 0

        def total(key):
            return agg[key][1] if key in agg else 0.0

        def self_s(key):
            return agg[key][2] if key in agg else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        outcomes = [o for _, o in traced]
        u_wall = sum(dt for dt, _ in untraced)
        t_wall = sum(dt for dt, _ in traced)
        anneal_calls = calls("annealer.anneal")
        solver_calls = anneal_calls + calls("annealer.anneal_black_box")
        flips = cnt["annealer.anneal.evals"]
        bb_evals = cnt["annealer.anneal_black_box.evals"]
        layer_self = self.layer_self_seconds()

        metrics = {f"{layer}.self_s": (layer_self[layer] / m, "s") for layer in LAYERS}
        metrics.update({
            "model.bitvector_inits": (calls("model.BitVector.__init__") / m, "count"),
            "model.exhaustive_solve.s": (total("model.exhaustive_solve") / m, "s"),
            "model.spectrum_entries.s": (total("model.spectrum_entries") / m, "s"),
            "model.spectrum_entries.useful_ratio": (
                ratio(sum(o.entries_emitted for o in outcomes),
                      cnt["model.spectrum_entries.items"]), "ratio"),
            "model.qubo_energy.calls": (calls("model.qubo_energy") / m, "count"),
            "oracles.query.calls": (calls("oracles.query") / m, "count"),
            "oracles.query.s": (total("oracles.query") / m, "s"),
        })
        for purpose in PURPOSES:
            metrics[f"oracles.queries.{purpose}"] = (cnt[f"oracles.queries.{purpose}"] / m, "count")
        metrics.update({
            "builders.simon_coupled_energy.self_s": (self_s("builders.simon_coupled_energy") / m, "s"),
            "builders.build_simon_literal_qubo.calls": (
                calls("builders.build_simon_literal_qubo") / m, "count"),
            "builders.build_simon_literal_qubo.s": (total("builders.build_simon_literal_qubo") / m, "s"),
            "builders.build_bv_qubo.s": (total("builders.build_bv_qubo") / m, "s"),
            "annealer.anneal.calls": (anneal_calls / m, "count"),
            "annealer.anneal.s": (total("annealer.anneal") / m, "s"),
            "annealer.anneal.flips": (flips / m, "count"),
            "annealer.anneal.ns_per_flip": (ratio(total("annealer.anneal") * 1e9, flips), "ns"),
            "annealer.anneal.restarts_per_call": (
                ratio(cnt["annealer.anneal.restarts"], anneal_calls), "count"),
            "annealer.anneal.target_hit_ratio": (
                ratio(cnt["annealer.anneal.target_hits"], cnt["annealer.anneal.targeted"]), "ratio"),
            "annealer.anneal_black_box.self_s": (self_s("annealer.anneal_black_box") / m, "s"),
            "annealer.anneal_black_box.evals": (bb_evals / m, "count"),
            # Two callback evaluations price one flip.
            "annealer.anneal_black_box.queries_per_flip": (
                ratio(cnt["oracles.queries.search"], bb_evals / 2), "count"),
            "annealer.default_schedule.s": (total("annealer.default_schedule") / m, "s"),
            "protocol.verify.s": (total("protocol.verify_simon") / m, "s"),
            "protocol.collision_accept_ratio": (
                ratio(cnt["protocol.collisions_accepted"], solver_calls), "ratio"),
            "qubofile.import_qubo.s": (total("qubofile.import_qubo") / m, "s"),
            "qubofile.bytes": (cnt["qubofile.bytes"] / m, "bytes"),
            "cli.main.self_s": (self_s("cli.main") / m, "s"),
            "cli.output_bytes": (sum(o.output_bytes for o in outcomes) / m, "bytes"),
            "trace.overhead": (100 * (t_wall / u_wall - 1), "%"),
        })
        return metrics

    def conservation(self, untraced, traced) -> tuple[list[str], dict]:
        """Check the traced books against the untraced run of the same ops.

        Returns the problems found and the wall-time sums behind the last
        check.
        """
        problems = []
        cnt, agg = self.counts, self.agg
        u_out = [o for _, o in untraced]
        for k, (u, (_, t)) in enumerate(zip(u_out, traced)):
            if u.fingerprint != t.fingerprint:
                problems.append(f"op {k}: traced run differs from untraced run")
        queries = sum(o.oracle_queries for o in u_out)
        by_purpose = sum(cnt[f"oracles.queries.{p}"] for p in PURPOSES)
        wrapped = agg["oracles.query"][0] if "oracles.query" in agg else 0
        if not by_purpose == wrapped == queries:
            problems.append(f"oracle queries: by purpose {by_purpose}, wrapped {wrapped}, "
                            f"reported {queries}")
        restarts = cnt["annealer.anneal.restarts"] + cnt["annealer.anneal_black_box.restarts"]
        calls = sum(o.aqc_calls for o in u_out)
        if restarts != calls:
            problems.append(f"annealer restarts {restarts}, reported aqc_calls {calls}")
        evals = [o.energy_evaluations for o in u_out]
        if None not in evals and sum(evals) != cnt["annealer.anneal.evals"]:
            problems.append(f"anneal flips {cnt['annealer.anneal.evals']}, reported {sum(evals)}")
        self_sum = sum(self.layer_self_seconds().values())
        u_wall = sum(dt for dt, _ in untraced)
        t_wall = sum(dt for dt, _ in traced)
        # Self times partition each op span, so against the traced op time
        # they may miss only the cost of opening and closing that span; their
        # excess over the untraced op time is then the measured overhead.
        if abs(self_sum - t_wall) > 0.01 * t_wall + 50e-6 * len(traced):
            problems.append(f"layer self times sum to {self_sum:.6f} s, "
                            f"traced ops took {t_wall:.6f} s")
        return problems, {"self_sum_s": self_sum, "untraced_s": u_wall, "traced_s": t_wall}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id,
                }) + "\n")
