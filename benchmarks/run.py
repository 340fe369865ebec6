"""Benchmark harness for the hiddenstring package.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process drives a closed loop: each op starts after the
previous one returns. Set-up generates every input from ``--seed``; the
timed loop then cycles over that input pool for ``--seconds`` (always
finishing the first pass). ``--trace 0`` measures the end-to-end metrics
with no tracing; ``--trace 1`` runs a share of the pool once untraced and
once traced, and reports per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Everything else (all eight
end-to-end metrics with sample counts, machine facts, check results) goes
to the lines above it and to ``benchmarks/results/``. See
``benchmarks/README.md`` for the metric and workload definitions.
"""

import os
import time

_START = time.perf_counter()
# One client, no worker threads: keep numpy's BLAS single-threaded (it is
# only used by set-up) so it never competes with the timed loop for a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

# Set-up is repeated and its median reported, so one slow import or build
# does not decide setup_s.
SETUP_REPEATS = 5
# Share of the pool the traced run measures, once untraced and once traced,
# so that both passes together fit in about one run length.
TRACE_SHARE = 0.35
# A percentile is reported as valid only with this many samples beyond it.
TAIL_SAMPLES = 10
# Names and units of the end-to-end metrics, in report order. The last line
# of a --trace 0 run carries those in BENCHMARK.json; oracle_queries_per_op
# is printed above it (it is 0 on qubo_pipeline, so it has no relative
# bound) and appears per layer as oracles.query.calls.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p80": "s",
    "success_rate": "ratio",
    "oracle_queries_per_op": "count",
    "aqc_calls_per_op": "count",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the smoke tests")
    return parser.parse_args(argv)


def _machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None  # stays None outside a git checkout
    try:
        # The ceiling keeps git from searching above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    probe = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
             "t = time.perf_counter(); import hiddenstring; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-E", "-c", probe], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing hiddenstring failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def _percentile(values, q):
    """Inclusive-method percentile q (0..100) of the values."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def _summary(outcomes):
    failed = [o for o in outcomes if o.failures or o.wrong]
    wrong = [o for o in outcomes if o.wrong]
    notes = [p for o in failed[:5] for p in o.wrong + o.failures]
    return failed, wrong, notes


def _plain_run(workload, items, params, seconds, setup_s, spec):
    """Untraced closed loop: one whole pass over the pool, then cycle until
    ``seconds`` have passed. Count metrics and the success rate cover the
    first pass, so they repeat exactly for a seed; later passes must repeat
    it op for op."""
    records = []  # (pool index, seconds, Outcome)
    k = len(items)
    start = time.perf_counter()
    while len(records) < k or time.perf_counter() - start < seconds:
        idx = len(records) % k
        records.append((idx, *workload.execute(items[idx], params)))
    wall = time.perf_counter() - start

    times = [dt for _, dt, _ in records]
    first = [o for _, _, o in records[:k]]
    failed, wrong, notes = _summary([o for _, _, o in records])
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(records) / wall,
        "op_s.p50": _percentile(times, 50),
        "op_s.p80": _percentile(times, 80),
        "success_rate": 1 - len(_summary(first)[0]) / k,
        "oracle_queries_per_op": statistics.fmean(o.oracle_queries for o in first),
        "aqc_calls_per_op": statistics.fmean(o.aqc_calls for o in first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Ops run again in later passes must repeat their first run exactly.
    mismatches = sorted({idx for idx, _, o in records[k:] if o.fingerprint != first[idx].fingerprint})
    if mismatches:
        notes.append(f"ops {mismatches[:5]} differed when repeated")
    for q in (50, 80):
        if len(records) * (100 - q) / 100 < TAIL_SAMPLES:
            notes.append(f"op_s.p{q} has fewer than {TAIL_SAMPLES} samples beyond it")
    notes.append(f"{len(records)} ops in {wall:.3f} s over a pool of {k}")
    line = {
        "correct": not wrong and not mismatches,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": E2E_UNITS[m["name"]]}
                    for m in spec["end_to_end"]},
    }
    return {
        "samples": len(records), "loop_wall_s": wall,
        "ops": [[idx, dt, o.aqc_calls, o.oracle_queries] for idx, dt, o in records],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()},
        "notes": notes, "line": line,
    }


def _trace_run(Tracer, workload, items, params, spans_path, spec):
    """The first TRACE_SHARE of the pool, run once untraced and once traced."""
    subset = items[:max(1, math.ceil(len(items) * TRACE_SHARE))]
    untraced = [workload.execute(item, params) for item in subset]
    with Tracer() as tracer:
        traced = [workload.execute(item, params, tracer, op_id)
                  for op_id, item in enumerate(subset)]
    tracer.write_spans(spans_path)

    metrics = tracer.per_layer_metrics(untraced, traced)
    problems, sums = tracer.conservation(untraced, traced)
    failed, wrong, notes = _summary([o for _, o in traced])
    notes += [f"conservation: {p}" for p in problems]
    if tracer.missing:
        notes.append(f"boundaries not found, their metrics read 0: {tracer.missing}")
    notes.append(f"traced {len(traced)} ops: untraced {sums['untraced_s']:.4f} s, traced "
                 f"{sums['traced_s']:.4f} s, layer self times sum to {sums['self_sum_s']:.4f} s")
    line = {
        "correct": not wrong and not problems,
        "attempted": len(traced),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in spec["per_layer"]},
    }
    return {
        "samples": len(traced), "conservation": sums,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "notes": notes, "line": line,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hiddenstring" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC / 'hiddenstring'}; run from a checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import hiddenstring

    import_s = time.perf_counter() - _START
    if Path(hiddenstring.__file__).resolve().parent != SRC / "hiddenstring":
        return _fail(f"imported hiddenstring from {hiddenstring.__file__}, not from {SRC}")
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    params = workload.tiny_params if args.tiny else workload.params
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    facts = _machine_facts()
    facts["loadavg_start"] = _loadavg()

    k = workload.pool_size(args.seconds, args.tiny)
    stem = f"{workload.name}-seed{args.seed}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            items = workload.make(args.seed, k, params, workdir)
            builds.append(time.perf_counter() - t)
        fresh_import_s = _import_seconds()
        setup_s = fresh_import_s + statistics.median(builds)
        if args.trace:
            result = _trace_run(Tracer, workload, items, params,
                                RESULTS / f"{stem}-spans.jsonl", spec)
        else:
            result = _plain_run(workload, items, params, args.seconds, setup_s, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts["loadavg_end"] = _loadavg()
    result.update({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": facts,
        "setup": {"import_s": import_s, "fresh_import_s": fresh_import_s,
                  "build_s": builds, "pool_size": k},
    })
    out = RESULTS / f"{stem}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    for note in result["notes"]:
        print(f"note: {note}")
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result["line"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
