"""Determinism self-check for one workload, with a second seed beside it.

Usage, from the root of a checkout::

    python3 benchmarks/selfcheck.py --workload NAME --seed N --seconds S [--tiny]

Runs ``run.py`` untraced and traced twice on ``--seed`` and once each on
``--seed + 1``, every run in a fresh process. The count metrics (queries,
calls, success rate and every per-layer count or count ratio) of the two
runs on one seed must be identical; the exit status is 1 if any differs.
The second seed's figures are printed beside them, so that a claim can be
checked on a seed its author did not tune on. The table is also written to
``benchmarks/results/selfcheck-NAME-seedN.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
# Units of metrics that must repeat exactly for a fixed seed: counts and
# ratios of counts. Times, rates, memory and the overhead (%) may vary.
DETERMINISTIC_UNITS = ("count", "bytes", "ratio")
TIMEOUT_S = 600


def _run(args, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    path = RESULTS / f"{args.workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    rows = {}
    mismatches = []
    for trace in (0, 1):
        first = _run(args, args.seed, trace)
        again = _run(args, args.seed, trace)
        other = _run(args, args.seed + 1, trace)
        for name, m in first.items():
            exact = m["unit"] in DETERMINISTIC_UNITS
            same = first[name]["value"] == again[name]["value"]
            if exact and not same:
                mismatches.append(name)
            rows[name] = {
                "unit": m["unit"],
                "seed": first[name]["value"],
                "seed_again": again[name]["value"],
                "second_seed": other[name]["value"],
                "must_repeat": exact,
            }

    print(f"{'metric':45s} {'seed ' + str(args.seed):>14s} {'again':>14s} "
          f"{'seed ' + str(args.seed + 1):>14s}  unit")
    for name, r in rows.items():
        flag = " MISMATCH" if name in mismatches else ""
        print(f"{name:45s} {r['seed']:14.6g} {r['seed_again']:14.6g} "
              f"{r['second_seed']:14.6g}  {r['unit']}{flag}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"selfcheck-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "mismatches": mismatches,
                               "metrics": rows}, indent=2) + "\n", encoding="utf-8")
    if mismatches:
        print(f"count metrics differ between two runs on seed {args.seed}: {mismatches}")
        return 1
    print(f"count metrics repeat exactly on seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
