"""Command-line front end: build, solve, bench, spectrum, export, import.

All data goes to stdout (or ``--out``); diagnostics go to stderr. Exit
status is 0 on success, 1 when a solve finishes but fails (report says
``success: false``), and 2 on usage or validation errors.

A flag's value is checked by the code that reads it: the parser checks
each flag's literal form, the CLI checks only which flags a command needs
and the pairs of flags that must agree, and the library checks every
range (n, ``--a``, ``--j``, ``--budget``, the schedule, ``--trials``)
before its first oracle query; its ``ValueError`` exits 2. A command
ignores the flags it does not read, whatever their value.

Flags can come from a JSON object in a ``--config`` file. Each key is read
exactly as the flag it names, with the same forms and checks: a list is a
comma list, ``true``/``false`` set or clear ``--blind``, ``null`` leaves
the flag unset, and ``trials`` applies only to ``bench``. An error the
file causes adds the line ``error: in --config <path>`` to stderr.
Explicit flags override file values. Reports are JSON with sorted keys, so
a fixed config and seed produce byte-identical output except for the
``wall_time_s`` field.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .annealer import AnnealSchedule, _seeded_rng, _spawn_seed
from .builders import build_bv_qubo_from_bits, build_simon_literal_qubo
from .model import BitVector, QuboModel, exhaustive_solve
from .oracles import BvOracle, SimonOracle, random_hidden_string
from .protocol import (
    _J_POLICIES, _MODES, _PROBLEMS, _SCHEMA_VERSION, _SOLVERS, _check_sizes, bench_calls,
    solve_bv, solve_simon,
)
from .qubofile import export_qubo, import_qubo, model_from_dict, model_to_dict

__all__ = ["main", "entry_point"]

_FORMATS = ("json", "qubo")


def _parse_a(text: str) -> int | str:
    if text == "random":
        return text
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--a expects an integer or 'random', got {text!r}"
        )


def _parse_n(text: str) -> int | list[int]:
    try:
        if "," not in text:
            return int(text)
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--n expects an integer or comma-separated integers, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError("--n needs at least one value")
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args returns a fresh namespace on every
    # call, so nothing carries over from one main() call to the next.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, help="JSON file of defaults for any flag")
    common.add_argument("--problem", choices=_PROBLEMS)
    common.add_argument("--n", type=_parse_n, help="problem size (bench: comma list)")
    common.add_argument("--a", type=_parse_a, help="hidden string as integer, or 'random'")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--solver", choices=_SOLVERS, default="anneal")
    common.add_argument("--mode", choices=_MODES, default="coupled")
    common.add_argument("--j", type=int, help="constrained coordinate (1-based)")
    common.add_argument("--j-policy", dest="j_policy", choices=_J_POLICIES, default="cycle")
    common.add_argument("--budget", type=int, help="max solver calls per run")
    common.add_argument("--sweeps", type=int)
    common.add_argument("--restarts", type=int)
    common.add_argument("--t0", type=float, help="initial temperature")
    common.add_argument("--t1", type=float, help="final temperature")
    common.add_argument("--format", choices=_FORMATS, default="json")
    common.add_argument("--out", type=str, help="write output here instead of stdout")
    common.add_argument("--blind", action=argparse.BooleanOptionalAction, default=False,
                        help="omit the hidden string from reports")

    parser = argparse.ArgumentParser(
        prog="hiddenstring",
        description="Build, solve and measure hidden-string annealing models.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("build", parents=[common], help="emit a model document")
    sub.add_parser("solve", parents=[common], help="run a solve, emit a JSON report")
    bench = sub.add_parser("bench", parents=[common], help="emit call statistics")
    bench.add_argument("--trials", type=int, default=50)
    spectrum = sub.add_parser("spectrum", parents=[common], help="emit the sorted spectrum")
    spectrum.add_argument("--in", dest="infile", type=str, help="read model from file")
    spectrum.add_argument("--top", type=int, help="emit only the lowest entries")
    exp = sub.add_parser("export", parents=[common], help="convert a JSON model to .qubo")
    exp.add_argument("--in", dest="infile", type=str, required=True)
    imp = sub.add_parser("import", parents=[common], help="convert a .qubo file to JSON")
    imp.add_argument("--in", dest="infile", type=str, required=True)
    return parser


@functools.cache
def _config_flags() -> dict[str, argparse.Action]:
    """Config key -> the flag it names: every flag of bench but --config."""
    subparsers = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        action.dest: action for action in subparsers.choices["bench"]._actions
        if action.option_strings and action.dest not in ("help", "config")
    }


def _flag_text(value: Any) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _config_tokens(path: str, command: str) -> list[str]:
    """The config file's object as the flag tokens it stands for."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("--config file must hold a JSON object")
    flags = _config_flags()
    unknown = set(data) - set(flags)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    tokens = []
    for key, value in data.items():
        if value is None or (key == "trials" and command != "bench"):
            continue
        option, *negation = flags[key].option_strings
        if negation and isinstance(value, bool):
            tokens.append(option if value else negation[0])
        elif isinstance(value, list):
            tokens.append(f"{option}={','.join(map(_flag_text, value))},")
        else:
            tokens.append(f"{option}={_flag_text(value)}")
    return tokens


def _validate(args: argparse.Namespace) -> None:
    """Check what no single flag's parser can: which flags a command needs, and pairs."""
    needs_problem = args.command in ("build", "solve", "bench") or (
        args.command == "spectrum" and not args.infile
    )
    if needs_problem:
        if args.problem is None:
            raise ValueError("--problem is required")
        if args.n is None:
            raise ValueError("--n is required")
    if isinstance(args.n, list) and args.command != "bench":
        raise ValueError("only bench accepts a list of n values")
    if args.command in ("solve", "bench") and args.problem == "simon" and args.solver != "anneal":
        raise ValueError(f"--solver {args.solver} applies only to --problem bv")
    if (args.t0 is None) != (args.t1 is None):
        raise ValueError("--t0 and --t1 must be given together")


def _n_list(args: argparse.Namespace) -> list[int]:
    return args.n if isinstance(args.n, list) else [args.n]


def _schedule(args: argparse.Namespace, n_vars: int) -> AnnealSchedule | None:
    """Schedule from the override flags, or None to use solver defaults."""
    if args.sweeps is None and args.restarts is None and args.t0 is None:
        return None
    return AnnealSchedule(
        sweeps=args.sweeps if args.sweeps is not None else 100 * n_vars,
        t_initial=args.t0 if args.t0 is not None else 6.0,
        t_final=args.t1 if args.t1 is not None else 0.01,
        restarts=args.restarts if args.restarts is not None else 1,
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _hidden_bits(args: argparse.Namespace, n: int) -> BitVector:
    nonzero = args.problem == "simon"
    if isinstance(args.a, int):
        return BitVector.from_integer(args.a, n)
    return random_hidden_string(n, _seeded_rng(args.seed, 0xA0), nonzero=nonzero)


def _build_model(args: argparse.Namespace) -> QuboModel:
    n = _n_list(args)[0]
    if args.problem == "bv":
        return build_bv_qubo_from_bits(_hidden_bits(args, n))
    return build_simon_literal_qubo(n, args.j if args.j is not None else 1)


def _render_model(model: QuboModel, fmt: str) -> str:
    if fmt == "qubo":
        return export_qubo(model)
    return _dump_json(model_to_dict(model))


def _cmd_build(args: argparse.Namespace) -> int:
    _emit(_render_model(_build_model(args), args.format), args.out)
    return 0


def _n_vars(args: argparse.Namespace, n: int) -> int:
    """Variables the solver anneals at size n; schedule overrides are sized to it."""
    if args.problem == "bv":
        return n
    return 2 * n + 2 if args.mode == "literal" else 2 * n


def _cmd_solve(args: argparse.Namespace) -> int:
    n = _n_list(args)[0]
    a = _hidden_bits(args, n)
    if args.problem == "bv":
        report = solve_bv(
            BvOracle(a),
            solver=args.solver,
            schedule=_schedule(args, _n_vars(args, n)),
            seed=args.seed,
            blind=args.blind,
        )
    else:
        oracle = SimonOracle(a, seed=_spawn_seed((args.seed, 0x51)))
        report = solve_simon(
            oracle,
            mode=args.mode,
            j_policy=args.j_policy,
            j=args.j,
            budget=args.budget,
            schedule=_schedule(args, _n_vars(args, n)),
            seed=args.seed,
            blind=args.blind,
        )
    _emit(_dump_json(report.to_dict()), args.out)
    if not report.success:
        print("solve failed: see report diagnostics", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # One table per n, so a schedule override is sized to that n; rows are
    # seeded per (seed, n, trial) and do not depend on the other sizes. Every
    # size is checked first: before an override is sized to it, and before
    # the trials of the sizes ahead of it run.
    _check_sizes(args.problem, _n_list(args), args.j_policy, args.j)
    rows = [
        row
        for n in _n_list(args)
        for row in bench_calls(
            args.problem,
            [n],
            args.trials,
            seed=args.seed,
            solver=args.solver,
            mode=args.mode,
            j_policy=args.j_policy,
            j=args.j,
            budget=args.budget,
            schedule=_schedule(args, _n_vars(args, n)),
        )
    ]
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "kind": "bench",
        "problem": args.problem,
        "seed": args.seed,
        "trials": args.trials,
        "rows": rows,
    }
    _emit(_dump_json(payload), args.out)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.infile:
        model = import_qubo(Path(args.infile))
    else:
        model = _build_model(args)
    if args.top is not None and args.top < 1:
        raise ValueError(f"--top must be positive, got {args.top}")
    spectrum = exhaustive_solve(model)
    entries = list(itertools.islice(spectrum.iter_entries(), args.top))
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "kind": "spectrum",
        "labels": [str(lab) for lab in spectrum.labels],
        "ground_energy": str(spectrum.ground_energy),
        "ground_count": spectrum.ground_count,
        "entries": [
            [state.to_integer(), str(energy)] for state, energy in entries
        ],
    }
    _emit(_dump_json(payload), args.out)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    data = json.loads(Path(args.infile).read_text(encoding="utf-8"))
    model = model_from_dict(data)
    _emit(export_qubo(model), args.out)
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    model = import_qubo(Path(args.infile))
    _emit(_dump_json(model_to_dict(model)), args.out)
    return 0


_DISPATCH = {
    "build": _cmd_build,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "spectrum": _cmd_spectrum,
    "export": _cmd_export,
    "import": _cmd_import,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        if args.config:
            # The file's flags go first, so the explicit ones override them.
            # argv alone parsed, so a failure here is the file's: name it.
            try:
                config = _config_tokens(args.config, args.command)
                args = parser.parse_args([argv[0], *config, *argv[1:]])
            except (SystemExit, ValueError):
                print(f"error: in --config {args.config}", file=sys.stderr)
                raise
        _validate(args)
        return _DISPATCH[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
