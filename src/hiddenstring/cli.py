"""Command-line front end: build, solve, bench, spectrum, export, import.

All data goes to stdout (or ``--out``); diagnostics go to stderr. Exit
status is 0 on success, 1 when a solve finishes but fails (report says
``success: false``), and 2 on usage or validation errors.

Flags can come from a JSON file via ``--config``; explicit flags override
file values. Reports are JSON with sorted keys, so a fixed config and seed
produce byte-identical output except for the ``wall_time_s`` field.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .annealer import AnnealSchedule, _seeded_rng
from .builders import build_bv_qubo_from_bits, build_simon_literal_qubo
from .model import BitVector, QuboModel, exhaustive_solve
from .oracles import BvOracle, SimonOracle, random_hidden_string
from .protocol import (
    _J_POLICIES, _MODES, _PROBLEMS, _SOLVERS, bench_calls, solve_bv, solve_simon, _spawn_seed,
)
from .qubofile import QuboFormatError, export_qubo, import_qubo, model_from_dict, model_to_dict

__all__ = ["RunConfig", "main", "entry_point"]

_FORMATS = ("json", "qubo")


@dataclass
class RunConfig:
    """Validated run parameters, mergeable from defaults, file and flags.

    ``n`` is an int (or a list of ints for bench); ``a`` is an int, the
    string "random", or None (also random). A config survives a round trip
    through its JSON file form unchanged.
    """

    problem: str | None = None
    n: int | list[int] | None = None
    a: int | str | None = None
    seed: int = 0
    solver: str = "anneal"
    mode: str = "coupled"
    j: int | None = None
    j_policy: str = "cycle"
    budget: int | None = None
    sweeps: int | None = None
    restarts: int | None = None
    t0: float | None = None
    t1: float | None = None
    format: str = "json"
    out: str | None = None
    blind: bool = False
    trials: int = 50

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def merged_with(self, overrides: dict[str, Any]) -> "RunConfig":
        """New config with every non-None override applied."""
        merged = dataclasses.replace(self)
        for key, value in overrides.items():
            if value is not None:
                setattr(merged, key, value)
        return merged

    def validate(self, command: str, *, has_infile: bool = False) -> None:
        if command == "spectrum" and has_infile:
            command = "import"  # model comes from the file, not from problem flags
        if command in ("build", "solve", "bench", "spectrum"):
            if self.problem not in _PROBLEMS:
                raise ValueError(
                    f"--problem must be one of {_PROBLEMS}, got {self.problem!r}"
                )
            if self.n is None:
                raise ValueError("--n is required")
        ns = self.n_list() if self.n is not None else []
        if self.n is not None and not ns:
            raise ValueError("--n needs at least one value")
        for n in ns:
            if n < 1:
                raise ValueError(f"n must be positive, got {n}")
            if self.problem == "simon" and n < 2:
                raise ValueError("simon needs n >= 2")
        if command != "bench" and isinstance(self.n, list):
            raise ValueError("only bench accepts a list of n values")
        if isinstance(self.a, int):
            for n in ns:
                if self.a < 0 or self.a >> n:
                    raise ValueError(f"--a {self.a} does not fit in {n} bits")
                if self.problem == "simon" and self.a == 0:
                    raise ValueError("simon needs a nonzero hidden string")
        elif self.a is not None and self.a != "random":
            raise ValueError(f"--a must be an integer or 'random', got {self.a!r}")
        for flag, value, choices in (
            ("--solver", self.solver, _SOLVERS),
            ("--mode", self.mode, _MODES),
            ("--j-policy", self.j_policy, _J_POLICIES),
            ("--format", self.format, _FORMATS),
        ):
            if value not in choices:
                raise ValueError(f"{flag} must be one of {choices}")
        if command in ("solve", "bench") and self.problem == "simon" and self.solver != "anneal":
            raise ValueError(f"--solver {self.solver} applies only to --problem bv")
        if self.j is not None:
            for n in ns:
                if not 1 <= self.j <= n:
                    raise ValueError(f"--j must be in 1..{n}, got {self.j}")
        for name in ("budget", "sweeps", "restarts", "trials"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"--{name} must be positive, got {value}")
        if (self.t0 is None) != (self.t1 is None):
            raise ValueError("--t0 and --t1 must be given together")
        if self.t0 is not None and not (self.t0 >= self.t1 > 0):
            raise ValueError("need --t0 >= --t1 > 0")

    def n_list(self) -> list[int]:
        if isinstance(self.n, list):
            return [int(v) for v in self.n]
        return [int(self.n)]

    def schedule(self, n_vars: int) -> AnnealSchedule | None:
        """Schedule from the override flags, or None to use solver defaults."""
        if self.sweeps is None and self.restarts is None and self.t0 is None:
            return None
        return AnnealSchedule(
            sweeps=self.sweeps if self.sweeps is not None else 100 * n_vars,
            t_initial=self.t0 if self.t0 is not None else 6.0,
            t_final=self.t1 if self.t1 is not None else 0.01,
            restarts=self.restarts if self.restarts is not None else 1,
        )


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
        if "," in text:
            return [int(part) for part in text.split(",") if part]
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--n expects an integer or comma-separated integers, got {text!r}"
        )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args returns a fresh namespace on every
    # call, so nothing carries over from one main() call to the next.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, help="JSON file of defaults for any flag")
    common.add_argument("--problem", choices=_PROBLEMS)
    common.add_argument("--n", type=_parse_n, help="problem size (bench: comma list)")
    common.add_argument("--a", type=_parse_a, help="hidden string as integer, or 'random'")
    common.add_argument("--seed", type=int)
    common.add_argument("--solver", choices=_SOLVERS)
    common.add_argument("--mode", choices=_MODES)
    common.add_argument("--j", type=int, help="constrained coordinate (1-based)")
    common.add_argument("--j-policy", dest="j_policy", choices=_J_POLICIES)
    common.add_argument("--budget", type=int, help="max solver calls per run")
    common.add_argument("--sweeps", type=int)
    common.add_argument("--restarts", type=int)
    common.add_argument("--t0", type=float, help="initial temperature")
    common.add_argument("--t1", type=float, help="final temperature")
    common.add_argument("--format", choices=_FORMATS)
    common.add_argument("--out", type=str, help="write output here instead of stdout")
    common.add_argument("--blind", action=argparse.BooleanOptionalAction,
                        help="omit the hidden string from reports")

    parser = argparse.ArgumentParser(
        prog="hiddenstring",
        description="Build, solve and measure hidden-string annealing models.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("build", parents=[common], help="emit a model document")
    sub.add_parser("solve", parents=[common], help="run a solve, emit a JSON report")
    bench = sub.add_parser("bench", parents=[common], help="emit call statistics")
    bench.add_argument("--trials", type=int)
    spectrum = sub.add_parser("spectrum", parents=[common], help="emit the sorted spectrum")
    spectrum.add_argument("--in", dest="infile", type=str, help="read model from file")
    spectrum.add_argument("--top", type=int, help="emit only the lowest entries")
    exp = sub.add_parser("export", parents=[common], help="convert a JSON model to .qubo")
    exp.add_argument("--in", dest="infile", type=str, required=True)
    imp = sub.add_parser("import", parents=[common], help="convert a .qubo file to JSON")
    imp.add_argument("--in", dest="infile", type=str, required=True)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    base = RunConfig()
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("--config file must hold a JSON object")
        base = RunConfig.from_dict(data)
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if hasattr(args, f.name)
    }
    return base.merged_with(overrides)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _hidden_bits(cfg: RunConfig, n: int) -> BitVector:
    nonzero = cfg.problem == "simon"
    if isinstance(cfg.a, int):
        return BitVector.from_integer(cfg.a, n)
    return random_hidden_string(n, _seeded_rng(cfg.seed, 0xA0), nonzero=nonzero)


def _build_model(cfg: RunConfig) -> QuboModel:
    n = cfg.n_list()[0]
    if cfg.problem == "bv":
        return build_bv_qubo_from_bits(_hidden_bits(cfg, n))
    return build_simon_literal_qubo(n, cfg.j if cfg.j is not None else 1)


def _render_model(model: QuboModel, fmt: str) -> str:
    if fmt == "qubo":
        return export_qubo(model)
    return _dump_json(model_to_dict(model))


def _cmd_build(cfg: RunConfig, args: argparse.Namespace) -> int:
    _emit(_render_model(_build_model(cfg), cfg.format), cfg.out)
    return 0


def _n_vars(cfg: RunConfig, n: int) -> int:
    """Variables the solver anneals at size n; schedule overrides are sized to it."""
    if cfg.problem == "bv":
        return n
    return 2 * n + 2 if cfg.mode == "literal" else 2 * n


def _cmd_solve(cfg: RunConfig, args: argparse.Namespace) -> int:
    n = cfg.n_list()[0]
    a = _hidden_bits(cfg, n)
    if cfg.problem == "bv":
        report = solve_bv(
            BvOracle(a),
            solver=cfg.solver,
            schedule=cfg.schedule(_n_vars(cfg, n)),
            seed=cfg.seed,
            blind=cfg.blind,
        )
    else:
        oracle = SimonOracle(a, seed=_spawn_seed((cfg.seed, 0x51)))
        report = solve_simon(
            oracle,
            mode=cfg.mode,
            j_policy=cfg.j_policy,
            j=cfg.j,
            budget=cfg.budget,
            schedule=cfg.schedule(_n_vars(cfg, n)),
            seed=cfg.seed,
            blind=cfg.blind,
        )
    _emit(_dump_json(report.to_dict()), cfg.out)
    if not report.success:
        print("solve failed: see report diagnostics", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(cfg: RunConfig, args: argparse.Namespace) -> int:
    # One table per n, so a schedule override is sized to that n; rows are
    # seeded per (seed, n, trial) and do not depend on the other sizes.
    rows = [
        row
        for n in cfg.n_list()
        for row in bench_calls(
            cfg.problem,
            [n],
            cfg.trials,
            seed=cfg.seed,
            solver=cfg.solver,
            mode=cfg.mode,
            j_policy=cfg.j_policy,
            j=cfg.j,
            budget=cfg.budget,
            schedule=cfg.schedule(_n_vars(cfg, n)),
        )
    ]
    payload = {
        "schema_version": 1,
        "kind": "bench",
        "problem": cfg.problem,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "rows": rows,
    }
    _emit(_dump_json(payload), cfg.out)
    return 0


def _cmd_spectrum(cfg: RunConfig, args: argparse.Namespace) -> int:
    if getattr(args, "infile", None):
        model = import_qubo(Path(args.infile))
    else:
        model = _build_model(cfg)
    top = getattr(args, "top", None)
    if top is not None and top < 1:
        raise ValueError(f"--top must be positive, got {top}")
    spectrum = exhaustive_solve(model)
    entries = list(itertools.islice(spectrum.iter_entries(), top))
    payload = {
        "schema_version": 1,
        "kind": "spectrum",
        "labels": [str(lab) for lab in spectrum.labels],
        "ground_energy": str(spectrum.ground_energy),
        "ground_count": spectrum.ground_count,
        "entries": [
            [state.to_integer(), str(energy)] for state, energy in entries
        ],
    }
    _emit(_dump_json(payload), cfg.out)
    return 0


def _cmd_export(cfg: RunConfig, args: argparse.Namespace) -> int:
    data = json.loads(Path(args.infile).read_text(encoding="utf-8"))
    model = model_from_dict(data)
    _emit(export_qubo(model), cfg.out)
    return 0


def _cmd_import(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = import_qubo(Path(args.infile))
    _emit(_dump_json(model_to_dict(model)), cfg.out)
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _load_config(args)
        cfg.validate(args.command, has_infile=bool(getattr(args, "infile", None)))
        return _DISPATCH[args.command](cfg, args)
    except QuboFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
