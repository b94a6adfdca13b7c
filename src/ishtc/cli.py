"""Command-line interface: problem generation, solving, model selection,
and the experiment drivers, with JSON config files and run manifests.

Each subcommand's flags and config-file keys come from one parameter table
in :data:`COMMANDS`. Config resolution is flags > config file > defaults,
and every resolved value is echoed into the run manifest so the manifest
alone reproduces the run. Exit codes: 0 success, 2 invalid config/schema
or a size too large to allocate, 3 missing input files, 4 solver
divergence. Errors print one JSON record to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, NoReturn, Optional, Sequence, Union

import numpy as np

from . import __version__
from .experiments import (
    SweepSpec, bench_to_csv, benchmark_table, curve90_to_csv, phase_to_csv, phase_transition_grid,
    support_probability_sweep, sweep_to_csv,
)
from .linop import mutual_coherence
from .modelselect import run_full_path, scores_to_csv, select_bic
from .probgen import MATRIX_KINDS, gen_problem, load_problem, save_problem
from .solver import (
    DEFAULT_GAMMA, DEFAULT_KMAX, DEFAULT_PATH_LEN, DivergenceError, SolverConfig, TheoryParams,
    continuation_solve, lambda_star,
)
from .storage import write_array, write_manifest
from .thresholding import Penalty

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_MISSING = 3
EXIT_DIVERGED = 4

#: Environment variable naming the default output directory.
ENV_OUTDIR = "ISHTC_OUTDIR"

#: Default of a parameter that must come from a flag or the config file.
REQUIRED = object()

#: BLAS thread variables that a manifest records as found.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Opt(NamedTuple):
    """One parameter: config key and argparse dest, flag, argparse type
    (``bool`` for a bare switch), default, help text, choices."""

    key: str
    flag: str
    type: Optional[Callable] = None
    default: Any = None
    help: Optional[str] = None
    choices: Optional[Sequence[str]] = None


def _parse_level(text: str) -> Union[str, float]:
    try:
        return text if text in ("auto", "path") else float(text)
    except ValueError:
        raise ValueError(f"expected a number, 'auto', or 'path', got {text!r}") from None


def _convert(key: str, value: Any, conv: Callable) -> Any:
    """Convert a config-file value or list item by ``conv``, refusing a bool
    and, for ``int``, a non-integral number that ``int`` would truncate."""
    integral = not isinstance(value, float) or value.is_integer()
    if isinstance(value, bool) or conv is int and not integral:
        raise ValueError(f"{key} must be {'an integer' if conv is int else 'a number'}, "
                         f"got {value!r}")
    return conv(value)


def _csv(params: dict, key: str, conv: Callable) -> list:
    """Items of a comma-separated flag value, or of a config-file list."""
    value = params[key]
    if isinstance(value, str):
        return [conv(tok) for tok in value.split(",") if tok.strip()]
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list or a comma-separated string, got {value!r}")
    return [_convert(key, v, conv) for v in value]


def _pick(params: dict, *keys: str) -> dict:
    return {k: params[k] for k in keys}


def _outdir(args: argparse.Namespace) -> Path:
    path = Path(args.out or os.environ.get(ENV_OUTDIR) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve(args: argparse.Namespace, opts: Sequence[Opt]) -> dict:
    """Merge flag values over config-file values over row defaults.

    Flags left at None fall through. A config-file value is checked against
    the row's choices and converted by its type through :func:`_convert`.
    """
    file_cfg = {}
    if args.config:
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise FileNotFoundError(f"config file {cfg_path} does not exist")
        file_cfg = json.loads(cfg_path.read_text())
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
    unknown = set(file_cfg) - {o.key for o in opts}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for o in opts:
        value = getattr(args, o.key)
        if value is None and o.key in file_cfg:
            value = file_cfg[o.key]
            if o.choices and value not in o.choices:
                raise ValueError(f"{o.key} must be one of {o.choices}, got {value!r}")
            if value is not None and o.type not in (None, bool):
                value = _convert(o.key, value, o.type)
        elif value is None:
            value = o.default
        if value is REQUIRED:
            raise ValueError(f"missing required parameter: {o.key}")
        resolved[o.key] = value
    return resolved


def _host() -> dict:
    """What produced a run's numbers: the CPU count, the numpy version, its
    BLAS build (empty on a numpy without ``show_config(mode="dicts")``) and
    the BLAS thread variables, None where unset. The last bits of a dense
    product can depend on all of these."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    build = {k: v for k, v in blas.items() if k in ("name", "version", "openblas configuration")}
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "blas": build,
            "threads_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def _finish(args: argparse.Namespace, t0: float, command: str, params: dict, outputs: dict,
            record: dict, summary: dict) -> int:
    """Write the outputs, then ``manifest.json``, then the stdout summary.

    ``outputs`` maps a file name to a function that writes that path. The
    manifest's wall time covers the work since ``t0``, not the writes.
    """
    elapsed = time.perf_counter() - t0
    out = _outdir(args)
    for name, write in outputs.items():
        write(out / name)
    write_manifest(out / "manifest.json", {
        "command": command, "params": params, "outputs": list(outputs),
        "wall_time_s": elapsed, "version": __version__, "host": _host(), **record,
    })
    print(json.dumps({"command": command, "out": str(out), **summary}, sort_keys=True))
    return EXIT_OK


def _experiment_kwargs(params: dict) -> dict:
    """Penalty, worker count and path knobs, as the experiment functions name them."""
    return dict(penalty=Penalty(params["penalty"]), workers=params["workers"],
                gamma=params["gamma"], kmax=params["kmax"], path_len=params["path_len_N"])


def cmd_gen(params: dict, args: argparse.Namespace) -> int:
    keys = ("n", "p", "s", "dr", "sigma", "nu", "seed", "levels")
    problem = gen_problem(params["kind"], **_pick(params, *keys))
    if params["coherence"]:
        problem.meta["mu"] = mutual_coherence(problem.op)
    manifest_path = save_problem(problem, _outdir(args))
    summary = {"manifest": str(manifest_path), "epsilon": problem.epsilon, "s": problem.s}
    print(json.dumps({"command": "gen", **summary}, sort_keys=True))
    return EXIT_OK


def cmd_solve(params: dict, args: argparse.Namespace) -> int:
    problem = load_problem(params["problem"])
    keys = ("penalty", "lambda0", "gamma", "kmax", "path_len_N")
    level = params["lambda_star"]
    if level == "auto":
        if params["mu_s"] is None or params["c"] is None:
            raise ValueError("--lambda-star auto needs --mu-s and --c")
        theory = TheoryParams(mu_s=params["mu_s"], c=params["c"], epsilon=problem.epsilon)
        level = lambda_star(theory, Penalty(params["penalty"]))
        if not level > 0:
            raise ValueError(
                "derived stopping level is not positive; with zero noise run "
                "the full path and select a level afterwards"
            )
    config = SolverConfig(**_pick(params, *keys), lambda_star=level)
    t0 = time.perf_counter()
    x_star, path = continuation_solve(problem.op, problem.y, config)
    outputs = {"x_star.bin": partial(write_array, arr=x_star), "path.csv": path.to_csv}
    record = {"solver_config": dataclasses.asdict(config), "n_matvec": path.n_matvec,
              "path_levels": len(path), "stop_reason": path.stop_reason}
    summary = {"n_matvec": path.n_matvec, "support_size": int(np.count_nonzero(x_star))}
    return _finish(args, t0, "solve", params, outputs, record, summary)


def cmd_path(params: dict, args: argparse.Namespace) -> int:
    problem = load_problem(params["problem"])
    t0 = time.perf_counter()
    path = run_full_path(problem.op, problem.y, Penalty(params["penalty"]), gamma=params["gamma"],
                         kmax=params["kmax"], N=params["path_len_N"])
    lam_best, x_best, scores = select_bic(path, problem.y)
    outputs = {"x_best.bin": partial(write_array, arr=x_best), "path.csv": path.to_csv,
               "scores.csv": partial(scores_to_csv, scores)}
    picked = {"lambda_best": lam_best, "support_size": int(np.count_nonzero(x_best))}
    record = {**picked, "n_matvec": path.n_matvec, "stop_reason": path.stop_reason}
    return _finish(args, t0, "path", params, outputs, record, picked)


def cmd_sweep(params: dict, args: argparse.Namespace) -> int:
    # Only parses: SweepSpec and gen_problem own every rule about what a sweep may run.
    fixed = dict(filter(lambda kv: kv[0] != params["varied"] and kv[1] is not None,
                        _pick(params, "matrix_kind", "n", "p", "s", "dr", "sigma", "nu").items()))
    spec = SweepSpec(varied=params["varied"], values=tuple(_csv(params, "values", float)),
                     fixed=fixed, replications=params["replications"], base_seed=params["seed"])
    t0 = time.perf_counter()
    rows = support_probability_sweep(spec, **_experiment_kwargs(params))
    return _finish(args, t0, "sweep", {**params, "values": list(spec.values)},
                   {"sweep.csv": partial(sweep_to_csv, rows)}, {"fixed": fixed},
                   {"points": len(rows)})


def cmd_phase(params: dict, args: argparse.Namespace) -> int:
    given = [params[k] is not None for k in ("grid", "delta_grid", "rho_grid")]
    if given == [False, True, True]:
        deltas, rhos = _csv(params, "delta_grid", float), _csv(params, "rho_grid", float)
    elif given == [True, False, False]:
        deltas = rhos = np.linspace(0.1, 1.0, params["grid"]).tolist()
    else:
        raise ValueError("phase needs either --grid K or both --delta-grid and --rho-grid")
    t0 = time.perf_counter()
    grid = phase_transition_grid(
        deltas, rhos, success_threshold=params["threshold"], base_seed=params["seed"],
        **_pick(params, "p", "trials", "sigma"), **_experiment_kwargs(params))
    outputs = {"phase.csv": partial(phase_to_csv, grid),
               "curve90.csv": partial(curve90_to_csv, grid)}
    return _finish(args, t0, "phase", {**params, "delta_grid": deltas, "rho_grid": rhos}, outputs,
                   {}, {"cells": int(grid.successes.size)})


def cmd_bench(params: dict, args: argparse.Namespace) -> int:
    sizes = _csv(params, "sizes", int)
    t0 = time.perf_counter()
    rows = benchmark_table(sizes, base_seed=params["seed"], **_experiment_kwargs(params),
                           **_pick(params, "matrix_kind", "replications", "dr", "sigma"))
    return _finish(args, t0, "bench", {**params, "sizes": sizes},
                   {"bench.csv": partial(bench_to_csv, rows)}, {}, {"rows": len(rows)})


# Rows shared by several tables. The path knobs default to the solver's own.
GAMMA = Opt("gamma", "--gamma", float, DEFAULT_GAMMA)
KMAX = Opt("kmax", "--kmax", int, DEFAULT_KMAX)
PATH_LEN = Opt("path_len_N", "--path-len", int, DEFAULT_PATH_LEN)
PATH_KNOBS = (GAMMA, KMAX, PATH_LEN)
PENALTY = Opt("penalty", "--penalty", choices=["l1", "l0"])
SEED = Opt("seed", "--seed", int, 0)
DR = Opt("dr", "--dr", float, 100.0)
#: The closing rows of every experiment subcommand (sweep, phase, bench).
EXPERIMENT = (SEED, Opt("workers", "--workers", int, 1), *PATH_KNOBS)


def _problem_rows(n: Any, p: Any, s: Any, sigma: float) -> tuple:
    """Problem-size and noise rows of ``gen`` and ``sweep``, which differ in defaults."""
    return (Opt("n", "--n", int, n), Opt("p", "--p", int, p), Opt("s", "--s", int, s), DR,
            Opt("sigma", "--sigma", float, sigma), Opt("nu", "--nu", float))


#: Subcommand -> (handler, help, parameter table).
COMMANDS = {
    "gen": (cmd_gen, "generate a problem directory", (
        Opt("kind", "--kind", default=REQUIRED, choices=MATRIX_KINDS),
        *_problem_rows(REQUIRED, REQUIRED, REQUIRED, 0.0),
        Opt("levels", "--levels", int, 2),
        SEED,
        Opt("coherence", "--coherence", bool, False, "also compute and record mutual coherence"),
    )),
    "solve": (cmd_solve, "run the continuation solver on a problem directory", (
        Opt("problem", "--problem", default=REQUIRED, help="problem directory from `gen`"),
        PENALTY._replace(default=REQUIRED),
        Opt("lambda0", "--lambda0", _parse_level, "auto"),
        GAMMA,
        KMAX,
        Opt("lambda_star", "--lambda-star", _parse_level, "path"),
        PATH_LEN,
        Opt("mu_s", "--mu-s", float, help="coherence-sparsity product for --lambda-star auto"),
        Opt("c", "--c", float, help="stopping constant for --lambda-star auto"),
    )),
    "path": (cmd_path, "full path plus information-criterion selection", (
        Opt("problem", "--problem", default=REQUIRED),
        PENALTY._replace(default=REQUIRED),
        *PATH_KNOBS,
    )),
    "sweep": (cmd_sweep, "exact-support recovery probability sweep", (
        Opt("varied", "--varied", default=REQUIRED, choices=["s", "sigma", "nu"]),
        Opt("values", "--values", default=REQUIRED,
            help="comma-separated grid for the varied parameter"),
        Opt("matrix_kind", "--matrix-kind", default="gaussian", choices=MATRIX_KINDS),
        *_problem_rows(500, 1000, 10, 1e-2),
        Opt("replications", "--replications", int, 100),
        PENALTY._replace(default="l0"),
        *EXPERIMENT,
    )),
    # "%%" is a literal percent sign in argparse help.
    "phase": (cmd_phase, "phase-transition success grid and 90%% curve", (
        Opt("p", "--p", int, REQUIRED),
        Opt("grid", "--grid", int, help="K for a K x K grid over [0.1, 1]^2"),
        Opt("delta_grid", "--delta-grid", help="comma-separated deltas"),
        Opt("rho_grid", "--rho-grid", help="comma-separated rhos"),
        Opt("trials", "--trials", int, 20),
        PENALTY._replace(default="l1"),
        Opt("threshold", "--threshold", float, 1e-2, "relative L2 success threshold"),
        Opt("sigma", "--sigma", float, 1e-6),
        *EXPERIMENT,
    )),
    "bench": (cmd_bench, "mean cost/error table over problem sizes", (
        Opt("sizes", "--sizes", default=REQUIRED, help="comma-separated signal lengths p"),
        # bench has no --nu, so it offers no kind that needs one.
        Opt("matrix_kind", "--matrix-kind", default="bernoulli",
            choices=[k for k in MATRIX_KINDS if k != "correlated"]),
        PENALTY._replace(default="l1"),
        Opt("replications", "--replications", int, 10),
        DR,
        Opt("sigma", "--sigma", float, 5e-2),
        *EXPERIMENT,
    )),
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError (one JSON record, exit 2) instead
    of printing the usage text and exiting; ``--help`` and ``--version`` still
    print and exit 0. Subcommand parsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ishtc`` parser, built once per process: parsing keeps no state
    in it, so every :func:`main` call shares it."""
    parser = _Parser(prog="ishtc", description=(
        "Sparse recovery via thresholded continuation: generate problems, "
        "solve them, and reproduce recovery studies."))
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, opts) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUTDIR} or .)")
        for o in opts:
            kind = ({"action": "store_const", "const": True} if o.type is bool
                    else {"type": o.type, "choices": o.choices})
            p.add_argument(o.flag, dest=o.key, help=o.help, **kind)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler, _, opts = COMMANDS[args.command]
        return handler(_resolve(args, opts), args)
    except DivergenceError as exc:
        error, code = exc, EXIT_DIVERGED
    except FileNotFoundError as exc:
        error, code = exc, EXIT_MISSING
    # json.JSONDecodeError is a ValueError; a MemoryError is a size that cannot be allocated.
    except (ValueError, KeyError, TypeError, MemoryError) as exc:
        error, code = exc, EXIT_SCHEMA
    record = {"error": str(error), "type": type(error).__name__, "exit_code": code}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
