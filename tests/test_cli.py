import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ishtc
from ishtc import cli, experiments, linop, solver
from ishtc.cli import COMMANDS, EXIT_DIVERGED, EXIT_MISSING, EXIT_OK, EXIT_SCHEMA, main
from ishtc.probgen import gen_problem, load_problem
from ishtc.solver import DEFAULT_GAMMA, DEFAULT_KMAX, DEFAULT_PATH_LEN, TheoryParams, lambda_star
from ishtc.storage import read_array, write_array
from ishtc.thresholding import Penalty

GEN_FLAGS = [
    "gen", "--kind", "gaussian", "--n", "500", "--p", "1000", "--s", "10",
    "--dr", "100", "--sigma", "1e-2", "--seed", "7",
]


def _gen_small(out_dir, seed="4", n="20", p="40", s="3", sigma="1e-3", extra=()):
    argv = [
        "gen", "--kind", "gaussian", "--n", n, "--p", p, "--s", s,
        "--dr", "10", "--sigma", sigma, "--seed", seed, "--out", str(out_dir),
    ]
    argv.extend(extra)
    assert main(argv) == EXIT_OK


def test_gen_manifest_echoes_parameters(tmp_path, capsys):
    assert main(GEN_FLAGS + ["--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["command"] == "gen"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    meta = manifest["meta"]
    assert meta["matrix_kind"] == "gaussian"
    assert (meta["n"], meta["p"], meta["s"]) == (500, 1000, 10)
    assert meta["dr"] == 100.0
    assert meta["sigma"] == 1e-2
    assert meta["seed"] == 7
    assert (tmp_path / "x_true.bin").exists()
    assert (tmp_path / "y.bin").exists()


def test_gen_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _gen_small(a)
    _gen_small(b)
    for name in ("x_true.bin", "y.bin", "matrix.bin", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_with_guarantee_stop(tmp_path):
    """Stop level from the guarantee constants, supplied on the command line."""
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    out = tmp_path / "run"
    rc = main([
        "solve", "--problem", str(prob_dir), "--penalty", "l0",
        "--gamma", "0.8", "--kmax", "5", "--lambda-star", "auto",
        "--mu-s", "0.05", "--c", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    x = read_array(out / "x_star.bin")
    assert x.shape == (40,)
    lines = (out / "path.csv").read_text().strip().splitlines()
    assert lines[0].startswith("lambda,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["lambda_star"] == "auto"
    assert manifest["params"]["mu_s"] == 0.05
    assert manifest["params"]["c"] == 3.0
    epsilon = json.loads((prob_dir / "manifest.json").read_text())["epsilon"]
    level = lambda_star(TheoryParams(0.05, 3.0, epsilon), Penalty.L0)
    assert manifest["solver_config"]["lambda_star"] == level

    # The derived level given as a number runs the same solve, byte for byte.
    explicit = tmp_path / "explicit"
    assert main(["solve", "--problem", str(prob_dir), "--penalty", "l0",
                 "--lambda-star", repr(level), "--out", str(explicit)]) == EXIT_OK
    for name in ("x_star.bin", "path.csv"):
        assert (explicit / name).read_bytes() == (out / name).read_bytes()


def test_solve_auto_stop_with_zero_noise_exit_2(tmp_path, capsys):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir, sigma="0")
    capsys.readouterr()
    rc = main(["solve", "--problem", str(prob_dir), "--penalty", "l1", "--lambda-star", "auto",
               "--mu-s", "0.05", "--c", "3", "--out", str(tmp_path / "run")])
    assert rc == EXIT_SCHEMA
    assert "not positive" in json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_solve_auto_stop_with_non_finite_manifest_noise_norm_exit_2(epsilon, tmp_path, capsys):
    """A NaN or infinite noise norm in the manifest is refused as such, not
    reported as a stopping level that is not positive or not finite."""
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    manifest_path = prob_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**manifest, "epsilon": epsilon}))
    capsys.readouterr()
    rc = main(["solve", "--problem", str(prob_dir), "--penalty", "l1", "--lambda-star", "auto",
               "--mu-s", "0.05", "--c", "3", "--out", str(tmp_path / "run")])
    assert rc == EXIT_SCHEMA
    assert "noise norm" in json.loads(capsys.readouterr().err.strip())["error"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("penalty", ["l1", "l0"])
def test_solve_auto_stop_without_c_exit_2(penalty, tmp_path, capsys):
    """One --c serves both penalties; a derived stop without it is refused."""
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    capsys.readouterr()
    rc = main(["solve", "--problem", str(prob_dir), "--penalty", penalty, "--lambda-star", "auto",
               "--mu-s", "0.05", "--out", str(tmp_path / "run")])
    assert rc == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().err.strip())["error"].endswith("--c")
    assert not (tmp_path / "run").exists()


def test_gen_unallocatable_size_exit_2(tmp_path, capsys):
    """A 2^29 x 2^30 float64 matrix is 4 EiB, past any 64-bit address space,
    so the allocation is refused at once and nothing is written."""
    rc = main(["gen", "--kind", "gaussian", "--n", "536870912", "--p", "1073741824",
               "--s", "1", "--out", str(tmp_path / "prob")])
    assert rc == EXIT_SCHEMA
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == EXIT_SCHEMA and "allocate" in record["error"]
    assert not (tmp_path / "prob").exists()


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_solve_lambda0_at_or_below_derived_stop_exit_2(scale, tmp_path):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    epsilon = json.loads((prob_dir / "manifest.json").read_text())["epsilon"]
    level = lambda_star(TheoryParams(0.05, 3.0, epsilon), Penalty.L0)
    rc = main(["solve", "--problem", str(prob_dir), "--penalty", "l0", "--lambda-star", "auto",
               "--mu-s", "0.05", "--c", "3", "--lambda0", repr(scale * level),
               "--out", str(tmp_path / "run")])
    assert rc == EXIT_SCHEMA
    assert not (tmp_path / "run").exists()


def test_solve_defaults_to_full_path(tmp_path):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    out = tmp_path / "run"
    assert main(["solve", "--problem", str(prob_dir), "--penalty", "l1",
                 "--out", str(out)]) == EXIT_OK
    lines = (out / "path.csv").read_text().strip().splitlines()
    # header + levels 0..45: level 45 is the first whose support exceeds min(n, p) = 20
    assert len(lines) == 47
    supports = [int(line.split(",")[1]) for line in lines[1:]]
    assert supports[-1] > 20 and max(supports[:-1]) <= 20
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stop_reason"] == "saturated"
    assert manifest["path_levels"] == 46


def test_saturated_path_solve_answers_with_the_level_before(tmp_path, capsys):
    """On criterion 9's problem the path ends saturated, and solve writes the
    level before it, a model BIC can score, not the saturated one."""
    prob_dir, out = tmp_path / "prob", tmp_path / "run"
    assert main(["gen", "--kind", "gaussian", "--n", "40", "--p", "80", "--s", "4", "--dr", "10",
                 "--sigma", "1e-3", "--seed", "21", "--out", str(prob_dir)]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", "--problem", str(prob_dir), "--penalty", "l1",
                 "--out", str(out)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out.strip())
    assert json.loads((out / "manifest.json").read_text())["stop_reason"] == "saturated"
    supports = [int(line.split(",")[1])
                for line in (out / "path.csv").read_text().strip().splitlines()[1:]]
    assert supports[-1] > 40
    x_star = read_array(out / "x_star.bin")
    assert np.count_nonzero(x_star) == summary["support_size"] == supports[-2] == 27


def test_solve_rerun_byte_identical_small(tmp_path):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["solve", "--problem", str(prob_dir), "--penalty", "l1",
                     "--out", str(out)]) == EXIT_OK
        runs.append(out)
    assert (runs[0] / "x_star.bin").read_bytes() == (runs[1] / "x_star.bin").read_bytes()
    assert (runs[0] / "path.csv").read_bytes() == (runs[1] / "path.csv").read_bytes()
    m1 = json.loads((runs[0] / "manifest.json").read_text())
    m2 = json.loads((runs[1] / "manifest.json").read_text())
    m1.pop("wall_time_s"); m2.pop("wall_time_s")
    assert m1 == m2


def test_path_rerun_byte_identical_on_the_cached_route(tmp_path):
    """500x1000 is above the cached-route floor, and at s=100 the support
    outgrows the Gram rows mid-path, so one solve takes both routes."""
    prob_dir = tmp_path / "prob"
    assert main(["gen", "--kind", "gaussian", "--n", "500", "--p", "1000", "--s", "100",
                 "--dr", "100", "--sigma", "0.01", "--seed", "0", "--out", str(prob_dir)]) == EXIT_OK
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["path", "--problem", str(prob_dir), "--penalty", "l1",
                     "--out", str(out)]) == EXIT_OK
        runs.append(out)
    for name in ("x_best.bin", "path.csv", "scores.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_gen_and_path_build_no_gram_triangle(tmp_path, monkeypatch):
    """A single solve builds no Gram triangle, so the 500x1000 s=100 path
    keeps its gemv rows; gen writes the bytes of one (n, p) Gaussian draw
    divided by its column norms."""
    built = []
    monkeypatch.setattr(linop, "_gram_triangle", lambda matrix: built.append(matrix))
    prob_dir = tmp_path / "prob"
    assert main(["gen", "--kind", "gaussian", "--n", "500", "--p", "1000", "--s", "100",
                 "--dr", "100", "--sigma", "0.01", "--seed", "0", "--out", str(prob_dir)]) == EXIT_OK
    for penalty in ("l0", "l1"):
        assert main(["path", "--problem", str(prob_dir), "--penalty", penalty,
                     "--out", str(tmp_path / penalty)]) == EXIT_OK
    assert built == []
    stream = np.random.SeedSequence(entropy=0, spawn_key=(0,))
    raw = np.random.default_rng(stream).standard_normal((500, 1000))
    want = np.asfortranarray(raw / np.linalg.norm(raw, axis=0))
    assert np.array_equal(read_array(prob_dir / "matrix.bin"), want)


def test_config_file_and_flag_precedence(tmp_path):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"penalty": "l1", "gamma": 0.9, "kmax": 3}))
    out = tmp_path / "run"
    assert main(["solve", "--problem", str(prob_dir), "--config", str(cfg),
                 "--gamma", "0.7", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["solver_config"]["gamma"] == 0.7  # flag wins
    assert manifest["solver_config"]["kmax"] == 3  # file fills the rest


def test_unknown_config_key_schema_error(tmp_path, capsys):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"penalty": "l1", "stepsize": 2}))
    rc = main(["solve", "--problem", str(prob_dir), "--config", str(cfg)])
    assert rc == EXIT_SCHEMA
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == EXIT_SCHEMA
    assert "stepsize" in record["error"]


def test_invalid_gamma_schema_error(tmp_path):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    assert main(["solve", "--problem", str(prob_dir), "--penalty", "l1",
                 "--gamma", "1.5", "--out", str(tmp_path / "x")]) == EXIT_SCHEMA


def test_missing_problem_exit_code(tmp_path, capsys):
    rc = main(["solve", "--problem", str(tmp_path / "absent"), "--penalty", "l1"])
    assert rc == EXIT_MISSING
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == EXIT_MISSING


def test_divergence_exit_code(tmp_path, capsys):
    # dense square instance with a wide support defeats the unit stepsize
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir, seed="3", n="80", p="80", s="40", sigma="0",
               extra=["--dr", "1"])
    rc = main(["solve", "--problem", str(prob_dir), "--penalty", "l1",
               "--kmax", "40", "--out", str(tmp_path / "run")])
    assert rc == EXIT_DIVERGED
    record = json.loads(capsys.readouterr().err.strip())
    assert record["type"] == "DivergenceError"


def test_path_command_outputs(tmp_path):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    out = tmp_path / "run"
    assert main(["path", "--problem", str(prob_dir), "--penalty", "l0",
                 "--path-len", "40", "--out", str(out)]) == EXIT_OK
    assert read_array(out / "x_best.bin").shape == (40,)
    scores = (out / "scores.csv").read_text().strip().splitlines()
    assert scores[0] == "lambda,support_size,residual_sq,score"
    assert len(scores) == 42
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["lambda_best"] > 0


def test_sweep_command_and_worker_invariance(tmp_path):
    args = [
        "sweep", "--varied", "s", "--values", "1,2", "--n", "20", "--p", "40",
        "--dr", "1", "--sigma", "0", "--replications", "3", "--penalty", "l1",
        "--seed", "5",
    ]
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == EXIT_OK
    assert main(args + ["--workers", "4", "--out", str(out4)]) == EXIT_OK
    assert (out1 / "sweep.csv").read_bytes() == (out4 / "sweep.csv").read_bytes()
    lines = (out1 / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "value,success_probability"
    assert len(lines) == 3


def test_sweep_nu_requires_correlated(tmp_path):
    rc = main(["sweep", "--varied", "nu", "--values", "0,0.5",
               "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA


@pytest.mark.parametrize("flags", [["--varied", "s", "--values", "1,2"],
                                   ["--varied", "nu", "--values", "0,0.5,0.9", "--s", "2"]],
                         ids=["s", "nu"])
def test_correlated_sweep_worker_invariance(flags, tmp_path):
    args = ["sweep", "--matrix-kind", "correlated", "--nu", "0.3", "--n", "20", "--p", "40",
            "--dr", "1", "--sigma", "1e-3", "--replications", "3", "--path-len", "30",
            "--seed", "2", *flags]
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == EXIT_OK
    assert main(args + ["--workers", "2", "--out", str(out2)]) == EXIT_OK
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    fixed = json.loads((out1 / "manifest.json").read_text())["fixed"]
    assert fixed["matrix_kind"] == "correlated"
    assert fixed.get("nu") == (None if flags[1] == "nu" else 0.3)


def test_phase_command(tmp_path):
    out = tmp_path / "run"
    rc = main([
        "phase", "--p", "40", "--delta-grid", "0.5,1.0", "--rho-grid", "0.1,0.2",
        "--trials", "2", "--penalty", "l1", "--seed", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    phase_lines = (out / "phase.csv").read_text().strip().splitlines()
    assert phase_lines[0] == "delta,rho,n,s,successes,trials,success_rate"
    assert len(phase_lines) == 5
    curve_lines = (out / "curve90.csv").read_text().strip().splitlines()
    assert curve_lines[0] == "delta,rho90,flag"
    assert len(curve_lines) == 3


def test_phase_requires_some_grid(tmp_path):
    assert main(["phase", "--p", "40", "--out", str(tmp_path)]) == EXIT_SCHEMA


def test_phase_grid_k_equals_its_explicit_grids(tmp_path):
    base = ["phase", "--p", "20", "--trials", "2", "--seed", "1", "--path-len", "30"]
    by_k, explicit = tmp_path / "k", tmp_path / "explicit"
    assert main([*base, "--grid", "2", "--out", str(by_k)]) == EXIT_OK
    assert main([*base, "--delta-grid", "0.1,1.0", "--rho-grid", "0.1,1.0",
                 "--out", str(explicit)]) == EXIT_OK
    for name in ("phase.csv", "curve90.csv"):
        assert (by_k / name).read_bytes() == (explicit / name).read_bytes()
    params = json.loads((by_k / "manifest.json").read_text())["params"]
    assert params["delta_grid"] == params["rho_grid"] == [0.1, 1.0]


def test_bench_command(tmp_path):
    out = tmp_path / "run"
    assert main(["bench", "--sizes", "160", "--replications", "2",
                 "--seed", "2", "--path-len", "40", "--out", str(out)]) == EXIT_OK
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "p,n,s,time_s,n_matvec,rel_l2,abs_linf,diverged"
    assert len(lines) == 2


def test_bench_counts_diverged_replications(tmp_path):
    # With 1000 unit steps per level this Gaussian replication diverges at
    # p=160 before its support exceeds n = 40.
    out = tmp_path / "run"
    assert main(["bench", "--sizes", "160", "--replications", "1", "--matrix-kind", "gaussian",
                 "--kmax", "1000", "--path-len", "20", "--out", str(out)]) == EXIT_OK
    header, row = (out / "bench.csv").read_text().strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["diverged"] == "1"
    assert cells["n_matvec"] == cells["rel_l2"] == "nan"


#: A toy run of each experiment subcommand; a flag given again overrides these.
TOY_RUNS = {
    "sweep": ["sweep", "--varied", "s", "--values", "1", "--n", "4", "--p", "8",
              "--replications", "1", "--path-len", "5"],
    "phase": ["phase", "--p", "8", "--delta-grid", "0.5", "--rho-grid", "0.5", "--trials", "1",
              "--path-len", "5"],
    "bench": ["bench", "--sizes", "16", "--replications", "1", "--path-len", "5"],
}


def _count_trials(mp):
    """Record every call of ``experiments.run_full_path``, as each trial makes one."""
    calls = []
    solve = experiments.run_full_path

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    mp.setattr(experiments, "run_full_path", counted)
    return calls


@pytest.mark.parametrize("command, flags", [
    ("bench", ["--replications", "0"]), ("bench", ["--replications", "-2"]),
    ("bench", ["--sizes", ""]), ("bench", ["--sizes", "3"]), ("bench", ["--sizes", "16,3"]),
    ("sweep", ["--workers", "0"]), ("phase", ["--workers", "-3"]), ("bench", ["--workers", "0"]),
    ("phase", ["--threshold", "nan"]), ("phase", ["--threshold", "-0.5"]),
    ("sweep", ["--seed", "-3"]), ("phase", ["--seed", "-1"]), ("bench", ["--seed", "-1"]),
])
def test_experiment_refusals_exit_2_before_any_trial(command, flags, tmp_path, capsys,
                                                     monkeypatch):
    calls = _count_trials(monkeypatch)
    out = tmp_path / "run"
    assert main([*TOY_RUNS[command], *flags, "--out", str(out)]) == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().err.strip())["type"] == "ValueError"
    assert not out.exists()
    assert not calls


def test_sweep_echoes_nu_for_every_kind(tmp_path):
    out = tmp_path / "run"
    assert main([*TOY_RUNS["sweep"], "--varied", "sigma", "--values", "0.1", "--s", "2",
                 "--nu", "0.9", "--out", str(out)]) == EXIT_OK
    fixed = json.loads((out / "manifest.json").read_text())["fixed"]
    assert fixed == {"matrix_kind": "gaussian", "n": 4, "p": 8, "s": 2, "dr": 100.0, "nu": 0.9}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(TOY_RUNS)), count=st.integers(-1, 3),
       workers=st.integers(-1, 4), size=st.integers(0, 20),
       threshold=st.one_of(st.sampled_from([0.0, math.inf, -math.inf, math.nan]),
                           st.floats(-0.5, 1.0)))
@example(command="phase", count=2, workers=2, size=0, threshold=0.0)
@example(command="phase", count=1, workers=1, size=0, threshold=math.inf)
@example(command="bench", count=2, workers=3, size=4, threshold=0.0)
def test_experiment_refused_or_runs_every_trial(command, count, workers, size, threshold,
                                                tmp_path_factory):
    """Any counts, worker number and threshold either exit 2 before a trial or
    exit 0 having run every trial once."""
    out = tmp_path_factory.mktemp(command) / "run"
    count_flag = "--trials" if command == "phase" else "--replications"
    # "--flag=value" keeps argparse from reading "-inf" as a flag.
    argv = [*TOY_RUNS[command], f"{count_flag}={count}", f"--workers={workers}"]
    refused = count < 1 or workers < 1
    if command == "phase":
        argv.append(f"--threshold={threshold}")
        refused |= not threshold >= 0
    if command == "bench":
        argv.append(f"--sizes={size}")
        refused |= size < 4
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_trials(mp)
        rc = main([*argv, "--out", str(out)])
    if refused:
        assert rc == EXIT_SCHEMA
        assert not calls and not out.exists()
    else:
        assert rc == EXIT_OK
        assert len(calls) == count


@pytest.mark.parametrize("key, value, echoed", [
    ("kmax", 2.5, None), ("kmax", True, None), ("path_len_N", True, None),
    ("path_len_N", 3.5, None), ("kmax", 5, 5), ("kmax", 5.0, 5), ("kmax", "5", 5),
])
def test_config_integer_keys(key, value, echoed, tmp_path, capsys):
    """A bool or non-integral number exits 2 naming the key; integral values run."""
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "run"
    capsys.readouterr()
    rc = main(["path", "--problem", str(prob_dir), "--penalty", "l1", "--config", str(cfg),
               "--out", str(out)])
    if echoed is None:
        assert rc == EXIT_SCHEMA
        assert key in json.loads(capsys.readouterr().err.strip())["error"]
        assert not out.exists()
    else:
        assert rc == EXIT_OK
        got = json.loads((out / "manifest.json").read_text())["params"][key]
        assert type(got) is int and got == echoed


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(-40, 40), st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text(alphabet="0123456789.-+ eE", max_size=3), st.text(max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(value=JSON_SCALARS)
def test_config_kmax_exits_2_or_runs_with_that_integer(value, tmp_path_factory):
    root = tmp_path_factory.mktemp("kmax")
    prob_dir = root / "prob"
    _gen_small(prob_dir, n="10", p="20", s="2")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"kmax": value}))
    out = root / "run"
    rc = main(["path", "--problem", str(prob_dir), "--penalty", "l0", "--path-len", "2",
               "--config", str(cfg), "--out", str(out)])
    if rc != EXIT_OK:
        assert rc == EXIT_SCHEMA
        return
    kmax = json.loads((out / "manifest.json").read_text())["params"]["kmax"]
    assert type(kmax) is int
    assert kmax == (int(value) if isinstance(value, str) else value)


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ISHTC_OUTDIR", str(tmp_path / "from_env"))
    _gen_small_dir = tmp_path / "from_env"
    assert main(["gen", "--kind", "gaussian", "--n", "10", "--p", "20",
                 "--s", "2", "--sigma", "0", "--seed", "1"]) == EXIT_OK
    assert (_gen_small_dir / "manifest.json").exists()


def test_gen_coherence_flag(tmp_path):
    _gen_small(tmp_path, extra=["--coherence"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert 0.0 <= manifest["meta"]["mu"] <= 1.0


def test_gen_coherence_flag_on_one_column_exit_2(tmp_path, capsys):
    # One column has no pair, so there is no coherence to record.
    rc = main(["gen", "--kind", "gaussian", "--n", "5", "--p", "1", "--s", "1",
               "--coherence", "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().err.strip())["exit_code"] == EXIT_SCHEMA
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag, kind",
    [("--sigma", "gaussian"), ("--nu", "correlated"), ("--nu", "gaussian"), ("--dr", "gaussian")],
    ids=["--sigma", "--nu", "--nu-on-gaussian", "--dr"],
)
def test_gen_refuses_non_finite_parameters_exit_2(flag, kind, value, tmp_path, capsys):
    """A NaN or infinite noise level, mixing weight or dynamic range is refused
    before any file is written; a mixing weight also for the kinds that only
    echo it into the manifest."""
    rc = main(["gen", "--kind", kind, "--n", "20", "--p", "40", "--s", "3", "--seed", "1",
               flag, value, "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().err.strip())["exit_code"] == EXIT_SCHEMA
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("flags, fragment", [
    (["--kind", "gaussian", "--n", "5", "--p", "10", "--sigma", "1e200"], "noise norm is inf"),
    (["--kind", "correlated", "--nu", "1e200", "--n", "6", "--p", "10"], "column 0 has norm inf"),
    (["--kind", "correlated", "--nu", "1e308", "--n", "6", "--p", "10"], "column 0 has norm inf"),
    (["--kind", "gaussian", "--n", "5", "--p", "10", "--dr", "1e308"], "data norm is inf"),
    (["--kind", "gaussian", "--n", "5", "--p", "10", "--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["sigma", "nu-1e200", "nu-1e308", "dr", "negative-seed"])
def test_gen_refuses_overflowing_draws_exit_2(flags, fragment, tmp_path, capsys):
    """A draw that overflows, or a negative seed, exits 2 with one JSON line on
    stderr and no numpy warning, before any file is written."""
    out = tmp_path / "prob"
    assert main(["gen", *flags, "--s", "2", "--out", str(out)]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert fragment in json.loads(captured.err)["error"]
    assert not out.exists()


@pytest.mark.parametrize("command, output", [("path", "x_best.bin"), ("solve", "x_star.bin")])
def test_one_column_dense_problem_loads(command, output, tmp_path):
    """gen writes a one-column matrix.bin; solve and path read it back as n x 1."""
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir, n="5", p="1", s="1")
    out = tmp_path / "run"
    assert main([command, "--problem", str(prob_dir), "--penalty", "l1",
                 "--out", str(out)]) == EXIT_OK
    assert read_array(out / output).shape == (1,)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ishtc" in capsys.readouterr().out


@pytest.mark.parametrize("argv, fragment", [
    (["bench", "--sizes", "16", "--workers", "two"], "invalid int value"),
    (["phase", "--p", "40", "--grid", "3", "--threshold", "-inf"], "expected one argument"),
    (["path", "--penalty", "l2"], "invalid choice"),
    ([], "required"),
    (["nosuch"], "invalid choice"),
])
def test_argparse_errors_print_one_json_record(argv, fragment, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default output directory
    monkeypatch.delenv("ISHTC_OUTDIR", raising=False)
    assert main(argv) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["exit_code"] == EXIT_SCHEMA
    assert fragment in record["error"]
    assert not any(tmp_path.iterdir())


SWEEP = ["sweep", "--n", "4", "--p", "8", "--s", "2", "--replications", "1", "--path-len", "5"]
PHASE = ["phase", "--p", "8", "--trials", "1", "--path-len", "5"]


@pytest.mark.parametrize("argv, config, code, fragment", [
    # Inputs the CLI used to rewrite, drop or crash on.
    ([*SWEEP, "--varied", "s", "--values", "2.6,2.4"], None, EXIT_SCHEMA, "must be integers"),
    ([*SWEEP, "--varied", "s", "--values", "inf"], None, EXIT_SCHEMA, "must be integers"),
    ([*SWEEP, "--varied", "s", "--values=-inf"], None, EXIT_SCHEMA, "must be integers"),
    ([*SWEEP, "--varied", "s", "--values", "nan"], None, EXIT_SCHEMA, "must be integers"),
    ([*SWEEP, "--varied", "sigma", "--values", "0.1", "--matrix-kind", "correlated"], None,
     EXIT_SCHEMA, "needs a mixing weight nu"),
    ([*SWEEP, "--varied", "nu", "--values", "0,0.5,0.9"], None, EXIT_SCHEMA, "sweeping nu"),
    ([*PHASE, "--grid", "2", "--delta-grid", "0.5"], None, EXIT_SCHEMA, "either --grid K"),
    ([*PHASE, "--grid", "2", "--delta-grid", "0.5", "--rho-grid", "0.5"], None, EXIT_SCHEMA,
     "either --grid K"),
    (["bench", "--sizes", "16", "--matrix-kind", "correlated"], None, EXIT_SCHEMA,
     "invalid choice: 'correlated'"),
    # Refusals no other test reaches.
    (["gen", "--n", "4", "--p", "8", "--s", "1"], None, EXIT_SCHEMA,
     "missing required parameter: kind"),
    (["path", "--problem", "prob", "--config", "nosuch.json"], None, EXIT_MISSING,
     "does not exist"),
    (["path", "--problem", "prob"], [1], EXIT_SCHEMA, "JSON object"),
    (["path", "--problem", "prob"], {"penalty": "l2"}, EXIT_SCHEMA, "penalty"),
    (["solve", "--problem", "prob", "--penalty", "l1"], {"lambda_star": "soon"}, EXIT_SCHEMA,
     "'soon'"),
    (["gen", "--kind", "correlated", "--n", "4", "--p", "8", "--s", "1", "--nu=-1"], None,
     EXIT_SCHEMA, "mixing weight"),
    ([*PHASE, "--grid", "0"], None, EXIT_SCHEMA, "grid is empty"),
    # A bad later grid value is refused before the earlier values' trials.
    ([*SWEEP, "--varied", "sigma", "--values", "0.01,nan"], None, EXIT_SCHEMA,
     "noise level must be finite and >= 0"),
    ([*SWEEP, "--varied", "sigma", "--values", "0.01,-1"], None, EXIT_SCHEMA,
     "noise level must be finite and >= 0"),
    ([*SWEEP, "--varied", "s", "--values", "1,9"], None, EXIT_SCHEMA,
     "sparsity must satisfy 1 <= s <= 8, got 9"),
    ([*SWEEP, "--varied", "s", "--values", "1,0"], None, EXIT_SCHEMA,
     "sparsity must satisfy 1 <= s <= 8, got 0"),
    ([*SWEEP, "--varied", "nu", "--values", "0.5,-0.5", "--matrix-kind", "correlated"], None,
     EXIT_SCHEMA, "mixing weight must be finite and >= 0"),
    ([*SWEEP, "--varied", "nu", "--values", "0.5,inf", "--matrix-kind", "correlated"], None,
     EXIT_SCHEMA, "mixing weight must be finite"),
    ([*SWEEP, "--varied", "s", "--values", "2", "--n", "0"], None, EXIT_SCHEMA,
     "measurement count must be >= 1"),
    # The fft-haar sizes: p a power of two, 1 <= n <= p, and 2**levels dividing p.
    (["bench", "--matrix-kind", "fft-haar", "--sizes", "1024,1000", "--replications", "3"], None,
     EXIT_SCHEMA, "signal length must be a power of two, got 1000"),
    ([*SWEEP, "--varied", "s", "--values", "1", "--matrix-kind", "fft-haar", "--n", "16"], None,
     EXIT_SCHEMA, "row count must satisfy 1 <= n <= 8, got 16"),
    ([*SWEEP, "--varied", "s", "--values", "1", "--matrix-kind", "fft-haar", "--n", "1", "--p",
      "2", "--s", "1"], None, EXIT_SCHEMA, "signal length 2 is not divisible by 2**2"),
    # A config-file list item obeys the rules of a config scalar.
    (["bench", "--replications", "1"], {"sizes": [320.7]}, EXIT_SCHEMA,
     "sizes must be an integer, got 320.7"),
    (PHASE, {"delta_grid": [True], "rho_grid": [0.1]}, EXIT_SCHEMA,
     "delta_grid must be a number, got True"),
    ([*SWEEP, "--varied", "sigma"], {"values": [True, 0.01]}, EXIT_SCHEMA,
     "values must be a number, got True"),
    (PHASE, {"delta_grid": {"0.5": 1}, "rho_grid": [0.1]}, EXIT_SCHEMA,
     "delta_grid must be a list"),
    (["bench"], {"sizes": 320}, EXIT_SCHEMA, "sizes must be a list"),
    # A bad path knob is refused before the first matrix is drawn.
    ([*SWEEP, "--varied", "s", "--values", "1,2", "--replications", "3", "--workers", "2",
      "--gamma", "1.5"], None, EXIT_SCHEMA, "shrink factor must lie in (0, 1), got 1.5"),
    ([*PHASE, "--grid", "2", "--kmax", "0"], None, EXIT_SCHEMA,
     "inner iteration count must be >= 1, got 0"),
    (["bench", "--sizes", "16", "--replications", "1", "--path-len=-1"], None, EXIT_SCHEMA,
     "path length must be >= 0, got -1"),
], ids=["sweep-s-2.6,2.4", "sweep-s-inf", "sweep-s--inf", "sweep-s-nan",
        "sweep-correlated-without-nu", "sweep-nu-on-gaussian", "phase-grid-and-delta-grid",
        "phase-grid-and-both-grids", "bench-correlated", "gen-without-kind", "missing-config",
        "config-list", "config-penalty-l2", "config-lambda-star-soon", "gen-nu-negative",
        "phase-grid-0", "sweep-sigma-nan-later", "sweep-sigma-negative-later",
        "sweep-s-above-p-later", "sweep-s-0-later", "sweep-nu-negative-later",
        "sweep-nu-inf-later", "sweep-n-0", "bench-fft-haar-p-1000", "sweep-fft-haar-n-above-p",
        "sweep-fft-haar-depth", "config-sizes-item-320.7",
        "config-delta-grid-item-true", "config-values-item-true", "config-delta-grid-object",
        "config-sizes-scalar", "sweep-gamma-1.5", "phase-kmax-0", "bench-path-len--1"])
def test_refusals_print_one_json_record(argv, config, code, fragment, tmp_path, capsys,
                                        monkeypatch):
    """Exit 2 or 3 with one JSON record naming the rule, before any trial and
    without an output directory."""
    calls = _count_trials(monkeypatch)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "cfg.json"]
    assert main([*argv, "--out", "run"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["exit_code"] == code
    assert fragment in record["error"]
    assert not (tmp_path / "run").exists()
    assert not calls


def test_fft_haar_problem_through_cli(tmp_path):
    prob_dir = tmp_path / "prob"
    assert main(["gen", "--kind", "fft-haar", "--n", "48", "--p", "64",
                 "--s", "5", "--levels", "2", "--sigma", "1e-4", "--seed", "6",
                 "--out", str(prob_dir)]) == EXIT_OK
    out = tmp_path / "run"
    assert main(["solve", "--problem", str(prob_dir), "--penalty", "l0",
                 "--out", str(out)]) == EXIT_OK
    assert read_array(out / "x_star.bin").shape == (64,)


def _tree_bytes(root):
    """Every file under ``root`` by relative path; manifests without wall time."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            manifest.pop("wall_time_s", None)
            files[str(path.relative_to(root))] = manifest
        elif path.is_file():
            files[str(path.relative_to(root))] = path.read_bytes()
    return files


def test_fft_haar_gen_and_path_rerun_byte_identical(tmp_path):
    """gen --kind fft-haar and path are reproducible byte for byte, and the
    operator load_problem rebuilds carries the generated col_scale bits."""
    prob_dir = tmp_path / "run" / "prob"
    runs = []
    for _ in range(2):
        shutil.rmtree(tmp_path / "run", ignore_errors=True)
        assert main(["gen", "--kind", "fft-haar", "--n", "600", "--p", "1024", "--s", "40",
                     "--levels", "3", "--dr", "100", "--sigma", "1e-4", "--seed", "11",
                     "--out", str(prob_dir)]) == EXIT_OK
        for sel in ("sel1", "sel2"):
            assert main(["path", "--problem", str(prob_dir), "--penalty", "l0",
                         "--out", str(tmp_path / "run" / sel)]) == EXIT_OK
        runs.append(_tree_bytes(tmp_path / "run"))
    assert len(runs[0]) == 3 + 2 * 4  # x_true, y, manifest; x_best, path, scores, manifest
    assert runs[0] == runs[1]
    for name in ("x_best.bin", "path.csv", "scores.csv", "manifest.json"):
        assert runs[0][f"sel1/{name}"] == runs[0][f"sel2/{name}"]
    built = gen_problem("fft-haar", n=600, p=1024, s=40, dr=100.0, sigma=1e-4, seed=11, levels=3)
    loaded = load_problem(prob_dir)
    assert loaded.op.col_scale.tobytes() == built.op.col_scale.tobytes()
    np.testing.assert_array_equal(loaded.op.rfft_index, built.op.rfft_index)
    np.testing.assert_array_equal(loaded.op.rfft_weight, built.op.rfft_weight)


def test_fft_haar_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """gen then path --penalty l0 at 5320x8192 (the cli-fft-haar size), run in
    child processes at OPENBLAS_NUM_THREADS=1 and 2, write the same bytes:
    the matrix-free operator makes no BLAS call whose split depends on it."""
    script = ("import json, sys\nfrom ishtc.cli import main\n"
              "for argv in sys.argv[1:]:\n    assert main(json.loads(argv)) == 0\n")
    src = str(Path(ishtc.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        run = tmp_path / f"t{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        gen = ["gen", "--kind", "fft-haar", "--n", "5320", "--p", "8192", "--s", "1976",
               "--levels", "2", "--dr", "100", "--sigma", "1e-4", "--seed", "3",
               "--out", str(run / "prob")]
        path = ["path", "--problem", str(run / "prob"), "--penalty", "l0", "--out", str(run / "sel")]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(gen), json.dumps(path)],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
    for name in ("prob/y.bin", "sel/x_best.bin", "sel/path.csv", "sel/scores.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes(), name


def test_manifest_records_the_host(tmp_path, monkeypatch):
    """The path manifest names the CPU count, numpy and BLAS build and the
    thread variables as found; a numpy without ``show_config(mode="dicts")``
    records an empty BLAS entry."""
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(["path", "--problem", str(prob_dir), "--penalty", "l1",
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    host = json.loads((tmp_path / "run" / "manifest.json").read_text())["host"]
    assert host["nproc"] == os.cpu_count()
    assert host["numpy"] == np.__version__
    assert host["threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert host["threads_env"]["OMP_NUM_THREADS"] is None
    monkeypatch.setattr(np, "show_config", lambda: None)  # numpy 1.24's signature
    assert main(["path", "--problem", str(prob_dir), "--penalty", "l1",
                 "--out", str(tmp_path / "old")]) == EXIT_OK
    assert json.loads((tmp_path / "old" / "manifest.json").read_text())["host"]["blas"] == {}


def test_solve_rejects_infinite_lambda0(tmp_path, capsys):
    # An infinite start level never shrinks to a finite stop level.
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    rc = main(["solve", "--problem", str(prob_dir), "--penalty", "l1", "--lambda0", "inf",
               "--lambda-star", "0.01", "--out", str(tmp_path / "run")])
    assert rc == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().err.strip())["exit_code"] == EXIT_SCHEMA


def test_path_longer_than_the_bound_exit_2(tmp_path, capsys):
    """path_len_N 1e300 in a JSON config is integral, so only the solver's
    inner-step bound refuses it."""
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"path_len_N": 1e300}')
    capsys.readouterr()
    rc = main(["path", "--problem", str(prob_dir), "--penalty", "l1", "--config", str(cfg),
               "--out", str(tmp_path / "run")])
    assert rc == EXIT_SCHEMA
    assert "MAX_INNER_STEPS" in json.loads(capsys.readouterr().err.strip())["error"]


def test_stop_beyond_the_bound_exit_2_before_a_level(tmp_path, capsys, monkeypatch):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    monkeypatch.setattr(solver, "inner_iterate", None)  # any call would fail
    capsys.readouterr()
    rc = main(["solve", "--problem", str(prob_dir), "--penalty", "l1", "--lambda-star", "0.01",
               "--gamma", "0.999999999999", "--out", str(tmp_path / "run")])
    assert rc == EXIT_SCHEMA
    assert "MAX_INNER_STEPS" in json.loads(capsys.readouterr().err.strip())["error"]


def test_path_on_unknown_operator_kind_exit_2(tmp_path, capsys):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    manifest = json.loads((prob_dir / "manifest.json").read_text())
    manifest["op"]["kind"] = "toeplitz"
    (prob_dir / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["path", "--problem", str(prob_dir), "--penalty", "l1",
               "--out", str(tmp_path / "run")])
    assert rc == EXIT_SCHEMA
    assert "toeplitz" in json.loads(capsys.readouterr().err.strip())["error"]


def _assert_path_refuses_data_entry(tmp_path, capsys, value):
    """``path`` on data with one entry replaced exits 2 with one ValueError
    record and writes nothing."""
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    y = read_array(prob_dir / "y.bin")
    y[2] = value
    write_array(prob_dir / "y.bin", y)
    capsys.readouterr()
    rc = main(["path", "--problem", str(prob_dir), "--penalty", "l0",
               "--out", str(tmp_path / "run")])
    assert rc == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["type"] == "ValueError"
    assert not (tmp_path / "run").exists()


def test_path_rejects_nan_data(tmp_path, capsys):
    _assert_path_refuses_data_entry(tmp_path, capsys, np.nan)


def test_path_rejects_data_whose_norm_overflows(tmp_path, capsys):
    """Finite data past about 1e154 overflows its norm: a bad input (exit 2),
    not a divergence (exit 4)."""
    _assert_path_refuses_data_entry(tmp_path, capsys, 1e200)


def _gen_fft_haar_small(out_dir):
    assert main(["gen", "--kind", "fft-haar", "--n", "8", "--p", "16", "--s", "2",
                 "--levels", "2", "--seed", "3", "--out", str(out_dir)]) == EXIT_OK


def _set_op(prob_dir, op):
    manifest = json.loads((prob_dir / "manifest.json").read_text())
    manifest["op"] = op
    (prob_dir / "manifest.json").write_text(json.dumps(manifest))


def _path_exit(prob_dir, out, capsys):
    """Exit code of ``path`` on ``prob_dir`` and the error record it printed, if any."""
    capsys.readouterr()
    rc = main(["path", "--problem", str(prob_dir), "--penalty", "l1", "--path-len", "5",
               "--out", str(out)])
    err = capsys.readouterr().err.strip()
    return rc, json.loads(err) if err else None


@pytest.mark.parametrize("op", [["dense"], "dense", None, 5])
def test_path_on_op_entry_that_is_not_an_object_exit_2(op, tmp_path, capsys):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    _set_op(prob_dir, op)
    rc, record = _path_exit(prob_dir, tmp_path / "run", capsys)
    assert rc == EXIT_SCHEMA
    assert "JSON object" in record["error"]


@pytest.mark.parametrize("change", [
    {"p": 2 ** 40},  # refused before an 8 TiB operator is built
    {"p": 32},
    {"levels": 2 ** 62},  # refused before 2**levels is built
], ids=["p-2^40", "p-32", "levels-2^62"])
def test_path_on_fft_haar_op_entry_that_disagrees_with_the_arrays_exit_2(change, tmp_path,
                                                                          capsys):
    prob_dir = tmp_path / "prob"
    _gen_fft_haar_small(prob_dir)
    op = json.loads((prob_dir / "manifest.json").read_text())["op"]
    _set_op(prob_dir, {**op, **change})
    rc, record = _path_exit(prob_dir, tmp_path / "run", capsys)
    assert rc == EXIT_SCHEMA
    assert record["type"] == "ValueError"


@pytest.mark.parametrize("change", [{"p": 41}, {"n": 21}, "x_true.bin", "matrix.bin"],
                         ids=["p-41", "n-21", "x_true.bin", "matrix.bin"])
def test_path_on_dense_sizes_that_disagree_exit_2(change, tmp_path, capsys):
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)  # n=20, p=40
    if isinstance(change, dict):
        op = json.loads((prob_dir / "manifest.json").read_text())["op"]
        _set_op(prob_dir, {**op, **change})
    else:  # drop the last entry or column
        array = read_array(prob_dir / change)
        write_array(prob_dir / change, array[..., :-1])
    rc, record = _path_exit(prob_dir, tmp_path / "run", capsys)
    assert rc == EXIT_SCHEMA
    assert record["type"] == "ValueError"


#: Any JSON value, huge integers and non-finite floats included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([2 ** 40, 2 ** 64, -(2 ** 63), 10 ** 30]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5,
)
_HEADER_FIELDS = {
    "magic": st.binary(min_size=4, max_size=4),
    "rows": st.integers(0, 40) | st.integers(0, 2 ** 32 - 1),
    "cols": st.integers(0, 40) | st.integers(0, 2 ** 32 - 1),
    "reserved": st.integers(0, 2 ** 32 - 1),
}
_OP_KEYS = ("kind", "n", "p", "levels", "seed")
_OP_VALUES = st.sampled_from(["dense", "partial-fft-haar"]) | st.integers(-2, 40) | JSON_VALUES
#: What one draw may replace: the whole op entry, one of its keys, one header
#: field of an array file, or an array file's length.
_FUZZ_TARGETS = ("op", *_OP_KEYS, *(
    f"{name} {field}" for name in ("x_true.bin", "y.bin", "matrix.bin")
    for field in (*_HEADER_FIELDS, "cut")))


def _fuzzed_file(data, name, raw, targets):
    header = dict(zip(_HEADER_FIELDS, struct.unpack("<4sIII", raw[:16])))
    for field, values in _HEADER_FIELDS.items():
        if f"{name} {field}" in targets:
            header[field] = data.draw(values, label=f"{name} {field}")
    raw = struct.pack("<4sIII", *header.values()) + raw[16:]
    if f"{name} cut" in targets:
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label=f"{name} cut")]
    return raw


@pytest.fixture(scope="module")
def problem_files(tmp_path_factory):
    """File name -> bytes of a tiny dense and a tiny fft-haar problem directory."""
    dense, fft = tmp_path_factory.mktemp("dense"), tmp_path_factory.mktemp("fft")
    _gen_small(dense, n="4", p="8", s="2")
    _gen_fft_haar_small(fft)
    return {kind: {f.name: f.read_bytes() for f in root.iterdir()}
            for kind, root in (("dense", dense), ("fft-haar", fft))}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_path_on_fuzzed_problem_directory_exits_with_a_code(data, problem_files,
                                                            tmp_path_factory):
    """A problem directory with any ``op`` entry and any array-file headers
    ends in exit 0, 2, 3 or 4, never an uncaught exception."""
    files = dict(problem_files[data.draw(st.sampled_from(["dense", "fft-haar"]), label="base")])
    targets = data.draw(st.lists(st.sampled_from(_FUZZ_TARGETS), max_size=3), label="targets")
    manifest = json.loads(files.pop("manifest.json"))
    if "op" in targets:
        manifest["op"] = data.draw(JSON_VALUES, label="op")
    for key in _OP_KEYS:
        if key in targets and isinstance(manifest["op"], dict):
            manifest["op"][key] = data.draw(_OP_VALUES, label=key)
    root = tmp_path_factory.mktemp("fuzz")
    prob_dir = root / "prob"
    prob_dir.mkdir()
    (prob_dir / "manifest.json").write_text(json.dumps(manifest))
    for name, raw in files.items():
        (prob_dir / name).write_bytes(_fuzzed_file(data, name, raw, targets))
    rc = main(["path", "--problem", str(prob_dir), "--penalty", "l1", "--path-len", "5",
               "--out", str(root / "run")])
    assert rc in (EXIT_OK, EXIT_SCHEMA, EXIT_MISSING, EXIT_DIVERGED)


@pytest.mark.parametrize("argv", [[], *([name] for name in COMMANDS)])
def test_help_exits_0_with_a_usage_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: ishtc {' '.join(argv)}".rstrip())


def test_parser_is_built_once_and_keeps_no_parse_state(tmp_path, capsys):
    """Every main call shares one parser, and a usage error before and after
    a good parse prints the same record."""
    assert cli.build_parser() is cli.build_parser()
    bad = ["gen", "--kind", "gaussian", "--n", "x"]
    records = []
    for argv in (bad, ["gen", "--kind", "gaussian", "--n", "5", "--p", "8", "--s", "1",
                       "--out", str(tmp_path)], bad):
        main(argv)
        records.append(capsys.readouterr().err)
    assert records[0] == records[2] and records[1] == ""
    assert json.loads(records[0])["exit_code"] == EXIT_SCHEMA


#: Per subcommand: flags for a small run (given the problem directory), one
#: config key with a file value and a flag value, and that key's flag.
TABLE_CASES = {
    "gen": (lambda prob: ["--kind", "gaussian", "--n", "20", "--p", "40", "--s", "3"],
            "seed", "--seed", 9, "11"),
    "solve": (lambda prob: ["--problem", prob, "--penalty", "l1"],
              "lambda0", "--lambda0", 50.0, "40"),
    "path": (lambda prob: ["--problem", prob], "penalty", "--penalty", "l1", "l0"),
    "sweep": (lambda prob: ["--varied", "s", "--values", "1", "--n", "20", "--p", "40",
                            "--replications", "1"],
              "penalty", "--penalty", "l1", "l0"),
    "phase": (lambda prob: ["--p", "40", "--delta-grid", "0.5", "--rho-grid", "0.1",
                            "--trials", "1"],
              "threshold", "--threshold", 0.5, "0.25"),
    "bench": (lambda prob: ["--sizes", "320", "--replications", "1"], "seed", "--seed", 4, "6"),
}


@pytest.mark.parametrize("command", list(TABLE_CASES))
def test_parameter_table_per_subcommand(command, tmp_path, capsys):
    """Unknown config keys are refused, and flag > config file > default holds."""
    flags, key, flag, file_value, flag_text = TABLE_CASES[command]
    prob_dir = tmp_path / "prob"
    _gen_small(prob_dir)
    argv = [command, *flags(str(prob_dir))]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: file_value, "stepsize": 2}))
    capsys.readouterr()
    assert main(argv + ["--config", str(bad), "--out", str(tmp_path / "bad")]) == EXIT_SCHEMA
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == EXIT_SCHEMA
    assert "stepsize" in record["error"]

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: file_value}))
    echoed = {}
    for name, extra in (("file", []), ("flag", [flag, flag_text])):
        out = tmp_path / name
        assert main(argv + ["--config", str(cfg), "--out", str(out), *extra]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        echoed[name] = manifest["meta"] if command == "gen" else manifest["params"]
    assert echoed["file"][key] == file_value
    assert echoed["flag"][key] == type(file_value)(flag_text)
    if command != "gen":
        for params in echoed.values():
            assert params["gamma"] == DEFAULT_GAMMA
            assert params["kmax"] == DEFAULT_KMAX
            assert params["path_len_N"] == DEFAULT_PATH_LEN
