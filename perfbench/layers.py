"""Per-layer metrics of a traced run, from its spans and boundary counts.

Counts and self times are per trial of the traced half (a sweep or grid
trial, or one CLI gen+path pair), so they do not grow with how many calls
fit in the run. Durations (``us_p50``, ``ms_p50``, ``ms_tail``) are of single
spans. A metric of a layer the workload never enters reads 0. Every ratio's
base is given next to it. Names and units are the ``per_layer`` list of
BENCHMARK.json; perfbench/layers.json names the end-to-end metric and
workload each one should move.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def tail(values) -> tuple:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, by nearest rank. Below 20 samples that percentile would sit
    under the median, so p90 by nearest rank is reported instead (the maximum
    below ten samples). Not the maximum of ten or more: on a shared host one
    slow call decides it, and it spread by more than 0.25 of its median
    across seeds."""
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n
    k = math.ceil(0.9 * n)
    return xs[k - 1], 100.0 * k / n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, cols, trials, wall_s, cpu_s, workers, nproc, peak_rss_mb,
                  untraced_tps, traced_tps) -> dict:
    """name -> (value, unit) for every per_layer metric of BENCHMARK.json."""
    names = list(cols["names"])
    dur = cols["t1"] - cols["t0"]

    def mask(name):
        return cols["name"] == names.index(name) if name in names else np.zeros(dur.size, bool)

    def calls(name):
        return float(mask(name).sum())

    def self_s(name):
        return float(cols["self"][mask(name)].sum())

    def p50(name):
        m = mask(name)
        return float(np.median(dur[m])) if m.any() else 0.0

    def per_trial(x):
        return _ratio(x, trials)

    st = tracer.stats()
    v = {}
    for op in ("apply", "apply_adjoint"):
        v[f"linop.{op}.calls"] = per_trial(calls(f"linop.{op}"))
        v[f"linop.{op}.self_s"] = per_trial(self_s(f"linop.{op}"))
        v[f"linop.{op}.us_p50"] = 1e6 * p50(f"linop.{op}")
    # Dense matvecs only: 8*n*p matrix bytes per call over their self time.
    mv = (mask("linop.apply") | mask("linop.apply_adjoint")) & (cols["work"] > 0)
    v["linop.matvec_gbps_computed"] = 1e-9 * _ratio(
        float(cols["work"][mv].sum()), float(cols["self"][mv].sum()))
    # Operator applications the solver's own counter leaves out: the residual
    # apply at each path level, and the apply that makes y in gen_problem.
    applied = calls("linop.apply") + calls("linop.apply_adjoint")
    v["linop.uncounted_apply.calls"] = per_trial(applied - st["n_matvec"])
    v["linop.make_partial_fft_haar.calls"] = per_trial(calls("linop.make_partial_fft_haar"))
    v["linop.make_partial_fft_haar.self_s"] = per_trial(self_s("linop.make_partial_fft_haar"))
    v["linop.normalize_columns.self_s"] = per_trial(self_s("linop.normalize_columns"))

    v["probgen.gen_problem.calls"] = per_trial(calls("probgen.gen_problem"))
    v["probgen.gen_problem.self_s"] = per_trial(self_s("probgen.gen_problem"))
    v["probgen.gen_problem.ms_p50"] = 1e3 * p50("probgen.gen_problem")
    # Base: matrices built. Distinct = distinct (generator, arguments) within
    # one closed-loop call, summed over calls.
    keys = tracer.matrix_keys
    v["probgen.matrix_regen_frac"] = 1.0 - _ratio(len(set(keys)), len(keys)) if keys else 0.0

    v["thresholding.threshold_vector.calls"] = per_trial(calls("thresholding.threshold_vector"))
    v["thresholding.threshold_vector.self_s"] = per_trial(self_s("thresholding.threshold_vector"))
    tv = mask("thresholding.threshold_vector")
    v["thresholding.threshold_vector.ns_per_elem"] = 1e9 * _ratio(
        float(cols["self"][tv].sum()), float(cols["work"][tv].sum()))

    v["solver.continuation_solve.calls"] = per_trial(calls("solver.continuation_solve"))
    v["solver.continuation_solve.self_s"] = per_trial(self_s("solver.continuation_solve"))
    v["solver.inner_iterate.us_p50"] = 1e6 * p50("solver.inner_iterate")
    v["solver.levels"] = per_trial(st["levels"])
    v["solver.n_matvec"] = per_trial(st["n_matvec"])
    # Base: levels of the paths that were returned (diverged runs return none).
    v["solver.levels_saturated_frac"] = _ratio(st["levels_saturated"], st["levels_returned"])
    v["solver.diverged"] = per_trial(st["diverged"])
    # Base: all matvecs counted by the solver, diverged runs included.
    v["solver.diverged_matvec_frac"] = _ratio(st["diverged_matvec"], st["n_matvec"])

    rfp = dur[mask("modelselect.run_full_path")]
    v["modelselect.run_full_path.ms_p50"] = 1e3 * p50("modelselect.run_full_path")
    v["modelselect.run_full_path.ms_tail"] = 1e3 * float(tail(rfp)[0]) if rfp.size else 0.0
    v["modelselect.select_bic.calls"] = per_trial(calls("modelselect.select_bic"))
    v["modelselect.select_bic.self_s"] = per_trial(self_s("modelselect.select_bic"))

    # Base: wall time of the traced half times the cores.
    v["experiments.cpu_util"] = _ratio(cpu_s, wall_s * nproc)
    # Base: wall time of the sweep/grid calls times their worker count.
    experiment_s = sum(float(dur[mask(f"experiments.{d}")].sum())
                  for d in ("support_probability_sweep", "phase_transition_grid"))
    v["experiments.task_busy_frac"] = _ratio(
        float(dur[mask("experiments.task")].sum()), workers * experiment_s)

    v["probgen.save_problem.self_s"] = per_trial(self_s("probgen.save_problem"))
    v["probgen.load_problem.self_s"] = per_trial(self_s("probgen.load_problem"))
    for fn in ("write_array", "read_array"):
        v[f"storage.{fn}.bytes"] = per_trial(float(cols["work"][mask(f"storage.{fn}")].sum()))
        v[f"storage.{fn}.self_s"] = per_trial(self_s(f"storage.{fn}"))
    for sub in ("gen", "path"):
        v[f"cli.main.{sub}.s"] = per_trial(float(dur[mask(f"cli.main.{sub}")].sum()))
    cli = np.isin(cols["name"], [i for i, n in enumerate(names) if n.startswith("cli.")])
    v["cli.self_s"] = per_trial(float(cols["self"][cli].sum()))

    v["metrics.reconstruction_metrics.calls"] = per_trial(calls("metrics.reconstruction_metrics"))
    v["metrics.reconstruction_metrics.self_s"] = per_trial(self_s("metrics.reconstruction_metrics"))

    # Largest single PathResult held (solutions, supports and per-level arrays).
    v["solver.path_mb"] = st["path_bytes.max"] / 1e6
    v["solver.path_rss_share"] = _ratio(v["solver.path_mb"], peak_rss_mb)

    v["trace.trials"] = float(trials)
    v["trace.untraced_trials_per_s"] = untraced_tps
    v["trace.traced_trials_per_s"] = traced_tps
    # Base: traced throughput. 0.25 means the untraced half ran 25% faster.
    v["trace.overhead_frac"] = _ratio(untraced_tps, traced_tps) - 1.0 if traced_tps else 0.0

    mismatch = set(UNITS) ^ set(v)
    if mismatch:
        raise KeyError(f"per-layer metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
    return {name: (float(v[name]), UNITS[name]) for name in UNITS}
