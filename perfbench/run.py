"""ishtc benchmark: one closed-loop workload, timed, checked and reported.

    python3 perfbench/run.py --workload sweep-dense --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root; the program is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, the ``per_layer`` ones with ``--trace 1``.
A traced run measures half of ``--seconds`` untraced and then half traced,
on the same call sequence, so it reports its own tracing overhead. Every run
writes ``.perfbench/<workload>-seed<seed>-trace<t>.json`` (host block,
per-call times, all metrics); a traced run also writes its spans to
``.perfbench/<workload>.spans.npz``. See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7  # this process plus six fresh ones


def import_program() -> None:
    """Import ishtc from this checkout's ``src/``, never from elsewhere."""
    init = ROOT / "src" / "ishtc" / "__init__.py"
    if not init.is_file():
        sys.exit("perfbench: src/ishtc not found; run from the root of a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import ishtc

    if Path(ishtc.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported ishtc from {ishtc.__file__}, expected {init}")


def setup_child(workload: str, profile: str) -> float:
    """Set-up time of a fresh process: imports, warm-up and temp dir."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload,
         "--profile", profile],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_calls(wl, seconds: float, seed: int, table, tracer=None) -> list:
    """Closed loop for ``seconds``, and never fewer calls than one full cycle of
    distinct seeds; one checked record per call."""
    from workloads import call_seed

    call = wl.call if tracer is None else tracer.wrap("bench.op", wl.call)
    calls = []
    deadline = time.perf_counter() + seconds
    j = 0
    while j < wl.cycle or time.perf_counter() < deadline:
        base = call_seed(seed, j, wl.cycle)
        if tracer is not None:
            tracer.op_index = j
        res = None
        t0 = time.perf_counter()
        try:
            res = call(base)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if res is None:
            ok = False
        elif table is not None:
            ok = res.output == table[j % wl.cycle]
        else:
            ok = wl.check(res, base)
        if not ok:
            print(f"perfbench: call {j} (seed {base}) failed its output check", file=sys.stderr)
        calls.append({"j": j, "ok": ok, "res": res, "dt": dt})
        j += 1
    return calls


def end_to_end(calls: list, cycle: int, setup_s: float, psnr: float) -> tuple:
    """End-to-end metrics of a list of calls, and the call-time median and
    tail, which go to the result file only.

    Rates use the first call of each distinct seed. Every run makes at least
    one full cycle, so that base is every seed of the family and the rates
    are fixed for a given ``--seed``; times use every call.
    """
    from layers import tail

    done = [c for c in calls if c["res"] is not None]
    distinct = {}
    for c in done:
        distinct.setdefault(c["j"] % cycle, c["res"])
    d_trials = sum(r.trials for r in distinct.values())
    times = [c["dt"] for c in done]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (sum(c["res"].trials for c in done) / sum(times), "1/s"),
        "success_rate": (sum(r.successes for r in distinct.values()) / d_trials, "fraction"),
        "finite_frac": (1.0 - sum(r.diverged for r in distinct.values()) / d_trials, "fraction"),
        "psnr_db": (psnr, "dB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"call_samples": len(times), "call_s_p50": statistics.median(times),
                     "call_s_tail": tail_s, "call_tail_percentile": tail_pct}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "toy"), default="full",
                    help="toy sizes are for --self-check")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload once at toy size and validate the result schema")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.self_check:
        import selfcheck

        return selfcheck.run(Path(__file__), ROOT)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    wl = None
    try:
        wl = WORKLOADS[args.workload](args.profile, tmp)
        wl.warm_up()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, wl, setup_s)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, wl, setup_s: float) -> int:
    import numpy as np
    from host import host_block
    from layers import layer_metrics
    from tracer import Tracer
    from workloads import SEED_CLASSES, call_seed

    setups = [setup_s] + [setup_child(args.workload, args.profile) for _ in range(SETUP_REPEATS - 1)]
    setup_med = statistics.median(setups)
    table = None
    if wl.recorded:
        with open(HERE / "expected.json") as fh:
            table = json.load(fh)[wl.name][args.profile][str(args.seed % SEED_CLASSES)]

    if args.trace == 0:
        all_calls = run_calls(wl, args.seconds, args.seed, table)
    else:
        plain = run_calls(wl, args.seconds / 2, args.seed, table)
        tracer = Tracer()
        tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            traced = run_calls(wl, args.seconds / 2, args.seed, table, tracer)
        finally:
            tracer.uninstall()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        all_calls = plain + traced

    ref_ok = True
    if table is not None:
        try:
            psnr, ref_ok = wl.reference(call_seed(args.seed, 0, wl.cycle), table[0])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            psnr, ref_ok = 0.0, False
        if not ref_ok:
            print("perfbench: public-API re-solve failed or disagrees with the recorded outcome",
                  file=sys.stderr)
    else:
        psnrs = {}
        for c in all_calls:
            if c["res"] is not None and c["res"].psnr is not None:
                psnrs.setdefault(c["j"] % wl.cycle, c["res"].psnr)
        psnr = statistics.median(psnrs.values()) if psnrs else 0.0

    extra: dict = {"setup_samples_s": setups}
    if args.trace == 0:
        e2e, info = end_to_end(all_calls, wl.cycle, setup_med, psnr)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        extra.update(info)
    else:
        un, _ = end_to_end(plain, wl.cycle, setup_med, psnr)
        tr, info = end_to_end(traced, wl.cycle, setup_med, psnr)
        cols = tracer.spans()
        np.savez(OUT / f"{_prefix(args)}{wl.name}.spans.npz", **cols)
        layers = layer_metrics(
            tracer, cols,
            trials=sum(c["res"].trials for c in traced if c["res"] is not None),
            wall_s=wall, cpu_s=cpu, workers=wl.workers, nproc=os.cpu_count() or 1,
            peak_rss_mb=tr["peak_rss_mb"][0],
            untraced_tps=un["trials_per_s"][0], traced_tps=tr["trials_per_s"][0],
        )
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        extra.update(info, spans=int(cols["id"].size),
                     untraced={k: v for k, (v, _) in un.items()},
                     traced={k: v for k, (v, _) in tr.items()})

    failed = sum(not c["ok"] for c in all_calls) + (not ref_ok)
    attempted = len(all_calls) + (table is not None)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": wl.name, "profile": args.profile, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_block(ROOT), **extra,
        "call_times_s": [c["dt"] for c in all_calls], "result": result,
    }
    path = OUT / f"{_prefix(args)}{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"perfbench: {wl.name} seed {args.seed}: {len(all_calls)} calls, {failed} failed; "
          f"call time p50 {info['call_s_p50']:.4g} s, p{info['call_tail_percentile']:.0f} "
          f"{info['call_s_tail']:.4g} s of {info['call_samples']} calls; "
          f"wrote {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def _prefix(args) -> str:
    return "" if args.profile == "full" else f"{args.profile}-"


if __name__ == "__main__":
    sys.exit(main())
