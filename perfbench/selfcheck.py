"""Self-check: each workload of workloads.py once at toy size, untraced and
traced, the ones BENCHMARK.json does not list included.

Checks that layers.json gives, for every per-layer metric of BENCHMARK.json,
a known end-to-end metric and workloads it should move. Validates the result
schema of every run: exactly the keys ``correct``/``attempted``/``failed``/
``metrics``, every end-to-end (or per-layer) metric present with its unit and
a finite value, and no failed call. There is no timing gate.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path


def _check_result(line: str, expect: dict) -> list:
    errors = []
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
        return errors
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        errors.append(f"attempted = {res['attempted']!r}")
    if res["failed"] != 0 or res["correct"] is not True:
        errors.append(f"correct = {res['correct']}, failed = {res['failed']}")
    got = res["metrics"]
    if set(got) != set(expect):
        errors.append(f"metric names differ: missing {sorted(set(expect) - set(got))}, "
                      f"extra {sorted(set(got) - set(expect))}")
    for name, unit in expect.items():
        m = got.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            errors.append(f"{name}: {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{name}: value {m['value']!r}")
    return errors


def run(script: Path, root: Path) -> int:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    layers = json.loads((script.parent / "layers.json").read_text())
    from workloads import WORKLOADS

    workloads = list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for name in sorted(set(per_layer) | set(layers)):
        row = layers.get(name)
        if name not in per_layer or row is None:
            errors.append(f"{name}: in only one of BENCHMARK.json per_layer and layers.json")
        elif row["moves"] not in e2e or not set(row["on"]) <= set(workloads):
            errors.append(f"layers.json {name}: unknown metric or workload in moves/on")
    for workload in workloads:
        for trace, expect in ((0, e2e), (1, per_layer)):
            cmd = [sys.executable, str(script), "--workload", workload, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--profile", "toy"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            found = [f"{label}: {e}" for e in _check_result(proc.stdout.strip().splitlines()[-1], expect)]
            errors += found
            print(f"{label}: {'ok' if not found else 'FAILED'}", file=sys.stderr)
    for e in errors:
        print(f"self-check: {e}", file=sys.stderr)
    print("self-check:", "ok" if not errors else f"{len(errors)} problem(s)")
    return 0 if not errors else 1
