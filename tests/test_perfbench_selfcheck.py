"""Smoke test of the benchmark under ``perfbench/``.

``perfbench/run.py --self-check`` runs every workload once at toy size,
untraced and traced, and checks the result schema; it has no timing bound.
It fails when a change removes or renames an ``ishtc`` name that the
benchmark calls or that its tracer rebinds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_check():
    # The timeout only guards against a hang; the check itself is untimed.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=1800,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check: ok" in proc.stdout
