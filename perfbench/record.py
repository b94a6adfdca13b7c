"""Record the outputs the sweep and grid workloads must reproduce.

    python3 perfbench/record.py

Runs every call a benchmark run can make (each recorded workload, both
profiles, each seed family, each call of its cycle) and writes the outputs
to perfbench/expected.json: the success rates per s value for sweep-dense
and the successes grid for phase-2w.
Run it only on a commit whose outputs are known good; the benchmark then
counts any call that differs as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT, import_program  # noqa: E402


def main() -> int:
    import_program()
    from workloads import SEED_CLASSES, WORKLOADS, call_seed

    table = {}
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=OUT))
    try:
        for name in [n for n, w in WORKLOADS.items() if w.recorded]:
            for profile in ("toy", "full"):
                wl = WORKLOADS[name](profile, tmp)
                try:
                    table.setdefault(name, {})[profile] = {
                        str(cls): [wl.call(call_seed(cls, j, wl.cycle)).output for j in range(wl.cycle)]
                        for cls in range(SEED_CLASSES)
                    }
                finally:
                    wl.close()
                print(f"recorded {name} {profile}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(table, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
