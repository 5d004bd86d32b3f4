"""The benchmark's tracer wraps ``zenosat.solver.kraus_measure`` and reads the
shape of its second argument; a traced heralded run must keep working with
the pure-state kernel.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_discrete_heralded_benchmark_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "herald_n6_disc", "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0, last
    assert last["metrics"]["dynamics.kraus_measure.calls"]["value"] > 0
