"""The benchmark's tracer wraps the kernels where ``zenosat.solver`` looks them
up when a run starts and reads the shape of their second argument; a traced
run of each clause-local mode and of the continuum trajectory must keep
working and must count its kernel's calls, one per step for the discrete
kernels, and a heralded run its filter updates, one per step, so that a
renamed or import-time-bound kernel or filter method fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# workload -> the clause-local or trajectory kernel its runs call
KERNELS = {"herald_n6_disc": "kraus_measure", "avg_n9_dense": "average_map",
           "herald_n2_cont": "sme_step"}


@pytest.mark.parametrize("workload", list(KERNELS))
def test_traced_benchmark_counts_kernel(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0, last
    metrics = last["metrics"]
    assert metrics[f"dynamics.{KERNELS[workload]}.calls"]["value"] > 0
    if workload in ("herald_n6_disc", "avg_n9_dense"):
        # the discrete kernels advance every clause in one call per step
        calls = metrics[f"dynamics.{KERNELS[workload]}.calls"]["value"]
        assert calls == metrics["solver.steps"]["value"]
    if workload in ("herald_n6_disc", "herald_n2_cont"):
        # one filter update per step, through the method a run looks up when it starts
        assert metrics["herald.update.calls"]["value"] == metrics["solver.steps"]["value"]
