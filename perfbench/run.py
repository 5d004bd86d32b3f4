"""Benchmark of zenosat.solver.run_full on four workloads.

    python3 perfbench/run.py --workload avg_n2_long --seed 1 --seconds 20 --trace 0

Run from the repository root. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run, --seconds 0 makes two
untimed runs through the correctness gate. The last line of output is a JSON
summary; the full report, with every per-run sample, goes to perfbench/out/.
See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here, before NumPy is imported

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # at most nproc; one thread keeps timings steady on a shared host


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time; 0 makes two untimed runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print setup_s (used for the setup_s median)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "zenosat" / "__init__.py").is_file():
        print(f"error: zenosat sources not found under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import bench

    return bench.main(args, T0)


if __name__ == "__main__":
    sys.exit(main())
