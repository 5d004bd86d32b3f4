"""Write perfbench/reference.json: the avg_n9_dense instance pool and the
p_s / purity that each averaged-workload input must reproduce.

    python3 perfbench/make_reference.py             # recompute the values only
    python3 perfbench/make_reference.py --pool 24   # draw a new n=9 pool first

The pool holds uniform random 3-SAT instances at n=9, m=18 (the distribution
of satcore.random_instance: three distinct variables per clause, fair signs)
that have exactly one solution. About one in 2*10^5 qualifies, so they are
drawn here in vectorised batches and confirmed by satcore.enumerate_solutions.
Rerun this script only when a change is meant to alter averaged-mode results.
"""

import argparse
import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from zenosat import satcore, solver  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 20261017
BATCH = 20000


def draw_pool(count: int, seed: int) -> list[str]:
    """``count`` unique-solution instances as DIMACS text."""
    n, alpha, k = workloads.N9_SHAPE
    m = satcore.num_clauses_for(n, alpha)
    rows = np.arange(1 << n)
    truth = (rows[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1 == 1
    # lit_words[2v + neg]: the assignments satisfying that literal, as a bitset
    sat = np.stack([truth[:, v] != neg for v in range(n) for neg in (False, True)])
    lit_words = np.packbits(sat, axis=1, bitorder="little").view(np.uint64)
    rng = np.random.default_rng(seed)
    pool = []
    while len(pool) < count:
        var = np.argsort(rng.random((BATCH, m, n)), axis=2)[:, :, :k]
        neg = rng.random((BATCH, m, k)) < 0.5
        clause_sets = np.bitwise_or.reduce(lit_words[2 * var + neg], axis=2)
        solutions = np.bitwise_count(np.bitwise_and.reduce(clause_sets, axis=1)).sum(axis=1)
        for b in np.flatnonzero(solutions == 1):
            f = satcore.formula(n, *np.where(neg[b], -(var[b] + 1), var[b] + 1).tolist())
            if satcore.enumerate_solutions(f).count != 1:
                raise AssertionError("bitset count disagrees with the oracle")
            pool.append(satcore.write_dimacs(f))
    return pool[:count]


def reference_values(name: str, instances) -> dict:
    wl = workloads.WORKLOADS[name]
    out = {}
    for inst in instances:
        run = solver.run_full(inst.formula, wl.cfg, np.random.default_rng(0))
        out[inst.label] = workloads.final_state_values(run, inst, wl.cfg)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", type=int, default=0, help="draw a new pool of this size")
    args = parser.parse_args()

    path = workloads.REFERENCE_PATH
    ref = json.loads(path.read_text()) if path.exists() else {}
    if args.pool:
        ref["n9_pool"] = draw_pool(args.pool, POOL_SEED)
    n9 = [
        workloads.Instance(f"n9-{i}", f, satcore.enumerate_solutions(f))
        for i, f in enumerate(map(satcore.parse_dimacs, ref["n9_pool"]))
    ]
    ref["avg_n2_long"] = reference_values(
        "avg_n2_long", workloads.make_instances("avg_n2_long", 0, ref))
    ref["avg_n9_dense"] = reference_values("avg_n9_dense", n9)
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
