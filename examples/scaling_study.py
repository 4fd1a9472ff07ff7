"""Modeled strong-scaling study on the paper's real tensors.

The paper fixes P = 32; this extension sweeps P = 2^2 .. 2^10 with the
model executor and shows how the algorithm ranking evolves: communication
optimization matters more as P grows (TTM compute shrinks like 1/P while
reduce-scatter volume grows with (q_n - 1)).

Run:  python examples/scaling_study.py
"""

from repro.bench.algorithms import ALGORITHMS, make_planner, paper_label
from repro.bench.suite import REAL_TENSORS
from repro.hooi.model import predict
from repro.dist.machine import MachineModel


def main() -> None:
    machine = MachineModel.bgq_like()
    for name in ("HCCI", "SP"):
        meta = REAL_TENSORS[name]
        print("=" * 76)
        print(f"{name} {meta}: modeled single-invocation seconds vs P")
        header = f"{'P':>6s}" + "".join(
            f"{paper_label(a):>10s}" for a in ALGORITHMS
        ) + f"{'best prior / OPT':>20s}"
        print(header)
        for exp in range(2, 11):
            p = 2**exp
            row = f"{p:6d}"
            totals = {}
            for alg in ALGORITHMS:
                try:
                    plan = make_planner(alg, p).plan(meta)
                    totals[alg] = predict(plan, machine).total_seconds
                    row += f"{totals[alg]:10.2f}"
                except ValueError:
                    # no valid grid at this P (q_n <= K_n infeasible)
                    row += f"{'-':>10s}"
            if "opt-dynamic" in totals:
                prior = min(
                    totals[a]
                    for a in ("chain-k", "chain-h", "balanced")
                    if a in totals
                )
                row += f"{prior / totals['opt-dynamic']:19.2f}x"
            print(row)
        print()
    print("Reading: OPT's advantage grows through the paper's regime")
    print("(P = 32..128) as communication volume becomes the binding")
    print("resource, then narrows at extreme P where per-rank work is tiny")
    print("and alpha latency — which the volume-only planner cannot see —")
    print("dominates every algorithm.")


if __name__ == "__main__":
    main()
