"""Why the power step squares instead of multiplying one step at a time.

Connecting every node to its floor(N/2)-th indirect neighbors needs the
adjacency matrix raised (in the boolean semiring) to a power of at least
k = floor(N/2).  Multiplying sequentially costs k - 1 products; squaring
m = ceil(log2(k)) times reaches the exponent 2^m >= k.  Any exponent >= k
yields the same partition, so the cheap route is safe -- this script prints
both counts side by side and then verifies the "same partition" claim on a
random instance.

Run from the repository root:

    python3 demos/02_multiplication_costs.py
"""

import numpy as np

from radclust.clustering import mask_labels
from radclust.geometry import ClusteringConfig, PointSet, build_adjacency
from radclust.matpower import make_power_plan, power_fast, power_naive_oracle

SIZES = [2, 7, 10, 50, 100, 500, 1000, 5000, 10000]


def main() -> None:
    print(f"{'N':>6}  {'k':>5}  {'m':>2}  {'sequential':>10}  {'squaring':>8}")
    for n in SIZES:
        plan = make_power_plan(n)
        print(
            f"{plan.n:>6}  {plan.k:>5}  {plan.m:>2}"
            f"  {plan.naive_mults:>10}  {plan.m:>8}"
        )

    # The overshoot changes nothing: cluster a random instance both ways.
    rng = np.random.default_rng(0)
    ps = PointSet(rng.random((60, 2)))
    adjacency = build_adjacency(ps, ClusteringConfig(radius=0.16))
    g_fast, mults = power_fast(adjacency)
    g_slow = power_naive_oracle(adjacency)
    same = mask_labels(g_fast) == mask_labels(g_slow)
    print(f"\n60 random points: squared power used {mults} products,")
    print(f"sequential used {make_power_plan(60).naive_mults}; same partition: {same}")


if __name__ == "__main__":
    main()
