"""A tour of the FLAME-derived algorithm family (paper Sections II–III).

Walks through:
1. the dense linear-algebra *specification* (four equivalent formulas),
2. the partitioned post-condition and its category sums (eq. 8/9),
3. a literal FLAME worksheet executed with partition views,
4. all 8 loop invariants, checked at every iteration of their algorithms,
5. a timing table of the 8 members × 2 strategies on a dataset stand-in.

Run:  python examples/algorithm_family_tour.py
"""

from repro import ALL_INVARIANTS, count_butterflies_unblocked, load_dataset
from repro.bench import Sweep, TimedResult, time_callable
from repro.core.spec import (
    butterflies_spec_adjacency,
    butterflies_spec_trace,
    butterflies_spec_upper,
    partitioned_spec_columns,
)
from repro.flame import ColumnPartition, check_invariant_trace
from repro.graphs import power_law_bipartite
from repro.sparsela.kernels import choose2_sum


def section(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    g = power_law_bipartite(80, 100, 500, seed=3)
    a = g.biadjacency_dense()

    section("1. The specification (Section II)")
    upper = butterflies_spec_upper(g)
    trace = butterflies_spec_trace(g)
    adj = butterflies_spec_adjacency(g)
    print(f"eq. (1) strict-upper-triangle form : {upper}")
    print(f"eq. (2) trace form                 : {trace}")
    print(f"eq. (7) adjacency trace form       : {adj}")
    assert upper == trace == adj

    section("2. Partitioned post-condition (eqs. 8-10)")
    split = g.n_right // 2
    xl, xlr, xr = partitioned_spec_columns(g, split)
    print(f"split V2 at {split}:  Ξ_L={xl}  Ξ_LR={xlr}  Ξ_R={xr}  "
          f"(sum {xl + xlr + xr})")
    assert xl + xlr + xr == upper

    section("3. A FLAME worksheet, executed (Fig. 6, Algorithm 2)")
    # Loop invariant 2: Ξ = Ξ_L + Ξ_LR.  Per-iteration update (eq. 18):
    #   Ξ += Σ_u C(y_u, 2)  with  y = A₂ᵀ a₁.
    part = ColumnPartition(a, forward=True)
    running = 0
    while not part.done():
        a0, a1, a2 = part.repartition()
        y = a2.T @ a1
        running += choose2_sum(y)
        part.continue_with()
    print(f"worksheet result: {running}")
    assert running == upper

    section("4. All 8 loop invariants hold at every iteration")
    for inv in ALL_INVARIANTS:
        total = check_invariant_trace(g, inv)
        print(f"  {inv.description:70s} -> {total} ✔")

    section("5. Timing the family on the arXiv stand-in")
    ds = load_dataset("arxiv")
    sweep = Sweep(title="family timing (seconds)")
    for strategy in ("spmv", "scratch"):
        for inv in ALL_INVARIANTS:
            res = time_callable(
                lambda inv=inv, s=strategy: count_butterflies_unblocked(
                    ds, inv, strategy=s
                ),
                repeats=1,
            )
            sweep.record(strategy, f"Inv.{inv.number}", TimedResult(
                label="", seconds=res.seconds, value=res.value
            ))
    print(sweep.render())
    assert sweep.values_agree()
    print("\nevery member returned the same count ✔")


if __name__ == "__main__":
    main()
