"""Cost asymmetry in de Bruijn graphs.

De Bruijn routing is deterministic and the graph looks regular, yet the
burden is uneven: repeated-symbol words such as 000 and 111 relay no
traffic at all, while words with distinct digits sit on many shortest
paths. This script enumerates five graphs exactly (a=1, r=1000) and
prints the spread of access and routing costs, then verifies the
enumerated extremes against their closed forms.
"""

import numpy as np

from dhtcostlab import (
    CostParams,
    DeBruijn,
    build,
    debruijn_bounds,
    debruijn_l_max,
    enumerate_exact,
    is_repeated_symbol_node,
)

GRAPHS = [(2, 9), (3, 6), (4, 4), (5, 4), (6, 3)]


def main() -> None:
    params = CostParams(s=0.0, a=1.0, r=1000.0, m=0.0)
    print(f"{'graph':>8} {'N':>5} {'A_min':>7} {'A_max':>7} "
          f"{'R_min>0':>8} {'R_max':>7}")
    for delta, d in GRAPHS:
        spec = DeBruijn(delta=delta, d=d)
        report = enumerate_exact(build(spec), params)
        agg = report.aggregates
        print(f"({delta},{d:>2}) {spec.node_count:>7} {agg.access.min:7.2f} "
              f"{agg.access.max:7.2f} {agg.second_min_routing:8.2f} "
              f"{agg.routing.max:7.2f}")

    delta, d = 3, 6
    spec = DeBruijn(delta=delta, d=d)
    report = enumerate_exact(build(spec), params)
    routing = report.component("routing")
    silent = [node for node in range(spec.node_count)
              if is_repeated_symbol_node(spec, node)]
    print()
    print(f"({delta},{d}): routing cost is zero exactly on the "
          f"{len(silent)} repeated-symbol words "
          f"{[spec.label(n) for n in silent]}")
    assert set(np.flatnonzero(routing == 0)) == set(silent)

    bounds = debruijn_bounds(params, delta, d)
    print(f"enumerated A_min {report.aggregates.access.min:.6f} "
          f"== closed form {bounds.a_min:.6f}")
    peak = round(report.component("routing").max() * spec.node_count**2 / params.r)
    print(f"enumerated max relayed pairs {peak} <= closed-form cap "
          f"{debruijn_l_max(delta, d)} (attained only when delta >= d)")

    delta, d = 6, 3
    spec = DeBruijn(delta=delta, d=d)
    report = enumerate_exact(build(spec), params)
    peak = round(report.component("routing").max() * spec.node_count**2 / params.r)
    print(f"({delta},{d}) has delta >= d, and there the cap is tight: "
          f"{peak} == {debruijn_l_max(delta, d)}")


if __name__ == "__main__":
    main()
