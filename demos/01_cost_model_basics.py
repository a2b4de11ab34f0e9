"""Per-node cost accounting on a small Chord ring.

Every node pays four bills: serving the objects it stores, issuing
lookups, relaying other people's lookups, and maintaining links. This
script prices a 16-node ring and prints who pays what.
"""

from dhtcostlab import ChordRing, CostParams, build, enumerate_exact


def main() -> None:
    params = CostParams(s=4.0, a=1.0, r=1000.0, m=0.5)
    topology = build(ChordRing(d=4))
    report = enumerate_exact(topology, params)

    print(f"geometry: {topology}, {topology.node_count} nodes")
    print(f"prices: s={params.s} a={params.a} r={params.r} m={params.m}")
    print()
    print(f"{'node':>4} {'service':>8} {'access':>8} {'routing':>8} "
          f"{'maint':>8} {'total':>8}")
    for node, total in enumerate(report.total):
        print(f"{node:>4} {report.service[node]:8.3f} {report.access[node]:8.3f} "
              f"{report.routing[node]:8.3f} {report.maintenance[node]:8.3f} {total:8.3f}")

    agg = report.aggregates
    print()
    print("On a symmetric ring every node pays the same bill:")
    print(f"  total cost spread: {agg.total.max - agg.total.min:.3e}")
    print(f"  mean access {agg.access.mean:.3f} = a * mean route length")
    print(f"  mean routing {agg.routing.mean:.3f} = r * relayed pairs / N^2")


if __name__ == "__main__":
    main()
