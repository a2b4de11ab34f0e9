"""Mean access cost across geometries as the network grows.

Short routes are the star's whole sales pitch: two hops anywhere, so
its mean access cost stays below 2a forever, while every decentralized
geometry pays logarithmically or worse. The flip side, shown in the
last column, is the hub's routing bill growing linearly with N.
"""

from dhtcostlab import (
    ChordRing,
    CostParams,
    DeBruijn,
    Star,
    Torus,
    analytic_report,
    build,
    enumerate_exact,
)


def mean_access(spec, params) -> float:
    return enumerate_exact(build(spec), params).aggregates.access.mean


def main() -> None:
    params = CostParams(s=0.0, a=1.0, r=1000.0, m=0.0)
    print(f"{'N':>5} {'star':>7} {'chord':>7} {'debruijn':>9} {'torus2':>7} "
          f"{'star hub routing':>17}")
    for d in (4, 6, 8):
        n = 2**d
        star = analytic_report(Star(n=n), params)
        chord = mean_access(ChordRing(d=d), params)
        debruijn = mean_access(DeBruijn(delta=2, d=d), params)
        side = round(n**0.5)
        torus = mean_access(Torus(d=2, n_side=side), params)
        hub_routing = star.routing[0]
        print(f"{n:>5} {star.aggregates.access.mean:>7.3f} {chord:>7.3f} "
              f"{debruijn:>9.3f} {torus:>7.3f} {hub_routing:>17.1f}")
    print()
    print("star access approaches 2a from below while its hub relays "
          "(N-1)(N-2)/N^2 of all pairs")


if __name__ == "__main__":
    main()
