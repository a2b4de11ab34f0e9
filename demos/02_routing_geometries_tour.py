"""A route through each of the five supported geometries.

Builds one small instance per geometry and walks the canonical route
between two nodes, printing the hop labels so the forwarding rule is
visible: stars bounce through the hub, de Bruijn graphs shift digits in,
tori fix one coordinate per step along the shorter arc, Plaxton trees
correct digits from the most significant end, and Chord rings clear the
highest bit of the remaining clockwise gap.
"""

from dhtcostlab import (
    ChordRing,
    DeBruijn,
    PlaxtonTree,
    Star,
    Torus,
    build,
    canonical_route,
)

TOUR = [
    (Star(n=8), 3, 6),
    (DeBruijn(delta=2, d=4), 0b0110, 0b0011),
    (Torus(d=2, n_side=5), 0, 18),
    (PlaxtonTree(delta=3, d=3), 5, 22),
    (ChordRing(d=4), 3, 2),
]


def main() -> None:
    for spec, source, destination in TOUR:
        topology = build(spec)
        route = canonical_route(topology, source, destination)
        hops = " -> ".join(spec.label(node) for node in route.hops)
        print(f"{spec}")
        print(f"  {route.hop_count} hops: {hops}")
        print(f"  out-degree of source: {topology.degree(source)}")
        print()


if __name__ == "__main__":
    main()
