"""Routing correctness for the five geometries.

The binding property everywhere: the canonical route is a simple path
along out-edges whose length equals the BFS graph distance.  Exhaustive
checks run on small instances; hypothesis samples the rest.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dhtcostlab import (
    ChordRing,
    DeBruijn,
    InvalidParameterError,
    PlaxtonTree,
    ResourceLimitError,
    Star,
    Torus,
    bfs_distance,
    build,
    canonical_route,
    degree,
    is_repeated_symbol_node,
)
from dhtcostlab.topologies import Topology

SMALL_SPECS = [
    Star(n=1),
    Star(n=2),
    Star(n=7),
    DeBruijn(delta=2, d=1),
    DeBruijn(delta=2, d=4),
    DeBruijn(delta=3, d=3),
    Torus(d=1, n_side=2),
    Torus(d=1, n_side=7),
    Torus(d=2, n_side=4),
    Torus(d=2, n_side=5),
    Torus(d=3, n_side=3),
    PlaxtonTree(delta=2, d=4),
    PlaxtonTree(delta=4, d=2),
    ChordRing(d=1),
    ChordRing(d=5),
]


def assert_canonical(topology: Topology, src: int, dst: int):
    route = canonical_route(topology, src, dst)
    assert route.hops[0] == src and route.hops[-1] == dst
    assert len(set(route.hops)) == len(route.hops), "route revisits a node"
    for here, there in zip(route.hops, route.hops[1:]):
        assert there in topology.out_neighbors(here), "route leaves the edge set"
    assert route.hop_count == bfs_distance(topology, src, dst), "route is not shortest"


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_routes_are_shortest_simple_paths(spec):
    topology = build(spec)
    for src in topology.nodes():
        for dst in topology.nodes():
            assert_canonical(topology, src, dst)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_self_route_is_trivial(spec):
    topology = build(spec)
    for node in topology.nodes():
        route = canonical_route(topology, node, node)
        assert route.hops == (node,)
        assert route.hop_count == 0 and route.intermediates == ()


@pytest.mark.parametrize("spec", SMALL_SPECS + [Torus(d=3, n_side=2)], ids=str)
def test_degrees_match_out_neighbors(spec):
    topology = build(spec)
    degrees = topology.degrees()
    assert degrees.dtype == np.int64
    assert np.array_equal(degrees, [len(topology.out_neighbors(i)) for i in topology.nodes()])


@pytest.mark.parametrize("spec, count", [
    (Star(n=1), 1), (Star(n=2), 2), (Star(n=7), 2),
    (Torus(d=1, n_side=2), 1), (Torus(d=3, n_side=3), 1),
    (PlaxtonTree(delta=4, d=2), 1), (ChordRing(d=1), 1), (ChordRing(d=5), 1),
    # de Bruijn: the sum of the Stirling numbers S(d, k) over k <= delta
    (DeBruijn(delta=2, d=3), 4), (DeBruijn(delta=3, d=5), 41),
    (DeBruijn(delta=2, d=8), 128), (DeBruijn(delta=3, d=7), 365),
    (DeBruijn(delta=4, d=6), 187), (DeBruijn(delta=16, d=3), 5),
], ids=str)
def test_orbit_counts(spec, count):
    orbits = build(spec).orbits()
    assert orbits.dtype == np.int64
    assert sorted(set(orbits.tolist())) == list(range(count))


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_degrees_constant_on_orbits(spec):
    topology = build(spec)
    orbits, degrees = topology.orbits(), topology.degrees()
    for orbit in set(orbits.tolist()):
        assert len(set(degrees[orbits == orbit].tolist())) == 1


# ---------------------------------------------------------------------------
# construction and validation


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        Star(n=0)
    with pytest.raises(InvalidParameterError):
        DeBruijn(delta=1, d=3)
    with pytest.raises(InvalidParameterError):
        DeBruijn(delta=2, d=0)
    with pytest.raises(InvalidParameterError):
        Torus(d=0, n_side=4)
    with pytest.raises(InvalidParameterError):
        Torus(d=2, n_side=1)
    with pytest.raises(InvalidParameterError):
        PlaxtonTree(delta=2, d=0)
    with pytest.raises(InvalidParameterError):
        ChordRing(d=0)


def test_node_counts():
    assert Star(n=9).node_count == 9
    assert DeBruijn(delta=3, d=4).node_count == 81
    assert Torus(d=3, n_side=5).node_count == 125
    assert PlaxtonTree(delta=4, d=3).node_count == 64
    assert ChordRing(d=6).node_count == 64


def test_build_refuses_oversized_networks():
    with pytest.raises(ResourceLimitError):
        build(ChordRing(d=21))  # 2 million nodes
    with pytest.raises(ResourceLimitError):
        build(Star(n=100), max_nodes=99)
    assert build(Star(n=100), max_nodes=100).node_count == 100


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_build_returns_the_geometry_itself(spec):
    assert build(spec) is spec


@pytest.mark.parametrize("thing", [object(), "star"], ids=["object", "name"])
def test_build_refuses_a_non_geometry(thing):
    with pytest.raises(InvalidParameterError, match="unknown geometry"):
        build(thing)


@pytest.mark.parametrize("cls", [DeBruijn, PlaxtonTree], ids=lambda cls: cls.name)
def test_word_geometries_share_validation_under_their_own_name(cls):
    with pytest.raises(InvalidParameterError, match=f"^{cls.name} needs delta >= 2, got 1$"):
        cls(delta=1, d=2)
    with pytest.raises(InvalidParameterError, match=f"^{cls.name} needs d >= 1, got 0$"):
        cls(delta=2, d=0)


def test_word_geometries_with_equal_fields_differ():
    assert DeBruijn(delta=2, d=3) != PlaxtonTree(delta=2, d=3)


def test_out_of_range_nodes_rejected():
    topology = build(Star(n=4))
    with pytest.raises(InvalidParameterError):
        topology.route(0, 4)
    with pytest.raises(InvalidParameterError):
        topology.out_neighbors(-1)
    with pytest.raises(InvalidParameterError):
        bfs_distance(topology, 4, 0)


# ---------------------------------------------------------------------------
# star


def test_star_structure():
    topology = build(Star(n=6))
    assert topology.out_neighbors(0) == (1, 2, 3, 4, 5)
    assert topology.out_neighbors(3) == (0,)
    assert degree(topology, 0) == 5
    assert all(degree(topology, i) == 1 for i in range(1, 6))
    assert topology.route(2, 4) == [2, 0, 4]
    assert topology.route(0, 4) == [0, 4]
    assert topology.route(4, 0) == [4, 0]


# ---------------------------------------------------------------------------
# de Bruijn


def test_debruijn_neighbors_shift_and_append():
    topology = build(DeBruijn(delta=2, d=3))
    # node 011 -> shift to 11x
    assert topology.out_neighbors(0b011) == (0b110, 0b111)
    # repeated-symbol node 111 drops its self loop
    assert topology.out_neighbors(0b111) == (0b110,)
    assert degree(topology, 0b111) == 1
    assert degree(topology, 0b011) == 2


def test_debruijn_route_skips_overlap():
    topology = build(DeBruijn(delta=2, d=3))
    # 011 -> 110: suffix 11 equals prefix 11, one append suffices
    assert topology.route(0b011, 0b110) == [0b011, 0b110]
    # 000 -> 111 has no overlap, route spells out the destination
    assert topology.route(0b000, 0b111) == [0b000, 0b001, 0b011, 0b111]


def test_debruijn_d1_is_complete_digraph():
    topology = build(DeBruijn(delta=4, d=1))
    for node in topology.nodes():
        assert set(topology.out_neighbors(node)) == set(range(4)) - {node}
        for other in topology.nodes():
            expected = 0 if node == other else 1
            assert bfs_distance(topology, node, other) == expected


def test_repeated_symbol_nodes():
    spec = DeBruijn(delta=3, d=2)
    flagged = [n for n in range(9) if is_repeated_symbol_node(spec, n)]
    assert flagged == [0, 4, 8]  # 00, 11, 22
    with pytest.raises(InvalidParameterError):
        is_repeated_symbol_node(Star(n=3), 0)
    with pytest.raises(InvalidParameterError):
        is_repeated_symbol_node(spec, 9)


# ---------------------------------------------------------------------------
# torus


def test_torus_coords_roundtrip():
    topology = build(Torus(d=3, n_side=4))
    for node in topology.nodes():
        assert topology.node_at(topology.coords(node)) == node


def test_torus_neighbors_wrap():
    topology = build(Torus(d=2, n_side=4))
    node = topology.node_at((0, 3))
    assert set(topology.out_neighbors(node)) == {
        topology.node_at((1, 3)),
        topology.node_at((3, 3)),
        topology.node_at((0, 0)),
        topology.node_at((0, 2)),
    }
    assert degree(topology, node) == 4


def test_torus_degree_collapses_at_side_two():
    topology = build(Torus(d=3, n_side=2))
    # +1 and -1 moves coincide, so only d distinct neighbors remain
    assert all(degree(topology, n) == 3 for n in topology.nodes())


def test_torus_route_dimension_order_and_tiebreak():
    topology = build(Torus(d=2, n_side=4))
    src = topology.node_at((0, 0))
    dst = topology.node_at((2, 3))
    route = topology.route(src, dst)
    # first dimension corrected first; antipodal tie goes positive,
    # the second dimension takes the shorter negative arc
    coords = [tuple(topology.coords(v)) for v in route]
    assert coords == [(0, 0), (1, 0), (2, 0), (2, 3)]


def test_torus_route_changes_axes_in_order():
    topology = build(Torus(d=3, n_side=5))
    for src in (0, 31, 99):
        for dst in (7, 64, 124):
            route = topology.route(src, dst)
            axes = []
            for here, there in zip(route, route[1:]):
                a = [i for i in range(3)
                     if topology.coords(here)[i] != topology.coords(there)[i]]
                assert len(a) == 1
                axes.append(a[0])
            assert axes == sorted(axes)


# ---------------------------------------------------------------------------
# plaxton


def test_plaxton_neighbors_and_degree():
    topology = build(PlaxtonTree(delta=3, d=2))
    assert degree(topology, 0) == 4  # d * (delta - 1)
    # node 01 differs from 00, 02 (last digit) and 11, 21 (first digit)
    assert set(topology.out_neighbors(1)) == {0, 2, 4, 7}


def test_plaxton_route_corrects_leading_digit_first():
    topology = build(PlaxtonTree(delta=3, d=3))
    src = 0  # 000
    dst = 2 * 9 + 1 * 3 + 2  # 212
    route = topology.route(src, dst)
    assert route == [0, 2 * 9, 2 * 9 + 1 * 3, dst]


# ---------------------------------------------------------------------------
# chord


def test_chord_fingers():
    topology = build(ChordRing(d=3))
    assert topology.out_neighbors(5) == (6, 7, 1)
    assert all(degree(topology, n) == 3 for n in topology.nodes())


def test_chord_route_descends_powers_of_two():
    topology = build(ChordRing(d=3))
    assert topology.route(0, 5) == [0, 4, 5]
    assert topology.route(3, 2) == [3, 7, 1, 2]  # gap 7 = 4 + 2 + 1


def test_chord_hop_count_is_gap_popcount():
    topology = build(ChordRing(d=6))
    for src in (0, 17, 63):
        for dst in (0, 5, 44):
            gap = (dst - src) % 64
            assert len(topology.route(src, dst)) - 1 == bin(gap).count("1")


# ---------------------------------------------------------------------------
# labels


def test_labels():
    assert Star(n=5).label(3) == "3"
    assert DeBruijn(delta=2, d=4).label(5) == "0101"
    assert PlaxtonTree(delta=5, d=4).label(194) == "1234"
    assert DeBruijn(delta=12, d=2).label(23) == "1.11"
    assert Torus(d=2, n_side=4).label(7) == "(1,3)"
    assert ChordRing(d=4).label(5) == "0101"
    with pytest.raises(InvalidParameterError):
        ChordRing(d=4).label(16)


def reference_label(spec, node):
    """A node's label spelled out digit by digit."""
    if isinstance(spec, Star):
        return str(node)
    if isinstance(spec, ChordRing):
        base = 2
    else:
        base = spec.n_side if isinstance(spec, Torus) else spec.delta
    digits = []
    for _ in range(spec.d):
        node, digit = divmod(node, base)
        digits.insert(0, str(digit))
    if isinstance(spec, Torus):
        return "(" + ",".join(digits) + ")"
    return ("." if base > 10 else "").join(digits)


@pytest.mark.parametrize("spec", SMALL_SPECS + [
    DeBruijn(delta=12, d=2), PlaxtonTree(delta=11, d=3), Torus(d=1, n_side=13),
    Torus(d=2, n_side=11), ChordRing(d=8),
], ids=str)
def test_label_ranges_match_the_per_node_reference(spec):
    n = spec.node_count
    expected = [reference_label(spec, node) for node in range(n)]
    assert spec.labels(0, n) == expected
    topology = build(spec)
    assert [topology.label(node) for node in range(n)] == expected
    for start in range(n + 1):
        for stop in range(start, min(n, start + 25) + 1):
            assert spec.labels(start, stop) == expected[start:stop]


# ---------------------------------------------------------------------------
# generic distance helper


class TwoIslands(Topology):
    """Minimal topology with an unreachable pair, for the BFS sentinel."""

    def __init__(self):
        self.node_count = 2

    def out_neighbors(self, node):
        return ()


def test_bfs_distance_unreachable_is_none():
    topology = TwoIslands()
    assert bfs_distance(topology, 0, 1) is None
    assert bfs_distance(topology, 0, 0) == 0


# ---------------------------------------------------------------------------
# property tests


@st.composite
def any_spec(draw):
    kind = draw(st.sampled_from(["star", "debruijn", "torus", "plaxton", "chord"]))
    if kind == "star":
        return Star(n=draw(st.integers(1, 50)))
    if kind == "chord":
        return ChordRing(d=draw(st.integers(1, 8)))
    if kind == "torus":
        d = draw(st.integers(1, 3))
        side = draw(st.integers(2, {1: 100, 2: 12, 3: 6}[d]))
        return Torus(d=d, n_side=side)
    delta = draw(st.integers(2, 6))
    d = draw(st.integers(1, {2: 7, 3: 4, 4: 3, 5: 3, 6: 3}[delta]))
    if kind == "debruijn":
        return DeBruijn(delta=delta, d=d)
    return PlaxtonTree(delta=delta, d=d)


@given(any_spec(), st.data())
@settings(max_examples=150, deadline=None)
def test_random_routes_are_canonical(spec, data):
    topology = build(spec)
    src = data.draw(st.integers(0, topology.node_count - 1))
    dst = data.draw(st.integers(0, topology.node_count - 1))
    assert_canonical(topology, src, dst)


@given(st.integers(2, 6), st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_debruijn_degree_reflects_dropped_self_loop(delta, d, data):
    spec = DeBruijn(delta=delta, d=min(d, 3))
    topology = build(spec)
    node = data.draw(st.integers(0, topology.node_count - 1))
    if is_repeated_symbol_node(spec, node):
        assert degree(topology, node) == delta - 1
    else:
        assert degree(topology, node) == delta
