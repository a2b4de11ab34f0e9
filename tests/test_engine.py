"""Enumeration, simulation and comparison behavior.

The vectorized pair kernels are held to the scalar canonical routes;
enumeration is held to the closed forms; simulation is held to
enumeration.  Chains of custody, not vibes.
"""

import tracemalloc

import numpy as np
import pytest

from dhtcostlab import (
    ChordRing,
    CostParams,
    DeBruijn,
    InvalidParameterError,
    PlaxtonTree,
    ResourceLimitError,
    Star,
    Torus,
    UnsupportedParameterError,
    analytic_report,
    build,
    canonical_route,
    compare,
    enumerate_exact,
    is_repeated_symbol_node,
    route_census,
    simulate,
    simulate_seeds,
    torus_loading,
)
from dhtcostlab import engine
from dhtcostlab.engine import pair_kernel
from dhtcostlab.topologies import Topology

PRICED = CostParams(s=1.0, a=1.0, r=1000.0, m=0.5)

KERNEL_SPECS = [
    Star(n=1),
    Star(n=2),
    Star(n=9),
    DeBruijn(delta=2, d=1),
    DeBruijn(delta=2, d=5),
    DeBruijn(delta=3, d=3),
    DeBruijn(delta=5, d=2),
    Torus(d=1, n_side=2),
    Torus(d=1, n_side=6),
    Torus(d=2, n_side=2),
    Torus(d=2, n_side=5),
    Torus(d=3, n_side=4),
    PlaxtonTree(delta=2, d=5),
    PlaxtonTree(delta=4, d=2),
    ChordRing(d=1),
    ChordRing(d=5),
]


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
def test_pair_kernel_matches_scalar_routes(spec):
    topology = build(spec)
    n = topology.node_count
    src = np.repeat(np.arange(n, dtype=np.int64), n)
    dst = np.tile(np.arange(n, dtype=np.int64), n)
    loading = np.zeros(n, dtype=np.int64)
    hops = pair_kernel(topology, src, dst, loading)

    want_load = np.zeros(n, dtype=np.int64)
    want_hops = np.zeros(n * n, dtype=np.int64)
    pos = 0
    for i in range(n):
        for j in range(n):
            route = canonical_route(topology, i, j)
            want_hops[pos] = route.hop_count
            for mid in route.intermediates:
                want_load[mid] += 1
            pos += 1
    assert np.array_equal(hops, want_hops)
    assert np.array_equal(loading, want_load)


def test_pair_kernel_on_sampled_pairs():
    topology = build(DeBruijn(delta=3, d=4))
    rng = np.random.default_rng(7)
    src = rng.integers(0, 81, size=5000, dtype=np.int64)
    dst = rng.integers(0, 81, size=5000, dtype=np.int64)
    loading = np.zeros(81, dtype=np.int64)
    hops = pair_kernel(topology, src, dst, loading)
    for k in range(0, 5000, 617):
        route = canonical_route(topology, int(src[k]), int(dst[k]))
        assert hops[k] == route.hop_count
    assert loading.sum() == int(hops.sum() - np.count_nonzero(hops))


# ---------------------------------------------------------------------------
# enumeration


def test_census_conservation_identity():
    # relays == hops minus one endpoint delivery per moving pair
    for spec in KERNEL_SPECS:
        topology = build(spec)
        census = route_census(topology)
        n = topology.node_count
        moving_pairs = n * (n - 1)
        assert census.loading.sum() == census.hop_sums.sum() - moving_pairs, spec
        assert census.pair_count == n * n


def _full_walk(topology):
    """Census counters from routing every source row, no orbit reduction."""
    n = topology.node_count
    everyone = np.arange(n, dtype=np.int64)
    hop_sums = np.zeros(n, dtype=np.int64)
    loading = np.zeros(n, dtype=np.int64)
    for source in range(n):
        hop_sums[source] = pair_kernel(topology, np.full(n, source), everyone, loading).sum()
    return hop_sums, loading


CENSUS_SPECS = KERNEL_SPECS + [
    Torus(d=3, n_side=2),
    Torus(d=2, n_side=8),
    Torus(d=3, n_side=5),
    PlaxtonTree(delta=3, d=4),
    ChordRing(d=8),
    DeBruijn(delta=2, d=8),
    DeBruijn(delta=16, d=3),
    DeBruijn(delta=5, d=1),
]


@pytest.mark.parametrize("spec", CENSUS_SPECS, ids=str)
def test_orbit_census_matches_full_walk(spec):
    topology = build(spec)
    census = route_census(topology)
    hop_sums, loading = _full_walk(topology)
    assert np.array_equal(census.hop_sums, hop_sums)
    assert np.array_equal(census.loading, loading)
    assert census.pair_count == topology.node_count**2


def test_default_orbits_walk_every_source(monkeypatch):
    topology = build(DeBruijn(delta=3, d=3))
    default = Topology.orbits(topology)
    assert np.array_equal(default, np.arange(27))
    reduced = route_census(topology)
    monkeypatch.setattr(DeBruijn, "orbits", lambda self: default)
    full = route_census(topology)
    assert np.array_equal(full.hop_sums, reduced.hop_sums)
    assert np.array_equal(full.loading, reduced.loading)


def test_orbit_census_rejects_orbits_that_break_divisibility(monkeypatch):
    # hub and spoke 1 are not interchangeable: spoke 2's one relay through
    # the hub cannot be split evenly over a {hub, spoke 1} orbit
    topology = build(Star(n=3))
    monkeypatch.setattr(Star, "orbits", lambda self: np.array([0, 0, 1], dtype=np.int64))
    with pytest.raises(ArithmeticError, match="do not divide evenly"):
        route_census(topology)


def test_node_loading_star():
    loading = route_census(build(Star(n=9))).loading
    assert loading[0] == 8 * 7
    assert not loading[1:].any()
    assert loading.sum() == 56


def test_node_loading_single_ring():
    loading = route_census(build(Torus(d=1, n_side=7))).loading
    assert loading.tolist() == [6] * 7


def test_node_loading_debruijn_repeated_symbol_nodes():
    spec = DeBruijn(delta=2, d=3)
    loading = route_census(build(spec)).loading
    zero_nodes = set(np.flatnonzero(loading == 0).tolist())
    assert zero_nodes == {0b000, 0b111}
    assert all(is_repeated_symbol_node(spec, i) for i in zero_nodes)


def test_torus_loading_uniform_and_matches_closed_form():
    for d, side in [(1, 5), (2, 4), (2, 5), (3, 3), (3, 4)]:
        loading = route_census(build(Torus(d=d, n_side=side))).loading
        expected = torus_loading(d, side)
        assert set(loading.tolist()) == {expected}, (d, side)


def test_enumeration_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_exact(build(ChordRing(d=13)), PRICED)
    with pytest.raises(ResourceLimitError):
        enumerate_exact(build(Star(n=40)), PRICED, max_nodes=39)
    report = enumerate_exact(build(Star(n=40)), PRICED, max_nodes=40)
    assert len(report.service) == 40


def test_enumeration_guard_at_the_default_limit():
    assert engine.DEFAULT_EXACT_LIMIT == 4096
    for spec in (ChordRing(d=12), Torus(d=2, n_side=64)):
        assert spec.node_count == 4096
        report = enumerate_exact(build(spec), PRICED)
        assert len(report.service) == 4096
    with pytest.raises(ResourceLimitError):
        enumerate_exact(build(Star(n=4097)), PRICED)
    with pytest.raises(ResourceLimitError):
        enumerate_exact(build(ChordRing(d=12)), PRICED, max_nodes=4095)


def test_exact_star_costs_match_closed_form():
    report = enumerate_exact(build(Star(n=10)), PRICED)
    analytic = analytic_report(Star(n=10), PRICED)
    table = compare([analytic, report], rel_tol=1e-12)
    assert table.all_within(), [r for r in table.rows if not r.within_tol]
    # the hub is node zero and the only router
    assert report.routing[0] > 0
    assert all(report.routing[1:] == 0)


@pytest.mark.parametrize("spec", [
    PlaxtonTree(delta=2, d=6),
    PlaxtonTree(delta=3, d=4),
    PlaxtonTree(delta=5, d=3),
    ChordRing(d=4),
    ChordRing(d=8),
], ids=str)
def test_exact_matches_analytic_for_uniform_geometries(spec):
    exact = enumerate_exact(build(spec), PRICED)
    analytic = analytic_report(spec, PRICED)
    table = compare([analytic, exact], rel_tol=1e-12)
    assert table.all_within(), [r for r in table.rows if not r.within_tol]


def test_torus_analytic_access_is_flagged_as_approximation():
    # the ring-mean shortcut differs from the enumerated value on odd sides
    spec = Torus(d=2, n_side=5)
    exact = enumerate_exact(build(spec), PRICED)
    analytic = analytic_report(spec, PRICED)
    table = compare([analytic, exact], rel_tol=1e-12)
    by_component = {row.component: row for row in table.rows}
    assert not by_component["access"].within_tol
    assert by_component["access"].max_abs_dev > 0
    # everything that is not the access approximation stays exact
    for name in ("service", "routing", "maintenance"):
        assert by_component[name].within_tol, name
    # exact mean per dimension is (n**2 - 1) / (4n), not n / 4
    per_dim = float(exact.component("access").mean()) / 2
    assert per_dim == pytest.approx((25 - 1) / 20, rel=1e-12)


def test_aggregates_and_second_min_routing():
    report = enumerate_exact(build(DeBruijn(delta=2, d=3)), PRICED)
    routing = report.component("routing")
    agg = report.aggregates
    assert agg.routing.min == 0.0
    assert agg.second_min_routing == routing[routing > 0].min()
    assert agg.total.mean == pytest.approx(float(report.component("total").mean()))
    assert len(report.service) == 8


def test_analytic_report_rejects_debruijn_and_tiny_star():
    with pytest.raises(UnsupportedParameterError):
        analytic_report(DeBruijn(delta=2, d=3), PRICED)
    with pytest.raises(UnsupportedParameterError):
        analytic_report(Star(n=1), PRICED)


def test_analytic_report_size_guard(monkeypatch):
    with pytest.raises(ResourceLimitError):
        analytic_report(ChordRing(d=23), PRICED)
    monkeypatch.setattr(engine, "ANALYTIC_REPORT_LIMIT", 16)
    assert analytic_report(Star(n=16), PRICED).service.size == 16
    with pytest.raises(ResourceLimitError):
        analytic_report(Star(n=17), PRICED)


# ---------------------------------------------------------------------------
# simulation


def test_simulate_is_deterministic_per_seed():
    topology = build(ChordRing(d=4))
    one = simulate(topology, PRICED, 5000, seed=11)
    two = simulate(topology, PRICED, 5000, seed=11)
    other = simulate(topology, PRICED, 5000, seed=12)
    assert one == two
    assert one != other
    assert one.sim_meta.seeds == (11,)
    assert one.sim_meta.requests == 5000
    assert one.method == "simulated"


def test_simulate_maintenance_is_exact():
    params = CostParams(s=0, a=0, r=0, m=2.5)
    topology = build(Torus(d=2, n_side=4))
    report = simulate(topology, params, 100, seed=0)
    assert all(report.service == 0.0)
    assert all(report.access == 0.0)
    assert all(report.routing == 0.0)
    assert all(report.maintenance == 10.0)


def test_simulate_holds_no_per_node_objects():
    # four float64 columns plus counters peak near 5 MB at 65536 nodes; one
    # Python object per node would take well over 8 MB
    topology = build(ChordRing(d=16))
    tracemalloc.start()
    try:
        simulate(topology, PRICED, 1000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_simulate_rejects_empty_request_stream():
    with pytest.raises(InvalidParameterError):
        simulate(build(Star(n=3)), PRICED, 0, seed=1)


def test_simulate_star_access_converges():
    topology = build(Star(n=50))
    exact = enumerate_exact(topology, PRICED)
    sim = simulate(topology, PRICED, 100_000, seed=123)
    exact_mean = exact.aggregates.access.mean
    sim_mean = sim.aggregates.access.mean
    assert abs(sim_mean - exact_mean) / exact_mean < 0.02


def test_simulate_seeds_averages_individual_runs():
    topology = build(DeBruijn(delta=2, d=4))
    seeds = (3, 4, 5)
    merged = simulate_seeds(topology, PRICED, 2000, seeds)
    singles = [simulate(topology, PRICED, 2000, s) for s in seeds]
    for name in ("service", "access", "routing", "maintenance"):
        want = np.zeros(16)
        for run in singles:
            want += run.component(name)
        want /= len(seeds)
        assert np.array_equal(merged.component(name), want), name
    assert merged.sim_meta.seeds == seeds


def test_simulate_seeds_validation():
    topology = build(Star(n=4))
    with pytest.raises(InvalidParameterError):
        simulate_seeds(topology, PRICED, 100, seeds=())
    with pytest.raises(InvalidParameterError):
        simulate_seeds(topology, PRICED, 100, seeds=(1, 1))


# ---------------------------------------------------------------------------
# comparison


def test_compare_requires_matching_context():
    a = enumerate_exact(build(Star(n=4)), PRICED)
    b = enumerate_exact(build(Star(n=5)), PRICED)
    with pytest.raises(InvalidParameterError):
        compare([a, b])
    c = enumerate_exact(build(Star(n=4)), CostParams(s=0, a=1, r=1, m=0))
    with pytest.raises(InvalidParameterError):
        compare([a, c])
    with pytest.raises(InvalidParameterError):
        compare([a])


def test_compare_tells_word_geometries_apart():
    # de Bruijn and Plaxton share their fields but not their routes
    debruijn = enumerate_exact(build(DeBruijn(delta=2, d=3)), PRICED)
    plaxton = enumerate_exact(build(PlaxtonTree(delta=2, d=3)), PRICED)
    with pytest.raises(InvalidParameterError, match="different geometries"):
        compare([debruijn, plaxton])


def test_compare_reports_deviation_magnitudes():
    spec = ChordRing(d=5)
    exact = enumerate_exact(build(spec), PRICED)
    sim = simulate_seeds(build(spec), PRICED, 50_000, seeds=range(5))
    table = compare([exact, sim], rel_tol=1e-12)
    assert not table.all_within()  # Monte Carlo noise exceeds 1e-12
    access = [r for r in table.rows if r.component == "access"][0]
    assert access.mean_a == pytest.approx(access.mean_b, rel=0.01)
    assert access.max_abs_dev > 0
    maintenance = [r for r in table.rows if r.component == "maintenance"][0]
    assert maintenance.within_tol  # deterministic component agrees exactly
