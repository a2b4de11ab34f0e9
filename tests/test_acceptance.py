"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS line with its measured evidence once its
assertions hold, so `pytest tests/test_acceptance.py -s` reads as a
checklist.  The criteria:

1. Reference-table reproduction for five de Bruijn graphs (exact
   enumeration, a=1, r=1000), each row under 60 s.
2. Closed forms equal enumeration: plaxton/chord (1e-12 relative),
   torus loading (integer equality), star (1e-12).
3. Lemma suite over every de Bruijn graph with delta**d <= 4096:
   repeated-symbol nodes route nothing, loading never exceeds the
   closed-form cap, and the cap is attained when delta >= d.
4. Theorem suite: the hub/spoke gap matches its factored polynomial on
   1176 price tuples at sizes 2..200, and equilibrium classifications
   match brute force.
5. Simulation convergence, ten seeds of 100k requests each, under 120 s.
6. Exact integer conservation of relayed-pair counts everywhere.
7. Byte-identical CLI reruns.

Plus the qualitative sweep check: the star has the lowest mean access
cost at every feasible size from 10 to 1000.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from dhtcostlab import (
    ChordRing,
    CostParams,
    DeBruijn,
    PlaxtonTree,
    Star,
    Torus,
    analytic_report,
    build,
    compare,
    debruijn_bounds,
    debruijn_l_max,
    enumerate_exact,
    route_census,
    simulate,
    star_cost_gap,
    star_costs,
    star_equilibrium_size,
    torus_loading,
)
from dhtcostlab.closedforms import AllN, Candidate, NoneBesidesTwo

TABLE_PARAMS = CostParams(s=0.0, a=1.0, r=1000.0, m=0.0)

# Expected 2-decimal statistics per (delta, d): access floor, access
# ceiling, smallest nonzero routing cost, largest routing cost.  Every
# access floor equals the attained closed-form bound; criterion 1
# cross-checks that attainment explicitly.
REFERENCE_ROWS = {
    (2, 9): (7.02, 8.00, 3.88, 17.53),
    (3, 6): (5.26, 5.50, 2.05, 9.05),
    (4, 4): (3.56, 3.67, 5.11, 13.87),
    (5, 4): (3.69, 3.75, 1.98, 5.50),
    (6, 3): (2.76, 2.80, 5.38, 9.99),
}


def _close2(value: float, expected: float) -> bool:
    return abs(round(value, 2) - expected) <= 0.005 + 1e-12


def _repunit_nodes(delta: int, d: int) -> list:
    unit = (delta**d - 1) // (delta - 1)
    return [h * unit for h in range(delta)]


def _staircase_node(delta: int, d: int) -> int:
    node = 0
    for digit in range(d):
        node = node * delta + digit
    return node


# ---------------------------------------------------------------------------
# shared enumerations


def _lemma_combos():
    combos = []
    for delta in range(2, 65):
        if delta**2 <= 4096:
            d = 2
            while delta**d <= 4096:
                combos.append((delta, d))
                d += 1
    # d=1 graphs are complete digraphs with nothing to relay; every
    # word is one symbol, so each is a single orbit and the census routes
    # one source even at delta=4096
    combos.extend((delta, 1) for delta in range(2, 4097))
    return combos


@pytest.fixture(scope="module")
def debruijn_censuses():
    return {
        (delta, d): route_census(build(DeBruijn(delta=delta, d=d)))
        for delta, d in _lemma_combos()
    }


def _uniform_grid_specs():
    specs = []
    for delta, max_d in ((2, 10), (3, 6), (4, 5), (5, 4)):
        for d in range(1, max_d + 1):
            if delta**d <= 1024:
                specs.append(PlaxtonTree(delta=delta, d=d))
    specs.extend(ChordRing(d=d) for d in range(1, 11))
    return specs


# ---------------------------------------------------------------------------
# criterion 1


def test_criterion_1_reference_table(capsys):
    lines = []
    for (delta, d), expected in sorted(REFERENCE_ROWS.items()):
        started = time.monotonic()
        topology = build(DeBruijn(delta=delta, d=d))
        report = enumerate_exact(topology, TABLE_PARAMS)
        elapsed = time.monotonic() - started
        agg = report.aggregates
        got = (agg.access.min, agg.access.max, agg.second_min_routing, agg.routing.max)
        for value, want in zip(got, expected):
            assert _close2(value, want), (delta, d, got, expected)
        # the access floor is an attained bound, not just a limit
        bounds = debruijn_bounds(TABLE_PARAMS, delta, d)
        assert agg.access.min == pytest.approx(bounds.a_min, rel=1e-12)
        assert agg.access.max == pytest.approx(bounds.a_max, rel=1e-12)
        assert elapsed < 60.0, f"({delta},{d}) took {elapsed:.1f}s"
        lines.append(f"({delta},{d}) " + "/".join(f"{v:.2f}" for v in got)
                     + f" in {elapsed:.2f}s")
    print(f"CRITERION 1: PASS - reference table reproduced: {'; '.join(lines)}")


# ---------------------------------------------------------------------------
# criterion 2


def test_criterion_2_closed_forms_equal_enumeration():
    checked = 0
    for spec in _uniform_grid_specs():
        exact = enumerate_exact(build(spec), TABLE_PARAMS)
        analytic = analytic_report(spec, TABLE_PARAMS)
        table = compare([analytic, exact], rel_tol=1e-12)
        assert table.all_within(), (spec, [r for r in table.rows if not r.within_tol])
        checked += 1

    torus_checked = 0
    for d in (1, 2, 3):
        for side in (3, 4, 5):
            census = route_census(build(Torus(d=d, n_side=side)))
            expected = torus_loading(d, side)
            assert np.all(census.loading == expected), (d, side)
            torus_checked += 1

    for n in (3, 5, 10, 100):
        exact = enumerate_exact(build(Star(n=n)), TABLE_PARAMS)
        analytic = analytic_report(Star(n=n), TABLE_PARAMS)
        table = compare([analytic, exact], rel_tol=1e-12)
        assert table.all_within(), n
        closed = star_costs(TABLE_PARAMS, n)
        assert exact.total[0] == pytest.approx(closed.center_cost, rel=1e-12)
        assert exact.total[1] == pytest.approx(closed.peripheral_cost, rel=1e-12)

    print(f"CRITERION 2: PASS - {checked} plaxton/chord instances at 1e-12, "
          f"{torus_checked} torus loadings integer-exact, star sizes 3/5/10/100 at 1e-12")


# ---------------------------------------------------------------------------
# criterion 3


def test_criterion_3_debruijn_lemmas(debruijn_censuses):
    tight_cases = 0
    for (delta, d), census in debruijn_censuses.items():
        loading = census.loading
        cap = debruijn_l_max(delta, d)
        quiet = _repunit_nodes(delta, d)
        assert np.all(loading[quiet] == 0), (delta, d)
        assert loading.max() <= cap, (delta, d, int(loading.max()), cap)
        if delta >= d:
            assert loading[_staircase_node(delta, d)] == cap, (delta, d)
            tight_cases += 1
    # on the five reference graphs the silent set is exactly the
    # repeated-symbol nodes, nothing else
    for delta, d in REFERENCE_ROWS:
        loading = debruijn_censuses[(delta, d)].loading
        assert set(np.flatnonzero(loading == 0)) == set(_repunit_nodes(delta, d))
    print(f"CRITERION 3: PASS - {len(debruijn_censuses)} de Bruijn graphs "
          f"(delta**d <= 4096): silent repeated-symbol nodes, loading cap "
          f"respected, cap attained in {tight_cases} delta >= d cases")


def test_debruijn_loading_is_reversal_symmetric(debruijn_censuses):
    # The route from s to t spells the word s + t[overlap:].  The route
    # from reverse(t) to reverse(s) has the same overlap and spells that
    # word backwards, so it relays through the reversed intermediates.
    # Hop sums are not symmetric: a source's hops to every destination
    # map onto hops into its reversal, so they are not asserted.
    for (delta, d), census in debruijn_censuses.items():
        words = np.arange(delta**d)
        reverse = sum((words // delta**pos % delta) * delta ** (d - 1 - pos)
                      for pos in range(d))
        assert np.array_equal(census.loading, census.loading[reverse]), (delta, d)


# ---------------------------------------------------------------------------
# criterion 4


def test_criterion_4_star_theorems():
    a_values = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    r_values = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    m_values = [0.0, 0.1, 0.5, 1.0, 5.0, 10.0]
    s_values = [0.0, 1.0, 3.0, 10.0]
    sizes = np.arange(2, 201)
    tuples = 0
    for s in s_values:
        for a in a_values:
            for r in r_values:
                for m in m_values:
                    params = CostParams(s=s, a=a, r=r, m=m)
                    tuples += 1
                    direct = np.empty(sizes.size)
                    poly = np.empty(sizes.size)
                    for k, n in enumerate(sizes):
                        n = int(n)
                        costs = star_costs(params, n)
                        direct[k] = costs.center_cost - costs.peripheral_cost
                        poly[k] = (n - 2) * star_cost_gap(params, n) / n**2
                    scale = np.maximum(1.0, np.maximum(np.abs(direct), np.abs(poly)))
                    assert np.all(np.abs(direct - poly) <= 1e-9 * scale), params

                    # classification against brute force on the same sizes
                    result = star_equilibrium_size(params)
                    ties = {int(n) for n, dv, sc in zip(sizes, direct, scale)
                            if abs(dv) <= 1e-12 * sc}
                    if isinstance(result, AllN):
                        assert ties == set(range(2, 201)), params
                    elif isinstance(result, NoneBesidesTwo):
                        assert ties == {2}, params
                    else:
                        root = result.n0_real
                        expected = {2}
                        if result.is_integer and 2 <= round(root) <= 200:
                            expected.add(round(root))
                        assert ties == expected, (params, result, ties)
    assert tuples >= 1000
    print(f"CRITERION 4: PASS - {tuples} price tuples x sizes 2..200: factored "
          f"gap within 1e-9, equilibrium classes match brute force")


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_5_simulation_convergence():
    specs = [ChordRing(d=6), DeBruijn(delta=3, d=4), Torus(d=2, n_side=5), Star(n=64)]
    started = time.monotonic()
    checks = tail3 = 0
    worst = 0.0
    worst_mean_dev = 0.0
    for spec in specs:
        topology = build(spec)
        exact = enumerate_exact(topology, TABLE_PARAMS)
        runs = [simulate(topology, TABLE_PARAMS, 100_000, seed) for seed in range(10)]
        for name in ("access", "routing"):
            samples = np.stack([run.component(name) for run in runs])
            mean = samples.mean(axis=0)
            se = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
            want = exact.component(name)
            dev = np.abs(mean - want)
            # a node with zero spread must be estimated exactly
            assert np.all(dev[se == 0] == 0), (spec, name)
            live = se > 0
            t = dev[live] / se[live]
            # With ten seeds the per-node deviation follows a Student t
            # with 9 degrees of freedom, whose tail beyond 3 SE is about
            # 1.5%.  Demanding zero exceedances would reject a correct
            # estimator, so the gate bounds the tail fraction and caps
            # every node at 5 SE, which only a biased estimator crosses.
            checks += t.size
            tail3 += int(np.count_nonzero(t > 3))
            worst = max(worst, float(t.max()))
            assert np.all(t <= 5.0), (spec, name, float(t.max()))
            net = abs(mean.mean() - want.mean()) / want.mean()
            worst_mean_dev = max(worst_mean_dev, net)
            assert net < 0.01, (spec, name, net)
    assert tail3 / checks <= 0.025, (tail3, checks)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"CRITERION 5: PASS - 10x100k requests on 4 geometries in {elapsed:.1f}s: "
          f"{tail3}/{checks} nodes beyond 3 SE (tail cap 2.5%), worst {worst:.2f} SE, "
          f"worst network-mean deviation {worst_mean_dev:.3%}")


# ---------------------------------------------------------------------------
# criterion 6


def test_criterion_6_conservation(debruijn_censuses):
    instances = 0
    for (delta, d), census in debruijn_censuses.items():
        n = delta**d
        assert int(census.loading.sum()) == int(census.hop_sums.sum()) - n * (n - 1)
        instances += 1
    extra = _uniform_grid_specs()
    extra.extend(Torus(d=d, n_side=side) for d in (1, 2, 3) for side in (3, 4, 5))
    extra.extend(Star(n=n) for n in (3, 5, 10, 100))
    for spec in extra:
        census = route_census(build(spec))
        n = spec.node_count
        assert int(census.loading.sum()) == int(census.hop_sums.sum()) - n * (n - 1), spec
        instances += 1
    print(f"CRITERION 6: PASS - relayed pairs == hops - N(N-1) exactly on "
          f"{instances} enumerated instances")


# ---------------------------------------------------------------------------
# criterion 7


def _run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("DHTCOSTLAB_MAX_N", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "dhtcostlab.cli"] + args,
                          capture_output=True, text=True, env=env)


def test_criterion_7_cli_determinism(tmp_path):
    scenarios = [
        ["analyze", "--geometry", "debruijn", "--delta", "2", "--d", "4",
         "--methods", "exact,sim", "--seeds", "0,1,2", "--requests", "5000",
         "--format", "json"],
        ["analyze", "--geometry", "star", "--n", "30", "--methods", "analytic",
         "--format", "csv"],
        ["sweep", "--geometries", "star,chord", "--n-min", "10", "--n-max", "70",
         "--methods", "analytic,sim", "--seeds", "3,4", "--requests", "2000",
         "--format", "csv"],
        ["pernode-dump", "--geometry", "plaxton", "--delta", "3", "--d", "3",
         "--format", "csv"],
        ["star-equilibrium", "--m", "1", "--a", "5", "--r", "2", "--format", "json"],
    ]
    for idx, args in enumerate(scenarios):
        first = tmp_path / f"run{idx}_a.out"
        second = tmp_path / f"run{idx}_b.out"
        assert _run_cli(args + ["--out", str(first)]).returncode == 0, args
        assert _run_cli(args + ["--out", str(second)]).returncode == 0, args
        assert first.read_bytes() == second.read_bytes(), args
    print(f"CRITERION 7: PASS - {len(scenarios)} CLI scenarios byte-identical on rerun")


# ---------------------------------------------------------------------------
# qualitative sweep


def test_qualitative_star_has_lowest_mean_access():
    # exact mean access per geometry at each of its feasible sizes in
    # 10..1000, against the star closed form at the same size
    rivals = []
    for d in range(4, 10):
        rivals.append(ChordRing(d=d))
        rivals.append(PlaxtonTree(delta=2, d=d))
        rivals.append(DeBruijn(delta=2, d=d))
    rivals.extend(Torus(d=2, n_side=side) for side in range(4, 32))
    rivals.extend(Torus(d=6, n_side=side) for side in (2, 3))
    compared = 0
    for spec in rivals:
        n = spec.node_count
        assert 10 <= n <= 1000
        rival_mean = enumerate_exact(build(spec), TABLE_PARAMS).aggregates.access.mean
        star_mean = analytic_report(Star(n=n), TABLE_PARAMS).aggregates.access.mean
        assert star_mean < rival_mean, (spec, star_mean, rival_mean)
        compared += 1
    print(f"QUALITATIVE: PASS - star mean access lowest in all {compared} "
          f"feasible comparisons across 10 <= N <= 1000")
