"""Closed-form formulas against hand-computed and enumerated anchors.

The frozen numeric anchors in this file were produced by independent
brute-force enumeration (breadth-first distances and path counting on
the explicit graphs) before the formulas were wired up.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dhtcostlab import (
    AllN,
    Candidate,
    CostBreakdown,
    CostParams,
    InvalidParameterError,
    NoneBesidesTwo,
    UnsupportedParameterError,
    chord_costs,
    debruijn_bounds,
    debruijn_l_max,
    plaxton_costs,
    plaxton_distance_pmf,
    star_breakdowns,
    star_cost_gap,
    star_costs,
    star_equilibrium_size,
    torus_costs,
    torus_loading,
    torus_ring_loading,
)

PRICED = CostParams(s=0.0, a=1.0, r=1000.0, m=0.0)


# ---------------------------------------------------------------------------
# star


def test_star_costs_hand_computed():
    # n=4, s=4, a=8, r=16, m=2:
    #   center = 2*3 + 4/4 + 8*3/4 + 16*3*2/16 = 6 + 1 + 6 + 6
    #   spoke  = 2 + (4 + 8*5)/4
    result = star_costs(CostParams(s=4, a=8, r=16, m=2), 4)
    assert result.center_cost == 19.0
    assert result.peripheral_cost == 13.0


def test_star_breakdowns_hand_computed():
    # same star as above, split by component; the totals are star_costs
    hub, spoke = star_breakdowns(CostParams(s=4, a=8, r=16, m=2), 4)
    assert hub == CostBreakdown(service=1.0, access=6.0, routing=6.0, maintenance=6)
    assert spoke == CostBreakdown(service=1.0, access=10.0, routing=0.0, maintenance=2)
    with pytest.raises(UnsupportedParameterError):
        star_breakdowns(PRICED, 1)


def test_star_costs_two_nodes_tie():
    result = star_costs(CostParams(s=3, a=2, r=100, m=1), 2)
    assert result.center_cost == result.peripheral_cost


def test_star_costs_needs_two_nodes():
    with pytest.raises(UnsupportedParameterError):
        star_costs(PRICED, 1)


@given(
    st.integers(2, 500),
    st.tuples(*(st.floats(0, 50, allow_nan=False) for _ in range(4))),
)
@settings(max_examples=200, deadline=None)
def test_star_gap_factorization(n, prices):
    s, a, r, m = prices
    params = CostParams(s=s, a=a, r=r, m=m)
    result = star_costs(params, n)
    lhs = n**2 * (result.center_cost - result.peripheral_cost)
    rhs = (n - 2) * star_cost_gap(params, n)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


def test_equilibrium_all_sizes_when_free():
    assert star_equilibrium_size(CostParams(s=0, a=0, r=0, m=0)) == AllN()
    # the service price plays no role in the hub/spoke difference
    assert star_equilibrium_size(CostParams(s=9, a=0, r=0, m=0)) == AllN()


def test_equilibrium_none_besides_two():
    # equal access and routing prices without maintenance
    assert star_equilibrium_size(CostParams(s=0, a=1, r=1, m=0)) == NoneBesidesTwo()
    # access dearer than routing: the hub is always the better deal
    assert star_equilibrium_size(CostParams(s=0, a=3, r=2, m=0)) == NoneBesidesTwo()
    # pure maintenance: the hub always pays for n - 1 links
    assert star_equilibrium_size(CostParams(s=0, a=0, r=0, m=1)) == NoneBesidesTwo()


def test_equilibrium_candidates():
    result = star_equilibrium_size(CostParams(s=0, a=5, r=2, m=1))
    assert isinstance(result, Candidate)
    assert result.n0_real == pytest.approx(3.5615528128088303, rel=1e-15)
    assert not result.is_integer

    result = star_equilibrium_size(CostParams(s=0, a=1, r=2, m=0))
    assert result == Candidate(n0_real=2.0, is_integer=True)

    result = star_equilibrium_size(CostParams(s=0, a=1, r=2, m=1))
    assert result == Candidate(n0_real=1.0, is_integer=True)


def test_equilibrium_matches_brute_force_sign_pattern():
    grid = [0.0, 0.3, 1.0, 2.5, 7.0]
    sizes = range(2, 120)
    for a in grid:
        for r in grid:
            for m in grid:
                params = CostParams(s=1.0, a=a, r=r, m=m)
                result = star_equilibrium_size(params)
                gaps = {n: star_cost_gap(params, n) for n in sizes}
                if isinstance(result, AllN):
                    assert a == r == m == 0
                    assert all(g == 0 for g in gaps.values())
                elif isinstance(result, NoneBesidesTwo):
                    # the gap never crosses zero at any size beyond two
                    assert all(g != 0 for n, g in gaps.items() if n > 2)
                else:
                    n0 = result.n0_real
                    for n, g in gaps.items():
                        if n < n0 - 1e-6:
                            assert g < 0, (params, n, g)
                        elif n > n0 + 1e-6:
                            assert g > 0, (params, n, g)
                    if result.is_integer and 2 <= round(n0) < 120:
                        assert gaps[round(n0)] == 0


def test_equilibrium_integer_root_is_decided_exactly():
    # g(1) = 7 - 6.95 - 0.05 is 0 for the decimal prices but -1.8e-16 in floats
    params = CostParams(s=0, a=7, r=0.05, m=7)
    assert star_cost_gap(params, 1) != 0
    assert star_equilibrium_size(params) == Candidate(n0_real=1.0, is_integer=True)


@pytest.mark.parametrize("a, r, m", [
    (1e200, 1.0, 1e-200),  # (a - r) / 2m overflows
    (1e308, 1e308, 1e-300),  # r / m overflows
])
def test_equilibrium_refuses_a_root_that_overflows(a, r, m):
    with pytest.raises(InvalidParameterError, match="overflows float64"):
        star_equilibrium_size(CostParams(s=0, a=a, r=r, m=m))


# decimal prices with up to three places, as a CLI user would type them
decimal_prices = st.builds(lambda k, places: Fraction(k, 10**places),
                           st.integers(0, 2000), st.sampled_from([0, 1, 2, 3]))


@settings(max_examples=300, deadline=None)
@given(decimal_prices, decimal_prices, decimal_prices)
def test_equilibrium_class_matches_exact_arithmetic(a, r, m):
    result = star_equilibrium_size(CostParams(s=0, a=float(a), r=float(r), m=float(m)))
    # g(n) = m n**2 - (a - r) n - r scaled by 1000 has integer coefficients
    big_a, big_r, big_m = (int(price * 1000) for price in (a, r, m))
    if big_m == 0:
        if big_a == big_r == 0:
            assert result == AllN()
            return
        if big_r <= big_a:
            assert result == NoneBesidesTwo()
            return
        numerator, denominator = big_r, big_r - big_a
    else:
        disc = (big_a - big_r) ** 2 + 4 * big_m * big_r
        numerator, denominator = big_a - big_r + math.isqrt(disc), 2 * big_m
        if numerator <= 0:
            assert result == NoneBesidesTwo()
            return
        if math.isqrt(disc) ** 2 != disc:
            numerator = None  # irrational root
    assert isinstance(result, Candidate)
    integer = numerator is not None and numerator % denominator == 0
    assert result.is_integer == integer, (a, r, m, result)
    if integer:
        assert round(result.n0_real) == numerator // denominator


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 1000), st.integers(0, 1000))
def test_equilibrium_finds_constructed_integer_roots(n0, k, j):
    # m = k/100 and r = j*n0/100 with a chosen so that g(n0) == 0 exactly
    m, r = Fraction(k, 100), Fraction(j * n0, 100)
    a = r + m * n0 - r / n0
    result = star_equilibrium_size(CostParams(s=0, a=float(a), r=float(r), m=float(m)))
    assert isinstance(result, Candidate)
    assert result.is_integer and round(result.n0_real) == n0


# ---------------------------------------------------------------------------
# de Bruijn bounds


L_MAX_ANCHORS = {
    (2, 9): 7164,
    (3, 6): 4918,
    (4, 4): 909,
    (5, 4): 2147,
    (6, 3): 466,
    (2, 1): 0,
    (5, 1): 0,
    (2, 2): 3,
}


@pytest.mark.parametrize("combo,expected", sorted(L_MAX_ANCHORS.items()))
def test_debruijn_l_max_anchors(combo, expected):
    assert debruijn_l_max(*combo) == expected


def test_debruijn_l_max_numerator_always_divides():
    for delta in range(2, 12):
        for d in range(1, 9):
            value = debruijn_l_max(delta, d)
            assert value >= 0
            assert isinstance(value, int)


BOUND_ANCHORS = {
    # (delta, d): access floor and ceiling as exact fractions
    (2, 9): (Fraction(3595, 512), Fraction(4097, 512)),
    (3, 6): (Fraction(15324, 2916), Fraction(16040, 2916)),
    (4, 4): (Fraction(3648, 1024), Fraction(3756, 1024)),
    (5, 4): (Fraction(36896, 10000), Fraction(37504, 10000)),
    (6, 3): (Fraction(2985, 1080), Fraction(3025, 1080)),
}


@pytest.mark.parametrize("combo,fractions", sorted(BOUND_ANCHORS.items()))
def test_debruijn_bounds_anchor_fractions(combo, fractions):
    delta, d = combo
    bounds = debruijn_bounds(PRICED, delta, d)
    lo, hi = fractions
    assert bounds.a_min == pytest.approx(float(lo), rel=1e-13)
    assert bounds.a_max == pytest.approx(float(hi), rel=1e-13)
    n = delta**d
    assert bounds.r_max == pytest.approx(1000.0 * bounds.l_max / n**2, rel=1e-13)
    assert bounds.l_max == debruijn_l_max(delta, d)


def test_debruijn_bounds_small_case():
    bounds = debruijn_bounds(PRICED, 2, 3)
    assert bounds.a_min == 1.625
    assert bounds.a_max == 2.125
    assert bounds.l_max == 18
    assert bounds.r_max == 281.25


def test_debruijn_bounds_scale_with_prices():
    unit = debruijn_bounds(CostParams(s=0, a=1, r=1, m=0), 3, 3)
    scaled = debruijn_bounds(CostParams(s=0, a=4, r=7, m=0), 3, 3)
    assert scaled.a_min == pytest.approx(4 * unit.a_min, rel=1e-15)
    assert scaled.a_max == pytest.approx(4 * unit.a_max, rel=1e-15)
    assert scaled.r_max == pytest.approx(7 * unit.r_max, rel=1e-15)
    assert scaled.l_max == unit.l_max


# ---------------------------------------------------------------------------
# torus loading


RING_ANCHORS = {2: 0, 3: 0, 4: 1, 5: 2, 6: 4, 7: 6, 8: 9, 9: 12}


def test_torus_ring_loading_anchors():
    for n, expected in RING_ANCHORS.items():
        assert torus_ring_loading(n) == expected
    with pytest.raises(InvalidParameterError):
        torus_ring_loading(1)


TORUS_LOADING_ANCHORS = {
    (1, 5): 2,
    (1, 7): 6,
    (2, 2): 1,
    (2, 3): 4,
    (2, 4): 17,
    (2, 5): 36,
    (2, 6): 73,
    (2, 7): 120,
    (3, 3): 28,
    (3, 4): 129,
    (3, 5): 326,
    (4, 4): 769,
    (4, 5): 2376,
}


def test_torus_loading_anchors():
    for (d, n), expected in TORUS_LOADING_ANCHORS.items():
        assert torus_loading(d, n) == expected


def test_torus_loading_recursion():
    # load(d) = n*load(d-1) + n**(d-1)*ring + turn points
    for n in range(2, 10):
        ring = torus_ring_loading(n)
        for d in range(2, 7):
            expected = (n * torus_loading(d - 1, n)
                        + n ** (d - 1) * ring
                        + (n - 1) * (n ** (d - 1) - 1))
            assert torus_loading(d, n) == expected


def test_torus_costs_values():
    params = CostParams(s=10, a=2, r=100, m=3)
    result = torus_costs(params, 2, 5)
    assert result.service == pytest.approx(10 / 25)
    assert result.access == pytest.approx(2 * 2 * 5 / 4)  # d * n_side / 4 per unit
    assert result.routing == pytest.approx(100 * 36 / 625)
    assert result.maintenance == 3 * 4


def test_torus_costs_reject_tiny_sides():
    with pytest.raises(UnsupportedParameterError):
        torus_costs(PRICED, 2, 2)
    with pytest.raises(InvalidParameterError):
        torus_costs(PRICED, 0, 5)


# ---------------------------------------------------------------------------
# plaxton and chord


def test_plaxton_pmf_small():
    assert plaxton_distance_pmf(2, 2) == (0.25, 0.5, 0.25)


@given(st.integers(2, 8), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_plaxton_pmf_is_binomial(delta, d):
    pmf = plaxton_distance_pmf(delta, d)
    assert len(pmf) == d + 1
    assert sum(pmf) == pytest.approx(1.0, rel=1e-12)
    mean = sum(k * p for k, p in enumerate(pmf))
    assert mean == pytest.approx(d * (delta - 1) / delta, rel=1e-12)


def test_plaxton_costs_values():
    params = CostParams(s=1, a=1, r=1, m=1)
    result = plaxton_costs(params, 2, 4)
    assert result.service == pytest.approx(1 / 16)
    assert result.access == pytest.approx(2.0)
    # loading: 2**3 * (4*1 - 2) + 1 = 17 relayed pairs per node
    assert result.routing == pytest.approx(17 / 256)
    assert result.maintenance == 4.0


def test_plaxton_d1_routes_nothing():
    result = plaxton_costs(PRICED, 4, 1)
    assert result.routing == 0.0


def test_chord_equals_plaxton_at_two_symbols():
    params = CostParams(s=2, a=3, r=500, m=7)
    for d in range(1, 11):
        assert chord_costs(params, d) == plaxton_costs(params, 2, d)
