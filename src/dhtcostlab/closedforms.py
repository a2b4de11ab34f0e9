"""Closed-form cost results for the supported geometries.

Everything in this module is exact arithmetic on the model of
``costmodel``: integer counting is done in Python integers and only the
final division produces a float.  Where a float result would decide a
yes/no question, the question is settled in rationals instead, reading
each price as the shortest decimal that gives back the same float.  The
engine's exact enumeration must reproduce these numbers bit for bit
wherever both apply; the test suite holds the two sides together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .costmodel import (
    CostBreakdown,
    CostParams,
    InvalidParameterError,
    UnsupportedParameterError,
)

# ---------------------------------------------------------------------------
# star


@dataclass(frozen=True)
class StarCosts:
    """Total per-request cost of the hub and of one spoke node."""

    center_cost: float
    peripheral_cost: float


def star_breakdowns(params: CostParams, n: int) -> tuple[CostBreakdown, CostBreakdown]:
    """Per-component costs of the hub and of one spoke, ``n >= 2``.

    The hub maintains n - 1 links, relays every spoke-to-spoke request
    and reaches everything in one hop.  A spoke maintains one link,
    relays nothing, and pays two hops for all but its own and the hub's
    documents.
    """
    if n < 2:
        raise UnsupportedParameterError(f"star costs need n >= 2, got {n}")
    s, a, r, m = params.s, params.a, params.r, params.m
    hub = CostBreakdown(
        service=s / n,
        access=a * (n - 1) / n,
        routing=r * (n - 1) * (n - 2) / n**2,
        maintenance=m * (n - 1),
    )
    spoke = CostBreakdown(service=s / n, access=a * (2 * n - 3) / n, routing=0.0, maintenance=m)
    return hub, spoke


def star_costs(params: CostParams, n: int) -> StarCosts:
    """Hub and spoke totals of ``star_breakdowns``, ``n >= 2``."""
    hub, spoke = star_breakdowns(params, n)
    return StarCosts(center_cost=hub.total, peripheral_cost=spoke.total)


@dataclass(frozen=True)
class AllN:
    """Every network size is an equilibrium; hub and spokes always tie."""


@dataclass(frozen=True)
class NoneBesidesTwo:
    """No network size beyond the trivial two-node star balances the hub."""


@dataclass(frozen=True)
class Candidate:
    """The sizes up to ``n0_real`` keep the hub no worse off than a spoke.

    ``is_integer`` records whether the break-even point is attained
    exactly at an integer network size.
    """

    n0_real: float
    is_integer: bool

    def __post_init__(self):
        if not self.n0_real > 0:
            raise InvalidParameterError(
                f"candidate break-even size must be positive, got {self.n0_real}"
            )


EquilibriumSize = Union[AllN, NoneBesidesTwo, Candidate]


def star_cost_gap(params: CostParams, n: int) -> float:
    """Scaled hub-minus-spoke cost difference in a star of ``n`` nodes.

    Returns g(n) with n**2 * (center - peripheral) == (n - 2) * g(n),
    namely g(n) = m*n**2 - (a - r)*n - r.  The hub is the cheaper role
    exactly while g(n) <= 0.
    """
    # the service price cancels between the two roles
    return _gap(params.a, params.r, params.m, n)


def _gap(a, r, m, n):
    return m * n**2 - (a - r) * n - r


def star_equilibrium_size(params: CostParams) -> EquilibriumSize:
    """Largest star size at which the hub role is still worth holding.

    Solves g(n) = m*n**2 - (a - r)*n - r = 0 for its positive root.
    With every price zero the roles tie at every size (``AllN``).  When
    g has no positive root the hub is the worse role at every size
    beyond the two-node star (``NoneBesidesTwo``).  Otherwise the
    positive root comes back as a ``Candidate``.
    """
    a, r, m = params.a, params.r, params.m
    if m == 0:
        if a == 0 and r == 0:
            return AllN()
        if r <= a:
            # g(n) = (r - a)*n - r stays negative for every positive n
            return NoneBesidesTwo()
        root = r / (r - a)
    else:
        half = (a - r) / (2 * m)
        root = half + math.sqrt(half * half + r / m)
        if root <= 0:
            return NoneBesidesTwo()
    if not math.isfinite(root):
        raise InvalidParameterError(
            f"computing the star break-even size overflows float64 at prices "
            f"a={a!r} r={r!r} m={m!r}"
        )
    nearest = round(root)
    # g(nearest) in floats can miss an exact zero by an ulp (a=7, r=0.05, m=7)
    decimals = (Fraction(repr(float(price))) for price in (a, r, m))
    exact = nearest > 0 and _gap(*decimals, nearest) == 0
    return Candidate(n0_real=root, is_integer=exact)


# ---------------------------------------------------------------------------
# de Bruijn


@dataclass(frozen=True)
class DeBruijnBounds:
    """Tight access-cost bounds and the routing-load bound for debruijn.

    ``a_min`` and ``a_max`` are attained access costs.  ``l_max`` bounds
    the per-node count of routed pairs; it is attained whenever
    delta >= d (by the node whose word is 0,1,...,d-1) and is an upper
    bound otherwise.  ``r_max`` prices ``l_max``.
    """

    a_min: float
    a_max: float
    r_max: float
    l_max: int


def debruijn_l_max(delta: int, d: int) -> int:
    """Upper bound on routed-pair counts in debruijn(delta, d).

    Counts subpaths through a fixed node of the canonical shift-and-
    append routes, assuming no source suffix ever overlaps a destination
    prefix early; real overlaps only remove pairs, hence the bound.
    """
    _check_word_geometry(delta, d)
    numerator = (
        (d - 1) * (delta ** (d + 2) - (delta - 1) ** 2)
        - d * delta ** (d + 1)
        + delta**2
    )
    quotient, remainder = divmod(numerator, (delta - 1) ** 2)
    if remainder:
        raise AssertionError(f"l_max numerator not divisible for {delta=}, {d=}")
    return quotient


def debruijn_bounds(params: CostParams, delta: int, d: int) -> DeBruijnBounds:
    """Access-cost extremes and the routing-load bound for debruijn.

    The maximum access cost is paid by the repeated-symbol nodes, whose
    missing self loop forces full-length routes everywhere.  The
    minimum is a geometric-series bound on how much overlap a single
    source word can have with all destinations; it is attained in every
    case enumerated by the test suite.
    """
    _check_word_geometry(delta, d)
    n = delta**d
    # integer numerators over a common integer denominator, divided once
    max_numerator = d * delta ** (d + 1) - (d + 1) * delta**d + 1
    a_max = params.a * max_numerator / (n * (delta - 1))
    min_numerator = (
        d * delta**d * (delta - 1) ** 2 + d * (delta - 1) - delta * (delta**d - 1)
    )
    a_min = params.a * min_numerator / (n * (delta - 1) ** 2)
    l_max = debruijn_l_max(delta, d)
    r_max = params.r * l_max / n**2
    for name, value in (("a_min", a_min), ("a_max", a_max), ("r_max", r_max)):
        if not math.isfinite(value):
            raise InvalidParameterError(
                f"debruijn bound {name} overflows float64 at these prices"
            )
    return DeBruijnBounds(a_min=a_min, a_max=a_max, r_max=r_max, l_max=l_max)


# ---------------------------------------------------------------------------
# torus


def torus_ring_loading(n_side: int) -> int:
    """Routed-pair count of one node on a single ring of ``n_side`` nodes.

    Every node of a ring is an intermediate for the same number of
    ordered pairs under shorter-arc routing with the positive-direction
    tie rule.
    """
    if n_side < 2:
        raise InvalidParameterError(f"ring needs n_side >= 2, got {n_side}")
    return (n_side // 2 - 1) * ((n_side + 1) // 2 - 1)


def torus_loading(d: int, n_side: int) -> int:
    """Routed-pair count of one torus node under dimension-ordered routing.

    The load is the same at every node.  A pair passes through a node
    either while correcting an earlier dimension (n_side times the count
    one dimension down), or strictly inside the last ring segment
    (n_side**(d-1) copies of the ring count), or at a turn between two
    movement phases ((n_side - 1) * (n_side**(d-1) - 1) pairs).  The
    recursion telescopes to the closed form returned here.
    """
    if d < 1:
        raise InvalidParameterError(f"torus needs d >= 1, got {d}")
    if n_side < 2:
        raise InvalidParameterError(f"torus needs n_side >= 2, got {n_side}")
    ring = torus_ring_loading(n_side)
    return n_side ** (d - 1) * (d * (n_side - 1 + ring) - n_side) + 1


def torus_costs(params: CostParams, d: int, n_side: int) -> CostBreakdown:
    """Per-node cost breakdown on the torus; identical at every node.

    The access term uses the ring-mean approximation n_side / 4 per
    dimension, which is what the d * n_side / 4 hop budget of the grid
    folklore gives; exact enumeration differs from it by O(1/n_side).
    Sides shorter than 3 are rejected because wraparound and direct
    links coincide there and the approximation loses its meaning.
    """
    if n_side < 3:
        raise UnsupportedParameterError(
            f"torus closed forms need n_side >= 3, got {n_side}"
        )
    if d < 1:
        raise InvalidParameterError(f"torus needs d >= 1, got {d}")
    n = n_side**d
    return CostBreakdown(
        service=params.s / n,
        access=params.a * d * n_side / 4,
        routing=params.r * torus_loading(d, n_side) / n**2,
        maintenance=params.m * 2 * d,
    )


# ---------------------------------------------------------------------------
# plaxton and chord


def plaxton_distance_pmf(delta: int, d: int) -> tuple[float, ...]:
    """Distribution of route lengths to a uniform destination.

    Digit-correcting routes have length equal to the Hamming distance
    between the words, so the length of a route to a uniformly random
    destination is Binomial(d, (delta-1)/delta).
    """
    _check_word_geometry(delta, d)
    n = delta**d
    return tuple(
        math.comb(d, k) * (delta - 1) ** k / n for k in range(d + 1)
    )


def plaxton_costs(params: CostParams, delta: int, d: int) -> CostBreakdown:
    """Per-node cost breakdown in plaxton(delta, d); identical everywhere."""
    _check_word_geometry(delta, d)
    n = delta**d
    loading = delta ** (d - 1) * (d * (delta - 1) - delta) + 1
    return CostBreakdown(
        service=params.s / n,
        access=params.a * d * (delta - 1) / delta,
        routing=params.r * loading / n**2,
        maintenance=params.m * d * (delta - 1),
    )


def chord_costs(params: CostParams, d: int) -> CostBreakdown:
    """Per-node cost breakdown in chord(d).

    Greedy finger routing corrects the bits of the clockwise gap from
    the highest down, which is digit correction over two symbols, so
    chord costs coincide with plaxton at delta = 2.
    """
    if d < 1:
        raise InvalidParameterError(f"chord needs d >= 1, got {d}")
    return plaxton_costs(params, 2, d)


def _check_word_geometry(delta: int, d: int):
    if delta < 2:
        raise InvalidParameterError(f"need delta >= 2, got {delta}")
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
