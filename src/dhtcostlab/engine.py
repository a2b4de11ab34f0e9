"""Exact enumeration, Monte Carlo estimation and report comparison.

The three ways to obtain per-node costs share one vocabulary:

* ``analytic_report`` evaluates the closed forms of ``closedforms``,
* ``enumerate_exact`` walks every ordered (source, holder) pair once,
* ``simulate`` samples pairs uniformly and renormalizes the counters.

All three return a ``CostReport`` so they can be cross-checked with
``compare``.  A report is columnar: four float64 arrays of shape (N,),
``service``, ``access``, ``routing`` and ``maintenance``, indexed by
node, and a ``total`` computed from them on demand.  Enumeration and
simulation run on the same vectorized pair kernel, the ``pairs`` method
of each topology class; the readable scalar ``route`` beside it stays
the reference implementation and the test suite pins the kernels to it.
Maintenance prices ``degrees()``, the topology's vectorized out-degree
array, which the test suite pins to ``out_neighbors``.

Simulation normalization.  With ``requests`` sampled pairs (X, J) drawn
independently and uniformly, the unbiased per-node estimators are

    service_i     = s * #{J == i} / requests
    access_i      = a * N * (hops of requests issued by i) / requests
    routing_i     = r * #{requests relayed by i} / requests
    maintenance_i = m * degree(i)            (no sampling involved)

since e.g. E[#{J == i}] / requests = 1/N and the access sum over a
node's own requests estimates (1/N) * (1/N) * sum_j t(i, j) of which
the model wants the N-fold multiple.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from . import closedforms
from .costmodel import (
    CostParams,
    InvalidParameterError,
    RequestModel,
    ResourceLimitError,
    UnsupportedParameterError,
)
from .topologies import (
    ChordRing,
    GeometrySpec,
    PlaxtonTree,
    Star,
    Topology,
    Torus,
)

#: Enumeration refuses networks above this size unless told otherwise;
#: the walk is quadratic in the node count.
DEFAULT_EXACT_LIMIT = 4096

#: Ordered pairs handled per enumeration block, sized to keep the
#: scratch arrays comfortably in cache-friendly territory.
_PAIR_BLOCK = 1 << 19

#: Closed-form reports refuse networks above this size: the five
#: float64 columns a report and its aggregates hold take 40 bytes a node.
ANALYTIC_REPORT_LIMIT = 1 << 22

#: The four per-node arrays of a report; "total" is their sum.
_ARRAYS = ("service", "access", "routing", "maintenance")
COMPONENTS = _ARRAYS + ("total",)


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class ComponentStats:
    mean: float
    min: float
    max: float


@dataclass(frozen=True)
class Aggregates:
    """Network-level summary of one report.

    ``second_min_routing`` is the smallest routing cost strictly above
    the minimum, falling back to the minimum when every node pays the
    same.  It exists because debruijn has a handful of nodes that route
    nothing at all, and the cheapest node that does route is the more
    telling floor.
    """

    service: ComponentStats
    access: ComponentStats
    routing: ComponentStats
    maintenance: ComponentStats
    total: ComponentStats
    second_min_routing: float


@dataclass(frozen=True)
class SimMeta:
    seeds: tuple[int, ...]
    requests: int


@dataclass(frozen=True, eq=False)
class CostReport:
    """Per-node costs for one geometry obtained by one method.

    Each component is a read-only float64 array of shape (N,) whose
    entry i is node i's expected cost per request.
    """

    method: str  # "analytic" | "exact" | "simulated"
    geometry: GeometrySpec
    params: CostParams
    service: np.ndarray
    access: np.ndarray
    routing: np.ndarray
    maintenance: np.ndarray
    aggregates: Aggregates
    sim_meta: Optional[SimMeta] = None

    def __post_init__(self):
        for name in _ARRAYS:
            getattr(self, name).setflags(write=False)

    @property
    def total(self) -> np.ndarray:
        """Per-node sum of the four components, added in field order."""
        return self.service + self.access + self.routing + self.maintenance

    def component(self, name: str) -> np.ndarray:
        """Per-node values of one component (or "total") as an array."""
        if name not in COMPONENTS:
            raise InvalidParameterError(f"unknown component {name!r}")
        return getattr(self, name)

    def __eq__(self, other):
        if not isinstance(other, CostReport):
            return NotImplemented
        return (
            (self.method, self.geometry, self.params, self.aggregates, self.sim_meta)
            == (other.method, other.geometry, other.params, other.aggregates, other.sim_meta)
            and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _ARRAYS)
        )


@dataclass
class RouteCensus:
    """Raw integer counters from a full walk over all N**2 pairs."""

    hop_sums: np.ndarray  # per source: total hops to all destinations
    loading: np.ndarray  # per node: ordered pairs relayed
    pair_count: int


@dataclass(frozen=True)
class DeviationRow:
    component: str
    method_a: str
    method_b: str
    mean_a: float
    mean_b: float
    max_abs_dev: float
    max_rel_dev: float
    within_tol: bool


@dataclass(frozen=True)
class ComparisonTable:
    geometry: GeometrySpec
    rows: tuple[DeviationRow, ...]

    def all_within(self) -> bool:
        return all(row.within_tol for row in self.rows)


# ---------------------------------------------------------------------------
# exact enumeration


def pair_kernel(topology: Topology, src, dst, loading) -> np.ndarray:
    """Hop counts for pair arrays, accumulating relays into ``loading``."""
    return topology.pairs(np.asarray(src, np.int64), np.asarray(dst, np.int64), loading)


def route_census(topology: Topology, max_nodes: Optional[int] = None) -> RouteCensus:
    """Walk all N**2 ordered pairs and collect the integer counters."""
    n = topology.node_count
    limit = DEFAULT_EXACT_LIMIT if max_nodes is None else max_nodes
    if n > limit:
        raise ResourceLimitError(
            f"exact enumeration over {n}**2 pairs exceeds the limit of {limit} nodes"
        )
    hop_sums = np.zeros(n, dtype=np.int64)
    loading = np.zeros(n, dtype=np.int64)
    everyone = np.arange(n, dtype=np.int64)
    rows_per_block = max(1, _PAIR_BLOCK // n)
    for start in range(0, n, rows_per_block):
        rows = np.arange(start, min(start + rows_per_block, n), dtype=np.int64)
        src = np.repeat(rows, n)
        dst = np.tile(everyone, rows.size)
        hops = pair_kernel(topology, src, dst, loading)
        hop_sums[rows] = hops.reshape(rows.size, n).sum(axis=1)
    return RouteCensus(hop_sums=hop_sums, loading=loading, pair_count=n * n)


def _assemble_report(method, spec, params, service, access, routing,
                     maintenance, sim_meta=None) -> CostReport:
    return CostReport(
        method=method,
        geometry=spec,
        params=params,
        service=service,
        access=access,
        routing=routing,
        maintenance=maintenance,
        aggregates=_aggregate(service, access, routing, maintenance),
        sim_meta=sim_meta,
    )


def _aggregate(service, access, routing, maintenance) -> Aggregates:
    arrays = {
        "service": service,
        "access": access,
        "routing": routing,
        "maintenance": maintenance,
        "total": service + access + routing + maintenance,
    }
    stats = {
        name: ComponentStats(
            mean=float(values.mean()), min=float(values.min()), max=float(values.max())
        )
        for name, values in arrays.items()
    }
    routing = arrays["routing"]
    above_min = routing[routing > routing.min()]
    second = float(above_min.min()) if above_min.size else float(routing.min())
    return Aggregates(second_min_routing=second, **stats)


def enumerate_exact(topology: Topology, params: CostParams,
                    max_nodes: Optional[int] = None) -> CostReport:
    """Exact expected per-node costs from a full walk of all pairs.

    Every counter is an integer until the single final division, so two
    runs agree bit for bit and the conservation law

        sum_i loading_i == sum_ij t(i, j) - (pairs with t >= 1 hop)

    holds in exact integers.
    """
    census = route_census(topology, max_nodes=max_nodes)
    n = topology.node_count
    service = np.full(n, params.s / n)
    access = params.a * census.hop_sums / n
    routing = params.r * census.loading / n**2
    maintenance = params.m * topology.degrees()
    return _assemble_report("exact", topology.spec, params, service, access, routing,
                            maintenance)


# ---------------------------------------------------------------------------
# closed forms as a report


#: Closed forms by spec class, called with the spec's fields.  The star
#: yields the hub's and a spoke's breakdown; torus, plaxton and chord
#: are node-transitive and yield the one breakdown every node shares.
#: De Bruijn graphs have bounds only (``closedforms.debruijn_bounds``).
_CLOSED_FORMS = {
    Star: closedforms.star_breakdowns,
    Torus: closedforms.torus_costs,
    PlaxtonTree: closedforms.plaxton_costs,
    ChordRing: closedforms.chord_costs,
}


def analytic_report(spec: GeometrySpec, params: CostParams) -> CostReport:
    """Closed-form per-node costs where a geometry has them.

    Star networks get the two-role breakdown; torus, plaxton and chord
    are node-transitive so one breakdown is replicated.  The torus
    access entry carries the n_side / 4 ring approximation of its
    closed form.  De Bruijn graphs have no per-node closed form, only
    bounds; ask ``closedforms.debruijn_bounds`` for those.  Networks
    above ``ANALYTIC_REPORT_LIMIT`` nodes are refused.
    """
    closed_form = _CLOSED_FORMS.get(type(spec))
    if closed_form is None:
        raise UnsupportedParameterError(
            f"{spec.name} per-node costs have no closed form; "
            "use exact enumeration or simulation"
        )
    n = spec.node_count
    if n > ANALYTIC_REPORT_LIMIT:
        raise ResourceLimitError(
            f"a per-node report over {n} nodes exceeds the limit of "
            f"{ANALYTIC_REPORT_LIMIT} nodes"
        )
    costs = closed_form(params, **asdict(spec))
    # the star yields (hub, spoke) and node 0 is its hub
    first, rest = costs if isinstance(costs, tuple) else (costs, costs)
    columns = {name: np.full(n, getattr(rest, name)) for name in _ARRAYS}
    for name, column in columns.items():
        column[0] = getattr(first, name)
    return _assemble_report("analytic", spec, params, **columns)


# ---------------------------------------------------------------------------
# simulation


def simulate(topology: Topology, params: CostParams, requests: int,
             seed: int) -> CostReport:
    """Monte Carlo cost estimate from one seeded request stream.

    Draws ``requests`` independent (source, holder) pairs, both ends
    uniform, routes each canonically and renormalizes the counters into
    the unbiased estimators documented in the module docstring.
    """
    if requests < 1:
        raise InvalidParameterError(f"requests must be >= 1, got {requests}")
    n = topology.node_count
    model = RequestModel(n)
    rng = np.random.default_rng(seed)
    src, dst = model.sample_pairs(rng, requests)
    relay_hits = np.zeros(n, dtype=np.int64)
    hops = pair_kernel(topology, src, dst, relay_hits)
    holder_counts = np.bincount(dst, minlength=n)
    issued_hops = np.zeros(n, dtype=np.int64)
    np.add.at(issued_hops, src, hops)
    service = params.s * holder_counts / requests
    access = params.a * n * issued_hops / requests
    routing = params.r * relay_hits / requests
    maintenance = params.m * topology.degrees()
    meta = SimMeta(seeds=(seed,), requests=requests)
    return _assemble_report("simulated", topology.spec, params, service, access,
                            routing, maintenance, sim_meta=meta)


def simulate_seeds(topology: Topology, params: CostParams, requests: int,
                   seeds: Sequence[int]) -> CostReport:
    """Average of independent ``simulate`` runs, one per seed."""
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise InvalidParameterError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise InvalidParameterError("seeds must be distinct")
    n = topology.node_count
    acc = {name: np.zeros(n) for name in _ARRAYS}
    for seed in seeds:
        run = simulate(topology, params, requests, seed)
        for name in acc:
            acc[name] += run.component(name)
    for name in acc:
        acc[name] /= len(seeds)
    meta = SimMeta(seeds=seeds, requests=requests)
    return _assemble_report("simulated", topology.spec, params, sim_meta=meta, **acc)


# ---------------------------------------------------------------------------
# comparison


def compare(reports: Sequence[CostReport], rel_tol: float = 1e-9,
            abs_tol: float = 1e-12) -> ComparisonTable:
    """Pairwise per-component deviations between reports.

    All reports must describe the same geometry and prices.  A pair of
    components is within tolerance when every node satisfies
    |x - y| <= abs_tol + rel_tol * max(|x|, |y|), the symmetric isclose
    convention.
    """
    reports = list(reports)
    if len(reports) < 2:
        raise InvalidParameterError("compare needs at least two reports")
    first = reports[0]
    for other in reports[1:]:
        if other.geometry != first.geometry:
            raise InvalidParameterError("reports describe different geometries")
        if other.params != first.params:
            raise InvalidParameterError("reports priced with different params")
    rows = []
    for left, right in combinations(reports, 2):
        for name in COMPONENTS:
            va, vb = left.component(name), right.component(name)
            dev = np.abs(va - vb)
            scale = np.maximum(np.abs(va), np.abs(vb))
            within = bool(np.all(dev <= abs_tol + rel_tol * scale))
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(dev == 0, 0.0, dev / scale)
            rows.append(
                DeviationRow(
                    component=name,
                    method_a=left.method,
                    method_b=right.method,
                    mean_a=float(va.mean()),
                    mean_b=float(vb.mean()),
                    max_abs_dev=float(dev.max()),
                    max_rel_dev=float(np.max(rel)),
                    within_tol=within,
                )
            )
    return ComparisonTable(geometry=first.geometry, rows=tuple(rows))
