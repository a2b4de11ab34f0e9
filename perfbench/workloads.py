"""The three benchmark workloads: their inputs, one pass, and its checks.

Each workload stresses a different layer (see README.md in this
directory for the metric -> layer -> workload table):

* ``exact-census``: exact enumeration on six ~2k-4k node specs.  The
  pair kernels do >= 95 % of the work, so it shows census and kernel
  changes and bypasses per-node report assembly.
* ``sim-wide``: 4-seed simulation on three 65 536-node specs with ~1.5
  requests per node.  Per-node work (degrees, report assembly,
  aggregation, ``compare``) dominates and the kernel is ~7 %.
* ``cli-write``: five CLI commands writing ~19.5 MB per pass, the write
  side of the system, with almost no census.

The workload seed orders the specs or commands, draws the reference-pin
pairs and, for ``sim-wide``, the simulation seeds.  Every pass of a run
does the same work on the same inputs.

A pass built with an enabled tracer also records per-layer spans and
counts.  Layers are timed from outside: around each public call the
workload makes, and by replaying on their own the library calls that an
opaque call makes inside (recorded as children of that call's span, see
``spans``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from dhtcostlab import (
    ChordRing,
    CostParams,
    DeBruijn,
    PlaxtonTree,
    RequestModel,
    Star,
    Torus,
    UnsupportedParameterError,
    analytic_report,
    build,
    canonical_route,
    cli,
    compare,
    debruijn_bounds,
    debruijn_l_max,
    degree,
    enumerate_exact,
    is_repeated_symbol_node,
    route_census,
    simulate,
    simulate_seeds,
    star_equilibrium_size,
    torus_loading,
)
from dhtcostlab.engine import pair_kernel

#: Prices of the library workloads.  ``m`` is non-zero so that degrees
#: reach the maintenance component.
PARAMS = CostParams(s=1.0, a=1.0, r=1000.0, m=1.0)

#: The four per-node components an exact report derives from integers.
COMPONENTS = ("service", "access", "routing", "maintenance")

MB = 2**20

#: Random pairs per spec in the reference pin, plus self pairs so that
#: zero-hop routes are pinned too.
PIN_PAIRS = 2000
PIN_SELF_PAIRS = 16

# Torus sides 45 (odd) and 12 (even) cover both arc rules: ties between
# the two arcs of a ring only occur at even sides.
EXACT_SPECS = (
    Torus(d=2, n_side=45),
    Torus(d=3, n_side=12),
    DeBruijn(delta=3, d=7),
    PlaxtonTree(delta=3, d=7),
    ChordRing(d=11),
    Star(n=4096),
)

# Torus is left out: its sampled kernel walks one step at a time and
# would make this a kernel workload again.
SIM_SPECS = (ChordRing(d=16), PlaxtonTree(delta=4, d=8), DeBruijn(delta=4, d=8))
SIM_REQUESTS = 100_000
SIM_SEEDS = 4
#: Simulated means must lie this close (relative) to the closed forms;
#: at 4 x 100k requests they land within ~3e-4.
SIM_MEAN_TOL = 0.01

#: The CLI's own default prices, which the cli-write commands use.
CLI_PARAMS = CostParams(s=0.0, a=1.0, r=1000.0, m=0.0)
STAR_EQ_PARAMS = CostParams(s=1.0, a=5.0, r=2.0, m=1.0)


class Checks:
    """Counts output checks; each failure is also reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def array_digest(values) -> str:
    """SHA-256 of a float64 array's little-endian bytes."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def file_digest(path: Path) -> Optional[str]:
    """SHA-256 of a file's bytes, ``None`` when there is no file."""
    path = Path(path)
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def report_rows(report) -> int:
    """Per-node rows of a report."""
    return report.component("service").size


def alloc_peak_mb(call: Callable[[], object]) -> float:
    """Peak traced allocation during ``call()``, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


@dataclass
class Workload:
    name: str
    seed: int
    golden: dict
    outdir: Path
    specs: tuple = ()
    order: tuple = ()
    sim_seeds: tuple = ()
    checks: Checks = field(default_factory=Checks)
    counts: Counter = field(default_factory=Counter)

    def run_pass(self, tr) -> None:
        PASSES[self.name](self, tr)

    def alloc_probe(self) -> dict[str, float]:
        """tracemalloc peaks, outside any timed pass (tracing slows calls)."""
        return ALLOC_PROBES.get(self.name, lambda w: {})(self)


def make(name: str, seed: int, golden: dict, outdir: Path) -> Workload:
    """The workload ``name`` with its inputs drawn from ``seed``."""
    if name not in PASSES:
        raise ValueError(f"unknown workload {name!r}, expected one of {sorted(PASSES)}")
    rng = np.random.default_rng(seed)
    w = Workload(name=name, seed=seed, golden=golden, outdir=outdir)
    if name == "exact-census":
        w.specs = EXACT_SPECS
        w.order = tuple(EXACT_SPECS[i] for i in rng.permutation(len(EXACT_SPECS)))
    elif name == "sim-wide":
        w.specs = SIM_SPECS
        w.order = tuple(SIM_SPECS[i] for i in rng.permutation(len(SIM_SPECS)))
        w.sim_seeds = tuple(SIM_SEEDS * seed + k for k in range(SIM_SEEDS))
    else:
        w.specs = tuple(c.spec for c in CLI_COMMANDS if c.spec is not None)
        w.order = tuple(CLI_COMMANDS[i] for i in rng.permutation(len(CLI_COMMANDS)))
    return w


# ---------------------------------------------------------------------------
# reference pin


def pin(w: Workload, tr) -> None:
    """Pin ``pair_kernel`` to the scalar ``canonical_route`` on sampled pairs.

    Hop counts and relay increments must be equal, pair for pair and
    node for node.  The pairs are drawn from the workload seed.
    """
    rng = np.random.default_rng([w.seed, 1])
    for spec in w.specs:
        topo = build(spec)
        n = spec.node_count
        src = rng.integers(0, n, size=PIN_PAIRS, dtype=np.int64)
        dst = rng.integers(0, n, size=PIN_PAIRS, dtype=np.int64)
        src = np.concatenate([src, src[:PIN_SELF_PAIRS]])
        dst = np.concatenate([dst, src[:PIN_SELF_PAIRS]])
        relays = np.zeros(n, dtype=np.int64)
        hops = pair_kernel(topo, src, dst, relays)
        with tr.span("topologies.route"):
            routes = [canonical_route(topo, s, d) for s, d in zip(src.tolist(), dst.tolist())]
        ref_relays = np.zeros(n, dtype=np.int64)
        for route in routes:
            for node in route.intermediates:
                ref_relays[node] += 1
        ref_hops = np.array([route.hop_count for route in routes], dtype=np.int64)
        w.checks.check(f"pin {spec!r}: hop counts", np.array_equal(hops, ref_hops))
        w.checks.check(f"pin {spec!r}: relay increments", np.array_equal(relays, ref_relays))
        if tr.enabled:
            w.counts["topologies.route_pairs"] += src.size


# ---------------------------------------------------------------------------
# exact-census


def check_components(w: Workload, spec, report) -> None:
    """Check each component array of ``report`` against its golden digest."""
    golden = w.golden["exact-census"][repr(spec)]
    for name in COMPONENTS:
        w.checks.check(f"{spec!r} {name}: golden digest",
                       array_digest(report.component(name)) == golden[name])


def exact_census_pass(w: Workload, tr) -> None:
    for spec in w.order:
        n = spec.node_count
        with tr.span("topologies.build"):
            topo = build(spec)
        with tr.span("engine.enumerate_exact") as exact_span:
            report = enumerate_exact(topo, PARAMS)
        check_components(w, spec, report)
        # Every exact counter is an integer divided once, far below 2**50,
        # so rounding recovers the integers exactly.
        relays = np.rint(report.component("routing") * n * n / PARAMS.r).astype(np.int64)
        hops = np.rint(report.component("access") * n / PARAMS.a).astype(np.int64)
        # only the n self pairs route zero hops
        w.checks.check(f"{spec!r}: conservation sum(loading) == sum(hops) - moving pairs",
                       int(relays.sum()) == int(hops.sum()) - (n * n - n))
        _closed_form_check(w, tr, spec, report, relays)
        if tr.enabled:
            with tr.span("engine.route_census", parent=exact_span):
                census = route_census(topo)
            w.checks.check(f"{spec!r}: census counters equal the report's",
                           np.array_equal(census.loading, relays)
                           and np.array_equal(census.hop_sums, hops))
            w.counts["engine.census_pairs"] += census.pair_count
            w.counts["engine.census_relays"] += int(census.loading.sum())
            w.counts["engine.census_hops"] += int(census.hop_sums.sum())
            w.counts["engine.census_moving_pairs"] += census.pair_count - n


def _closed_form_check(w: Workload, tr, spec, report, relays) -> None:
    if isinstance(spec, Torus):
        # torus access carries the n_side / 4 approximation: not compared
        w.checks.check(f"{spec!r}: every loading equals torus_loading",
                       bool(np.all(relays == torus_loading(spec.d, spec.n_side))))
    elif isinstance(spec, DeBruijn):
        repeated = [i for i in range(spec.node_count) if is_repeated_symbol_node(spec, i)]
        w.checks.check(f"{spec!r}: repeated-symbol nodes route nothing",
                       len(repeated) == spec.delta and not relays[repeated].any())
        w.checks.check(f"{spec!r}: max loading <= debruijn_l_max",
                       int(relays.max()) <= debruijn_l_max(spec.delta, spec.d))
    else:
        with tr.span("engine.analytic_report"):
            reference = analytic_report(spec, PARAMS)
        with tr.span("engine.compare"):
            table = compare([reference, report], rel_tol=1e-12)
        w.checks.check(f"{spec!r}: exact equals closed form", table.all_within())


def exact_census_alloc(w: Workload) -> dict[str, float]:
    peak = max(alloc_peak_mb(lambda: enumerate_exact(build(spec), PARAMS))
               for spec in EXACT_SPECS)
    return {"engine.enumerate_exact_alloc_mb": peak}


# ---------------------------------------------------------------------------
# sim-wide


def sim_wide_pass(w: Workload, tr) -> None:
    for spec in w.order:
        with tr.span("topologies.build"):
            topo = build(spec)
        with tr.span("engine.simulate_seeds"):
            sim = simulate_seeds(topo, PARAMS, SIM_REQUESTS, w.sim_seeds)
        reports = [sim]
        if isinstance(spec, DeBruijn):
            with tr.span("closedforms.debruijn_bounds"):
                bounds = debruijn_bounds(PARAMS, spec.delta, spec.d)
            w.checks.check(f"{spec!r}: mean access inside debruijn_bounds",
                           bounds.a_min <= sim.aggregates.access.mean <= bounds.a_max)
        else:
            with tr.span("engine.analytic_report"):
                reference = analytic_report(spec, PARAMS)
            with tr.span("engine.compare"):
                table = compare([reference, sim])
            reports.append(reference)
            for row in table.rows:
                if row.component in ("access", "routing"):
                    w.checks.check(
                        f"{spec!r}: simulated mean {row.component} within "
                        f"{SIM_MEAN_TOL:.0%} of the closed form",
                        abs(row.mean_b - row.mean_a) <= SIM_MEAN_TOL * abs(row.mean_a))
        if tr.enabled:
            w.counts["engine.report_rows"] += sum(map(report_rows, reports))
            _sim_layers(w, tr, topo)


def _sim_layers(w: Workload, tr, topo) -> None:
    """Time degrees, and one seed's ``simulate`` split by replay."""
    with tr.span("topologies.degree"):
        for node in topo.nodes():
            degree(topo, node)
    n, seed = topo.node_count, w.sim_seeds[0]
    with tr.span("engine.simulate") as sim_span:
        simulate(topo, PARAMS, SIM_REQUESTS, seed)
    with tr.span("costmodel.sample_pairs", parent=sim_span):
        src, dst = RequestModel(n).sample_pairs(np.random.default_rng(seed), SIM_REQUESTS)
    with tr.span("engine.pair_kernel", parent=sim_span):
        pair_kernel(topo, src, dst, np.zeros(n, dtype=np.int64))
    w.counts["engine.kernel_pairs"] += SIM_REQUESTS


def sim_wide_alloc(w: Workload) -> dict[str, float]:
    # One spec only: tracemalloc slows this call ~8x.  The three specs
    # have the same node count, and the peak follows per-node objects.
    spec = SIM_SPECS[0]
    return {"engine.simulate_seeds_alloc_mb": alloc_peak_mb(
        lambda: simulate_seeds(build(spec), PARAMS, SIM_REQUESTS, w.sim_seeds))}


# ---------------------------------------------------------------------------
# cli-write


@dataclass(frozen=True)
class CliCommand:
    filename: str
    span: str
    argv: tuple
    #: the topology the command builds, if any
    spec: Optional[object]
    #: ``replay(tr, parent, command)`` repeats the library calls the
    #: command makes; returns the per-node rows of the reports they build
    replay: Callable


def _replay_labels(tr, parent, spec):
    with tr.span("topologies.build", parent=parent):
        topo = build(spec)
    with tr.span("topologies.label", parent=parent):
        [topo.label(node) for node in topo.nodes()]
    return topo


def _replay_analyze(tr, parent, command):
    _replay_labels(tr, parent, command.spec)
    with tr.span("engine.analytic_report", parent=parent):
        return report_rows(analytic_report(command.spec, CLI_PARAMS))


def _replay_pernode_dump(tr, parent, command):
    topo = _replay_labels(tr, parent, command.spec)
    with tr.span("engine.enumerate_exact", parent=parent) as exact_span:
        report = enumerate_exact(topo, CLI_PARAMS)
    with tr.span("engine.route_census", parent=exact_span):
        route_census(topo)
    return report_rows(report)


def _replay_sweep(tr, parent, command):
    args = cli.build_parser().parse_args(list(command.argv))
    rows = 0
    for token in args.geometries:
        for _, spec in cli._feasible_sizes(token, args.delta, args.n_min, args.n_max):
            # one report alive at a time, as in the command: holding them
            # all would make the collector's passes slower
            with tr.span("engine.analytic_report", parent=parent):
                try:
                    rows += report_rows(analytic_report(spec, CLI_PARAMS))
                except UnsupportedParameterError:
                    pass  # sweep skips these sizes too
    return rows


def _replay_star_equilibrium(tr, parent, command):
    with tr.span("closedforms.star_equilibrium_size", parent=parent):
        star_equilibrium_size(STAR_EQ_PARAMS)
    return 0


CLI_COMMANDS = (
    CliCommand("analyze-chord.json", "cli.analyze",
               ("analyze", "--geometry", "chord", "--d", "16", "--methods", "analytic",
                "--format", "json"),
               ChordRing(d=16), _replay_analyze),
    CliCommand("analyze-torus.csv", "cli.analyze",
               ("analyze", "--geometry", "torus", "--d", "2", "--n-side", "256",
                "--methods", "analytic", "--format", "csv"),
               Torus(d=2, n_side=256), _replay_analyze),
    CliCommand("pernode-debruijn.csv", "cli.pernode_dump",
               ("pernode-dump", "--geometry", "debruijn", "--delta", "5", "--d", "4",
                "--format", "csv"),
               DeBruijn(delta=5, d=4), _replay_pernode_dump),
    CliCommand("sweep.json", "cli.sweep",
               ("sweep", "--methods", "analytic", "--n-min", "10", "--n-max", "4096",
                "--format", "json"),
               None, _replay_sweep),
    CliCommand("star-equilibrium.json", "cli.star_equilibrium",
               ("star-equilibrium", "--s", "1", "--a", "5", "--r", "2", "--m", "1"),
               None, _replay_star_equilibrium),
)


def run_cli(argv) -> int:
    """``cli.main`` with its stdout and stderr captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(list(argv))


def count_rows(path: Path) -> int:
    """Data rows of a CSV file, or per-node and sweep rows of a JSON file."""
    if path.suffix == ".csv":
        with path.open(encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 1
    payload = json.loads(path.read_text(encoding="utf-8"))
    per_node = sum(len(r["per_node"]) for r in payload.get("reports", []))
    return per_node + len(payload.get("rows", []))


def check_file(w: Workload, command: CliCommand, path: Path) -> None:
    """Check the file ``command`` wrote at ``path`` against its golden digest."""
    w.checks.check(f"{command.filename}: golden digest",
                   file_digest(path) == w.golden["cli-write"][command.filename])


def cli_write_pass(w: Workload, tr) -> None:
    for command in w.order:
        path = w.outdir / command.filename
        path.unlink(missing_ok=True)  # a failed command must not find last pass's file
        with tr.span(command.span) as command_span:
            code = run_cli([*command.argv, "--out", str(path)])
        w.checks.check(f"{command.filename}: exit code {code}", code == 0)
        check_file(w, command, path)
        if tr.enabled and path.is_file():
            w.counts["engine.report_rows"] += command.replay(tr, command_span, command)
            w.counts["cli.bytes_written"] += path.stat().st_size
            w.counts[f"bytes.{command.span}"] += path.stat().st_size
            w.counts["cli.rows_written"] += count_rows(path)


PASSES = {
    "exact-census": exact_census_pass,
    "sim-wide": sim_wide_pass,
    "cli-write": cli_write_pass,
}
ALLOC_PROBES = {
    "exact-census": exact_census_alloc,
    "sim-wide": sim_wide_alloc,
}


# ---------------------------------------------------------------------------
# golden outputs


def record_golden(outdir: Path) -> dict:
    """Digests of the exact-census component arrays and the cli-write files."""
    exact = {}
    for spec in EXACT_SPECS:
        report = enumerate_exact(build(spec), PARAMS)
        exact[repr(spec)] = {name: array_digest(report.component(name)) for name in COMPONENTS}
    files = {}
    for command in CLI_COMMANDS:
        path = outdir / command.filename
        if run_cli([*command.argv, "--out", str(path)]) != 0:
            raise RuntimeError(f"{command.filename}: command failed")
        files[command.filename] = file_digest(path)
    return {"exact-census": exact, "cli-write": files}
