"""Command line front end for the cost library.

Four subcommands:

* ``analyze``           evaluate one geometry by any of the three methods
* ``star-equilibrium``  classify the break-even size of the star
* ``sweep``             mean access/routing rows over a range of sizes
* ``pernode-dump``      exact per-node cost rows for one geometry

Per-node CSV output always carries the header
``node_id,service,access,routing,maintenance,total`` and writes floats
in shortest round-trip form; rounding to two decimals happens only in
the human-readable stdout summary.  Identical configuration (including
seeds) produces byte-identical files.

Exit codes: 0 success, 1 usage error, 2 infeasible or unsupported
parameters, 3 resource guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterator, Optional, Sequence, TextIO

from . import closedforms, engine
from .costmodel import (
    CostParams,
    InvalidParameterError,
    ResourceLimitError,
    UnsupportedParameterError,
)
from .topologies import (
    GEOMETRIES,
    ChordRing,
    DeBruijn,
    GeometrySpec,
    PlaxtonTree,
    Star,
    Torus,
    build,
)

#: Environment override for the exact-enumeration node guard; the
#: ``--max-exact-n`` flag wins over the environment.
ENV_GUARD = "DHTCOSTLAB_MAX_N"

_METHOD_TOKENS = ("analytic", "exact", "sim")
_PER_NODE_HEADER = ("node_id", "service", "access", "routing", "maintenance", "total")
_SWEEP_HEADER = ("geometry", "requested_n", "actual_n", "method", "mean_access", "mean_routing")

#: Per-node rows are converted from the report arrays this many at a
#: time, so a writer never holds all N rows as Python objects.
_ROW_BLOCK = 4096


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for
    infeasible parameters, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: what to evaluate, how, and where to."""

    geometry: GeometrySpec
    params: CostParams
    methods: tuple[str, ...]
    seeds: Optional[tuple[int, ...]]
    requests: Optional[int]
    out_format: str
    out_path: Optional[str]
    max_exact_n: Optional[int]

    def __post_init__(self):
        if not self.methods:
            raise InvalidParameterError("at least one method must be selected")
        unknown = set(self.methods) - set(_METHOD_TOKENS)
        if unknown:
            raise InvalidParameterError(f"unknown methods {sorted(unknown)}")
        wants_sim = "sim" in self.methods
        has_settings = self.seeds is not None and self.requests is not None
        if wants_sim != has_settings:
            raise InvalidParameterError(
                "simulation settings must be present exactly when sim is selected"
            )


# ---------------------------------------------------------------------------
# argument plumbing


def _methods_arg(text: str) -> tuple[str, ...]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError("at least one method is required")
    for t in tokens:
        if t not in _METHOD_TOKENS:
            raise argparse.ArgumentTypeError(
                f"unknown method {t!r}, expected any of {', '.join(_METHOD_TOKENS)}"
            )
    # canonical order, duplicates dropped, so output order is stable
    return tuple(t for t in _METHOD_TOKENS if t in tokens)


def _seeds_arg(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be a comma list of integers, got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("at least one seed is required")
    return seeds


def _geometries_arg(text: str) -> tuple[str, ...]:
    tokens = tuple(t.strip() for t in text.split(",") if t.strip())
    if not tokens:
        raise argparse.ArgumentTypeError("at least one geometry is required")
    for t in tokens:
        if _ladder(t) is None:
            raise argparse.ArgumentTypeError(
                f"unknown geometry token {t!r} (use {', '.join(_LADDERS)} or torus<D>)"
            )
    return tokens


def _add_param_flags(p: argparse.ArgumentParser):
    # figure-friendly defaults: unit access price, heavy routing price
    p.add_argument("--s", type=float, default=0.0, help="service price (default 0)")
    p.add_argument("--a", type=float, default=1.0, help="access price per hop (default 1)")
    p.add_argument("--r", type=float, default=1000.0, help="routing price per relay (default 1000)")
    p.add_argument("--m", type=float, default=0.0, help="maintenance price per link (default 0)")


def _add_geometry_flags(p: argparse.ArgumentParser):
    p.add_argument("--geometry", required=True, choices=list(GEOMETRIES))
    p.add_argument("--n", type=int, help="node count (star)")
    p.add_argument("--delta", type=int, help="symbol count (debruijn, plaxton)")
    p.add_argument("--d", type=int, help="word length / dimensions / ring bits")
    p.add_argument("--n-side", type=int, help="nodes per dimension (torus)")


def _add_output_flags(p: argparse.ArgumentParser, default_format: str):
    p.add_argument("--format", choices=("csv", "json"), default=default_format)
    p.add_argument("--out", help="output file path (default: stdout or summary only)")


def _add_sim_flags(p: argparse.ArgumentParser):
    p.add_argument("--seeds", type=_seeds_arg, default=tuple(range(10)),
                   help="comma list of simulation seeds (default 0..9)")
    p.add_argument("--requests", type=int, default=100_000,
                   help="requests per seed (default 100000)")
    p.add_argument("--max-exact-n", type=int,
                   help=f"node guard for exact enumeration (default 4096, env {ENV_GUARD})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dhtcostlab",
                     description="Per-node cost accounting for routing geometries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="evaluate one geometry")
    _add_geometry_flags(p)
    _add_param_flags(p)
    p.add_argument("--methods", type=_methods_arg, default=("analytic",),
                   help="comma subset of analytic,exact,sim (default analytic)")
    _add_sim_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(handler=_run_analyze)

    p = sub.add_parser("star-equilibrium", help="classify the star break-even size")
    _add_param_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(handler=_run_star_equilibrium)

    p = sub.add_parser("sweep", help="mean cost rows over a size range")
    p.add_argument("--geometries", type=_geometries_arg,
                   default=("star", "debruijn", "torus2", "torus6", "plaxton", "chord"),
                   help=f"comma list: {', '.join(_LADDERS)}, torus<D>")
    p.add_argument("--delta", type=int, default=2,
                   help="symbol count for debruijn/plaxton (default 2)")
    p.add_argument("--n-min", type=int, default=10)
    p.add_argument("--n-max", type=int, default=1000)
    _add_param_flags(p)
    p.add_argument("--methods", type=_methods_arg, default=("analytic",),
                   help="comma subset of analytic,exact,sim (default analytic)")
    _add_sim_flags(p)
    _add_output_flags(p, "csv")
    p.set_defaults(handler=_run_sweep)

    p = sub.add_parser("pernode-dump", help="exact per-node cost rows")
    _add_geometry_flags(p)
    _add_param_flags(p)
    p.add_argument("--max-exact-n", type=int,
                   help=f"node guard for exact enumeration (default 4096, env {ENV_GUARD})")
    _add_output_flags(p, "csv")
    p.set_defaults(handler=_run_pernode_dump)

    return parser


def _geometry_from_args(parser, args) -> GeometrySpec:
    spec_class = GEOMETRIES[args.geometry]
    values = {}
    for field in fields(spec_class):
        values[field.name] = getattr(args, field.name)
        if values[field.name] is None:
            parser.error(f"--geometry {args.geometry} requires --{field.name.replace('_', '-')}")
    return spec_class(**values)


def _resolve_guard(parser, args) -> Optional[int]:
    flag = getattr(args, "max_exact_n", None)
    if flag is not None:
        return flag
    env = os.environ.get(ENV_GUARD)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        parser.error(f"{ENV_GUARD} must be an integer, got {env!r}")


def _params_from_args(args) -> CostParams:
    return CostParams(s=args.s, a=args.a, r=args.r, m=args.m)


# ---------------------------------------------------------------------------
# serialization helpers


def _spec_dict(spec: GeometrySpec) -> dict:
    return {"geometry": spec.name, **asdict(spec)}


def _spec_label(spec: GeometrySpec) -> str:
    info = _spec_dict(spec)
    kind = info.pop("geometry")
    inner = ",".join(f"{k}={v}" for k, v in info.items())
    return f"{kind}({inner})"


def _params_dict(params: CostParams) -> dict:
    return {"s": params.s, "a": params.a, "r": params.r, "m": params.m}


def _report_dict(report: engine.CostReport, labels: Sequence[str]) -> dict:
    agg = report.aggregates
    aggregates = {
        name: {"mean": st.mean, "min": st.min, "max": st.max}
        for name, st in (
            (n, getattr(agg, n)) for n in engine.COMPONENTS
        )
    }
    aggregates["second_min_routing"] = agg.second_min_routing
    meta = None
    if report.sim_meta is not None:
        meta = {"seeds": list(report.sim_meta.seeds), "requests": report.sim_meta.requests}
    return {
        "method": report.method,
        "geometry": _spec_dict(report.geometry),
        "params": _params_dict(report.params),
        "aggregates": aggregates,
        "sim_meta": meta,
        "per_node": _RowStream(
            lambda: (dict(zip(_PER_NODE_HEADER, row)) for row in _per_node_rows(report, labels)),
            len(labels),
        ),
    }


class _RowStream(list):
    """A JSON array whose ``count`` items are made as the encoder asks.

    ``json``'s indenting encoder takes any ``list`` subclass, tests it
    for emptiness and iterates it once; both go through the overrides.
    """

    def __init__(self, make_rows: Callable[[], Iterator], count: int):
        super().__init__()
        self._make_rows = make_rows
        self._count = count

    def __len__(self):
        return self._count

    def __iter__(self):
        return self._make_rows()


def _bounds_dict(bounds: closedforms.DeBruijnBounds) -> dict:
    return {
        "a_min": bounds.a_min,
        "a_max": bounds.a_max,
        "r_max": bounds.r_max,
        "l_max": bounds.l_max,
    }


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _per_node_rows(report: engine.CostReport, labels: Sequence[str]):
    """(label, service, access, routing, maintenance, total) per node."""
    columns = (report.service, report.access, report.routing, report.maintenance,
               report.total)
    for start in range(0, len(labels), _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        yield from zip(labels[start:stop], *(c[start:stop].tolist() for c in columns))


def _write_csv(stream: TextIO, header, rows):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _print_report_summary(report: engine.CostReport):
    agg = report.aggregates
    print(f"method {report.method}")
    print(f"  {'component':<12} {'mean':>12} {'min':>12} {'max':>12}")
    for name in engine.COMPONENTS:
        st = getattr(agg, name)
        print(f"  {name:<12} {st.mean:>12.2f} {st.min:>12.2f} {st.max:>12.2f}")
    print(f"  routing floor above minimum: {agg.second_min_routing:.2f}")


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_analyze(config: RunConfig) -> int:
    spec, params = config.geometry, config.params
    # the closed forms need no topology; enumeration, simulation and the
    # node labels of written per-node rows do
    topology = build(spec) if {"exact", "sim"} & set(config.methods) else None
    reports: list[engine.CostReport] = []
    bounds = None
    for method in config.methods:
        if method == "analytic":
            if isinstance(spec, DeBruijn):
                # no per-node closed form for debruijn, only bounds
                bounds = closedforms.debruijn_bounds(params, spec.delta, spec.d)
            else:
                reports.append(engine.analytic_report(spec, params))
        elif method == "exact":
            reports.append(engine.enumerate_exact(topology, params, max_nodes=config.max_exact_n))
        else:
            reports.append(engine.simulate_seeds(topology, params, config.requests, config.seeds))
    labels = None
    if config.out_path and reports:
        topology = topology or build(spec)
        labels = [topology.label(i) for i in topology.nodes()]

    print(f"{_spec_label(spec)}  N={spec.node_count}  "
          f"s={params.s:g} a={params.a:g} r={params.r:g} m={params.m:g}")
    if bounds is not None:
        print(f"analytic bounds: access in [{bounds.a_min:.2f}, {bounds.a_max:.2f}], "
              f"routing <= {bounds.r_max:.2f} (relayed pairs <= {bounds.l_max})")
    for report in reports:
        _print_report_summary(report)

    if config.out_path:
        if config.out_format == "json":
            payload = {
                "config": _config_dict("analyze", config),
                "reports": [_report_dict(r, labels) for r in reports],
            }
            if bounds is not None:
                payload["analytic_bounds"] = _bounds_dict(bounds)
            _write_json(config.out_path, payload)
            print(f"wrote {config.out_path}")
        else:
            if not reports:
                raise UnsupportedParameterError(
                    "no per-node data to write as CSV; debruijn analytic "
                    "produces bounds only (use --format json or another method)"
                )
            targets = _csv_targets(config.out_path, reports)
            for path, report in targets:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    _write_csv(fh, _PER_NODE_HEADER, _per_node_rows(report, labels))
                print(f"wrote {path}")
    return 0


def _csv_targets(out_path, reports):
    if len(reports) == 1:
        return [(out_path, reports[0])]
    root, ext = os.path.splitext(out_path)
    return [(f"{root}.{r.method}{ext}", r) for r in reports]


def cmd_star_equilibrium(params: CostParams, out_format: str = "json",
                         out_path: Optional[str] = None) -> int:
    result = closedforms.star_equilibrium_size(params)
    print(f"prices s={params.s:g} a={params.a:g} r={params.r:g} m={params.m:g}")
    if isinstance(result, closedforms.AllN):
        kind = "all_n"
        print("every network size is an equilibrium (all prices zero)")
    elif isinstance(result, closedforms.NoneBesidesTwo):
        kind = "none_besides_two"
        print("no equilibrium size beyond the trivial two-node star")
    else:
        kind = "candidate"
        note = "integer" if result.is_integer else "not an integer"
        print(f"break-even size n0 = {result.n0_real!r} ({note})")
    if out_path:
        payload = {
            "config": {"command": "star-equilibrium", "params": _params_dict(params)},
            "result": {"kind": kind},
        }
        if isinstance(result, closedforms.Candidate):
            payload["result"]["n0_real"] = result.n0_real
            payload["result"]["is_integer"] = result.is_integer
        if out_format == "json":
            _write_json(out_path, payload)
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                _write_csv(fh, ("kind", "n0_real", "is_integer"), [(
                    kind,
                    result.n0_real if isinstance(result, closedforms.Candidate) else "",
                    result.is_integer if isinstance(result, closedforms.Candidate) else "",
                )])
        print(f"wrote {out_path}")
    return 0


#: Sweep size ladders by token: the first step, and the spec at step k
#: for the sweep's ``delta``.  Sizes grow with k.  ``torus<D>`` tokens
#: step through the side length of a D-dimensional torus.
_LADDERS = {
    "star": (2, lambda k, delta: Star(n=k)),
    "debruijn": (1, lambda k, delta: DeBruijn(delta=delta, d=k)),
    "plaxton": (1, lambda k, delta: PlaxtonTree(delta=delta, d=k)),
    "chord": (1, lambda k, delta: ChordRing(d=k)),
}


def _ladder(token: str):
    """(first step, spec at step k) of a sweep token; None if unknown."""
    torus = re.fullmatch(r"torus([1-9]\d*)", token)
    if torus:
        dims = int(torus.group(1))
        return 2, lambda k, delta: Torus(d=dims, n_side=k)
    return _LADDERS.get(token)


def _feasible_sizes(token: str, delta: int, n_min: int, n_max: int):
    """Yield (n, spec) for every feasible network size of one token.

    The first spec is built before any size is compared, so a ``delta``
    outside a geometry's domain raises ``InvalidParameterError``.
    """
    ladder = _ladder(token)
    if ladder is None:
        raise InvalidParameterError(f"unknown geometry token {token!r}")
    k, spec_at = ladder
    spec = spec_at(k, delta)
    while spec.node_count <= n_max:
        if spec.node_count >= n_min:
            yield spec.node_count, spec
        k += 1
        spec = spec_at(k, delta)


def cmd_sweep(geometries: Sequence[str], n_range: tuple[int, int], params: CostParams,
              methods: Sequence[str], seeds: Optional[Sequence[int]] = None,
              requests: Optional[int] = None, delta: int = 2,
              out_format: str = "csv", out_path: Optional[str] = None,
              max_exact_n: Optional[int] = None) -> int:
    n_min, n_max = n_range
    if n_min < 1 or n_max < n_min:
        raise InvalidParameterError(f"bad size range [{n_min}, {n_max}]")
    if "sim" in methods and (seeds is None or requests is None):
        raise InvalidParameterError("sim sweeps need seeds and requests")
    rows = []
    skipped = set()
    for token in geometries:
        for n, spec in _feasible_sizes(token, delta, n_min, n_max):
            for method in methods:
                try:
                    if method == "analytic":
                        report = engine.analytic_report(spec, params)
                    elif method == "exact":
                        report = engine.enumerate_exact(build(spec), params,
                                                        max_nodes=max_exact_n)
                    else:
                        report = engine.simulate_seeds(build(spec), params, requests, seeds)
                except UnsupportedParameterError as exc:
                    if (token, method) not in skipped:
                        skipped.add((token, method))
                        print(f"note: skipping {token} n={n} method={method}: {exc}",
                              file=sys.stderr)
                    continue
                agg = report.aggregates
                rows.append((token, n, n, method, agg.access.mean, agg.routing.mean))
    if not rows:
        raise InvalidParameterError(
            f"no feasible network size in [{n_min}, {n_max}] for {','.join(geometries)}"
        )
    print(f"{len(rows)} sweep rows over {len(geometries)} geometries, "
          f"sizes {n_min}..{n_max}")
    if out_path:
        if out_format == "csv":
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                _write_csv(fh, _SWEEP_HEADER, rows)
        else:
            payload = {
                "config": {
                    "command": "sweep",
                    "geometries": list(geometries),
                    "n_min": n_min,
                    "n_max": n_max,
                    "delta": delta,
                    "params": _params_dict(params),
                    "methods": list(methods),
                    "seeds": list(seeds) if seeds is not None else None,
                    "requests": requests,
                },
                "rows": [dict(zip(_SWEEP_HEADER, row)) for row in rows],
            }
            _write_json(out_path, payload)
        print(f"wrote {out_path}")
    elif out_format == "csv":
        _write_csv(sys.stdout, _SWEEP_HEADER, rows)
    else:
        json.dump([dict(zip(_SWEEP_HEADER, row)) for row in rows], sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def cmd_pernode_dump(config: RunConfig) -> int:
    topology = build(config.geometry)
    report = engine.enumerate_exact(topology, config.params, max_nodes=config.max_exact_n)
    labels = [topology.label(i) for i in topology.nodes()]
    if config.out_path:
        if config.out_format == "csv":
            with open(config.out_path, "w", encoding="utf-8", newline="") as fh:
                _write_csv(fh, _PER_NODE_HEADER, _per_node_rows(report, labels))
        else:
            _write_json(config.out_path, {
                "config": _config_dict("pernode-dump", config),
                "report": _report_dict(report, labels),
            })
        print(f"wrote {config.out_path}")
    elif config.out_format == "csv":
        _write_csv(sys.stdout, _PER_NODE_HEADER, _per_node_rows(report, labels))
    else:
        json.dump(_report_dict(report, labels), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def _config_dict(command: str, config: RunConfig) -> dict:
    # the output path is deliberately not echoed so that two runs with
    # the same logical config produce byte-identical files anywhere
    return {
        "command": command,
        "geometry": _spec_dict(config.geometry),
        "params": _params_dict(config.params),
        "methods": list(config.methods),
        "seeds": list(config.seeds) if config.seeds is not None else None,
        "requests": config.requests,
        "format": config.out_format,
    }


# ---------------------------------------------------------------------------
# dispatch


def _run_analyze(parser, args) -> int:
    wants_sim = "sim" in args.methods
    config = RunConfig(
        geometry=_geometry_from_args(parser, args),
        params=_params_from_args(args),
        methods=args.methods,
        seeds=tuple(args.seeds) if wants_sim else None,
        requests=args.requests if wants_sim else None,
        out_format=args.format,
        out_path=args.out,
        max_exact_n=_resolve_guard(parser, args),
    )
    return cmd_analyze(config)


def _run_star_equilibrium(parser, args) -> int:
    return cmd_star_equilibrium(_params_from_args(args), args.format, args.out)


def _run_sweep(parser, args) -> int:
    wants_sim = "sim" in args.methods
    return cmd_sweep(
        geometries=args.geometries,
        n_range=(args.n_min, args.n_max),
        params=_params_from_args(args),
        methods=args.methods,
        seeds=tuple(args.seeds) if wants_sim else None,
        requests=args.requests if wants_sim else None,
        delta=args.delta,
        out_format=args.format,
        out_path=args.out,
        max_exact_n=_resolve_guard(parser, args),
    )


def _run_pernode_dump(parser, args) -> int:
    config = RunConfig(
        geometry=_geometry_from_args(parser, args),
        params=_params_from_args(args),
        methods=("exact",),
        seeds=None,
        requests=None,
        out_format=args.format,
        out_path=args.out,
        max_exact_n=_resolve_guard(parser, args),
    )
    return cmd_pernode_dump(config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(parser, args)
    except (InvalidParameterError, UnsupportedParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
