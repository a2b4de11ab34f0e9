"""Run one benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload exact-census --seed 0 --seconds 20 --trace 0

A run pins the vectorized kernels to the scalar routes, runs one
warm-up pass, then times passes over the workload until they have
taken ``--seconds`` (at least ``MIN_PASSES``).  Every pass checks its
outputs.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` adds one traced pass after the untraced ones and prints
the per-layer metrics; its spans are written to ``.perfbench_out/``.
The last line of standard output is the result object; the line
before it is the environment stamp.  Metric names and units come from
BENCHMARK.json, and a run whose metrics differ from it fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy

from spans import Tracer, totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
DECLARED = ROOT / "BENCHMARK.json"

MIN_PASSES = 3
#: Fresh interpreters started to time set-up, before the warm-up and
#: after every pass.  Set-up takes ~0.08 s, and on a shared host CPU
#: speed drifts over seconds.  Spread over the run, the samples catch
#: its fastest spell, and ``setup_s`` is their minimum: over nine runs
#: on a 2-vCPU VM the minimum spread by 4 % and the median by 26 %.
SETUP_SAMPLES_PER_PASS = 3
#: Environment of the set-up interpreters.  Importing numpy starts
#: OpenBLAS's thread pool, one thread per CPU, and on a shared 2-CPU
#: host that start added 0 to 0.07 s, depending on the load next door.
#: dhtcostlab calls no BLAS routine, so one thread measures the same
#: program without that noise.
SETUP_ENV = {"OPENBLAS_NUM_THREADS": "1"}

SETUP_CODE = """\
import time
start = time.perf_counter()
import numpy
from dhtcostlab import *
for spec in ({specs},):
    build(spec)
print(time.perf_counter() - start)
"""

#: Per-layer timings that are the summed inclusive duration of one span name.
TIMED_SPANS = (
    "topologies.build",
    "topologies.degree",
    "topologies.label",
    "topologies.route",
    "costmodel.sample_pairs",
    "engine.route_census",
    "engine.pair_kernel",
    "engine.simulate",
    "engine.simulate_seeds",
    "engine.analytic_report",
    "engine.compare",
    "closedforms.debruijn_bounds",
    "closedforms.star_equilibrium_size",
    "cli.analyze",
    "cli.pernode_dump",
    "cli.sweep",
    "cli.star_equilibrium",
)
COUNTS = (
    "topologies.route_pairs",
    "engine.census_pairs",
    "engine.census_relays",
    "engine.census_hops",
    "engine.census_moving_pairs",
    "engine.kernel_pairs",
    "engine.report_rows",
    "cli.bytes_written",
    "cli.rows_written",
)
ALLOCS = ("engine.enumerate_exact_alloc_mb", "engine.simulate_seeds_alloc_mb")
#: Commands whose self time (command - replayed library calls) is
#: their serialization.  The sweep is left out: it writes 0.8 MB of the
#: 19.5 MB, and its self time is the difference of two ~2.5 s timings
#: that swing by +-0.5 s on a shared host, far more than its writing.
#: ``star-equilibrium`` writes a few hundred bytes.
SERIALIZE_SPANS = ("cli.analyze", "cli.pernode_dump")
MB = 2**20

WORKLOADS = EXACT, SIM, CLI = ("exact-census", "sim-wide", "cli-write")
#: The workloads whose passes reach each per-layer metric (the table in
#: README.md).  On the others the metric reads 0, and a traced run lists
#: it under ``not_reached`` in the stamp.
REACHED_ON = {
    "topologies.build_s": WORKLOADS,
    "topologies.degree_s": (SIM,),
    "topologies.label_s": (CLI,),
    "topologies.route_s": WORKLOADS,
    "topologies.route_pairs": WORKLOADS,
    "costmodel.sample_pairs_s": (SIM,),
    "engine.route_census_s": (EXACT, CLI),
    "engine.census_pairs": (EXACT,),
    "engine.census_pairs_per_s": (EXACT,),
    "engine.census_relays": (EXACT,),
    "engine.census_hops": (EXACT,),
    "engine.census_moving_pairs": (EXACT,),
    "engine.exact_assembly_s": (EXACT, CLI),
    "engine.pair_kernel_s": (SIM,),
    "engine.kernel_pairs": (SIM,),
    "engine.kernel_pairs_per_s": (SIM,),
    "engine.simulate_s": (SIM,),
    "engine.simulate_seeds_s": (SIM,),
    "engine.sim_assembly_s": (SIM,),
    "engine.analytic_report_s": WORKLOADS,
    "engine.compare_s": (EXACT, SIM),
    "engine.report_rows": (SIM, CLI),
    "engine.enumerate_exact_alloc_mb": (EXACT,),
    "engine.simulate_seeds_alloc_mb": (SIM,),
    "closedforms.debruijn_bounds_s": (SIM,),
    "closedforms.star_equilibrium_size_s": (CLI,),
    "cli.analyze_s": (CLI,),
    "cli.pernode_dump_s": (CLI,),
    "cli.sweep_s": (CLI,),
    "cli.star_equilibrium_s": (CLI,),
    "cli.serialize_s": (CLI,),
    "cli.bytes_written": (CLI,),
    "cli.rows_written": (CLI,),
    "cli.write_mb_per_s": (CLI,),
    "bench.trace_overhead_s": WORKLOADS,
}


def import_program():
    """Import dhtcostlab from this checkout's ``src``; exit 2 if it is absent."""
    if not (SRC / "dhtcostlab" / "__init__.py").is_file():
        print(f"error: no dhtcostlab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import dhtcostlab

    if Path(dhtcostlab.__file__).resolve().parent != SRC / "dhtcostlab":
        print(f"error: imported dhtcostlab from {dhtcostlab.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads(DECLARED.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _rate(amount: float, seconds: float) -> float:
    """``amount / seconds``; 0 only where the layer was not reached.

    A self time is a difference of two timings and may come out at or
    below 0; the rate is then emitted as it is, and the stamp flags it.
    """
    return amount / seconds if seconds else 0.0


def end_to_end_metrics(walls, setups, peak_rss_kib) -> dict[str, float]:
    """``wall_s`` is the slowest timed pass.

    On a shared host the common state is the slower one: fast spells,
    lasting seconds to a minute, are the exception.  Over 17 sets of
    nine or ten runs on a 2-vCPU VM, the IQR / median of the slowest
    pass averaged 0.12 (worst 0.22), that of the median pass 0.14
    (worst 0.29).  A faster program fits more passes into
    ``--seconds``, and the slowest of more passes reads a little higher:
    a gain is understated, never overstated.
    """
    return {
        "wall_s": max(walls),
        "setup_s": min(setups),
        "peak_rss_mb": peak_rss_kib * 1024 / MB,
    }


def per_layer_metrics(spans, counts, allocs, untraced_wall, traced_wall) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers it does not reach read 0."""
    spent = totals(spans)
    own = totals(spans, own=True)
    m = {f"{name}_s": spent.get(name, 0.0) for name in TIMED_SPANS}
    m.update({name: counts.get(name, 0) for name in COUNTS})
    m.update({name: allocs.get(name, 0.0) for name in ALLOCS})
    m["engine.exact_assembly_s"] = own.get("engine.enumerate_exact", 0.0)
    m["engine.sim_assembly_s"] = own.get("engine.simulate", 0.0)
    m["cli.serialize_s"] = sum(own.get(name, 0.0) for name in SERIALIZE_SPANS)
    m["engine.census_pairs_per_s"] = _rate(m["engine.census_pairs"], m["engine.route_census_s"])
    m["engine.kernel_pairs_per_s"] = _rate(m["engine.kernel_pairs"], m["engine.pair_kernel_s"])
    serialized = sum(counts.get(f"bytes.{name}", 0) for name in SERIALIZE_SPANS)
    m["cli.write_mb_per_s"] = _rate(serialized / MB, m["cli.serialize_s"])
    m["bench.trace_overhead_s"] = traced_wall - untraced_wall
    return m


def not_reached(workload: str) -> list[str]:
    """Per-layer metrics that read 0 on ``workload`` by design."""
    return sorted(k for k, on in REACHED_ON.items() if workload not in on)


def noise(workload: str, values: dict[str, float]) -> list[str]:
    """Metrics ``workload`` reaches that still read <= 0.

    Only a difference of two timings can: a self time, a rate over one,
    or the trace overhead.  Its value is then below the noise of the
    timings and says nothing about the program.
    """
    return sorted(k for k, v in values.items() if v <= 0 and workload in REACHED_ON[k])


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree "
                           f"with {DECLARED.name}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def setup_seconds(specs) -> float:
    """Fresh interpreter to ready: import numpy and dhtcostlab, build ``specs``."""
    code = SETUP_CODE.format(specs=", ".join(map(repr, specs)))
    env = dict(os.environ, **SETUP_ENV, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def timed_passes(run_pass, seconds: float, between) -> list[float]:
    """Wall time of each pass, started until the passes have taken ``seconds``.

    ``between()`` runs after each pass, outside the timing.
    """
    walls = []
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        t0 = time.perf_counter()
        run_pass()
        walls.append(time.perf_counter() - t0)
        gc.collect()
        between()
    return walls


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment_stamp(args, workload, samples: dict) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sim_seeds": list(workload.sim_seeds),
        **samples,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    units = declared_units("per_layer" if args.trace else "end_to_end")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outdir = OUT / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.make(args.workload, args.seed, golden, outdir)
        setups = []

        def sample_setup():
            if not args.trace:
                setups.extend(setup_seconds(w.specs) for _ in range(SETUP_SAMPLES_PER_PASS))

        tracer = Tracer(enabled=bool(args.trace))
        untraced = Tracer(enabled=False)
        if not args.trace:
            setup_seconds(w.specs)  # untimed: warms the file cache for the samples
        sample_setup()
        workloads.pin(w, tracer)
        w.run_pass(untraced)  # warm-up
        gc.collect()
        sample_setup()
        walls = timed_passes(lambda: w.run_pass(untraced), args.seconds, sample_setup)
        samples = {"timed_passes": len(walls), "pass_walls": walls, "setup_samples": setups,
                   "pin_pairs_per_spec": workloads.PIN_PAIRS + workloads.PIN_SELF_PAIRS}
        if args.trace:
            t0 = time.perf_counter()
            w.run_pass(tracer)
            traced_wall = time.perf_counter() - t0
            values = per_layer_metrics(tracer.spans, w.counts, w.alloc_probe(),
                                       max(walls), traced_wall)
            samples["traced_passes"] = 1
            samples["not_reached"] = not_reached(args.workload)
            samples["noise"] = noise(args.workload, values)
        else:
            values = end_to_end_metrics(
                walls, setups, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = with_units(values, units)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    stamp = environment_stamp(args, w, samples)
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"stamp": stamp, "spans": tracer.as_records()}),
                              encoding="utf-8")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": w.checks.failed == 0,
        "attempted": w.checks.attempted,
        "failed": w.checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
