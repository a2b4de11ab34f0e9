"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
from spans import Span, covered, self_times, totals  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared(kind):
    spec = json.loads(run.DECLARED.read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


def test_end_to_end_names_match_benchmark_json():
    emitted = run.end_to_end_metrics([2.0, 1.0, 3.0], [0.5, 0.4, 0.6], 2048)
    assert set(emitted) == declared("end_to_end")
    assert emitted["wall_s"] == 3.0
    assert emitted["setup_s"] == 0.4
    assert emitted["peak_rss_mb"] == 2.0


def test_per_layer_names_match_benchmark_json():
    emitted = run.per_layer_metrics([], Counter(), {}, 1.0, 1.5)
    assert set(emitted) == declared("per_layer")
    assert emitted["bench.trace_overhead_s"] == 0.5


def test_every_per_layer_metric_names_its_workloads():
    assert set(run.REACHED_ON) == declared("per_layer")
    for on in run.REACHED_ON.values():
        assert on and set(on) <= set(run.WORKLOADS)
    assert "cli.sweep_s" in run.not_reached("sim-wide")
    assert "cli.sweep_s" not in run.not_reached("cli-write")


def test_noise_flags_reached_metrics_at_or_below_zero():
    values = {name: 1.0 for name in run.REACHED_ON}
    values["engine.exact_assembly_s"] = -0.002  # reached on exact-census
    values["cli.serialize_s"] = 0.0  # not reached on exact-census
    assert run.noise("exact-census", values) == ["engine.exact_assembly_s"]
    assert run.noise("cli-write", values) == ["cli.serialize_s", "engine.exact_assembly_s"]


def test_rate_keeps_a_negative_denominator():
    assert run._rate(4.0, -2.0) == -2.0
    assert run._rate(0, 0.0) == 0.0


def test_metric_names_are_well_formed():
    for name in declared("end_to_end") | declared("per_layer"):
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 3.0, 0),
        Span(2, "b", 2.0, 4.0, 0),  # overlaps a: [1, 4] counts once
        Span(3, "a", 6.0, 7.0, 0),
        Span(4, "leaf", 6.2, 6.7, 3),  # grandchild: not subtracted from root
        Span(5, "replay", 12.0, 14.0, 0),  # replay child, after its parent
    ]
    own = self_times(spans)
    assert own[0] == 10.0 - (3.0 + 1.0 + 2.0)
    assert own[1] == 2.0
    assert abs(own[3] - 0.5) < 1e-12
    assert abs(own[4] - 0.5) < 1e-12
    assert own[5] == 2.0
    by_name = totals(spans, own=True)
    assert abs(by_name["a"] - 2.5) < 1e-12
    assert totals(spans)["a"] == 3.0


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0


def test_per_layer_derived_metrics_use_self_times():
    spans = [
        Span(0, "engine.enumerate_exact", 0.0, 5.0, None),
        Span(1, "engine.route_census", 5.0, 9.0, 0),
        Span(2, "cli.analyze", 10.0, 13.0, None),
        Span(3, "engine.analytic_report", 13.0, 15.0, 2),
        Span(4, "cli.sweep", 20.0, 23.0, None),  # not a serialization span
        Span(5, "engine.analytic_report", 23.0, 24.0, 4),
    ]
    counts = Counter({"engine.census_pairs": 8, "cli.bytes_written": 5 * run.MB,
                      "bytes.cli.analyze": 2 * run.MB, "bytes.cli.sweep": 3 * run.MB})
    m = run.per_layer_metrics(spans, counts, {}, 1.0, 1.0)
    assert m["engine.exact_assembly_s"] == 1.0
    assert m["engine.route_census_s"] == 4.0
    assert m["engine.census_pairs_per_s"] == 2.0
    assert m["cli.sweep_s"] == 3.0
    assert m["cli.serialize_s"] == 1.0
    assert m["cli.write_mb_per_s"] == 2.0


def _workload(golden):
    run.import_program()
    import workloads

    return workloads.Workload(name="test", seed=0, golden=golden, outdir=Path("."))


def test_one_changed_byte_fails_the_file_check(tmp_path):
    run.import_program()
    import workloads

    command = workloads.CLI_COMMANDS[0]
    out = tmp_path / command.filename
    out.write_bytes(b"node_id,service\n0,0.25\n")
    w = _workload({"cli-write": {command.filename: workloads.file_digest(out)}})
    workloads.check_file(w, command, out)
    assert (w.checks.attempted, w.checks.failed) == (1, 0)
    data = bytearray(out.read_bytes())
    data[-2] ^= 1
    out.write_bytes(bytes(data))
    workloads.check_file(w, command, out)
    assert (w.checks.attempted, w.checks.failed) == (2, 1)
    out.unlink()
    workloads.check_file(w, command, out)
    assert (w.checks.attempted, w.checks.failed) == (3, 2)


class _Report:
    def __init__(self, arrays):
        self.arrays = arrays

    def component(self, name):
        return self.arrays[name]


def test_one_changed_float_fails_the_component_check():
    run.import_program()
    import numpy as np
    import workloads

    spec = workloads.EXACT_SPECS[0]
    arrays = {name: np.linspace(0.0, k + 1.0, 7) for k, name in enumerate(workloads.COMPONENTS)}
    golden = {name: workloads.array_digest(values) for name, values in arrays.items()}
    w = _workload({"exact-census": {repr(spec): golden}})
    workloads.check_components(w, spec, _Report(arrays))
    assert (w.checks.attempted, w.checks.failed) == (4, 0)
    bumped = dict(arrays, routing=arrays["routing"].copy())
    bumped["routing"][3] = np.nextafter(bumped["routing"][3], 9.0)
    workloads.check_components(w, spec, _Report(bumped))
    assert (w.checks.attempted, w.checks.failed) == (8, 1)


def test_golden_file_covers_every_output():
    run.import_program()
    import workloads

    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    assert set(golden["cli-write"]) == {c.filename for c in workloads.CLI_COMMANDS}
    assert set(golden["exact-census"]) == {repr(s) for s in workloads.EXACT_SPECS}
    for digests in golden["exact-census"].values():
        assert set(digests) == set(workloads.COMPONENTS)
