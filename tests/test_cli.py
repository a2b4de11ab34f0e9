"""End-to-end command line behavior, run through real subprocesses.

Covers the exit-code contract (0 success, 1 usage, 2 infeasible,
3 guard), the stable CSV/JSON schemas, and byte-level determinism.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dhtcostlab import (
    GEOMETRIES,
    ChordRing,
    CostParams,
    DeBruijn,
    PlaxtonTree,
    Star,
    Torus,
)
from dhtcostlab import cli, engine, topologies
from dhtcostlab.cli import ENV_GUARD, _feasible_sizes, build_parser, main

CLI = [sys.executable, "-m", "dhtcostlab.cli"]


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("DHTCOSTLAB_MAX_N", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env,
                          timeout=timeout)


# ---------------------------------------------------------------------------
# exit codes


def test_success_exit_code():
    proc = run_cli("analyze", "--geometry", "star", "--n", "12")
    assert proc.returncode == 0
    assert "star(n=12)" in proc.stdout


def test_usage_errors_exit_one():
    assert run_cli("analyze").returncode == 1
    assert run_cli("analyze", "--geometry", "star").returncode == 1  # missing --n
    assert run_cli("analyze", "--geometry", "torus", "--d", "2").returncode == 1
    assert run_cli("analyze", "--geometry", "star", "--n", "5",
                   "--methods", "bogus").returncode == 1
    assert run_cli("bogus-command").returncode == 1


def test_geometry_choices_follow_the_registry():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("analyze", "pernode-dump"):
        flag = next(a for a in commands.choices[command]._actions if a.dest == "geometry")
        assert flag.choices == list(GEOMETRIES)
    assert list(GEOMETRIES) == ["star", "debruijn", "torus", "plaxton", "chord"]


def test_infeasible_parameters_exit_two():
    proc = run_cli("analyze", "--geometry", "torus", "--d", "2", "--n-side", "1")
    assert proc.returncode == 2
    assert "n_side" in proc.stderr
    assert run_cli("analyze", "--geometry", "debruijn", "--delta", "1",
                   "--d", "3").returncode == 2
    # negative prices are a domain violation, not a usage problem
    assert run_cli("analyze", "--geometry", "star", "--n", "5",
                   "--a", "-1").returncode == 2
    # star closed forms need at least two nodes
    assert run_cli("analyze", "--geometry", "star", "--n", "1",
                   "--methods", "analytic").returncode == 2


def test_resource_guard_exit_three():
    proc = run_cli("analyze", "--geometry", "chord", "--d", "13", "--methods", "exact")
    assert proc.returncode == 3
    assert "exceeds" in proc.stderr
    # tighter explicit guard
    assert run_cli("analyze", "--geometry", "star", "--n", "50",
                   "--methods", "exact", "--max-exact-n", "10").returncode == 3


def test_analyze_analytic_needs_no_topology(tmp_path):
    # 2**20 nodes is above the build limit; the closed form needs no build
    args = ("analyze", "--geometry", "chord", "--d", "20", "--methods", "analytic")
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert "chord(d=20)  N=1048576" in proc.stdout
    assert "method analytic" in proc.stdout
    # node labels come from the spec, so written rows need no build either
    out = tmp_path / "rows.csv"
    proc = run_cli(*args, "--out", str(out), "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        assert next(fh) == "node_id,service,access,routing,maintenance,total\n"
        assert next(fh).startswith("0" * 20 + ",")
        assert 2 + sum(1 for _ in fh) == 1 + 2**20
    out.unlink()  # 40 MB


@pytest.mark.parametrize("flags", [
    ("--geometry", "star", "--n", "6"),
    ("--geometry", "torus", "--d", "2", "--n-side", "3"),
    ("--geometry", "plaxton", "--delta", "3", "--d", "2"),
    ("--geometry", "chord", "--d", "3"),
], ids=["star", "torus", "plaxton", "chord"])
def test_analytic_out_builds_no_topology(tmp_path, monkeypatch, flags):
    def no_build(*args, **kwargs):
        raise AssertionError("build called")

    monkeypatch.setattr(cli, "build", no_build)
    monkeypatch.setattr(topologies, "build", no_build)
    for fmt in ("json", "csv"):
        out = tmp_path / f"rows.{fmt}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", *flags, "--format", fmt, "--out", str(out)]) == 0
        assert out.stat().st_size > 0


def test_overflowing_prices_exit_two(tmp_path):
    out = tmp_path / "f.json"
    proc = run_cli("analyze", "--geometry", "chord", "--d", "3", "--r", "1e308",
                   "--methods", "analytic,exact", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: routing costs of ChordRing(d=3) overflow float64")
    assert "Warning" not in proc.stderr
    proc = run_cli("analyze", "--geometry", "debruijn", "--delta", "2", "--d", "3",
                   "--r", "1e308", "--out", str(out))
    assert proc.returncode == 2
    assert "r_max overflows float64" in proc.stderr
    assert not out.exists()


def test_resource_guard_at_its_limit():
    args = ("analyze", "--geometry", "chord", "--d", "12", "--methods", "exact")
    below = run_cli(*args, "--max-exact-n", "4095")
    assert below.returncode == 3
    assert "exceeds the limit of 4095 nodes" in below.stderr
    at = run_cli(*args, "--max-exact-n", "4096")
    assert at.returncode == 0, at.stderr
    assert "chord(d=12)  N=4096" in at.stdout


def test_env_guard_at_its_limit():
    args = ("analyze", "--geometry", "star", "--n", "50", "--methods", "exact")
    at = run_cli(*args, env_extra={"DHTCOSTLAB_MAX_N": "50"})
    assert at.returncode == 0, at.stderr
    below = run_cli(*args, env_extra={"DHTCOSTLAB_MAX_N": "49"})
    assert below.returncode == 3
    assert "exceeds the limit of 49 nodes" in below.stderr


def test_env_guard_override():
    low = run_cli("analyze", "--geometry", "star", "--n", "50", "--methods", "exact",
                  env_extra={"DHTCOSTLAB_MAX_N": "10"})
    assert low.returncode == 3
    # the flag wins over the environment
    flag = run_cli("analyze", "--geometry", "star", "--n", "50", "--methods", "exact",
                   "--max-exact-n", "64", env_extra={"DHTCOSTLAB_MAX_N": "10"})
    assert flag.returncode == 0
    bad = run_cli("analyze", "--geometry", "star", "--n", "5", "--methods", "exact",
                  env_extra={"DHTCOSTLAB_MAX_N": "lots"})
    assert bad.returncode == 1


# ---------------------------------------------------------------------------
# analyze output schemas


def test_analyze_json_schema(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("analyze", "--geometry", "chord", "--d", "3",
                   "--methods", "analytic,exact", "--format", "json", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["geometry"] == {"geometry": "chord", "d": 3}
    assert payload["config"]["methods"] == ["analytic", "exact"]
    assert [r["method"] for r in payload["reports"]] == ["analytic", "exact"]
    exact = payload["reports"][1]
    assert len(exact["per_node"]) == 8
    assert exact["per_node"][5]["node_id"] == "101"
    for key in ("service", "access", "routing", "maintenance", "total"):
        assert key in exact["aggregates"]
    assert "second_min_routing" in exact["aggregates"]
    # the two methods coincide for chord
    for a, b in zip(payload["reports"][0]["per_node"], exact["per_node"]):
        assert a["total"] == pytest.approx(b["total"], rel=1e-12)


@pytest.mark.parametrize("flags, geometry", [
    (("--geometry", "star", "--n", "5"), {"geometry": "star", "n": 5}),
    (("--geometry", "debruijn", "--delta", "2", "--d", "3"),
     {"geometry": "debruijn", "delta": 2, "d": 3}),
    (("--geometry", "torus", "--d", "2", "--n-side", "3"),
     {"geometry": "torus", "d": 2, "n_side": 3}),
    (("--geometry", "plaxton", "--delta", "3", "--d", "2"),
     {"geometry": "plaxton", "delta": 3, "d": 2}),
    (("--geometry", "chord", "--d", "3"), {"geometry": "chord", "d": 3}),
], ids=["star", "debruijn", "torus", "plaxton", "chord"])
def test_analyze_json_geometry_object(tmp_path, flags, geometry):
    out = tmp_path / "report.json"
    proc = run_cli("analyze", *flags, "--methods", "exact", "--format", "json",
                   "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    for echoed in (payload["config"]["geometry"], payload["reports"][0]["geometry"]):
        assert echoed == geometry
        assert list(echoed) == list(geometry)


def test_analyze_csv_schema_and_roundtrip(tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli("analyze", "--geometry", "torus", "--d", "2", "--n-side", "3",
                   "--methods", "exact", "--format", "csv", "--out", str(out))
    assert proc.returncode == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node_id", "service", "access", "routing", "maintenance", "total"]
    assert len(rows) == 10
    assert rows[1][0] == "(0,0)"
    # shortest round-trip floats: parsing back reproduces values bit-exactly
    jout = tmp_path / "report.json"
    run_cli("analyze", "--geometry", "torus", "--d", "2", "--n-side", "3",
            "--methods", "exact", "--format", "json", "--out", str(jout))
    payload = json.loads(jout.read_text())
    per_node = payload["reports"][0]["per_node"]
    for row, entry in zip(rows[1:], per_node):
        assert float(row[2]) == entry["access"]
        assert float(row[5]) == entry["total"]


def test_analyze_multi_method_csv_splits_files(tmp_path):
    out = tmp_path / "r.csv"
    proc = run_cli("analyze", "--geometry", "star", "--n", "6",
                   "--methods", "analytic,exact", "--format", "csv", "--out", str(out))
    assert proc.returncode == 0
    assert (tmp_path / "r.analytic.csv").exists()
    assert (tmp_path / "r.exact.csv").exists()


def test_analyze_debruijn_analytic_bounds(tmp_path):
    out = tmp_path / "bounds.json"
    proc = run_cli("analyze", "--geometry", "debruijn", "--delta", "2", "--d", "3",
                   "--format", "json", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["reports"] == []
    assert payload["analytic_bounds"] == {
        "a_min": 1.625, "a_max": 2.125, "r_max": 281.25, "l_max": 18,
    }
    # bounds are not per-node data, so CSV output is refused
    csv_proc = run_cli("analyze", "--geometry", "debruijn", "--delta", "2", "--d", "3",
                       "--format", "csv", "--out", str(tmp_path / "b.csv"))
    assert csv_proc.returncode == 2


def test_analyze_table_row_summary():
    proc = run_cli("analyze", "--geometry", "debruijn", "--delta", "5", "--d", "4",
                   "--a", "1", "--r", "1000", "--methods", "exact")
    assert proc.returncode == 0
    assert "3.69" in proc.stdout and "3.75" in proc.stdout
    assert "1.98" in proc.stdout and "5.50" in proc.stdout


# ---------------------------------------------------------------------------
# star-equilibrium


def test_star_equilibrium_output(tmp_path):
    proc = run_cli("star-equilibrium", "--m", "1", "--a", "5", "--r", "2")
    assert proc.returncode == 0
    assert "3.5615528128088303" in proc.stdout
    out = tmp_path / "eq.json"
    run_cli("star-equilibrium", "--m", "1", "--a", "5", "--r", "2",
            "--format", "json", "--out", str(out))
    payload = json.loads(out.read_text())
    assert payload["result"]["kind"] == "candidate"
    assert payload["result"]["is_integer"] is False

    zero = run_cli("star-equilibrium", "--s", "0", "--a", "0", "--r", "0", "--m", "0")
    assert "every network size" in zero.stdout
    flat = run_cli("star-equilibrium", "--a", "1", "--r", "1", "--m", "0")
    assert "no equilibrium size beyond" in flat.stdout


def test_star_equilibrium_overflow_exits_two():
    proc = run_cli("star-equilibrium", "--a", "1e200", "--m", "1e-200", "--r", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: computing the star break-even size overflows float64")
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# sweep


def test_sweep_feasible_sizes(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli("sweep", "--geometries", "star,chord,torus2",
                   "--n-min", "10", "--n-max", "120", "--out", str(out))
    assert proc.returncode == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"geometry", "requested_n", "actual_n",
                            "method", "mean_access", "mean_routing"}
    star_ns = [int(r["actual_n"]) for r in rows if r["geometry"] == "star"]
    chord_ns = [int(r["actual_n"]) for r in rows if r["geometry"] == "chord"]
    torus_ns = [int(r["actual_n"]) for r in rows if r["geometry"] == "torus2"]
    assert star_ns == list(range(10, 121))
    assert chord_ns == [16, 32, 64]
    assert torus_ns == [16, 25, 36, 49, 64, 81, 100]
    assert all(r["requested_n"] == r["actual_n"] for r in rows)
    # torus D=2 at N=25: analytic access is (2/4)*5
    t25 = [r for r in rows if r["geometry"] == "torus2" and r["actual_n"] == "25"][0]
    assert float(t25["mean_access"]) == 2.5

    # every token's ladder at two deltas, recorded before the ladders
    # became one table
    for delta in (2, 3):
        assert list(_feasible_sizes("star", delta, 2, 9)) == [
            (2, Star(n=2)), (3, Star(n=3)), (4, Star(n=4)), (5, Star(n=5)),
            (6, Star(n=6)), (7, Star(n=7)), (8, Star(n=8)), (9, Star(n=9))]
        assert list(_feasible_sizes("chord", delta, 2, 9)) == [
            (2, ChordRing(d=1)), (4, ChordRing(d=2)), (8, ChordRing(d=3))]
        assert list(_feasible_sizes("torus1", delta, 2, 9)) == [
            (2, Torus(d=1, n_side=2)), (3, Torus(d=1, n_side=3)), (4, Torus(d=1, n_side=4)),
            (5, Torus(d=1, n_side=5)), (6, Torus(d=1, n_side=6)), (7, Torus(d=1, n_side=7)),
            (8, Torus(d=1, n_side=8)), (9, Torus(d=1, n_side=9))]
        assert list(_feasible_sizes("torus3", delta, 2, 9)) == [(8, Torus(d=3, n_side=2))]
    assert list(_feasible_sizes("debruijn", 2, 2, 9)) == [
        (2, DeBruijn(delta=2, d=1)), (4, DeBruijn(delta=2, d=2)), (8, DeBruijn(delta=2, d=3))]
    assert list(_feasible_sizes("debruijn", 3, 2, 9)) == [
        (3, DeBruijn(delta=3, d=1)), (9, DeBruijn(delta=3, d=2))]
    assert list(_feasible_sizes("plaxton", 2, 2, 9)) == [
        (2, PlaxtonTree(delta=2, d=1)), (4, PlaxtonTree(delta=2, d=2)),
        (8, PlaxtonTree(delta=2, d=3))]
    assert list(_feasible_sizes("plaxton", 3, 2, 9)) == [
        (3, PlaxtonTree(delta=3, d=1)), (9, PlaxtonTree(delta=3, d=2))]


def test_sweep_empty_feasible_set_exits_two():
    proc = run_cli("sweep", "--geometries", "chord", "--n-min", "5000", "--n-max", "6000")
    assert proc.returncode == 2


# A ladder whose size never grows would never pass --n-max.  Each of
# these used to run until killed; the timeout turns a hang into a failure.
@pytest.mark.parametrize("args, code", [
    (("--geometries", "torus0"), 1),
    (("--geometries", "debruijn", "--delta", "1"), 2),
    (("--geometries", "plaxton", "--delta", "0"), 2),
], ids=["torus0", "debruijn-delta1", "plaxton-delta0"])
def test_sweep_degenerate_ladders_exit(args, code):
    proc = run_cli("sweep", *args, timeout=60)
    assert proc.returncode == code
    assert "error" in proc.stderr


def test_sweep_sim_matches_analytic(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli("sweep", "--geometries", "chord", "--n-min", "16", "--n-max", "64",
                   "--methods", "analytic,sim", "--seeds", "0,1,2",
                   "--requests", "20000", "--out", str(out))
    assert proc.returncode == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for n in (16, 32, 64):
        ana = [r for r in rows if r["actual_n"] == str(n) and r["method"] == "analytic"][0]
        sim = [r for r in rows if r["actual_n"] == str(n) and r["method"] == "sim"][0]
        assert float(sim["mean_access"]) == pytest.approx(
            float(ana["mean_access"]), rel=0.01)


def test_sweep_skips_methodless_geometries(tmp_path):
    # debruijn has no analytic per-node form; the sweep notes and skips it
    out = tmp_path / "sweep.csv"
    proc = run_cli("sweep", "--geometries", "debruijn,star", "--n-min", "10",
                   "--n-max", "40", "--out", str(out))
    assert proc.returncode == 0
    assert "skipping debruijn" in proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["geometry"] == "star" for r in rows)


# ---------------------------------------------------------------------------
# pernode-dump


def test_pernode_dump_stdout_star():
    proc = run_cli("pernode-dump", "--geometry", "star", "--n", "5")
    assert proc.returncode == 0
    rows = list(csv.reader(proc.stdout.splitlines()))
    assert rows[0] == ["node_id", "service", "access", "routing", "maintenance", "total"]
    routing = [float(r[3]) for r in rows[1:]]
    assert sum(1 for x in routing if x > 0) == 1  # only the hub relays


def test_pernode_dump_debruijn_repeated_symbol_rows(tmp_path):
    out = tmp_path / "dump.csv"
    proc = run_cli("pernode-dump", "--geometry", "debruijn", "--delta", "5", "--d", "4",
                   "--out", str(out))
    assert proc.returncode == 0
    with open(out, newline="") as fh:
        rows = {r["node_id"]: r for r in csv.DictReader(fh)}
    assert len(rows) == 625
    for word in ("0000", "1111", "2222", "3333", "4444"):
        assert float(rows[word]["routing"]) == 0.0
    # the staircase word attains the maximum routing cost
    peak = max(rows.values(), key=lambda r: float(r["routing"]))
    assert peak["node_id"] == "0123"


def test_pernode_dump_guard(tmp_path):
    proc = run_cli("pernode-dump", "--geometry", "chord", "--d", "13")
    assert proc.returncode == 3


# ---------------------------------------------------------------------------
# determinism


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["analyze", "--geometry", "torus", "--d", "2", "--n-side", "4",
            "--methods", "exact,sim", "--seeds", "5,6,7", "--requests", "4000",
            "--format", "json"]
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    sweep = ["sweep", "--geometries", "star,plaxton", "--n-min", "10", "--n-max", "50",
             "--methods", "analytic,sim", "--seeds", "1,2", "--requests", "3000"]
    assert run_cli(*sweep, "--out", str(c)).returncode == 0
    assert run_cli(*sweep, "--out", str(d)).returncode == 0
    assert c.read_bytes() == d.read_bytes()

    e, f = tmp_path / "e.csv", tmp_path / "f.csv"
    dump = ["pernode-dump", "--geometry", "debruijn", "--delta", "3", "--d", "3"]
    assert run_cli(*dump, "--out", str(e)).returncode == 0
    assert run_cli(*dump, "--out", str(f)).returncode == 0
    assert e.read_bytes() == f.read_bytes()


#: SHA-256 of the files below as written before reports became columnar.
PARENT_DIGESTS = {
    "analyze.json": "945d9eb987ad0b13fc2809c70f13b5c6936e3f92c75595f1eb3bb83c0ea5b828",
    "analyze.analytic.csv": "c93dc0fa4faa34fd4fec91fd60ede5b4d28b2d9956231b4262e075d584eb3b51",
    "analyze.exact.csv": "c93dc0fa4faa34fd4fec91fd60ede5b4d28b2d9956231b4262e075d584eb3b51",
    "analyze.simulated.csv": "9e8220c2d124ac7e613bbb4d0c2bbfd796a4790e9b16cd58472ee8960d4f4cdd",
    "pernode.json": "13fb94fe0b65e5d782fdfafdf7093ab6beb0b0cf144ebcc5768a0343983af1d6",
    "sweep.csv": "8d39510268aad901e5d330f8615c1fd80f0c1a5c78c5f9994b8f5bc7bec749e1",
}


def test_outputs_match_parent_digests(tmp_path):
    analyze = ["analyze", "--geometry", "torus", "--d", "2", "--n-side", "4",
               "--methods", "analytic,exact,sim", "--seeds", "5,6,7", "--requests", "4000"]
    commands = [
        [*analyze, "--format", "json", "--out", "analyze.json"],
        # three methods split into analyze.{analytic,exact,simulated}.csv
        [*analyze, "--format", "csv", "--out", "analyze.csv"],
        ["pernode-dump", "--geometry", "plaxton", "--delta", "3", "--d", "3",
         "--format", "json", "--out", "pernode.json"],
        ["sweep", "--geometries", "star,chord,torus2", "--n-min", "4", "--n-max", "64",
         "--methods", "analytic,exact,sim", "--seeds", "1,2", "--requests", "3000",
         "--out", "sweep.csv"],
    ]
    for args in commands:
        args[-1] = str(tmp_path / args[-1])
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == PARENT_DIGESTS


#: Commands whose output files (or, for ``.out`` names, stdout) cover
#: every per-node writer: analyze JSON and CSV per geometry with a closed
#: form, pernode-dump to a file and to stdout, and the sweep JSON.
WRITER_COMMANDS = {
    "star.json": ["analyze", "--geometry", "star", "--n", "7", "--s", "1", "--m", "0.5",
                  "--methods", "analytic,exact,sim", "--seeds", "1,2", "--requests", "500",
                  "--format", "json"],
    # three methods split into star.{analytic,exact,simulated}.csv
    "star.csv": ["analyze", "--geometry", "star", "--n", "7", "--s", "1", "--m", "0.5",
                 "--methods", "analytic,exact,sim", "--seeds", "1,2", "--requests", "500",
                 "--format", "csv"],
    # 8192 rows: two full row blocks
    "chord.json": ["analyze", "--geometry", "chord", "--d", "13", "--a", "0.3",
                   "--format", "json"],
    "chord.csv": ["analyze", "--geometry", "chord", "--d", "13", "--a", "0.3",
                  "--format", "csv"],
    "torus.json": ["analyze", "--geometry", "torus", "--d", "2", "--n-side", "5",
                   "--methods", "analytic,exact", "--format", "json"],
    "torus.csv": ["analyze", "--geometry", "torus", "--d", "2", "--n-side", "5",
                  "--methods", "analytic,exact", "--format", "csv"],
    "plaxton.json": ["analyze", "--geometry", "plaxton", "--delta", "11", "--d", "2",
                     "--m", "0.1", "--methods", "analytic,exact", "--format", "json"],
    "plaxton.csv": ["analyze", "--geometry", "plaxton", "--delta", "11", "--d", "2",
                    "--m", "0.1", "--methods", "exact", "--format", "csv"],
    "dump-debruijn.json": ["pernode-dump", "--geometry", "debruijn", "--delta", "12",
                           "--d", "2", "--format", "json"],
    "dump-debruijn.csv": ["pernode-dump", "--geometry", "debruijn", "--delta", "12",
                          "--d", "2", "--format", "csv"],
    "dump-debruijn-json.out": ["pernode-dump", "--geometry", "debruijn", "--delta", "12",
                               "--d", "2", "--format", "json"],
    "dump-debruijn-csv.out": ["pernode-dump", "--geometry", "debruijn", "--delta", "12",
                              "--d", "2", "--format", "csv"],
    "dump-star.json": ["pernode-dump", "--geometry", "star", "--n", "9", "--format", "json"],
    "dump-star.csv": ["pernode-dump", "--geometry", "star", "--n", "9", "--format", "csv"],
    "dump-star-json.out": ["pernode-dump", "--geometry", "star", "--n", "9",
                           "--format", "json"],
    "dump-star-csv.out": ["pernode-dump", "--geometry", "star", "--n", "9", "--format", "csv"],
    "dump-chord.json": ["pernode-dump", "--geometry", "chord", "--d", "6", "--format", "json"],
    "dump-chord.csv": ["pernode-dump", "--geometry", "chord", "--d", "6", "--format", "csv"],
    "dump-chord-json.out": ["pernode-dump", "--geometry", "chord", "--d", "6",
                            "--format", "json"],
    "dump-chord-csv.out": ["pernode-dump", "--geometry", "chord", "--d", "6",
                           "--format", "csv"],
    "sweep.json": ["sweep", "--geometries", "star,chord,torus2,plaxton", "--n-min", "4",
                   "--n-max", "40", "--methods", "analytic,exact", "--format", "json"],
    "sweep-json.out": ["sweep", "--geometries", "star,chord,torus2,plaxton", "--n-min", "4",
                       "--n-max", "40", "--methods", "analytic,exact", "--format", "json"],
}

#: SHA-256 of the outputs of ``WRITER_COMMANDS``, recorded before the
#: per-node writers were rebuilt on fixed row templates.
WRITER_DIGESTS = {
    "chord.csv": "d3bd055dfc8d70fd85afde2e80a22d367da0fb279aa3b8285eb0d5582f6708e2",
    "chord.json": "736f52602ce66cdebe1d53e3d5a049916250ce6d9b19265f5fe5d02d70b5b20c",
    "dump-chord-csv.out": "379faa4f8c19fb916ff5c0f6d807617d958f8202534b67e5572ca6361a37be92",
    "dump-chord-json.out": "28289eea2bff884ba45d04a7b85d5bb74cfa656b7a9d0b983aa7211109367545",
    "dump-chord.csv": "379faa4f8c19fb916ff5c0f6d807617d958f8202534b67e5572ca6361a37be92",
    "dump-chord.json": "662fa6dbca384c6502087832827cdde3f1f2ef4926266d3a5e587a3bb6e8e905",
    "dump-debruijn-csv.out": "acfb28efb4c26c1acf90d317a51e8e55b3cd437e672e4fe7d86a3b5eda8b1773",
    "dump-debruijn-json.out": "27016c4e00ae3fe4af99dcf9daeea748d70a0d13bac1e470ba09d4a5907a38d6",
    "dump-debruijn.csv": "acfb28efb4c26c1acf90d317a51e8e55b3cd437e672e4fe7d86a3b5eda8b1773",
    "dump-debruijn.json": "a24d759bde9e8c6df31314e88adaccc8d6068fe25ed78aa3d1f086d259e6af26",
    "dump-star-csv.out": "60e348e75a2ec1db6785abb5267c979f07ba92c7d1d1c2a2a16dc76517b96d2b",
    "dump-star-json.out": "12ff2ee1eb160b3202302a2cfed4f5b90ee39165e0516b32ee9e2ce69a2d1462",
    "dump-star.csv": "60e348e75a2ec1db6785abb5267c979f07ba92c7d1d1c2a2a16dc76517b96d2b",
    "dump-star.json": "8a73236bf4191dfd0c62f301a2946197b01e6c6fabf9d4788870f137b50160a5",
    "plaxton.csv": "d50bd3a99159b226fce69adb461ded6549ecd1c0f5043d277a112803109cc3ed",
    "plaxton.json": "c59fc4d38aa814ed1e28a976424c1e84983843b65ce6c6d455bda3aa983add45",
    "star.analytic.csv": "6cff5f16630d2278510bc38f2338e833b4758e54cf443a0f8a1b3670314adcff",
    "star.exact.csv": "6cff5f16630d2278510bc38f2338e833b4758e54cf443a0f8a1b3670314adcff",
    "star.json": "f50ecfbcad2704e251636ae46eda4be8614732b5b716ba664d27be09c74bc3c4",
    "star.simulated.csv": "bd61724395137fba275123a75237460aef36591b4ed9142ecdcf9ca329874145",
    "sweep-json.out": "ab3f0d75f629084e525cd06b45d39ac36ad77509a97eec18edb1325efa47595e",
    "sweep.json": "af1b5050e424a56a66ac215c95d01852f4ee422092d084aae49b8ed85af93d70",
    "torus.analytic.csv": "a27f5510352b7a4a788ed3abf157cc7a37c0dadd9d8144ecaec634bdd125bd8e",
    "torus.exact.csv": "16e9cbea31df381a4ff24206ea9c9bd78bd2151416e055682a96f8add9f9f35e",
    "torus.json": "41434fba88b456cedda5dcdb72130f1aba6bcdb4fc3ce30d818b1e6f1d7ecfbe",
}


def writer_digests(directory):
    """Run ``WRITER_COMMANDS`` in-process; SHA-256 of each output by name."""
    for name, argv in WRITER_COMMANDS.items():
        path = directory / name
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv if name.endswith(".out") else [*argv, "--out", str(path)])
        assert code == 0, name
        if name.endswith(".out"):
            path.write_bytes(stdout.getvalue().encode("utf-8"))
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


def test_writers_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_GUARD, raising=False)
    assert writer_digests(tmp_path) == WRITER_DIGESTS


# ---------------------------------------------------------------------------
# writers against the standard encoders


#: Every label shape (plain, binary, dotted and quoted words, coordinates)
#: and the row-block edges: 1 node, one block, one block and a row.
WRITER_SPECS = [
    Star(n=1), Star(n=4096), Star(n=4097), ChordRing(d=12), DeBruijn(delta=12, d=2),
    PlaxtonTree(delta=3, d=2), Torus(d=2, n_side=64), Torus(d=1, n_side=4097),
    Torus(d=3, n_side=2),
]
ODD_FLOATS = [-0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2]


def per_node_reference(report):
    """The per-node rows as ``json`` and ``csv`` are handed them."""
    spec = report.geometry
    columns = [report.component(name).tolist() for name in engine.COMPONENTS]
    return [(spec.label(i), *values)
            for i, values in zip(range(spec.node_count), zip(*columns))]


@settings(max_examples=10, deadline=None)
@given(spec=st.sampled_from(WRITER_SPECS),
       drawn=st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=6))
def test_writers_match_the_standard_encoders(spec, drawn):
    values = np.array(ODD_FLOATS + drawn)
    n = spec.node_count
    columns = [np.resize(np.roll(values, k), n) for k in range(4)]
    report = engine._assemble_report("exact", spec, CostParams(1, 2, 3, 4), *columns)
    rows = [dict(zip(cli._PER_NODE_HEADER, row)) for row in per_node_reference(report)]
    entry = cli._report_dict(report)
    reference = {**entry, "per_node": rows}
    for payload, expected in [
        (entry, reference),
        ({"config": {"n": n}, "report": entry}, {"config": {"n": n}, "report": reference}),
        ({"reports": [entry, entry], "tail": None}, {"reports": [reference, reference],
                                                     "tail": None}),
    ]:
        written = io.StringIO()
        cli._write_json(written, payload)
        assert written.getvalue() == json.dumps(expected, indent=2) + "\n"

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(cli._PER_NODE_HEADER)
    writer.writerows(per_node_reference(report))
    written = io.StringIO()
    cli._write_per_node_csv(written, report)
    assert written.getvalue() == expected.getvalue()
