"""End-to-end command line behavior, run through real subprocesses.

Covers the exit-code contract (0 success, 1 usage, 2 infeasible,
3 guard), the stable CSV/JSON schemas, and byte-level determinism.
"""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

from dhtcostlab import (
    GEOMETRIES,
    ChordRing,
    DeBruijn,
    PlaxtonTree,
    Star,
    Torus,
)
from dhtcostlab.cli import _feasible_sizes, build_parser

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
    # written per-node rows carry node labels, which need the topology
    proc = run_cli(*args, "--out", str(tmp_path / "rows.json"))
    assert proc.returncode == 3
    assert "build limit" in proc.stderr
    assert not (tmp_path / "rows.json").exists()


def test_resource_guard_at_its_limit():
    args = ("analyze", "--geometry", "chord", "--d", "12", "--methods", "exact")
    below = run_cli(*args, "--max-exact-n", "4095")
    assert below.returncode == 3
    assert "exceeds the limit of 4095 nodes" in below.stderr
    at = run_cli(*args, "--max-exact-n", "4096")
    assert at.returncode == 0, at.stderr
    assert "chord(d=12)  N=4096" in at.stdout


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
