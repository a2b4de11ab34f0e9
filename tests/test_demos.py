"""Every narrative script under ``demos/`` runs to completion and prints
what it printed when its output was recorded.

The demos import library names that nothing else calls, so a rename
that breaks one shows up here rather than in a reader's terminal.  All
six are deterministic, so their stdout is pinned by SHA-256: a refactor
that changes what a demo prints fails here too.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: SHA-256 of each demo's stdout, by script name.
STDOUT_SHA256 = {
    "01_cost_model_basics": "3c68a96c03e41e7b49dcbbc82f41f749419ad7c52cfefbf163a9ad4324dbd493",
    "02_routing_geometries_tour": "7f58fd7537e73f39ebb0daa2ec4f556e2c88738c0c8ce4cc78e5773f6ff84fff",
    "03_debruijn_asymmetry": "e9f6636899ac5452065aa920617de1ee071b9227d1bb221fb3de97a73de916f2",
    "04_star_equilibrium": "e408e46b8e607dbc0c14c8c232753e0e89d0acf95f8b04f81fc6e7967246b05d",
    "05_simulation_convergence": "c0f22276c8db44de90e0c9c3ee49173474e6fb1ab715590784f58c156c9aed56",
    "06_access_cost_sweep": "25358e295b5c43d59b07a97ffe1e6d8d215ee3a17dd503835878917528b1b910",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
