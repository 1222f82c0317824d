"""Sanity checks of the benchmark's tracing and oracles.

Each layer's counter must be non-zero on the workload chosen for it: that
shows the traced wrappers sit at the names the callers look up (cli and
the package root import entry points by name, dimension holds its own
lnfact).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          timeout=300, check=False)


def _op(workload, fragment):
    ops = workloads.resolve(workload, seed=0, h555_order=3**13 // 27)
    return next(op for op in ops if fragment in op.name)


@pytest.mark.parametrize("workload, fragment, counter, idle", [
    ("verify-chain", "7,7 L2 H", "schreier.chains", "dimension.rows"),
    ("deep-tree", "dimension_scan", "dimension.rows", "schreier.chains"),
    ("synth-dim", "prime-rich", "synthesis.scan_candidates", "schreier.chains"),
])
def test_layer_counter_nonzero_on_its_workload(tmp_path, workload, fragment, counter, idle):
    op = _op(workload, fragment)
    stats = tmp_path / "stats.json"
    got = _run([str(HERE / "layers.py"), str(stats), *op.argv])
    assert got.returncode == op.expect_rc, got.stderr.decode()
    op.check(got.stdout)  # tracing leaves the output correct
    metrics = run.layer_metrics([json.loads(stats.read_text())], len(got.stdout), 0.0)
    assert metrics[counter][0] > 0
    assert metrics[idle][0] == 0


def test_oracle_rejects_wrong_order():
    op = _op("verify-chain", "7,7 L2 G")
    got = _run(list(op.argv))
    op.check(got.stdout)
    doc = json.loads(got.stdout)
    doc["measured"] = str(int(doc["measured"]) // 2)
    with pytest.raises(oracles.CheckFailed):
        op.check(json.dumps(doc).encode())
