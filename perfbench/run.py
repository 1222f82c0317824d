#!/usr/bin/env python3
"""Cold-process benchmark for spinaldim.

    python3 perfbench/run.py --workload verify-chain --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it runs ``src/`` as it stands, with
nothing installed.  One client drives a closed loop: each op is one cold
``python -m spinaldim.cli ...`` (or ``scripts/dimension_scan.py``)
process, started only after the previous one has ended, timed from
outside, with CPU time and peak RSS from that process's own wait4.
Every op's stdout is checked by an independent oracle (oracles.py) and
must be byte-identical across repeats.

--trace 0 runs whole passes over the op list until --seconds is used up
(at least two, so every op has a repeat) and reports the end-to-end
metrics as medians over passes.  --trace 1 runs one plain pass and one
pass under layers.py and reports the per-layer metrics of the traced
pass.  The last stdout line is the JSON result; the lines above it are a
readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import oracles
import workloads
from layers import LAYERS

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
LAYERS_SCRIPT = Path(__file__).resolve().parent / "layers.py"
REQUIRED = ("src/spinaldim/cli.py", "scripts/dimension_scan.py")
SETUP_REPEATS = 7
MIN_PASSES = 2
OP_TIMEOUT_S = 60.0
# no op starts later than this after launch, which keeps a run under 180 s
RUN_DEADLINE_S = 140.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int | None  # None when killed at the timeout or never started
    stdout: bytes
    stderr: bytes


def run_process(argv: list[str], timeout: float, tag: str) -> Outcome:
    """One child with stdout/stderr in files; wall from outside, usage from wait4."""
    if timeout <= 0:
        return Outcome(0.0, 0.0, 0.0, None, b"", b"not started: run deadline passed")
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    # the checkout's own sources, with the bytecode cache a user's install has
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    expired = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=env)

        def expire():
            expired.set()
            os.kill(proc.pid, signal.SIGKILL)  # not yet reaped, so the pid is still ours

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    rc = None if expired.is_set() else proc.returncode
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, rc,
                   out_path.read_bytes(), err_path.read_bytes())


class Ledger:
    """Attempted and failed ops, with the determinism and oracle verdicts."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: dict[int, str] = {}
        self.verdict: dict[tuple[int, str], str | None] = {}

    def settle(self, index: int, op: workloads.Op, got: Outcome, label: str) -> None:
        self.attempted += 1
        problem = self._problem(index, op, got)
        if problem:
            tail = got.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{label} {op.name}: {problem} {' '.join(tail)}".rstrip())

    def _problem(self, index: int, op: workloads.Op, got: Outcome) -> str | None:
        if got.rc is None:
            return "no exit (timeout or run deadline)"
        if got.rc != op.expect_rc:
            return f"exit {got.rc}, expected {op.expect_rc}"
        digest = hashlib.sha256(got.stdout).hexdigest()
        if self.first_digest.setdefault(index, digest) != digest:
            return "stdout differs from this op's first run"
        # identical bytes get the verdict the oracle gave them the first time
        key = (index, digest)
        if key not in self.verdict:
            try:
                op.check(got.stdout)
                self.verdict[key] = None
            except (oracles.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
                self.verdict[key] = f"check failed: {type(exc).__name__}: {exc}"
        return self.verdict[key]

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_pass(ops, deadline: float, ledger: Ledger, label: str, trace: bool):
    """One closed-loop pass; checks run after the pass, outside its wall time."""
    outcomes = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        argv = [sys.executable, *op.argv]
        if trace:
            argv = [sys.executable, str(LAYERS_SCRIPT), str(WORK / f"stats-{i}.json"), *op.argv]
        timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
        outcomes.append(run_process(argv, timeout, f"op-{i}"))
    wall = time.perf_counter() - start
    for i, (op, got) in enumerate(zip(ops, outcomes)):
        ledger.settle(i, op, got, label)
    return wall, outcomes


def end_to_end(passes) -> dict[str, float]:
    """Pass wall and CPU as medians over passes; op times pooled over all passes."""
    ops = [got for _, outcomes in passes for got in outcomes]
    return {
        "wall_s": statistics.median(wall for wall, _ in passes),
        "cpu_s": statistics.median(sum(o.cpu_s for o in outcomes) for _, outcomes in passes),
        "op_p50_s": statistics.median(o.wall_s for o in ops),
        "peak_rss_mb": max(o.rss_mb for o in ops),
    }


def measure_setup(ledger: Ledger, deadline: float) -> float:
    """Median wall of a cold ``spinaldim --version``: imports, no work."""
    argv = [sys.executable, "-m", "spinaldim.cli", "--version"]
    version = workloads.Op("--version", tuple(argv[1:]), oracles.check_version)
    run_process(argv, OP_TIMEOUT_S, "warmup")  # writes the bytecode cache of a fresh checkout
    walls = []
    for k in range(SETUP_REPEATS):
        got = run_process(argv, min(OP_TIMEOUT_S, deadline - time.perf_counter()), "setup")
        ledger.settle(-1, version, got, f"setup {k + 1}")
        walls.append(got.wall_s)
    return statistics.median(walls)


def h555_order(ledger: Ledger) -> int:
    """Order of the level-3 action of H on (5,5,5), from sympy, outside the timed loop.

    The generators come from the package and the order from sympy's own
    Schreier-Sims; it must be the closed form 3^13 divided by 27 (A_3 is
    not perfect), or the oracle set-up counts as a failed op.
    """
    closed = oracles.wreath_order((3, 3, 3))
    ledger.attempted += 1
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from sympy.combinatorics import Permutation, PermutationGroup
    except ImportError:
        return closed // 27
    from spinaldim import TreeSequence, spinal_group_portraits

    seq = TreeSequence((5, 5, 5))
    gens = [Permutation([x - 1 for x in p.level_permutation(3).images])
            for p in spinal_group_portraits(seq, 3, "H")]
    order = int(PermutationGroup(gens).order())
    if order * 27 != closed:
        ledger.failures.append(f"oracle: sympy order {order} of H(5,5,5) level 3 is not "
                               f"the closed form {closed} / 27")
    return order


def layer_metrics(stats: list[dict], out_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics summed (or maxed) over the traced ops of one pass."""
    layers = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
    functions: dict[str, dict] = {}
    extra = {"degree_max": 0, "strong_gens": 0, "peak_alloc_bytes": 0,
             "scan_candidates": 0, "witness_found": 0}
    for s in stats:
        for name, v in s["layers"].items():
            layers[name]["calls"] += v["calls"]
            layers[name]["self_s"] += v["self_s"]
        for name, v in s["functions"].items():
            f = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "max_s": 0.0})
            f["calls"] += v["calls"]
            f["total_s"] += v["total_s"]
            f["self_s"] += v["self_s"]
            f["max_s"] = max(f["max_s"], v["max_s"])
        for name in ("degree_max", "peak_alloc_bytes"):
            extra[name] = max(extra[name], s["extra"][name])
        for name in ("strong_gens", "scan_candidates", "witness_found"):
            extra[name] += s["extra"][name]

    def fn(qualname: str, key: str):
        return functions.get(qualname, {}).get(key, 0)

    witness_calls = fn("synthesis.denominator_witness", "calls")
    m = {
        "schreier.chains": (fn("schreier.StabilizerChain.__init__", "calls"), "count"),
        "schreier.degree_max": (extra["degree_max"], "points"),
        "schreier.strong_gens": (extra["strong_gens"], "count"),
        "schreier.peak_alloc_mb": (extra["peak_alloc_bytes"] / 2**20, "MB"),
        "portraits.level_perms": (fn("portraits.Portrait.level_permutation", "calls"), "count"),
        "perms.calls": (layers["perms"]["calls"], "count"),
        "trees.calls": (layers["trees"]["calls"], "count"),
        "wreath.lnfact_calls": (fn("wreath.lnfact", "calls"), "count"),
        "wreath.lnfact_s": (fn("wreath.lnfact", "total_s"), "s"),
        "wreath.lnfact_max_s": (fn("wreath.lnfact", "max_s"), "s"),
        "wreath.order_s": (fn("wreath.wreath_quotient_order", "total_s"), "s"),
        "wreath.verify_self_s": (fn("wreath.verify_level_action", "self_s"), "s"),
        "dimension.rows": (fn("dimension.partial_dimension", "calls"), "count"),
        "dimension.log_quotient_calls": (fn("dimension.log_quotient", "calls"), "count"),
        "dimension.envelope_calls": (fn("dimension.envelope_bounds", "calls"), "count"),
        "synthesis.synthesize_s": (fn("synthesis.synthesize", "total_s"), "s"),
        "synthesis.scan_candidates": (extra["scan_candidates"], "count"),
        "synthesis.scan_s": (fn("synthesis.distinct_prime_factor_counts", "total_s"), "s"),
        "synthesis.spectrum_s": (fn("synthesis.spectrum_sample", "total_s"), "s"),
        "synthesis.witness_calls": (witness_calls, "count"),
        "synthesis.witness_yield": (extra["witness_found"] / witness_calls if witness_calls
                                    else 0.0, "ratio"),
        "cli.out_bytes": (out_bytes, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for name in LAYERS:
        m[f"{name}.self_s"] = (layers[name]["self_s"], "s")
    return m


def provenance() -> list[str]:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = got.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/spinaldim/*.py"), *ROOT.glob("scripts/*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return [
        f"commit: {commit}",
        f"source sha256 (src/spinaldim, scripts): {digest.hexdigest()[:16]}",
        f"python {sys.version.split()[0]}, numpy {version('numpy')}, "
        f"mpmath {version('mpmath')}, sympy {version('sympy')}",
        f"nproc: {os.cpu_count()} (affinity {len(os.sched_getaffinity(0))})",
    ]


def bench(args) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    ledger = Ledger()
    h555 = h555_order(ledger) if args.workload == "verify-chain" else None
    ops = workloads.resolve(args.workload, args.seed, h555)
    print("# spinaldim cold-process benchmark")
    for line in provenance():
        print(line)
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}; one client, closed loop")
    print("ops:")
    for i, op in enumerate(ops, start=1):
        print(f"  {i:2d}. {op.name}: python {shlex.join(op.argv)}"
              + (f"  (exit {op.expect_rc})" if op.expect_rc else ""))

    setup_s = measure_setup(ledger, deadline)
    if args.trace:
        plain = run_pass(ops, deadline, ledger, "plain", trace=False)
        traced = run_pass(ops, deadline, ledger, "traced", trace=True)
        passes = [plain]
        stats = [json.loads(p.read_text()) for i in range(len(ops))
                 if (p := WORK / f"stats-{i}.json").is_file()]
        if len(stats) != len(ops):
            ledger.failures.append(f"traced pass: stats from {len(stats)} of {len(ops)} ops")
        out_bytes = sum(len(got.stdout) for op, got in zip(ops, traced[1]) if op.via_cli)
        metrics = layer_metrics(stats, out_bytes, traced[0] - plain[0])
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(ops, deadline, ledger, f"pass {len(passes) + 1}",
                                   trace=False))
            used = time.perf_counter() - start
            if used + passes[-1][0] > args.seconds and len(passes) >= MIN_PASSES:
                break
            if time.perf_counter() >= deadline:
                break
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(passes).items()}
        metrics["setup_s"] = (setup_s, "s")

    print(f"passes: {len(passes)} plain" + (" + 1 traced" if args.trace else "")
          + f"; setup_s {setup_s:.4f} s (median of {SETUP_REPEATS})")
    print("per-op median wall / cpu / peak rss over plain passes:")
    for i, op in enumerate(ops):
        got = [outcomes[i] for _, outcomes in passes]
        print(f"  {op.name:34s} {statistics.median(o.wall_s for o in got):8.3f} s "
              f"{statistics.median(o.cpu_s for o in got):8.3f} s "
              f"{max(o.rss_mb for o in got):7.1f} MB")
    print("metrics:")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:30s} {value:.6g} {unit}")
    fail_ratio = ledger.failed / max(ledger.attempted, 1)
    print(f"  {'fail_ratio':30s} {fail_ratio:.6g} ({ledger.failed}/{ledger.attempted} ops)")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    return {
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from the root of a spinaldim checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # oracles parse outputs with 100k-digit integers
    WORK.mkdir(exist_ok=True)
    try:
        result = bench(args)
    finally:
        for path in WORK.iterdir():
            path.unlink()
        WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
