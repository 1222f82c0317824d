"""Per-layer timing of one spinaldim process, installed from outside the package.

    python3 perfbench/layers.py STATS.json -m spinaldim.cli verify --seq 5,5 --level 2
    python3 perfbench/layers.py STATS.json scripts/dimension_scan.py --levels 20

The arguments after STATS.json are the interpreter arguments of the
untraced op.  Every public function and method of the layer modules is
wrapped before the op runs, at every name it is bound to: ``dimension``
holds its own ``lnfact``, and ``cli`` and the package root import the
report, verify and synthesis entry points by name.  A call opens a span;
its duration minus its child spans is the self time of the callee's
layer.  A call counts for a layer when the caller is in another layer.
The op's stdout is untouched; the totals go to STATS.json at exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import runpy
import sys
import time
import tracemalloc

LAYERS = ("cli", "perms", "trees", "portraits", "schreier", "wreath", "dimension", "synthesis")
# constructors and operators are permutation and tree work; other dunders are accessors
TRACED_DUNDERS = ("__init__", "__call__", "__mul__", "__pow__")
CLI_PREFIX = ["-m", "spinaldim.cli"]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, seconds spent in child spans]
        self.layers = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        self.functions: dict[str, dict] = {}
        self.extra = {"degree_max": 0, "strong_gens": 0, "peak_alloc_bytes": 0,
                      "scan_candidates": 0, "witness_found": 0}
        self.paused = False
        self.hooks = {
            "schreier.StabilizerChain.__init__": (tracemalloc.start, self._after_chain),
            "synthesis.distinct_prime_factor_counts": (None, self._after_scan),
            "synthesis.denominator_witness": (None, self._after_witness),
        }

    def _after_chain(self, bound, _):
        chain = bound.arguments["self"]
        self.extra["peak_alloc_bytes"] = max(self.extra["peak_alloc_bytes"],
                                             tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        self.extra["degree_max"] = max(self.extra["degree_max"], chain.degree)
        self.extra["strong_gens"] += len(chain.strong_generators())

    def _after_scan(self, bound, _):
        self.extra["scan_candidates"] += bound.arguments["hi"] - bound.arguments["lo"] + 1

    def _after_witness(self, _, result):
        self.extra["witness_found"] += result.found

    def wrap(self, layer: str, qualname: str, fn):
        record = self.functions.setdefault(
            qualname, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
        totals = self.layers[layer]
        stack = self.stack
        clock = time.perf_counter
        before, after = self.hooks.get(qualname, (None, None))
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before:
                before()
            if not stack or stack[-1][0] != layer:
                totals["calls"] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                totals["self_s"] += elapsed - frame[1]
                record["calls"] += 1
                record["total_s"] += elapsed
                record["self_s"] += elapsed - frame[1]
                record["max_s"] = max(record["max_s"], elapsed)
            if after:
                self.paused = True
                try:
                    after(signature.bind(*args, **kwargs), result)
                finally:
                    self.paused = False
            return result

        return traced

    def report(self) -> dict:
        used = {k: v for k, v in self.functions.items() if v["calls"]}
        return {"layers": self.layers, "functions": used, "extra": self.extra}


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in TRACED_DUNDERS:
            continue
        qualname = f"{layer}.{cls.__name__}.{name}"
        if isinstance(attr, (classmethod, staticmethod)):
            setattr(cls, name, type(attr)(tracer.wrap(layer, qualname, attr.__func__)))
        elif inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(layer, qualname, attr))


def install(tracer: Tracer) -> None:
    """Wrap the layers' public API at every spinaldim name that refers to it."""
    import spinaldim.cli  # noqa: F401  (loads every layer module)

    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"spinaldim.{layer}"]
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
            elif inspect.isfunction(obj):
                wrapped[id(obj)] = (obj, tracer.wrap(layer, f"{layer}.{name}", obj))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "spinaldim" and not mod_name.startswith("spinaldim."):
            continue
        for name, obj in list(vars(module).items()):
            original, replacement = wrapped.get(id(obj), (None, None))
            if original is obj:
                setattr(module, name, replacement)


def run_op(op_argv: list[str]) -> int:
    if op_argv[:2] == CLI_PREFIX:
        return sys.modules["spinaldim.cli"].main(op_argv[2:])
    sys.argv = list(op_argv)
    try:
        runpy.run_path(op_argv[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: layers.py STATS.json OP_ARGS...", file=sys.stderr)
        return 2
    stats_path, op_argv = argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return run_op(op_argv)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
