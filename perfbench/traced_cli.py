"""Run one `zdl` command with every public layer function timed as a span.

Usage: python perfbench/traced_cli.py STATS_JSON ZDL_ARGS...

Wraps each public function defined in the zdl layer modules, under every
name it is bound to in any `zdl` module, so nested calls such as
diagnostics_report -> build_grid become child spans.  In `cli` only
`main` is wrapped: its self time is the CLI layer's own cost (parsing,
record building, JSON and CSV writing).  `LeeArray.pairs` is wrapped
too, to count the nonzero entries it generates.  Then calls
`zdl.cli.main(ZDL_ARGS)`, writes per-span totals to STATS_JSON and exits
with main's status.  Spans are kept on one stack, so the child must run
single-threaded (ZDL_THREADS unset).
"""

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("arithmetic", "dirichlet_eval", "double_array", "summation_diagnostics",
          "zero_finder", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counts recorded at the span boundary: span name -> (args, kwargs,
# result) -> {count name: amount}.
COUNTERS = {
    "arithmetic.build_table": lambda a, k, r: {"n_sieved": _arg(a, k, 0, "n_max")},
    "double_array.build_grid":
        lambda a, k, r: {"cells": _arg(a, k, 1, "m_max") * _arg(a, k, 2, "n_max")},
    "dirichlet_eval.eta_line": lambda a, k, r: {"points": len(_arg(a, k, 1, "ts"))},
    "double_array.LeeArray.pairs": lambda a, k, r: {"entries": len(r[0])},
    "zero_finder.zeros_between": lambda a, k, r: {"zeros": len(r)},
}


class Tracer:
    """Span totals keyed by span name, plus ZdlErrors per layer."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.stats = {}
        self.errors = dict.fromkeys(LAYERS, 0)
        self._stack = []

    def wrap(self, name, layer, fn):
        counter = COUNTERS.get(name)
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self.error_type:
                stat["failed"] += 1
                if parent is None or parent[1] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[0] += elapsed
                stat["calls"] += 1
                stat["s"] += elapsed
                stat["self_s"] += elapsed - frame[0]
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    stat[key] = stat.get(key, 0) + amount
            return result

        return span

    def install(self):
        """Wrap the layer functions and rebind every alias in the zdl modules."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"zdl.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and (layer != "cli" or name == "main")):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{name}", layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname == "zdl" or modname.startswith("zdl."):
                for name, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        setattr(module, name, wrapped[id(obj)])
        lee = importlib.import_module("zdl.double_array").LeeArray
        lee.pairs = self.wrap("double_array.LeeArray.pairs", "double_array", lee.pairs)


def _out_path(argv):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import zdl.cli
    from zdl.errors import ZdlError

    tracer = Tracer(ZdlError)
    tracer.install()
    status = 1
    try:
        status = zdl.cli.main(argv)
        # main turns a ZdlError into exit status 2; count it for the cli layer.
        tracer.errors["cli"] += status == 2
    finally:
        out = _out_path(argv)
        record = {
            "status": status,
            "spans": tracer.stats,
            "errors": tracer.errors,
            "output_bytes": os.path.getsize(out) if out and os.path.exists(out) else 0,
        }
        with open(stats_path, "w") as handle:
            json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
