"""Run one cantorloc CLI command with spans around each layer's entry points.

    python3 bench/trace_cli.py SPANS_JSON TRACE_ID -- <cantorloc arguments>

The program is not edited: after importing cantorloc.cli, this script
rebinds the public entry points listed in TRACED in every cantorloc module
that holds them, so calls between modules pass through a wrapper that
records a span (name, parent, start, end, counts).  Spans stay in memory
and are written to SPANS_JSON when the command returns; stdout is the
command's own.  After the command, the cost of one span is timed on a
wrapped no-op; times the number of spans, plus the rebinding, it gives the
tracing overhead written with the spans.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, span name); the span name's prefix is the layer
TRACED = (
    ("cantorloc.cli", "main", "cli.main"),
    ("cantorloc.cantor", "continuous_iterate", "cantor.iterate"),
    ("cantorloc.cantor", "indexed_intervals", "cantor.iterate"),
    ("cantorloc.special", "segment_mass_batch", "special.mass"),
    ("cantorloc.special", "regularized_lower_gamma", "special.tail"),
    ("cantorloc.operator", "localization_problem", "operator.problem"),
    ("cantorloc.operator", "eigenvalue", "operator.eigenvalue"),
    ("cantorloc.operator", "eigenvalue_table", "operator.eigenvalue_table"),
    ("cantorloc.operator", "operator_norm", "operator.norm"),
    ("cantorloc.experiments", "sweep_fixed", "experiments.sweep"),
    ("cantorloc.experiments", "sweep_reverse_counterexample", "experiments.sweep"),
    ("cantorloc.experiments", "sweep_indexed_decay", "experiments.sweep"),
    ("cantorloc.experiments", "sweep_indexed_counterexample", "experiments.sweep"),
)


def _counts(name: str, args, result) -> dict:
    """Work done by one call, read from its arguments and result."""
    if name == "special.mass":
        return {"segments": int(len(args[1]))}
    if name == "cantor.iterate":
        return {"intervals": int(result.count)}
    if name == "operator.norm":
        # the scan starts at k0 = 0: no workload passes --start-at-inner
        endpoints = 2 * args[0].intervals.count
        return {"scan_work": (result.k_truncation + 1) * endpoints}
    return {}


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []  # [name, parent index, start, end, counts]
        self.stack = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, clock(), None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[4] = _counts(name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "cantorloc" or n.startswith("cantorloc.")]
        for module_name, attr, span_name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path: str, import_s: float, overhead_s: float) -> None:
        record = {
            "trace_id": self.trace_id,
            "import_s": import_s,
            "overhead_s": overhead_s,
            "spans": [{"id": i, "name": s[0], "parent": s[1], "start": s[2],
                       "end": s[3], "counts": s[4] or {}}
                      for i, s in enumerate(self.spans)],
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Tracer("overhead").wrap("trace.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spans_path, trace_id, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    t0 = time.perf_counter()
    import cantorloc.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer(trace_id)
    t1 = time.perf_counter()
    tracer.install()
    install_s = time.perf_counter() - t1
    code = cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_path, import_s,
                install_s + span_cost() * len(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
