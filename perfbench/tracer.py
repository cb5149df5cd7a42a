"""Run one tropmoduli CLI command with spans around each layer's calls.

Usage: python3 perfbench/tracer.py REPORT.json CLI-ARGUMENT...

The CLI writes to stdout exactly as `python3 -m tropmoduli.cli` would; the
trace goes to REPORT.json.  Nothing under src/ changes: each public function
is replaced, in every tropmoduli module that binds it (the CLI, homology and
complexes import names directly), by a wrapper that records a span.  Hot
methods get a call count and accumulated time instead of a span per call.
Spans are entered only from the main thread; worker threads of
parallel.parallel_map touch only the locked counters.

A span is [name, parent index, start, end, ru_maxrss in MB at end].  The
root span "process" starts before tropmoduli is imported and ends after the
CLI's output is flushed, so its children ("import", "cli" and everything the
CLI calls) account for the traced process apart from interpreter start-up and
exit.  Hooks that derive counts from results run in child spans named
"trace", so they never inflate the self time of a layer.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.lock = threading.Lock()

    def begin(self, name: str, start: float | None = None) -> None:
        parent = self.stack[-1] if self.stack else -1
        when = time.perf_counter() if start is None else start
        self.spans.append([name, parent, when, None, None])
        self.stack.append(len(self.spans) - 1)

    def end(self) -> None:
        span = self.spans[self.stack.pop()]
        span[3] = time.perf_counter()
        span[4] = maxrss_mb()

    def add(self, name: str, value) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        with self.lock:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def span(self, name: str, fn, hook=None):
        """Wrap fn in a span; hook(result, *args) runs in a "trace" span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if hook is not None:
                self.begin("trace")
                try:
                    hook(result, *args)
                finally:
                    self.end()
            return result

        return wrapper

    def hot(self, name: str, fn, hook=None):
        """Wrap fn with a call count and accumulated time, but no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            with self.lock:
                self.counts[name + ".calls"] = self.counts.get(name + ".calls", 0) + 1
                self.counts[name + ".s"] = self.counts.get(name + ".s", 0) + elapsed
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def rebind(original, wrapper) -> None:
    """Replace original by wrapper wherever a tropmoduli module binds it."""
    for name, module in list(sys.modules.items()):
        if name != "tropmoduli" and not name.startswith("tropmoduli."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def instrument(tracer: Tracer) -> None:
    from tropmoduli import complexes, enumeration, graphs, homology, parallel

    t = tracer

    def on_catalog(catalog, *args):
        t.peak("enumeration.types", catalog.count)
        t.peak("enumeration.widest_level", max(catalog.f_vector))

    def on_poset(poset, *args):
        t.peak("complexes.covers", len(poset.covers))

    def on_link(link, *args):
        killed = [c for c in link.cells if c.edge_group.has_odd_element]
        repeated = sum(len(set(c.graph.edges)) < len(c.graph.edges) for c in killed)
        t.peak("complexes.cells", len(link.cells))
        t.peak("complexes.killed_cells", len(killed))
        t.peak("complexes.killed_repeated_edge_cells", repeated)

    def on_chain(chain, *args):
        t.peak("homology.generators", sum(map(len, chain.generators_by_degree)))
        t.peak("homology.nonzeros", sum(len(c) for cols in chain.boundaries for c in cols))

    def on_rank(rank, columns, *args):
        t.add("homology.pivots", rank)
        t.peak("homology.largest_matrix_columns", len(columns))

    def on_group(group):
        t.add("graphs.edge_group_elements", group.order)
        t.peak("graphs.edge_group_order_max", group.order)

    spans = [
        (enumeration, "enumerate_types", on_catalog),
        (complexes, "build_poset", on_poset),
        (complexes, "link_cells", on_link),
        (complexes, "complex_dimension", None),
        (homology, "reduced_homology", None),
        (homology, "chain_complex_within_bounds", None),
        (homology, "build_chain_complex", on_chain),
        (homology, "homology_of_chain", None),
        (homology, "sparse_integer_rank", on_rank),
    ]
    for module, name, hook in spans:
        original = getattr(module, name)
        layer = module.__name__.rsplit(".", 1)[1]
        rebind(original, t.span(f"{layer}.{name}", original, hook))

    original = enumeration.has_expansion
    rebind(original, t.hot("enumeration.has_expansion", original))
    original = graphs._canonical_raw
    rebind(original, t.hot("graphs.canonical_raw", original))

    cls = graphs.WeightedMarkedGraph
    for name, hook in [
        ("canonical_key", None),
        ("canonical_certificate", None),
        ("contract", None),
        ("automorphisms", on_group),
    ]:
        setattr(cls, name, t.hot(f"graphs.{name}", getattr(cls, name), hook))

    pool_map = parallel.parallel_map

    @functools.wraps(pool_map)
    def counted_map(fn, items, threads: int = 1):
        items = list(items)
        t.add("parallel.parallel_map.calls", 1)
        t.add("parallel.parallel_map.items", len(items))
        if threads > 1 and len(items) > 1:
            t.add("parallel.pooled_calls", 1)
        return pool_map(fn, items, threads=threads)

    rebind(pool_map, counted_map)


def main(argv: list[str]) -> int:
    report_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.begin("process", start=T0)
    tracer.begin("import")
    from tropmoduli import cli

    instrument(tracer)
    tracer.end()
    tracer.begin("cli")
    code = cli.dispatch(cli_args)
    sys.stdout.flush()
    tracer.end()
    tracer.end()
    report = tracer.report()
    report["exit"] = code
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
