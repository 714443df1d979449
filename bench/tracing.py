"""In-memory span tracer for the benchmark's traced run.

The tracer wraps srdpeig's public functions where their callers bind them
(for example ``srdpeig.studies.solve_generalized`` and
``srdpeig.cli.assemble``), so the program itself is not modified.  Each span
records (name, start, end, parent, iteration); spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
children, which are disjoint because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import time
import tracemalloc
from collections import defaultdict

from srdpeig import assembly, basis2d, cli, mesh, studies

ROOT = "unit"  # span around one unit of work; its self time is cli.other.s
SOLVE = "eigensolve.solve_generalized"

# Span names whose self time is reported as "<name>.s".
LAYER_SPANS = (
    "basis1d.generate_phi",
    "basis2d.basis",
    "assembly.reference_matrices",
    "mesh.build_mesh",
    "mesh.build_dof_map",
    "assembly.assemble",
    SOLVE,
    "eigensolve.select_near",
    "studies.write_csv",
    "studies.plot_convergence",
)

# Exact-layer metrics also reported, prefixed "setup.", for the traced
# cache fill of the workload's set-up.
SETUP_METRICS = (
    "basis1d.generate_phi.s",
    "basis2d.basis.s",
    "basis2d.functions",
    "assembly.reference_matrices.s",
    "assembly.reference_matrices.entries",
)

# Per-layer counters; every metric absent from a unit reads 0 for it.
COUNTERS = (
    "basis2d.functions",
    "assembly.reference_matrices.entries",
    "mesh.elements",
    "mesh.dofs",
    "assembly.nnz",
    "assembly.free_dofs",
    "eigensolve.eigs_computed",
    "eigensolve.eigs_used",
    "studies.rows",
    "studies.skipped",
)


class _SkipCounter(logging.Handler):
    """Counts the warnings run_study logs for each skipped sweep point."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        self.tracer.counts["studies.skipped"] += 1


class Tracer:
    """Spans and counters of one traced unit of work."""

    def __init__(self, iteration: int | str):
        self.iteration = iteration
        self.spans: list[list] = []  # [name, start, end, parent index, iteration]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._skips = _SkipCounter(self)

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.iteration]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, observe=None, measure_alloc: bool = False):
        """Return fn wrapped in a span.

        ``observe(tracer, args, result)`` records counts after the span ends;
        for an lru_cache'd function it runs only when the call missed the
        cache, so counts measure work done rather than lookups.
        """
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            if measure_alloc:
                tracemalloc.start()
            record = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(record)
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.maxima["eigensolve.dense_bytes"] = max(
                        self.maxima["eigensolve.dense_bytes"], peak
                    )
            if observe is not None and (cache_info is None or cache_info().misses > misses):
                observe(self, args, result)
            return result

        return traced

    def _targets(self):
        def functions(t, args, basis):
            t.counts["basis2d.functions"] += basis.count_nonzero

        def entries(t, args, lm):
            t.counts["assembly.reference_matrices.entries"] += 2 * lm.n * lm.n

        def elements(t, args, m):
            t.counts["mesh.elements"] += m.n_elements

        def dofs(t, args, dofmap):
            t.counts["mesh.dofs"] += dofmap.total

        def system(t, args, s):
            t.counts["assembly.nnz"] += s.M.nnz
            t.counts["assembly.free_dofs"] += s.dimension

        def solved(t, args, result):
            t.counts["eigensolve.eigs_computed"] += len(result)
            t.maxima["eigensolve.solve_generalized.max_ndofs"] = max(
                t.maxima["eigensolve.solve_generalized.max_ndofs"], result.ndofs
            )

        def used(t, args, values):
            t.counts["eigensolve.eigs_used"] += len(values)

        def rows(t, args, _):
            t.counts["studies.rows"] += len(args[0])

        # (module, attribute, span name, observer, measure allocations)
        return [
            (basis2d, "generate_phi", "basis1d.generate_phi", None, False),
            (assembly, "generate_phi", "basis1d.generate_phi", None, False),
            (mesh, "tensor_basis", "basis2d.basis", functions, False),
            (mesh, "serendipity_basis", "basis2d.basis", functions, False),
            (assembly, "reference_matrices", "assembly.reference_matrices", entries, False),
            (studies, "reference_matrices", "assembly.reference_matrices", entries, False),
            (cli, "reference_matrices", "assembly.reference_matrices", entries, False),
            (studies, "build_mesh", "mesh.build_mesh", elements, False),
            (cli, "build_mesh", "mesh.build_mesh", elements, False),
            (studies, "build_dof_map", "mesh.build_dof_map", dofs, False),
            (cli, "build_dof_map", "mesh.build_dof_map", dofs, False),
            (studies, "assemble", "assembly.assemble", system, False),
            (cli, "assemble", "assembly.assemble", system, False),
            (studies, "solve_generalized", SOLVE, solved, True),
            (studies, "select_near", "eigensolve.select_near", used, False),
            (studies, "write_csv", "studies.write_csv", rows, False),
            (studies, "plot_convergence", "studies.plot_convergence", None, False),
        ]

    def install(self) -> None:
        for module, attr, name, observe, alloc in self._targets():
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, observe, alloc))
        logging.getLogger(studies.__name__).addHandler(self._skips)

    def uninstall(self) -> None:
        logging.getLogger(studies.__name__).removeHandler(self._skips)
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers and record a root span around the block."""
        self.install()
        root = self.begin(ROOT)
        try:
            yield
        finally:
            self.end(root)
            self.uninstall()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this unit; wall is the root span's duration."""
        own = self.self_times()
        out = {f"{name}.s": own.get(name, 0.0) for name in LAYER_SPANS}
        out["cli.other.s"] = own[ROOT]
        solves = [end - start for name, start, end, _, _ in self.spans if name == SOLVE]
        out[f"{SOLVE}.calls"] = float(len(solves))
        out[f"{SOLVE}.max_s"] = max(solves, default=0.0)
        out[f"{SOLVE}.max_ndofs"] = self.maxima[f"{SOLVE}.max_ndofs"]
        out["eigensolve.dense_bytes"] = self.maxima["eigensolve.dense_bytes"]
        for name in COUNTERS:
            out[name] = self.counts[name]
        computed = out["eigensolve.eigs_computed"]
        out["eigensolve.useful_ratio"] = out["eigensolve.eigs_used"] / computed if computed else 0.0
        root = next(s for s in self.spans if s[0] == ROOT)
        out["trace.wall_s"] = root[2] - root[1]
        return out

    def setup_metrics(self) -> dict[str, float]:
        """The exact-layer metrics of a traced set-up, prefixed "setup."."""
        metrics = self.metrics()
        return {f"setup.{name}": metrics[name] for name in SETUP_METRICS}
