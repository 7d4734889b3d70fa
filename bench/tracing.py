"""Spans and counters around the public functions of each netmesh layer.

A :class:`Tracer` wraps a layer's public function wherever a module holds
it by name (``intersections`` is imported into ``flow``, ``roots``,
``cli`` and the package itself), records one span per call with its name,
start, end and parent span, and counts the layer's work.  Spans stay in
memory; a layer's self time is the duration of its spans minus the time
their child spans cover.  Nothing is patched outside ``with tracer:``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import scipy.sparse.linalg

import netmesh
from netmesh import adaptivity, cli, compaction, flow, geometry, growth, gmsh_io, roots, topology, vtk_io

intersections_module = sys.modules["netmesh.intersections"]

# span name -> per-layer metric that receives the span's self time
SPAN_METRIC = {
    "gmsh_io.read_gmsh": "gmsh_io.read_s",
    "topology.create_grid": "topology.create_grid_s",
    "views.leaf_view": "views.leaf_view_s",
    "intersections.intersections": "intersections.s",
    "flow.assemble_pressure": "flow.assemble_pressure_s",
    "flow.transport_step": "flow.transport_step_s",
    "flow.junction_two_point_transmissibilities": "flow.junction_transmissibilities_s",
    "flow.refinement_indicator": "flow.refinement_indicator_s",
    "flow.store_leaf_data": "flow.transfer_s",
    "flow.restore_leaf_data": "flow.transfer_s",
    "roots.assemble_solve_root_pressure": "roots.assemble_solve_s",
    "roots.indicator_evaluate": "roots.indicator_s",
    "roots.grow_grid": "roots.grow_grid_s",
    "adaptivity.pre_adapt": "adaptivity.adapt_s",
    "adaptivity.adapt": "adaptivity.adapt_s",
    "adaptivity.post_adapt": "adaptivity.adapt_s",
    "compaction.remove_elements": "compaction.remove_elements_s",
    "growth.grow": "growth.grow_s",
    "growth.post_grow": "growth.grow_s",
    "solve.spsolve": "solve.spsolve_s",
    "vtk_io.write_vtk": "vtk_io.write_s",
}

TIME_METRICS = sorted(set(SPAN_METRIC.values()))
COUNT_METRICS = [
    "gmsh_io.nodes",
    "views.leaf_view_calls",
    "views.entities",
    "intersections.calls",
    "intersections.groups",
    "geometry.affine_geometries",
    "adaptivity.refined",
    "adaptivity.coarsened",
    "compaction.removed",
    "growth.inserted",
    "growth.skipped",
    "solve.unknowns",
    "solve.nnz",
    "vtk_io.bytes",
]


class Tracer:
    """Collects spans and counts for one repetition at a time."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.spans = []
        self.counts = Counter()
        self._revisions = set()
        self._grids = {}
        self.reset()
        self._plan()

    def reset(self):
        """Forget the spans and counts of the previous repetition."""
        self.spans.clear()  # [name, start, end, parent index or -1]
        self.counts.clear()
        self.counts.update({name: 0 for name in COUNT_METRICS})
        self._revisions.clear()
        self._grids.clear()
        self.leaves_over_revisions = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, after=None, before=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            record = [name, 0.0, 0.0, parent]
            spans.append(record)
            stack.append(index)
            note = before(*args) if before is not None else None
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args, note)
            return result

        traced.__wrapped__ = fn
        return traced

    def _plan(self):
        """(owner, attribute, replacement) for every place a layer function is held."""
        c = self.counts
        plan = []

        def add(name, owners, attribute, after=None, before=None):
            fn = getattr(owners[0], attribute)
            wrapper = self._wrap(name, fn, after=after, before=before)
            for owner in owners:
                plan.append((owner, attribute, wrapper))

        def read_after(grid, args, note):
            c["gmsh_io.nodes"] += len(grid._verts[0])

        def view_after(view, args, note):
            c["views.leaf_view_calls"] += 1
            c["views.entities"] += sum(view.size(k) for k in sorted({0, 1, view.grid.dim}))

        def intersections_after(groups, args, note):
            view = args[0]
            c["intersections.calls"] += 1
            c["intersections.groups"] += len(groups)
            grid = view.grid
            key = (id(grid), grid._revision, view.level)
            if key not in self._revisions:
                self._revisions.add(key)
                self._grids[id(grid)] = grid  # keeps ids unique within a repetition
                self.leaves_over_revisions += view.size(0)

        def adapt_before(grid):
            return sum(
                1 for level in grid._elems for rec in level if rec.mark == 1 and not rec.children
            )

        def adapt_after(result, args, refined):
            c["adaptivity.refined"] += refined

        def remove_after(result, args, note):
            dead = len(args[1])
            c["compaction.removed"] += dead
            if self._stack and self.spans[self._stack[-1]][0] == "adaptivity.adapt":
                c["adaptivity.coarsened"] += dead

        def grow_after(result, args, note):
            report = args[0].growth_report
            c["growth.inserted"] += len(report.inserted)
            c["growth.skipped"] += len(report.skipped)

        def spsolve_after(result, args, note):
            c["solve.unknowns"] += args[0].shape[0]
            c["solve.nnz"] += args[0].nnz

        def vtk_after(text, args, note):
            c["vtk_io.bytes"] += len(text)

        add("gmsh_io.read_gmsh", [gmsh_io, cli, netmesh], "read_gmsh", after=read_after)
        add("topology.create_grid", [topology.GridFactory], "create_grid")
        add("views.leaf_view", [topology.Grid], "leaf_view", after=view_after)
        add(
            "intersections.intersections",
            [intersections_module, flow, roots, cli, netmesh],
            "intersections",
            after=intersections_after,
        )
        for name in (
            "assemble_pressure",
            "transport_step",
            "refinement_indicator",
            "store_leaf_data",
            "restore_leaf_data",
        ):
            add(f"flow.{name}", [flow], name)
        add(
            "flow.junction_two_point_transmissibilities",
            [flow, roots],
            "junction_two_point_transmissibilities",
        )
        for name in ("assemble_solve_root_pressure", "indicator_evaluate", "grow_grid"):
            add(f"roots.{name}", [roots], name)
        add("adaptivity.pre_adapt", [adaptivity], "pre_adapt")
        add("adaptivity.adapt", [adaptivity], "adapt", after=adapt_after, before=adapt_before)
        add("adaptivity.post_adapt", [adaptivity], "post_adapt")
        add("compaction.remove_elements", [compaction], "remove_elements", after=remove_after)
        add("growth.grow", [growth], "grow", after=grow_after)
        add("growth.post_grow", [growth], "post_grow")
        add("solve.spsolve", [scipy.sparse.linalg], "spsolve", after=spsolve_after)
        add("vtk_io.write_vtk", [vtk_io, cli, netmesh], "write_vtk", after=vtk_after)

        original_init = geometry.AffineGeometry.__init__

        def counting_init(obj, corners):
            c["geometry.affine_geometries"] += 1
            original_init(obj, corners)

        plan.append((geometry.AffineGeometry, "__init__", counting_init))
        self._plan_entries = plan

    def __enter__(self):
        for owner, attribute, replacement in self._plan_entries:
            self._patches.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, replacement)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        return False

    # -- reports ----------------------------------------------------------

    def self_times(self):
        """Per-layer self time in seconds over the spans recorded since reset."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, parent), children in zip(self.spans, child_time):
            out[SPAN_METRIC[name]] += (end - start) - children
        return {metric: out.get(metric, 0.0) for metric in TIME_METRICS}

    def layer_counts(self):
        counts = dict(self.counts)
        leaves = self.leaves_over_revisions
        counts["intersections.walks_per_leaf"] = (
            counts["intersections.calls"] / leaves if leaves else 0.0
        )
        return counts

    def write_spans(self, path):
        """Write the spans since the last reset, one JSON object per line."""
        with open(path, "w") as sink:
            for i, (name, start, end, parent) in enumerate(self.spans):
                sink.write(
                    json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )
