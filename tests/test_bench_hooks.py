"""The benchmark's tracer can wrap every netmesh name it patches and read what it counts.

``bench/tracing.py`` replaces layer functions wherever a module holds
them by name, including names a module imports only for that purpose
(``roots.intersections``).  Entering a tracer fails on any name that is
gone, so a rename shows up here rather than in a benchmark run.  The
file is read and executed, never imported, so nothing is written under
``bench/``.
"""

import types
from pathlib import Path

import pytest

import netmesh
from netmesh import roots

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_wraps_and_restores_every_hook():
    tracer = load_tracing().Tracer()
    entries = tracer._plan_entries
    originals = [owner.__dict__[attribute] for owner, attribute, _ in entries]
    with tracer:
        for owner, attribute, replacement in entries:
            assert owner.__dict__[attribute] is replacement
    for (owner, attribute, _), original in zip(entries, originals):
        assert owner.__dict__[attribute] is original


def test_a_missing_hook_fails_to_enter(monkeypatch):
    tracer = load_tracing().Tracer()
    monkeypatch.delattr(roots, "intersections")
    with pytest.raises(KeyError):
        tracer.__enter__()
    tracer.__exit__(None, None, None)  # undo the patches applied before the failure


def test_the_tracer_counts_what_it_reads_of_the_grid():
    """The tracer reads two things of the grid that no public call gives:
    ``len(grid._verts[0])`` after each MSH read, and the marks and children
    of the element records before each adapt.  Over one read of
    ``meshes/tjunction.msh`` and one adapt it must count the file's nodes
    and the leaves marked 1."""
    mesh = Path(__file__).parent.parent / "meshes" / "tjunction.msh"
    lines = mesh.read_text().splitlines()
    nodes = int(lines[lines.index("$Nodes") + 1])
    tracer = load_tracing().Tracer()
    with tracer:
        grid = netmesh.read_gmsh(mesh, netmesh.GridConfig(2, 3))
        leaves = grid.leaf_view().elements()
        for el in leaves[::2]:
            grid.mark(1, el)
        grid.mark(-1, leaves[1])
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
    counts = tracer.layer_counts()
    assert counts["gmsh_io.nodes"] == nodes == 5
    assert counts["adaptivity.refined"] == len(leaves[::2]) > 0
