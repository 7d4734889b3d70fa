"""Elements enter the arenas in batches, with the records the single-record appends made.

``GridFactory.create_grid`` and ``grow`` append each arena once per level
through ``Grid._edge_batch`` and ``Grid._add_batch``, lines and triangles
alike; ``tests/append_rows.py`` keeps the appends of one record at a time
that they replaced, and ``tests/growth_rows.py`` and
``tests/refine_rows.py`` grow and refine through them.  Built, grown and
refined either way, a grid holds the same records: ids, each edge's
corners in its first user's order, each triangle's edge slots, markers.
"""

from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

from netmesh import GridConfig, GridFactory, adaptivity, audit_grid, cli, growth, read_gmsh
from netmesh.topology import Grid

from append_rows import create_grid_by_rows
from conftest import foam_lattice, make_grid
from growth_rows import grow_by_rows
from refine_rows import adapt_by_leaves, records
from transactions import FAN_TRANSACTIONS, embedded_grid, play, rounds

ROOT = Path(__file__).resolve().parents[1]


def by_rows(call, *args):
    """``call(*args)`` with the factory build, ``grow`` and ``adapt`` appending one record at a time."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(GridFactory, "create_grid", create_grid_by_rows))
        stack.enter_context(mock.patch.object(growth, "grow", grow_by_rows))
        stack.enter_context(mock.patch.object(adaptivity, "adapt", adapt_by_leaves))
        return call(*args)


def both_ways(call, *args):
    """The grid ``call(*args)`` builds in batches, after checking it against
    the one built by rows: same records, and an audit that finds nothing."""
    grid = call(*args)
    assert records(grid) == records(by_rows(call, *args))
    assert audit_grid(grid) == []
    return grid


def test_the_grid_has_one_append_path_per_arena(two_triangles):
    """Records enter only through the batch appends: the single-record appends
    and the edge lookup that served them are gone."""
    names = ["_add_vertex", "_add_edge", "_add_element", "_get_or_make_edge", "_vertex_copy", "_edge_lookup"]
    assert [name for name in names if hasattr(Grid, name) or hasattr(two_triangles, name)] == []


SURFACES = {
    "square": lambda tmp: read_gmsh(ROOT / "meshes" / "square.msh", GridConfig(2, 3)),
    "quadratic_surface": lambda tmp: read_gmsh(ROOT / "tests" / "data" / "quadratic_surface.msh", GridConfig(2, 3)),
    "wavelet": lambda tmp: cli._wavelet_grid(read_gmsh(ROOT / "meshes" / "square.msh", GridConfig(2, 3))),
    "foam_lattice": foam_lattice,
}


@pytest.mark.parametrize("name", SURFACES)
def test_a_surface_builds_as_by_rows(name, tmp_path):
    both_ways(SURFACES[name], tmp_path)


SQUARE = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]


def test_two_triangles_of_one_batch_share_a_new_edge():
    """The first triangle makes the diagonal, in its corner order; the second takes it."""
    grid = both_ways(make_grid, 2, 3, SQUARE, [(0, 1, 2), (3, 2, 0)])
    assert grid._edges[0].v.tolist() == [[0, 1], [0, 2], [1, 2], [3, 2], [3, 0]]
    assert [rec.edges for rec in grid._elems[0]] == [(0, 1, 2), (3, 4, 1)]
    assert [rec.id for rec in grid._elems[0]] == [7, 10]


@pytest.mark.parametrize("second", [(0, 1, 2), (2, 1, 0)])
def test_two_rows_over_the_same_three_vertices(second):
    """In either orientation, the second row makes no edge of its own."""
    grid = both_ways(make_grid, 2, 3, SQUARE[:3], [(0, 1, 2), second])
    assert len(grid._edges[0]) == 3
    assert sorted(grid._elems[0][1].edges) == [0, 1, 2]


@pytest.mark.parametrize("world_dim", [2, 3, 4])
@settings(max_examples=20, deadline=None)
@given(transactions=rounds(FAN_TRANSACTIONS))
def test_fan_transactions_append_as_by_rows(world_dim, transactions):
    """After each round of adapts, grows and removals, the grid appended in
    batches holds the records of the grid appended one record at a time."""
    grid = both_ways(embedded_grid, "fan", world_dim)
    ref = by_rows(embedded_grid, "fan", world_dim)
    for transaction in transactions:
        play(grid, *transaction)
        by_rows(play, ref, *transaction)
        assert records(grid) == records(ref)
        assert audit_grid(grid) == []
