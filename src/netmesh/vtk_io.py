"""Legacy ASCII VTK unstructured-grid writer for grid views.

Points are the view's vertex coordinates in index-set order, padded or
cut to three components; cells are its elements' corner indices (VTK
types 3/5).  A float is written as ``str(int(x))`` when it is integral
and ``abs(x) < 1e16`` and as ``repr(x)`` otherwise, and ``-0.0`` as
``0``, so output is byte-reproducible and coordinates survive a
read-back bit-exactly.

Each section is one ``%``-format over a flat tuple, with no Python call
per value.  ``x + 0.0`` turns ``-0.0`` into ``0.0``.  Below 1e16,
``repr`` of a finite float ends in ``.0`` exactly when it is integral
(it uses an exponent only for large or small values, and an exponent
never ends in ``.0``), so replacing ``.0`` where a token ends, before
``" "`` or ``"\\n"``, drops exactly the ``.0`` of integral values.
Tokens hold no space or newline, so the replaces touch nothing else.

A vertex keeps its coordinates under its persistent id (ids are never
reused, ``Vertex.coords`` is read-only and the copies of a vertex share
their coordinate bits), so its ``POINTS`` line is the same in every view
and snapshot of its grid.  For each grid the writer keeps the ``POINTS``
text of the last view it wrote and that view's vertex ids, in a weak
mapping that goes with the grid, and formats only the vertices that view
did not hold.  Between writes a vertex so costs the characters of its
line plus 8 bytes, where a dict of one string per vertex would hold
about 180 bytes for the grid's life; the dict is built only while a
write runs.  The lookups and the merge run in ``map``, ``zip`` and
``compress``, so this adds no Python call per vertex either.
"""

from __future__ import annotations

import weakref
from array import array
from itertools import compress
from operator import not_
from pathlib import Path

import numpy as np

VTK_LINE = 3
VTK_TRIANGLE = 5

_point_lines = weakref.WeakKeyDictionary()  # grid -> (vertex ids, POINTS text) of its last write


def _floats(values, row):
    """``row`` formatted once per row of the float array ``values``."""
    text = row * len(values) % tuple((values + 0.0).ravel().tolist())
    return text.replace(".0 ", " ").replace(".0\n", "\n")


def write_vtk(view, sink, point_data=None, cell_data=None, title="netmesh output"):
    """Write ``view`` to ``sink`` (path or file object).

    ``point_data`` and ``cell_data`` map field names to sequences aligned
    with the view's vertex/element index sets; each becomes a SCALARS array.
    A title must be one line of at most 256 characters and a field name a
    non-empty word without whitespace, else ``ValueError`` is raised before
    anything is written.
    """
    if "".join(title.splitlines()) != title or len(title) > 256:
        raise ValueError(f"title {title!r} must be one line of at most 256 characters")
    for name in (*(point_data or ()), *(cell_data or ())):
        if str(name).split() != [str(name)]:
            raise ValueError(f"field name {name!r} must be non-empty and hold no whitespace")
    coordinates = view.coordinates()
    corners = view.corner_indices()
    d = view.grid.dim
    n_points, n_cells = len(coordinates), len(corners)
    points = np.zeros((n_points, 3))
    w = min(view.grid.world_dim, 3)
    points[:, :w] = coordinates[:, :w]

    ids, last, row = view.ids(d), _point_lines.get(view.grid), "%r %r %r\n"
    if last is None:  # the grid's first write
        text = _floats(points, row)
    else:
        kept = dict(zip(last[0].tolist(), last[1].splitlines(keepends=True)))
        keys = ids.tolist()
        lines = dict(zip(keys, map(kept.get, keys)))  # None where the last view had no such vertex
        fresh = list(map(not_, lines.values()))
        lines.update(zip(compress(keys, fresh), _floats(points[fresh], row).splitlines(keepends=True)))
        text = "".join(lines.values())
    _point_lines[view.grid] = ids, text

    parts = [
        f"# vtk DataFile Version 2.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {n_points} double\n", text,
        f"CELLS {n_cells} {n_cells * (d + 2)}\n",
        (f"{d + 1}" + " %d" * (d + 1) + "\n") * n_cells % tuple(corners.ravel().tolist()),
        f"CELL_TYPES {n_cells}\n", f"{VTK_LINE if d == 1 else VTK_TRIANGLE}\n" * n_cells,
    ]
    for header, fields, n in (("POINT_DATA", point_data, n_points), ("CELL_DATA", cell_data, n_cells)):
        if fields:
            parts.append(f"{header} {n}\n")
            parts += [_scalars(name, values, n) for name, values in fields.items()]

    text = "".join(parts)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text)
    return text


def _scalars(name, values, expected):
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if len(values) != expected:
        raise ValueError(f"field {name!r} has {len(values)} values, expected {expected}")
    floats = np.frombuffer(array("d", values))  # refuses what math.isfinite refuses
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        raise ValueError(f"field {name!r} has the non-finite value {values[bad[0]]} at index {bad[0]}")
    return f"SCALARS {name} double 1\nLOOKUP_TABLE default\n" + _floats(floats, "%r\n")
