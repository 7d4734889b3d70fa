"""Legacy ASCII VTK unstructured-grid writer for grid views.

Points are the view's vertex coordinates in index-set order, padded to
three components; cells are its elements' corner indices (VTK types 3/5).
Floats are written with shortest round-trip formatting, so output is
byte-reproducible and coordinates survive a read-back bit-exactly.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

VTK_LINE = 3
VTK_TRIANGLE = 5


def _fmt(x):
    x = float(x)
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))  # 1.0 -> "1", keeps files tidy
    return repr(x)


def write_vtk(view, sink, point_data=None, cell_data=None, title="netmesh output"):
    """Write ``view`` to ``sink`` (path or file object).

    ``point_data`` and ``cell_data`` map field names to sequences aligned
    with the view's vertex/element index sets; each becomes a SCALARS array.
    """
    coordinates = view.coordinates()
    corners = view.corner_indices()
    d = view.grid.dim

    buf = io.StringIO()
    buf.write("# vtk DataFile Version 2.0\n")
    buf.write(f"{title}\n")
    buf.write("ASCII\n")
    buf.write("DATASET UNSTRUCTURED_GRID\n")

    buf.write(f"POINTS {len(coordinates)} double\n")
    for coords in coordinates.tolist():
        coords += [0.0] * (3 - view.grid.world_dim)
        buf.write(" ".join(_fmt(c) for c in coords[:3]) + "\n")

    n_cells = len(corners)
    buf.write(f"CELLS {n_cells} {n_cells * (d + 2)}\n")
    for ids in corners.tolist():
        buf.write(" ".join(str(i) for i in [d + 1] + ids) + "\n")

    buf.write(f"CELL_TYPES {n_cells}\n")
    cell_type = VTK_LINE if d == 1 else VTK_TRIANGLE
    for _ in range(n_cells):
        buf.write(f"{cell_type}\n")

    if point_data:
        buf.write(f"POINT_DATA {len(coordinates)}\n")
        for name, values in point_data.items():
            _write_scalars(buf, name, values, len(coordinates))
    if cell_data:
        buf.write(f"CELL_DATA {n_cells}\n")
        for name, values in cell_data.items():
            _write_scalars(buf, name, values, n_cells)

    text = buf.getvalue()
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text)
    return text


def _write_scalars(buf, name, values, expected):
    values = list(values)
    if len(values) != expected:
        raise ValueError(f"field {name!r} has {len(values)} values, expected {expected}")
    bad = next((i for i, v in enumerate(values) if not math.isfinite(v)), None)
    if bad is not None:
        raise ValueError(f"field {name!r} has the non-finite value {values[bad]} at index {bad}")
    buf.write(f"SCALARS {name} double 1\n")
    buf.write("LOOKUP_TABLE default\n")
    for v in values:
        buf.write(_fmt(v) + "\n")
