"""The line-by-line MSH reader, kept as the reference for ``gmsh_io.read_gmsh``.

Before ``read_gmsh`` read each section in array passes, it parsed one
line at a time: each node line into a dict of coordinate arrays, each
element line into its corners, parametrization and marker, and it staged
one ``insert_elements`` call per run of elements sharing both.
``read_gmsh`` below is that reader.  It keeps the last of two
``$MeshFormat``, ``$Nodes`` or ``$Elements`` sections, and it reads the
tag count of an element line even when it is negative; the package
reader refuses both.
"""

from __future__ import annotations

import logging
import math
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from netmesh.errors import MshParseError
from netmesh.parametrization import QuadraticLine, QuadraticTriangle
from netmesh.topology import GridFactory, LINE, TRIANGLE

logger = logging.getLogger(__name__)

# element type -> (kind, node count, parametrization class or None);
# gmsh orders type-9 nodes (0,1,2, edge01, edge12, edge02)
_ELEMENT_TYPES = {
    1: (LINE, 2, None),
    2: (TRIANGLE, 3, None),
    8: (LINE, 3, QuadraticLine),
    9: (TRIANGLE, 6, QuadraticTriangle),
}


def read_gmsh(path, config):
    """Read ``path`` into a new grid; returns the grid.

    ``config`` (a ``GridConfig``) fixes grid and world dimension; coordinates
    beyond the world dimension are discarded (the usual case is w=2 dropping z).
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as err:
        line = err.object[: err.start].count(b"\n") + 1
        raise MshParseError(f"not UTF-8 text ({err.reason} at byte {err.start})", line=line)
    sections = _split_sections(lines)

    if "MeshFormat" not in sections:
        raise MshParseError("missing $MeshFormat section")
    start, fmt_lines = sections["MeshFormat"]
    if not fmt_lines:
        raise MshParseError("empty $MeshFormat section", line=start + 1)
    fmt_no, fmt_text = fmt_lines[0]
    parts = fmt_text.split()
    if len(parts) != 3:
        raise MshParseError("malformed $MeshFormat line", line=fmt_no)
    version, file_type = parts[0], parts[1]
    if not version.startswith("2."):
        raise MshParseError(f"unsupported MSH version {version} (need 2.x ASCII)", line=fmt_no)
    if file_type != "0":
        raise MshParseError("binary MSH files are not supported", line=fmt_no)

    if "Nodes" not in sections:
        raise MshParseError("missing $Nodes section")
    if "Elements" not in sections:
        raise MshParseError("missing $Elements section")

    start, node_lines = sections["Nodes"]
    if not node_lines:
        raise MshParseError("malformed node count", line=start + 1)
    count_no, count_text = node_lines[0]
    try:
        n_nodes = int(count_text)
    except ValueError:
        raise MshParseError("malformed node count", line=count_no)
    if len(node_lines) - 1 != n_nodes:
        raise MshParseError(
            f"expected {n_nodes} node lines, found {len(node_lines) - 1}", line=count_no
        )
    coords = {}
    for line_no, text in node_lines[1:]:
        parts = text.split()
        if len(parts) != 4:
            raise MshParseError("node line needs 'id x y z'", line=line_no)
        try:
            nid = int(parts[0])
            xyz = [float(p) for p in parts[1:]]
        except ValueError:
            raise MshParseError("malformed node line", line=line_no)
        if not all(map(math.isfinite, xyz)):
            raise MshParseError(f"node {nid} has a non-finite coordinate", line=line_no)
        if nid in coords:
            raise MshParseError(f"duplicate node id {nid}", line=line_no)
        coords[nid] = np.array(xyz)

    w = config.world_dim
    start, elem_lines = sections["Elements"]
    if not elem_lines:
        raise MshParseError("malformed element count", line=start + 1)
    count_no, count_text = elem_lines[0]
    try:
        n_elems = int(count_text)
    except ValueError:
        raise MshParseError("malformed element count", line=count_no)
    if len(elem_lines) - 1 != n_elems:
        raise MshParseError(
            f"expected {n_elems} element lines, found {len(elem_lines) - 1}", line=count_no
        )

    staged = []  # (corner node ids, parametrization, marker) per element read
    ignored = skipped = 0
    for line_no, text in elem_lines[1:]:
        parts = text.split()
        if len(parts) < 3:
            raise MshParseError("element line too short", line=line_no)
        try:
            etype = int(parts[1])
            n_tags = int(parts[2])
            tags = [int(t) for t in parts[3 : 3 + n_tags]]
            nodes = [int(t) for t in parts[3 + n_tags :]]
        except ValueError:
            raise MshParseError("malformed element line", line=line_no)
        if etype not in _ELEMENT_TYPES:
            skipped += 1
            logger.warning("skipping unsupported element type %d (line %d)", etype, line_no)
            continue
        kind, n_nodes, parametrization = _ELEMENT_TYPES[etype]
        if n_nodes != len(nodes):
            raise MshParseError(f"type {etype} needs {n_nodes} nodes, got {len(nodes)}", line=line_no)
        if kind.dim != config.dim:
            ignored += 1
            continue
        for n in nodes:
            if n not in coords:
                raise MshParseError(f"element references unknown node {n}", line=line_no)
        phi = None
        if parametrization is not None:
            phi = parametrization(np.stack([_padded(coords[n], w) for n in nodes]))
        staged.append((nodes[: kind.dim + 1], phi, tags[0] if tags else None))

    if not staged:
        raise MshParseError(f"no dimension-{config.dim} elements in file")
    logger.info(
        "read %d elements (%d other-dimensional ignored, %d unsupported skipped)",
        len(staged), ignored, skipped,
    )
    # only corner nodes become vertices, in order of first use; mid-edge
    # nodes shape the parametrization
    used = dict.fromkeys(n for corners, _, _ in staged for n in corners)
    node_index = dict(zip(used, range(len(used))))
    factory = GridFactory(config)
    factory.insert_vertices(np.array([_padded(coords[n], w) for n in used]))
    kind = LINE if config.dim == 1 else TRIANGLE
    # one call per run of elements sharing parametrization and marker
    for (phi, marker), run in groupby(staged, key=itemgetter(1, 2)):
        rows = [[node_index[n] for n in corners] for corners, _, _ in run]
        factory.insert_elements(kind, rows, parametrization=phi, marker=marker)
    return factory.create_grid()


def _padded(xyz, w):
    out = np.zeros(w)
    out[: min(w, 3)] = xyz[: min(w, 3)]
    return out


def _split_sections(lines):
    """Map section name -> (start line index, [(line_no, text), ...])."""
    sections = {}
    current = None
    content = []
    start = 0
    for i, raw in enumerate(lines):
        text = raw.strip()
        if not text:
            continue
        if text.startswith("$End"):
            name = text[4:]
            if current != name:
                raise MshParseError(f"unexpected $End{name}", line=i + 1)
            sections[current] = (start, content)
            current, content = None, []
        elif text.startswith("$"):
            if current is not None:
                raise MshParseError(f"section {current} not closed", line=i + 1)
            current = text[1:]
            start = i
            content = []
        elif current is not None:
            content.append((i + 1, text))
    if current is not None:
        raise MshParseError(f"section {current} not closed", line=len(lines))
    return sections
