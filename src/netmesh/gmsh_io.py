"""Reader for Gmsh MSH 2.2 ASCII files.

Supported element types: 1 (2-node line), 2 (3-node triangle),
8 (3-node second-order line) and 9 (6-node second-order triangle).
Second-order elements become affine elements over their corner nodes
plus a quadratic Lagrange parametrization through all nodes.  Elements
whose dimension does not match the grid dimension are ignored; other
element types are skipped with a warning.  Node ids may be sparse and
unordered.  The first physical tag of an element is retained as its
insertion marker.
"""

from __future__ import annotations

import logging
import math
from pathlib import Path

import numpy as np

from .errors import MshParseError
from .parametrization import QuadraticLine, QuadraticTriangle
from .topology import GridConfig, GridFactory, LINE, TRIANGLE

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

    ``config`` fixes grid and world dimension; coordinates beyond the
    world dimension are discarded (the usual case is w=2 dropping z).
    """
    if not isinstance(config, GridConfig):
        config = GridConfig(*config)
    lines = Path(path).read_text().splitlines()
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

    factory = GridFactory(config)
    w = config.world_dim
    node_index = {}

    def vertex_index(nid, line_no):
        if nid not in coords:
            raise MshParseError(f"element references unknown node {nid}", line=line_no)
        if nid not in node_index:
            node_index[nid] = factory.insert_vertex(_padded(coords[nid], w))
        return node_index[nid]

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

    read = ignored = skipped = 0
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
        idx = [vertex_index(n, line_no) for n in nodes]
        phi = None
        if parametrization is not None:
            phi = parametrization(np.stack([_padded(coords[n], w) for n in nodes]))
        factory.insert_element(
            kind, idx[: kind.dim + 1], parametrization=phi, marker=tags[0] if tags else None
        )
        read += 1

    if read == 0:
        raise MshParseError(f"no dimension-{config.dim} elements in file")
    logger.info(
        "read %d elements (%d other-dimensional ignored, %d unsupported skipped)",
        read, ignored, skipped,
    )
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
