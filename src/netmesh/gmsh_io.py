"""Reader for Gmsh MSH 2.2 ASCII files.

Supported element types: 1 (2-node line), 2 (3-node triangle),
8 (3-node second-order line) and 9 (6-node second-order triangle).
Second-order elements become affine elements over their corner nodes
plus a quadratic Lagrange parametrization through all nodes.  Elements
whose dimension does not match the grid dimension are ignored; other
element types are skipped with a warning.  Node ids may be sparse and
unordered.  An element line is ``id type n_tags tag... node...``: its id
is not read, a negative tag count is refused as a malformed line, and
the first physical tag is retained as the element's insertion marker.
A file holds one ``$MeshFormat``, ``$Nodes`` and ``$Elements`` section
each; a second one is refused at its header.  Other sections may repeat
and are ignored.  Lines are numbered by ``\\n`` alone.

Each section is read in one loop over its lines, which checks each rule
once and refuses the first line that breaks one, naming that line.  The
elements enter the factory in one ``insert_elements`` call, with a
marker and a parametrization per row.
"""

from __future__ import annotations

import logging
import math
from itertools import count
from pathlib import Path

import numpy as np

from .errors import MshParseError, undecodable_line
from .parametrization import QuadraticLine, QuadraticTriangle
from .topology import GridFactory, LINE, TRIANGLE

logger = logging.getLogger(__name__)

# element type -> (kind, node count, parametrization class or None);
# gmsh orders type-9 nodes (0,1,2, edge01, edge12, edge02)
_ELEMENT_TYPES = {
    1: (LINE, 2, None),
    2: (TRIANGLE, 3, None),
    8: (LINE, 3, QuadraticLine),
    9: (TRIANGLE, 6, QuadraticTriangle),
}
_SINGLE_SECTIONS = ("MeshFormat", "Nodes", "Elements")


def read_gmsh(path, config):
    """Read ``path`` into a new grid; returns the grid.

    ``config`` (a ``GridConfig``) fixes grid and world dimension; coordinates
    beyond the world dimension are discarded (the usual case is w=2 dropping z).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        line = undecodable_line(err)
        raise MshParseError(f"not UTF-8 text ({err.reason} at byte {err.start})", line=line)
    sections = _split_sections(text.removesuffix("\n").split("\n"))

    if "MeshFormat" not in sections:
        raise MshParseError("missing $MeshFormat section")
    start, numbers, texts = sections["MeshFormat"]
    if not texts:
        raise MshParseError("empty $MeshFormat section", line=start + 1)
    fmt_no = numbers[0]
    parts = texts[0].split()
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
    coords, row_of = _read_nodes(*sections["Nodes"], config.world_dim)
    corner_rows, parametrizations, markers = _read_elements(
        *sections["Elements"], row_of, coords, config.dim
    )

    # only corner nodes become vertices, in order of first use; mid-edge
    # nodes shape the parametrization
    vertex_of = dict(zip(dict.fromkeys(corner_rows), count()))
    factory = GridFactory(config)
    factory.insert_vertices(coords[list(vertex_of)])
    factory.insert_elements(
        LINE if config.dim == 1 else TRIANGLE,
        np.reshape(list(map(vertex_of.__getitem__, corner_rows)), (-1, config.dim + 1)),
        parametrization=parametrizations,
        marker=markers,
    )
    return factory.create_grid()


def _read_nodes(start, numbers, texts, w):
    """The ``(n, w)`` coordinates of the nodes in file order, cut or padded
    with zeros to the world dimension ``w``, and a map from each node id
    to its row."""
    _count(start, numbers, texts, "node")
    points, row_of = [], {}
    for line_no, text in zip(numbers[1:], texts[1:]):
        parts = text.split()
        if len(parts) != 4:
            raise MshParseError("node line needs 'id x y z'", line=line_no)
        try:
            nid = int(parts[0])
            xyz = [float(parts[1]), float(parts[2]), float(parts[3])]
        except ValueError:
            raise MshParseError("malformed node line", line=line_no)
        if not all(map(math.isfinite, xyz)):
            raise MshParseError(f"node {nid} has a non-finite coordinate", line=line_no)
        if nid in row_of:
            raise MshParseError(f"duplicate node id {nid}", line=line_no)
        row_of[nid] = len(row_of)
        points += xyz
    coords = np.zeros((len(row_of), w))
    coords[:, : min(w, 3)] = np.reshape(points, (-1, 3))[:, : min(w, 3)]
    return coords, row_of


def _read_elements(start, numbers, texts, row_of, coords, dim):
    """The elements of dimension ``dim`` in file order: the node rows of
    their corners, one element after the other, and the parametrization
    (over the rows of ``coords``) and marker of each."""
    n = _count(start, numbers, texts, "element")
    corner_rows, parametrizations, markers = [], [], []
    skipped = 0
    for line_no, text in zip(numbers[1:], texts[1:]):
        parts = text.split()
        if len(parts) < 3:
            raise MshParseError("element line too short", line=line_no)
        try:
            etype, n_tags, *rest = map(int, parts[1:])
        except ValueError:
            raise MshParseError("malformed element line", line=line_no)
        if n_tags < 0:
            raise MshParseError("malformed element line", line=line_no)
        if etype not in _ELEMENT_TYPES:
            logger.warning("skipping unsupported element type %d (line %d)", etype, line_no)
            skipped += 1
            continue
        kind, n_nodes, parametrization = _ELEMENT_TYPES[etype]
        nodes = rest[n_tags:]
        if len(nodes) != n_nodes:
            raise MshParseError(f"type {etype} needs {n_nodes} nodes, got {len(nodes)}", line=line_no)
        if kind.dim != dim:
            continue
        try:
            rows = list(map(row_of.__getitem__, nodes))
        except KeyError as err:
            raise MshParseError(f"element references unknown node {err.args[0]}", line=line_no)
        corner_rows += rows[: dim + 1]
        parametrizations.append(parametrization(coords[rows]) if parametrization else None)
        markers.append(rest[0] if n_tags else None)
    if not markers:
        raise MshParseError(f"no dimension-{dim} elements in file")
    logger.info(
        "read %d elements (%d other-dimensional ignored, %d unsupported skipped)",
        len(markers), n - len(markers) - skipped, skipped,
    )
    return corner_rows, parametrizations, markers


def _count(start, numbers, texts, what):
    """The count on the first line of a node or element section, checked
    against the number of lines after it."""
    if not texts:
        raise MshParseError(f"malformed {what} count", line=start + 1)
    try:
        n = int(texts[0])
    except ValueError:
        raise MshParseError(f"malformed {what} count", line=numbers[0])
    if len(texts) - 1 != n:
        raise MshParseError(f"expected {n} {what} lines, found {len(texts) - 1}", line=numbers[0])
    return n


def _split_sections(lines):
    """Map section name -> (header line index, line numbers, stripped texts)
    of the section's non-blank lines."""
    texts = list(map(str.strip, lines))
    sections = {}
    current = None
    for i in [i for i, text in enumerate(texts) if text.startswith("$")]:
        text = texts[i]
        if text.startswith("$End"):
            name = text[4:]
            if current != name:
                raise MshParseError(f"unexpected $End{name}", line=i + 1)
            body = texts[start + 1 : i]
            numbers = range(start + 2, i + 1)
            if not all(body):  # a blank line is skipped, but it still counts as a line
                numbers = [k for k, text in zip(numbers, body) if text]
                body = list(filter(None, body))
            sections[current] = (start, numbers, body)
            current = None
        else:
            if current is not None:
                raise MshParseError(f"section {current} not closed", line=i + 1)
            current = text[1:]
            if current in _SINGLE_SECTIONS and current in sections:
                raise MshParseError(f"duplicate ${current} section", line=i + 1)
            start = i
    if current is not None:
        raise MshParseError(f"section {current} not closed", line=len(lines))
    return sections
