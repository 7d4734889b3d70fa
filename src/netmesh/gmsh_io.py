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
and are ignored.

Each section is read in array passes: one split per line, one pass of
Python's ``int`` or ``float`` over its tokens, and every check as a mask
over the whole section.  Only when a check fails does a loop over the
section's lines find the first bad one, so each refusal names its line.
The elements enter the factory in one ``insert_elements`` call, with a
marker and a parametrization per row.
"""

from __future__ import annotations

import logging
import math
from itertools import chain, count
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import MshParseError
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
_AFTER_ID = itemgetter(slice(1, None))


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
    xyz, row_of = _read_nodes(*sections["Nodes"])
    corners, curved, markers = _read_elements(*sections["Elements"], row_of, config.dim)

    w = config.world_dim
    padded = np.zeros((len(xyz), w))
    padded[:, : min(w, 3)] = xyz[:, : min(w, 3)]
    # only corner nodes become vertices, in order of first use; mid-edge
    # nodes shape the parametrization
    corner_rows = corners.ravel().tolist()
    vertex_of = dict(zip(dict.fromkeys(corner_rows), count()))
    parametrizations = [None] * len(corners)
    for element, parametrization, nodes in curved:
        parametrizations[element] = parametrization(padded[nodes])
    factory = GridFactory(config)
    factory.insert_vertices(padded[list(vertex_of)])
    factory.insert_elements(
        LINE if config.dim == 1 else TRIANGLE,
        np.reshape(list(map(vertex_of.__getitem__, corner_rows)), corners.shape),
        parametrization=parametrizations,
        marker=markers,
    )
    return factory.create_grid()


def _read_nodes(start, numbers, texts):
    """The ``(n, 3)`` coordinates of the nodes in file order, and a map
    from each node id to its row."""
    n = _count(start, numbers, texts, "node")
    rows = list(map(str.split, texts[1:]))
    if set(map(len, rows)) <= {4}:
        tokens = list(chain.from_iterable(rows))
        try:
            row_of = dict(zip(map(int, tokens[::4]), range(n)))
            del tokens[::4]
            xyz = np.array(list(map(float, tokens))).reshape(n, 3)
        except ValueError:
            pass
        else:
            if len(row_of) == n and np.isfinite(xyz).all():
                return xyz, row_of
    _raise_at_first_bad_node_line(numbers[1:], rows)


def _raise_at_first_bad_node_line(numbers, rows):
    seen = set()
    for line_no, parts in zip(numbers, rows):
        if len(parts) != 4:
            raise MshParseError("node line needs 'id x y z'", line=line_no)
        try:
            nid = int(parts[0])
            xyz = [float(p) for p in parts[1:]]
        except ValueError:
            raise MshParseError("malformed node line", line=line_no)
        if not all(map(math.isfinite, xyz)):
            raise MshParseError(f"node {nid} has a non-finite coordinate", line=line_no)
        if nid in seen:
            raise MshParseError(f"duplicate node id {nid}", line=line_no)
        seen.add(nid)
    raise AssertionError("a node check failed on no line")


def _read_elements(start, numbers, texts, row_of, dim):
    """The elements of dimension ``dim`` in file order: the node rows of
    their corners as an ``(m, dim + 1)`` array, (element, parametrization
    class, node rows) of each curved one, and their markers."""
    n = _count(start, numbers, texts, "element")
    numbers = numbers[1:]
    rows = list(map(str.split, texts[1:]))
    table = _element_table(rows, row_of, dim)
    if table is None:
        _raise_at_first_bad_element_line(numbers, rows, row_of, dim)
    etype, supported, n_tags, kept, first_tag, nodes, node_counts = table
    skipped = np.flatnonzero(~supported)
    for t, i in zip(etype[skipped].tolist(), skipped.tolist()):
        _warn_unsupported(t, numbers[i])
    if not len(kept):
        raise MshParseError(f"no dimension-{dim} elements in file")
    logger.info(
        "read %d elements (%d other-dimensional ignored, %d unsupported skipped)",
        len(kept), n - len(kept) - len(skipped), len(skipped),
    )
    ends = np.cumsum(node_counts)
    corners = nodes[(ends - node_counts)[:, None] + np.arange(dim + 1)]
    curved = [
        (row, _ELEMENT_TYPES[etype[kept[row]]][2], nodes[ends[row] - node_counts[row] : ends[row]])
        for row in np.flatnonzero(node_counts > dim + 1).tolist()
    ]
    markers = [
        tag if has_tags else None
        for tag, has_tags in zip(first_tag.tolist(), (n_tags[kept] > 0).tolist())
    ]
    return corners, curved, markers


def _element_table(rows, row_of, dim):
    """Per-line columns of an element section, or None when a line breaks
    a rule: each line's type, whether it is supported, and its tag count;
    the lines of the kept elements (those of dimension ``dim``), their
    first token after the tag count, the rows of all their nodes, one
    element after the other, and their node counts."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    if (lens < 3).any():
        return None
    try:
        flat = _int_array(list(map(int, chain.from_iterable(map(_AFTER_ID, rows)))))
    except ValueError:
        return None
    width = lens - 1
    first = np.cumsum(width) - width
    etype, n_tags = flat[first], flat[first + 1]
    if (n_tags < 0).any():
        return None
    need = np.zeros(len(rows), dtype=np.int64)
    kind_dim = np.zeros(len(rows), dtype=np.int64)
    for t, (kind, k, _) in _ELEMENT_TYPES.items():
        is_t = etype == t
        need[is_t] = k
        kind_dim[is_t] = kind.dim
    fits = np.maximum(width - 2 - n_tags, 0) == need
    if (~fits & (need > 0)).any():
        return None
    kept = np.flatnonzero(fits & (kind_dim == dim))
    node_counts = need[kept]
    node_first = (first + 2 + n_tags)[kept].astype(np.int64)
    starts = np.cumsum(node_counts) - node_counts
    refs = flat[np.repeat(node_first - starts, node_counts) + np.arange(node_counts.sum())]
    nodes = list(map(row_of.get, refs.tolist()))
    if None in nodes:
        return None
    first_tag = flat[first[kept] + 2]
    return etype, need > 0, n_tags, kept, first_tag, np.array(nodes, dtype=np.int64), node_counts


def _raise_at_first_bad_element_line(numbers, rows, row_of, dim):
    for line_no, parts in zip(numbers, rows):
        if len(parts) < 3:
            raise MshParseError("element line too short", line=line_no)
        try:
            etype, n_tags, *rest = map(int, parts[1:])
        except ValueError:
            raise MshParseError("malformed element line", line=line_no)
        if n_tags < 0:
            raise MshParseError("malformed element line", line=line_no)
        if etype not in _ELEMENT_TYPES:
            _warn_unsupported(etype, line_no)
            continue
        kind, n_nodes, _ = _ELEMENT_TYPES[etype]
        nodes = rest[n_tags:]
        if n_nodes != len(nodes):
            raise MshParseError(f"type {etype} needs {n_nodes} nodes, got {len(nodes)}", line=line_no)
        if kind.dim != dim:
            continue
        for node in nodes:
            if node not in row_of:
                raise MshParseError(f"element references unknown node {node}", line=line_no)
    raise AssertionError("an element check failed on no line")


def _warn_unsupported(etype, line_no):
    logger.warning("skipping unsupported element type %d (line %d)", etype, line_no)


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


def _int_array(values):
    """Python ints as an int64 array, or an object array when one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


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
