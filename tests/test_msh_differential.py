"""``gmsh_io.read_gmsh`` against the line-by-line reader it replaced.

Random small meshes (sparse unordered node ids, some beyond int64;
element types 1, 2, 8, 9 and the unsupported 15; zero to three tags;
elements of the other dimension) get at most one token mutated.  Both
readers must build the same level-0 records, or raise the same error
with the same line, and both must log the same messages.  The two
refusals the line reader lacked, a second ``$MeshFormat``, ``$Nodes`` or
``$Elements`` section and a negative tag count, are the only allowed
difference; ``test_io.py`` pins each of them.
"""

import logging
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import msh_line_reader
from netmesh import GridConfig, gmsh_io
from netmesh.errors import MshParseError
from rows import rows

NODE_IDS = st.integers(-3, 15) | st.sampled_from([2**63 - 1, 10**20])
COORDS = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-300, 0.1])
TYPES = {1: 2, 2: 3, 8: 3, 9: 6, 15: 1}  # element type -> node count; 15 is unsupported
TOKENS = ["-1", "0", "1", "2", "3", "8", "9", "15", "x", "1.5", "nan", "inf", "-1e999", "10" * 10,
          "007", "1_0", "$Nodes", "$Elements", "$EndElements"]


@st.composite
def msh_texts(draw):
    """(MSH text, GridConfig) of a small mesh with at most one token changed."""
    dim = draw(st.sampled_from([1, 2]))
    config = GridConfig(dim, draw(st.integers(dim, 3)))
    ids = draw(st.lists(NODE_IDS, min_size=3, max_size=8, unique=True))
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(ids))]
    for nid in ids:
        x, y, z = draw(st.tuples(COORDS, COORDS, COORDS))
        lines.append(f"{nid} {x!r} {y!r} {z!r}")
    lines += ["$EndNodes", "$Elements"]
    nodes_at = range(5, len(lines) - 2)
    # mostly elements of the grid's dimension, with distinct nodes
    own = [1, 8] if dim == 1 else [2, 9]
    elements = []
    for number in range(1, draw(st.integers(1, 6)) + 1):
        etype = draw(st.sampled_from(own + own + sorted(TYPES)))
        tags = draw(st.lists(st.integers(0, 9), max_size=3))
        k = TYPES[etype]
        distinct = len(ids) >= k and draw(st.integers(0, 9)) > 0
        nodes = draw(st.lists(st.sampled_from(ids), min_size=k, max_size=k, unique=distinct))
        elements.append(" ".join(map(str, [number, etype, len(tags), *tags, *nodes])))
    lines += [str(len(elements)), *elements, "$EndElements"]
    elements_at = range(len(lines) - 1 - len(elements), len(lines) - 1)
    if draw(st.booleans()):
        lines += ["$NodeData", "1", "$EndNodeData", "", "$NodeData", "2", "$EndNodeData"]
    op = draw(st.sampled_from(["none", "replace", "replace", "insert", "delete"]))
    if op != "none":
        # mostly a node or element line
        row = draw(st.sampled_from(elements_at) | st.sampled_from(nodes_at)
                   | st.integers(0, len(lines) - 1))
        tokens = lines[row].split()
        col = draw(st.integers(0, len(tokens)))
        if op == "insert":
            tokens.insert(col, draw(st.sampled_from(TOKENS)))
        elif tokens and op == "delete":
            del tokens[col % len(tokens)]
        elif tokens:
            tokens[col % len(tokens)] = draw(st.sampled_from(TOKENS))
        lines[row] = " ".join(tokens)
    return "\n".join(lines) + "\n", config


def level0_records(grid):
    """Every field of every level-0 record, coordinates by their bits."""
    verts = [(r.coords.tobytes(), r.coords.shape, r.id, r.father, r.finer) for r in rows(grid._verts[0])]
    edges = [(r.v, r.id) for r in rows(grid._edges[0])]
    elems = [
        (r.v, r.id, r.edges, r.marker, type(r.marker), type(r.parametrization),
         None if r.parametrization is None else r.parametrization.nodes.tobytes())
        for r in grid._elems[0]
    ]
    return verts, edges, elems, grid._next_id


class Log(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelno, record.getMessage()))


def outcome(read, path, config):
    """(records or the error, logged messages, warnings) of one read."""
    log = Log()
    logger = logging.getLogger(read.__module__)
    level = logger.level
    logger.addHandler(log)
    logger.setLevel(logging.INFO)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = level0_records(read(path, config))
            except Exception as err:
                result = (type(err), str(err), getattr(err, "line", None))
    finally:
        logger.removeHandler(log)
        logger.setLevel(level)
    return result, log.messages, [str(w.message) for w in caught]


def new_refusal(result, lines):
    """Whether ``result`` is one of the two refusals the line reader lacks, at a line that earns it."""
    if not (isinstance(result, tuple) and result[0] is MshParseError and result[2] is not None):
        return False
    text = lines[result[2] - 1].strip()
    if result[1].endswith(f"duplicate {text} section"):
        return text in (line.strip() for line in lines[: result[2] - 1])
    if result[1].endswith("malformed element line"):
        try:
            return int(text.split()[2]) < 0
        except ValueError:
            return False
    return False


@pytest.fixture(scope="module")
def msh_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "mesh.msh"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(msh_texts())
# a node id beyond int64 and a curved element of each dimension
@example(("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n3\n100000000000000000000 0 0 0\n-2 1 0 0\n"
          "5 0.5 0.25 0\n$EndNodes\n$Elements\n1\n1 8 1 7 100000000000000000000 -2 5\n$EndElements\n",
          GridConfig(1, 3)))
@example(("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n6\n1 0 0 0\n2 1 0 0\n3 0 1 0\n"
          "4 0.5 0 0.1\n5 0.5 0.5 0.2\n6 0 0.5 0.1\n$EndNodes\n$Elements\n2\n"
          "1 9 0 1 2 3 4 5 6\n2 1 2 3 4 1 2\n$EndElements\n", GridConfig(2, 2)))
# a short last element line, past which no column may be read
@example(("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n2\n1 0 0 0\n2 1 0 0\n$EndNodes\n"
          "$Elements\n2\n1 1 0 1 2\n2 1\n$EndElements\n", GridConfig(1, 3)))
# the rules of one line in their order: token count before conversion,
# finiteness before a repeated id, node count before an unknown node
@example(("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n2\n1 0 0 0\n2 x 0\n$EndNodes\n"
          "$Elements\n1\n1 1 0 1 2\n$EndElements\n", GridConfig(1, 3)))
@example(("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n2\n1 0 0 0\n1 nan 0 0\n$EndNodes\n"
          "$Elements\n1\n1 1 0 1 1\n$EndElements\n", GridConfig(1, 3)))
@example(("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n2\n1 0 0 0\n2 1 0 0\n$EndNodes\n"
          "$Elements\n1\n1 1 0 9\n$EndElements\n", GridConfig(1, 3)))
def test_same_records_error_and_log_as_the_line_reader(msh_path, case):
    text, config = case
    msh_path.write_text(text)
    new = outcome(gmsh_io.read_gmsh, msh_path, config)
    if new_refusal(new[0], text.splitlines()):
        return
    assert new == outcome(msh_line_reader.read_gmsh, msh_path, config)
