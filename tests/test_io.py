import gc
import io
import pathlib
import weakref
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmesh import GridConfig, read_gmsh, vtk_io
from netmesh.cli import main
from netmesh.errors import MshParseError
from netmesh.vtk_io import write_vtk

from conftest import make_grid, refine_all
from gridcheck import check_grid
from transactions import FAN_TRANSACTIONS, NETWORK_TRANSACTIONS, embedded_grid, play, rounds

DATA = pathlib.Path(__file__).parent / "data"


class TestMshReading:
    def test_network_fixture_counts(self):
        g = read_gmsh(DATA / "network.msh", GridConfig(1, 3))
        view = g.leaf_view()
        assert view.size(0) == 3
        assert view.size(1) == 4

    def test_first_tag_becomes_marker(self):
        g = read_gmsh(DATA / "network.msh", GridConfig(1, 3))
        markers = sorted(el.marker for el in g.leaf_view().elements())
        assert markers == [5, 6, 6]

    def test_surface_fixture_counts(self):
        g = read_gmsh(DATA / "surface.msh", GridConfig(2, 3))
        view = g.leaf_view()
        # the type-1 line in the file has lower dimension and is ignored
        assert view.size(0) == 3
        assert view.size(2) == 5

    def test_world_dim_two_truncates_padding_zeros(self):
        g = read_gmsh(DATA / "network.msh", GridConfig(1, 2))
        coords = sorted(tuple(v.coords) for v in g.leaf_view().vertices())
        assert coords[0] == (0.0, 0.0)
        assert all(len(c) == 2 for c in coords)

    def test_quadratic_line_curves_refined_midpoint(self):
        g = read_gmsh(DATA / "quadratic_line.msh", GridConfig(1, 3))
        view = g.leaf_view()
        assert view.size(0) == 1
        # corners are the affine ends; the curve passes through the mid node
        refine_all(g)
        coords = {tuple(np.round(v.coords, 12)) for v in g.leaf_view().vertices()}
        assert (0.5, 0.2, 0.0) in coords

    def test_quadratic_triangle_midedge_nodes(self):
        g = read_gmsh(DATA / "quadratic_surface.msh", GridConfig(2, 3))
        refine_all(g)
        coords = {tuple(np.round(v.coords, 12)) for v in g.leaf_view().vertices()}
        # refinement places the new vertices on the interpolated surface
        assert (0.5, 0.0, 0.1) in coords
        assert (0.5, 0.5, 0.2) in coords
        assert (0.0, 0.5, 0.1) in coords

    @pytest.mark.parametrize("name,dim", [("quadratic_line.msh", 1), ("quadratic_surface.msh", 2)])
    def test_quadratic_mesh_keeps_only_corner_vertices(self, name, dim):
        # mid-edge nodes shape the parametrization and take no vertex or id
        g = read_gmsh(DATA / name, GridConfig(dim, 3))
        check_grid(g)
        assert len(g._verts[0]) == g.leaf_view().size(dim)

    def test_missing_file_raises_oserror(self):
        with pytest.raises(OSError):
            read_gmsh(DATA / "no_such.msh", GridConfig(1, 3))


class TestMshErrors:
    def write(self, tmp_path, text):
        p = tmp_path / "bad.msh"
        p.write_text(text)
        return p

    def test_binary_format_rejected(self, tmp_path):
        p = self.write(tmp_path, "$MeshFormat\n2.2 1 8\n$EndMeshFormat\n")
        with pytest.raises(MshParseError, match="binary"):
            read_gmsh(p, GridConfig(1, 3))

    def test_msh4_rejected(self, tmp_path):
        p = self.write(tmp_path, "$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        with pytest.raises(MshParseError):
            read_gmsh(p, GridConfig(1, 3))

    def test_empty_file(self, tmp_path):
        p = self.write(tmp_path, "")
        with pytest.raises(MshParseError):
            read_gmsh(p, GridConfig(1, 3))

    def test_duplicate_node_id(self, tmp_path):
        p = self.write(
            tmp_path,
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n2\n1 0 0 0\n1 1 0 0\n$EndNodes\n"
            "$Elements\n1\n1 1 2 0 0 1 1\n$EndElements\n",
        )
        with pytest.raises(MshParseError, match="duplicate"):
            read_gmsh(p, GridConfig(1, 3))

    def test_node_count_mismatch(self, tmp_path):
        p = self.write(
            tmp_path,
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n3\n1 0 0 0\n2 1 0 0\n$EndNodes\n"
            "$Elements\n1\n1 1 2 0 0 1 2\n$EndElements\n",
        )
        with pytest.raises(MshParseError):
            read_gmsh(p, GridConfig(1, 3))

    def test_error_reports_line_number(self, tmp_path):
        p = self.write(
            tmp_path,
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n1\n1 zero 0 0\n$EndNodes\n"
            "$Elements\n0\n$EndElements\n",
        )
        with pytest.raises(MshParseError) as err:
            read_gmsh(p, GridConfig(1, 3))
        assert err.value.line == 6
        assert "line 6" in str(err.value)

    def test_unknown_mid_edge_node(self, tmp_path):
        # the mid-edge node takes no vertex, but it must still exist
        p = self.write(
            tmp_path,
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n2\n1 0 0 0\n2 1 0 0\n$EndNodes\n"
            "$Elements\n1\n1 8 2 0 0 1 2 3\n$EndElements\n",
        )
        with pytest.raises(MshParseError, match="unknown node 3") as err:
            read_gmsh(p, GridConfig(1, 3))
        assert err.value.line == 11

    def test_no_elements_of_grid_dimension(self, tmp_path):
        p = self.write(
            tmp_path,
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n2\n1 0 0 0\n2 1 0 0\n$EndNodes\n"
            "$Elements\n1\n1 1 2 0 0 1 2\n$EndElements\n",
        )
        with pytest.raises(MshParseError, match="no dimension-2"):
            read_gmsh(p, GridConfig(2, 3))

    def test_unsupported_element_type_warns_and_skips(self, tmp_path, caplog):
        p = self.write(
            tmp_path,
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 2 0 0\n$EndNodes\n"
            # type 26 (cubic line) is recognised as 1d but unsupported
            "$Elements\n2\n1 1 2 0 0 1 2\n2 26 2 0 0 1 2 3 3\n$EndElements\n",
        )
        import logging

        with caplog.at_level(logging.WARNING):
            g = read_gmsh(p, GridConfig(1, 3))
        assert g.leaf_view().size(0) == 1
        assert any("type 26" in rec.message for rec in caplog.records)


HEADER = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"  # lines 1-3
NODES = "$Nodes\n2\n1 0 0 0\n2 1 0 0\n$EndNodes\n"  # lines 4-8
ELEMENTS = "$Elements\n1\n1 1 2 0 0 1 2\n$EndElements\n"  # lines 9-12

# a broken MSH text -> (the line it names or None, the message)
BROKEN_MSH = {
    "short_format_line": ("$MeshFormat\n2.2 0\n$EndMeshFormat\n" + NODES + ELEMENTS,
                          2, "malformed $MeshFormat line"),
    "no_elements_section": (HEADER + NODES, None, "missing $Elements section"),
    "empty_nodes": (HEADER + "$Nodes\n$EndNodes\n" + ELEMENTS, 4, "malformed node count"),
    "empty_elements": (HEADER + NODES + "$Elements\n$EndElements\n", 9, "malformed element count"),
    "short_node_line": (HEADER + "$Nodes\n2\n1 0 0 0\n2 1 0\n$EndNodes\n" + ELEMENTS,
                        7, "node line needs 'id x y z'"),
    "short_element_line": (HEADER + NODES + "$Elements\n1\n1 1\n$EndElements\n",
                           11, "element line too short"),
    # a blank line is skipped, but it still counts as a line
    "blank_line_in_section": (HEADER + "$Nodes\n2\n\n1 0 0 0\n2 1 0\n$EndNodes\n" + ELEMENTS,
                              8, "node line needs 'id x y z'"),
    # cli tries the surface, then the network, and reports the first failure
    "no_elements_at_all": (HEADER + NODES + "$Elements\n0\n$EndElements\n",
                           None, "no dimension-2 elements in file"),
    # a negative tag count would make the tag-count token a node id
    "negative_tag_count": (HEADER + NODES + "$Elements\n1\n1 1 -1 2\n$EndElements\n",
                           11, "malformed element line"),
    # a second section would replace the first one's nodes or elements
    "second_format_section": (HEADER + HEADER + NODES + ELEMENTS, 4, "duplicate $MeshFormat section"),
    "second_nodes_section": (HEADER + NODES + "$Nodes\n2\n1 0 0 0\n2 0 1 0\n$EndNodes\n" + ELEMENTS,
                             9, "duplicate $Nodes section"),
    "second_elements_section": (HEADER + NODES + ELEMENTS + ELEMENTS, 13, "duplicate $Elements section"),
}


# str.splitlines() also breaks at each of these; a line ends at \n alone
NOT_NEWLINES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestMshErrorMessages:
    @pytest.fixture(params=list(BROKEN_MSH))
    def broken(self, request, tmp_path):
        """(path, line, the whole message) of one broken file."""
        text, line, message = BROKEN_MSH[request.param]
        path = tmp_path / "bad.msh"
        path.write_text(text)
        return path, line, message if line is None else f"line {line}: {message}"

    def test_message_and_line_number(self, broken):
        path, line, message = broken
        with pytest.raises(MshParseError) as err:
            read_gmsh(path, GridConfig(2, 3))  # what the cli tries first
        assert (str(err.value), err.value.line) == (message, line)

    def test_ends_the_cli_as_parse_error(self, broken, capsys):
        path, _, message = broken
        assert main(["info", str(path)]) == 2
        assert capsys.readouterr() == ("", f"parse-error: {message}\n")

    @pytest.mark.parametrize("char", NOT_NEWLINES, ids=lambda c: f"U+{ord(c):04X}")
    def test_lines_are_numbered_by_newline_alone(self, tmp_path, char):
        path = tmp_path / "bad.msh"
        path.write_text(HEADER + f"$Nodes\n2\n1 0 0 0{char}\n2 1 0\n$EndNodes\n" + ELEMENTS,
                        encoding="utf-8")
        with pytest.raises(MshParseError) as err:
            read_gmsh(path, GridConfig(1, 3))
        assert (str(err.value), err.value.line) == ("line 7: node line needs 'id x y z'", 7)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_an_undecodable_byte_names_its_line(self, tmp_path, end):
        """A lone \\r ends a line in the count as it does in ``read_text``."""
        head = end.join(["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", ""]).encode()
        path = tmp_path / "bad.msh"
        path.write_bytes(head + b"\377" + end.encode())
        with pytest.raises(MshParseError) as err:
            read_gmsh(path, GridConfig(1, 3))
        message = f"line 5: not UTF-8 text (invalid start byte at byte {len(head)})"
        assert (str(err.value), err.value.line) == (message, 5)

    def test_other_sections_may_repeat(self, tmp_path):
        path = tmp_path / "data.msh"
        data = "$NodeData\n1\n$EndNodeData\n"
        path.write_text(HEADER + data + NODES + data + ELEMENTS + data)
        view = read_gmsh(path, GridConfig(1, 3)).leaf_view()
        assert view.coordinates().tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]

    def test_blank_lines_inside_sections_are_skipped(self, tmp_path):
        path = tmp_path / "blank.msh"
        path.write_text(HEADER + "$Nodes\n\n2\n1 0 0 0\n\n2 1 0 0\n$EndNodes\n"
                        "$Elements\n1\n\n1 1 2 0 0 1 2\n\n$EndElements\n")
        view = read_gmsh(path, GridConfig(1, 3)).leaf_view()
        assert view.size(0) == 1
        assert view.coordinates().tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


class TestVtkWriting:
    def test_surface_golden_bytes(self, two_triangles):
        buf = io.StringIO()
        write_vtk(two_triangles.leaf_view(), buf, title="two triangles")
        expected = (DATA / "expected_surface.vtk").read_text()
        assert buf.getvalue() == expected

    def test_network_golden_bytes(self):
        g = make_grid(
            1,
            3,
            [(0, 0, 0), (1, 0, 0), (2, 1, 0.1), (2, -1, -0.1)],
            [(0, 1), (1, 2), (1, 3)],
        )
        view = g.leaf_view()
        cell = {"pressure": np.array([1.0, 1 / 3, 0.1 + 0.2])}
        point = {"height": np.array([v.coords[2] for v in view.vertices()])}
        buf = io.StringIO()
        write_vtk(view, buf, point_data=point, cell_data=cell, title="y network")
        expected = (DATA / "expected_network.vtk").read_text()
        assert buf.getvalue() == expected

    def test_coordinates_round_trip_bit_exact(self, tmp_path):
        coords = [(0.1, 0.2, 0.3), (1 / 3, 2 / 7, -1e-17), (np.pi, np.e, 2**-40)]
        g = make_grid(1, 3, coords, [(0, 1), (1, 2)])
        buf = io.StringIO()
        write_vtk(g.leaf_view(), buf)
        lines = buf.getvalue().splitlines()
        start = lines.index("POINTS 3 double") + 1
        parsed = [tuple(float(t) for t in lines[start + i].split()) for i in range(3)]
        assert parsed == [tuple(map(float, c)) for c in coords]

    def test_path_sink_holds_what_a_stream_gets(self, two_triangles, tmp_path):
        view = two_triangles.leaf_view()
        path = tmp_path / "surface.vtk"
        text = write_vtk(view, path, title="two triangles")
        assert path.read_text() == text == (DATA / "expected_surface.vtk").read_text()
        write_vtk(view, str(path), cell_data={"p": [1.0, 2.0]})  # a str path, overwritten
        assert path.read_text() == write_vtk(view, io.StringIO(), cell_data={"p": [1.0, 2.0]})

    def test_cell_data_length_must_match(self, two_triangles):
        with pytest.raises(ValueError):
            write_vtk(
                two_triangles.leaf_view(),
                io.StringIO(),
                cell_data={"p": np.array([1.0])},
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_is_refused_by_name_and_index(self, two_triangles, bad):
        with pytest.raises(ValueError, match="field 'p' has the non-finite value .* at index 1"):
            write_vtk(two_triangles.leaf_view(), io.StringIO(), cell_data={"p": np.array([1.0, bad])})

    @pytest.mark.parametrize(
        "title", ["two\nlines", "ends\n", "cr\rline", "sep\u2028line", pytest.param("x" * 257, id="257-chars")]
    )
    def test_a_title_that_breaks_the_header_is_refused_before_writing(self, two_triangles, tmp_path, title):
        view, path, buf = two_triangles.leaf_view(), tmp_path / "bad.vtk", io.StringIO()
        for sink in (path, buf):
            with pytest.raises(ValueError, match="^title .* must be one line of at most 256 characters$"):
                write_vtk(view, sink, title=title)
        assert not path.exists() and buf.getvalue() == ""

    def test_a_title_of_256_characters_is_written(self, two_triangles):
        view = two_triangles.leaf_view()
        text = write_vtk(view, io.StringIO(), title="x" * 256)
        assert text == reference_vtk(view, title="x" * 256)

    @pytest.mark.parametrize("where", ["point_data", "cell_data"])
    @pytest.mark.parametrize("name", ["", "my field", "tab\tname", "line\n", "\xa0", "a\u2028b"])
    def test_a_field_name_that_breaks_its_line_is_refused_before_writing(self, two_triangles, tmp_path, where, name):
        view, path, buf = two_triangles.leaf_view(), tmp_path / "bad.vtk", io.StringIO()
        fields = {"ok": [1.0] * view.size(0), name: [2.0] * view.size(0)}
        if where == "point_data":
            fields = {key: [1.0] * view.size(2) for key in fields}
        for sink in (path, buf):
            with pytest.raises(ValueError, match="^field name .* must be non-empty and hold no whitespace$"):
                write_vtk(view, sink, **{where: fields})
        assert not path.exists() and buf.getvalue() == ""

    def test_two_dim_world_coordinates_padded(self):
        g = make_grid(1, 2, [(0, 0), (1, 0)], [(0, 1)])
        buf = io.StringIO()
        write_vtk(g.leaf_view(), buf)
        assert "POINTS 2 double\n0 0 0\n1 0 0\n" in buf.getvalue()

    def test_nonconforming_leaf_patchwork_is_writable(self, two_triangles):
        g = two_triangles
        el = g.leaf_view().elements()[0]
        g.mark(1, el)
        g.pre_adapt(); g.adapt(); g.post_adapt()
        buf = io.StringIO()
        write_vtk(g.leaf_view(), buf)
        text = buf.getvalue()
        assert "CELLS 5 20" in text  # 4 children + 1 coarse neighbor


def _fmt(x):
    """The writer's byte rule, one value at a time: the oracle for ``write_vtk``."""
    x = float(x)
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))  # 1.0 -> "1", -0.0 -> "0"
    return repr(x)


def reference_vtk(view, point_data=None, cell_data=None, title="netmesh output"):
    """What ``write_vtk`` writes, built line by line with ``_fmt``."""
    d = view.grid.dim
    points, cells = view.coordinates().tolist(), view.corner_indices().tolist()
    lines = ["# vtk DataFile Version 2.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines += [f"POINTS {len(points)} double"] + [" ".join(map(_fmt, (p + [0.0] * 3)[:3])) for p in points]
    lines += [f"CELLS {len(cells)} {len(cells) * (d + 2)}"] + [" ".join(map(str, [d + 1] + c)) for c in cells]
    lines += [f"CELL_TYPES {len(cells)}"] + [str(3 if d == 1 else 5)] * len(cells)
    for header, fields, n in (("POINT_DATA", point_data, len(points)), ("CELL_DATA", cell_data, len(cells))):
        if fields:
            lines.append(f"{header} {n}")
            for name, values in fields.items():
                lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"] + [_fmt(v) for v in values]
    return "\n".join(lines) + "\n"


def chain(coords):
    return make_grid(1, len(coords[0]), coords, [(i, i + 1) for i in range(len(coords) - 1)])


# value -> the token written for it; integral below 1e16 drops ".0", the rest is repr
TOKENS = [
    (-0.0, "0"),
    (0.0, "0"),
    (1e16, "1e+16"),
    (9999999999999998.0, "9999999999999998"),
    (2.0**53, "9007199254740992"),
    (-(2.0**60), "-1.152921504606847e+18"),
    (5e-324, "5e-324"),
    (1e300, "1e+300"),
    (0.1, "0.1"),
    (1.5e-05, "1.5e-05"),
    (-3.0, "-3"),
    (-(2.0**52), "-4503599627370496"),
    (-9999999999999998.0, "-9999999999999998"),
    (-1e16, "-1e+16"),
]

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def chains_with_fields(draw):
    world_dim = draw(st.integers(1, 4))
    n = draw(st.integers(2, 8))
    coords = draw(st.lists(st.lists(finite, min_size=world_dim, max_size=world_dim), min_size=n, max_size=n))
    point = draw(st.lists(finite, min_size=n, max_size=n))
    cell = draw(st.lists(finite, min_size=n - 1, max_size=n - 1))
    return coords, point, cell


class TestVtkByteRule:
    @settings(max_examples=150, deadline=None)
    @given(chains_with_fields())
    def test_every_section_follows_the_per_value_rule(self, case):
        coords, point, cell = case
        view = chain(coords).leaf_view()
        fields = {"point_data": {"u": point}, "cell_data": {"p": cell, "q": np.array(cell)}}
        buf = io.StringIO()
        text = write_vtk(view, buf, **fields)
        assert text == buf.getvalue() == reference_vtk(view, **fields)

    @pytest.mark.parametrize("value,token", TOKENS)
    def test_token_of_each_edge_value(self, value, token):
        view = chain([(value, 0.0, 1.0), (2.0, value, 0.5)]).leaf_view()
        text = write_vtk(view, io.StringIO(), cell_data={"p": np.array([value])})
        assert f"POINTS 2 double\n{token} 0 1\n2 {token} 0.5\nCELLS" in text
        assert text.endswith(f"LOOKUP_TABLE default\n{token}\n")
        assert text == reference_vtk(view, cell_data={"p": [value]})

    def test_int_bool_and_numpy_int_field_values(self):
        view = chain([(0.0,), (1.0,), (2.0,), (3.0,)]).leaf_view()
        values = [-7, True, np.int64(3)]
        text = write_vtk(view, io.StringIO(), cell_data={"p": values, "q": np.array([2**60, 0, -1])})
        assert "LOOKUP_TABLE default\n-7\n1\n3\nSCALARS q" in text
        assert text.endswith("LOOKUP_TABLE default\n1.152921504606847e+18\n0\n-1\n")
        assert text == reference_vtk(view, cell_data={"p": values, "q": [2**60, 0, -1]})

    @pytest.mark.parametrize("world_dim", [1, 2, 3, 4])
    def test_points_are_padded_or_cut_to_three_components(self, world_dim):
        coords = [[-0.0, 1.5, -2.0, 7.0][:world_dim], [3.0, -0.25, 0.1, 8.0][:world_dim]]
        view = chain(coords).leaf_view()
        point = {"h": view.coordinates()[:, 0]}
        text = write_vtk(view, io.StringIO(), point_data=point)
        rows = {1: ["0 0 0", "3 0 0"], 2: ["0 1.5 0", "3 -0.25 0"]}.get(world_dim, ["0 1.5 -2", "3 -0.25 0.1"])
        assert f"POINTS 2 double\n{rows[0]}\n{rows[1]}\nCELLS" in text
        assert text.endswith("POINT_DATA 2\nSCALARS h double 1\nLOOKUP_TABLE default\n0\n3\n")
        assert text == reference_vtk(view, point_data=point)

    def test_empty_field_sets_write_no_data_section(self, two_triangles):
        view = two_triangles.leaf_view()
        bare = write_vtk(view, io.StringIO())
        assert write_vtk(view, io.StringIO(), point_data={}, cell_data={}) == bare == reference_vtk(view)
        assert "_DATA" not in bare

    @pytest.mark.parametrize("bad", ["2", None, 1j])
    def test_value_that_is_not_a_real_number_is_refused(self, two_triangles, bad):
        with pytest.raises(TypeError):
            write_vtk(two_triangles.leaf_view(), io.StringIO(), cell_data={"p": [1.0, bad]})


class TestPointLinesOfTheLastWrite:
    """``write_vtk`` keeps, per grid, the ``POINTS`` lines of the last view it
    wrote by vertex id, and formats only the vertices that view lacked."""

    @staticmethod
    def _write_leaf_and_level_view(grid, seed):
        for view in (grid.leaf_view(), grid.level_view(seed % (grid.max_level + 1))):
            assert write_vtk(view, io.StringIO()) == reference_vtk(view)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), rounds(FAN_TRANSACTIONS), rounds(NETWORK_TRANSACTIONS))
    def test_interleaved_grids_write_the_reference_after_every_round(self, world_dim, fan_rounds, y_rounds):
        """Two grids whose vertex ids overlap, written in turn: a line kept by
        view index, or for another grid, would land on the wrong vertex."""
        fan, y = embedded_grid("fan", max(world_dim, 2)), embedded_grid("y", world_dim)
        self._write_leaf_and_level_view(fan, 0)
        self._write_leaf_and_level_view(y, 0)
        for turn in zip_longest(fan_rounds, y_rounds):
            for grid, transaction in zip((fan, y), turn):
                if transaction:
                    play(grid, *transaction)
                    self._write_leaf_and_level_view(grid, transaction[1])

    def test_the_lines_go_with_their_grid(self):
        grid = chain([(0.5, 1.0), (2.0, 0.25)])
        write_vtk(grid.leaf_view(), io.StringIO())
        assert [ref() for ref in vtk_io._point_lines.keyrefs()].count(grid) == 1
        dropped = weakref.ref(grid)
        del grid
        gc.collect()
        assert dropped() is None
        assert all(ref() is not None for ref in vtk_io._point_lines.keyrefs())
