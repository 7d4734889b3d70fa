"""A mutation round: each mutant of the program must fail the tests named for it.

    python tests/mutants.py [ID ...]

A mutant is (id, file under ``src/``, old text, new text, test ids).  For
each mutant named, every one by default, the script copies ``src/`` into
a temporary directory, replaces the old text, which must occur exactly
once, by the new one, and runs the mutant's tests on that copy under the
hypothesis profile ``mutants`` of ``tests/conftest.py`` (derandomized,
no example database).  A mutant whose tests fail is killed.  The script
prints one line per mutant and exits 1 when a mutant survives or its old
text does not occur exactly once.  ``tests/test_mutants.py`` checks the
old texts on every tier-1 run, so a change to the program that moves one
shows up there first.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    (
        "edge-id-after-element",  # a batch gives a triangle the first id of its row, its new edges the rest
        "netmesh/topology.py",
        "ids[:, :-1][new])\n"
        "            edges = map(tuple, slots[sharer].tolist())\n"
        "        return self._add_elements(level, map(tuple, v.tolist()), ids[:, -1].tolist()",
        "ids[:, 1:][new])\n"
        "            edges = map(tuple, slots[sharer].tolist())\n"
        "        return self._add_elements(level, map(tuple, v.tolist()), ids[:, 0].tolist()",
        ["tests/test_append_batches.py::test_two_triangles_of_one_batch_share_a_new_edge",
         "tests/test_append_batches.py::test_a_surface_builds_as_by_rows"],
    ),
    (
        "corner-copy-by-last-user",  # refinement makes a missing corner copy at its last user
        "netmesh/adaptivity.py",
        "copies, copier = _makers(corners.ravel(), finer < 0)",
        "copies, copier = (lambda made, by: (made[::-1], len(by) - 1 - by[::-1]))("
        "*_makers(corners.ravel()[::-1], finer[::-1] < 0))",
        ["tests/test_adaptivity.py::test_the_array_pass_equals_the_per_leaf_loop"],
    ),
    (
        "finest-copy-first-occurrence",  # the leaf view keeps a vertex's first copy, not its last
        "netmesh/views.py",
        "_, last = np.unique(ids[::-1], return_index=True)\n"
        "                keep = np.sort(len(ids) - 1 - last)",
        "_, last = np.unique(ids, return_index=True)\n"
        "                keep = np.sort(last)",
        ["tests/test_view_build.py"],
    ),
    (
        "one-half-of-a-split-edge",  # compaction keeps a half of a split edge without its sibling
        "netmesh/compaction.py",
        "finer[kids[finer[kids].any(axis=1)]] = True",
        "finer[kids[finer[kids].all(axis=1)]] = True",
        ["tests/test_audit.py::test_a_vertex_only_an_edge_uses_is_referenced"],
    ),
    (
        "held-edge-as-new",  # a batch makes a second edge over a pair the level holds
        "netmesh/topology.py",
        "return first & (held < 0), sharer.reshape(keys.shape), held",
        "return first, sharer.reshape(keys.shape), held",
        ["tests/test_growth.py::test_grown_triangles_share_new_edges_and_take_the_held_ones",
         "tests/test_adaptivity.py::test_an_edge_between_midpoints_that_a_grown_triangle_made"],
    ),
    (
        "copy-off-by-one-bit",  # a refined corner copy rounds its coordinates
        "netmesh/adaptivity.py",
        "corners = verts.coords[_ints([rec.v for rec in recs], d + 1)]",
        "corners = np.nextafter(verts.coords[_ints([rec.v for rec in recs], d + 1)], -np.inf)",
        ["tests/test_topology.py::test_audit_passes_after_refinement"],
    ),
    (
        "children-inherit-no-marker",  # a child keeps no marker of its father's
        "netmesh/adaptivity.py",
        "[rec.marker for rec in recs for _ in range(2**d)],",
        "repeat(None),",
        ["tests/test_topology.py::test_markers_travel_with_elements"],
    ),
    (
        "restore-stops-at-the-father",  # the transfer looks no further up than the father
        "netmesh/flow.py",
        "            place = grid._father(*place)\n",
        "            place = None\n",
        ["tests/test_flow.py::TestArrayTransfer::test_adapt_round_with_coarsening"],
    ),
    (
        "local-to-root-one-level",  # a midpoint's chart coordinates compose only the leaf's own embedding
        "netmesh/adaptivity.py",
        "    while (father := grid._father(level, slot)) is not None:",
        "    if (father := grid._father(level, slot)) is not None:",
        ["tests/test_adaptivity.py::test_the_wavelet_square_refines_as_by_the_loop",
         "tests/test_adaptivity.py::test_parametrized_meshes_refine_as_by_the_loop"],
    ),
    (
        "negative-tag-count",  # a tag count of -1 makes the count token a node id
        "netmesh/gmsh_io.py",
        "if n_tags < 0:",
        "if n_tags < -1:",
        ["tests/test_io.py::TestMshErrorMessages::test_ends_the_cli_as_parse_error[negative_tag_count]",
         "tests/test_io.py::TestMshErrorMessages::test_message_and_line_number[negative_tag_count]"],
    ),
    (
        "second-section-taken",  # a second $Elements section replaces the first
        "netmesh/gmsh_io.py",
        "current in _SINGLE_SECTIONS and current in sections:",
        "current in _SINGLE_SECTIONS and current in ():",
        ["tests/test_io.py::TestMshErrorMessages::test_ends_the_cli_as_parse_error[second_elements_section]"],
    ),
    (
        "lines-split-at-form-feed",  # the reader ends a line at a form feed, so later lines count one more
        "netmesh/gmsh_io.py",
        'text.removesuffix("\\n").split("\\n")',
        'text.removesuffix("\\n").splitlines()',
        ["tests/test_io.py::TestMshErrorMessages::test_ends_the_cli_as_parse_error[form_feed_before_short_node_line]",
         "tests/test_io.py::TestMshErrorMessages::test_lines_are_numbered_by_newline_alone"],
    ),
    (
        "lone-cr-ends-no-line",  # an undecodable byte after lone \r line ends is put on line 1
        "netmesh/errors.py",
        'return before.count(b"\\n") + before.count(b"\\r") - before.count(b"\\r\\n") + 1',
        'return before.count(b"\\n") + 1',
        ["tests/test_io.py::TestMshErrorMessages::test_an_undecodable_byte_names_its_line[CR]"],
    ),
    (
        "surface-warnings-replayed",  # the failed surface read of a network mesh logs its warnings too
        "netmesh/cli.py",
        "        held.clear()\n",
        "",
        ["tests/test_cli.py::TestInfo::test_network_mesh_logs_each_warning_once"],
    ),
    (
        "refine-bound-excludes-its-count",  # refine refuses the step count that reaches the bound exactly
        "netmesh/cli.py",
        "<= topology.MAX_ELEMENTS:",
        "< topology.MAX_ELEMENTS:",
        ["tests/test_cli.py::TestRefine::test_the_leaf_bound_admits_exactly_its_count"],
    ),
    (
        "nul-in-a-file-name",  # an output_prefix with a NUL byte passes as a file name
        "netmesh/scenario.py",
        'lambda p: "\\0" not in p and Path(p).name == p',
        "lambda p: Path(p).name == p",
        ["tests/test_cli.py::TestErrorCategories::test_bad_flow_scenario_is_3"
         "[output_prefix-a\\x00b-output_prefix must be a file name]",
         "tests/test_cli.py::TestErrorCategories::test_bad_roots_scenario_is_3"
         "[output_prefix-a\\x00b-output_prefix must be a file name]"],
    ),
    (
        "first-problem-only",  # a scenario names only its first bad key
        "netmesh/scenario.py",
        '"; ".join(errors)',
        "errors[0]",
        ["tests/test_cli.py::TestErrorCategories::test_every_bad_key_in_one_line"],
    ),
    (
        "adapt-bound-without-fathers",  # the adapt count leaves out the father each vanishing group leaves
        "netmesh/adaptivity.py",
        '- len(vanishing) + groups, "adapt")',
        '- len(vanishing), "adapt")',
        ["tests/test_cli.py::TestErrorCategories::test_adapt_past_the_bound_is_3",
         "tests/test_adaptivity.py::test_the_adapt_bound_admits_exactly_its_count"],
    ),
    (
        "grow-bound-without-removals",  # the grow count leaves in the leaves its removals take away
        "netmesh/growth.py",
        "queue.leaves - _removed_leaves(grid) + ",
        "queue.leaves + ",
        ["tests/test_growth.py::test_the_grow_bound_admits_exactly_its_count",
         "tests/test_growth.py::test_a_father_whose_children_are_all_removed_counts_as_a_leaf"],
    ),
    (
        "census-counts-pairs",  # info counts a facet of two elements as a junction
        "netmesh/cli.py",
        "if m >= 3}",
        "if m >= 2}",
        ["tests/test_cli.py::TestInfo::test_facets_of_two_elements_are_no_junctions"],
    ),
]


def occurrences(path, old):
    """How often ``old`` occurs in ``path``: the mutant applies when once."""
    return path.read_text().count(old)


def run(mutant):
    """Apply one mutant to a copy of ``src/`` and run its tests; returns its line and whether it was killed."""
    name, file, old, new, tests = mutant
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / file
        found = occurrences(target, old)
        if found != 1:
            return f"{name}: old text found {found} times in src/{file}", False
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if result.returncode == 1:  # some test failed
        return f"{name}: killed", True
    if result.returncode == 0:
        return f"{name}: SURVIVED {' '.join(tests)}", False
    return f"{name}: tests did not run (pytest exit {result.returncode})\n{result.stdout[-2000:]}", False


def main(argv):
    known = {mutant[0]: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    ok = True
    for name in argv or list(known):
        line, killed = run(known[name])
        print(line, flush=True)
        ok &= killed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
