"""Fuzzed mesh and scenario files through ``cli.main``.

Lines of ``meshes/vessels.msh`` are mutated (a token replaced, a line
deleted or duplicated) and run through ``info`` and ``flow --steps 2``.
One or two keys of each bundled scenario are set to values from a fixed
list and run through ``flow``/``roots --steps 2``.  Warnings are errors.
Every run must end with exit 0 or a categorized error (2-5) and raise no
exception; after exit 0, ``summary.txt`` holds no nan or inf.

Not covered: the leaf bound ``topology.MAX_ELEMENTS``.  It is a constant,
not a scenario key; ``test_cli.py`` lowers it to reach it.  Root growth
is exponential, so a roots run is kept to two steps here.
"""

import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netmesh import flow, roots
from netmesh.cli import main

ROOT = Path(__file__).parent.parent
MESH_LINES = (ROOT / "meshes" / "vessels.msh").read_text().splitlines()
VALUES = ["0", "-1", "1e308", "-1e308", "1e-300", "1e-320", "nan", "inf", "-inf", "x", ""]
DEMOS = {"flow": ("vessels.txt", tuple(flow.SCENARIO)), "roots": ("roots.txt", tuple(roots.SCENARIO))}

mutations = st.lists(
    st.tuples(
        st.sampled_from(["replace", "delete", "duplicate"]),
        st.integers(0, len(MESH_LINES) - 1),
        st.integers(0, 7),
        st.sampled_from(VALUES + ["1", "2", "3", "7", "8", "9"]),
    ),
    min_size=1,
    max_size=3,
)
scenario_edits = st.sampled_from(sorted(DEMOS)).flatmap(
    lambda demo: st.tuples(
        st.just(demo),
        st.lists(
            st.tuples(st.sampled_from(DEMOS[demo][1]), st.sampled_from(VALUES)),
            min_size=1,
            max_size=2,
            unique_by=lambda kv: kv[0],
        ),
    )
)


def mutate(lines, op, row, col, value):
    """Copy of ``lines`` with one line deleted, duplicated or given ``value`` as a token."""
    lines = list(lines)
    row %= len(lines)
    if op == "delete":
        del lines[row]
    elif op == "duplicate":
        lines.insert(row, lines[row])
    else:
        tokens = lines[row].split() or [""]
        tokens[col % len(tokens)] = value
        lines[row] = " ".join(tokens)
    return lines


def scenario(out, name, edits):
    """Copy of a bundled scenario with each (key, value) of ``edits`` set."""
    keys = {key for key, _ in edits}
    lines = [
        line.replace("../meshes", str(ROOT / "meshes"))
        for line in (ROOT / "scenarios" / name).read_text().splitlines()
        if line.partition("=")[0].strip() not in keys
    ]
    path = out / "scenario.txt"
    path.write_text("\n".join(lines + [f"{key} = {value}" for key, value in edits]) + "\n")
    return path


def check_run(capsys, out, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4, 5), err
    if code != 0:
        assert err.count("\n") == 1, err
    elif argv[0] != "info":
        summary = (out / "summary.txt").read_text().lower()
        assert "nan" not in summary and "inf" not in summary


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations)
def test_mutated_mesh_ends_categorized(capsys, edits):
    lines = MESH_LINES
    for edit in edits:
        lines = mutate(lines, *edit)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        mesh = out / "mutated.msh"
        mesh.write_text("\n".join(lines) + "\n")
        check_run(capsys, out, "info", mesh)
        scen = scenario(out, "vessels.txt", [("mesh", mesh)])
        check_run(capsys, out / "flow", "flow", scen, "--out", out / "flow", "--steps", 2)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenario_edits)
def test_scenario_values_end_categorized(capsys, case):
    demo, edits = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        scen = scenario(out, DEMOS[demo][0], edits)
        check_run(capsys, out / "run", demo, scen, "--out", out / "run", "--steps", 2)
