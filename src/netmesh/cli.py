"""Batch command line: mesh inspection, refinement, and the two demo solvers.

Subcommands: ``info`` (entity counts, junction census), ``refine``
(uniform refinement with optional builtin parametrization, VTK output),
``flow`` (vessel network pressure + adaptive transport), ``roots``
(root water uptake with random growth).  Errors leave a single
``category: message`` line on stderr and a nonzero exit code; all
outputs are byte-reproducible for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import Counter

import numpy as np

from .errors import MeshError, MshParseError, ScenarioError
from .gmsh_io import read_gmsh
from .intersections import intersections
from .parametrization import BUILTIN_PARAMETRIZATIONS, WaveletGraph, lift_to_wavelet
from .scenario import Scenario
from .topology import TRIANGLE, GridConfig, GridFactory
from .vtk_io import write_vtk

log = logging.getLogger(__name__)


def _load_mesh(path):
    """Read an MSH file, trying surface (d=2) then network (d=1) elements."""
    first_error = None
    for dim in (2, 1):
        try:
            return read_gmsh(path, GridConfig(dim, 3))
        except MshParseError as err:
            if "no dimension" in str(err):
                first_error = first_error or err
                continue
            raise
    raise first_error


def cmd_info(mesh_path):
    """Entity counts, junction census and boundary facet count of a mesh."""
    grid = _load_mesh(mesh_path)
    view = grid.leaf_view()
    lines = [
        f"mesh: {mesh_path}",
        f"grid dimension: {grid.dim} (embedded in R^{grid.world_dim})",
        f"elements: {view.size(0)}",
    ]
    if grid.dim == 2:
        lines.append(f"edges: {view.size(1)}")
    lines.append(f"vertices: {view.size(grid.dim)}")

    boundary = 0
    junction_multiplicity = Counter()  # facet key -> number of sharing elements
    seen = set()
    for el in view.elements():
        for grp in intersections(view, el):
            facet = el.sub_entity(1, grp.index_in_inside)
            key = facet.id
            if grp.boundary:
                boundary += 1
                continue
            if key in seen:
                continue
            seen.add(key)
            junction_multiplicity[key] = grp.neighbor_count + 1
    junctions = {k: m for k, m in junction_multiplicity.items() if m >= 3}
    lines.append(f"boundary facets: {boundary}")
    lines.append(f"junction facets (3 or more incident elements): {len(junctions)}")
    for mult, count in sorted(Counter(junctions.values()).items()):
        lines.append(f"  multiplicity {mult}: {count}")
    return "\n".join(lines)


def _wavelet_grid(grid):
    """Rebuild the macro grid with every element tied to the wavelet surface."""
    if grid.dim != 2:
        raise MeshError("the wavelet parametrization needs a surface mesh (d=2)")
    factory = GridFactory(GridConfig(2, 3))
    for rec in grid._verts[0]:
        factory.insert_vertex(lift_to_wavelet(rec.coords))
    for rec in grid._elems[0]:
        planar = [grid._verts[0][s].coords[:2] for s in rec.v]
        factory.insert_element(
            TRIANGLE, list(rec.v), parametrization=WaveletGraph(planar), marker=rec.marker
        )
    return factory.create_grid()


def cmd_refine(mesh_path, steps, parametrization, out_path):
    """Uniformly refine a mesh ``steps`` times and write the leaf grid as VTK."""
    if parametrization is not None and parametrization not in BUILTIN_PARAMETRIZATIONS:
        raise ScenarioError(
            f"unknown parametrization {parametrization!r}; "
            f"builtins: {', '.join(BUILTIN_PARAMETRIZATIONS)}"
        )
    grid = _load_mesh(mesh_path)
    if parametrization == "wavelet":
        grid = _wavelet_grid(grid)
    for _ in range(steps):
        for el in grid.leaf_view().elements():
            grid.mark(1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
    view = grid.leaf_view()
    with open(out_path, "w") as sink:
        write_vtk(view, sink, title="uniformly refined grid")
    return f"wrote {out_path}: {view.size(0)} cells, {view.size(grid.dim)} points"


def cmd_flow(scenario_path, out_dir, steps=None):
    from . import flow

    scenario = Scenario.load(scenario_path)
    summary = flow.run_scenario(scenario, out_dir, steps=steps)
    return "\n".join(summary)


def cmd_roots(scenario_path, out_dir, steps=None, seed=None):
    from . import roots

    scenario = Scenario.load(scenario_path)
    summary = roots.run_scenario(scenario, out_dir, steps=steps, seed=seed)
    return "\n".join(summary)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="netmesh",
        description="hierarchical simplicial network grids: inspect, refine, simulate",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="report entity counts and junctions of an MSH mesh")
    p.add_argument("mesh", help="Gmsh MSH 2.2 ASCII file")

    p = sub.add_parser("refine", help="uniformly refine a mesh and write VTK")
    p.add_argument("mesh", help="Gmsh MSH 2.2 ASCII file")
    p.add_argument("--steps", type=int, default=1, help="refinement rounds (default 1)")
    p.add_argument(
        "--parametrization",
        default=None,
        help=f"builtin surface to refine towards ({', '.join(BUILTIN_PARAMETRIZATIONS)})",
    )
    p.add_argument("--out", default="refined.vtk", help="output VTK path")

    p = sub.add_parser("flow", help="vessel-network pressure and adaptive transport demo")
    p.add_argument("scenario", help="key = value scenario file")
    p.add_argument("--out", default="flow_out", help="output directory")
    p.add_argument("--steps", type=int, default=None, help="override scenario step count")

    p = sub.add_parser("roots", help="root water uptake with random growth demo")
    p.add_argument("scenario", help="key = value scenario file")
    p.add_argument("--out", default="roots_out", help="output directory")
    p.add_argument("--steps", type=int, default=None, help="override scenario step count")
    p.add_argument("--seed", type=int, default=None, help="override scenario RNG seed")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if getattr(args, "steps", None) is not None and args.steps < 0:
            raise ScenarioError("--steps must be nonnegative")
        # a value that overflows numpy arithmetic ends the run here, not as a later symptom
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "info":
                print(cmd_info(args.mesh))
            elif args.command == "refine":
                print(cmd_refine(args.mesh, args.steps, args.parametrization, args.out))
            elif args.command == "flow":
                print(cmd_flow(args.scenario, args.out, steps=args.steps))
            else:
                print(cmd_roots(args.scenario, args.out, steps=args.steps, seed=args.seed))
    except FloatingPointError as err:
        print(f"scenario-error: values out of floating-point range ({err})", file=sys.stderr)
        return 3
    except MshParseError as err:
        print(f"parse-error: {err}", file=sys.stderr)
        return 2
    except ScenarioError as err:
        print(f"scenario-error: {err}", file=sys.stderr)
        return 3
    except MeshError as err:
        print(f"mesh-error: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        print(f"io-error: {err}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
