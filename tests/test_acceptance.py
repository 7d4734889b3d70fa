"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` or
``-rA`` to see them).  Reference values come from dense solves, closed
formulas and golden files computed independently of the code under test.
"""

import contextlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_grid, refine_all
from gridcheck import check_grid
from netmesh import (
    LINE,
    TRIANGLE,
    GridConfig,
    GridFactory,
    intersections,
    pairwise_intersections,
    read_gmsh,
)
from netmesh.flow import (
    FlowState,
    VesselProblem,
    adapt_with_state,
    junction_two_point_transmissibilities,
    refinement_indicator,
    restore_leaf_data,
    solve_pressure,
    store_leaf_data,
    total_amount,
    transport_step,
)
from netmesh.geometry import AffineGeometry
from netmesh.parametrization import WaveletGraph, lift_to_wavelet
from netmesh.roots import GrowthIndicator, build_vertical_root, grow_grid, indicator_evaluate
from netmesh.vtk_io import write_vtk

DATA = Path(__file__).parent / "data"


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL — {label}")
        raise
    print(f"criterion {number:2d}: PASS — {label}")


def facet_vertex_id(element, group):
    return element.sub_entity(1, group.index_in_inside).id


def chain_order(view):
    ix = view.index_set
    pairs = sorted((el.geometry.center()[0], ix.index_of(el)) for el in view.elements())
    return [i for _, i in pairs]


def test_1_red_refinement_combinatorics(single_triangle):
    with criterion(1, "red refinement: 4^6 leaves, volume preserved, under 1 s"):
        t0 = time.perf_counter()
        refine_all(single_triangle, rounds=6)
        elapsed = time.perf_counter() - t0
        view = single_triangle.leaf_view()
        assert view.size(0) == 4**6
        total = sum(el.geometry.volume() for el in view.elements())
        assert abs(total - 0.5) <= 1e-10
        assert elapsed < 1.0


def test_2_parametrized_refinement_tracks_surface():
    with criterion(2, "wavelet refinement: leaf vertices on the surface, origin exact"):
        planar = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        factory = GridFactory(GridConfig(2, 3))
        for x, y in planar:
            factory.insert_vertex(lift_to_wavelet(np.array([x, y])))
        for tri in [(0, 1, 2), (0, 2, 3)]:
            chart = [np.array(planar[i]) for i in tri]
            factory.insert_element(TRIANGLE, list(tri), parametrization=WaveletGraph(chart))
        grid = factory.create_grid()
        refine_all(grid, rounds=5)

        view = grid.leaf_view()
        origin_seen = False
        for v in view.entities(2):
            x, y, z = v.coords
            r = math.hypot(x, y)
            expected = 0.2 * math.exp(-r) * math.cos(4.5 * math.pi * r)
            assert abs(z - expected) <= 1e-12
            if x == 0.0 and y == 0.0:
                origin_seen = True
                assert z == 0.2  # exp(0) * cos(0) scaled: bit-exact
        assert origin_seen


def test_3_non_manifold_intersections(t_junction, y_junction):
    with criterion(3, "T- and Y-junction: two neighbors each, grouped consecutively"):
        for grid in (t_junction, y_junction):
            view = grid.leaf_view()
            junction_hits = 0
            for el in view.elements():
                for grp in intersections(view, el):
                    if grp.boundary:
                        assert grp.neighbor_count == 0
                    elif grp.neighbor_count == 2:
                        junction_hits += 1
            assert junction_hits == 3  # each of the three members sees the other two

            for el in view.elements():
                seen_facets = []
                for pair in pairwise_intersections(view, el):
                    seen_facets.append(pair.index_in_inside)
                # all pairs of one facet come as one consecutive run
                runs = [f for i, f in enumerate(seen_facets) if i == 0 or f != seen_facets[i - 1]]
                assert len(runs) == len(set(runs))


def test_4_projection_and_round_trip():
    with criterion(4, "1000 random projections: orthogonal residuals, exact round-trip"):
        rng = np.random.default_rng(421)
        checked = 0
        while checked < 1000:
            k = 1 + (checked % 2)
            corners = rng.uniform(-1.0, 1.0, size=(k + 1, 3))
            geo = AffineGeometry(corners)
            if geo.is_degenerate() or geo.volume() < 1e-3:
                continue
            checked += 1

            point = rng.uniform(-2.0, 2.0, size=3)
            xi = geo.to_local(point)
            residual = point - geo.to_global(xi)
            tangents = geo.jacobian_transposed()  # (k, w) rows span the element
            assert np.max(np.abs(tangents @ residual)) <= 1e-10

            local = rng.uniform(0.0, 1.0, size=k)
            if k == 2 and local.sum() > 1.0:
                local = 1.0 - local  # fold into the reference triangle
            back = geo.to_local(geo.to_global(local))
            assert np.max(np.abs(back - local)) <= 1e-12


def test_5_index_and_id_contracts():
    with criterion(5, "20 random adapt/grow transactions: indices, ids, data intact"):
        rng = np.random.default_rng(20240817)
        grid, collar = build_vertical_root(6, 0.1)
        view = grid.leaf_view()
        ix = view.index_set
        v = np.zeros(view.size(0))
        for el in view.elements():
            v[ix.index_of(el)] = float(el.id)

        for txn in range(20):
            view = grid.leaf_view()
            ix = view.index_set
            payload_before = {el.id: v[ix.index_of(el)] for el in view.elements()}
            centers_before = {el.id: tuple(el.geometry.center()) for el in view.elements()}
            verts_before = {w.id: tuple(w.coords) for w in view.entities(1)}

            n = view.size(0)
            kind = rng.choice(["refine", "coarsen", "grow", "remove"])
            if kind == "refine" and n > 120:
                kind = "coarsen"

            if kind in ("refine", "coarsen"):
                sign = 1 if kind == "refine" else -1
                for el in view.elements():
                    if rng.random() < 0.4:
                        grid.mark(sign, el)
                grid.pre_adapt()
                store = store_leaf_data(grid, view, {"v": v})
                grid.adapt()
                mid_view = grid.leaf_view()
                v = restore_leaf_data(mid_view, store, ("v",))["v"]
                grid.post_adapt()
            elif kind == "grow":
                ind = GrowthIndicator(
                    seed=1000 + txn,
                    branch_probability=0.5,
                    elongation_probability=0.9,
                    segment_length=0.1,
                    anchored_ids=(collar,),
                )
                _, out = grow_grid(grid, ind, {"v": v}, step=txn)
                v = out["v"]
            else:  # remove
                if n > 4:
                    victim = view.elements()[int(rng.integers(n))]
                    dropped = victim.id
                    grid.remove_element(victim)
                    grid.grow()
                    grid.post_grow()
                    new_view = grid.leaf_view()
                    nix = new_view.index_set
                    new_v = np.zeros(new_view.size(0))
                    for el in new_view.elements():
                        new_v[nix.index_of(el)] = payload_before[el.id]
                    v = new_v

            view = grid.leaf_view()
            ix = view.index_set
            check_grid(grid)  # among much else, indices 0..n-1 per codim
            for el in view.elements():
                if el.id in centers_before:
                    assert tuple(el.geometry.center()) == centers_before[el.id]
                    assert v[ix.index_of(el)] == payload_before[el.id]
            for w in view.entities(1):
                if w.id in verts_before:
                    assert tuple(w.coords) == verts_before[w.id]

            # id-keyed snapshot of the current state restores bit-identically
            snap = store_leaf_data(grid, view, {"v": v})
            round_trip = restore_leaf_data(view, snap, ("v",))["v"]
            np.testing.assert_array_equal(round_trip, v)


def test_6_junction_flux_formula(y_junction):
    with criterion(6, "junction transmissibilities: t/3 split, pair harmonics, sum zero"):
        view = y_junction.leaf_view()
        ix = view.index_set
        t = np.full(3, 6.0)
        pairs = junction_two_point_transmissibilities(view, t)
        assert len(pairs) == 3
        for tij in pairs.values():
            assert tij == pytest.approx(2.0, rel=1e-14)  # 6*6/18 = t/3

        pair_grid = make_grid(1, 3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(0, 1), (1, 2)])
        pair_view = pair_grid.leaf_view()
        pix = pair_view.index_set
        tp = np.zeros(2)
        for el in pair_view.elements():
            tp[pix.index_of(el)] = 2.0 if el.geometry.center()[0] < 1.0 else 5.0
        ((_, _, _), tij), = junction_two_point_transmissibilities(pair_view, tp).items()
        assert tij == pytest.approx(2.0 * 5.0 / 7.0, rel=1e-14)

        # conservation at every junction of a solved, uneven network
        radius = np.zeros(3)
        for el in view.elements():
            radius[ix.index_of(el)] = 1e-3 if el.geometry.center()[1] >= 0 else 1.4e-3
        problem = VesselProblem()
        problem.dirichlet_pressure = {0: 2.0, 2: 0.5, 3: 0.0}
        p = solve_pressure(view, problem, radius)
        from netmesh.flow import element_transmissibility

        te = element_transmissibility(radius, problem.viscosity, problem.gamma)
        pairs = junction_two_point_transmissibilities(view, te)
        by_vertex = {}
        for el in view.elements():
            i = ix.index_of(el)
            for grp in intersections(view, el):
                if grp.boundary:
                    continue
                vid = facet_vertex_id(el, grp)
                for k in range(grp.neighbor_count):
                    other = grp.outside(k)
                    tij = pairs[(vid, min(el.id, other.id), max(el.id, other.id))]
                    q = tij * (p[i] - p[ix.index_of(other)])
                    total, scale = by_vertex.get(vid, (0.0, 0.0))
                    by_vertex[vid] = (total + q, max(scale, abs(q)))
        assert by_vertex
        for total, scale in by_vertex.values():
            assert abs(total) <= 1e-12 * max(scale, 1e-30)


def test_7_pressure_oracle(chain4):
    with criterion(7, "chain pressures (7/8, 5/8, 3/8, 1/8) and leak equilibrium"):
        view = chain4.leaf_view()
        order = chain_order(view)
        r, mu, gamma = 1e-3, 3e-3, 2.0
        problem = VesselProblem(viscosity=mu, gamma=gamma)
        problem.dirichlet_pressure = {0: 1.0, 4: 0.0}
        p = solve_pressure(view, problem, np.full(4, r))[order]

        t = math.pi * r**4 / (2.0 * mu * (2.0 + gamma))
        lengths = np.array([el.geometry.volume() for el in view.elements()])[order]
        g = 2.0 * t / lengths  # half-cell conductances
        dense = np.zeros((4, 4))
        for i in range(3):  # interior facet: the two half cells in series
            c = g[i] * g[i + 1] / (g[i] + g[i + 1])
            dense[[i, i + 1], [i, i + 1]] += c
            dense[[i, i + 1], [i + 1, i]] -= c
        dense[0, 0] += g[0]  # Dirichlet facets couple with the element's own g_i
        dense[3, 3] += g[3]
        expected = np.linalg.solve(dense, np.array([g[0] * 1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(p, expected, rtol=1e-12)
        np.testing.assert_allclose(p, [7 / 8, 5 / 8, 3 / 8, 1 / 8], rtol=1e-12)

        leaky = VesselProblem(l_p=3e-6, tissue_pressure=7.5)
        p_eq = solve_pressure(view, leaky, np.full(4, r))
        np.testing.assert_allclose(p_eq, 7.5, rtol=1e-12)


def test_8_transport_conservation(chain4):
    with criterion(8, "closed network: 100 implicit steps conserve mass and bounds"):
        refine_all(chain4)  # 8 elements
        view = chain4.leaf_view()
        n = view.size(0)
        rng = np.random.default_rng(99)
        problem = VesselProblem(d_e=2e-3)
        state = FlowState(
            pressure=rng.uniform(-1.0, 1.0, n),  # arbitrary internal fluxes
            concentration=rng.uniform(0.2, 0.9, n),
            radius=np.full(n, 1e-3),
        )
        a0 = total_amount(view, state)
        lo, hi = state.concentration.min(), state.concentration.max()
        for _ in range(100):
            c = transport_step(view, problem, state, 0.1)
            assert np.all(c >= lo - 1e-12)
            assert np.all(c <= hi + 1e-12)
            state = FlowState(state.pressure, c, state.radius)
        drift = abs(total_amount(view, state) - a0)
        assert drift <= 1e-10 * a0


def test_9_adaptive_transport_demo():
    with criterion(9, "advected front: marks sit on the front, far field coarsens"):
        n0 = 64
        verts = [(float(i), 0.0, 0.0) for i in range(n0 + 1)]
        grid = make_grid(1, 3, verts, [(i, i + 1) for i in range(n0)])
        view = grid.leaf_view()
        order = chain_order(view)

        r = 1e-3
        problem = VesselProblem(d_e=0.0)
        problem.neumann_velocity = {0: 1.0}
        problem.dirichlet_pressure = {n0: 0.0}
        problem.dirichlet_concentration = {0: 1.0}
        radius = np.full(n0, r)
        state = FlowState(
            pressure=solve_pressure(view, problem, radius),
            concentration=np.zeros(n0),
            radius=radius,
        )
        dt = 0.25
        for _ in range(12):  # front travels to x ~ 3, still sharp
            state = FlowState(
                state.pressure, transport_step(view, problem, state, dt), state.radius
            )

        marks = refinement_indicator(view, state.concentration, 0.3, 0.05)
        c = state.concentration[order]
        jumps_chain = np.zeros(n0)
        for i in range(n0):
            if i > 0:
                jumps_chain[i] = max(jumps_chain[i], abs(c[i] - c[i - 1]))
            if i < n0 - 1:
                jumps_chain[i] = max(jumps_chain[i], abs(c[i] - c[i + 1]))
        jumps = np.zeros(n0)
        jumps[order] = jumps_chain

        top_cut = np.sort(jumps)[-int(math.ceil(0.1 * n0))]  # 10% highest |dc|
        marked = np.flatnonzero(marks == 1)
        assert marked.size > 0
        assert np.all(jumps[marked] >= top_cut)

        lo, hi = jumps.min(), jumps.max()
        far_field = np.flatnonzero(jumps < lo + 0.05 * (hi - lo))
        assert np.all(marks[far_field] == -1)
        assert far_field.size > n0 // 2

        for _ in range(10):  # adaptive phase: leaf count stays bounded
            state = FlowState(
                state.pressure, transport_step(view, problem, state, dt), state.radius
            )
            marks = refinement_indicator(view, state.concentration, 0.3, 0.05)
            view, state, _ = adapt_with_state(grid, marks, state, max_level=2)
            state.pressure = solve_pressure(view, problem, state.radius)
            assert view.size(0) <= 4 * n0


def test_10_growth_protocol():
    with criterion(10, "seeded growth: reproducible, is_new lifecycle, inheritance"):
        def run(seed):
            grid, collar = build_vertical_root(8, 0.0125)
            ind = GrowthIndicator(
                seed=seed, branch_probability=0.25, elongation_probability=0.7,
                segment_length=0.0125, anchored_ids=(collar,),
            )
            view = grid.leaf_view()
            ix = view.index_set
            variables = {"v": np.zeros(8)}
            for el in view.elements():
                variables["v"][ix.index_of(el)] = float(el.id)
            for step in range(4):
                _, variables = grow_grid(grid, ind, variables, step=step)
            coords = sorted(
                tuple(w.coords) for w in grid.leaf_view().entities(1)
            )
            ids = sorted(el.id for el in grid.leaf_view().elements())
            return coords, ids, variables

        a = run(2024)
        b = run(2024)
        assert a[0] == b[0] and a[1] == b[1]
        np.testing.assert_array_equal(np.sort(a[2]["v"]), np.sort(b[2]["v"]))
        assert run(2024)[0] != run(77)[0]

        # is_new stays set between grow and post_grow
        grid, collar = build_vertical_root(8, 0.0125)
        ind = GrowthIndicator(
            seed=3, branch_probability=0.0, elongation_probability=1.0,
            segment_length=0.0125, anchored_ids=(collar,),
        )
        view = grid.leaf_view()
        ix = view.index_set
        tip_value = {}
        for el in view.elements():
            tip_value[el.id] = float(el.id)
        decision = None
        for el in view.elements():
            d = indicator_evaluate(ind, grid, el, 0)
            if d is not None:
                decision = (el, d)
        assert decision is not None
        source, d = decision
        new_idx = grid.queue_vertex(d.coords)
        grid.queue_element(LINE, [ix.index_of(d.attach), new_idx])
        grid.grow()
        report = grid.growth_report
        (_, new_id), = report.inserted
        fresh = [el for el in grid.leaf_view().elements() if el.id == new_id]
        assert fresh and fresh[0].is_new
        grid.post_grow()
        fresh = [el for el in grid.leaf_view().elements() if el.id == new_id]
        assert fresh and not fresh[0].is_new

        # inherited variables equal the attachment neighbor's values
        grid2, collar2 = build_vertical_root(8, 0.0125)
        view2 = grid2.leaf_view()
        ix2 = view2.index_set
        vals = np.zeros(8)
        for el in view2.elements():
            vals[ix2.index_of(el)] = 100.0 + float(el.id)
        tip_el = max(view2.elements(), key=lambda e: -e.geometry.center()[-1])
        report2, out2 = grow_grid(
            grid2,
            GrowthIndicator(
                seed=3, branch_probability=0.0, elongation_probability=1.0,
                segment_length=0.0125, anchored_ids=(collar2,),
            ),
            {"v": vals},
            step=0,
        )
        (_, nid), = report2.inserted
        nview = grid2.leaf_view()
        nix = nview.index_set
        for el in nview.elements():
            if el.id == nid:
                assert out2["v"][nix.index_of(el)] == 100.0 + float(tip_el.id)

        # removing one of four siblings keeps the grid consistent
        tri = make_grid(2, 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
        refine_all(tri)
        child = tri.leaf_view().elements()[0]
        tri.remove_element(child)
        tri.grow()
        tri.post_grow()
        assert tri.leaf_view().size(0) == 3
        check_grid(tri)


def test_11_io_golden_files(tmp_path, two_triangles):
    with criterion(11, "MSH fixtures parse to known counts; VTK bytes match golden"):
        net = read_gmsh(DATA / "network.msh", GridConfig(1, 3))
        assert net.leaf_view().size(0) == 3
        assert net.leaf_view().size(1) == 4

        surf = read_gmsh(DATA / "surface.msh", GridConfig(2, 3))
        assert surf.leaf_view().size(0) == 3
        assert surf.leaf_view().size(2) == 5

        qline = read_gmsh(DATA / "quadratic_line.msh", GridConfig(1, 3))
        assert qline.leaf_view().size(0) == 1
        assert qline.leaf_view().size(1) == 2

        qsurf = read_gmsh(DATA / "quadratic_surface.msh", GridConfig(2, 3))
        assert qsurf.leaf_view().size(0) == 1
        assert qsurf.leaf_view().size(2) == 3

        out = tmp_path / "surface.vtk"
        with open(out, "w") as sink:
            write_vtk(two_triangles.leaf_view(), sink, title="two triangles")
        assert out.read_bytes() == (DATA / "expected_surface.vtk").read_bytes()

        net_grid = make_grid(
            1, 3,
            [(0, 0, 0), (1, 0, 0), (2, 1, 0.1), (2, -1, -0.1)],
            [(0, 1), (1, 2), (1, 3)],
        )
        net_view = net_grid.leaf_view()
        out = tmp_path / "network.vtk"
        with open(out, "w") as sink:
            write_vtk(
                net_view, sink,
                point_data={"height": np.array([v.coords[2] for v in net_view.vertices()])},
                cell_data={"pressure": np.array([1.0, 1 / 3, 0.1 + 0.2])},
                title="y network",
            )
        assert out.read_bytes() == (DATA / "expected_network.vtk").read_bytes()
