"""Root-network uptake solver and seeded growth tests.

Pressure references come from dense assemblies written out in the tests;
the random streams are checked against published algorithm vectors and
frozen values that must never drift.
"""

import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netmesh import ScenarioError, SingularSystemError
from netmesh.flow import facet_table
from netmesh.roots import (
    SCENARIO,
    GrowthIndicator,
    RootProblem,
    Xoshiro256StarStar,
    _GOLDEN,
    _MASK64,
    _mix64,
    assemble_solve_root_pressure,
    build_vertical_root,
    collar_flux,
    grow_grid,
    indicator_evaluate,
    leaf_degree,
    round_decisions,
    stream_seed,
    total_uptake,
)


def coefficients(n, **values):
    """``k_x``, ``k_r`` and ``radius`` for ``n`` elements: ``values``, else the scenario defaults."""
    return {key: np.full(n, values.get(key, SCENARIO[key][1])) for key in ("k_x", "k_r", "radius")}


def depth_order(view):
    """Leaf indices sorted by element center depth, collar first."""
    ix = view.index_set
    pairs = sorted(
        ((-el.geometry.center()[-1], ix.index_of(el)) for el in view.elements())
    )
    return [i for _, i in pairs]


class TestRandomStreams:
    def test_finalizer_matches_published_splitmix64(self):
        # reference outputs of splitmix64 for seed 0 (Steele et al.)
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        state = 0
        got = []
        for _ in range(3):
            state = (state + _GOLDEN) & _MASK64
            got.append(_mix64(state))
        assert got == expected

    def test_stream_seed_frozen(self):
        # decisions keyed off these values are part of saved outputs;
        # the hashes must never change
        assert stream_seed(0, 0, 0) == 0x927A7C57DC016E42
        assert stream_seed(42, 7, 3) == 0x649CE25A0797BFC5

    def test_stream_seed_separates_arguments(self):
        base = stream_seed(1, 2, 3)
        assert stream_seed(4, 2, 3) != base
        assert stream_seed(1, 5, 3) != base
        assert stream_seed(1, 2, 6) != base

    def test_generator_sequence_frozen(self):
        g = Xoshiro256StarStar(42)
        assert [g.next_raw() for _ in range(3)] == [
            0x15780B2E0C2EC716,
            0x6104D9866D113A7E,
            0xAE17533239E499A1,
        ]

    def test_uniform_range_and_mean(self):
        g = Xoshiro256StarStar(7)
        xs = [g.uniform() for _ in range(2000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(np.mean(xs) - 0.5) < 0.02

    def test_direction_is_unit_and_deterministic(self):
        a = Xoshiro256StarStar(3).direction(3)
        b = Xoshiro256StarStar(3).direction(3)
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_direction_covers_all_octants(self):
        g = Xoshiro256StarStar(11)
        signs = {tuple(np.sign(g.direction(3)).astype(int)) for _ in range(200)}
        assert len(signs) == 8


class TestLeafDegree:
    def test_chain_degrees(self):
        grid, collar = build_vertical_root(3, 0.01)
        view = grid.leaf_view()
        degrees = {}
        for el in view.elements():
            for k in range(2):
                v = el.sub_entity(1, k)
                degrees[v.id] = leaf_degree(grid, v)
        assert sorted(degrees.values()) == [1, 1, 2, 2]

    def test_degree_crosses_refinement_levels(self):
        grid, collar = build_vertical_root(2, 0.01)
        for el in grid.leaf_view().elements():
            if el.geometry.center()[-1] < -0.01:
                grid.mark(1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
        view = grid.leaf_view()
        tip = min(
            (v for el in view.elements() for v in (el.sub_entity(1, 0), el.sub_entity(1, 1))),
            key=lambda v: v.coords[-1],
        )
        assert leaf_degree(grid, tip) == 1
        shared = [
            v
            for el in view.elements()
            for v in (el.sub_entity(1, 0), el.sub_entity(1, 1))
            if abs(v.coords[-1] + 0.01) < 1e-15
        ]
        assert all(leaf_degree(grid, v) == 2 for v in shared)


class TestGrowthDecisions:
    def test_zero_probabilities_mean_no_growth(self):
        grid, collar = build_vertical_root(4, 0.01)
        ind = GrowthIndicator(
            seed=5, branch_probability=0.0, elongation_probability=0.0,
            anchored_ids=(collar,),
        )
        for el in grid.leaf_view().elements():
            assert indicator_evaluate(ind, grid, el, 0) is None

    def test_tip_segment_elongates_straight(self):
        grid, collar = build_vertical_root(2, 0.01)
        ind = GrowthIndicator(
            seed=5, branch_probability=0.0, elongation_probability=1.0,
            segment_length=0.01, anchored_ids=(collar,),
        )
        decisions = [
            (el, indicator_evaluate(ind, grid, el, 0))
            for el in grid.leaf_view().elements()
        ]
        grown = [(el, d) for el, d in decisions if d is not None]
        assert len(grown) == 1
        el, d = grown[0]
        assert d.kind == "elongate"
        assert d.attach.coords[-1] == pytest.approx(-0.02)
        np.testing.assert_allclose(d.coords, [0.0, 0.0, -0.03], atol=1e-15)

    def test_interior_segment_branches_downwards(self):
        grid, collar = build_vertical_root(3, 0.01)
        ind = GrowthIndicator(
            seed=9, branch_probability=1.0, elongation_probability=0.0,
            gravity_bias=1.0, segment_length=0.02, anchored_ids=(collar,),
        )
        branched = 0
        for el in grid.leaf_view().elements():
            d = indicator_evaluate(ind, grid, el, 0)
            if d is None:
                continue  # the tip segment only elongates, and that is off
            branched += 1
            assert d.kind == "branch"
            offset = d.coords - d.attach.coords
            assert np.linalg.norm(offset) == pytest.approx(0.02, rel=1e-12)
            assert offset[-1] <= 1e-15  # full gravity bias never points up
        assert branched == 2

    @pytest.mark.parametrize("seed", [21, *range(40)])
    def test_collar_segment_never_branches_at_the_collar(self, seed):
        grid, collar = build_vertical_root(4, 0.01)
        ind = GrowthIndicator(
            seed=seed, branch_probability=1.0, elongation_probability=1.0,
            anchored_ids=(collar,),
        )
        problem = RootProblem(collar_vertex_id=collar)
        variables = coefficients(4)
        for step in range(3):
            for el in grid.leaf_view().elements():
                d = indicator_evaluate(ind, grid, el, step)
                assert d is None or d.attach.id != collar
            _, variables = grow_grid(grid, ind, variables, step=step)
        view = grid.leaf_view()
        p = assemble_solve_root_pressure(problem, view, **variables)
        # the collar flux t (p_0 - p_collar) subtracts two pressures near
        # -1.2e6 that differ by about 20, so it loses about five digits
        assert collar_flux(problem, view, p, variables["k_x"]) == pytest.approx(
            total_uptake(problem, view, p, variables["k_r"], variables["radius"]), rel=1e-9
        )

    def test_decisions_are_reproducible(self):
        grid, collar = build_vertical_root(4, 0.01)
        ind = GrowthIndicator(seed=21, anchored_ids=(collar,))
        for el in grid.leaf_view().elements():
            a = indicator_evaluate(ind, grid, el, step=6)
            b = indicator_evaluate(ind, grid, el, step=6)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.kind == b.kind
                np.testing.assert_array_equal(a.coords, b.coords)

    def test_seed_changes_decisions(self):
        grid, collar = build_vertical_root(4, 0.01)
        ind_a = GrowthIndicator(seed=0, elongation_probability=0.5, anchored_ids=(collar,))
        ind_b = GrowthIndicator(seed=1, elongation_probability=0.5, anchored_ids=(collar,))
        outcomes_a = []
        outcomes_b = []
        for step in range(20):
            for el in grid.leaf_view().elements():
                outcomes_a.append(indicator_evaluate(ind_a, grid, el, step) is not None)
                outcomes_b.append(indicator_evaluate(ind_b, grid, el, step) is not None)
        assert outcomes_a != outcomes_b


class TestRootPressure:
    def test_no_radial_conductivity_means_collar_pressure(self):
        grid, collar = build_vertical_root(6, 0.02)
        problem = RootProblem(collar_vertex_id=collar)
        p = assemble_solve_root_pressure(problem, grid.leaf_view(), **coefficients(6, k_r=0.0))
        np.testing.assert_allclose(p, problem.collar_pressure, rtol=1e-12)

    def test_pressure_between_collar_and_soil(self):
        grid, collar = build_vertical_root(8, 0.025)
        problem = RootProblem(collar_vertex_id=collar)
        p = assemble_solve_root_pressure(problem, grid.leaf_view(), **coefficients(8))
        assert np.all(p > problem.collar_pressure)
        assert np.all(p < problem.soil_pressure)

    def test_matches_dense_oracle(self):
        segments, length = 8, 0.025
        grid, collar = build_vertical_root(segments, length)
        view = grid.leaf_view()
        order = depth_order(view)
        problem = RootProblem(collar_vertex_id=collar)
        p = assemble_solve_root_pressure(problem, view, **coefficients(segments))[order]

        kx, kr, r = (SCENARIO[key][1] for key in ("k_x", "k_r", "radius"))
        half = kx / 2.0  # equal-coefficient junction: kx*kx / (kx + kx)
        soil = kr * 2.0 * math.pi * r * length
        a = np.zeros((segments, segments))
        b = np.zeros(segments)
        for i in range(segments):
            a[i, i] += soil
            b[i] += soil * problem.soil_pressure
        for i in range(segments - 1):
            a[i, i] += half
            a[i + 1, i + 1] += half
            a[i, i + 1] -= half
            a[i + 1, i] -= half
        a[0, 0] += kx  # collar facet, half-cell Dirichlet coupling
        b[0] += kx * problem.collar_pressure
        expected = np.linalg.solve(a, b)
        np.testing.assert_allclose(p, expected, rtol=1e-10)

    def test_collar_flux_equals_total_uptake(self):
        grid, collar = build_vertical_root(10, 0.02)
        view = grid.leaf_view()
        problem = RootProblem(collar_vertex_id=collar)
        c = coefficients(10)
        p = assemble_solve_root_pressure(problem, view, **c)
        inflow = collar_flux(problem, view, p, c["k_x"])
        uptake = total_uptake(problem, view, p, c["k_r"], c["radius"])
        assert inflow == pytest.approx(uptake, rel=1e-10)
        assert uptake > 0.0  # soil is wetter than the xylem

    def test_heterogeneous_coefficients(self):
        grid, collar = build_vertical_root(6, 0.02)
        view = grid.leaf_view()
        order = depth_order(view)
        problem = RootProblem(collar_vertex_id=collar)
        c = coefficients(6)
        c["k_r"][order[:3]] = 0.0  # only the lower half takes up water
        p = assemble_solve_root_pressure(problem, view, **c)
        assert collar_flux(problem, view, p, c["k_x"]) == pytest.approx(
            total_uptake(problem, view, p, c["k_r"], c["radius"]), rel=1e-10
        )

    def test_detached_collar_is_singular(self):
        grid, collar = build_vertical_root(4, 0.01)
        problem = RootProblem(collar_vertex_id=999)
        with pytest.raises(SingularSystemError):
            assemble_solve_root_pressure(problem, grid.leaf_view(), **coefficients(4, k_r=0.0))

    @pytest.mark.parametrize("error", [1e-5, np.nan])
    def test_rejects_a_solution_that_misses_the_system(self, monkeypatch, error):
        # pressures near -1.2e6: a shift of 1e-5 leaves a residual of about
        # 4e-7 at the collar, above 1e-12 of the system's largest term
        grid, collar = build_vertical_root(8, 0.025)
        problem = RootProblem(collar_vertex_id=collar)
        spsolve = scipy.sparse.linalg.spsolve
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", lambda a, b: spsolve(a, b) + error)
        with pytest.raises(SingularSystemError):
            assemble_solve_root_pressure(problem, grid.leaf_view(), **coefficients(8))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_x": 0.0},
            {"k_r": -1.0},
            {"radius": 0.0},
            {"k_x": math.nan},
            {"collar_pressure": math.nan},
            {"soil_pressure": math.inf},
            {"k_x": -1.0},
        ],
    )
    def test_validate_rejects_bad_parameters(self, kwargs):
        # the coefficients are per-element arrays of the solve, the pressures problem fields;
        # each ends as ScenarioError before assembly, so no RuntimeWarning (an error here) comes first
        key, = kwargs
        grid, collar = build_vertical_root(4, 0.01)
        if key in ("k_x", "k_r", "radius"):
            problem, arrays = RootProblem(collar_vertex_id=collar), coefficients(4, **kwargs)
        else:
            problem, arrays = RootProblem(**kwargs, collar_vertex_id=collar), coefficients(4)
        with pytest.raises(ScenarioError, match=f"^{key} must"):
            assemble_solve_root_pressure(problem, grid.leaf_view(), **arrays)

    def test_every_bad_coefficient_is_named_by_its_rule_at_once(self):
        grid, collar = build_vertical_root(4, 0.01)
        arrays = coefficients(4, radius=0.0)
        arrays["k_x"][1] = -1.0  # one bad entry among good ones
        arrays["k_r"][2] = math.inf
        with pytest.raises(ScenarioError) as err:
            assemble_solve_root_pressure(RootProblem(collar_vertex_id=collar), grid.leaf_view(), **arrays)
        assert str(err.value) == "k_x must be positive; k_r must be finite; radius must be positive"


def vectorized_decisions(indicator, view, step):
    positions, ends, coords = round_decisions(indicator, view, step)
    return [(p, e, c.tobytes()) for p, e, c in zip(positions.tolist(), ends.tolist(), coords)]


def scalar_decisions(indicator, view, step):
    """What round_decisions must return, as a loop over indicator_evaluate."""
    out = []
    for pos, el in enumerate(view.elements()):
        d = indicator_evaluate(indicator, view.grid, el, step)
        if d is not None:
            ends = [el.sub_entity(1, k).id for k in range(2)]
            out.append((pos, ends.index(d.attach.id), d.coords.tobytes()))
    return out


def refine_some(grid, rng, share=0.3):
    for el in grid.leaf_view().elements():
        if rng.uniform() < share:
            grid.mark(1, el)
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()


PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestVectorizedRound:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.one_of(
            st.sampled_from([0, -1, -(2**63), 2**64, 2**64 + 1, 2**70]),
            st.integers(-(2**70), 2**70),
        ),
        first_step=st.one_of(st.just(0), st.integers(-(2**65), 2**65)),
        branch=PROBABILITIES,
        elongation=PROBABILITIES,
        # with gravity 1 in one world dimension, half the branch directions
        # cancel the pull and take the 1e-9 retry; in three, the cube rejects
        # about half of all draws
        gravity=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 3.0)),
        world_dim=st.integers(1, 3),
        segments=st.integers(1, 20),
        rounds=st.lists(st.booleans(), min_size=1, max_size=4),
        rng_seed=st.integers(0, 2**32 - 1),
    )
    # pinned: the 1e-9 retry on every other branch, and the largest seed and step
    @example(seed=-1, first_step=0, branch=1.0, elongation=0.5, gravity=1.0, world_dim=1,
             segments=6, rounds=[False, True], rng_seed=0)
    @example(seed=2**64, first_step=2**65, branch=0.5, elongation=1.0, gravity=3.0, world_dim=3,
             segments=20, rounds=[False, False, True, False], rng_seed=1)
    def test_round_matches_indicator_evaluate(
        self, seed, first_step, branch, elongation, gravity, world_dim, segments, rounds, rng_seed
    ):
        """Same elements, attach ends and coordinate bytes as the scalar loop, round by round."""
        grid, collar = build_vertical_root(segments, 0.01, world_dim=world_dim)
        ind = GrowthIndicator(
            seed=seed, branch_probability=branch, elongation_probability=elongation,
            gravity_bias=gravity, segment_length=0.01, anchored_ids=(collar,),
        )
        rng = np.random.default_rng(rng_seed)
        variables = {}
        for k, refine in enumerate(rounds):
            if refine:
                refine_some(grid, rng)
            step = first_step + k
            view = grid.leaf_view()
            assert vectorized_decisions(ind, view, step) == scalar_decisions(ind, view, step)
            _, variables = grow_grid(grid, ind, variables, step=step)

    def test_doubling_rounds_match(self):
        """The root-growth benchmark's shape: every segment grows at every step."""
        grid, collar = build_vertical_root(128, 0.01)
        ind = GrowthIndicator(
            seed=1, branch_probability=1.0, elongation_probability=1.0,
            gravity_bias=0.5, anchored_ids=(collar,),
        )
        for step in range(5):
            view = grid.leaf_view()
            got = vectorized_decisions(ind, view, step)
            assert len(got) == view.size(0)
            assert got == scalar_decisions(ind, view, step)
            grow_grid(grid, ind, {}, step=step)
        assert grid.leaf_view().size(0) == 128 * 2**5

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        segments=st.integers(1, 12),
        rounds=st.lists(st.booleans(), min_size=1, max_size=4),
    )
    def test_end_degrees_equal_leaf_degree(self, seed, segments, rounds):
        """On grown and refined networks, the table's per-end arrays are the chain walk's."""
        grid, collar = build_vertical_root(segments, 0.01)
        ind = GrowthIndicator(
            seed=seed, branch_probability=0.4, elongation_probability=0.8,
            anchored_ids=(collar,),
        )
        rng = np.random.default_rng(seed)
        for step, refine in enumerate(rounds):
            if refine:
                refine_some(grid, rng)
            else:
                grow_grid(grid, ind, {}, step=step)
            view = grid.leaf_view()
            table = facet_table(view)
            for i, el in enumerate(view.elements()):
                for k in range(2):
                    v = el.sub_entity(1, k)
                    assert table.end_ids[i, k] == v.id
                    assert table.end_degrees[i, k] == leaf_degree(grid, v)
                    assert table.corners[i, k].tobytes() == v.coords.tobytes()


class TestGrowGrid:
    def _variables(self, n, value=1.0):
        return {"radius": np.full(n, value), "k_r": np.linspace(1.0, 2.0, n)}

    def test_pure_elongation_adds_one_segment_per_step(self):
        grid, collar = build_vertical_root(4, 0.01)
        ind = GrowthIndicator(
            seed=1, branch_probability=0.0, elongation_probability=1.0,
            segment_length=0.01, anchored_ids=(collar,),
        )
        variables = self._variables(4)
        for step in range(3):
            before = len(grid.leaf_view().elements())
            report, variables = grow_grid(grid, ind, variables, step=step)
            assert len(report.inserted) == 1
            assert not report.skipped
            assert len(grid.leaf_view().elements()) == before + 1
        depth = min(
            v.coords[-1]
            for el in grid.leaf_view().elements()
            for v in (el.sub_entity(1, 0), el.sub_entity(1, 1))
        )
        assert depth == pytest.approx(-0.07)

    def test_new_segments_inherit_from_their_source(self):
        grid, collar = build_vertical_root(4, 0.01)
        view = grid.leaf_view()
        ix = view.index_set
        order = depth_order(view)
        radius = np.zeros(4)
        radius[order] = [4.0, 3.0, 2.0, 1.0]  # tip carries 1.0
        ind = GrowthIndicator(
            seed=1, branch_probability=0.0, elongation_probability=1.0,
            segment_length=0.01, anchored_ids=(collar,),
        )
        report, out = grow_grid(grid, ind, {"radius": radius}, step=0)
        (queue_pos, new_id), = report.inserted
        new_view = grid.leaf_view()
        nix = new_view.index_set
        for el in new_view.elements():
            if el.id == new_id:
                assert out["radius"][nix.index_of(el)] == 1.0

    def test_surviving_segments_keep_their_values(self):
        grid, collar = build_vertical_root(4, 0.01)
        view = grid.leaf_view()
        ix = view.index_set
        by_id = {el.id: 10.0 + ix.index_of(el) for el in view.elements()}
        values = np.zeros(4)
        for el in view.elements():
            values[ix.index_of(el)] = by_id[el.id]
        ind = GrowthIndicator(
            seed=3, branch_probability=0.2, elongation_probability=0.7,
            anchored_ids=(collar,),
        )
        report, out = grow_grid(grid, ind, {"v": values}, step=0)
        new_view = grid.leaf_view()
        nix = new_view.index_set
        for el in new_view.elements():
            if el.id in by_id:
                assert out["v"][nix.index_of(el)] == by_id[el.id]

    def test_no_growth_is_a_no_op(self):
        grid, collar = build_vertical_root(4, 0.01)
        ind = GrowthIndicator(
            seed=1, branch_probability=0.0, elongation_probability=0.0,
            anchored_ids=(collar,),
        )
        variables = self._variables(4)
        report, out = grow_grid(grid, ind, variables, step=0)
        assert not report.inserted
        assert len(grid.leaf_view().elements()) == 4
        for name in variables:
            np.testing.assert_array_equal(out[name], variables[name])

    def test_growth_is_reproducible_and_seed_sensitive(self):
        def grow(seed):
            grid, collar = build_vertical_root(6, 0.01)
            ind = GrowthIndicator(
                seed=seed, branch_probability=0.3, elongation_probability=0.8,
                segment_length=0.01, anchored_ids=(collar,),
            )
            variables = {"r": np.ones(6)}
            for step in range(4):
                _, variables = grow_grid(grid, ind, variables, step=step)
            coords = sorted(
                tuple(v.coords)
                for el in grid.leaf_view().elements()
                for v in (el.sub_entity(1, 0), el.sub_entity(1, 1))
            )
            return coords

        assert grow(2024) == grow(2024)
        assert grow(2024) != grow(2025)

    def test_solve_on_grown_network(self):
        grid, collar = build_vertical_root(6, 0.01)
        ind = GrowthIndicator(
            seed=8, branch_probability=0.5, elongation_probability=0.9,
            segment_length=0.01, anchored_ids=(collar,),
        )
        problem = RootProblem(collar_vertex_id=collar)
        variables = coefficients(6)
        for step in range(5):
            _, variables = grow_grid(grid, ind, variables, step=step)
        view = grid.leaf_view()
        assert len(view.elements()) > 6
        p = assemble_solve_root_pressure(problem, view, **variables)
        assert np.all(np.isfinite(p))
        assert collar_flux(problem, view, p, variables["k_x"]) == pytest.approx(
            total_uptake(problem, view, p, variables["k_r"], variables["radius"]), rel=1e-10
        )
