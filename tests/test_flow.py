"""Vessel-network pressure and transport solver tests.

The reference values are produced by dense NumPy assemblies written out
longhand in the tests, independent of the sparse code under test.
"""

import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_grid, refine_all
from netmesh import DimensionMismatchError, LifecycleError, ScenarioError, SingularSystemError
from netmesh import roots, topology
from netmesh.flow import (
    SCENARIO,
    FlowState,
    VesselProblem,
    adapt_with_state,
    assemble_pressure,
    boundary_markers,
    element_transmissibility,
    junction_two_point_transmissibilities,
    problem_from_scenario,
    read_scenario,
    refinement_indicator,
    restore_leaf_data,
    solve_pressure,
    store_leaf_data,
    total_amount,
    transport_step,
)
from netmesh.scenario import Scenario


def chain_order(view):
    """Leaf indices sorted by element center x, left to right."""
    ix = view.index_set
    pairs = sorted((el.geometry.center()[0], ix.index_of(el)) for el in view.elements())
    return [i for _, i in pairs]


def ids_with_marker(view, markers):
    """Ids of the boundary vertices whose tree-root marker is one of ``markers``."""
    return {vid for vid, marker in boundary_markers(view).items() if marker in markers}


class TestTransmissibility:
    def test_reference_value(self):
        # pi R^4 / (2 mu (2 + gamma)) with R=2e-6, mu=3, gamma=2
        got = element_transmissibility(2e-6, 3.0, 2.0)
        assert got == pytest.approx(math.pi * (2e-6) ** 4 / 24.0, rel=1e-14)

    def test_quartic_in_radius(self):
        t1 = element_transmissibility(1.3e-3, 3e-3, 2.0)
        t2 = element_transmissibility(2.6e-3, 3e-3, 2.0)
        assert t2 / t1 == pytest.approx(16.0, rel=1e-12)

    def test_gamma_flattens_profile(self):
        # (2 + 6) / (2 + 2) = 2: a blunter profile halves the conductance
        t_parabolic = element_transmissibility(1e-3, 3e-3, 2.0)
        t_blunt = element_transmissibility(1e-3, 3e-3, 6.0)
        assert t_parabolic / t_blunt == pytest.approx(2.0, rel=1e-14)

    def test_vectorized(self):
        r = np.array([1e-3, 2e-3, 3e-3])
        t = element_transmissibility(r, 3e-3, 2.0)
        assert t.shape == (3,)
        for k in range(3):
            assert t[k] == element_transmissibility(float(r[k]), 3e-3, 2.0)

    @pytest.mark.parametrize(
        "radius,mu,gamma",
        [(0.0, 3e-3, 2.0), (-1e-3, 3e-3, 2.0), (1e-3, 0.0, 2.0), (1e-3, 3e-3, -2.0)],
    )
    def test_invalid_parameters(self, radius, mu, gamma):
        with pytest.raises(ScenarioError):
            element_transmissibility(radius, mu, gamma)

    @pytest.mark.parametrize(
        "radius,gamma,message",
        [
            (1e-3, 1.0, "gamma must be at least 2 (blunt velocity profile)"),
            (math.inf, 2.0, "radius must be positive and finite"),
            (math.nan, 2.0, "radius must be positive and finite"),
            (np.array([1e-3, -1e-3, 2e-3]), 2.0, "radius must be positive and finite"),
            (math.nan, -1.0,
             "radius must be positive and finite; gamma must be at least 2 (blunt velocity profile)"),
        ],
    )
    def test_refuses_what_the_scenario_refuses_in_its_words(self, radius, gamma, message):
        """The Python API holds radius, viscosity and gamma to ``flow.SCENARIO``, as the CLI does."""
        with pytest.raises(ScenarioError) as err:
            element_transmissibility(radius, 3e-3, gamma)
        assert str(err.value) == message


class TestJunctionTransmissibilities:
    def test_two_member_junction_is_harmonic(self):
        # two collinear segments with different radii: t1 t2 / (t1 + t2)
        grid = make_grid(1, 3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(0, 1), (1, 2)])
        view = grid.leaf_view()
        order = chain_order(view)
        t = np.zeros(2)
        t[order] = [2.0, 3.0]
        pairs = junction_two_point_transmissibilities(view, t)
        assert len(pairs) == 1
        ((vid, a, b), tij), = pairs.items()
        assert a < b
        assert tij == pytest.approx(2.0 * 3.0 / 5.0, rel=1e-14)

    def test_three_member_junction_splits_by_total(self, y_junction):
        view = y_junction.leaf_view()
        t = np.full(3, 4.0)
        pairs = junction_two_point_transmissibilities(view, t)
        assert len(pairs) == 3
        for tij in pairs.values():
            assert tij == pytest.approx(4.0 * 4.0 / 12.0, rel=1e-14)

    def test_keys_use_ascending_element_ids(self, y_junction):
        view = y_junction.leaf_view()
        pairs = junction_two_point_transmissibilities(view, np.ones(3))
        for vid, a, b in pairs:
            assert a < b

    @given(
        radii=st.lists(
            st.floats(min_value=1e-4, max_value=1e-2, allow_nan=False),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_junction_fluxes_balance(self, radii):
        grid = make_grid(
            1, 3, [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, -1, 0)], [(0, 1), (1, 2), (1, 3)]
        )
        view = grid.leaf_view()
        ix = view.index_set
        t = element_transmissibility(np.array(radii), 3e-3, 2.0)
        pairs = junction_two_point_transmissibilities(view, t)
        p = np.array([3.0, 1.0, -2.0])  # arbitrary element pressures
        net = 0.0
        scale = 0.0
        for el in view.elements():
            from netmesh.intersections import intersections

            for grp in intersections(view, el):
                if grp.boundary:
                    continue
                vid = el.sub_entity(1, grp.index_in_inside).id
                for k in range(grp.neighbor_count):
                    other = grp.outside(k)
                    tij = pairs[(vid, min(el.id, other.id), max(el.id, other.id))]
                    q = tij * (p[ix.index_of(el)] - p[ix.index_of(other)])
                    net += q
                    scale = max(scale, abs(q))
        assert abs(net) <= 1e-12 * max(scale, 1.0)


class TestPressureSolve:
    def test_chain_matches_dense_oracle(self, chain4):
        view = chain4.leaf_view()
        order = chain_order(view)
        r, mu, gamma = 1e-3, 3e-3, 2.0
        radius = np.full(4, r)
        problem = VesselProblem(viscosity=mu, gamma=gamma)
        problem.dirichlet_pressure = {0: 1.0, 4: 0.0}

        p = solve_pressure(view, problem, radius)[order]

        # independent dense assembly: half-cell conductance g = 2 t on unit
        # cells, g / 2 between cells and g at the ends, unknowns at the
        # four element centers
        t = math.pi * r**4 / (2.0 * mu * (2.0 + gamma))
        g = 2.0 * t
        h = g / 2.0
        a = np.array(
            [
                [g + h, -h, 0.0, 0.0],
                [-h, 2 * h, -h, 0.0],
                [0.0, -h, 2 * h, -h],
                [0.0, 0.0, -h, h + g],
            ]
        )
        b = np.array([g * 1.0, 0.0, 0.0, 0.0])
        expected = np.linalg.solve(a, b)
        np.testing.assert_allclose(p, expected, rtol=1e-12)
        np.testing.assert_allclose(p, [7 / 8, 5 / 8, 3 / 8, 1 / 8], rtol=1e-12)

    def test_linear_profile_on_a_locally_refined_chain(self, chain4):
        # the half-cell conductances 2 t / l keep p = 1 - x/4 exact on
        # cells of unequal length
        view = chain4.leaf_view()
        chain4.mark(1, view.elements()[chain_order(view)[0]])
        chain4.pre_adapt()
        chain4.adapt()
        chain4.post_adapt()
        view = chain4.leaf_view()
        order = chain_order(view)
        problem = VesselProblem()
        problem.dirichlet_pressure = {0: 1.0, 4: 0.0}
        p = solve_pressure(view, problem, np.full(5, 1e-3))[order]
        x = np.array([0.25, 0.75, 1.5, 2.5, 3.5])
        np.testing.assert_allclose(p, 1.0 - x / 4.0, rtol=1e-12)
        assert p[3] == pytest.approx(0.375, rel=1e-12)

    def test_neumann_inflow_sets_total_flux(self, chain4):
        view = chain4.leaf_view()
        order = chain_order(view)
        r = 1e-3
        radius = np.full(4, r)
        v_in = 0.7
        problem = VesselProblem()
        problem.neumann_velocity = {0: v_in}
        problem.dirichlet_pressure = {4: 0.0}
        p = solve_pressure(view, problem, radius)[order]
        g = 2.0 * element_transmissibility(r, problem.viscosity, problem.gamma) / 1.0
        q_in = v_in * math.pi * r**2
        # every interior face (two half cells in series) and the outflow
        # face (one half cell) carry the full inflow
        for i in range(3):
            assert (g / 2.0) * (p[i] - p[i + 1]) == pytest.approx(q_in, rel=1e-10)
        assert g * (p[3] - 0.0) == pytest.approx(q_in, rel=1e-10)

    def test_boundary_fluxes_balance_on_junction(self, y_junction):
        view = y_junction.leaf_view()
        ix = view.index_set
        radius = np.array([1e-3, 1.5e-3, 0.8e-3])
        problem = VesselProblem()
        problem.dirichlet_pressure = {0: 2.0, 2: 0.0, 3: 1.0}
        p = solve_pressure(view, problem, radius)
        lengths = np.array([el.geometry.volume() for el in view.elements()])
        g = 2.0 * element_transmissibility(radius, problem.viscosity, problem.gamma) / lengths

        from netmesh.intersections import intersections

        net = 0.0
        scale = 0.0
        for el in view.elements():
            i = ix.index_of(el)
            for grp in intersections(view, el):
                if not grp.boundary:
                    continue
                vid = el.sub_entity(1, grp.index_in_inside).id
                q = g[i] * (p[i] - problem.dirichlet_pressure[vid])
                net += q
                scale = max(scale, abs(q))
        assert abs(net) <= 1e-12 * scale

    def test_wall_leakage_equilibrium(self, chain4):
        # no boundary data at all: the transmural leak pins p to the
        # tissue pressure exactly
        view = chain4.leaf_view()
        problem = VesselProblem(l_p=1e-7, tissue_pressure=5.0)
        p = solve_pressure(view, problem, np.full(4, 1e-3))
        np.testing.assert_allclose(p, 5.0, rtol=1e-12)

    def test_closed_system_is_singular(self, chain4):
        view = chain4.leaf_view()
        with pytest.raises(SingularSystemError):
            solve_pressure(view, VesselProblem(), np.full(4, 1e-3))

    def test_assemble_shapes(self, y_junction):
        view = y_junction.leaf_view()
        problem = VesselProblem()
        problem.dirichlet_pressure = {0: 1.0}
        a, b = assemble_pressure(view, problem, np.full(3, 1e-3))
        assert a.shape == (3, 3)
        assert b.shape == (3,)
        # junction couplings make the matrix structurally symmetric
        assert (a != a.T).nnz == 0


class TestTransport:
    def _through_flow(self, grid, v_in=1.0):
        view = grid.leaf_view()
        problem = VesselProblem(d_e=0.0)
        problem.neumann_velocity = {0: v_in}
        problem.dirichlet_pressure = {4: 0.0}
        problem.dirichlet_concentration = {0: 1.0}
        radius = np.full(4, 1e-3)
        p = solve_pressure(view, problem, radius)
        state = FlowState(pressure=p, concentration=np.zeros(4), radius=radius)
        return view, problem, state

    def test_rejects_bad_time_step(self, chain4):
        view, problem, state = self._through_flow(chain4)
        with pytest.raises(ValueError):
            transport_step(view, problem, state, 0.0)
        with pytest.raises(ValueError):
            transport_step(view, problem, state, -0.5)
        with pytest.raises(ValueError):
            transport_step(view, problem, state, math.inf)

    @pytest.mark.parametrize("error", [0.5, 1e-4, np.nan])
    def test_rejects_a_solution_that_misses_the_system(self, chain4, monkeypatch, error):
        # 1e-4 is 5% of the smallest concentration, in a system whose
        # entries are near 1e-5: only a scale without a 1.0 floor sees it
        view, problem, state = self._through_flow(chain4)
        spsolve = scipy.sparse.linalg.spsolve
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", lambda a, b: spsolve(a, b) + error)
        with pytest.raises(SingularSystemError):
            transport_step(view, problem, state, 0.25)

    def test_single_step_matches_dense_oracle(self, chain4):
        view = chain4.leaf_view()
        order = chain_order(view)
        inv = np.argsort(order)
        r, mu, gamma = 1e-3, 3e-3, 2.0
        dt, d_e, l_p, l_c, sigma = 0.25, 4e-3, 2e-5, 3e-5, 0.4
        p_bar, c_bar, v_in, c_in = 0.2, 0.6, 1.0, 1.0

        problem = VesselProblem(
            viscosity=mu, gamma=gamma, l_p=l_p, l_c=l_c, sigma_c=sigma,
            d_e=d_e, tissue_pressure=p_bar, tissue_concentration=c_bar,
        )
        problem.neumann_velocity = {0: v_in}
        problem.dirichlet_pressure = {4: 0.0}
        problem.dirichlet_concentration = {0: c_in}
        radius = np.full(4, r)
        p_view = solve_pressure(view, problem, radius)
        c0_chain = np.array([0.9, 0.4, 0.1, 0.0])
        state = FlowState(pressure=p_view, concentration=c0_chain[inv], radius=radius)

        got = transport_step(view, problem, state, dt)[order]

        # dense re-derivation on the ordered chain of unit cells: half-cell
        # conductance g = 2 t / 1, so g / 2 between cells and g at the outlet
        t = math.pi * r**4 / (2.0 * mu * (2.0 + gamma))
        g = 2.0 * t / 1.0
        area = math.pi * r**2
        wall = 2.0 * math.pi * r * 1.0
        p = p_view[order]
        m = np.zeros((4, 4))
        rhs = np.zeros(4)
        for i in range(4):
            vol = area * 1.0
            m[i, i] += vol / dt
            rhs[i] += vol / dt * c0_chain[i]
            m[i, i] += wall * (l_c + l_p * (p[i] - p_bar) * (1.0 - sigma))
            rhs[i] += wall * l_c * c_bar
        for i in range(3):  # interior faces, upwind advection + diffusion
            q = (g / 2.0) * (p[i] - p[i + 1])
            if q >= 0.0:
                m[i, i] += q
                m[i + 1, i] -= q
            else:
                m[i + 1, i + 1] -= q
                m[i, i + 1] += q
            m[i, i] += d_e * area
            m[i, i + 1] -= d_e * area
            m[i + 1, i + 1] += d_e * area
            m[i + 1, i] -= d_e * area
        rhs[0] += v_in * area * c_in          # inflow face advects c_in
        q_out = g * (p[3] - 0.0)
        m[3, 3] += max(q_out, 0.0)            # outflow face advects c_3
        expected = np.linalg.solve(m, rhs)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_closed_network_conserves_mass(self, chain4):
        view = chain4.leaf_view()
        problem = VesselProblem(d_e=5e-3)
        radius = np.full(4, 1e-3)
        rng = np.random.default_rng(7)
        state = FlowState(
            pressure=np.zeros(4), concentration=rng.uniform(0.0, 1.0, 4), radius=radius
        )
        a0 = total_amount(view, state)
        for _ in range(100):
            c = transport_step(view, problem, state, 0.1)
            state = FlowState(pressure=state.pressure, concentration=c, radius=radius)
        a1 = total_amount(view, state)
        assert abs(a1 - a0) <= 1e-12 * a0

    def test_uniform_field_is_stationary(self, chain4):
        view = chain4.leaf_view()
        problem = VesselProblem(d_e=5e-3)
        state = FlowState(
            pressure=np.zeros(4),
            concentration=np.full(4, 0.7),
            radius=np.full(4, 1e-3),
        )
        c = transport_step(view, problem, state, 0.5)
        np.testing.assert_allclose(c, 0.7, rtol=1e-13)

    def test_front_respects_maximum_principle(self, chain4):
        view, problem, state = self._through_flow(chain4)
        order = chain_order(view)
        for _ in range(40):
            c = transport_step(view, problem, state, 0.3)
            assert np.all(c >= -1e-12)
            assert np.all(c <= 1.0 + 1e-12)
            state = FlowState(pressure=state.pressure, concentration=c, radius=state.radius)
        profile = state.concentration[order]
        assert np.all(np.diff(profile) <= 1e-12)  # monotone front
        assert profile[0] > 0.95  # inlet saturates toward c_in

    def test_wall_exchange_decays_to_tissue_value(self, chain4):
        view = chain4.leaf_view()
        l_c, c_bar, dt, r = 2e-4, 0.3, 0.5, 1e-3
        problem = VesselProblem(l_c=l_c, tissue_concentration=c_bar)
        state = FlowState(
            pressure=np.zeros(4), concentration=np.ones(4), radius=np.full(4, r)
        )
        c = transport_step(view, problem, state, dt)
        # scalar implicit Euler oracle, element by element
        vol = math.pi * r**2
        wall = 2.0 * math.pi * r
        expected = (vol / dt * 1.0 + wall * l_c * c_bar) / (vol / dt + wall * l_c)
        np.testing.assert_allclose(c, expected, rtol=1e-13)
        for _ in range(400):
            c = transport_step(
                view, problem,
                FlowState(pressure=state.pressure, concentration=c, radius=state.radius),
                dt,
            )
        np.testing.assert_allclose(c, c_bar, atol=1e-3)


class TestRefinementIndicator:
    def test_step_profile_marks_the_jump(self, chain4):
        view = chain4.leaf_view()
        order = chain_order(view)
        inv = np.argsort(order)
        c = np.array([0.0, 0.0, 1.0, 1.0])[inv]
        marks = refinement_indicator(view, c)[order]
        assert list(marks) == [-1, 1, 1, -1]

    def test_intermediate_ratio_keeps_element(self, chain4):
        view = chain4.leaf_view()
        order = chain_order(view)
        inv = np.argsort(order)
        c = np.array([0.0, 0.5, 0.6, 0.6])[inv]
        marks = refinement_indicator(view, c)[order]
        assert list(marks) == [1, 1, 0, -1]

    def test_flat_field_coarsens_everywhere(self, chain4):
        view = chain4.leaf_view()
        marks = refinement_indicator(view, np.full(4, 0.4))
        assert list(marks) == [-1, -1, -1, -1]

    @pytest.mark.parametrize("lo,hi", [(0.3, 0.3), (0.5, 0.3), (-0.1, 0.3), (0.05, 1.2)])
    def test_threshold_validation(self, chain4, lo, hi):
        view = chain4.leaf_view()
        with pytest.raises(ValueError):
            refinement_indicator(view, np.zeros(4), eps_refine=hi, eps_coarsen=lo)


class TestElementFreeView:
    """Removing every leaf and growing leaves a grid with no element, which
    ``audit_grid`` accepts; its leaf view gives empty marks and solutions."""

    @pytest.fixture
    def view(self, chain4):
        for el in chain4.leaf_view().elements():
            chain4.remove_element(el)
        chain4.grow()
        chain4.post_grow()
        topology.audit_grid(chain4)
        return chain4.leaf_view()

    def test_indicator_marks_nothing(self, view):
        assert refinement_indicator(view, np.zeros(0)).shape == (0,)

    def test_pressure_and_transport_solve_to_nothing(self, view):
        problem, none = VesselProblem(), np.zeros(0)
        assert solve_pressure(view, problem, none).shape == (0,)
        assert transport_step(view, problem, FlowState(none, none, none), 1.0).shape == (0,)


class TestStateTransfer:
    def test_children_inherit_on_refinement(self, chain4):
        view = chain4.leaf_view()
        ix = view.index_set
        values = np.zeros(4)
        left = None
        for el in view.elements():
            values[ix.index_of(el)] = el.geometry.center()[0]
            if el.geometry.center()[0] < 1.0:
                left = el
        chain4.mark(1, left)
        chain4.pre_adapt()
        store = store_leaf_data(chain4, view, {"c": values})
        chain4.adapt()
        new_view = chain4.leaf_view()
        out = restore_leaf_data(new_view, store, ("c",))["c"]
        chain4.post_adapt()
        new_view = chain4.leaf_view()
        assert len(out) == 5
        nix = new_view.index_set
        for el in new_view.elements():
            x = el.geometry.center()[0]
            inherited = 0.5 if x < 1.0 else math.floor(x) + 0.5
            assert out[nix.index_of(el)] == pytest.approx(inherited, abs=1e-14)

    def test_coarsening_stores_volume_weighted_average(self, chain4):
        refine_all(chain4)
        view = chain4.leaf_view()
        ix = view.index_set
        values = np.zeros(8)
        for el in view.elements():
            values[ix.index_of(el)] = el.geometry.center()[0]
        for el in view.elements():
            chain4.mark(-1, el)
        chain4.pre_adapt()
        store = store_leaf_data(chain4, view, {"c": values})
        chain4.adapt()
        new_view = chain4.leaf_view()
        out = restore_leaf_data(new_view, store, ("c",))["c"]
        chain4.post_adapt()
        new_view = chain4.leaf_view()
        assert len(out) == 4
        nix = new_view.index_set
        for el in new_view.elements():
            # average of the two half-segment centers is the father center
            assert out[nix.index_of(el)] == pytest.approx(
                el.geometry.center()[0], rel=1e-12
            )

    def test_restore_without_ancestor_data_fails(self, chain4):
        view = chain4.leaf_view()
        with pytest.raises(LifecycleError, match="no stored data"):
            restore_leaf_data(view, {}, ("c",))

    def test_adapt_with_state_carries_everything(self, chain4):
        view = chain4.leaf_view()
        order = chain_order(view)
        inv = np.argsort(order)
        state = FlowState(
            pressure=np.array([4.0, 3.0, 2.0, 1.0])[inv],
            concentration=np.array([0.1, 0.2, 0.3, 0.4])[inv],
            radius=np.full(4, 1e-3),
            time=3.5,
        )
        marks = np.zeros(4, dtype=int)
        marks[order[0]] = 1
        cap = chain4.max_level + 1
        new_view, new_state, changed = adapt_with_state(chain4, marks, state, max_level=cap)
        assert changed
        assert len(new_view.elements()) == 5
        assert new_state.time == 3.5
        nix = new_view.index_set
        for el in new_view.elements():
            i = nix.index_of(el)
            if el.geometry.center()[0] < 1.0:
                assert new_state.pressure[i] == 4.0
                assert new_state.concentration[i] == pytest.approx(0.1)
            assert new_state.radius[i] == 1e-3

    def test_adapt_with_state_respects_level_cap(self, chain4):
        state = FlowState(
            pressure=np.zeros(4), concentration=np.zeros(4), radius=np.full(4, 1e-3)
        )
        marks = np.ones(4, dtype=int)
        view, state, changed = adapt_with_state(chain4, marks, state, max_level=1)
        assert changed and len(view.elements()) == 8
        marks = np.ones(8, dtype=int)
        view, state, changed = adapt_with_state(chain4, marks, state, max_level=1)
        assert not changed
        assert len(view.elements()) == 8

    @pytest.mark.parametrize("n", [1, 5])
    def test_adapt_with_state_refuses_misaligned_marks(self, chain4, n):
        """A mark array of another length is refused as ``mark_leaves`` refuses
        it, before the level cap could broadcast it, with nothing marked."""
        state = FlowState(pressure=np.zeros(4), concentration=np.zeros(4), radius=np.full(4, 1e-3))
        with pytest.raises(DimensionMismatchError, match=rf"^ref counts have shape \({n},\) for 4 leaf elements$"):
            adapt_with_state(chain4, np.ones(n, dtype=int), state, max_level=1)
        assert [chain4.get_mark(el) for el in chain4.leaf_view().elements()] == [0] * 4
        chain4.pre_adapt()  # the phase is still idle


class TestArrayTransfer:
    """``store_leaf_data``/``restore_leaf_data`` gather stacked rows by id and
    give the bits of the dict-per-leaf store of ``tests/leaf_data_dicts.py``."""

    @staticmethod
    def _curved_grid(shape):
        """Macro elements with parametrizations that split them into children
        of unequal measure, so sibling averages weigh their children."""
        if shape == "chain":
            def arc(local):
                t = float(np.asarray(local).reshape(-1)[0])
                return np.array([2.0 * t, t * t, 0.0])

            return make_grid(1, 3, [(0, 0, 0), (2, 1, 0), (3, 1, 0)], [(0, 1), (1, 2)], [arc, None])
        corners = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0]], dtype=float)

        def bump(local):
            x, y = np.asarray(local, dtype=float)
            flat = corners[0] + (corners[1:] - corners[0]).T @ np.array([x, y])
            return np.array([flat[0], flat[1], 0.9 * x * y * (1.0 - x - y) + 0.3 * x * x * y])

        verts = [(0, 0, 0), (1, 0, 0), (0.5, 1, 0), (0.5, -1, 0)]
        return make_grid(2, 3, verts, [(0, 1, 2), (0, 1, 3)], [bump, None])

    @pytest.mark.parametrize("adapts", [1, 2])
    @pytest.mark.parametrize("shape", ["chain", "surface"])
    @pytest.mark.parametrize("seed", range(4))
    def test_adapt_round_with_coarsening(self, shape, seed, adapts):
        """One adapt, or two between the store and the restore: the first
        refines the last leaf and the second every leaf, so a child of an
        element the first made walks past its father, which is not stored,
        to a stored ancestor."""
        from leaf_data_dicts import restore_by_dicts, store_by_dicts

        rng = np.random.default_rng(seed)
        grid = refine_all(self._curved_grid(shape), 2)
        view = grid.leaf_view()
        n = view.size(0)
        arrays = {"p": rng.normal(size=n), "k": rng.integers(-9, 9, size=n)}
        first = view.elements()[0].father()
        siblings = {kid.id for kid in first.children()}
        for el in view.elements():
            mark = -1 if el.id in siblings else int(rng.choice([-1, -1, 0, 1]))
            if mark:
                grid.mark(mark, el)
        if adapts == 2:  # the first adapt refines at least the last leaf
            grid.mark(1, view.elements()[-1])
        grid.pre_adapt()
        store = store_leaf_data(grid, view, arrays)
        expected = store_by_dicts(grid, view, arrays)
        assert first.id in store and len(store) == len(expected) > n
        grid.adapt()
        if adapts == 2:  # every leaf refined once more
            grid.post_adapt()
            grid.mark_leaves(np.ones(grid.leaf_view().size(0), dtype=np.int64))
            grid.pre_adapt()
            grid.adapt()
            unstored = [el for el in grid.leaf_view().elements() if el.father().id not in store]
            assert unstored and all(el.father().father().id in store for el in unstored)
        new_view = grid.leaf_view()
        got = restore_leaf_data(new_view, store, ("p", "k"))
        want = restore_by_dicts(new_view, expected, ("p", "k"))
        grid.post_adapt()
        for name in ("p", "k"):
            assert got[name].dtype == want[name].dtype == np.float64
            assert got[name].tobytes() == want[name].tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_growth_rounds_with_inherited_rows(self, seed):
        """``grow_grid`` against the parent protocol: one queue call per row, the
        dict store, ``store[new id] = store[source id]``, the dict restore."""
        from leaf_data_dicts import restore_by_dicts, store_by_dicts
        from netmesh import LINE
        from netmesh.roots import GrowthIndicator, build_vertical_root, grow_grid, round_decisions

        grids = [build_vertical_root(8, 0.0125) for _ in range(2)]
        collar = grids[0][1]
        rng = np.random.default_rng(seed)
        values = {"k": rng.normal(size=8), "r": rng.uniform(1, 2, size=8)}
        got = want = values
        for step in range(4):
            ind = GrowthIndicator(
                seed=seed, branch_probability=0.4, elongation_probability=0.9,
                segment_length=0.1, anchored_ids=(collar,),
            )
            got = grow_grid(grids[0][0], ind, got, step=step)[1]

            grid = grids[1][0]
            view = grid.leaf_view()
            positions, ends, coords = round_decisions(ind, view, step)
            for attach, xyz in zip(view.corner_indices()[positions, ends].tolist(), coords):
                grid.queue_element(LINE, [attach, grid.queue_vertex(xyz)])
            sources = view.ids(0)[positions].tolist()
            store = store_by_dicts(grid, view, want)
            grid.grow()
            for q, eid in grid.growth_report.inserted:
                store[eid] = store[sources[q]]
            want = restore_by_dicts(grid.leaf_view(), store, tuple(want))
            grid.post_grow()
            assert len(grids[0][0].growth_report.inserted) > 0
            for name in values:
                assert got[name].tobytes() == want[name].tobytes()
        ids = [grid.leaf_view().ids(0).tolist() for grid, _ in grids]
        assert ids[0] == ids[1]

    def test_misaligned_array_is_refused(self, chain4):
        from netmesh import DimensionMismatchError

        view = chain4.leaf_view()
        with pytest.raises(DimensionMismatchError, match="c has 5 values for 4 leaf elements"):
            store_leaf_data(chain4, view, {"c": np.zeros(5)})


def call_array_taker(function, grid, collar, a):
    """Call ``function``, one of the eight that take per-element arrays, with the arrays ``a``."""
    view, problem = grid.leaf_view(), VesselProblem()
    root = roots.RootProblem(collar_vertex_id=collar)
    state = FlowState(a["pressure"], a["concentration"], a["radius"])
    calls = {
        "assemble_pressure": lambda: assemble_pressure(view, problem, a["radius"]),
        "transport_step": lambda: transport_step(view, problem, state, 0.1),
        "total_amount": lambda: total_amount(view, state),
        "refinement_indicator": lambda: refinement_indicator(view, a["concentration"]),
        "store_leaf_data": lambda: store_leaf_data(grid, view, {"pressure": a["pressure"]}),
        "assemble_solve_root_pressure":
            lambda: roots.assemble_solve_root_pressure(root, view, a["k_x"], a["k_r"], a["radius"]),
        "total_uptake": lambda: roots.total_uptake(root, view, a["p"], a["k_r"], a["radius"]),
        "collar_flux": lambda: roots.collar_flux(root, view, a["p"], a["k_x"]),
    }
    return calls[function]()


class TestElementArrays:
    VALUES = {"radius": 1e-3, "pressure": 0.0, "concentration": 0.5, "p": -1e5,
              "k_x": 4.32e-2, "k_r": 1.73e-4}

    @pytest.mark.parametrize("size", [3, 5, 1], ids=["n-1", "n+1", "1"])
    @pytest.mark.parametrize(
        "function,name",
        [
            ("assemble_pressure", "radius"),
            ("transport_step", "radius"),
            ("transport_step", "pressure"),
            ("transport_step", "concentration"),
            ("total_amount", "radius"),
            ("total_amount", "concentration"),
            ("refinement_indicator", "concentration"),
            ("store_leaf_data", "pressure"),
            ("assemble_solve_root_pressure", "k_x"),
            ("assemble_solve_root_pressure", "k_r"),
            ("assemble_solve_root_pressure", "radius"),
            ("total_uptake", "p"),
            ("total_uptake", "k_r"),
            ("total_uptake", "radius"),
            ("collar_flux", "p"),
            ("collar_flux", "k_x"),
        ],
    )
    def test_misaligned_array_is_refused_by_name(self, function, name, size):
        grid, collar = roots.build_vertical_root(4, 0.01)
        arrays = {key: np.full(4, value) for key, value in self.VALUES.items()}
        call_array_taker(function, grid, collar, arrays)  # aligned, the call returns
        arrays[name] = np.full(size, self.VALUES[name])
        with pytest.raises(DimensionMismatchError) as err:
            call_array_taker(function, grid, collar, arrays)
        assert str(err.value) == f"{name} has {size} values for 4 leaf elements"


class TestProblemSetup:
    def test_validate_reports_each_violation(self):
        problem = VesselProblem(viscosity=-1.0, gamma=1.0, sigma_c=1.5)
        with pytest.raises(ScenarioError, match="viscosity.*gamma.*sigma_c"):
            problem.validate()

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"l_p": -1.0}, "l_p must be nonnegative"),
            ({"d_e": -1e-3}, "d_e must be nonnegative"),
            ({"viscosity": math.nan}, "viscosity must be finite"),
            ({"tissue_pressure": math.inf}, "tissue_pressure must be finite"),
            ({"dirichlet_pressure": {3: math.nan}}, "boundary values must be finite"),
        ],
    )
    def test_validate_rejects_non_finite_and_negative_values(self, kwargs, message):
        with pytest.raises(ScenarioError, match=message):
            VesselProblem(**kwargs).validate()

    def test_validate_rejects_concentration_without_inflow(self):
        problem = VesselProblem()
        problem.dirichlet_concentration = {7: 1.0}
        with pytest.raises(ScenarioError, match=r"\[7\]"):
            problem.validate()

    def test_boundary_vertices_found_by_marker(self):
        grid = make_grid(
            1, 3,
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
            [(0, 1), (1, 2), (2, 3)],
            markers=[1, 2, 3],
        )
        view = grid.leaf_view()
        assert ids_with_marker(view, [1]) == {0}
        assert ids_with_marker(view, [3]) == {3}
        assert ids_with_marker(view, [2]) == set()
        assert ids_with_marker(view, [1, 3]) == {0, 3}

    def test_boundary_vertices_by_marker_make_no_entity_wrapper(self, monkeypatch):
        grid = make_grid(
            1, 3,
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
            [(0, 1), (1, 2), (2, 3)],
            markers=[1, 2, 3],
        )
        refine_all(grid, rounds=2)  # leaves read their level-0 root's marker
        view = grid.leaf_view()
        built = []
        init = topology._Entity.__init__

        def counting(entity, grid, level, slot, id=None):
            built.append(type(entity).__name__)
            init(entity, grid, level, slot, id)

        monkeypatch.setattr(topology._Entity, "__init__", counting)
        assert ids_with_marker(view, [1, 3]) == {0, 3}
        assert ids_with_marker(view, [2]) == set()
        assert built == []

    def test_problem_from_scenario_maps_tags_to_vertices(self):
        grid = make_grid(
            1, 3,
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
            [(0, 1), (1, 2), (2, 3)],
            markers=[1, 2, 3],
        )
        view = grid.leaf_view()
        scenario = Scenario(
            {
                "viscosity": "4e-3",
                "inflow_tags": "1",
                "inflow_velocity": "2.5",
                "outflow_tags": "3",
                "outflow_pressure": "0.5",
                "concentration_tags": "1",
                "concentration_value": "1.0",
            }
        )
        problem = problem_from_scenario(scenario.read(SCENARIO), view)
        assert problem.viscosity == 4e-3
        assert problem.neumann_velocity == {0: 2.5}
        assert problem.dirichlet_pressure == {3: 0.5}
        assert problem.dirichlet_concentration == {0: 1.0}

    def test_concentration_tags_must_be_inflow_tags(self, chain4):
        view = chain4.leaf_view()
        scenario = Scenario(
            {"inflow_tags": "1", "concentration_tags": "2", "concentration_value": "1"}
        )
        with pytest.raises(ScenarioError, match=r"\[2\]"):
            problem_from_scenario(read_scenario(scenario), view)
