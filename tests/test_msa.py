import tracemalloc

import numpy as np
import pytest

import crossinglab.msa as msa
from crossinglab.errors import SeriesNotContracting
from crossinglab.msa import (
    MsaGrid,
    apply_K,
    connection_T_numeric,
    msa_solution,
    residual_norm,
    sampled_norm,
)
from crossinglab.oscillatory import omega_m
from crossinglab.potential import PolynomialWindowed, find_crossings
from crossinglab.propagator import propagate


@pytest.fixture(scope="module")
def cubic_setup(tanh_cubed, tanh_cubed_catalog):
    h = 5e-3
    grid = MsaGrid.build(tanh_cubed, h, (-0.7, 0.7), 0.0)
    return tanh_cubed, tanh_cubed_catalog, h, grid


class TestApplyK:
    def test_own_solution_identity(self, cubic_setup):
        """K_a^+(u^+) = (i/h)(t - a) u^+ since the integrand collapses to 1."""
        model, _, h, grid = cubic_setup
        out = apply_K(grid, +1, -0.7, grid.u_plus)
        expect = (1j / h) * (grid.points + 0.7) * grid.u_plus
        assert np.max(np.abs(out - expect)) < 1e-7 / h * 1e-3

    def test_opposite_solution_gain(self, cubic_setup):
        """Across the zero: sup of (u^+)^-1 K(u^-) is O(h^(-m/(m+1)))."""
        model, cat, _, _ = cubic_setup
        m = cat.m_star
        scaled = []
        for h in (8e-3, 4e-3, 2e-3, 1e-3):
            g = MsaGrid.build(model, h, (-0.7, 0.7), 0.0)
            val = apply_K(g, +1, -0.7, g.u_minus) / g.u_plus
            scaled.append(float(np.max(np.abs(val))) * h ** (m / (m + 1)))
        assert max(scaled) / min(scaled) < 2.0

    def test_interval_without_zero_improves(self, tanh_cubed):
        """Away from the zero the oscillatory gain drops to O(1)."""
        h_values = (8e-3, 4e-3, 2e-3)
        sups = []
        for h in h_values:
            g = MsaGrid.build(tanh_cubed, h, (0.3, 0.9), 0.0)
            val = apply_K(g, +1, 0.3, g.u_minus) / g.u_plus
            sups.append(float(np.max(np.abs(val))))
        assert max(sups) / min(sups) < 3.0  # no h^(-3/4) growth (would be ~2.8x)

    def test_norm_bound_prop(self, cubic_setup):
        """Operator norm * h^(m/(m+1)) stays bounded over an h ladder."""
        model, cat, _, _ = cubic_setup
        m = cat.m_star
        q = 1.0 / (m + 1)
        ratios = []
        for h in (8e-3, 4e-3, 2e-3, 1e-3):
            g = MsaGrid.build(model, h, (-0.7, 0.7), 0.0)
            f = np.cos(g.points) + 0.4
            out = apply_K(g, +1, -0.7, g.u_minus * f) / g.u_plus
            ratios.append(sampled_norm(g, out, q) / sampled_norm(g, f, q)
                          * h ** (m / (m + 1)))
        assert max(ratios) / min(ratios) < 3.0


    def test_interior_node_base_point(self, cubic_setup):
        """A base point inside the grid shifts the antiderivative's constant."""
        _, _, _, grid = cubic_setup
        i = len(grid.points) // 3
        from_end = apply_K(grid, +1, -0.7, grid.u_minus)
        from_node = apply_K(grid, +1, grid.points[i], grid.u_minus)
        assert from_node[i] == 0.0
        shift = (from_end - from_node) / grid.u_plus
        assert np.max(np.abs(shift - shift[0])) < 1e-9 * np.max(np.abs(shift))

    @pytest.mark.parametrize("offset", [1.0 / 3.0, -0.5, 1e-4])
    def test_off_grid_base_point_raises(self, cubic_setup, offset):
        _, _, _, grid = cubic_setup
        with pytest.raises(ValueError, match="not a node"):
            apply_K(grid, +1, -0.7 + offset * grid.dx, grid.u_minus)


    def test_buffers_are_bitwise(self, cubic_setup):
        """out and work buffers, out being f itself included, change no bit."""
        _, _, _, grid = cubic_setup
        f = grid.u_minus * np.cos(grid.points)
        want = apply_K(grid, +1, -0.7, f)
        out, work = np.empty_like(f), np.empty_like(f)
        assert apply_K(grid, +1, -0.7, f, out=out, work=work) is out
        assert out.tobytes() == want.tobytes()
        f_copy = f.copy()
        apply_K(grid, +1, -0.7, f_copy, out=f_copy, work=work)
        assert f_copy.tobytes() == want.tobytes()


class TestInterp:
    def test_exact_on_quintics_between_nodes(self, cubic_setup):
        _, _, _, grid = cubic_setup
        poly = np.polynomial.Polynomial([0.3, -1.0, 2.0, 0.5, -4.0, 1.5])
        t = np.array([-0.7, -0.7 + 0.3 * grid.dx, -0.1234, 0.0, 0.5678,
                      0.7 - 0.6 * grid.dx, 0.7])
        assert np.max(np.abs(grid.interp(poly(grid.points), t) - poly(t))) < 1e-12

    def test_outside_grid_raises(self, cubic_setup):
        _, _, _, grid = cubic_setup
        with pytest.raises(ValueError):
            grid.interp(grid.u_plus, 0.71)


class TestMsaSolution:
    def test_eps_zero_is_free(self, cubic_setup):
        model, _, h, grid = cubic_setup
        sol = msa_solution(model, 0.0, h, "w1", -0.7, -0.7, depth=2, grid=grid)
        assert np.array_equal(sol.comp1, grid.u_plus)
        assert not np.any(sol.comp2)

    def test_depth_one_matches_manual_composition(self, cubic_setup):
        """depth=1 reproduces u^+ + eps^2 K^+ K^- u^+ and -eps K^- u^+."""
        model, _, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        sol = msa_solution(model, eps, h, "w1", -0.7, -0.7, depth=1, grid=grid)
        g1 = apply_K(grid, -1, -0.7, grid.u_plus)
        comp1 = grid.u_plus + eps**2 * apply_K(grid, +1, -0.7, g1)
        comp2 = -eps * g1
        assert np.max(np.abs(sol.comp1 - comp1)) < 1e-12
        assert np.max(np.abs(sol.comp2 - comp2)) < 1e-12

    def test_base_point_normalization(self, cubic_setup):
        model, _, h, grid = cubic_setup
        eps = 0.03 * h**0.75
        w1 = msa_solution(model, eps, h, "w1", 0.7, 0.7, depth=3, grid=grid)
        vals = w1.at(0.7)
        assert vals[0] == pytest.approx(grid.u_plus[-1], rel=1e-10)
        assert abs(vals[1]) < 1e-10

    def test_conjugation_symmetry(self, cubic_setup):
        """Structure symmetry: flip(conj(w2)) = w1 with matching bases."""
        model, _, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        w1 = msa_solution(model, eps, h, "w1", -0.7, -0.7, depth=3, grid=grid)
        w2 = msa_solution(model, eps, h, "w2", -0.7, -0.7, depth=3, grid=grid)
        assert np.max(np.abs(np.conj(w2.comp2) - w1.comp1)) < 1e-10
        assert np.max(np.abs(-np.conj(w2.comp1) - w1.comp2)) < 1e-10

    def test_residual_of_equation(self, cubic_setup):
        model, _, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        sol = msa_solution(model, eps, h, "w1", -0.7, -0.7, depth=3, grid=grid)
        res = residual_norm(sol, eps)
        step_phase = float(np.max(np.abs(np.real(model.eval(grid.points))))
                           * (grid.points[1] - grid.points[0]) / h)
        floor = step_phase**2 + sol.truncation_estimate
        assert res < 50 * floor

    def test_one_sided_base_point_structure(self, cubic_setup):
        """Base points on the same side as t: second component O(eps),
        first u^+ + O(eps^2/h), away from the crossing (the constants carry
        1/min|V| over the interval)."""
        model, _, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        sol = msa_solution(model, eps, h, "w1", 0.7, 0.7, depth=3, grid=grid)
        right = grid.points > 0.35
        bound = 1.0 / float(np.min(np.abs(np.real(model.eval(grid.points[right])))))
        assert np.max(np.abs(sol.comp2[right])) < 2.0 * bound * eps
        assert np.max(np.abs(sol.comp1[right] - grid.u_plus[right])) \
            < 2.0 * bound * eps**2 / h

    @pytest.mark.parametrize("which", ["w1", "w2"])
    @pytest.mark.parametrize("off", ["plus", "minus"])
    def test_off_grid_base_points_raise(self, cubic_setup, which, off):
        model, _, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        bases = {"plus": -0.7, "minus": -0.7}
        bases[off] += 0.5 * grid.dx
        with pytest.raises(ValueError, match="not a node"):
            msa_solution(model, eps, h, which, bases["plus"], bases["minus"],
                         depth=1, grid=grid)

    def test_not_contracting_raises(self, tanh_cubed):
        h = 5e-3
        grid = MsaGrid.build(tanh_cubed, h, (-0.7, 0.7), 0.0)
        eps = 3.0 * h**0.75  # mu = 3, deep outside the diabatic regime
        with pytest.raises(SeriesNotContracting):
            msa_solution(tanh_cubed, eps, h, "w1", -0.7, -0.7, depth=6, grid=grid)


class TestConnection:
    def test_identity_at_eps_zero(self, cubic_setup):
        model, cat, h, grid = cubic_setup
        t_mat = connection_T_numeric(model, 0.0, h, 0, -0.7, 0.7, catalog=cat,
                                     grid=grid)
        assert np.max(np.abs(t_mat - np.eye(2))) < 1e-12

    def test_w2_by_symmetry_is_bitwise(self, cubic_setup):
        """w2 = J conj(w1) holds bitwise, so the matrix from w1 alone is the
        matrix from both explicit solves."""
        model, cat, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        w1 = msa_solution(model, eps, h, "w1", -0.7, -0.7, depth=3, grid=grid)
        w2 = msa_solution(model, eps, h, "w2", -0.7, -0.7, depth=3, grid=grid)
        assert np.array_equal(w2.comp1, -np.conj(w1.comp2))
        assert np.array_equal(w2.comp2, np.conj(w1.comp1))
        assert w2.truncation_estimate == w1.truncation_estimate
        # diag(u^-, u^+) @ [w1 w2], entry by entry
        u_m, u_p = grid.u_minus[-1], grid.u_plus[-1]
        explicit = np.array([[u_m * w1.comp1[-1], u_m * w2.comp1[-1]],
                             [u_p * w1.comp2[-1], u_p * w2.comp2[-1]]])
        t_mat = connection_T_numeric(model, eps, h, 0, -0.7, 0.7, catalog=cat, grid=grid)
        assert np.array_equal(t_mat, explicit)

    def test_su2_structure(self, cubic_setup):
        model, cat, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        t_mat = connection_T_numeric(model, eps, h, 0, -0.7, 0.7, catalog=cat,
                                     grid=grid)
        assert abs(t_mat[1, 1] - np.conj(t_mat[0, 0])) < 1e-9
        assert abs(t_mat[0, 1] + np.conj(t_mat[1, 0])) < 1e-9
        assert abs(abs(t_mat[0, 0]) ** 2 + abs(t_mat[1, 0]) ** 2 - 1.0) < 1e-8

    def test_offdiagonal_leading_term(self, cubic_setup):
        """T_21 approximates -i mu omega-bar with error O(mu^2 + mu h^(1/(m+1)))."""
        model, cat, h, grid = cubic_setup
        mu_val = 0.05
        eps = mu_val * h**0.75
        t_mat = connection_T_numeric(model, eps, h, 0, -0.7, 0.7, catalog=cat,
                                     grid=grid)
        w = omega_m(3, 6.0)
        lead = -1j * np.conj(w) * mu_val
        err = abs(t_mat[1, 0] - lead)
        envelope = mu_val**2 + mu_val * h ** 0.25
        assert err < envelope

    @pytest.mark.parametrize("interval, t_ref", [
        ((-0.9, 0.9), 0.0),
        ((-0.9, 0.7), 0.0),
        ((-0.7, 0.9), 0.0),
        ((-0.7, 0.7), 0.3),
    ], ids=["wider", "left_end", "right_end", "t_ref"])
    def test_mismatched_grid_raises(self, cubic_setup, interval, t_ref):
        model, cat, h, _ = cubic_setup
        grid = MsaGrid.build(model, h, interval, t_ref)
        with pytest.raises(ValueError, match="grid"):
            connection_T_numeric(model, 0.05 * h**0.75, h, 0, -0.7, 0.7,
                                 catalog=cat, grid=grid)

    def test_grid_refinement(self):
        """At a criterion-5 point the matrix is converged in the grid step."""
        model = PolynomialWindowed([0, 0, 1.0], window=3.0, sharpness=8.0)
        cat = find_crossings(model)
        h = 2e-4
        eps = 0.05 * h ** (2.0 / 3.0)
        grid = MsaGrid.build(model, h, (-1.2, 1.2), 0.0)
        fine = MsaGrid.build(model, h, (-1.2, 1.2), 0.0, n=2 * len(grid.points) - 1)
        t_mat, t_fine = (connection_T_numeric(model, eps, h, 0, -1.2, 1.2, catalog=cat,
                                              grid=g) for g in (grid, fine))
        assert np.max(np.abs(t_mat - t_fine)) < 1e-9

    def test_against_propagator_oracle(self, cubic_setup):
        """The same change of basis from the ODE integrator."""
        model, cat, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        w1l = msa_solution(model, eps, h, "w1", -0.7, -0.7, depth=3, grid=grid)
        psi_r = propagate(model, eps, h, -0.7, 0.7, w1l.at(-0.7), tol=1e-12)
        msa_vals = w1l.at(0.7)
        assert np.max(np.abs(psi_r - msa_vals)) < 1e-6

    def test_first_order_coupling_rate(self, tanh_cubed, tanh_cubed_catalog):
        """u^-(r) eps K_l^+ u^-(r) = i mu omega + O(mu h^(1/(m+1))): the
        relative deviation shrinks with h at fixed mu.  (The full transfer
        matrix is I - i mu T_sub; this entry enters with another sign flip.)"""
        mu_val = 0.05
        w = omega_m(3, 6.0)
        hs = np.array([1.6e-2, 8e-3, 4e-3, 2e-3])
        devs = []
        for h in hs:
            eps = mu_val * h**0.75
            grid = MsaGrid.build(tanh_cubed, h, (-0.7, 0.7), 0.0)
            val = eps * apply_K(grid, +1, -0.7, grid.u_minus)[-1] * grid.u_minus[-1]
            devs.append(abs(val - 1j * mu_val * w) / mu_val)
        slope = np.polyfit(np.log(hs), np.log(devs), 1)[0]
        assert slope >= 1.0 / 4.0 - 0.1


class TestCosts:
    """The criterion-5 grids: V once per node, and few grid-sized arrays."""

    H = 2e-4

    @pytest.fixture(scope="class")
    def cubic_window(self):
        model = PolynomialWindowed([0, 0, 0, 1.0], window=3.0, sharpness=8.0)
        return model, find_crossings(model)

    def test_one_evaluation_per_node(self, cubic_window, monkeypatch):
        """Outside phase_integral the build evaluates V on the grid and the
        512-point probe that sizes it, nothing more."""
        model, _ = cubic_window
        counts = {"build": 0, "phase_integral": 0}
        where = ["build"]
        phase_integral = msa.phase_integral

        class Spy:
            def eval(self, t):
                counts[where[-1]] += np.size(t)
                return model.eval(t)

        def spied_phase_integral(spy, a, b):
            where.append("phase_integral")
            try:
                return phase_integral(spy, a, b)
            finally:
                where.pop()

        monkeypatch.setattr(msa, "phase_integral", spied_phase_integral)
        grid = MsaGrid.build(Spy(), self.H, (-1.2, 1.2), 0.0)
        assert counts["phase_integral"] > 0
        assert counts["build"] <= len(grid.points) + 512

    def test_build_peak_memory(self, cubic_window):
        model, _ = cubic_window
        tracemalloc.start()
        try:
            grid = MsaGrid.build(model, self.H, (-1.2, 1.2), 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * grid.u_plus.nbytes

    def test_connection_peak_memory(self, cubic_window):
        """The Neumann terms reuse their buffers: no temporaries per apply_K."""
        model, cat = cubic_window
        grid = MsaGrid.build(model, self.H, (-1.2, 1.2), 0.0)
        tracemalloc.start()
        try:
            connection_T_numeric(model, 0.05 * self.H ** 0.75, self.H, 0, -1.2, 1.2,
                                 catalog=cat, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * grid.u_plus.nbytes
