import tracemalloc

import numpy as np
import pytest

import crossinglab.msa as msa
from crossinglab.errors import SeriesNotContracting
from crossinglab.msa import (
    MsaGrid,
    apply_K,
    connection_T_numeric,
    grid_phase,
    msa_solution,
    residual_norm,
    sampled_norm,
)
from crossinglab.oscillatory import omega_m
from crossinglab.potential import (
    PolynomialWindowed,
    find_crossings,
    model_from_config,
    phase_integral,
)
from crossinglab.propagator import fundamental_matrix
from crossinglab.quadrature import (_CUMULATIVE_BLOCK, RunningCumulative, accumulate_from,
                                    cumulative_uniform)


@pytest.fixture(scope="module")
def cubic_setup(tanh_cubed, tanh_cubed_catalog):
    h = 5e-3
    grid = MsaGrid.build(tanh_cubed, h, (-0.7, 0.7), 0.0)
    return tanh_cubed, tanh_cubed_catalog, h, grid


def apply_K_series(grid, eps, which, depth):
    """w1 or w2 from the explicit lab-frame composition of ``apply_K``,
    based at the first node."""
    a = grid.ends[0]
    s = +1 if which == "w1" else -1
    f = grid.u(s)
    lead, other = f.copy(), np.zeros_like(f)
    for _ in range(depth):
        g = apply_K(grid, -s, a, f)
        other += g
        f = eps**2 * apply_K(grid, s, a, g)
        lead += f
    return (lead, -eps * other) if which == "w1" else (-eps * other, lead)


class TestGridPhase:
    """The grid phase runs outward from the node nearest t_ref."""

    H = 2e-4

    @pytest.mark.parametrize("m", [2, 3])
    def test_zero_at_t_ref_node(self, m):
        """Criterion 5's grids: exactly 0 at t_ref, where accumulating from
        the grid's start left ~1e-15 and ~1e-14."""
        model = PolynomialWindowed([0.0] * m + [1.0], window=3.0, sharpness=8.0)
        grid = MsaGrid.build(model, self.H, (-1.2, 1.2), 0.0)
        phase = grid_phase(model, grid.points, 0.0)
        assert np.array_equal(grid.u_plus, np.exp(np.multiply(phase / self.H, -1j)))
        assert phase[grid.index(0.0)] == 0.0
        for t in (-1.2, -0.3, 0.6, 1.2):
            assert abs(phase[grid.index(t)] - phase_integral(model, 0.0, t)) < 1e-13

    @pytest.mark.parametrize("t_ref", [0.0, 1.3e-4])
    def test_t_ref_inside(self, tanh_cubed, t_ref):
        grid = MsaGrid.build(tanh_cubed, 5e-3, (-0.7, 0.7), t_ref, n=4201)
        phase = grid_phase(tanh_cubed, grid.points, t_ref)
        i = int(np.argmin(np.abs(grid.points - t_ref)))
        assert phase[i] == phase_integral(tanh_cubed, t_ref, grid.points[i])
        for t in (-0.7, 0.7):
            assert abs(phase[grid.index(t)] - phase_integral(tanh_cubed, t_ref, t)) < 1e-13

    @pytest.mark.parametrize("interval, t_ref", [
        ((-0.7, 0.7), -0.7), ((0.7, -0.7), 0.7),       # at the start
        ((-0.7, 0.7), 0.7),                             # at the end
        ((-0.7, 0.7), -1.0), ((-0.7, 0.7), 1.0)])       # outside
    def test_t_ref_at_an_end_or_outside(self, tanh_cubed, interval, t_ref):
        """From the nearer end; from the start it is the grid's cumulative
        integral plus the phase up to the start, bit for bit (osc_integral's
        grids)."""
        grid = MsaGrid.build(tanh_cubed, 5e-3, interval, t_ref, n=4201)
        phase = grid_phase(tanh_cubed, grid.points, t_ref)
        values = np.real(tanh_cubed.eval(grid.points))
        end = int(np.argmin(np.abs(grid.points[[0, -1]] - t_ref))) * (len(grid.points) - 1)
        assert phase[end] == phase_integral(tanh_cubed, t_ref, grid.points[end])
        if end == 0:
            want = cumulative_uniform(values, grid.dx) + phase_integral(
                tanh_cubed, t_ref, grid.points[0])
            assert phase.tobytes() == want.tobytes()
        for i in (0, len(grid.points) // 3, len(grid.points) - 1):
            want = phase_integral(tanh_cubed, t_ref, grid.points[i])
            assert abs(phase[i] - want) < 1e-13

    @pytest.mark.parametrize("t_ref", [-0.7, 0.1, 0.7])
    def test_blocks_are_the_whole_array(self, tanh_cubed, t_ref):
        """V a block at a time, each after the last block's halo, gives the
        whole-array rule's phase bit for bit, across block ends."""
        n = 2 * _CUMULATIVE_BLOCK + 3
        points = np.linspace(-0.7, 0.7, n)
        dx = (points[-1] - points[0]) / (n - 1)
        origin = int(round((t_ref - points[0]) / dx))
        want = np.empty(n)
        RunningCumulative(dx).increments(np.real(tanh_cubed.eval(points)), want[1:], last=True)
        accumulate_from(want, origin)
        want += phase_integral(tanh_cubed, t_ref, points[origin])
        assert grid_phase(tanh_cubed, points, t_ref).tobytes() == want.tobytes()


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
            val = apply_K(g, +1, -0.7, g.u(-1)) / g.u_plus
            scaled.append(float(np.max(np.abs(val))) * h ** (m / (m + 1)))
        assert max(scaled) / min(scaled) < 2.0

    def test_interval_without_zero_improves(self, tanh_cubed):
        """Away from the zero the oscillatory gain drops to O(1)."""
        h_values = (8e-3, 4e-3, 2e-3)
        sups = []
        for h in h_values:
            g = MsaGrid.build(tanh_cubed, h, (0.3, 0.9), 0.0)
            val = apply_K(g, +1, 0.3, g.u(-1)) / g.u_plus
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
            out = apply_K(g, +1, -0.7, g.u(-1) * f) / g.u_plus
            ratios.append(sampled_norm(g, out, q) / sampled_norm(g, f, q)
                          * h ** (m / (m + 1)))
        assert max(ratios) / min(ratios) < 3.0


    def test_interior_node_base_point(self, cubic_setup):
        """A base point at any node but the first raises before any
        grid-sized work."""
        _, _, _, grid = cubic_setup
        f = grid.u(-1)
        for a in grid.points[[1, len(f) // 3, -1]]:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="first node"):
                    apply_K(grid, +1, a, f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.1 * grid.u_plus.nbytes

    @pytest.mark.parametrize("offset", [1.0 / 3.0, -0.5, 1e-4])
    def test_off_grid_base_point_raises(self, cubic_setup, offset):
        _, _, _, grid = cubic_setup
        with pytest.raises(ValueError, match="not a node"):
            apply_K(grid, +1, -0.7 + offset * grid.dx, grid.u(-1))


class TestMsaSolution:
    def test_eps_zero_is_free(self, cubic_setup):
        model, _, h, grid = cubic_setup
        sol = msa_solution(grid, 0.0, "w1", -0.7, -0.7, depth=2)
        assert np.array_equal(sol.comp1, grid.u_plus)
        assert not np.any(sol.comp2)

    def test_depth_one_matches_manual_composition(self, cubic_setup):
        """depth=1 reproduces u^+ + eps^2 K^+ K^- u^+ and -eps K^- u^+."""
        model, _, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        sol = msa_solution(grid, eps, "w1", -0.7, -0.7, depth=1)
        g1 = apply_K(grid, -1, -0.7, grid.u_plus)
        comp1 = grid.u_plus + eps**2 * apply_K(grid, +1, -0.7, g1)
        comp2 = -eps * g1
        assert np.max(np.abs(sol.comp1 - comp1)) < 1e-12
        assert np.max(np.abs(sol.comp2 - comp2)) < 1e-12

    @pytest.mark.parametrize("bases", ["left", "right", "interior"])
    @pytest.mark.parametrize("which", ["w1", "w2"])
    def test_full_depth_matches_apply_K(self, cubic_setup, which, bases):
        """depth=3 reproduces the explicit apply_K composition from the
        first node; from the last node or from two interior nodes the
        solution and apply_K both refuse to run."""
        model, _, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        n = len(grid.points)
        a_plus, a_minus = {"left": (-0.7, -0.7), "right": (0.7, 0.7),
                           "interior": (grid.points[n // 3], grid.points[2 * n // 3])}[bases]
        if bases != "left":
            with pytest.raises(ValueError, match="first node"):
                msa_solution(grid, eps, which, a_plus, a_minus, depth=3)
            for a in (a_plus, a_minus):
                with pytest.raises(ValueError, match="first node"):
                    apply_K(grid, +1, a, grid.u_plus)
            return
        sol = msa_solution(grid, eps, which, a_plus, a_minus, depth=3)
        comp1, comp2 = apply_K_series(grid, eps, which, 3)
        assert np.max(np.abs(sol.comp1 - comp1)) < 1e-12
        assert np.max(np.abs(sol.comp2 - comp2)) < 1e-12

    @pytest.mark.parametrize("which, depth", [("w3", 3), ("w1", 0)])
    def test_arguments_checked_before_the_grid(self, cubic_setup, monkeypatch,
                                               which, depth):
        """A bad ``which`` or ``depth`` raises before the series runs on the grid."""
        grid = cubic_setup[3]
        runs = []
        monkeypatch.setattr(msa, "_series", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match="which|depth"):
            msa_solution(grid, 0.01, which, -0.7, -0.7, depth=depth)
        assert runs == []

    def test_base_point_normalization(self, cubic_setup):
        """(u^+, 0) and (0, u^-) at the base node, exactly: every term of
        the series is 0 there."""
        model, _, h, grid = cubic_setup
        eps = 0.03 * h**0.75
        w1 = msa_solution(grid, eps, "w1", -0.7, -0.7, depth=3)
        w2 = msa_solution(grid, eps, "w2", -0.7, -0.7, depth=3)
        # -0.7 is the first node
        assert (w1.comp1[0], w1.comp2[0]) == (grid.u_plus[0], 0.0)
        assert (w2.comp1[0], w2.comp2[0]) == (0.0, np.conj(grid.u_plus[0]))

    def test_conjugation_symmetry(self, cubic_setup):
        """Structure symmetry: flip(conj(w2)) = w1 with matching bases."""
        model, _, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        w1 = msa_solution(grid, eps, "w1", -0.7, -0.7, depth=3)
        w2 = msa_solution(grid, eps, "w2", -0.7, -0.7, depth=3)
        assert np.max(np.abs(np.conj(w2.comp2) - w1.comp1)) < 1e-10
        assert np.max(np.abs(-np.conj(w2.comp1) - w1.comp2)) < 1e-10

    def test_residual_of_equation(self, cubic_setup):
        model, _, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        sol = msa_solution(grid, eps, "w1", -0.7, -0.7, depth=3)
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
        sol = msa_solution(grid, eps, "w1", -0.7, -0.7, depth=3)
        left = grid.points < -0.35
        bound = 1.0 / float(np.min(np.abs(np.real(model.eval(grid.points[left])))))
        assert np.max(np.abs(sol.comp2[left])) < 2.0 * bound * eps
        assert np.max(np.abs(sol.comp1[left] - grid.u_plus[left])) \
            < 2.0 * bound * eps**2 / h

    @pytest.mark.parametrize("which", ["w1", "w2"])
    @pytest.mark.parametrize("off", ["plus", "minus"])
    def test_off_grid_base_points_raise(self, cubic_setup, which, off):
        model, _, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        bases = {"plus": -0.7, "minus": -0.7}
        bases[off] += 0.5 * grid.dx
        with pytest.raises(ValueError, match="not a node"):
            msa_solution(grid, eps, which, bases["plus"], bases["minus"],
                         depth=1)

    @pytest.mark.parametrize("which", ["w1", "w2"])
    @pytest.mark.parametrize("off", ["plus", "minus"])
    def test_other_base_nodes_raise(self, cubic_setup, monkeypatch, which, off):
        """Either base point at a node past the first raises before the
        series runs on the grid."""
        grid = cubic_setup[3]
        runs = []
        monkeypatch.setattr(msa, "_series", lambda *args: runs.append(args))
        bases = {"plus": -0.7, "minus": -0.7}
        for node in (1, len(grid.u_plus) - 1):
            bases[off] = grid.points[node]
            with pytest.raises(ValueError, match="first node"):
                msa_solution(grid, 0.01, which, bases["plus"], bases["minus"])
        assert runs == []

    def test_not_contracting_raises(self, tanh_cubed):
        h = 5e-3
        grid = MsaGrid.build(tanh_cubed, h, (-0.7, 0.7), 0.0)
        eps = 3.0 * h**0.75  # mu = 3, deep outside the diabatic regime
        with pytest.raises(SeriesNotContracting):
            msa_solution(grid, eps, "w1", -0.7, -0.7, depth=6)


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
        w1 = msa_solution(grid, eps, "w1", -0.7, -0.7, depth=3)
        w2 = msa_solution(grid, eps, "w2", -0.7, -0.7, depth=3)
        assert np.array_equal(w2.comp1, -np.conj(w1.comp2))
        assert np.array_equal(w2.comp2, np.conj(w1.comp1))
        assert w2.truncation_estimate == w1.truncation_estimate
        # diag(u^-, u^+) @ [w1 w2], entry by entry
        u_m, u_p = grid.u(-1)[-1], grid.u_plus[-1]
        explicit = np.array([[u_m * w1.comp1[-1], u_m * w2.comp1[-1]],
                             [u_p * w1.comp2[-1], u_p * w2.comp2[-1]]])
        t_mat = connection_T_numeric(model, eps, h, 0, -0.7, 0.7, catalog=cat, grid=grid)
        assert np.array_equal(t_mat, explicit)

    def test_depth_zero_raises(self, cubic_setup):
        model, cat, h, grid = cubic_setup
        with pytest.raises(ValueError, match="depth"):
            connection_T_numeric(model, 0.01, h, 0, -0.7, 0.7, depth=0, catalog=cat,
                                 grid=grid)

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

    def test_grid_for_another_h_or_model_raises(self, cubic_setup):
        """A grid carries its h and model; the series would silently run at
        the grid's own h or on the grid's own V."""
        model, cat, h, grid = cubic_setup
        eps = 0.05 * h**0.75
        with pytest.raises(ValueError, match="h="):
            connection_T_numeric(model, eps, 2.0 * h, 0, -0.7, 0.7, catalog=cat, grid=grid)
        twin = model_from_config(model.to_config())
        with pytest.raises(ValueError, match="another model"):
            connection_T_numeric(twin, eps, h, 0, -0.7, 0.7, catalog=cat, grid=grid)

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
        w1l = msa_solution(grid, eps, "w1", -0.7, -0.7, depth=3)
        # -0.7 and 0.7 are the grid's end nodes
        psi_l = np.array([w1l.comp1[0], w1l.comp2[0]])
        psi_r = fundamental_matrix(model, eps, h, -0.7, 0.7, tol=1e-12) @ psi_l
        msa_vals = np.array([w1l.comp1[-1], w1l.comp2[-1]])
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
            val = eps * apply_K(grid, +1, -0.7, grid.u(-1))[-1] * grid.u(-1)[-1]
            devs.append(abs(val - 1j * mu_val * w) / mu_val)
        slope = np.polyfit(np.log(hs), np.log(devs), 1)[0]
        assert slope >= 1.0 / 4.0 - 0.1


def check_streamed(model, cat, grid, eps, depth):
    """The streamed w1 and w2 against the explicit apply_K composition (they
    differ by a few roundings, ~6e-16 here), and the connection's matrix
    against their last node, bit for bit."""
    w1, w2 = (msa_solution(grid, eps, which, grid.ends[0], grid.ends[0], depth=depth)
              for which in ("w1", "w2"))
    for sol, which in ((w1, "w1"), (w2, "w2")):
        comp1, comp2 = apply_K_series(grid, eps, which, depth)
        assert np.max(np.abs(sol.comp1 - comp1)) < 1e-14
        assert np.max(np.abs(sol.comp2 - comp2)) < 1e-14
    u_m, u_p = grid.u(-1)[-1], grid.u_plus[-1]
    explicit = np.array([[u_m * w1.comp1[-1], u_m * w2.comp1[-1]],
                         [u_p * w1.comp2[-1], u_p * w2.comp2[-1]]])
    t_mat = connection_T_numeric(model, eps, grid.h, 0, *grid.ends, depth=depth,
                                 catalog=cat, grid=grid)
    assert np.array_equal(t_mat, explicit)


class TestStreamedSeries:
    """The one streamed pass: the solutions it writes are the explicit
    apply_K composition, and the connection's end values are their last
    node, bit for bit, on criterion 5's grids and on short and ragged ones."""

    H = 2e-4

    @pytest.fixture(scope="class", params=[2, 3], ids=["m2", "m3"])
    def criterion_grid(self, request):
        m = request.param
        model = PolynomialWindowed([0.0] * m + [1.0], window=3.0, sharpness=8.0)
        grid = MsaGrid.build(model, self.H, (-1.2, 1.2), 0.0)
        # the grid ends part way through a block
        assert len(grid.u_plus) % _CUMULATIVE_BLOCK not in (0, 1)
        return m, model, find_crossings(model), grid

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_end_sums_are_the_series_at_the_last_node(self, criterion_grid, depth):
        m, model, cat, grid = criterion_grid
        eps = 0.05 * self.H ** (m / (m + 1.0))
        check_streamed(model, cat, grid, eps, depth)

    @pytest.mark.parametrize("n", [6, 7, 12, _CUMULATIVE_BLOCK + 1, 2 * _CUMULATIVE_BLOCK + 3])
    def test_end_sums_on_short_and_ragged_grids(self, tanh_cubed, tanh_cubed_catalog, n):
        """Grids that end within the first block, or one or three nodes past
        a block, at depths 1 to 4."""
        grid = MsaGrid.build(tanh_cubed, 5e-3, (-0.7, 0.7), 0.0, n=n)
        eps = 0.05 * 5e-3 ** 0.75
        for depth in (1, 2, 3, 4):
            check_streamed(tanh_cubed, tanh_cubed_catalog, grid, eps, depth)

    @pytest.mark.parametrize("mu_val", [3.0, 1e150], ids=["mu3", "overflowing"])
    def test_not_contracting_raises(self, tanh_cubed, tanh_cubed_catalog, mu_val):
        """Past the diabatic regime the connection raises SeriesNotContracting
        and nothing else, not even when the terms overflow (warnings are
        errors here)."""
        h = 5e-3
        grid = MsaGrid.build(tanh_cubed, h, (-0.7, 0.7), 0.0)
        with pytest.raises(SeriesNotContracting, match="not contracting"):
            connection_T_numeric(tanh_cubed, mu_val * h ** 0.75, h, 0, -0.7, 0.7, depth=6,
                                 catalog=tanh_cubed_catalog, grid=grid)


class TestCosts:
    """The criterion-5 grids: V once per node, and few grid-sized arrays."""

    H = 2e-4

    @pytest.fixture(scope="class")
    def cubic_window(self):
        model = PolynomialWindowed([0, 0, 0, 1.0], window=3.0, sharpness=8.0)
        return model, find_crossings(model)

    def test_one_evaluation_per_node(self, cubic_window, monkeypatch):
        """Outside phase_integral the build evaluates V on the grid and the
        512-point probe that sizes it, nothing more; phase_integral, from
        t_ref to the nearest node, evaluates nothing when t_ref is a node."""
        model, _ = cubic_window
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
        for t_ref, integrated in ((0.0, False), (0.3e-5, True)):
            counts = {"build": 0, "phase_integral": 0}
            where = ["build"]
            grid = MsaGrid.build(Spy(), self.H, (-1.2, 1.2), t_ref)
            assert (counts["phase_integral"] > 0) == integrated
            assert counts["build"] <= len(grid.points) + 512

    def test_build_peak_memory(self, cubic_window):
        model, _ = cubic_window
        tracemalloc.start()
        try:
            grid = MsaGrid.build(model, self.H, (-1.2, 1.2), 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * grid.u_plus.nbytes

    def test_grid_holds_only_u_plus(self, cubic_window):
        """u^- and the nodes are formed on demand: the grid's arrays are u^+."""
        model, _ = cubic_window
        grid = MsaGrid.build(model, self.H, (-1.2, 1.2), 0.0)
        held = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
        assert sum(v.nbytes for v in held) == grid.u_plus.nbytes
        assert np.array_equal(grid.points, np.linspace(-1.2, 1.2, len(grid.u_plus)))
        assert np.array_equal(grid.u(-1), np.conj(grid.u_plus))

    def test_connection_peak_memory(self, cubic_window):
        """One pass over blocks: a few blocks of samples and nothing
        grid-sized, so a grid of four times the nodes takes no more bytes
        (to 1%: a call's own small objects vary by a few hundred bytes)."""
        model, cat = cubic_window
        eps = 0.05 * self.H ** 0.75
        peaks = []
        for n in (None, 4 * 207360 + 1):
            grid = MsaGrid.build(model, self.H, (-1.2, 1.2), 0.0, n=n)
            if n is None:
                assert len(grid.u_plus) == 207361
                bound = 0.1 * grid.u_plus.nbytes
            tracemalloc.start()
            try:
                connection_T_numeric(model, eps, self.H, 0, -1.2, 1.2, catalog=cat, grid=grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= bound
        assert peaks[1] <= 1.01 * peaks[0]

    @pytest.mark.parametrize("which, bases", [
        ("w1", (-1.2, -1.2)), ("w1", (0.0, 0.6)), ("w2", (-1.2, -1.2)), ("w2", (0.6, 0.0)),
    ], ids=["left", "interior", "w2_left", "w2_interior"])
    def test_solution_peak_memory(self, cubic_window, which, bases):
        """The two components and a few blocks of the streamed pass; w2 runs
        its series on u^+ too and holds no u^- array.  Interior bases raise
        before anything grid-sized is made."""
        model, _ = cubic_window
        grid = MsaGrid.build(model, self.H, (-1.2, 1.2), 0.0)
        tracemalloc.start()
        try:
            if bases[0] == -1.2:
                msa_solution(grid, 0.05 * self.H ** 0.75, which, *bases)
                bound = 2.2 * grid.u_plus.nbytes
            else:
                with pytest.raises(ValueError, match="first node"):
                    msa_solution(grid, 0.05 * self.H ** 0.75, which, *bases)
                bound = 0.01 * grid.u_plus.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
