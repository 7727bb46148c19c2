import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from crossinglab.potential import (
    PolynomialWindowed,
    ScaledTanhProduct,
    find_crossings,
    regularized_action,
)
from crossinglab import propagator, scattering
from crossinglab.quadrature import integrate_panels
from crossinglab.su2 import dense
from crossinglab.transfer import end_connectors
from crossinglab.scattering import (
    JostAngles,
    _oscillatory_tail,
    _panel_tail,
    _series_tail,
    herm_phase_exp,
    jost_basis,
    landau_zener_probability,
    scattering_matrix,
)

# x + x^3/5 clamped to |x| <= 2: one crossing, V_r = -V_l = 3.6
CUBIC_WINDOWED = PolynomialWindowed([0.0, 1.0, 0.0, 0.2], window=2.0)
# 3x - x^3/9 clamped to |x| <= 3: p'(3) = 0, so V - V_inf is quadratic in the
# clamp's distance from the window edge and rounds to zero at Jost anchors
FLAT_EDGE = PolynomialWindowed([0.0, 3.0, 0.0, -1.0 / 9.0], window=3.0)


def _flat_edge_tail(side, t_eval, omega):
    """The FLAT_EDGE tail integral with V - V_inf computed without cancellation.

    On the right, with d = 3 - clamp(s) > 0, p(3 - d) - p(3) = -d^2 + d^3/9
    exactly; V is odd, so the left side is the mirror image with a sign flip.
    """
    beta = FLAT_EDGE.clamp.beta

    def f(s):
        x = np.abs(s)
        d = (np.log1p(np.exp(-beta * (x - 3.0))) - np.log1p(np.exp(-beta * (x + 3.0)))) / beta
        return (-d * d + d**3 / 9.0) * np.sign(s)

    # from t_eval -/+ 10 to t_eval on the panel rule of _panel_tail: at most
    # 0.5 rad of phase per panel, none wider than 0.5
    lo = t_eval if side == "right" else t_eval - 10.0
    edges = np.linspace(lo, lo + 10.0, max(math.ceil(abs(omega) * 10.0 / 0.5), 20) + 1)
    value = integrate_panels(lambda s: f(s) * np.exp(1j * omega * s), edges)
    return -value if side == "right" else value


class TestJostAngles:
    def test_half_angle_identity(self):
        """tan(2 theta) = eps / V for the stable arctan form."""
        for v, eps in [(1.0, 0.3), (8.0, 0.05), (0.5, 0.01)]:
            th = JostAngles.for_side(v, eps).angle
            assert math.tan(2 * th) == pytest.approx(eps / v, rel=1e-12)
            assert 0 < th < math.pi / 4

    def test_eps_zero(self):
        assert JostAngles.for_side(2.0, 0.0).angle == 0.0

    def test_negative_limit_uses_magnitude(self):
        th = JostAngles.for_side(-2.0, 0.1).angle
        assert math.tan(2 * th) == pytest.approx(0.1 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("v_inf", [1.0, -0.3])
    @pytest.mark.parametrize("eps", [3e-9, 1e-8, 1e-6, 0.1, 3.0])
    def test_small_eps_without_cancellation(self, v_inf, eps):
        """The angle is half of atan2(eps, |V_inf|) to rounding, also where
        lam - |V_inf| cancels to nothing."""
        th = JostAngles.for_side(v_inf, eps).angle
        assert th == pytest.approx(0.5 * math.atan2(eps, abs(v_inf)), rel=1e-13)


class TestHermExp:
    def test_against_expm(self, rng):
        for _ in range(20):
            x = float(rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            h = float(rng.uniform(0.05, 1.0))
            lhs = dense(*herm_phase_exp(x, b, h))
            rhs = expm(-1j * np.array([[x, b], [np.conj(b), -x]]) / h)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_zero_matrix(self):
        assert np.array_equal(dense(*herm_phase_exp(0.0, 0.0, 0.3)), np.eye(2))


class TestJostBasis:
    def test_constant_potential_is_free(self):
        """V identically V_r beyond the window: the correction is identity."""
        model = PolynomialWindowed([1.0, 0.5], window=1.0)
        basis = dense(*jost_basis(model, 0.2, 0.1, "right", 25.0))
        angles = JostAngles.for_side(model.v_right, 0.2)
        from crossinglab.scattering import free_basis

        free = dense(*free_basis(angles, 0.1, 25.0))
        assert np.max(np.abs(basis - free)) < 1e-10

    def test_orthonormal_columns(self, tanh_cubed):
        basis = dense(*jost_basis(tanh_cubed, 0.1, 0.05, "right", 14.0))
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(2))) < 1e-10
        basis_l = dense(*jost_basis(tanh_cubed, 0.1, 0.05, "left", 14.0))
        assert np.max(np.abs(basis_l.conj().T @ basis_l - np.eye(2))) < 1e-10

    def test_eps_zero_diagonal(self, lz_windowed):
        basis = dense(*jost_basis(lz_windowed, 0.0, 0.1, "right", 14.0))
        assert abs(basis[1, 0]) == 0.0
        assert abs(basis[0, 1]) == 0.0
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-12


class TestScatteringMatrix:
    def test_landau_zener(self, lz_windowed):
        """The windowed linear model reproduces the exact formula."""
        for eps, h in [(0.1, 0.1), (0.2, 0.05), (0.05, 0.2)]:
            rep = scattering_matrix(lz_windowed, eps, h, tol=1e-9)
            assert rep.p_transition == pytest.approx(
                landau_zener_probability(eps, h), abs=1e-6)
            assert rep.unitarity_defect < 1e-8

    def test_no_crossing_no_transition(self):
        """Zero-free V: the adiabatic state never flips."""
        model = PolynomialWindowed([1.0, 0.0, 1.0], window=3.0)  # t^2 + 1 > 0
        rep0 = scattering_matrix(model, 0.0, 0.1, tol=1e-10)
        assert rep0.p_transition == pytest.approx(0.0, abs=1e-12)
        rep = scattering_matrix(model, 0.05, 0.1, tol=1e-10)
        assert rep.p_transition < 1e-3

    def test_truncation_independence(self, tanh_cubed):
        rep1 = scattering_matrix(tanh_cubed, 0.08, 0.09, tol=1e-10)
        rep2 = scattering_matrix(tanh_cubed, 0.08, 0.09, tol=1e-10,
                                 truncation=2.0 * rep1.truncation)
        assert abs(rep1.p_transition - rep2.p_transition) < 1e-7

    def test_unitary_s(self, tanh_pair):
        rep = scattering_matrix(tanh_pair, 0.06, 0.07, tol=1e-10)
        s = rep.s_matrix
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-8
        assert abs(abs(s[0, 0]) ** 2 + abs(s[1, 0]) ** 2 - 1.0) < 1e-8

    def test_report_serialization(self, tanh_cubed):
        rep = scattering_matrix(tanh_cubed, 0.05, 0.1, tol=1e-9)
        doc = rep.to_dict()
        assert set(doc) >= {"eps", "h", "P", "s_matrix", "unitarity_defect"}
        assert doc["P"] == rep.p_transition

    def test_needs_tails(self, lz_pure):
        with pytest.raises(ValueError):
            scattering_matrix(lz_pure, 0.1, 0.1)


class TestConnectors:
    def test_positive_limit_diagonal(self, tanh_pair):
        """sigma_n even keeps V_l > 0: diagonal connector with phase R/h."""
        cat = find_crossings(tanh_pair)
        h = 0.07
        _, left = end_connectors(tanh_pair, cat, h, anchors=(8.0, -8.0))
        mat = dense(*left)
        r_val = regularized_action(tanh_pair, "left", -8.0, catalog=cat)
        assert mat[0, 0] == pytest.approx(cmath.exp(-1j * r_val / h), rel=1e-12)
        assert mat[1, 1] == pytest.approx(cmath.exp(+1j * r_val / h), rel=1e-12)
        assert mat[0, 1] == 0.0 and mat[1, 0] == 0.0

    def test_negative_limit_antidiagonal(self, tanh_cubed):
        """sigma_n odd flips V_l < 0: antidiagonal connector."""
        cat = find_crossings(tanh_cubed)
        h = 0.07
        _, left = end_connectors(tanh_cubed, cat, h, anchors=(8.0, -8.0))
        mat = dense(*left)
        r_val = regularized_action(tanh_cubed, "left", -8.0, catalog=cat)
        assert mat[0, 1] == pytest.approx(-cmath.exp(-1j * r_val / h), rel=1e-12)
        assert mat[1, 0] == pytest.approx(cmath.exp(+1j * r_val / h), rel=1e-12)
        assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0

    def test_right_connector_structure_numerically(self, tanh_cubed):
        """Propagating the Jost pair back to the anchor exposes the gauge:
        off-diagonals O(eps), diagonal phase e^{-iR/h} with O(eps^2/h) error."""
        from crossinglab.propagator import fundamental_matrix

        h = 0.1
        cat = find_crossings(tanh_cubed)
        anchor = tanh_cubed.tail_anchor("right", 1e-6)
        r_r = regularized_action(tanh_cubed, "right", anchor, catalog=cat)
        offs, diags = [], []
        eps_values = [0.2, 0.1, 0.05]
        for eps in eps_values:
            rep = scattering_matrix(tanh_cubed, eps, h, tol=1e-10)
            basis = dense(*jost_basis(tanh_cubed, eps, h, "right", rep.truncation))
            back = fundamental_matrix(tanh_cubed, eps, h, rep.truncation, anchor,
                                      tol=1e-11) @ basis
            phase = cmath.exp(-1j * r_r / h)
            offs.append(abs(back[1, 0]))
            diags.append(abs(back[0, 0] / phase - 1.0))
        slope_off = np.polyfit(np.log(eps_values), np.log(offs), 1)[0]
        slope_diag = np.polyfit(np.log(eps_values), np.log(diags), 1)[0]
        assert slope_off > 0.85
        assert slope_diag > 1.6


def _tail_point(model, side, h):
    """A typical Jost anchor (tail envelope 1e-8) and the side's omega at eps = 0."""
    v_inf = model.v_right if side == "right" else model.v_left
    return v_inf, model.tail_anchor(side, 1e-8), 2.0 * abs(v_inf) / h


class TestOscillatoryTail:
    @pytest.mark.parametrize("family", ["tanh_cubed", "lz_windowed", "cubic_windowed"])
    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("h", [1e-1, 1e-2, 1e-3])
    def test_series_matches_panels(self, request, family, side, h):
        model = (CUBIC_WINDOWED if family == "cubic_windowed"
                 else request.getfixturevalue(family))
        v_inf, t_eval, omega = _tail_point(model, side, h)
        tail = _oscillatory_tail(model, side, v_inf, t_eval, omega, 1e-12)
        oracle = _panel_tail(model, side, v_inf, t_eval, omega, 1e-15)
        diff = abs(tail.value - oracle.value)
        assert tail.route == "series"
        assert diff / h <= 1e-12
        assert diff <= tail.bound <= 1e-12

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("h", [1.0, 1e-1, 1e-2, 1e-3])
    def test_bound_has_a_rounding_floor(self, side, h):
        """The jet of V - V_inf rounds to zero: the bound stays above the error."""
        v_inf, t_eval, omega = _tail_point(FLAT_EDGE, side, h)
        tail = _oscillatory_tail(FLAT_EDGE, side, v_inf, t_eval, omega, 1e-12)
        exact = _flat_edge_tail(side, t_eval, omega)
        assert tail.route == "series"
        assert abs(tail.value - exact) <= tail.bound <= 1e-15

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("h", [1.0, 1e-1])
    def test_rounding_floor_covers_the_panel_rule(self, side, h):
        """Where the panels' own rounding is below the floor, the floor covers them.

        At h <= 1e-2 the panel rule's rounding (1e-17 and more, from V - V_inf
        formed at |V| = 6) exceeds the floor and the tail itself (< 1e-20).
        """
        v_inf, t_eval, omega = _tail_point(FLAT_EDGE, side, h)
        tail = _oscillatory_tail(FLAT_EDGE, side, v_inf, t_eval, omega, 1e-12)
        oracle = _panel_tail(FLAT_EDGE, side, v_inf, t_eval, omega, 1e-15)
        assert tail.bound >= abs(tail.value - oracle.value)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_panel_bound_has_the_rounding_floor(self, tanh_pair, side):
        """At h = 1 the panel rule's rounding exceeds its truncation bound
        (1.9e-17); a finer 24-node rule differs from it by 2.1e-17."""
        v_inf, t_eval, omega = _tail_point(tanh_pair, side, 1.0)
        tail = _panel_tail(tanh_pair, side, v_inf, t_eval, omega, 1e-12)
        lo = t_eval if side == "right" else t_eval - 60.0
        finer = integrate_panels(lambda s: (np.real(tanh_pair.eval(s)) - v_inf)
                                 * np.exp(1j * omega * s),
                                 np.linspace(lo, lo + 60.0, 1001), order=24)
        finer = -finer if side == "right" else finer
        assert abs(tail.value - finer) > 1e-17
        assert abs(tail.value - finer) <= tail.bound <= 1e-15

    def test_fallback_at_small_omega(self, tanh_cubed):
        """At h = 1 omega equals the tail rate: the series diverges, panels answer."""
        v_inf, t_eval, omega = _tail_point(tanh_cubed, "right", 1.0)
        assert _series_tail(tanh_cubed, v_inf, t_eval, omega, 1e-12) is None
        tail = _oscillatory_tail(tanh_cubed, "right", v_inf, t_eval, omega, 1e-12)
        panels = _panel_tail(tanh_cubed, "right", v_inf, t_eval, omega, 1e-12)
        assert tail.route == "panels"
        assert tail.value == panels.value
        assert tail.bound == panels.bound <= 1e-12

    def test_cost_flat_in_h(self, tanh_pair, monkeypatch):
        """The Jost layer evaluates V at the same points for every h, with no panels."""
        points = []
        real_eval = tanh_pair.eval

        def counting_eval(t):
            points.append(np.size(t))
            return real_eval(t)

        def no_panels(*args, **kwargs):
            raise AssertionError("panel rule called")

        monkeypatch.setattr(tanh_pair, "eval", counting_eval)
        monkeypatch.setattr(scattering, "integrate_panels", no_panels)
        counts = []
        for h in (1e-2, 1e-4):
            points.clear()
            for side in ("right", "left"):
                jost_basis(tanh_pair, 0.05 * h**0.75, h, side, 14.0)
            counts.append(sum(points))
        assert counts[0] == counts[1] > 0

    def test_report_diagnostics(self, tanh_pair, tanh_pair_catalog):
        h, tol = 1e-3, 1e-9
        rep = scattering_matrix(tanh_pair, 0.05 * h**0.75, h, tol=tol,
                                catalog=tanh_pair_catalog)
        diag = rep.diagnostics
        assert diag["refinements"] >= 0
        assert 0.0 <= diag["norm_drift"] < 1e-10
        assert diag["tail_route"] == "series"
        assert 0.0 < diag["tail_bound"] <= tol * 1e-3
        assert diag["steps"] > 0 and diag["method"] == "magnus6"

    def test_report_counts_every_mesh_built(self, tanh_pair, tanh_pair_catalog):
        """The pilot pair and the sized mesh cost less than 1.6 final meshes."""
        h, tol = 1e-3, 1e-9
        rep = scattering_matrix(tanh_pair, 0.05 * h**0.75, h, tol=tol,
                                catalog=tanh_pair_catalog)
        diag = rep.diagnostics
        assert diag["steps"] < diag["steps_built"] <= 1.6 * diag["steps"]
        assert diag["richardson_error"] <= tol


THREE_CROSSINGS = ScaledTanhProduct(1.0, [
    {"power": 3, "slope": 1.0, "center": 4.2},
    {"power": 3, "slope": 1.0, "center": 0.0},
    {"power": 3, "slope": 1.0, "center": -3.1},
])


def _whole_line(model, eps, h, tol, catalog, truncation=None):
    """The scattering matrix by whole-line magnus6: the windows priced out."""
    return scattering._scattering_matrix(model, eps, h, tol, truncation, "magnus6", catalog,
                                         math.inf)


def _windowed(model, eps, h, tol, catalog, truncation=None):
    """The scattering matrix with the windows always planned: the whole line
    is taken only when the plan fails."""
    return scattering._scattering_matrix(model, eps, h, tol, truncation, "magnus6", catalog,
                                         0.0)


class TestRouteRule:
    @pytest.mark.parametrize("h", [0.1, 1e-2])
    def test_whole_line_where_its_steps_are_cheaper(self, tanh_pair, tanh_pair_catalog,
                                                     monkeypatch, h):
        """No plan, one density sample, and the predicted steps are the steps built."""
        def no_plan(*args, **kwargs):
            raise AssertionError("plan_windows was called")

        samples = []
        real = scattering._magnus6_density

        def counted(*args, **kwargs):
            samples.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scattering, "plan_windows", no_plan)
        monkeypatch.setattr(scattering, "_magnus6_density", counted)
        monkeypatch.setattr(propagator, "_magnus6_density", counted)
        rep = scattering_matrix(tanh_pair, 0.05 * h**0.75, h, tol=1e-9,
                                catalog=tanh_pair_catalog)
        diag = rep.diagnostics
        assert diag["route"] == "whole_line" and len(samples) == 1
        assert diag["predicted_steps"] == diag["steps_built"]
        assert diag["predicted_steps"] <= scattering.WINDOW_COST_STEPS * tanh_pair_catalog.n

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_windows_where_the_whole_line_costs_more(self, tanh_pair, tanh_pair_catalog, h):
        rep = scattering_matrix(tanh_pair, 0.05 * h**0.75, h, tol=1e-9,
                                catalog=tanh_pair_catalog)
        diag = rep.diagnostics
        assert diag["route"] == "windowed"
        assert diag["predicted_steps"] > scattering.WINDOW_COST_STEPS * tanh_pair_catalog.n

    @pytest.mark.parametrize("family, h, eps", [
        *(("pair", h, 0.05 * h**0.75) for h in (0.05, 0.03, 1e-2, 5e-3, 3e-3)),
        *(("lz", h, eps) for h in (0.1, 0.2) for eps in (0.05, 0.1, 0.2))])
    def test_whole_line_estimate_calibrated(self, tanh_pair, lz_windowed, family, h, eps):
        """On the rows the rule sends whole-line, error_estimate covers the
        difference of S from the same route at tol/1000, within a factor 10."""
        model = tanh_pair if family == "pair" else lz_windowed
        cat = find_crossings(model)
        tol = 1e-9
        rep = scattering_matrix(model, eps, h, tol=tol, catalog=cat)
        ref = _whole_line(model, eps, h, tol / 1000, cat, rep.truncation)
        assert rep.diagnostics["route"] == "whole_line"
        observed = float(np.max(np.abs(rep.s_matrix - ref.s_matrix)))
        assert observed <= rep.diagnostics["error_estimate"] <= 10.0 * observed


class TestWindowedRoute:
    @pytest.mark.parametrize("family, h", [
        ("pair", 1e-2), ("pair", 1e-3), ("pair", 1e-4), ("pair", 1e-5),
        ("three", 1e-2), ("three", 1e-3)])
    def test_agrees_with_whole_line(self, tanh_pair, family, h):
        model = tanh_pair if family == "pair" else THREE_CROSSINGS
        cat = find_crossings(model)
        eps, tol = 0.05 * h**0.75, 1e-7
        rep = _windowed(model, eps, h, tol, cat)
        ref = _whole_line(model, eps, h, tol / 100, cat, rep.truncation)
        diag = rep.diagnostics
        assert diag["route"] == "windowed" and ref.diagnostics["route"] == "whole_line"
        assert len(diag["windows"]) == cat.n
        assert abs(rep.p_transition - ref.p_transition) <= tol
        assert diag["richardson_error"] + diag["series_bound"] == diag["error_estimate"] <= tol

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("h", [0.05, 0.1, 0.2])
    def test_landau_zener(self, lz_windowed, eps, h):
        """Exact on the route the rule picks and on the windows."""
        cat = find_crossings(lz_windowed)
        windowed = _windowed(lz_windowed, eps, h, 1e-9, cat)
        assert windowed.diagnostics["route"] == "windowed"
        for rep in (scattering_matrix(lz_windowed, eps, h, tol=1e-9, catalog=cat), windowed):
            assert abs(rep.p_transition - landau_zener_probability(eps, h)) <= 1e-9

    def test_merged_windows_fall_back(self, tanh_pair, tanh_pair_catalog):
        """At h = 0.1 the windows around +-2 would meet: whole-line magnus6."""
        rep = _windowed(tanh_pair, 0.05 * 0.1**0.75, 0.1, 1e-9, tanh_pair_catalog)
        diag = rep.diagnostics
        assert diag["route"] == "whole_line"
        assert diag["windows"] == diag["window_steps"] == [] and diag["series_bound"] == 0.0
        assert diag["error_estimate"] == diag["richardson_error"] <= 1e-9

    def test_cost_flat_in_h(self, tanh_pair, tanh_pair_catalog):
        """The windows shrink as fast as the step density grows."""
        steps = []
        for h in (1e-3, 1e-5):
            rep = scattering_matrix(tanh_pair, 0.05 * h**0.75, h, tol=1e-9,
                                    catalog=tanh_pair_catalog)
            assert rep.diagnostics["route"] == "windowed"
            steps.append(rep.diagnostics["steps"])
        assert steps[1] <= 3 * steps[0]

    def test_windows_propagate_through_the_module_name(self, tanh_pair, tanh_pair_catalog,
                                                       monkeypatch):
        """Each window is one call of scattering.fundamental_matrix, whose
        diagnostics sum to the report's."""
        calls = []
        real = scattering.fundamental_matrix

        def spy(*args, **kwargs):
            mat = real(*args, **kwargs)
            calls.append((args[3], args[4], kwargs["tol"], kwargs["diagnostics"]))
            return mat

        monkeypatch.setattr(scattering, "fundamental_matrix", spy)
        h, tol = 1e-3, 1e-9
        rep = scattering_matrix(tanh_pair, 0.05 * h**0.75, h, tol=tol,
                                catalog=tanh_pair_catalog)
        diag = rep.diagnostics
        assert [[lo, hi] for lo, hi, _, _ in calls] == diag["windows"]
        for lo, hi, window_tol, _ in calls:
            assert lo < hi and window_tol == tol / 4
        assert diag["steps"] == sum(d.steps for *_, d in calls)
        assert diag["window_steps"] == [d.steps for *_, d in calls]
        assert diag["steps_built"] == sum(d.steps_built for *_, d in calls)
        assert diag["richardson_error"] == sum(d.richardson_error for *_, d in calls)
        assert 0.0 < diag["series_bound"] <= tol / 2

    def test_no_predictor_or_transfer(self):
        """The route stays independent of the closed-form side."""
        code = ("import sys, crossinglab.adiabatic, crossinglab.scattering; "
                "print(sorted(m for m in sys.modules if m in "
                "('crossinglab.predictor', 'crossinglab.transfer')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "[]"


class TestInputValidation:
    @pytest.mark.parametrize("eps, h, tol", [
        (0.01, -0.1, 1e-9), (0.01, 0.0, 1e-9), (0.01, 0.1, -1e-9), (math.nan, 0.1, 1e-9),
        (-0.01, 0.1, 1e-9), (0.01, math.inf, 1e-9), (0.01, math.nan, 1e-9),
        (0.01, 0.1, math.nan), (math.inf, 0.1, 1e-9)])
    def test_rejected_before_any_mesh(self, tanh_pair, monkeypatch, eps, h, tol):
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(scattering, "fundamental_matrix", no_mesh)
        monkeypatch.setattr(scattering, "plan_windows", no_mesh)
        with pytest.raises(ValueError, match=r"need h > 0, eps >= 0, tol > 0"):
            scattering_matrix(tanh_pair, eps, h, tol=tol)
