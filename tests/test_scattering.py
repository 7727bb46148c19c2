import cmath
import math
import os
import pickle
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
from crossinglab.potential.catalog import TAIL_LEVEL
from crossinglab import adiabatic, propagator, quadrature, scattering
from crossinglab.quadrature import gauss_legendre, integrate_panels
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
        edges = np.linspace(lo, lo + 60.0, 1001)
        half = 0.5 * np.diff(edges)
        x, w = gauss_legendre(24)
        s = ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * x).ravel()
        vals = (np.real(tanh_pair.eval(s)) - v_inf) * np.exp(1j * omega * s)
        finer = np.sum(vals.reshape(half.size, x.size) @ w * half).item()
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


def _line_keys(T, level):
    """Memo keys of what numeric scattering at truncation T keeps, with its
    anchors sought at the tail envelope ``level``."""
    return {("anchor", "right", level), ("anchor", "left", level), ("tail", "right", T),
            ("tail", "left", -T), ("jet", "right", T), ("jet", "left", T), ("density", T)}


class TestLineData:
    """The catalog's memo keeps the Jost tails' data at +-T and the
    whole-line density samples; later rows at that T read them."""

    @pytest.mark.parametrize("h, route, tail_route", [
        (1.0, "whole_line", "panels"), (0.1, "whole_line", "series"),
        (1e-3, "windowed", "series")])
    def test_warm_catalog_is_bitwise(self, tanh_pair, h, route, tail_route):
        """A catalog warmed by another row at the same T gives a fresh
        catalog's S, P and diagnostics, bit for bit."""
        eps = 0.05 * h**0.75
        warm = find_crossings(tanh_pair)
        other = scattering_matrix(tanh_pair, 0.01, 0.05, catalog=warm)
        reps = [scattering_matrix(tanh_pair, eps, h, catalog=warm) for _ in range(2)]
        fresh = scattering_matrix(tanh_pair, eps, h, catalog=find_crossings(tanh_pair))
        assert fresh.diagnostics["route"] == route
        assert fresh.diagnostics["tail_route"] == tail_route
        assert other.truncation == fresh.truncation
        # every row here seeks its anchors at the clamped level
        assert set(warm.line_data) == _line_keys(fresh.truncation, 1e-8)
        for rep in reps:
            assert rep.s_matrix.tobytes() == fresh.s_matrix.tobytes()
            assert rep.p_transition.hex() == fresh.p_transition.hex()
            assert rep.diagnostics == fresh.diagnostics

    @pytest.mark.parametrize("h", [0.1, 1e-3])
    def test_later_rows_sample_no_line_data(self, tanh_pair, monkeypatch, h):
        """No anchor search, no tail integral, no jet at +-T and no call on
        the whole line's density grid once the catalog holds the truncation."""
        catalog = find_crossings(tanh_pair)
        calls = []
        for name in ("tail_anchor", "tail_integral", "taylor", "eval", "deriv"):
            def spy(*args, name=name, real=getattr(tanh_pair, name)):
                calls.append((name, args))
                return real(*args)
            monkeypatch.setattr(tanh_pair, name, spy)

        def line_calls(T):
            out = []
            for name, args in calls:
                t = np.asarray(args[-1] if name == "tail_integral" else args[0])
                density_grid = (t.ndim == 1 and t[0] == -T and t[-1] == T
                                and len(t) == propagator.DENSITY_SAMPLES)
                if (name in ("tail_anchor", "tail_integral")
                        or (name == "taylor" and t.ndim == 0 and abs(t) == T) or density_grid):
                    out.append(name)
            return sorted(out)

        # the anchors, the tails' integrals and jets at +-T, and the density's one jet
        first = scattering_matrix(tanh_pair, 0.05 * h**0.75, h, catalog=catalog)
        assert line_calls(first.truncation) == ["tail_anchor", "tail_anchor", "tail_integral",
                                                "tail_integral", "taylor", "taylor", "taylor"]
        calls.clear()
        second = scattering_matrix(tanh_pair, 0.04 * h**0.75, 0.8 * h, catalog=catalog)
        assert second.truncation == first.truncation
        assert calls and line_calls(second.truncation) == []

    def test_one_entry_per_truncation(self, tanh_pair):
        """A tol that moves the truncation adds one entry of each kind; the
        same T adds none.  The anchors are kept by level: the clamped one
        serves both rows at that T, the unclamped one adds one a side."""
        catalog = find_crossings(tanh_pair)
        eps = 0.05 * 1e-4**0.75
        tols = (1e-9, 1e-11, 1e-12)
        truncations = [scattering_matrix(tanh_pair, eps, 1e-4, tol=tol, catalog=catalog).truncation
                       for tol in tols]
        levels = [scattering._anchor_level(eps, 1e-4, tol) for tol in tols]
        assert truncations[0] == truncations[1] != truncations[2]
        assert levels[0] == levels[1] == 1e-8 > levels[2]
        assert set(catalog.line_data) == (_line_keys(truncations[0], levels[0])
                                          | _line_keys(truncations[2], levels[2]))

    def test_catalog_identity_unaffected(self, tanh_pair):
        """==, hash and to_dict ignore the line data; pickling carries it."""
        warm, fresh = find_crossings(tanh_pair), find_crossings(tanh_pair)
        scattering_matrix(tanh_pair, 0.01, 0.05, catalog=warm)
        assert warm.line_data and not fresh.line_data
        assert warm == fresh and hash(warm) == hash(fresh)
        assert warm.to_dict() == fresh.to_dict()
        assert "line_data" not in repr(warm)
        copy = pickle.loads(pickle.dumps(warm))
        assert copy == warm and set(copy.line_data) == set(warm.line_data)
        for key, value in warm.line_data.items():
            if key[0] in ("tail", "jet"):
                assert copy.line_data[key] == value

    def test_catalog_none_integrates_only_at_the_truncation(self, tanh_pair, monkeypatch):
        """Without a catalog, scattering integrates the smooth tails at +-T
        only: no default anchor and no tail at it."""
        anchors, levels = [], []

        def tail_integral(side, anchor, real=tanh_pair.tail_integral):
            anchors.append((side, anchor))
            return real(side, anchor)

        def tail_anchor(side, level, real=tanh_pair.tail_anchor):
            levels.append(level)
            return real(side, level)

        monkeypatch.setattr(tanh_pair, "tail_integral", tail_integral)
        monkeypatch.setattr(tanh_pair, "tail_anchor", tail_anchor)
        rep = scattering_matrix(tanh_pair, 0.01, 0.05)
        T = rep.truncation
        assert sorted(anchors) == [("left", -T), ("right", T)]
        assert TAIL_LEVEL not in levels

    def test_jost_basis_with_and_without_catalog(self, tanh_pair, tanh_pair_catalog):
        """Without a catalog the tails are computed as they are kept."""
        for side in ("right", "left"):
            kept = jost_basis(tanh_pair, 0.02, 0.05, side, 12.5, catalog=tanh_pair_catalog)
            assert kept == jost_basis(tanh_pair, 0.02, 0.05, side, 12.5)


# cells of test_whole_line_estimate_calibrated that the route rule sends to
# the windows: the tanh pair at h = 2.5e-3, eps = 0.06 h^0.75 predicts 17.6k
# whole-line steps, above 2 WINDOW_COST_STEPS
_WINDOWED_BY_RULE = {("pair", 2.5e-3)}


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
        ("pair", 2.5e-3, 0.06 * 2.5e-3**0.75), ("pair", 3.5e-3, 0.05 * 3.5e-3**0.75),
        *(("lz", h, eps) for h in (0.1, 0.2) for eps in (0.05, 0.1, 0.2))])
    def test_whole_line_estimate_calibrated(self, tanh_pair, lz_windowed, family, h, eps):
        """On whole-line rows, error_estimate covers the difference of S from
        the same route at tol/1000, within a factor 10.  The rule sends every
        row whole-line but those of _WINDOWED_BY_RULE, which are forced."""
        model = tanh_pair if family == "pair" else lz_windowed
        cat = find_crossings(model)
        tol = 1e-9
        rep = scattering_matrix(model, eps, h, tol=tol, catalog=cat)
        if (family, h) in _WINDOWED_BY_RULE:
            assert rep.diagnostics["route"] == "windowed"
            rep = _whole_line(model, eps, h, tol, cat, rep.truncation)
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

    @pytest.mark.parametrize("family, h, eps", [
        ("pair", 1e-4, 0.05 * 1e-4**0.75), ("three", 1e-3, 0.05 * 1e-3**0.75),
        ("lz", 0.05, 0.1)])
    def test_one_jet_call_per_row(self, tanh_pair, lz_windowed, monkeypatch, family, h, eps):
        """A windowed row samples V once, for the plan: the adiabatic phases
        and the windows' step densities come from the plan's jets, with no
        panel quadrature and no density samples of their own.  The plan
        bounds every half-stretch in one call, for 1, 2 or 3 crossings."""
        model = {"pair": tanh_pair, "three": THREE_CROSSINGS, "lz": lz_windowed}[family]
        cat = find_crossings(model)
        scattering_matrix(model, eps, h, tol=1e-9, catalog=cat)   # fills the catalog's memo
        orders = []
        real_taylor = model.taylor

        def taylor(t, n):
            orders.append(n)
            return real_taylor(t, n)

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return call

        bounds_calls = []
        real_bounds = adiabatic._bounds

        def bounds(*args):
            bounds_calls.append(args)
            return real_bounds(*args)

        monkeypatch.setattr(model, "taylor", taylor)
        monkeypatch.setattr(adiabatic, "_bounds", bounds)
        for module in (adiabatic, propagator, scattering, quadrature):
            for name in ("integrate_panels", "_density_samples"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden(name))
        rep = scattering_matrix(model, eps, h, tol=1e-9, catalog=cat)
        assert rep.diagnostics["route"] == "windowed"
        assert orders == [adiabatic.JET_ORDER]
        assert len(bounds_calls) == 1 and len(bounds_calls[0][0]) == 2 * cat.n

    @pytest.mark.parametrize("family, h", [
        ("three", 1e-3), ("three", 1e-5), ("pair", 1e-4), ("lz", 0.05)])
    def test_padding_adds_nothing(self, tanh_pair, lz_windowed, monkeypatch, family, h):
        """The plan bounds its half-stretches as the rows of one array, each
        padded by repeating its last sample: every row's bounds and orders
        are those of its half-stretch alone, held constant past its end."""
        model = {"pair": tanh_pair, "three": THREE_CROSSINGS, "lz": lz_windowed}[family]
        eps = 0.1 if family == "lz" else 0.05 * h**0.75
        lengths, calls, sides = [], [], []
        real_grid, real_bounds = adiabatic._side_grid, adiabatic._bounds
        real_transfer = adiabatic._transfer

        def side_grid(*args):
            grid = real_grid(*args)
            lengths.append(len(grid))
            return grid

        def bounds(*args):
            calls.append((args, real_bounds(*args)))
            return calls[-1][1]

        def transfer(samples, *args):
            sides.append(samples)
            return real_transfer(samples, *args)

        monkeypatch.setattr(adiabatic, "_side_grid", side_grid)
        monkeypatch.setattr(adiabatic, "_bounds", bounds)
        monkeypatch.setattr(adiabatic, "_transfer", transfer)
        rep = _windowed(model, eps, h, 1e-9, find_crossings(model))
        assert rep.diagnostics["route"] == "windowed" and len(calls) == 1
        (t, r, theta, theta_p, left), (bound, order) = calls[0]
        assert len(lengths) == len(sides) == len(t)
        for row, (n, side) in enumerate(zip(lengths, sides)):
            assert np.array_equal(t[row, :n], side[0])
            alone = adiabatic._bounds(t[row, :n], r[:, row, :n], theta[row, :n],
                                      theta_p[row, :n], left[row])
            for stacked, own in zip((bound, order), alone):
                assert np.array_equal(stacked[row], np.pad(own, (0, t.shape[1] - n), "edge"))
        if family == "three":
            assert min(lengths) < t.shape[1]

    @pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("family", ["pair", "three", "lz"])
    def test_phases_match_panels(self, tanh_pair, lz_windowed, monkeypatch, family, h):
        """Phi and gamma from the plan's jets agree with composite
        Gauss-Legendre on panels of two samples, on every side: the Hermite
        rule's error is below their rounding (see ``adiabatic``)."""
        model = {"pair": tanh_pair, "three": THREE_CROSSINGS, "lz": lz_windowed}[family]
        eps = 0.1 if family == "lz" else 0.05 * h**0.75
        sides = []
        real = adiabatic._transfer

        def spy(samples, edge, order, sign, h):
            sides.append((samples, edge, sign))
            return real(samples, edge, order, sign, h)

        monkeypatch.setattr(adiabatic, "_transfer", spy)
        truncation = 12.0 if family == "lz" else None
        rep = _windowed(model, eps, h, 1e-9, find_crossings(model), truncation)
        assert rep.diagnostics["route"] == "windowed" and sides

        def rates(t):
            v = np.real(model.eval(t))
            lam2 = v * v + eps * eps
            theta_p = -0.5 * eps * np.real(model.deriv(t)) / lam2
            lam = np.sqrt(lam2)
            return lam + 0.5j * h * theta_p**2 / lam

        for (t, _, _, side_phases), i, sign in sides:
            ref = integrate_panels(rates, np.sort(t[list(range(i, 0, -2)) + [0]]))
            phases = -sign * np.sum(side_phases[:i])
            assert abs(phases.real - ref.real) <= 1e-15 * ref.real
            # the panels' own gamma errs by up to ~2e-14 here
            assert abs(phases.imag - ref.imag) <= 5e-14 * ref.imag

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
