import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from crossinglab.errors import (
    AnchorInsideCrossings,
    ConfigError,
    TailIntegralVanishes,
    ZeroOrderUndetermined,
)
from crossinglab.potential import (
    LinearLZ,
    PolynomialWindowed,
    ScaledTanhProduct,
    find_crossings,
    model_from_config,
    phase_integral,
    regularized_action,
)
from crossinglab.potential.catalog import (
    SIDES,
    TAIL_LEVEL,
    default_anchors,
    regularized_actions,
)
from crossinglab.params import RegimeSplit
from crossinglab.potential.families import TanhFactor, _SmoothClamp
from crossinglab.transfer import ChainFactors, _tilde_flags


def high_order_fd(model, t0, order, step=5e-3):
    """Independent derivative oracle: polynomial fit through 13 points."""
    pts = np.arange(-6, 7) * step
    vals = np.asarray(model.eval(pts + t0), dtype=float)
    coeffs = np.polyfit(pts, vals, 10)[::-1]
    return coeffs[order] * math.factorial(order)


class TestEval:
    def test_linear(self):
        assert LinearLZ(slope=1.0).eval(0.5) == pytest.approx(0.5)

    def test_tanh_cubed_zero(self, tanh_cubed):
        assert float(tanh_cubed.eval(0.0)) == 0.0

    def test_tanh_cubed_tail(self, tanh_cubed):
        assert float(tanh_cubed.eval(40.0)) == pytest.approx(1.0, abs=1e-14)

    def test_values_match_closed_form(self, tanh_cubed):
        ts = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(tanh_cubed.eval(ts), np.tanh(ts) ** 3, rtol=1e-15)

    def test_integer_powers_match_numpy_power(self, rng):
        """Repeated multiplication agrees with ``**`` on eval and deriv."""
        model = ScaledTanhProduct(1.5, [{"power": 4, "slope": 1.3, "center": 0.4},
                                        {"power": 1, "slope": 0.8, "center": -1.0},
                                        {"power": 3, "slope": 1.1, "center": -2.5}])
        for ts in (rng.uniform(-4, 4, 64), rng.uniform(-4, 4, 64) + 0.3j):
            th = [np.tanh(f.slope * (ts - f.center)) for f in model.factors]
            ref_eval = model.scale * np.prod([x ** f.power for x, f in zip(th, model.factors)],
                                             axis=0)
            ref_deriv = sum(
                model.scale * f.power * f.slope * th[i] ** (f.power - 1)
                * np.cosh(f.slope * (ts - f.center)) ** -2
                * np.prod([th[j] ** g.power for j, g in enumerate(model.factors) if j != i],
                          axis=0)
                for i, f in enumerate(model.factors))
            np.testing.assert_allclose(model.eval(ts), ref_eval, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(model.deriv(ts), ref_deriv, rtol=1e-13, atol=1e-15)

    def test_windowed_linear_saturates(self, lz_windowed):
        assert float(lz_windowed.eval(30.0)) == pytest.approx(8.0, abs=1e-13)
        assert float(lz_windowed.eval(-30.0)) == pytest.approx(-8.0, abs=1e-13)
        assert float(lz_windowed.eval(0.25)) == pytest.approx(0.25, abs=1e-12)


class TestDerivatives:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_jets_match_fd(self, tanh_cubed, order, rng):
        # the polynomial-fit oracle itself loses accuracy with the order
        rel = 1e-6 if order <= 3 else 1e-4
        for t0 in rng.uniform(-2, 2, 8):
            exact = math.factorial(order) * tanh_cubed.taylor(float(t0), order)[order]
            approx = high_order_fd(tanh_cubed, float(t0), order)
            assert exact == pytest.approx(approx, rel=rel, abs=1e-8)

    def test_first_derivative_consistency(self, rng):
        """Vectorized deriv equals the order-1 jet at 100 random points."""
        models = [
            ScaledTanhProduct(1.0, [{"power": 2, "slope": 1.3, "center": 0.4},
                                    {"power": 1, "slope": 0.8, "center": -1.0}]),
            LinearLZ(slope=2.0, window=5.0, sharpness=4.0),
            PolynomialWindowed([0.5, -1.0, 0.0, 1.0], window=4.0),
        ]
        ts = rng.uniform(-3, 3, 100)
        for model in models:
            vec = np.asarray(model.deriv(ts), dtype=float)
            jets = np.array([model.taylor(float(t), 1)[1] for t in ts])
            np.testing.assert_allclose(vec, jets, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("powers", [(1,), (4,), (2, 1), (1, 3, 2), (3, 1, 4, 2)])
    def test_tanh_product_deriv_at_complex_points(self, powers, rng):
        """The product rule taken factor by factor equals the order-1 jet at
        complex points near each crossing, where Newton evaluates it.

        Far out in a tail 1 - tanh^2 cancels, in the closed form and the
        jet alike, so the points stay within one unit of slope of a centre.
        """
        model = ScaledTanhProduct(1.3, [
            {"power": p, "slope": s, "center": c}
            for p, s, c in zip(powers, (0.7, 1.5, 3.0, 6.0), (-4.5, -1.5, 1.5, 4.5))])
        z = np.concatenate([
            f.center + (rng.uniform(-1, 1, 8) + 1j * rng.uniform(0.05, 0.5, 8)) / f.slope
            for f in model.factors])
        jet = model.taylor(z, 1)[1]
        np.testing.assert_allclose(model.deriv(z), jet, rtol=1e-14, atol=0)

    def test_antiderivative_consistency(self, tanh_cubed):
        """Numeric differentiation of the phase integral recovers V."""
        for t in (-1.2, 0.3, 2.0):
            d = 1e-5
            approx = (phase_integral(tanh_cubed, 0.0, t + d)
                      - phase_integral(tanh_cubed, 0.0, t - d)) / (2 * d)
            assert approx == pytest.approx(float(tanh_cubed.eval(t)), rel=1e-8, abs=1e-10)


def _mp_clamp(clamp, mp):
    b, w = mp.mpf(clamp.beta), mp.mpf(clamp.w)

    def softplus(x):
        return mp.log(1 + mp.exp(x))
    return lambda t: t - softplus(b * (t - w)) / b + softplus(b * (-t - w)) / b


def _mp_model(model, mp):
    """The family's closed form in mpmath."""
    if isinstance(model, ScaledTanhProduct):
        return lambda t: model.scale * mp.fprod(mp.tanh(f.slope * (t - f.center)) ** f.power
                                                for f in model.factors)
    clamp = _mp_clamp(model.clamp, mp)
    if isinstance(model, LinearLZ):
        return lambda t: model.slope * clamp(t)
    return lambda t: mp.polyval([mp.mpf(a) for a in model.coefficients[::-1]], clamp(t))


JET_MODELS = {
    "tanh": ScaledTanhProduct(1.5, [{"power": 3, "slope": 1.0, "center": 2.0},
                                    {"power": 1, "slope": 0.8, "center": -1.0},
                                    {"power": 2, "slope": 1.3, "center": -2.5}]),
    "lz": LinearLZ(slope=1.0, window=8.0, sharpness=4.0),
    "poly": PolynomialWindowed([0.5, -1.0, 0.0, 1.0], window=3.0, sharpness=8.0),
}

TAIL_MODELS = {
    "tanh_pair": ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 2.0},
                                         {"power": 3, "slope": 1.0, "center": -2.0}]),
    "tanh_squared": ScaledTanhProduct(1.0, [{"power": 2, "slope": 1.28, "center": -4.0}]),
}


class TestJets:
    """The Taylor jets of every family against mpmath at 40 digits."""

    @pytest.mark.parametrize("order", [6, 8, 24])
    @pytest.mark.parametrize("family", sorted(JET_MODELS))
    def test_against_mpmath(self, family, order):
        """Real points, the tails at |t| = 13 among them, and complex points:
        every coefficient within a few ulps of the largest."""
        mp = pytest.importorskip("mpmath")
        model = JET_MODELS[family]
        fn = _mp_model(model, mp)
        with mp.workdps(40):
            for t0 in (-13.0, -2.3, 0.0, 1.7, 2.9, 13.0, 0.3 + 0.4j, -1.1 + 0.2j):
                ref = np.array([complex(c) for c in mp.taylor(fn, mp.mpmathify(t0), order)])
                jet = model.taylor(t0, order)
                assert np.max(np.abs(jet - ref)) <= 3e-15 * np.max(np.abs(ref)), t0

    @pytest.mark.parametrize("model, t0", [
        (TAIL_MODELS["tanh_pair"], 10.0), (TAIL_MODELS["tanh_pair"], 14.0),
        (TAIL_MODELS["tanh_squared"], 6.0), (TAIL_MODELS["tanh_squared"], 3.34 - 0.06j),
        (JET_MODELS["lz"], 12.0), (JET_MODELS["lz"], -12.0), (JET_MODELS["poly"], 5.0),
    ], ids=["pair10", "pair14", "squared6", "squared_complex", "lz12", "lz-12", "poly5"])
    def test_tail_relative_accuracy(self, model, t0):
        """Orders 1 to 4 and V' in the tails, each to its own size: where
        tanh or the logistic function nears its limit, 1 - tanh^2 and
        sigma - sigma^2 would cancel (1e-10 to 1e-6 relative off here)."""
        mp = pytest.importorskip("mpmath")
        fn = _mp_model(model, mp)
        with mp.workdps(40):
            ref = np.array([complex(c) for c in mp.taylor(fn, mp.mpmathify(t0), 4)])
        jet = model.taylor(t0, 4)
        assert np.all(np.abs(jet[1:] - ref[1:]) <= 1e-13 * np.abs(ref[1:]))
        assert abs(model.deriv(t0) - ref[1]) <= 1e-13 * abs(ref[1])

    @pytest.mark.parametrize("family", sorted(JET_MODELS))
    def test_real_points_real_jets(self, family):
        """Real base points give real jets, which the complex jets at the same
        points reproduce to rounding; an array of points gives each point's jet."""
        model = JET_MODELS[family]
        ts = np.array([-13.0, -2.3, 0.0, 1.7, 13.0])
        jets = model.taylor(ts, 8)
        assert jets.dtype == np.float64 and model.taylor(1.7, 8).dtype == np.float64
        assert jets.shape == (9, 5)
        # rounding: a few ulps of each point's largest coefficient
        ulps = 3e-15 * np.max(np.abs(jets), axis=0)
        assert np.all(np.abs(model.taylor(ts + 0j, 8) - jets) <= ulps)
        for i, t in enumerate(ts):
            assert np.all(np.abs(model.taylor(t, 8) - jets[:, i]) <= ulps[i])


def _softplus_antiderivative(x, beta):
    """integral_{-inf}^{x} log(1 + e^(beta u)) / beta du = -Li2(-e^(beta x)) / beta^2,
    by scipy's spence(1 + u) = Li2(-u); x <= 0 here, so 0 < u <= 1."""
    from scipy.special import spence

    return -spence(1.0 + math.exp(beta * x)) / beta**2


def _lz_tail_reference(slope, window, beta, side, anchor):
    """LZ's tail integral in closed form: V - V_r = slope (softplus(-b(t+w))
    - softplus(b(w-t))) / b on the right, V - V_l = slope (softplus(b(t+w))
    - softplus(b(t-w))) / b on the left."""
    d = lambda x: _softplus_antiderivative(x, beta)  # noqa: E731
    if side == "right":
        return slope * (d(-window - anchor) - d(window - anchor))
    return slope * (d(anchor + window) - d(anchor - window))


LZ_SETS = [(1.0, 8.0, 4.0), (0.25, 4.0, 4.0), (2.0, 5.0, 3.0), (1.3, 4.0, 8.0)]


class TestLinearLZ:
    """LZ is the windowed polynomial [0, slope]: its closed forms stay bit for
    bit, its tails come from the one tail rule."""

    @pytest.mark.parametrize("slope, window, beta", LZ_SETS)
    def test_closed_forms_bitwise(self, slope, window, beta, rng):
        model = LinearLZ(slope=slope, window=window, sharpness=beta)
        clamp = _SmoothClamp(window, beta)
        for ts, order in ((np.linspace(-20.0, 20.0, 201), 24),
                          (rng.uniform(-10, 10, 50) + 1j * rng.uniform(-0.5, 0.5, 50), 8)):
            assert np.array_equal(model.eval(ts), slope * clamp(ts))
            assert np.array_equal(model.deriv(ts), slope * clamp.deriv(ts))
            assert np.array_equal(model.taylor(ts, order), slope * clamp.jet(ts, order))
        assert model.v_right == slope * window and model.v_left == -slope * window
        assert model.tail_rate == beta

    def test_pure_closed_forms_bitwise(self, rng):
        model = LinearLZ(slope=0.7)
        ts = np.concatenate([np.linspace(-20.0, 20.0, 41),
                             rng.uniform(-3, 3, 8) + 1j * rng.uniform(-1, 1, 8)])
        assert np.array_equal(model.eval(ts), 0.7 * ts)
        assert np.array_equal(model.deriv(ts), np.full(ts.shape, 0.7))
        jets = model.taylor(ts, 5)
        assert np.array_equal(jets[0], 0.7 * ts) and np.all(jets[1] == 0.7)
        assert not np.any(jets[2:])
        assert model.candidate_zeros() == [0.0]
        assert math.copysign(1.0, model.candidate_zeros()[0]) == 1.0

    def test_default_anchors(self):
        model = LinearLZ(slope=1.0, window=8.0, sharpness=4.0)
        assert default_anchors(model, find_crossings(model)) == (14.0, -14.0)

    @pytest.mark.parametrize("window", [4.0, 5.0, 8.0])
    @pytest.mark.parametrize("beta", [3.0, 4.0, 8.0])
    def test_tail_integral_against_dilogarithm(self, beta, window):
        """The one tail rule integrates V - V_inf formed by subtraction, so its
        error is about eps_machine |V_inf| per unit length over its span."""
        for slope in (0.25, 1.0, 2.0):
            model = LinearLZ(slope=slope, window=window, sharpness=beta)
            bound = np.finfo(float).eps * slope * window * max(60.0 / beta, 10.0)
            anchors = default_anchors(model, find_crossings(model))
            for side, t_default, t_near in zip(SIDES, anchors, (window + 3.0, -window - 3.0)):
                for anchor in (t_default, t_near):
                    want = _lz_tail_reference(slope, window, beta, side, anchor)
                    assert abs(model.tail_integral(side, anchor) - want) <= bound, (side, anchor)

    @pytest.mark.parametrize("params", [{"slope": 2.0, "window": 5.0, "sharpness": 3.0},
                                        {"slope": 0.5}], ids=["windowed", "pure"])
    def test_config_round_trip(self, params):
        doc = {"family": "linear_lz", "params": params}
        model = model_from_config(doc)
        assert model.to_config() == doc
        assert model_from_config(model.to_config()).to_config() == doc

    def test_pure_has_no_tails(self, lz_pure):
        assert not lz_pure.has_tails
        for name in ("v_right", "v_left", "tail_rate"):
            with pytest.raises(ConfigError, match="no tails"):
                getattr(lz_pure, name)
        with pytest.raises(ConfigError, match="no tails"):
            lz_pure.tail_envelope("right", 10.0)

    @pytest.mark.parametrize("params", [{"coefficients": [0.0, 1.0]},
                                        {"coefficients": [0.0, 1.0], "window": None}],
                             ids=["omitted", "none"])
    def test_polynomial_windowed_needs_a_window(self, params):
        with pytest.raises(ConfigError):
            model_from_config({"family": "polynomial_windowed", "params": params})


def _tanh(**factor):
    return lambda: ScaledTanhProduct(1.0, [{"power": 1, "slope": 1.0, "center": 0.0, **factor}])


BAD_PARAMETERS = {
    "lz_sharpness_zero": (lambda: LinearLZ(1.0, window=8.0, sharpness=0.0), "sharpness"),
    "lz_sharpness_negative": (lambda: LinearLZ(1.0, window=8.0, sharpness=-4.0), "sharpness"),
    "lz_sharpness_inf": (lambda: LinearLZ(1.0, window=8.0, sharpness=math.inf), "sharpness"),
    "lz_window_zero": (lambda: LinearLZ(1.0, window=0.0), "window"),
    "lz_window_nan": (lambda: LinearLZ(1.0, window=math.nan), "window"),
    "lz_slope_zero": (lambda: LinearLZ(0.0, window=8.0), "slope"),
    "lz_slope_inf": (lambda: LinearLZ(math.inf), "slope"),
    "lz_slope_nan": (lambda: LinearLZ(math.nan, window=8.0), "slope"),
    "tanh_power_fractional": (_tanh(power=2.5), "power"),
    "tanh_power_float": (_tanh(power=2.0), "power"),
    "tanh_power_bool": (_tanh(power=True), "power"),
    "tanh_power_zero": (_tanh(power=0), "power"),
    "tanh_slope_inf": (_tanh(slope=math.inf), "slope"),
    "tanh_slope_negative": (_tanh(slope=-1.0), "slope"),
    "tanh_center_nan": (_tanh(center=math.nan), "center"),
    "tanh_center_inf": (_tanh(center=-math.inf), "center"),
    "tanh_scale_nan": (lambda: ScaledTanhProduct(math.nan, [TanhFactor(1, 1.0, 0.0)]), "scale"),
    "poly_coefficient_inf": (lambda: PolynomialWindowed([0.0, 1.0, math.inf], window=3.0),
                             "coefficients"),
    "poly_coefficient_nan": (lambda: PolynomialWindowed([math.nan, 1.0], window=3.0),
                             "coefficients"),
    "poly_coefficient_string": (lambda: PolynomialWindowed(["a", 1.0], window=3.0),
                                "coefficients"),
    "poly_sharpness_negative": (lambda: PolynomialWindowed([0.0, 1.0], 3.0, sharpness=-1.0),
                                "sharpness"),
    "poly_window_inf": (lambda: PolynomialWindowed([0.0, 1.0], window=math.inf), "window"),
}


class TestBadParameters:
    @pytest.mark.parametrize("name", sorted(BAD_PARAMETERS))
    def test_config_error_names_the_field(self, name):
        build, field = BAD_PARAMETERS[name]
        with pytest.raises(ConfigError, match=field):
            build()


class TestTailRate:
    def test_windowed_linear_is_clamp_sharpness(self):
        assert LinearLZ(slope=2.0, window=5.0, sharpness=3.0).tail_rate == 3.0

    def test_pure_linear_has_none(self, lz_pure):
        with pytest.raises(ConfigError):
            lz_pure.tail_rate


class TestFindCrossings:
    def test_tanh_cubed(self, tanh_cubed_catalog):
        cat = tanh_cubed_catalog
        assert cat.n == 1
        assert cat.crossings[0].t == pytest.approx(0.0, abs=1e-12)
        assert cat.crossings[0].m == 3
        assert cat.crossings[0].v == pytest.approx(6.0, rel=1e-12)

    def test_linear(self):
        cat = find_crossings(LinearLZ(slope=1.0))
        assert (cat.crossings[0].t, cat.crossings[0].m) == (0.0, 1)
        assert cat.crossings[0].v == pytest.approx(1.0)

    def test_tanh_pair(self, tanh_pair, tanh_pair_catalog):
        cat = tanh_pair_catalog
        assert cat.n == 2
        assert cat.positions == pytest.approx((2.0, -2.0))
        assert cat.orders == (3, 3)
        assert cat.sigma == (3, 6)
        v_expect = 6.0 * math.tanh(4.0) ** 3
        assert cat.crossings[0].v == pytest.approx(v_expect, rel=1e-10)
        assert cat.crossings[1].v == pytest.approx(-v_expect, rel=1e-10)
        # independent finite-difference check of the leading coefficients
        for c in cat.crossings:
            assert high_order_fd(tanh_pair, c.t, c.m) == pytest.approx(c.v, rel=1e-5)

    def test_polynomial_roots(self):
        # (t-1) * (t+1)^2 = t^3 + t^2 - t - 1, windowed far out
        model = PolynomialWindowed([-1.0, -1.0, 1.0, 1.0], window=6.0)
        cat = find_crossings(model)
        assert cat.n == 2
        assert cat.positions == pytest.approx((1.0, -1.0), abs=1e-8)
        assert cat.orders == (1, 2)

    def test_order_beyond_cap_raises(self):
        model = ScaledTanhProduct(1.0, [{"power": 13, "slope": 1.0, "center": 0.0}])
        with pytest.raises(ZeroOrderUndetermined):
            find_crossings(model)

    def test_sign_pattern(self, tanh_pair, tanh_pair_catalog):
        cat = tanh_pair_catalog
        pts = cat.positions
        mid = 0.5 * (pts[0] + pts[1])
        assert (-1.0) ** cat.sigma[0] * float(tanh_pair.eval(mid)) > 0
        assert (-1.0) ** cat.sigma_n * tanh_pair.v_left > 0


THREE_MIXED = [
    {"power": 1, "slope": 1.0, "center": 3.0},
    {"power": 2, "slope": 1.0, "center": 0.0},
    {"power": 1, "slope": 1.0, "center": -3.0},
]
THREE_ODD = [
    {"power": 1, "slope": 1.0, "center": 3.0},
    {"power": 3, "slope": 1.0, "center": 0.0},
    {"power": 5, "slope": 1.0, "center": -3.0},
]


class TestGaps:
    def test_gaps_match_phase_integral(self):
        model = ScaledTanhProduct(1.0, THREE_MIXED)
        cat = find_crossings(model)
        pts = cat.positions
        assert len(cat.gaps) == cat.n - 1
        for k, gap in enumerate(cat.gaps):
            direct = phase_integral(model, pts[k + 1], pts[k])
            assert gap == pytest.approx(direct, rel=1e-13)
        # non-adjacent crossings: one quadrature over the span vs summed gaps
        assert cat.phase_between(0, 2) == pytest.approx(
            phase_integral(model, pts[2], pts[0]), rel=1e-13)
        assert cat.phase_between(1, 1) == 0.0

    def test_area_is_twice_absolute_gaps(self):
        """The area 2 * integral of |V| across a sign change of V is twice
        the sum of the absolute gaps."""
        model = ScaledTanhProduct(1.0, THREE_ODD)
        cat = find_crossings(model)
        assert cat.gaps[0] * cat.gaps[1] < 0  # V changes sign at the middle zero
        pts = cat.positions
        oracle = quad(lambda t: abs(float(np.real(model.eval(t)))), pts[2], pts[0],
                      points=[pts[1]], epsabs=1e-13, epsrel=1e-13)[0]
        assert 2.0 * (abs(cat.gaps[0]) + abs(cat.gaps[1])) == pytest.approx(
            2.0 * oracle, rel=1e-10)

    def test_single_crossing_has_no_gaps(self, tanh_cubed_catalog):
        assert tanh_cubed_catalog.gaps == ()


class TestAreas:
    def test_trivial_same_index(self, tanh_pair, tanh_pair_catalog):
        assert tanh_pair_catalog.phase_between(0, 0) == 0.0

    def test_linear_absolute_area(self):
        """2 * integral_{-1}^{1} |t| dt = 2, via the split-at-zero quadrature."""
        model = LinearLZ(slope=1.0)
        left = phase_integral(model, -1.0, 0.0)
        right = phase_integral(model, 0.0, 1.0)
        assert 2.0 * (abs(left) + abs(right)) == pytest.approx(2.0, rel=1e-13)

    def test_pair_area_vs_quad_oracle(self, tanh_pair, tanh_pair_catalog):
        oracle = quad(lambda t: abs(np.tanh(t - 2) ** 3 * np.tanh(t + 2) ** 3),
                      -2.0, 2.0, epsabs=1e-13, epsrel=1e-13)[0]
        area = 2.0 * abs(tanh_pair_catalog.gaps[0])
        assert area == pytest.approx(2.0 * oracle, rel=1e-10)

    def test_additivity(self):
        """V keeps its sign across the even-order middle zero, so the area
        over both gaps, the sum of the two adjacent areas, is twice one
        quadrature of V over the span."""
        model = ScaledTanhProduct(1.0, THREE_MIXED)
        cat = find_crossings(model)
        pts = cat.positions
        a01, a12 = 2.0 * abs(cat.gaps[0]), 2.0 * abs(cat.gaps[1])
        a02 = 2.0 * abs(phase_integral(model, pts[2], pts[0]))
        assert a02 == pytest.approx(a01 + a12, rel=1e-12)


class TestRegularizedAction:
    def test_constant_tail(self, lz_windowed):
        """Far beyond the window the tail correction is negligible."""
        cat = find_crossings(lz_windowed)
        t_r = 14.0
        r = regularized_action(lz_windowed, "right", t_r, catalog=cat)
        assert r == pytest.approx(lz_windowed.v_right * t_r, abs=1e-10)

    def test_tanh_cubed_closed_form(self, tanh_cubed, tanh_cubed_catalog):
        """R_r = ln cosh(t_r) - tanh(t_r)^2/2 + ln 2 + 1/2 for V = tanh^3."""
        t_r = 5.0
        r = regularized_action(tanh_cubed, "right", t_r, catalog=tanh_cubed_catalog)
        expect = (math.log(math.cosh(t_r)) - math.tanh(t_r) ** 2 / 2.0
                  + math.log(2.0) + 0.5)
        assert r == pytest.approx(expect, rel=1e-11)

    def test_mirror_symmetry(self, tanh_cubed, tanh_cubed_catalog):
        """Even V gives R_l = -R_r; odd V gives R_l = +R_r."""
        even = ScaledTanhProduct(1.0, [{"power": 2, "slope": 1.0, "center": 0.0}])
        cat_even = find_crossings(even)
        r_r = regularized_action(even, "right", 5.0, catalog=cat_even)
        r_l = regularized_action(even, "left", -5.0, catalog=cat_even)
        assert r_l == pytest.approx(-r_r, rel=1e-11)

        r_r = regularized_action(tanh_cubed, "right", 5.0, catalog=tanh_cubed_catalog)
        r_l = regularized_action(tanh_cubed, "left", -5.0, catalog=tanh_cubed_catalog)
        assert r_l == pytest.approx(r_r, rel=1e-11)

    def test_anchor_inside_raises(self, tanh_pair, tanh_pair_catalog):
        with pytest.raises(AnchorInsideCrossings):
            regularized_action(tanh_pair, "right", 1.0, catalog=tanh_pair_catalog)

    def test_vanishing_tail_raises(self, lz_windowed):
        cat = find_crossings(lz_windowed)
        with pytest.raises(TailIntegralVanishes):
            regularized_action(lz_windowed, "right", 30.0, catalog=cat)


class TestCatalogTails:
    """The default anchors and the tail integrals are kept in the catalog's
    memo on first use; find_crossings computes none of them."""

    @pytest.mark.parametrize("model", [
        ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 2.0},
                                {"power": 3, "slope": 1.0, "center": -2.0}]),
        ScaledTanhProduct(1.0, [{"power": 1, "slope": 6.0, "center": 2.0},
                                {"power": 3, "slope": 1.0, "center": -2.0}]),
        LinearLZ(1.0, window=8.0),
        PolynomialWindowed([0, 0, 0, 1.0], window=3.0, sharpness=8.0),
    ])
    def test_default_anchors_bitwise(self, model):
        """The kept tails give R bit for bit as a fresh catalog does at the
        same anchors, and the memo holds the anchors and integrals."""
        cat = find_crossings(model)
        assert not cat.line_data
        anchors = tuple(model.tail_anchor(side, TAIL_LEVEL) for side in SIDES)
        actions = regularized_actions(model, cat)
        assert default_anchors(model, cat) == anchors
        assert cat.line_data == {
            **{("anchor", side, TAIL_LEVEL): t for side, t in zip(SIDES, anchors)},
            **{("tail", side, t): model.tail_integral(side, t)
               for side, t in zip(SIDES, anchors)}}
        assert actions == tuple(
            regularized_action(model, side, t, catalog=find_crossings(model))
            for side, t in zip(SIDES, anchors))
        assert regularized_actions(model, cat, anchors) == actions

    def test_no_tails_without_limits(self, lz_pure):
        cat = find_crossings(lz_pure)
        assert not cat.line_data and "tails" not in cat.to_dict()

    def test_failed_anchor_is_no_catalog_failure(self, monkeypatch):
        """find_crossings still succeeds; the actions raise where R is used,
        and a failed anchor is not kept."""
        model = ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 0.0}])

        def no_anchor(side, level):
            raise ConfigError("tail envelope never reached the requested level")

        monkeypatch.setattr(model, "tail_anchor", no_anchor)
        cat = find_crossings(model)
        for _ in range(2):
            with pytest.raises(ConfigError):
                regularized_actions(model, cat)
        assert not cat.line_data

    def test_find_crossings_integrates_no_tail(self, tanh_pair, monkeypatch):
        """No anchor search and no tail quadrature in find_crossings: it
        succeeds with both patched to raise."""
        def no_call(*args):
            raise AssertionError("tail computed by find_crossings")

        monkeypatch.setattr(tanh_pair, "tail_anchor", no_call)
        monkeypatch.setattr(tanh_pair, "tail_integral", no_call)
        cat = find_crossings(tanh_pair)
        assert cat.n == 2 and not cat.line_data

    def test_checks_stay_with_the_actions(self, tanh_pair):
        """Kept tails are checked when R is formed, as fresh ones are."""
        vanishing = find_crossings(tanh_pair)
        t_r = default_anchors(tanh_pair, vanishing)[0]
        vanishing.line_data[("tail", "right", t_r)] = 0.0
        with pytest.raises(TailIntegralVanishes):
            regularized_actions(tanh_pair, vanishing)
        inside = find_crossings(tanh_pair)
        inside.line_data[("anchor", "right", TAIL_LEVEL)] = 1.0
        with pytest.raises(AnchorInsideCrossings):
            regularized_actions(tanh_pair, inside)


class TestEffectivePotential:
    """``ChainFactors.flipped`` encodes the effective coupling: its sign flips
    at every odd-order adiabatic crossing, walking from t = +inf, and the
    factors and gap phases where it is reversed are flip-conjugated."""

    @staticmethod
    def flags(catalog, sharp):
        split = RegimeSplit.build(catalog.orders,
                                  ["A" if k in sharp else "N" for k in range(catalog.n)])
        assert split.sharp_odd == sharp
        return split, _tilde_flags(split, catalog.n)

    def test_no_flips(self, tanh_pair_catalog):
        assert self.flags(tanh_pair_catalog, ())[1] == [False, False]

    def test_single_flip_extends_left(self, tanh_pair_catalog):
        """Crossing 1 (the left one) and everything left of it is reversed."""
        assert self.flags(tanh_pair_catalog, (1,))[1] == [False, True]

    def test_ascending_orders_pattern(self):
        """Orders (1, 3, 5): flags for each number of adiabatic odd crossings."""
        model = ScaledTanhProduct(1.0, [
            {"power": 1, "slope": 1.0, "center": 3.0},
            {"power": 3, "slope": 1.0, "center": 0.0},
            {"power": 5, "slope": 1.0, "center": -3.0},
        ])
        cat = find_crossings(model)
        # higher orders turn adiabatic first: the split grows from the sharp end
        assert self.flags(cat, (2,))[1] == [False, False, True]
        assert self.flags(cat, (1, 2))[1] == [False, True, False]
        assert self.flags(cat, (0, 1, 2))[1] == [True, False, True]

    def test_flipped_phases_are_signed_gaps(self):
        """The flip-conjugated phase of gap k is e^{-i s_k gap_k / h} with s_k
        the effective coupling's sign on that gap."""
        cat = find_crossings(ScaledTanhProduct(1.0, THREE_ODD))
        h = 0.05
        # flipped on (t2, t1) and beyond t3: the first gap flips, the second
        # not; flipped below t2 only: the second gap flips
        for sharp, signs in [((0, 1, 2), (-1, 1)), ((1,), (1, -1)), ((), (1, 1))]:
            split, flipped = self.flags(cat, sharp)
            chain = ChainFactors(split, pairs=((1.0 + 0j, 0j),) * cat.n, iq=(False,) * cat.n,
                                 phases=tuple(cmath.exp(-1j * g / h) for g in cat.gaps),
                                 flipped=tuple(flipped))
            _, phases = chain.flip_conjugated(chain.pairs)
            assert phases == pytest.approx(
                [cmath.exp(-1j * s * g / h) for s, g in zip(signs, cat.gaps)], rel=1e-15)


class TestConfig:
    def test_roundtrip(self, tanh_pair):
        doc = tanh_pair.to_config()
        rebuilt = model_from_config(doc)
        ts = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(rebuilt.eval(ts), tanh_pair.eval(ts), rtol=1e-15)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            model_from_config({"family": "nope", "params": {}})

    def test_positive_right_limit_enforced(self):
        with pytest.raises(ConfigError):
            ScaledTanhProduct(-1.0, [{"power": 1, "slope": 1.0, "center": 0.0}])

    def test_catalog_export(self, tanh_pair_catalog):
        doc = tanh_pair_catalog.to_dict()
        assert doc["m_star"] == 3
        assert doc["lambda_star"] == [0, 1]
        assert len(doc["crossings"]) == 2
