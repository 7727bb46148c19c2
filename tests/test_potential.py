import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from crossinglab.errors import (
    AnchorInsideCrossings,
    BracketingFailed,
    ConfigError,
    TailIntegralVanishes,
    ZeroOrderUndetermined,
)
from crossinglab.potential import (
    LinearLZ,
    PolynomialWindowed,
    ScaledTanhProduct,
    area_between,
    find_crossings,
    model_from_config,
    phase_integral,
    regularized_action,
)
from crossinglab.potential.catalog import TAIL_LEVEL, area_adjacent, regularized_actions
from crossinglab.params import RegimeSplit
from crossinglab.potential.families import _dilog_neg_exp
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
                model.scale * f.power * f.slope * th[i] ** (f.power - 1) * (1.0 - th[i] ** 2)
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
            exact = tanh_cubed.derivative(float(t0), order)
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
            jets = np.array([model.derivative(float(t), 1) for t in ts])
            np.testing.assert_allclose(vec, jets, rtol=1e-8, atol=1e-10)

    def test_antiderivative_consistency(self, tanh_cubed):
        """Numeric differentiation of the phase integral recovers V."""
        for t in (-1.2, 0.3, 2.0):
            d = 1e-5
            approx = (phase_integral(tanh_cubed, 0.0, t + d)
                      - phase_integral(tanh_cubed, 0.0, t - d)) / (2 * d)
            assert approx == pytest.approx(float(tanh_cubed.eval(t)), rel=1e-8, abs=1e-10)


class TestDilogarithm:
    """The softplus antiderivative -Li2(-e^y)/beta^2 against scipy's spence,
    spence(1 + u) = Li2(-u)."""

    @pytest.mark.parametrize("beta", [1.0, 4.0, 8.0])
    def test_series_branch(self, beta):
        """y <= 0; below u = 1e-12 scipy's own 1 + u rounds, so compare in
        absolute terms throughout."""
        from scipy.special import spence

        for y in np.linspace(-40.0, 0.0, 401):
            want = -spence(1.0 + math.exp(y)) / beta**2
            assert abs(_dilog_neg_exp(y / beta, beta) - want) <= 4e-15 / beta**2, y

    @pytest.mark.parametrize("beta", [1.0, 4.0, 8.0])
    def test_inversion_branch(self, beta):
        from scipy.special import spence

        for y in np.linspace(1e-3, 40.0, 401):
            want = (0.5 * y * y + math.pi**2 / 6.0 - spence(1.0 + math.exp(-y))) / beta**2
            got = _dilog_neg_exp(y / beta, beta)
            assert abs(got - want) <= 4e-16 * abs(want) + 4e-15 / beta**2, y

    def test_small_argument_is_relatively_exact(self):
        """Li2(-u) = -u + u^2/4 - ... where 1 + u would round."""
        for y in (-60.0, -40.0, -30.0):
            u = math.exp(y)
            assert _dilog_neg_exp(y, 1.0) == pytest.approx(u - u * u / 4.0, rel=1e-15)


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
        cat = find_crossings(LinearLZ(slope=1.0), (-1, 1))
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

    def test_idempotent_under_interval_growth(self, tanh_pair):
        small = find_crossings(tanh_pair, (-5, 5))
        large = find_crossings(tanh_pair, (-30, 30))
        assert small.positions == pytest.approx(large.positions, abs=1e-10)
        assert small.orders == large.orders

    def test_interval_excluding_zero_raises(self, tanh_pair):
        with pytest.raises(BracketingFailed):
            find_crossings(tanh_pair, (0.0, 5.0))

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
        cat = find_crossings(ScaledTanhProduct(1.0, THREE_ODD))
        assert cat.gaps[0] * cat.gaps[1] < 0  # V changes sign at the middle zero
        assert area_between(cat, 0, 2) == 2.0 * (abs(cat.gaps[0]) + abs(cat.gaps[1]))
        assert area_adjacent(cat, 1) == 2.0 * abs(cat.gaps[1])

    def test_single_crossing_has_no_gaps(self, tanh_cubed_catalog):
        assert tanh_cubed_catalog.gaps == ()


class TestAreas:
    def test_trivial_same_index(self, tanh_pair, tanh_pair_catalog):
        assert area_between(tanh_pair_catalog, 0, 0) == 0.0

    def test_linear_absolute_area(self):
        """2 * integral_{-1}^{1} |t| dt = 2, via the split-at-zero quadrature."""
        model = LinearLZ(slope=1.0)
        left = phase_integral(model, -1.0, 0.0)
        right = phase_integral(model, 0.0, 1.0)
        assert 2.0 * (abs(left) + abs(right)) == pytest.approx(2.0, rel=1e-13)

    def test_pair_area_vs_quad_oracle(self, tanh_pair, tanh_pair_catalog):
        oracle = quad(lambda t: abs(np.tanh(t - 2) ** 3 * np.tanh(t + 2) ** 3),
                      -2.0, 2.0, epsabs=1e-13, epsrel=1e-13)[0]
        area = area_adjacent(tanh_pair_catalog, 0)
        assert area == pytest.approx(2.0 * oracle, rel=1e-10)

    def test_additivity(self):
        model = ScaledTanhProduct(1.0, THREE_MIXED)
        cat = find_crossings(model)
        a02 = area_between(cat, 0, 2)
        a01 = area_between(cat, 0, 1)
        a12 = area_between(cat, 1, 2)
        assert a02 == pytest.approx(a01 + a12, rel=1e-12)


class TestRegularizedAction:
    def test_constant_tail(self, lz_windowed):
        """Far beyond the window the tail correction is negligible."""
        cat = find_crossings(lz_windowed, (-9, 9))
        t_r = 20.0
        r = regularized_action(lz_windowed, "right", t_r, catalog=cat,
                               vanish_tol=0.0)
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
        cat = find_crossings(lz_windowed, (-9, 9))
        with pytest.raises(TailIntegralVanishes):
            regularized_action(lz_windowed, "right", 30.0, catalog=cat)


class TestCatalogTails:
    @pytest.mark.parametrize("model", [
        ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 2.0},
                                {"power": 3, "slope": 1.0, "center": -2.0}]),
        ScaledTanhProduct(1.0, [{"power": 1, "slope": 6.0, "center": 2.0},
                                {"power": 3, "slope": 1.0, "center": -2.0}]),
        LinearLZ(1.0, window=8.0),
        PolynomialWindowed([0, 0, 0, 1.0], window=3.0, sharpness=8.0),
    ])
    def test_default_anchors_bitwise(self, model):
        """The catalog's tails give R bit for bit as regularized_action does."""
        cat = find_crossings(model)
        anchors = tuple(model.tail_anchor(side, TAIL_LEVEL) for side in ("right", "left"))
        assert cat.tails == tuple((t, model.tail_integral(side, t))
                                  for side, t in zip(("right", "left"), anchors))
        assert regularized_actions(model, cat) == tuple(
            regularized_action(model, side, t, catalog=cat)
            for side, t in zip(("right", "left"), anchors))
        assert regularized_actions(model, cat, anchors) == regularized_actions(model, cat)
        doc = cat.to_dict()["tails"]
        assert doc["right"] == {"anchor": anchors[0], "integral": cat.tails[0][1]}
        assert doc["left"] == {"anchor": anchors[1], "integral": cat.tails[1][1]}

    def test_no_tails_without_limits(self, lz_pure):
        cat = find_crossings(lz_pure, (-1, 1))
        assert cat.tails is None and cat.to_dict()["tails"] is None

    def test_failed_anchor_is_no_catalog_failure(self, monkeypatch):
        """find_crossings still succeeds; the actions raise where R is used."""
        model = ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 0.0}])

        def no_anchor(side, level):
            raise ConfigError("tail envelope never reached the requested level")

        monkeypatch.setattr(model, "tail_anchor", no_anchor)
        cat = find_crossings(model)
        assert cat.tails is None
        with pytest.raises(ConfigError):
            regularized_actions(model, cat)

    def test_checks_stay_with_the_actions(self, tanh_pair, tanh_pair_catalog):
        """Catalog tails are checked when R is formed, as explicit anchors are."""
        (t_r, tail_r), left = tanh_pair_catalog.tails
        vanishing = dataclasses.replace(tanh_pair_catalog, tails=((t_r, 0.0), left))
        with pytest.raises(TailIntegralVanishes):
            regularized_actions(tanh_pair, vanishing)
        inside = dataclasses.replace(tanh_pair_catalog, tails=((1.0, tail_r), left))
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
