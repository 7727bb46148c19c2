import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from crossinglab import classify_regimes, mu
from crossinglab.errors import MStarTooSmall, RegimeViolation
from crossinglab.oscillatory import omega_m
from crossinglab.params import RegimeSplit
from crossinglab.potential import ScaledTanhProduct, find_crossings, phase_integral
import crossinglab.potential.catalog as catalog_module
from crossinglab.potential.catalog import area_adjacent
from crossinglab.potential.turning import turning_points
from crossinglab.predictor import (
    _predict_mixed,
    gamma_factor,
    interference_factor,
    interference_zeros,
    predict_mixed,
    predict_nonadiabatic,
    quantization_ladder,
)
from crossinglab.transfer import _predicted_scattering, chain_prob_leading


def landau_zener_consistency(eps: float, h: float, slope: float) -> tuple[float, float]:
    """First-order diabatic coefficient versus the exact linear-model exponent.

    Returns (gamma_1 * delta_1 * mu_1^2, pi eps^2/(slope h)); the two agree
    because gamma_1 = pi and delta_1 = 1/slope for a single transversal zero.
    """
    c = gamma_factor(1) * slope ** (-1.0) * mu(1, eps, h) ** 2
    exact_exponent = math.pi * eps * eps / (slope * h)
    return c, exact_exponent


class TestGamma:
    def test_order_one_is_pi(self):
        assert gamma_factor(1) == pytest.approx(math.pi, rel=1e-14)

    def test_order_two(self):
        expect = 4.0 * 3.0 ** (2 / 3) * gamma_fn(4 / 3) ** 2 * 0.75
        assert gamma_factor(2) == pytest.approx(expect, rel=1e-14)

    def test_order_three(self):
        expect = 4.0 * math.sqrt(12.0) * gamma_fn(5 / 4) ** 2
        assert gamma_factor(3) == pytest.approx(expect, rel=1e-14)
        assert gamma_factor(3) == pytest.approx(11.384, rel=1e-4)

    @pytest.mark.parametrize("m,v", [(1, 0.7), (2, 2.0), (3, 6.0), (4, 1.3), (5, 9.0)])
    def test_cross_identity_with_omega(self, m, v):
        """gamma_m = |omega_m|^2 |v|^(2/(m+1)) for every order."""
        assert gamma_factor(m) == pytest.approx(
            abs(omega_m(m, v)) ** 2 * abs(v) ** (2 / (m + 1)), rel=1e-13)


class TestInterferenceFactor:
    def test_single_crossing(self, tanh_cubed, tanh_cubed_catalog):
        val = interference_factor(tanh_cubed_catalog, 0.05)
        assert val == pytest.approx(6.0 ** (-0.5), rel=1e-12)

    def test_two_crossing_closed_form(self, tanh_pair, tanh_pair_catalog):
        """Equal |v| odd pair: delta = 4 |v|^(-1/2) cos^2(A/(2h) - pi/8)."""
        area = area_adjacent(tanh_pair_catalog, 0)
        v = abs(tanh_pair_catalog.crossings[0].v)
        for h in (0.03, 0.045, 0.07):
            val = interference_factor(tanh_pair_catalog, h)
            expect = 4.0 * v ** (-0.5) * math.cos(area / (2 * h) - math.pi / 8) ** 2
            assert val == pytest.approx(expect, rel=1e-10)

    def test_nonnegative(self, tanh_pair, tanh_pair_catalog, rng):
        for h in rng.uniform(0.01, 0.2, 40):
            assert interference_factor(tanh_pair_catalog, float(h)) >= 0.0

    def test_array_h_matches_scalar_calls(self):
        """One call over an array of h gives the per-sample values."""
        cat = find_crossings(ScaledTanhProduct(1.0, [
            {"power": 3, "slope": 1.0, "center": 4.2},
            {"power": 3, "slope": 1.0, "center": 0.0},
            {"power": 3, "slope": 1.0, "center": -3.1},
        ]))
        hs = np.linspace(0.02, 0.09, 64)
        scalar = [interference_factor(cat, float(h)) for h in hs]
        np.testing.assert_allclose(interference_factor(cat, hs), scalar,
                                   rtol=1e-12, atol=1e-15 * max(scalar))

    def test_three_crossing_bracket(self):
        """Three equal odd crossings reproduce the bracket
        3 + 2[cos(A1/h - pi/4) + cos(A2/h - pi/4) + cos((A1-A2)/h)]."""
        model = ScaledTanhProduct(1.0, [
            {"power": 3, "slope": 1.0, "center": 3.5},
            {"power": 3, "slope": 1.0, "center": 0.0},
            {"power": 3, "slope": 1.2, "center": -3.0},
        ])
        cat = find_crossings(model)
        assert cat.orders == (3, 3, 3)
        # not all |v| equal here, so build the bracket from the general form
        m = 3
        w = [abs(c.v) ** (-1 / (m + 1)) for c in cat.crossings]
        a1 = area_adjacent(cat, 0)
        a2 = area_adjacent(cat, 1)
        for h in (0.05, 0.083):
            val = interference_factor(cat, h)
            shift = math.pi / (m + 1)
            expect = (w[0] ** 2 + w[1] ** 2 + w[2] ** 2
                      + 2 * w[0] * w[1] * math.cos(a1 / h - shift)
                      + 2 * w[1] * w[2] * math.cos(a2 / h - shift)
                      + 2 * w[0] * w[2] * math.cos((a1 - a2) / h))
            assert val == pytest.approx(expect, rel=1e-9)

    def test_equal_v_bracket_form(self):
        """With (near-)equal |v| the bracket reduces to the 3 + 2(...) display."""
        model = ScaledTanhProduct(1.0, [
            {"power": 3, "slope": 1.0, "center": 6.0},
            {"power": 3, "slope": 1.0, "center": 0.0},
            {"power": 3, "slope": 1.0, "center": -6.0},
        ])
        cat = find_crossings(model)
        vs = [abs(c.v) for c in cat.crossings]
        spread = max(vs) / min(vs) - 1.0
        assert spread < 1e-4
        a1 = area_adjacent(cat, 0)
        a2 = area_adjacent(cat, 1)
        h = 0.06
        val = interference_factor(cat, h)
        w2 = vs[0] ** (-2 / 4)
        bracket = 3.0 + 2.0 * (math.cos(a1 / h - math.pi / 4)
                               + math.cos(a2 / h - math.pi / 4)
                               + math.cos((a1 - a2) / h))
        assert val == pytest.approx(w2 * bracket, rel=20.0 * spread + 1e-9)


class TestNonadiabaticPrediction:
    def test_cubic_coefficient(self, tanh_cubed, tanh_cubed_catalog):
        h = 1e-3
        eps = 0.05 * h**0.75
        pred = predict_nonadiabatic(tanh_cubed, tanh_cubed_catalog, eps, h)
        assert pred.parity_odd
        assert pred.c_star == pytest.approx(gamma_factor(3) * 6.0 ** (-0.5), rel=1e-12)
        assert pred.c_star == pytest.approx(4.6477, rel=1e-4)
        assert pred.p_pred == pytest.approx(1.0 - pred.c_star * pred.mu_star**2)

    def test_even_total_order_small_p(self, tanh_pair, tanh_pair_catalog):
        h = 0.05
        eps = 0.04 * h**0.75
        pred = predict_nonadiabatic(tanh_pair, tanh_pair_catalog, eps, h)
        assert not pred.parity_odd
        assert pred.p_pred == pytest.approx(pred.c_star * pred.mu_star**2)

    def test_transversal_refused(self, lz_windowed):
        cat = find_crossings(lz_windowed, (-9, 9))
        with pytest.raises(MStarTooSmall):
            predict_nonadiabatic(lz_windowed, cat, 0.001, 0.01)
        pred = predict_nonadiabatic(lz_windowed, cat, 0.001, 0.01,
                                    allow_order_one=True)
        assert pred.m_star == 1

    def test_regime_gate(self, tanh_cubed, tanh_cubed_catalog):
        with pytest.raises(RegimeViolation):
            predict_nonadiabatic(tanh_cubed, tanh_cubed_catalog, 0.5, 0.01)

    def test_matches_chain_algebra(self, tanh_pair, tanh_pair_catalog):
        """The leading coefficient equals the second-order chain probability
        with couplings -i conj(omega) mu and the between phases."""
        h = 0.06
        eps = 0.03 * h**0.75
        pred = predict_nonadiabatic(tanh_pair, tanh_pair_catalog, eps, h)
        betas, nus = [], []
        for k, c in enumerate(tanh_pair_catalog.crossings):
            betas.append(-1j * np.conj(omega_m(c.m, c.v)) * mu(c.m, eps, h))
            if k < tanh_pair_catalog.n - 1:
                integral = phase_integral(tanh_pair,
                                          tanh_pair_catalog.positions[k + 1],
                                          tanh_pair_catalog.positions[k])
                nus.append(np.exp(-1j * integral / h))
        nus.append(1.0)
        chain_val = chain_prob_leading([1.0, 1.0], betas, nus)
        assert pred.c_star * pred.mu_star**2 == pytest.approx(chain_val, rel=1e-12)

    def test_landau_zener_consistency(self):
        c, exponent = landau_zener_consistency(0.1, 0.2, 1.5)
        assert c == pytest.approx(exponent, rel=1e-13)
        assert c == pytest.approx(math.pi * 0.01 / (1.5 * 0.2), rel=1e-13)

    def test_error_order_descriptor(self, tanh_cubed, tanh_cubed_catalog):
        pred = predict_nonadiabatic(tanh_cubed, tanh_cubed_catalog, 1e-4, 1e-3)
        assert "h^(1/12)" in pred.error_order


class TestInterferenceZeros:
    def test_quantization_ladder_odd(self, tanh_pair, tanh_pair_catalog):
        """delta vanishes exactly at h = A / (2 pi k - m pi/(m+1))."""
        zeros = quantization_ladder(tanh_pair_catalog, (0.02, 0.08))
        assert len(zeros) >= 3
        for h in zeros:
            val = interference_factor(tanh_pair_catalog, h)
            assert val < 1e-18

    def test_quantization_ladder_reaches_h_min(self, tanh_pair_catalog):
        """Every rung of a wide range is returned, down to the smallest h."""
        h_min, h_max = 1e-5, 1e-3
        zeros = quantization_ladder(tanh_pair_catalog, (h_min, h_max))
        area = 2.0 * abs(tanh_pair_catalog.phase_between(*tanh_pair_catalog.lambda_star))
        shift = 3.0 * math.pi / 4.0
        count = (math.floor((area / h_min + shift) / (2.0 * math.pi))
                 - math.ceil((area / h_max + shift) / (2.0 * math.pi)) + 1)
        assert len(zeros) == count > 50000
        assert zeros == sorted(zeros)
        assert h_min <= zeros[0] <= h_min + 2.0 * math.pi * zeros[0] ** 2 / area
        assert zeros[-1] <= h_max
        with pytest.raises(ValueError):
            quantization_ladder(tanh_pair_catalog, (0.0, h_max))

    def test_quantization_ladder_even(self):
        model = ScaledTanhProduct(1.0, [
            {"power": 2, "slope": 1.0, "center": 2.0},
            {"power": 2, "slope": 1.0, "center": -2.0},
        ])
        cat = find_crossings(model)
        area = area_adjacent(cat, 0)
        zeros = interference_zeros(model, cat, (0.02, 0.08))
        for h in zeros:
            # even order: A/h + pi in 2 pi Z
            k = (area / h + math.pi) / (2 * math.pi)
            assert abs(k - round(k)) < 1e-9
            assert interference_factor(cat, h) < 1e-18

    def test_single_crossing_empty(self, tanh_cubed, tanh_cubed_catalog):
        assert interference_zeros(tanh_cubed, tanh_cubed_catalog, (0.02, 0.1)) == []

    def test_unequal_weights_no_zeros(self):
        """Cross amplitude below the diagonal: the factor never vanishes."""
        model = ScaledTanhProduct(1.0, [
            {"power": 3, "slope": 2.0, "center": 2.0},   # |v| = 48 tanh^3-ish
            {"power": 3, "slope": 1.0, "center": -2.0},
        ])
        cat = find_crossings(model)
        vs = sorted(abs(c.v) for c in cat.crossings)
        assert vs[1] / vs[0] > 4
        assert interference_zeros(model, cat, (0.02, 0.08)) == []

    def test_fermi_relation_three_crossings(self):
        """Incommensurate areas sweep the two relative phases across the
        destructive locus; equal-spacing configs bottom out at 1/9 instead."""
        model = ScaledTanhProduct(1.0, [
            {"power": 3, "slope": 1.0, "center": 4.2},
            {"power": 3, "slope": 1.0, "center": 0.0},
            {"power": 3, "slope": 1.0, "center": -3.1},
        ])
        cat = find_crossings(model)
        zeros = interference_zeros(model, cat, (0.02, 0.09), samples=8000)
        assert zeros, "expected destructive-interference points"
        peak = max(interference_factor(cat, hh)
                   for hh in np.linspace(0.02, 0.09, 64))
        for h in zeros:
            assert interference_factor(cat, h) < 0.06 * peak

        # the symmetric-spacing layout never vanishes: floor at 1/9 of peak
        sym = ScaledTanhProduct(1.0, [
            {"power": 3, "slope": 1.0, "center": 3.5},
            {"power": 3, "slope": 1.0, "center": 0.0},
            {"power": 3, "slope": 1.0, "center": -3.5},
        ])
        cat_sym = find_crossings(sym)
        hs = np.linspace(0.02, 0.09, 800)
        vals = [interference_factor(cat_sym, float(h)) for h in hs]
        assert min(vals) > 0.10 * max(vals)


class TestDeltaSpectrum:
    def test_fft_recovers_area_frequency(self, tanh_pair, tanh_pair_catalog):
        """delta as a function of 1/h oscillates at the enclosed area."""
        area = area_adjacent(tanh_pair_catalog, 0)
        x = np.linspace(10.0, 40.0, 2048)   # 1/h grid
        vals = np.array([interference_factor(tanh_pair_catalog, 1.0 / xi)
                         for xi in x])
        vals -= vals.mean()
        freqs = np.fft.rfftfreq(len(x), d=(x[1] - x[0]) / (2 * math.pi))
        spectrum = np.abs(np.fft.rfft(vals))
        peak = freqs[np.argmax(spectrum)]
        assert peak == pytest.approx(area, rel=0.02)


class TestMixedPrediction:
    def test_reduces_to_nonadiabatic(self, tanh_pair, tanh_pair_catalog):
        """With no adiabatic crossing the leading term is the diabatic one."""
        h = 0.05
        eps = 0.03 * h**0.75
        split = classify_regimes(tanh_pair_catalog.orders, eps, h)
        assert split.assignment == ("N", "N")
        mixed = predict_mixed(tanh_pair, tanh_pair_catalog, eps, h, split)
        plain = predict_nonadiabatic(tanh_pair, tanh_pair_catalog, eps, h)
        assert mixed.leading == pytest.approx(plain.c_star * plain.mu_star**2,
                                              rel=1e-12)
        assert mixed.n_sharp_odd == 0
        assert mixed.parity_odd == plain.parity_odd

    def test_blocks_sum_to_leading(self):
        model = ScaledTanhProduct(1.0, [
            {"power": 1, "slope": 6.0, "center": 2.0},
            {"power": 3, "slope": 1.0, "center": -2.0},
        ])
        cat = find_crossings(model)
        h = 1e-4
        eps = 0.3 * math.sqrt(h)
        split = RegimeSplit.build(cat.orders, ["N", "A"])
        tps = {1: turning_points(model, cat, 1, eps)}
        mixed = _predict_mixed(model, cat, eps, h, split, turning_sets=tps)
        total = sum(mixed.blocks.values())
        assert total == pytest.approx(mixed.leading, rel=1e-12)
        assert mixed.parity_odd
        assert mixed.p_pred == pytest.approx(1.0 - mixed.leading)

    def test_sharp_blocks_exponentially_small_on_power_path(self):
        """eps ~ h^alpha inside the window: the sharp contributions are
        negligible against the flat ones."""
        model = ScaledTanhProduct(1.0, [
            {"power": 1, "slope": 6.0, "center": 2.0},
            {"power": 3, "slope": 1.0, "center": -2.0},
        ])
        cat = find_crossings(model)
        h = 1e-4
        eps = 0.2 * math.sqrt(h)  # mu_1 = 0.2, mu_3 = 2.0 -> sharp but mild
        split = RegimeSplit.build(cat.orders, ["N", "A"])
        tps = {1: turning_points(model, cat, 1, eps)}
        mixed = _predict_mixed(model, cat, eps, h, split, turning_sets=tps)
        assert mixed.blocks["sharp_diag"] < mixed.blocks["flat_flat_diag"]
        assert mixed.leading <= 4.0 * mixed.eps1**2
        assert "q" in mixed.coefficients and "p" in mixed.coefficients

    def test_log_path_identity(self):
        """On the logarithmic path the sharp exponential equals h^(a rho)."""
        rho, m = 0.8, 3
        for h in (1e-3, 1e-4):
            eps = (h * math.log(1.0 / h**rho)) ** (m / (m + 1.0))
            mu_sharp = mu(m, eps, h)
            for a in (0.5, 0.91):
                lhs = math.exp(-a * mu_sharp ** ((m + 1) / m))
                assert lhs == pytest.approx(h ** (a * rho), rel=1e-10)


class TestGeometryCache:
    def test_no_quadrature_once_the_catalog_exists(self, monkeypatch):
        """Between-crossing integrals are computed by find_crossings only.

        Counts the quadratures of V made through the catalog module; the
        regularized tail actions use the family's own quadrature and are not
        counted.
        """
        calls = []
        real = catalog_module.integrate_smooth

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(catalog_module, "integrate_smooth", counting)
        three = ScaledTanhProduct(1.0, [
            {"power": 3, "slope": 1.0, "center": 4.2},
            {"power": 3, "slope": 1.0, "center": 0.0},
            {"power": 3, "slope": 1.0, "center": -3.1},
        ])
        cat = find_crossings(three)
        assert len(calls) == cat.n - 1
        demo = ScaledTanhProduct(1.0, [
            {"power": 1, "slope": 6.0, "center": 2.0},
            {"power": 3, "slope": 1.0, "center": -2.0},
        ])
        demo_cat = find_crossings(demo)
        calls.clear()

        assert interference_zeros(three, cat, (0.02, 0.09), samples=2048)
        h = 1e-4
        eps = 0.3 * math.sqrt(h)
        split = RegimeSplit.build(demo_cat.orders, ["N", "A"])
        tps = {1: turning_points(demo, demo_cat, 1, eps)}
        _predicted_scattering(demo, eps, h, split, demo_cat, turning_sets=tps)
        _predict_mixed(demo, demo_cat, eps, h, split, turning_sets=tps)
        assert calls == []
