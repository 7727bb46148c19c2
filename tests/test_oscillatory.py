import cmath
import math

import numpy as np
import pytest
from scipy.special import fresnel, gamma

from crossinglab.errors import QuadratureTolExceeded
from crossinglab.oscillatory import omega_m, osc_integral, stationary_phase_leading
from crossinglab.potential import LinearLZ, PolynomialWindowed, ScaledTanhProduct


class TestOmega:
    def test_order_one(self):
        expect = math.sqrt(math.pi) * cmath.exp(1j * math.pi / 4)
        assert omega_m(1, 1.0) == pytest.approx(expect, rel=1e-14)
        assert abs(omega_m(1, 1.0)) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_order_two(self):
        expect = 2.0 * (6.0 / 4.0) ** (1 / 3) * gamma(4 / 3) * math.cos(math.pi / 6)
        assert omega_m(2, 2.0) == pytest.approx(expect, rel=1e-14)
        assert omega_m(2, 2.0).imag == 0.0

    def test_sign_flip_conjugates(self):
        assert omega_m(1, -1.0) == pytest.approx(np.conj(omega_m(1, 1.0)), rel=1e-14)
        assert omega_m(3, -6.0) == pytest.approx(np.conj(omega_m(3, 6.0)), rel=1e-14)

    def test_arguments(self):
        for m in (1, 3, 5):
            assert cmath.phase(omega_m(m, 2.0)) == pytest.approx(
                math.pi / (2 * (m + 1)), rel=1e-12)
        for m in (2, 4):
            assert cmath.phase(omega_m(m, 2.0)) == pytest.approx(0.0, abs=1e-14)

    def test_invalid(self):
        with pytest.raises(ValueError):
            omega_m(0, 1.0)
        with pytest.raises(ValueError):
            omega_m(2, 0.0)


class TestOscIntegral:
    def test_fresnel_closed_form(self, lz_pure):
        """V = t gives the Fresnel integral; exact truncated value from C/S.
        Every tol passed is met."""
        L = 3.0
        for h in (0.2, 0.05, 0.0125):
            xi = L * math.sqrt(2.0 / (math.pi * h))
            s, c = fresnel(xi)
            exact = 2.0 * math.sqrt(math.pi * h / 2.0) * (c + 1j * s)
            for tol in (1e-6, 1e-9, 1e-12):
                val = osc_integral(lz_pure, (-L, L), 0.0, h, tol=tol)
                assert abs(val - exact) <= tol

    def test_fast_amplitude_matches_shifted_fresnel(self, lz_pure):
        """cos(k t) exp(i t^2 / h) = (1/2) e^{-i k^2 h / 4} sum_+- exp(i (t +- k h / 2)^2 / h),
        so the integral is a sum of Fresnel integrals over shifted ends."""
        L, h, k = 3.0, 0.05, 300.0

        def fresnel_from_zero(x):  # integral from 0 to x of exp(i s^2 / h)
            s, c = fresnel(x * math.sqrt(2.0 / (math.pi * h)))
            return math.sqrt(math.pi * h / 2.0) * (c + 1j * s)

        shift = 0.5 * k * h
        exact = 0.5 * cmath.exp(-0.25j * k * k * h) * sum(
            fresnel_from_zero(L + d) - fresnel_from_zero(-L + d) for d in (shift, -shift))
        val = osc_integral(lz_pure, (-L, L), 0.0, h,
                           amplitude=lambda t: np.cos(k * t), tol=1e-12)
        assert abs(val - exact) <= 1e-12

    def test_wide_window_matches_infinite_fresnel(self, lz_pure):
        """Truncation error of the full-line value falls like h/(2L)."""
        h = 0.01
        L = 10.0
        val = osc_integral(lz_pure, (-L, L), 0.0, h)
        infinite = math.sqrt(math.pi * h) * cmath.exp(1j * math.pi / 4)
        assert val == pytest.approx(infinite, rel=2.0 * (h / (2 * L)) / abs(infinite))

    def test_zero_amplitude(self, tanh_cubed):
        val = osc_integral(tanh_cubed, (-1, 1), 0.0, 0.05,
                           amplitude=lambda t: np.zeros_like(t))
        assert val == 0.0

    def test_conjugation_symmetry(self, tanh_cubed):
        plus = osc_integral(tanh_cubed, (-1.2, 1.2), 0.0, 0.02)
        minus = osc_integral(tanh_cubed, (-1.2, 1.2), 0.0, 0.02, sign=-1)
        assert minus == pytest.approx(np.conj(plus), rel=1e-13)

    def test_nonvanishing_phase_is_order_h(self, tanh_cubed):
        """Away from the zero the integral decays like h."""
        hs = 0.1 * 2.0 ** -np.arange(5)
        vals = [abs(osc_integral(tanh_cubed, (0.5, 1.5), 0.0, h)) / h for h in hs]
        assert max(vals) / min(vals) < 30.0

    def test_amplitude_weighting(self, lz_pure):
        """Linear-in-f check: doubling f doubles the integral."""
        one = osc_integral(lz_pure, (-2, 2), 0.0, 0.05,
                           amplitude=lambda t: np.cos(t))
        two = osc_integral(lz_pure, (-2, 2), 0.0, 0.05,
                           amplitude=lambda t: 2.0 * np.cos(t))
        assert two == pytest.approx(2.0 * one, rel=1e-13)

    def test_tolerance_raise(self, tanh_cubed):
        """An amplitude oscillating faster than the largest grid resolves must
        be reported, not silently mis-integrated."""
        with pytest.raises(QuadratureTolExceeded):
            osc_integral(tanh_cubed, (-1, 1), 0.0, 0.05,
                         amplitude=lambda t: np.cos(2e6 * t), tol=1e-12)

    @pytest.mark.parametrize("h", [0.0, -0.1, math.inf, math.nan])
    def test_bad_h(self, lz_pure, h):
        with pytest.raises(ValueError, match="need 0 < h < inf"):
            osc_integral(lz_pure, (-1.0, 1.0), 0.0, h)

    def test_reversed_interval_flips_sign(self, lz_pure):
        fwd = osc_integral(lz_pure, (-1.0, 2.0), 0.0, 0.05)
        rev = osc_integral(lz_pure, (2.0, -1.0), 0.0, 0.05)
        assert rev == pytest.approx(-fwd, rel=1e-14)


class TestLeadingTerm:
    def test_closed_form_m1(self):
        lead = stationary_phase_leading(1.0, 1, 1.0, 0.01)
        assert lead == pytest.approx(math.sqrt(0.01 * math.pi) * cmath.exp(1j * math.pi / 4),
                                     rel=1e-14)

    def test_zero_amplitude(self):
        assert stationary_phase_leading(0.0, 3, 6.0, 1e-4) == 0.0

    def test_m3_scaling(self):
        lead = stationary_phase_leading(1.0, 3, 6.0, 1e-4)
        assert lead == pytest.approx(omega_m(3, 6.0) * (1e-4) ** 0.25, rel=1e-14)

    @pytest.mark.parametrize("m,model_builder", [
        (1, lambda: LinearLZ(slope=1.0)),
        (2, lambda: PolynomialWindowed([0, 0, 1.0], window=6.0)),
        (3, lambda: ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 0.0}])),
    ])
    def test_remainder_order(self, m, model_builder):
        model = model_builder()
        v = float(math.factorial(m) * model.taylor(0.0, m)[m])
        hs = 0.2 * 2.0 ** -np.arange(6)
        resid = []
        for h in hs:
            val = osc_integral(model, (-1.5, 1.5), 0.0, h)
            resid.append(abs(val - stationary_phase_leading(1.0, m, v, h)))
        slope = np.polyfit(np.log(hs), np.log(resid), 1)[0]
        assert slope >= 2.0 / (m + 1) - 0.1

    def test_leading_term_dominates(self, tanh_cubed):
        """At small h the leading term approximates the full integral."""
        h = 1e-4
        val = osc_integral(tanh_cubed, (-1.2, 1.2), 0.0, h)
        lead = stationary_phase_leading(1.0, 3, 6.0, h)
        assert abs(val - lead) < 0.1 * abs(lead)
