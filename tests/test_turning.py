import math

import numpy as np
import pytest
from scipy.integrate import quad

from crossinglab.errors import NewtonDiverged, TurningPointFailure
from crossinglab.harness.sweep import DEMO_POTENTIAL
from crossinglab.params import classify_regimes
from crossinglab.potential import (
    LinearLZ,
    ScaledTanhProduct,
    find_crossings,
    model_from_config,
    turning_points,
)
from crossinglab.potential import turning as turning_module
from crossinglab.potential.turning import (
    EPS_MACHINE,
    NEWTON_TOL,
    _actions,
    _jet_seeds,
    _newton_roots,
    _roots_and_actions,
    _seed,
    turning_point_sets,
)
from crossinglab.transfer import chain_factors


def _reference_action(model, t_k, zeta, eps):
    """2 * integral of sqrt(V^2 + eps^2) from t_k to zeta, one node at a time.

    48 Gauss-Legendre nodes in u with s = 1 - u^2; walking from t_k, each
    node takes the square root nearer to the one before, starting from +eps.
    """
    x, w = np.polynomial.legendre.leggauss(48)
    u = 0.5 * (x + 1.0)
    g = np.sqrt(model.eval(t_k + (1.0 - u * u) * (zeta - t_k)) ** 2 + eps * eps)
    prev = eps
    for i in range(47, -1, -1):        # u = 1 is t_k, u = 0 is zeta
        if abs(g[i] - prev) > abs(g[i] + prev):
            g[i] = -g[i]
        prev = g[i]
    return 2.0 * np.sum(0.5 * w * g * 2.0 * u) * (zeta - t_k)


def _roots(model, catalog, k, eps):
    """The turning points of branches 1 and m at eps (the same point twice
    when m = 1), from the batch that turning_points solves."""
    zetas, _ = _roots_and_actions(model, catalog, (k,), eps)
    return zetas[0], zetas[-2]


def _fitted_exponent(model, catalog, k, eps):
    """The exponent of Im A over eps and eps/2, averaged over the branches,
    that turning_points checks against (m+1)/m."""
    _, actions = _roots_and_actions(model, catalog, (k,), eps)
    return float(np.mean([math.log(a.imag / b.imag) / math.log(2.0)
                          for a, b in zip(actions[::2], actions[1::2])]))


def _reference_root(model, seed, eps):
    """Scalar damped Newton on V^2 + eps^2, halving steps that raise |F|."""
    z = complex(seed)
    tol = 1e-12 * eps * eps

    def residual(z):
        return complex(model.eval(np.asarray(z))) ** 2 + eps * eps

    f = residual(z)
    for _ in range(60):
        if abs(f) <= tol:
            break
        step = f / (2.0 * complex(model.eval(np.asarray(z)))
                    * complex(model.deriv(np.asarray(z))))
        for _ in range(50):
            f_new = residual(z - step)
            if abs(f_new) < abs(f) or abs(f_new) <= tol:
                break
            step *= 0.5
        z, f = z - step, f_new
    assert abs(f) <= 10.0 * tol
    return z.conjugate() if z.imag < 0 else z


DEMO = model_from_config(DEMO_POTENTIAL)
DEMO_CATALOG = find_crossings(DEMO)


class TestLinearExact:
    """V = v t: roots at +-i eps/v, action 2*int_0^{i eps} sqrt(s^2+eps^2) = i pi eps^2/2."""

    @pytest.mark.parametrize("eps", [0.1, 0.02, 0.004])
    def test_root_and_action(self, lz_pure, eps):
        cat = find_crossings(lz_pure)
        tp = turning_points(lz_pure, cat, 0, eps)
        assert _roots(lz_pure, cat, 0, eps)[0] == pytest.approx(1j * eps, abs=1e-11)
        assert tp.first.action == pytest.approx(1j * math.pi * eps**2 / 2.0, rel=1e-10)
        assert tp.first.decay_coeff == pytest.approx(math.pi / 2.0, rel=1e-8)
        assert _fitted_exponent(lz_pure, cat, 0, eps) == pytest.approx(2.0, abs=1e-6)

    def test_landau_zener_exponent(self, lz_pure):
        """exp(-a mu_1^2) with a = pi/2 on BOTH turning points reproduces the
        exact linear-model exponent pi eps^2 / h."""
        cat = find_crossings(lz_pure)
        tp = turning_points(lz_pure, cat, 0, 0.05)
        total = tp.first.decay_coeff + tp.last.decay_coeff
        assert total == pytest.approx(math.pi, rel=1e-8)


class TestTanhCubed:
    def test_seed_accuracy_scaling(self, tanh_cubed, tanh_cubed_catalog):
        """|zeta - seed| = O(eps^(2/m)) as eps -> 0."""
        errs = []
        eps_vals = [0.04, 0.02, 0.01, 0.005]
        for eps in eps_vals:
            first, _ = _roots(tanh_cubed, tanh_cubed_catalog, 0, eps)
            errs.append(abs(first - _seed(0.0, 3, 6.0, eps, 1)))
        slope = np.polyfit(np.log(eps_vals), np.log(errs), 1)[0]
        assert slope >= 2.0 / 3.0 - 0.15

    def test_arg_positions(self, tanh_cubed, tanh_cubed_catalog):
        """Roots approach args pi/(2m) and (2m-1)pi/(2m) as eps -> 0."""
        first, last = _roots(tanh_cubed, tanh_cubed_catalog, 0, 0.002)
        assert np.angle(first) == pytest.approx(math.pi / 6, abs=0.02)
        assert np.angle(last) == pytest.approx(5 * math.pi / 6, abs=0.02)
        assert first.imag > 0 and last.imag > 0

    def test_residual_is_root(self, tanh_cubed, tanh_cubed_catalog):
        eps = 0.01
        for zeta in _roots(tanh_cubed, tanh_cubed_catalog, 0, eps):
            res = complex(tanh_cubed.eval(np.asarray(zeta))) ** 2 + eps * eps
            assert abs(res) < 1e-12 * eps * eps * 10 + 1e-15

    def test_decay_constant_against_quadrature_oracle(self, tanh_cubed,
                                                      tanh_cubed_catalog):
        """Leading coefficient via the scaled monomial integral:
        a = (m!/|v|)^(1/m) * Im[2 e^(i pi/6) int_0^1 sqrt(1 - s^6) ds]."""
        integral = quad(lambda s: math.sqrt(1.0 - s**6), 0.0, 1.0,
                        epsabs=1e-13)[0]
        a_expect = (math.factorial(3) / 6.0) ** (1 / 3) * 2.0 * integral * math.sin(math.pi / 6)
        tp = turning_points(tanh_cubed, tanh_cubed_catalog, 0, 0.002)
        assert tp.first.decay_coeff == pytest.approx(a_expect, rel=0.02)
        assert tp.a_min == pytest.approx(a_expect, rel=0.02)

    def test_fitted_scaling_exponent(self, tanh_cubed, tanh_cubed_catalog):
        fitted = _fitted_exponent(tanh_cubed, tanh_cubed_catalog, 0, 0.01)
        assert fitted == pytest.approx(4.0 / 3.0, rel=0.05)


class TestNegativeLeadingCoefficient:
    def test_nearest_pair_selected(self):
        """With v < 0 the seeds must still target the two roots closest to
        the real axis (the polynomial V^2 + eps^2 ignores the sign)."""
        model = ScaledTanhProduct(1.0, [
            {"power": 1, "slope": 6.0, "center": 2.0},
            {"power": 3, "slope": 1.0, "center": -2.0},
        ])
        cat = find_crossings(model)
        assert cat.crossings[1].v < 0
        first, last = _roots(model, cat, 1, 0.005)
        arg1 = np.angle(first - cat.positions[1])
        arg2 = np.angle(last - cat.positions[1])
        assert arg1 == pytest.approx(math.pi / 6, abs=0.05)
        assert arg2 == pytest.approx(5 * math.pi / 6, abs=0.05)

    def test_eps_too_large_fails_cleanly(self, tanh_cubed, tanh_cubed_catalog):
        """Seeds beyond the analyticity scale must fail loudly, not wander."""
        from crossinglab.errors import BranchAmbiguity, NewtonDiverged

        with pytest.raises((TurningPointFailure, NewtonDiverged, BranchAmbiguity)):
            turning_points(tanh_cubed, tanh_cubed_catalog, 0, 4.0)


class TestBatchedSolve:
    """All roots of a call in one batch, against a scalar reference."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("eps", [0.3, 0.1, 0.03, 0.01])
    def test_demo_matches_scalar_reference(self, k, eps):
        self._check(DEMO, DEMO_CATALOG, k, eps)

    @pytest.mark.parametrize("eps", [0.3, 0.1, 0.03, 0.01, 0.002])
    def test_tanh_cubed_matches_scalar_reference(self, tanh_cubed, tanh_cubed_catalog, eps):
        self._check(tanh_cubed, tanh_cubed_catalog, 0, eps)

    @staticmethod
    def _check(model, catalog, k, eps):
        tp = turning_points(model, catalog, k, eps)
        c = catalog.crossings[k]
        exponent = (c.m + 1.0) / c.m
        q = 2.0 ** (-1.0 / c.m)
        roots = _roots(model, catalog, k, eps)
        for point, root, j in ((tp.first, roots[0], 1), (tp.last, roots[1], c.m)):
            ims = []
            for e in (eps, eps / 2.0):
                zeta = _reference_root(model, _seed(c.t, c.m, c.v, e, j), e)
                action = _reference_action(model, c.t, zeta, e)
                ims.append(action.imag / e ** exponent)
                if e == eps:
                    assert abs(root - zeta) <= 1e-13 * abs(zeta)
                    assert abs(point.action - action) <= 1e-13 * abs(action)
            assert point.decay_coeff == pytest.approx((ims[1] - q * ims[0]) / (1.0 - q),
                                                      rel=1e-13)

    @pytest.mark.parametrize("ks, counts", [((0,), (2, 0)), ((1,), (2, 0)), ((0, 1), (2, 0))])
    def test_fewer_model_calls(self, ks, counts, monkeypatch):
        """The jet seeds meet the tolerance at eps = 0.1, so V is evaluated
        once at them and once on the action paths, for one crossing or both.
        One root at a time took 16 + 6 (m = 1) and 44 + 18 (m = 3) calls, the
        leading seeds in one batch 5 + 3 and 7 + 5."""
        model = model_from_config(DEMO_POTENTIAL)
        calls = {"eval": 0, "deriv": 0}
        for name in calls:
            real = getattr(model, name)

            def counted(t, name=name, real=real):
                calls[name] += 1
                return real(t)

            monkeypatch.setattr(model, name, counted)
        turning_point_sets(model, DEMO_CATALOG, ks, 0.1)
        assert (calls["eval"], calls["deriv"]) == counts

    def test_branch_followed_across_the_cut(self):
        """On [0, 1.2] V^2 + 1 with V = 3 t e^(i pi t / 2) crosses the negative
        real axis at t = 1, where the principal square root jumps."""

        class Twisting:
            def eval(self, t):
                return 3.0 * t * np.exp(0.5j * np.pi * t)

        zeta = 1.2
        action = _actions(Twisting(), np.zeros(1), np.array([zeta + 0j]), np.array([1.0]))
        s = np.linspace(0.0, 1.0, 200_001)
        f = Twisting().eval(s * zeta) ** 2 + 1.0
        continuous = np.sqrt(np.abs(f)) * np.exp(0.5j * np.unwrap(np.angle(f)))
        expected = 2.0 * zeta * np.trapezoid(continuous, s)
        principal = 2.0 * zeta * np.trapezoid(np.sqrt(f), s)
        assert abs(principal - expected) > 0.1 * abs(expected)
        assert abs(action[0] - expected) < 1e-8 * abs(expected)
        assert action[0] == pytest.approx(_reference_action(Twisting(), 0.0, zeta, 1.0),
                                          rel=1e-13)

    def test_stationary_step_raises(self, monkeypatch):
        """From a leading seed Newton must step; the jet seeds of
        turning_points meet the tolerance without one at this eps."""
        model = ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 0.0}])
        monkeypatch.setattr(model, "deriv", lambda t: np.zeros_like(t))
        with pytest.raises(NewtonDiverged, match="stationary Newton step"):
            _newton_roots(model, np.array([_seed(0.0, 3, 6.0, 0.1, 1)]), np.array([0.1]))

    @pytest.mark.parametrize("eps, message", [(4.0, "scaling exponent"),
                                              (8.0, "converged far from the crossing")])
    def test_large_eps_raises(self, tanh_cubed, tanh_cubed_catalog, eps, message):
        with pytest.raises(TurningPointFailure, match=message):
            turning_points(tanh_cubed, tanh_cubed_catalog, 0, eps)


class TestSmallEps:
    """Newton stops at the rounding level of V^2 + eps^2 when that lies above
    NEWTON_TOL eps^2, as it does at the demo's order-1 crossing (t = 2, slope
    6) for eps <= 3e-3."""

    LADDER = tuple(float(e) for e in np.geomspace(0.3, 1e-5, 23))

    @pytest.mark.parametrize("k", [0, 1])
    def test_roots_converge_down_the_ladder(self, k, monkeypatch):
        c = DEMO_CATALOG.crossings[k]
        strict_failures = 0
        for eps in self.LADDER:
            js = (1, c.m) if c.m > 1 else (1,)
            eps_all = np.array([eps, eps / 2.0] * len(js))
            seeds = np.array([_seed(c.t, c.m, c.v, e, j) for j in js for e in (eps, eps / 2.0)])
            roots = _newton_roots(DEMO, seeds, eps_all)
            residual = np.abs(DEMO.eval(roots) ** 2 + eps_all ** 2)
            assert np.all(residual <= np.maximum(1e-11 * eps_all ** 2, 1e-13 * eps_all))
            # without the rounding floor: the same roots, bit for bit, or a stall
            with monkeypatch.context() as patch:
                patch.setattr(turning_module, "ROUNDING_ULPS", 0.0)
                try:
                    strict = _newton_roots(DEMO, seeds, eps_all)
                except NewtonDiverged:
                    strict_failures += 1
                    continue
            assert np.array_equal(roots, strict)
        assert strict_failures == (11 if k == 0 else 0)

    @pytest.mark.parametrize("k, eps_min", [(0, 1.5e-4), (1, 1e-5)])
    def test_turning_points_down_the_ladder(self, k, eps_min):
        """The Im A exponent tends to (m+1)/m down the ladder.

        find_crossings places the order-1 zero 1.1e-4 right of t = 2; below
        eps ~ 1e-4 that is farther than the roots lie from t = 2, and the
        far-from-the-crossing check refuses them.
        """
        c = DEMO_CATALOG.crossings[k]
        target = (c.m + 1.0) / c.m
        ladder = [eps for eps in self.LADDER if eps >= eps_min]
        sets = [turning_points(DEMO, DEMO_CATALOG, k, eps) for eps in ladder]
        gaps = [abs(_fitted_exponent(DEMO, DEMO_CATALOG, k, eps) - target) for eps in ladder]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 2e-4
        if c.m == 1:
            # Landau-Zener: Im A = pi eps^2 / (2 |v|)
            assert sets[-1].a_min == pytest.approx(math.pi / (2.0 * abs(c.v)), rel=1e-5)


def _leading_solve(model, catalog, ks, eps, monkeypatch):
    """_roots_and_actions with every seed left at its leading order."""
    with monkeypatch.context() as patch:
        patch.setattr(turning_module, "_jet_seeds", lambda jets, t, lead, *_: lead)
        return _roots_and_actions(model, catalog, ks, eps)


def _seed_cases(name):
    """(model, k, eps) of one family of cases for the jet seeds."""
    if name == "demo_ladder":
        return [(DEMO, k, eps) for k in (0, 1) for eps in TestSmallEps.LADDER
                if eps >= (1.5e-4 if k == 0 else 1e-5)]
    if name == "lz_windowed":
        return [(LinearLZ(slope=1.0, window=8.0, sharpness=4.0), 0, eps)
                for eps in (0.3, 0.1, 0.01, 1e-3)]
    if name.startswith("msa_windowed"):
        coefficients = [0.0] * int(name[-1]) + [1.0]
        model = model_from_config({"family": "polynomial_windowed", "params": {
            "coefficients": coefficients, "window": 3.0, "sharpness": 8.0}})
        return [(model, 0, eps) for eps in (0.3, 0.1, 0.03, 0.01, 1e-3)]
    power = int(name[-1])
    return [(ScaledTanhProduct(1.0, [{"power": power, "slope": slope, "center": 0.0}]), 0, eps)
            for slope in (0.5, 1.0, 2.0, 6.0) for eps in (0.3, 0.1, 0.03, 0.01, 1e-3)]


class TestJetSeeds:
    """Seeds refined on the crossing's jet, and one batch for many crossings."""

    @pytest.mark.parametrize("name", ["demo_ladder", "lz_windowed", "msa_windowed_m2",
                                      "msa_windowed_m3", "tanh_m1", "tanh_m2", "tanh_m3",
                                      "tanh_m4", "tanh_m5"])
    def test_same_roots_as_the_leading_seeds(self, name, monkeypatch):
        """The same roots and actions as Newton from the leading seeds, every
        root in its branch's sector.

        Each solve stops at |F| <= NEWTON_TOL eps^2 (or at the rounding
        floor), which places its root within that residual over |F'| of the
        exact one; from the leading seeds the last step can stop there, 1.5e-13
        relative on tanh^2, while the jet seeds land on the root.  The action
        is stationary in its endpoint, so the actions agree to 1e-13.
        """
        models = {}
        for model, k, eps in _seed_cases(name):
            catalog = models.setdefault(id(model), find_crossings(model))
            c = catalog.crossings[k]
            zetas, actions = _roots_and_actions(model, catalog, (k,), eps)
            lead_zetas, lead_actions = _leading_solve(model, catalog, (k,), eps, monkeypatch)
            js = [j for j in ((1, c.m) if c.m > 1 else (1,)) for _ in range(2)]
            for zeta, lead_zeta, j, e in zip(zetas, lead_zetas, js, [eps, eps / 2.0] * 2):
                slope = 2.0 * e * abs(complex(model.deriv(np.asarray(zeta))))
                bound = 2.0 * NEWTON_TOL * e * e / slope + 16.0 * EPS_MACHINE * abs(zeta)
                assert abs(zeta - lead_zeta) <= bound, (name, k, eps)
                sector = np.angle(zeta - c.t) - math.pi * (2 * j - 1) / (2 * c.m)
                assert abs(sector) < math.pi / (2 * c.m), (name, k, eps, j)
            np.testing.assert_allclose(actions, lead_actions, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("k", [0, 1])
    def test_seeds_land_on_the_roots(self, k):
        """At eps = 0.1 the refined seeds are the demo's roots to 1e-13 of
        their distance from the crossing; the leading seeds miss by 1e-3."""
        c = DEMO_CATALOG.crossings[k]
        eps = 0.1
        js = [j for j in ((1, c.m) if c.m > 1 else (1,)) for _ in range(2)]
        es = np.array([eps, eps / 2.0] * (len(js) // 2))
        lead = np.array([_seed(c.t, c.m, c.v, e, j) for j, e in zip(js, es)])
        target = np.array([1j * (-1) ** (j - 1) * math.copysign(e, c.v) for j, e in zip(js, es)])
        jets = np.array([turning_module._crossing_jet(DEMO, DEMO_CATALOG, k)] * len(js))
        seeds = _jet_seeds(jets, np.full(len(js), c.t), lead, target,
                           np.full(len(js), 0.5 * math.pi / c.m))
        roots = _newton_roots(DEMO, seeds, es)
        assert np.all(np.abs(seeds - roots) <= 1e-13 * np.abs(roots - c.t))
        assert np.all(np.abs(lead - roots) > 1e-3 * np.abs(roots - c.t))

    def test_batch_matches_crossing_by_crossing(self, monkeypatch):
        """A three-crossing all-adiabatic chain: one batch, the same sets as
        one crossing at a time to 1e-14, and chain_factors solves it with two
        evaluations of V."""
        model = ScaledTanhProduct(1.0, [{"power": 1, "slope": 2.0, "center": 3.0},
                                        {"power": 3, "slope": 1.0, "center": 0.0},
                                        {"power": 2, "slope": 1.5, "center": -3.0}])
        catalog = find_crossings(model)
        eps, h = 0.2, 1e-4
        split = classify_regimes(catalog.orders, eps, h)
        assert split.assignment == ("A", "A", "A")
        batched = turning_point_sets(model, catalog, (0, 1, 2), eps)
        for k in range(3):
            alone = turning_points(model, catalog, k, eps)
            assert (batched[k].k, batched[k].m, batched[k].eps) == (alone.k, alone.m, alone.eps)
            for got, want in ((batched[k].first, alone.first), (batched[k].last, alone.last)):
                assert abs(got.action - want.action) <= 1e-14 * abs(want.action)
                assert got.decay_coeff == pytest.approx(want.decay_coeff, rel=1e-14)

        calls = {"eval": 0}
        real = model.eval

        def counted(t):
            calls["eval"] += 1
            return real(t)

        monkeypatch.setattr(model, "eval", counted)
        chain = chain_factors(model, eps, h, split, catalog)
        assert calls["eval"] == 2
        assert chain.turning_sets.keys() == batched.keys()
        for k, tps in chain.turning_sets.items():
            assert tps.first.action == pytest.approx(batched[k].first.action, rel=1e-14)
