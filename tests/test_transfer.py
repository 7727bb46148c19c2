import cmath
import math

import numpy as np
import pytest

from crossinglab import classify_regimes, mu
from crossinglab.errors import RegimeViolation
from crossinglab.msa import MsaGrid, connection_T_numeric
from crossinglab.oscillatory import omega_m
from crossinglab.params import RegimeSplit
from crossinglab.potential import ScaledTanhProduct, find_crossings, phase_integral
from crossinglab.potential.catalog import default_anchors
from crossinglab.potential.turning import turning_points
from crossinglab.predictor import predict_mixed
from crossinglab.su2 import dense, normalized, su2_mul
from crossinglab.transfer import (
    IQ,
    J,
    ChainFactors,
    _predicted_scattering,
    chain_factors,
    chain_offdiag_leading,
    chain_prob_leading,
    crossing_transfer_adiabatic,
    crossing_transfer_nonadiabatic,
    end_connectors,
    predicted_scattering,
    su2_chain_product,
    wkb_alpha_beta,
)

Q_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def assert_refused(model, catalog, eps, h, assignment):
    """Both chain entry points refuse the split before evaluating a factor."""
    split = RegimeSplit.build(catalog.orders, assignment)
    with pytest.raises(RegimeViolation):
        predicted_scattering(model, eps, h, split, catalog=catalog)
    with pytest.raises(RegimeViolation):
        predict_mixed(model, catalog, eps, h, split)


class TestSU2:
    def test_matrix_pattern(self, rng):
        b = 0.3 + 0.4j
        a = cmath.sqrt(1 - abs(b) ** 2) * cmath.exp(0.7j)
        m = dense(a, b)
        assert m[0, 1] == -np.conj(m[1, 0])
        assert m[1, 1] == np.conj(m[0, 0])
        assert abs(np.linalg.det(m) - 1.0) < 1e-14

    def test_product_closure(self, rng):
        x = normalized(1.0 + 0.2j, 0.1 - 0.3j)
        y = normalized(0.5, 0.8j)
        assert abs(abs(x[0]) ** 2 + abs(x[1]) ** 2 - 1.0) < 1e-15
        z = su2_mul(*x, *y)
        assert np.max(np.abs(dense(*z) - dense(*x) @ dense(*y))) < 1e-14

    def test_q_conjugation(self):
        """A flagged factor of the flip-conjugated chain is Q M Q, its phase
        the conjugate; an unflagged one is left as it is."""
        x = normalized(0.6 + 0.1j, 0.2 - 0.77j)
        y = normalized(0.1 - 0.5j, 0.3j)
        nu = cmath.exp(0.4j)
        chain = ChainFactors(split=None, pairs=(), iq=(), phases=(nu, nu),
                             flipped=(True, False))
        (fx, fy), phases = chain.flip_conjugated([x, y])
        assert np.max(np.abs(dense(*fx) - Q_FLIP @ dense(*x) @ Q_FLIP)) < 1e-14
        assert fy == y
        assert phases == [nu.conjugate(), nu]

    def test_flip_and_structure_matrices(self):
        """The chain's pairs (0, i) and (0, 1) are i Q and J = [[0, -1], [1, 0]]."""
        assert np.array_equal(dense(*IQ), 1j * Q_FLIP)
        assert np.array_equal(dense(*J), np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.array_equal(Q_FLIP @ Q_FLIP, np.eye(2))
        assert np.array_equal(dense(*J) @ dense(*J), -np.eye(2))
        a = np.arange(4.0).reshape(2, 2) + 1j
        swapped = np.array([[a[1, 1], a[1, 0]], [a[0, 1], a[0, 0]]])
        assert np.array_equal(Q_FLIP @ a, swapped @ Q_FLIP)


class TestNonadiabaticFactor:
    def test_eps_zero_identity(self, tanh_cubed_catalog):
        a, b = crossing_transfer_nonadiabatic(0, 0.0, 1e-3, tanh_cubed_catalog)
        assert a == 1.0 and b == 0.0

    def test_transversal_entry(self):
        model = ScaledTanhProduct(1.0, [{"power": 1, "slope": 1.0, "center": 0.0}])
        cat = find_crossings(model)
        h = 1e-4
        eps = 0.01 * math.sqrt(h)
        a, b = crossing_transfer_nonadiabatic(0, eps, h, cat)
        mu1 = mu(1, eps, h)
        assert a == 1.0
        assert b == pytest.approx(-1j * np.conj(omega_m(1, 1.0)) * mu1, rel=1e-15)

    def test_regime_enforcement(self, tanh_cubed, tanh_cubed_catalog):
        """The entry points refuse a diabatic split in the band; the factor
        itself evaluates anywhere."""
        h = 1e-3
        eps = 0.5 * h**0.75
        assert_refused(tanh_cubed, tanh_cubed_catalog, eps, h, ["N"])
        _, b = crossing_transfer_nonadiabatic(0, eps, h, tanh_cubed_catalog)
        assert abs(b) > 0

    def test_log_corrected_threshold_for_transversal(self):
        """Order-1 crossings gate on sqrt(log(1/h)) eps/sqrt(h)."""
        model = ScaledTanhProduct(1.0, [{"power": 1, "slope": 1.0, "center": 0.0}])
        cat = find_crossings(model)
        h = 1e-8
        eps = 0.09 * math.sqrt(h)  # mu_1 = 0.09 but mu-tilde ~ 0.39
        assert_refused(model, cat, eps, h, ["N"])

    def test_matches_connection_oracle(self, tanh_cubed, tanh_cubed_catalog):
        h = 5e-3
        mu_val = 0.04
        eps = mu_val * h**0.75
        _, b = crossing_transfer_nonadiabatic(0, eps, h, tanh_cubed_catalog)
        grid = MsaGrid.build(tanh_cubed, h, (-0.7, 0.7), 0.0)
        t_num = connection_T_numeric(tanh_cubed, eps, h, 0, -0.7, 0.7,
                                     catalog=tanh_cubed_catalog, grid=grid)
        assert abs(t_num[1, 0] - b) < mu_val**2 + mu_val * h**0.25


def between_phase(model, catalog, eps, h):
    """The chain's phase between crossings 0 and 1 on an all-diabatic split."""
    split = RegimeSplit.build(catalog.orders, ["N"] * catalog.n)
    return chain_factors(model, eps, h, split, catalog).phases[0]


class TestBetweenFactor:
    def test_diagonal_phase(self, tanh_pair, tanh_pair_catalog):
        h = 0.05
        phase = between_phase(tanh_pair, tanh_pair_catalog, 0.01, h)
        integral = phase_integral(tanh_pair, tanh_pair_catalog.positions[1],
                                  tanh_pair_catalog.positions[0])
        assert phase == pytest.approx(cmath.exp(-1j * integral / h), rel=1e-12)

    def test_pi_phase_gives_minus_identity(self, tanh_pair, tanh_pair_catalog):
        """Choosing h = |integral V| / pi makes the factor diag(-1, -1)."""
        integral = phase_integral(tanh_pair, tanh_pair_catalog.positions[1],
                                  tanh_pair_catalog.positions[0])
        h = abs(integral) / math.pi
        phase = between_phase(tanh_pair, tanh_pair_catalog, 0.01, h)
        assert phase == pytest.approx(-1.0, rel=1e-12)

    def test_zero_integral_identity(self):
        assert dense(cmath.exp(0j), 0j) == pytest.approx(np.eye(2))


@pytest.fixture(scope="module")
def even_crossing():
    model = ScaledTanhProduct(1.0, [{"power": 2, "slope": 1.0, "center": 0.0}])
    return model, find_crossings(model)


class TestAdiabaticFactor:
    def test_alpha_near_one(self, even_crossing):
        model, cat = even_crossing
        h = 1e-3
        for mu_val in (12.0, 20.0):
            eps = mu_val * h ** (2 / 3)
            alpha, beta = wkb_alpha_beta(0, eps, h, cat, turning_points(model, cat, 0, eps))
            assert abs(abs(alpha) - 1.0) < 0.05
            assert abs(beta) < 1e-10

    def test_even_even_case_undressed(self, even_crossing):
        """(m even, sigma_prev even): the factor is the raw WKB matrix."""
        model, cat = even_crossing
        h = 1e-3
        eps = 12.0 * h ** (2 / 3)
        tps = turning_points(model, cat, 0, eps)
        fac = crossing_transfer_adiabatic(0, eps, h, cat, tps=tps)
        alpha, beta = wkb_alpha_beta(0, eps, h, cat, tps)
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        assert fac.pair[0] == pytest.approx(alpha / norm, rel=1e-12)
        assert fac.pair[1] == pytest.approx(beta / norm, rel=1e-12)
        assert not fac.has_iq

    def test_odd_order_pulls_iq(self, tanh_cubed, tanh_cubed_catalog):
        h = 2e-4
        eps = 12.0 * h**0.75
        fac = crossing_transfer_adiabatic(0, eps, h, tanh_cubed_catalog,
                                          turning_points(tanh_cubed, tanh_cubed_catalog, 0, eps))
        assert fac.has_iq
        full = dense(*su2_mul(*IQ, *fac.pair))
        assert np.max(np.abs(full - 1j * Q_FLIP @ dense(*fac.pair))) < 1e-14

    def test_exact_probability_tracks_beta(self, even_crossing):
        """|beta|^2 of the WKB entries matches the exact P through the
        oscillation, the sharpest validation of the adiabatic branch."""
        from crossinglab.scattering import scattering_matrix

        model, cat = even_crossing
        h = 1e-3
        for mu_val in (2.8, 3.4):
            eps = mu_val * h ** (2 / 3)
            _, beta = wkb_alpha_beta(0, eps, h, cat, turning_points(model, cat, 0, eps))
            rep = scattering_matrix(model, eps, h, tol=1e-10)
            assert rep.p_transition == pytest.approx(abs(beta) ** 2, rel=0.15)

    def test_regime_enforcement(self, even_crossing):
        """The entry points refuse an adiabatic split in the band."""
        model, cat = even_crossing
        h = 1e-3
        assert_refused(model, cat, 2.0 * h ** (2 / 3), h, ["A"])


class TestChains:
    def test_identity_product(self):
        assert su2_chain_product([(1.0 + 0j, 0j)] * 5) == (1.0, 0.0)

    def test_zero_couplings_stay_diagonal(self, rng):
        factors = [(cmath.exp(1j * float(p)), 0j) for p in rng.uniform(0, 6.28, 6)]
        assert su2_chain_product(factors)[1] == 0.0

    def test_random_products_stay_su2(self, rng):
        for _ in range(50):
            factors = []
            for _ in range(int(rng.integers(1, 8))):
                b = float(rng.uniform(0, 0.95)) * cmath.exp(1j * float(rng.uniform(0, 6)))
                a = math.sqrt(1 - abs(b) ** 2) * cmath.exp(1j * float(rng.uniform(0, 6)))
                factors.append((a, b))
            m = dense(*su2_chain_product(factors))
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12

    def test_single_hop(self):
        beta = -1j * 0.03
        assert chain_prob_leading([1.0], [beta], [1.0]) == pytest.approx(abs(beta) ** 2)

    def test_two_hop_interference(self):
        """Equal couplings: |tau_21|^2 = 2|b|^2 (1 + cos(2 phi))."""
        b = 0.01
        for phi in (0.0, 0.7, 1.5707963267948966):
            nu = cmath.exp(-1j * phi)
            val = chain_prob_leading([1.0, 1.0], [b, b], [nu, 1.0])
            expect = 2 * b**2 * (1.0 + math.cos(2 * phi))
            assert val == pytest.approx(expect, abs=1e-18)

    def test_perturbative_vs_product(self, rng):
        mu_small = 5e-3
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 7))
            betas = mu_small * (rng.random(n) + 1j * rng.random(n) - 0.5 - 0.5j) * 2
            alphas = np.sqrt(1 - np.abs(betas) ** 2) * np.exp(2j * np.pi * rng.random(n))
            nus = np.exp(2j * np.pi * rng.random(n))
            factors = []
            for k in range(n):
                factors += [(alphas[k], betas[k]), (nus[k], 0j)]
            prod = su2_chain_product(factors)
            pert = chain_offdiag_leading(alphas, betas, nus)
            worst = max(worst, abs(prod[1] - pert))
        assert worst < 40 * mu_small**2


class TestPredictedScattering:
    def test_no_crossing_no_transition(self):
        from crossinglab.potential import PolynomialWindowed

        model = PolynomialWindowed([1.0, 0.0, 1.0], window=3.0)
        cat = find_crossings(model)
        split = classify_regimes(cat.orders, 0.01, 0.01)
        pred = predicted_scattering(model, 0.01, 0.01, split, catalog=cat)
        assert pred.p_pred == pytest.approx(0.0, abs=1e-14)

    def test_single_odd_crossing_near_one(self, tanh_cubed, tanh_cubed_catalog):
        h = 1e-3
        eps = 0.05 * h**0.75
        split = classify_regimes(tanh_cubed_catalog.orders, eps, h)
        pred = predicted_scattering(tanh_cubed, eps, h, split,
                                    catalog=tanh_cubed_catalog)
        c = abs(omega_m(3, 6.0)) ** 2 * mu(3, eps, h) ** 2
        assert pred.p_pred == pytest.approx(1.0 - c, abs=2.0 * c * c)

    def test_paths_agree(self, tanh_pair, tanh_pair_catalog):
        h = 0.05
        eps = 0.04 * h**0.75
        split = classify_regimes(tanh_pair_catalog.orders, eps, h)
        pred = predicted_scattering(tanh_pair, eps, h, split,
                                    catalog=tanh_pair_catalog)
        assert pred.p_chain_paths["direct"] == pytest.approx(
            pred.p_chain_paths["su2_chain"], abs=1e-12)

    def test_mixed_regime_paths_agree(self):
        """Flip-conjugated chain with effective phases equals the direct
        product with i*Q insertions, including the parity bookkeeping."""
        model = ScaledTanhProduct(1.0, [
            {"power": 1, "slope": 6.0, "center": 2.0},
            {"power": 3, "slope": 1.0, "center": -2.0},
        ])
        cat = find_crossings(model)
        h = 1e-4
        eps = 0.3 * math.sqrt(h)
        split = RegimeSplit.build(cat.orders, ["N", "A"])
        pred = _predicted_scattering(model, eps, h, split, cat, None)
        assert pred.p_chain_paths["direct"] == pytest.approx(
            pred.p_chain_paths["su2_chain"], abs=1e-12)
        assert pred.n_sharp_odd == 1
        assert pred.parity_odd  # sigma_n = 4 plus N = 1
        assert pred.p_pred > 0.8

    def test_anchor_independence(self, tanh_pair, tanh_pair_catalog):
        """Moving the tail anchors shifts connector phases only; P is fixed."""
        h = 0.05
        eps = 0.04 * h**0.75
        split = classify_regimes(tanh_pair_catalog.orders, eps, h)
        p1 = predicted_scattering(tanh_pair, eps, h, split,
                                  catalog=tanh_pair_catalog,
                                  anchors=(8.0, -8.0)).p_pred
        p2 = predicted_scattering(tanh_pair, eps, h, split,
                                  catalog=tanh_pair_catalog,
                                  anchors=(11.0, -9.5)).p_pred
        assert p1 == pytest.approx(p2, abs=1e-13)

    def test_default_anchors_reuse_the_catalog(self, tanh_pair, monkeypatch):
        """The first call on a catalog searches the anchors and integrates the
        tails; a second one, default or explicit anchors, does neither and
        gives the same result as the default anchors passed explicitly."""
        h = 0.05
        eps = 0.04 * h**0.75
        catalog = find_crossings(tanh_pair)
        split = classify_regimes(catalog.orders, eps, h)
        calls = []
        for name in ("tail_anchor", "tail_integral"):
            def spy(*args, name=name, real=getattr(tanh_pair, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(tanh_pair, name, spy)

        def counted(anchors=None):
            calls.clear()
            pred = predicted_scattering(tanh_pair, eps, h, split, catalog=catalog,
                                        anchors=anchors)
            return pred, sorted(calls)

        first, calls_first = counted()
        assert calls_first == ["tail_anchor"] * 2 + ["tail_integral"] * 2
        explicit, calls_explicit = counted(default_anchors(tanh_pair, catalog))
        again, calls_again = counted()
        assert calls_explicit == calls_again == []
        assert counted((8.0, -8.0))[1] == ["tail_integral"] * 2
        assert counted((8.0, -8.0))[1] == []
        for pred in (explicit, again):
            assert pred.p_pred == first.p_pred
            assert np.array_equal(pred.s_matrix, first.s_matrix)

    def test_chain_serialization(self, tanh_pair, tanh_pair_catalog):
        h = 0.05
        eps = 0.04 * h**0.75
        split = classify_regimes(tanh_pair_catalog.orders, eps, h)
        pred = predicted_scattering(tanh_pair, eps, h, split,
                                    catalog=tanh_pair_catalog)
        doc = pred.to_dict()["chain"]
        kinds = [row["kind"] for row in doc["factors"]]
        assert kinds == ["crossing", "between", "crossing"]


THREE_TANH = ScaledTanhProduct(1.0, [
    {"power": 3, "slope": 1.0, "center": 4.2},
    {"power": 3, "slope": 1.0, "center": 0.0},
    {"power": 3, "slope": 1.0, "center": -3.1},
])
DEMO = ScaledTanhProduct(1.0, [
    {"power": 1, "slope": 6.0, "center": 2.0},
    {"power": 3, "slope": 1.0, "center": -2.0},
])


def chain_and_mixed(model, catalog, eps, h, tag):
    """P of the flip-conjugated SU(2) chain and of predict_mixed at the rule's
    split, which classes every crossing ``tag``."""
    split = classify_regimes(catalog.orders, eps, h)
    assert set(split.assignment) == {tag}
    tps = {k: turning_points(model, catalog, k, eps)
           for k, a in enumerate(split.assignment) if a == "A"}
    pred = predicted_scattering(model, eps, h, split, catalog=catalog)
    mixed = predict_mixed(model, catalog, eps, h, split, turning_sets=tps)
    return pred.p_chain_paths["su2_chain"], mixed.p_pred


class TestOneChain:
    """The chain oracle's SU(2) product and the mixed oracle's second-order
    expansion are evaluated on the same factors."""

    @pytest.mark.parametrize("model", ["pair", "three"])
    def test_all_diabatic_rows_differ_at_fourth_order(self, model, tanh_pair):
        model = tanh_pair if model == "pair" else THREE_TANH
        cat = find_crossings(model)
        mus = (0.02, 0.05, 0.08)
        for h in (1e-2, 1e-3, 1e-4, 1e-5):
            diffs = [abs(np.subtract(*chain_and_mixed(model, cat, m * h**0.75, h, "N")))
                     for m in mus]
            slope = np.polyfit(np.log(mus), np.log(diffs), 1)[0]
            assert 3.8 <= slope <= 4.2, (h, slope)

    def test_all_adiabatic_rows_agree(self):
        cat = find_crossings(DEMO)
        for h in (1e-4, 2e-4, 4e-4, 1e-3):
            for mu_1 in (11.0, 14.0, 18.0):
                chain, mixed = chain_and_mixed(DEMO, cat, mu_1 * h**0.5, h, "A")
                assert chain == pytest.approx(mixed, rel=1e-14, abs=0.0)
