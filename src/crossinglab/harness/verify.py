"""Randomized property suites behind the `verify` CLI subcommand.

Each suite returns (name, passed, detail) triples; the CLI prints one line
per check and exits nonzero if any fails.  Seeded generators keep runs
reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, QuadratureTolExceeded
from ..msa import MsaGrid, apply_K, msa_solution, residual_norm, sampled_norm
from ..oscillatory import osc_integral, stationary_phase_leading
from ..params import classify_regimes
from ..potential import (
    LinearLZ,
    PolynomialWindowed,
    ScaledTanhProduct,
    find_crossings,
    regularized_action,
)
from ..propagator import PropagationDiagnostics, fundamental_matrix
from ..scattering import (
    _oscillatory_tail,
    _panel_tail,
    _scattering_matrix,
    herm_phase_exp,
    jost_basis,
    scattering_matrix,
)
from ..su2 import dense
from ..transfer import (
    chain_offdiag_leading,
    chain_prob_leading,
    predicted_scattering,
    su2_chain_product,
)

# tolerance of the propagator and scattering runs that the checks examine
TOL = 1e-9
TANH_PAIR = ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 2.0},
                                    {"power": 3, "slope": 1.0, "center": -2.0}])

# largest accepted richardson_error / observed error of the magnus6 propagator
CALIBRATION_MAX = 10.0
# largest accepted error_estimate / observed error of the windowed scattering
# route.  Wider than CALIBRATION_MAX: the estimate adds the windows' Richardson
# estimates and the adiabatic bounds, while the errors they bound partly cancel
# in S (observed 5.0-21.0 at tol 1e-9; the windows' Richardson sum alone reads
# up to 6 times the observed error of S).
WINDOW_CALIBRATION_MAX = 40.0


def _random_tanh_model(rng) -> ScaledTanhProduct:
    n = int(rng.integers(1, 3))
    centers = np.sort(rng.uniform(-2.5, 2.5, n))
    while n > 1 and np.min(np.diff(centers)) < 1.2:
        centers = np.sort(rng.uniform(-2.5, 2.5, n))
    factors = [{"power": int(rng.integers(1, 4)), "slope": float(rng.uniform(0.7, 1.5)),
                "center": float(c)} for c in centers]
    return ScaledTanhProduct(1.0, factors)


def propagator_suite(seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    worst_unit = worst_flow = worst_rev = worst_cross = 0.0
    for _ in range(4):
        model = _random_tanh_model(rng)
        eps = float(rng.uniform(0.02, 0.2))
        h = float(rng.uniform(0.02, 0.2))
        t0, t1 = -5.0, 5.0
        mat = fundamental_matrix(model, eps, h, t0, t1, tol=TOL)
        worst_unit = max(worst_unit, float(np.max(np.abs(mat.conj().T @ mat - np.eye(2)))))
        tm = float(rng.uniform(-2.0, 2.0))
        m_a = fundamental_matrix(model, eps, h, t0, tm, tol=TOL)
        m_b = fundamental_matrix(model, eps, h, tm, t1, tol=TOL)
        worst_flow = max(worst_flow, float(np.max(np.abs(m_b @ m_a - mat))))
        psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi0 /= np.linalg.norm(psi0)
        psi1 = mat @ psi0
        flipped0 = np.array([-np.conj(psi0[1]), np.conj(psi0[0])])
        flipped1 = mat @ flipped0
        expect = np.array([-np.conj(psi1[1]), np.conj(psi1[0])])
        worst_rev = max(worst_rev, float(np.max(np.abs(flipped1 - expect))))
    model = _random_tanh_model(rng)
    m1 = fundamental_matrix(model, 0.1, 0.05, -5.0, 5.0, tol=1e-11)
    m2 = fundamental_matrix(model, 0.1, 0.05, -5.0, 5.0, tol=1e-11, method="dop853")
    worst_cross = float(np.max(np.abs(m1 - m2)))
    out.append(("propagator.unitarity", worst_unit < 100 * TOL, f"defect {worst_unit:.2e}"))
    out.append(("propagator.composition", worst_flow < 200 * TOL, f"defect {worst_flow:.2e}"))
    out.append(("propagator.time_reversal", worst_rev < 200 * TOL, f"defect {worst_rev:.2e}"))
    out.append(("propagator.backend_agreement", worst_cross < 1e-8, f"diff {worst_cross:.2e}"))
    out.append(_error_calibration())
    return out


def _error_calibration():
    """richardson_error against the observed error of the returned matrix.

    The observed error is the difference from the same run at TOL/100 and,
    where h >= 5e-2, from dop853 at TOL/100.  The estimate must cover it
    without overstating it by more than CALIBRATION_MAX.
    """
    lz = LinearLZ(slope=1.0, window=4.0, sharpness=4.0)
    cases = [(TANH_PAIR, lambda h: 0.05 * h ** 0.75, 6.0),
             (lz, lambda h: 0.2 * math.sqrt(h), 6.0)]
    ratios = []
    for model, eps_of, span in cases:
        for h in (1e-1, 5e-2, 1e-2, 1e-3):
            eps = eps_of(h)
            diag = PropagationDiagnostics()
            mat = fundamental_matrix(model, eps, h, -span, span, tol=TOL, diagnostics=diag)
            refs = [fundamental_matrix(model, eps, h, -span, span, tol=TOL / 100)]
            if h >= 5e-2:
                refs.append(fundamental_matrix(model, eps, h, -span, span, tol=TOL / 100,
                                               method="dop853"))
            for ref in refs:
                ratios.append(diag.richardson_error / float(np.max(np.abs(mat - ref))))
    calibrated = 1.0 <= min(ratios) and max(ratios) <= CALIBRATION_MAX
    return ("propagator.error_calibration", calibrated,
            f"estimate/observed in [{min(ratios):.2f}, {max(ratios):.2f}]")


def scattering_suite(seed: int) -> list:
    return [_window_bound_calibration()]


def _window_bound_calibration():
    """error_estimate of the windowed route against whole-line magnus6 at TOL/100.

    The windows are always planned here, also where the whole line is the
    cheaper route.  The estimate must cover the observed difference of S
    without overstating it by more than WINDOW_CALIBRATION_MAX.
    """
    three = ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 4.2},
                                    {"power": 3, "slope": 1.0, "center": 0.0},
                                    {"power": 3, "slope": 1.0, "center": -3.1}])
    ratios, routes = [], set()
    for model in (TANH_PAIR, three):
        catalog = find_crossings(model)
        for h in (1e-2, 1e-3, 1e-4):
            eps = 0.05 * h ** 0.75
            rep = _scattering_matrix(model, eps, h, TOL, None, "magnus6", catalog, 0.0)
            mat = fundamental_matrix(model, eps, h, -rep.truncation, rep.truncation,
                                     tol=TOL / 100)
            j_right, j_left = (dense(*jost_basis(model, eps, h, side, rep.truncation,
                                                 tol=TOL * 1e-3, catalog=catalog))
                               for side in ("right", "left"))
            ref = j_right.conj().T @ mat @ j_left
            routes.add(rep.diagnostics["route"])
            ratios.append(rep.diagnostics["error_estimate"]
                          / float(np.max(np.abs(rep.s_matrix - ref))))
    calibrated = (routes == {"windowed"} and 1.0 <= min(ratios)
                  and max(ratios) <= WINDOW_CALIBRATION_MAX)
    return ("scattering.window_bound_calibration", calibrated,
            f"routes {sorted(routes)}, estimate/observed in [{min(ratios):.2f}, {max(ratios):.2f}]")


def msa_suite(seed: int) -> list:
    rng = np.random.default_rng(seed + 1)
    out = []
    model = ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 0.0}])
    h = float(rng.uniform(3e-3, 8e-3))
    eps = 0.05 * h ** 0.75
    grid = MsaGrid.build(model, h, (-0.7, 0.7), 0.0)

    ident = apply_K(grid, +1, -0.7, grid.u_plus)
    expect = (1j / h) * (grid.points + 0.7) * grid.u_plus
    err_id = float(np.max(np.abs(ident - expect)))
    out.append(("msa.k_identity", err_id < 1e-8 / h, f"err {err_id:.2e}"))

    w1 = msa_solution(grid, eps, "w1", -0.7, -0.7, depth=3)
    w2 = msa_solution(grid, eps, "w2", -0.7, -0.7, depth=3)
    sym = max(float(np.max(np.abs(np.conj(w2.comp2) - w1.comp1))),
              float(np.max(np.abs(-np.conj(w2.comp1) - w1.comp2))))
    out.append(("msa.symmetry", sym < 1e-10, f"defect {sym:.2e}"))

    res = residual_norm(w1, eps)
    # finite-difference floor: second-order gradient on the grid phase step
    step = float(np.max(np.abs(np.real(model.eval(grid.points)))) * grid.dx / h)
    floor = step**2 + w1.truncation_estimate
    out.append(("msa.residual", res < 50.0 * max(floor, 1e-13), f"residual {res:.2e} floor {floor:.2e}"))

    # operator norm boundedness: ||(u^+-)^-1 K (u^-+ f)|| * h^(m/(m+1)) stays bounded
    m = 3
    ratios = []
    for h_test in (8e-3, 4e-3, 2e-3, 1e-3):
        g_test = MsaGrid.build(model, h_test, (-0.7, 0.7), 0.0)
        ft = np.cos(g_test.points) + 0.3
        val = apply_K(g_test, +1, -0.7, g_test.u(-1) * ft) / g_test.u_plus
        norm_out = sampled_norm(g_test, val, 1.0 / (m + 1))
        norm_in = sampled_norm(g_test, ft, 1.0 / (m + 1))
        ratios.append(norm_out / norm_in * h_test ** (m / (m + 1.0)))
    spread = max(ratios) / min(ratios)
    out.append(("msa.operator_norm_scaling", spread < 3.0,
                f"scaled ratios {['%.3f' % r for r in ratios]}"))
    return out


def stationary_suite(seed: int) -> list:
    from scipy.special import fresnel

    out = []
    lz = LinearLZ(slope=1.0)
    h = 0.05
    L = 3.0

    def fresnel_from_zero(x):  # integral from 0 to x of exp(i t^2 / h)
        s, c = fresnel(x * math.sqrt(2.0 / (math.pi * h)))
        return math.sqrt(math.pi * h / 2.0) * (c + 1j * s)

    # every tol passed is met; the last is the default
    exact = 2.0 * fresnel_from_zero(L)
    ratios = []
    for tol in (1e-6, 1e-9, 1e-12):
        val = osc_integral(lz, (-L, L), 0.0, h, tol=tol)
        ratios.append(abs(val - exact) / tol)
    out.append(("stationary.fresnel", max(ratios) <= 1.0,
                f"diff {abs(val - exact):.2e}, diff/tol <= {max(ratios):.2e}"))

    conj_val = osc_integral(lz, (-L, L), 0.0, h, sign=-1)
    out.append(("stationary.conjugation", abs(conj_val - np.conj(val)) < 1e-12,
                f"diff {abs(conj_val - np.conj(val)):.2e}"))

    # cos(k t) exp(i t^2 / h) = (1/2) e^{-i k^2 h / 4} sum_+- exp(i (t +- k h / 2)^2 / h)
    k = 300.0
    exact = 0.5 * np.exp(-0.25j * k * k * h) * sum(
        fresnel_from_zero(L + d) - fresnel_from_zero(-L + d) for d in (0.5 * k * h, -0.5 * k * h))
    val = osc_integral(lz, (-L, L), 0.0, h, amplitude=lambda t: np.cos(k * t))
    out.append(("stationary.amplitude_fresnel", abs(val - exact) <= 1e-12,
                f"diff {abs(val - exact):.2e}"))
    one = osc_integral(lz, (-2.0, 2.0), 0.0, h, amplitude=np.cos)
    two = osc_integral(lz, (-2.0, 2.0), 0.0, h, amplitude=lambda t: 2.0 * np.cos(t))
    out.append(("stationary.amplitude_linearity", abs(two - 2.0 * one) <= 1e-13 * abs(2.0 * one),
                f"diff {abs(two - 2.0 * one):.2e}"))

    model = ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 0.0}])
    try:
        osc_integral(model, (-1.0, 1.0), 0.0, h, amplitude=lambda t: np.cos(2e6 * t))
        outcome = "integrated"
    except QuadratureTolExceeded:
        outcome = "refused"
    out.append(("stationary.unresolved_amplitude", outcome == "refused",
                f"cos(2e6 t) {outcome}"))

    hs = 0.2 * 2.0 ** -np.arange(5)
    resid = []
    for h_test in hs:
        v = osc_integral(model, (-1.5, 1.5), 0.0, h_test)
        lead = stationary_phase_leading(1.0, 3, 6.0, h_test)
        resid.append(abs(v - lead))
    slope = float(np.polyfit(np.log(hs), np.log(resid), 1)[0])
    out.append(("stationary.remainder_order", slope >= 2.0 / 4.0 - 0.1, f"slope {slope:.3f}"))

    # non-stationary decay: |I|/h bounded when V has no zero inside
    vals = []
    for h_test in hs:
        v = osc_integral(model, (0.4, 1.5), 0.0, h_test)
        vals.append(abs(v) / h_test)
    spread = max(vals) / max(min(vals), 1e-300)
    out.append(("stationary.nonstationary_bound", spread < 50.0,
                f"|I|/h in [{min(vals):.3f}, {max(vals):.3f}]"))
    return out


def su2_suite(seed: int) -> list:
    rng = np.random.default_rng(seed + 2)
    out = []
    # flip-matrix properties on random 2x2s
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = q @ a
    rhs = np.array([[a[1, 1], a[1, 0]], [a[0, 1], a[0, 0]]]) @ q
    ok_q = np.allclose(lhs, rhs, atol=1e-14) and np.allclose(q @ q, np.eye(2))
    out.append(("su2.flip_identities", bool(ok_q), "QMQ swap and Q^2 = 1"))

    worst_unit = 0.0
    worst_ratio = 0.0
    reduction = 0.0
    for mu_small in (1e-2, 1e-3):
        for _ in range(500):
            n = int(rng.integers(1, 7))
            betas = mu_small * (rng.random(n) + 1j * rng.random(n) - 0.5 - 0.5j) * 2.0
            alphas = np.sqrt(1.0 - np.abs(betas) ** 2) * np.exp(2j * np.pi * rng.random(n))
            nus = np.exp(2j * np.pi * rng.random(n))
            factors = []
            for k in range(n):
                factors += [(alphas[k], betas[k]), (nus[k], 0j)]
            prod = su2_chain_product(factors)
            mat = dense(*prod)
            worst_unit = max(worst_unit, float(np.max(np.abs(mat.conj().T @ mat - np.eye(2)))))
            pert = chain_offdiag_leading(alphas, betas, nus)
            worst_ratio = max(worst_ratio, abs(prod[1] - pert) / mu_small**2)
            # unit alphas: the second-order probability is |first-order entry|^2
            ones = np.ones(n, dtype=complex)
            prob = chain_prob_leading(ones, betas, nus)
            entry = chain_offdiag_leading(ones, betas, nus)
            reduction = max(reduction, abs(prob - abs(entry) ** 2))
    out.append(("su2.product_unitarity", worst_unit < 1e-12, f"defect {worst_unit:.2e}"))
    out.append(("su2.offdiag_first_order", worst_ratio < 40.0,
                f"max |err|/mu^2 = {worst_ratio:.3f}"))
    out.append(("su2.prob_reduction_identity", reduction < 1e-15,
                f"max diff {reduction:.2e}"))
    return out


def jost_suite(seed: int) -> list:
    from scipy.linalg import expm

    rng = np.random.default_rng(seed + 3)
    out = []
    # closed-form 2x2 phase exponential vs a generic matrix exponential
    worst = 0.0
    for _ in range(50):
        x = float(rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        h = float(rng.uniform(0.05, 1.0))
        lhs = dense(*herm_phase_exp(x, b, h))
        m = np.array([[x, b], [np.conj(b), -x]])
        rhs = expm(-1j * m / h)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(("jost.closed_form_exp", worst < 1e-12, f"diff {worst:.2e}"))

    model = ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 0.0}])
    catalog = find_crossings(model)
    eps, h = 0.05, 0.08
    rep1 = scattering_matrix(model, eps, h, tol=1e-10, catalog=catalog)
    rep2 = scattering_matrix(model, eps, h, tol=1e-10, truncation=rep1.truncation * 2.0,
                             catalog=catalog)
    diff = abs(rep1.p_transition - rep2.p_transition)
    out.append(("jost.truncation_independence", diff < 1e-7, f"diff {diff:.2e}"))
    out.append(("jost.unitarity", rep1.unitarity_defect < 1e-8,
                f"defect {rep1.unitarity_defect:.2e}"))

    basis = dense(*jost_basis(model, eps, h, "right", rep1.truncation, catalog=catalog))
    ortho = float(np.max(np.abs(basis.conj().T @ basis - np.eye(2))))
    out.append(("jost.orthonormal", ortho < 1e-10, f"defect {ortho:.2e}"))

    # the end connectors' anchors move phases only: the chain's P is fixed
    pair_catalog = find_crossings(TANH_PAIR)
    h_pair = 0.05
    eps_pair = 0.04 * h_pair ** 0.75
    split = classify_regimes(pair_catalog.orders, eps_pair, h_pair)
    p_chain = [predicted_scattering(TANH_PAIR, eps_pair, h_pair, split, catalog=pair_catalog,
                                    anchors=anchors).p_pred
               for anchors in (None, (8.0, -8.0), (11.0, -9.5))]
    moved = max(p_chain) - min(p_chain)
    out.append(("jost.anchor_independence", moved <= 1e-13, f"diff {moved:.2e}"))

    # the jet series' remainder bound against the panel rule at a tighter tol:
    # it must cover the observed difference without overstating it by 1e6
    ratios, routes = [], set()
    for fam in (model, LinearLZ(slope=0.25, window=4.0, sharpness=4.0),
                PolynomialWindowed([0.0, 0.5, 0.0, 0.05], window=2.0)):
        for side, v_inf in (("right", fam.v_right), ("left", fam.v_left)):
            t_eval = fam.tail_anchor(side, 1e-8)
            for h_tail in (1e-1, 1e-2, 1e-3):
                omega = 2.0 * abs(v_inf) / h_tail
                tail = _oscillatory_tail(fam, side, v_inf, t_eval, omega, 1e-12)
                oracle = _panel_tail(fam, side, v_inf, t_eval, omega, 1e-15)
                routes.add(tail.route)
                ratios.append(tail.bound / abs(tail.value - oracle.value))
    calibrated = routes == {"series"} and 1.0 <= min(ratios) and max(ratios) <= 1e6
    out.append(("jost.tail_series_vs_panels", calibrated,
                f"routes {sorted(routes)}, bound/diff in [{min(ratios):.2g}, {max(ratios):.2g}]"))

    # structure of the tail-corrected solution near the anchor: the gauge
    # off-diagonals are O(eps), diagonal corrections O(eps^2/h)
    h_fix = 0.1
    offs, diags, eps_vals = [], [], [0.2, 0.1, 0.05, 0.025]
    anchor = model.tail_anchor("right", 1e-6)
    phase = np.exp(-1j * regularized_action(model, "right", anchor, catalog=catalog) / h_fix)
    for e in eps_vals:
        rep = scattering_matrix(model, e, h_fix, tol=1e-10, catalog=catalog)
        t_far = rep.truncation
        jb = dense(*jost_basis(model, e, h_fix, "right", t_far, catalog=catalog))
        mat = fundamental_matrix(model, e, h_fix, t_far, anchor, tol=1e-11)
        near = mat @ jb
        offs.append(abs(near[1, 0]))
        diags.append(abs(near[0, 0] / phase - 1.0))
    slope_off = float(np.polyfit(np.log(eps_vals), np.log(offs), 1)[0])
    slope_diag = float(np.polyfit(np.log(eps_vals), np.log(np.maximum(diags, 1e-14)), 1)[0])
    out.append(("jost.gauge_offdiag_order", slope_off > 0.85, f"slope {slope_off:.3f}"))
    out.append(("jost.gauge_diag_order", slope_diag > 1.6, f"slope {slope_diag:.3f}"))
    return out


ALL_SUITES = {
    "propagator": propagator_suite,
    "msa": msa_suite,
    "stationary": stationary_suite,
    "su2": su2_suite,
    "jost": jost_suite,
    "scattering": scattering_suite,
}


def run_verify(seed: int = 42, suites=None) -> list:
    """Checks of the named suites (every suite when none are named);
    ConfigError for a name that is not a suite."""
    unknown = sorted(set(suites or ()) - set(ALL_SUITES))
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; choose from {list(ALL_SUITES)}")
    results = []
    for name, fn in ALL_SUITES.items():
        if suites and name not in suites:
            continue
        results.extend(fn(seed=seed))
    return results
