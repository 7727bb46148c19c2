"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
from crossinglab.harness.sweep import (
    SweepConfig,
    regime_switch_demo,
    scan_interference,
    sharp_decay_slope,
)
from crossinglab.harness.verify import run_verify
from crossinglab.msa import MsaGrid, connection_T_numeric
from crossinglab.oscillatory import omega_m, osc_integral, stationary_phase_leading
from crossinglab.potential import (
    LinearLZ,
    PolynomialWindowed,
    ScaledTanhProduct,
    find_crossings,
)
from crossinglab.predictor import gamma_factor, quantization_ladder
from crossinglab.scattering import landau_zener_probability, scattering_matrix
from crossinglab.su2 import dense
from crossinglab.transfer import chain_offdiag_leading, su2_chain_product


def _report(name: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({time.time() - t0:.1f}s)")


def test_criterion_1_landau_zener_exactness():
    """|P_numeric - exp(-pi eps^2 / h)| < 1e-4 on the 3x3 grid."""
    t0 = time.time()
    model = LinearLZ(slope=1.0, window=8.0, sharpness=4.0)
    worst = 0.0
    for eps in (0.05, 0.1, 0.2):
        for h in (0.05, 0.1, 0.2):
            rep = scattering_matrix(model, eps, h, tol=1e-9)
            worst = max(worst, abs(rep.p_transition - landau_zener_probability(eps, h)))
    ok = worst < 1e-4
    _report("criterion 1 (linear-model exactness)", ok,
            f"max |P - closed form| = {worst:.2e} < 1e-4", t0)
    assert ok


def test_criterion_2_leading_coefficient_cubic():
    """(1-P)/mu^2 -> gamma_3 / sqrt(6) within 5% at the smallest h of the
    ladder, with the deviation controlled by the stated error envelope."""
    t0 = time.time()
    model = ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 0.0}])
    catalog = find_crossings(model)
    target = gamma_factor(3) * 6.0 ** (-0.5)
    mu3 = 0.05
    hs = [4e-3, 2e-3, 1e-3]
    coeffs, deviations = [], []
    for h in hs:
        eps = mu3 * h**0.75
        rep = scattering_matrix(model, eps, h, tol=1e-9, catalog=catalog)
        coeff = (1.0 - rep.p_transition) / mu3**2
        coeffs.append(coeff)
        deviations.append(abs(coeff - target))
    rel_final = deviations[-1] / target
    envelopes = [mu3 + h ** (1.0 / 12.0) for h in hs]
    ratios = [d / e for d, e in zip(deviations, envelopes)]
    consistent = max(ratios) < 3.0 * max(min(ratios), 1e-4 * target)
    ok = rel_final < 0.05 and consistent
    _report("criterion 2 (cubic leading coefficient)", ok,
            f"(1-P)/mu^2 = {coeffs[-1]:.4f} vs {target:.4f} "
            f"(rel {rel_final:.3%}); envelope ratios "
            f"{['%.3f' % r for r in ratios]}", t0)
    assert ok


def test_criterion_3_interference_cos_squared():
    """Two order-3 crossings: P/mu^2 fits the cos^2 law with R^2 > 0.98 and
    the minima sit on the quantization ladder within 2%."""
    t0 = time.time()
    model = ScaledTanhProduct(1.0, [
        {"power": 3, "slope": 1.0, "center": 2.0},
        {"power": 3, "slope": 1.0, "center": -2.0},
    ])
    catalog = find_crossings(model)
    area = 2.0 * abs(catalog.gaps[0])
    v = abs(catalog.crossings[0].v)
    amp = 4.0 * gamma_factor(3) * v ** (-0.5)
    mu3 = 0.05

    config = SweepConfig(
        potential=model.to_config(),
        grid={"type": "h_ladder",
              "h_values": list(np.linspace(0.07, 0.04, 80))},
        tol=1e-8,
    )
    scan = scan_interference(config, mu_fixed=mu3)
    hs = np.asarray(scan["h_values"])
    data = np.asarray(scan["normalized_P"])
    model_vals = amp * np.cos(area / (2.0 * hs) - math.pi / 8.0) ** 2
    ss_res = float(np.sum((data - model_vals) ** 2))
    ss_tot = float(np.sum((data - data.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot

    ladder = quantization_ladder(catalog, (hs.min(), hs.max()))
    offsets = [p["rel_offset"] for p in scan["pairs"]]
    ok = (r_squared > 0.98 and len(scan["minima"]) >= 3
          and len(ladder) >= 3 and max(offsets) < 0.02)
    _report("criterion 3 (interference cos^2 law)", ok,
            f"R^2 = {r_squared:.5f}; {len(scan['minima'])} minima, "
            f"worst ladder offset {max(offsets):.3%}", t0)
    assert ok


def test_criterion_4_degenerate_stationary_phase():
    """Remainder slope >= 2/(m+1) - 0.1 over a 6-point dyadic ladder for
    m in {1,2,3}; the m=1 case matches the Fresnel closed form to 1e-8."""
    from scipy.special import fresnel

    t0 = time.time()
    cases = {
        1: LinearLZ(slope=1.0),
        2: PolynomialWindowed([0, 0, 1.0], window=6.0),
        3: ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 0.0}]),
    }
    slopes = {}
    for m, model in cases.items():
        v = float(math.factorial(m) * model.taylor(0.0, m)[m])
        hs = 0.2 * 2.0 ** -np.arange(6)
        resid = []
        for h in hs:
            val = osc_integral(model, (-1.5, 1.5), 0.0, h)
            resid.append(abs(val - stationary_phase_leading(1.0, m, v, h)))
        slopes[m] = float(np.polyfit(np.log(hs), np.log(resid), 1)[0])
    slopes_ok = all(slopes[m] >= 2.0 / (m + 1) - 0.1 for m in cases)

    h = 0.05
    L = 3.0
    val = osc_integral(LinearLZ(slope=1.0), (-L, L), 0.0, h)
    s, c = fresnel(L * math.sqrt(2.0 / (math.pi * h)))
    fresnel_err = abs(val - 2.0 * math.sqrt(math.pi * h / 2.0) * (c + 1j * s))
    ok = slopes_ok and fresnel_err < 1e-8
    _report("criterion 4 (degenerate stationary phase)", ok,
            f"slopes {[f'{m}:{slopes[m]:.2f}' for m in cases]} "
            f"(bounds {[f'{2/(m+1)-0.1:.2f}' for m in cases]}); "
            f"Fresnel diff {fresnel_err:.1e}", t0)
    assert ok


def test_criterion_5_connection_formula_oracle():
    """Exact change of basis vs the closed-form diabatic factor: the
    off-diagonal residual order in mu is at least min(2, 1 + 1/(m+1))."""
    t0 = time.time()
    slopes = {}
    h = 2e-4
    mus = np.array([0.1, 0.0707, 0.05, 0.0354, 0.025, 0.0177])
    for m, coeffs in [(2, [0, 0, 1.0]), (3, [0, 0, 0, 1.0])]:
        model = PolynomialWindowed(coeffs, window=3.0, sharpness=8.0)
        catalog = find_crossings(model)
        w = omega_m(m, catalog.crossings[0].v)
        half = 1.2
        grid = MsaGrid.build(model, h, (-half, half), 0.0)
        resid = []
        for mu_val in mus:
            eps = mu_val * h ** (m / (m + 1.0))
            t_num = connection_T_numeric(model, eps, h, 0, -half, half,
                                         depth=3, catalog=catalog, grid=grid)
            resid.append(abs(t_num[1, 0] - (-1j * np.conj(w) * mu_val)))
        slopes[m] = float(np.polyfit(np.log(mus), np.log(resid), 1)[0])
    ok = all(slopes[m] >= min(2.0, 1.0 + 1.0 / (m + 1)) - 1e-9 for m in slopes)
    _report("criterion 5 (connection-formula residual order)", ok,
            f"fitted orders m=2: {slopes[2]:.2f} (>= {4/3:.2f}), "
            f"m=3: {slopes[3]:.2f} (>= {5/4:.2f})", t0)
    assert ok


def test_criterion_6_su2_chain_algebra():
    """1000 random chains at mu in {1e-2, 1e-3}: first-order off-diagonal
    error bounded by K mu^2 with a stable K; exact products unitary."""
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    k_bound = 40.0
    worst_ratio = {1e-2: 0.0, 1e-3: 0.0}
    worst_unitarity = 0.0
    for mu_small in (1e-2, 1e-3):
        for _ in range(500):
            n = int(rng.integers(1, 7))
            betas = mu_small * (rng.random(n) + 1j * rng.random(n) - 0.5 - 0.5j) * 2
            alphas = np.sqrt(1 - np.abs(betas) ** 2) * np.exp(2j * np.pi * rng.random(n))
            nus = np.exp(2j * np.pi * rng.random(n))
            factors = []
            for k in range(n):
                factors += [(alphas[k], betas[k]), (nus[k], 0j)]
            prod = su2_chain_product(factors)
            mat = dense(*prod)
            worst_unitarity = max(worst_unitarity, float(np.max(np.abs(
                mat.conj().T @ mat - np.eye(2)))))
            pert = chain_offdiag_leading(alphas, betas, nus)
            worst_ratio[mu_small] = max(worst_ratio[mu_small],
                                        abs(prod[1] - pert) / mu_small**2)
    stable = worst_ratio[1e-3] < max(2.0 * worst_ratio[1e-2], k_bound)
    ok = (max(worst_ratio.values()) <= k_bound and stable
          and worst_unitarity < 1e-12)
    _report("criterion 6 (chain product algebra)", ok,
            f"err/mu^2 max {worst_ratio[1e-2]:.3f} @1e-2, "
            f"{worst_ratio[1e-3]:.4f} @1e-3 (K = {k_bound}); "
            f"unitarity defect {worst_unitarity:.1e}", t0)
    assert ok


def test_criterion_7_regime_switch():
    """Orders (1, 3): P flips between the near-0 and near-1 branches exactly
    where the combined parity flips; classification correct on every
    non-forbidden row; the sharp-coupling decay rate matches the
    turning-point coefficient within 10%."""
    t0 = time.time()
    report = regime_switch_demo(tol=1e-7)
    rows = report["rows"]

    classified = [r for r in rows
                  if r["status"] in ("ok", "demo")
                  and r["observed_class"] != "transitional"]
    consistent = all(r["observed_class"] == r["predicted_class"] for r in classified)

    classes = [r["predicted_class"] for r in classified]
    observed = [r["observed_class"] for r in classified]
    switch_seen = "near1" in observed and "near0" in observed
    flips_match = all((classes[i] != classes[i + 1]) == (observed[i] != observed[i + 1])
                      for i in range(len(classes) - 1))

    strict_rows = [r for r in rows if r["status"] == "ok"]
    strict_ok = all(r["observed_class"] == r["predicted_class"] for r in strict_rows
                    if r["observed_class"] != "transitional")

    decay = sharp_decay_slope()
    decay_ok = decay["rel_error"] < 0.10

    ok = consistent and switch_seen and flips_match and strict_ok and decay_ok
    near1 = [r["alpha"] for r in classified if r["observed_class"] == "near1"]
    _report("criterion 7 (regime switch)", ok,
            f"{len(classified)} classified rows consistent={consistent}; "
            f"near-1 plateau at alpha={near1}; decay fit "
            f"{decay['fitted_decay']:.3f} vs {decay['a_turning_point']:.3f} "
            f"(rel {decay['rel_error']:.2%})", t0)
    assert ok


def test_criterion_8_property_suites():
    """All randomized property suites green under seed 42."""
    t0 = time.time()
    results = run_verify(seed=42)
    failed = [name for name, passed, _ in results if not passed]
    ok = not failed
    _report("criterion 8 (property suites)", ok,
            f"{len(results) - len(failed)}/{len(results)} checks passed"
            + (f"; failed: {failed}" if failed else ""), t0)
    assert ok
