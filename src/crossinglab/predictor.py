"""Closed-form transition-probability predictions.

All-diabatic regime: P is 1 - C mu^2 or C mu^2 according to the parity of the
total vanishing order, with C the product of a universal order-dependent
constant and an interference factor -- the squared modulus of a coherent sum
over the maximal-order crossings whose relative phases are the enclosed
phase-space areas over h.

Mixed regime: the leading term combines the diabatic couplings of the
"flat" crossings with the exponentially small adiabatic couplings of the
"sharp" ones, with between-crossing phases taken along the effective
coupling (``ChainFactors.flipped``).  It is the second-order expansion of the
transfer chain that ``transfer.chain_factors`` builds, the same factors that
``predicted_scattering`` multiplies as SU(2) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MStarTooSmall, RegimeViolation
from .params import RegimeSplit, check_split, classify_regimes, mu
from .potential.catalog import CrossingCatalog
from .transfer import chain_factors, chain_pair_term, chain_prob_leading


def gamma_factor(m: int) -> float:
    """Universal prefactor of the leading transition coefficient at order m."""
    if m < 1:
        raise ValueError("order must be >= 1")
    base = 4.0 * (math.factorial(m + 1) / 2.0) ** (2.0 / (m + 1)) \
        * math.gamma((m + 2.0) / (m + 1.0)) ** 2
    even_fold = 0.5 * (1.0 + (-1.0) ** m)
    return float(base * (1.0 - even_fold * math.sin(math.pi / (2.0 * (m + 1))) ** 2))


def _coherent_phases(catalog: CrossingCatalog, h) -> list:
    """Unit phasors of the maximal-order crossings, referenced to the last zero.

    ``h`` may be an array; each phasor then has its shape.
    """
    m_star = catalog.m_star
    last = catalog.n - 1
    theta_m = (math.pi / (2.0 * (m_star + 1))) if m_star % 2 == 1 else 0.0
    phasors = []
    for j in catalog.lambda_star:
        phase = 2.0 / h * catalog.phase_between(j, last)
        phase += math.copysign(1.0, catalog.crossings[j].v) * theta_m
        phasors.append(np.exp(1j * phase))
    return phasors


def interference_factor(catalog: CrossingCatalog, h):
    """Interference coefficient: weighted coherent sum over maximal crossings.

    Evaluates |sum_j |v_j|^(-1/(m+1)) e^(i phi_j)|^2, whose pair expansion
    carries the phase offset (sgn v_j) pi/(m+1) for opposite-sign odd-order
    pairs.  ``h`` may be an array, giving one value per entry.
    """
    m_star = catalog.m_star
    weights = [abs(catalog.crossings[j].v) ** (-1.0 / (m_star + 1))
               for j in catalog.lambda_star]
    total = sum(w * p for w, p in zip(weights, _coherent_phases(catalog, h)))
    vals = np.abs(total) ** 2
    return vals if np.ndim(vals) else float(vals)


@dataclass
class NonadiabaticPrediction:
    eps: float
    h: float
    mu_star: float
    m_star: int
    parity_odd: bool
    gamma_star: float
    delta_star: float
    c_star: float
    p_pred: float
    error_order: str

    def to_dict(self) -> dict:
        return {
            "eps": self.eps, "h": self.h, "mu_star": self.mu_star,
            "m_star": self.m_star, "parity": "odd" if self.parity_odd else "even",
            "gamma_star": self.gamma_star, "delta_star": self.delta_star,
            "c_star": self.c_star, "P_pred": self.p_pred,
            "error_order": self.error_order,
        }


def predict_nonadiabatic(model, catalog: CrossingCatalog, eps: float,
                         h: float) -> NonadiabaticPrediction:
    """Leading asymptotics of P when every crossing is crossed diabatically.

    Raises RegimeViolation unless the regime rule classes every crossing "N".
    """
    if not catalog.crossings:
        raise MStarTooSmall("no crossing: the leading coefficient needs one")
    m_star = catalog.m_star
    if m_star < 2:
        raise MStarTooSmall(
            "leading coefficient requires a tangential crossing; transversal-only "
            "catalogs need the log-corrected treatment")
    split = classify_regimes(catalog.orders, eps, h)
    if "A" in split.assignment:
        raise RegimeViolation(f"crossings {split.assignment} at eps={eps:.4g}, h={h:.4g}: "
                              "not every crossing is diabatic")
    mu_star = mu(m_star, eps, h)
    gamma_val = gamma_factor(m_star)
    delta_val = interference_factor(catalog, h)
    c_star = gamma_val * delta_val
    correction = c_star * mu_star ** 2
    p = 1.0 - correction if split.parity_odd else correction
    order = f"mu_star^2*(mu_star + h^(1/{m_star * (m_star + 1)}))"
    return NonadiabaticPrediction(
        eps=eps, h=h, mu_star=mu_star, m_star=m_star, parity_odd=split.parity_odd,
        gamma_star=gamma_val, delta_star=delta_val, c_star=c_star, p_pred=p,
        error_order=order)


def quantization_ladder(catalog: CrossingCatalog, h_range) -> list[float]:
    """Values of h in [h_min, h_max] where the two-crossing interference
    factor vanishes exactly (area quantization): h = A / (2 pi n - shift)."""
    if len(catalog.lambda_star) != 2:
        raise ValueError("closed ladder requires exactly two maximal crossings")
    h_min, h_max = min(h_range), max(h_range)
    if not 0 < h_min <= h_max < math.inf:
        raise ValueError("need 0 < h_min <= h_max < inf")
    j, k = catalog.lambda_star
    area = 2.0 * abs(catalog.phase_between(j, k))
    m = catalog.m_star
    shift = m * math.pi / (m + 1.0) if m % 2 == 1 else math.pi
    # one rung of margin at each end; the filter below decides rounding ties
    n_lo = max(1, math.floor((area / h_max + shift) / (2.0 * math.pi)))
    n_hi = math.ceil((area / h_min + shift) / (2.0 * math.pi))
    hs = area / (2.0 * math.pi * np.arange(n_hi, n_lo - 1, -1) - shift)
    return hs[(h_min <= hs) & (hs <= h_max)].tolist()


def interference_zeros(model, catalog: CrossingCatalog, h_range,
                       samples: int = 2048):
    """Locations in h where the interference factor vanishes (or is minimal).

    Two maximal crossings with equal |v| admit the exact quantization ladder;
    otherwise minima of the coherent sum are located numerically over the
    range.  Returns a sorted list (possibly empty).
    """
    lam = catalog.lambda_star
    weights = [abs(catalog.crossings[j].v) for j in lam]
    h_min, h_max = min(h_range), max(h_range)
    if len(lam) == 2 and abs(weights[0] - weights[1]) < 1e-9 * max(weights):
        return quantization_ladder(catalog, h_range)
    if len(lam) < 2:
        return []
    hs = np.linspace(h_min, h_max, samples)
    vals = interference_factor(catalog, hs)
    floor = float(np.max(vals)) * 1e-6
    out = []
    for i in range(1, samples - 1):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            # parabolic refinement
            denom = vals[i - 1] - 2 * vals[i] + vals[i + 1]
            shift = 0.5 * (vals[i - 1] - vals[i + 1]) / denom if denom > 0 else 0.0
            h_loc = hs[i] + shift * (hs[1] - hs[0])
            if vals[i] <= max(floor, 0.05 * float(np.max(vals))):
                out.append(float(h_loc))
    return sorted(out)


@dataclass
class MixedPrediction:
    eps: float
    h: float
    n_sharp_odd: int
    parity_odd: bool
    leading: float
    p_pred: float
    eps1: float
    eps2: float
    blocks: dict = field(default_factory=dict)
    coefficients: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "eps": self.eps, "h": self.h, "N_sharp_odd": self.n_sharp_odd,
            "parity": "odd" if self.parity_odd else "even",
            "L": self.leading, "P_pred": self.p_pred,
            "eps1": self.eps1, "eps2": self.eps2,
            "blocks": self.blocks,
        }


def predict_mixed(model, catalog: CrossingCatalog, eps: float, h: float,
                  split: RegimeSplit,
                  turning_sets: dict | None = None) -> MixedPrediction:
    """Leading term of P in the coexistence regime.

    Takes the transfer chain's factors flip-conjugated (raw diabatic pairs
    for flat crossings, dressed adiabatic pairs for sharp ones, phases of the
    effective coupling in between) and evaluates the second-order
    probability of the chain, then applies the combined parity rule.  The
    diabatic pairs stay unnormalized: the mu^2 adjustment belongs to the
    error term, and the reduction to the all-diabatic coefficient must be
    exact.  The turning points of the sharp crossings missing from
    ``turning_sets`` are solved by ``chain_factors`` in one batch; the error
    gauges read the sets the chain was built from.  Raises RegimeViolation
    unless ``split`` is the regime rule's split at (eps, h).
    """
    if len(split.assignment) != catalog.n:
        raise ValueError("regime split does not match catalog")
    check_split(split, catalog.orders, eps, h)
    return _predict_mixed(model, catalog, eps, h, split, turning_sets)


def _predict_mixed(model, catalog: CrossingCatalog, eps: float, h: float,
                   split: RegimeSplit, turning_sets: dict | None = None) -> MixedPrediction:
    """``predict_mixed`` without the regime check, for any split."""
    chain = chain_factors(model, eps, h, split, catalog, turning_sets)
    pairs, phases = chain.flip_conjugated(chain.pairs)
    alphas = [a for a, _ in pairs]
    betas = [b for _, b in pairs]
    nus = [*phases, 1.0 + 0.0j]  # trailing connector phase, modulus irrelevant

    leading = chain_prob_leading(alphas, betas, nus)
    p = 1.0 - leading if split.parity_odd else leading

    mu_flat = mu(split.m_flat, eps, h) if split.m_flat else 0.0
    mu_sharp = mu(split.m_sharp, eps, h) if split.m_sharp else 0.0
    exponent = (split.m_sharp + 1.0) / split.m_sharp if split.m_sharp else 0.0
    # exp(-a_k mu_sharp^((m+1)/m)) at each sharp crossing of the smallest order
    sharp_exps = {k: math.exp(-tps.a_min * mu_sharp ** exponent)
                  for k, tps in chain.turning_sets.items()
                  if catalog.crossings[k].m == split.m_sharp}
    blocks, coeffs = _mixed_blocks(catalog, split, alphas, betas, nus, mu_flat, sharp_exps)
    eps1, eps2 = _error_gauges(split, h, mu_flat, mu_sharp, exponent, sharp_exps)
    return MixedPrediction(eps=eps, h=h, n_sharp_odd=split.n_sharp_odd,
                           parity_odd=split.parity_odd, leading=leading, p_pred=p,
                           eps1=eps1, eps2=eps2, blocks=blocks,
                           coefficients=coeffs)


def _mixed_blocks(catalog, split, alphas, betas, nus, mu_flat, sharp_exps):
    """Named contributions: flat diagonal, sharp diagonal, cross terms.

    The coefficient q_k = beta_k / exp(-a_k mu_sharp^((m+1)/m)) is left out
    where that exponential underflows to zero.
    """
    flat = [k for k, a in enumerate(split.assignment) if a == "N"]
    sharp = [k for k, a in enumerate(split.assignment) if a == "A"]
    diag_flat = sum(abs(betas[k]) ** 2 for k in flat)
    diag_sharp = sum(abs(betas[k]) ** 2 for k in sharp)

    def cross_sum(js, ks):
        return sum((chain_pair_term(alphas, betas, nus, j, k)
                    for j in js for k in ks if j < k), 0.0)

    blocks = {
        "flat_flat_diag": diag_flat,
        "sharp_diag": diag_sharp,
        "flat_flat_cross": cross_sum(flat, flat),
        "flat_sharp_cross": cross_sum(flat, sharp) + cross_sum(sharp, flat),
        "sharp_sharp_cross": cross_sum(sharp, sharp),
    }
    coeffs = {}
    if mu_flat:
        coeffs["p"] = {k: betas[k] / mu_flat for k in flat
                       if catalog.crossings[k].m == split.m_flat}
    if sharp_exps:
        coeffs["q"] = {k: betas[k] / e for k, e in sharp_exps.items() if e > 0.0}
    return blocks, coeffs


def _error_gauges(split, h, mu_flat, mu_sharp, exponent, sharp_exps):
    # the slowest-decaying sharp exponential, exp(-a_min mu_sharp^((m+1)/m))
    sharp_exp = max(sharp_exps.values(), default=0.0)
    sharp_pref = mu_sharp ** (-exponent) * sharp_exp
    eps1 = mu_flat + sharp_exp
    flat_h = h ** (1.0 / (split.m_flat * (split.m_flat + 1))) if split.m_flat else 0.0
    eps2 = mu_flat * (mu_flat + flat_h) + sharp_pref
    return eps1, eps2
