"""Closed-form transfer matrices and the leading-order transfer chain.

A crossing traversed diabatically contributes the pair
(1, -i conj(omega_m) mu_m); a crossing in the adiabatic regime contributes a
WKB factor built from the two turning-point actions, dressed by a case table
in (order parity, accumulated-order parity) that may inject a factor i*Q
with Q the flip matrix.  Between crossings the factor is a diagonal phase
exp(-+ (i/h) gap), and a connector at each end carries the state out to the
tails.  ``chain_factors`` builds each crossing's factor and the phases once;
the scattering matrix is the ordered product, and its (2,1) entry squared is
the transition probability.  Every factor is an ``su2`` pair, i*Q and the
connectors' J included, so the chain is a product of SU(2) pairs only, and
``ChainFactors.flipped`` is the one encoding of the effective coupling: the
crossings whose factors, and the gaps whose phases, it flip-conjugates.

The first-order expansion of the product (off-diagonal linear in the small
couplings) and the interference form of its squared modulus are implemented
separately so the full product can serve as their oracle.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .oscillatory import omega_m
from .params import RegimeSplit, check_split, mu
from .potential.catalog import SIDES, CrossingCatalog, find_crossings, regularized_actions
from .potential.turning import TurningPointSet, turning_point_sets
from .su2 import dense, normalized, su2_mul

IQ = (0j, 1j)          # i Q, with Q = [[0, 1], [1, 0]] the flip matrix
J = (0j, 1.0 + 0j)     # the structure matrix [[0, -1], [1, 0]]


# ----------------------------------------------------------------------------
# individual factors


def crossing_transfer_nonadiabatic(k: int, eps: float, h: float,
                                   catalog: CrossingCatalog) -> tuple[complex, complex]:
    """Raw diabatic pair (1, -i conj(omega_m) mu_m) at crossing k.

    Its determinant exceeds 1 by |omega_m mu_m|^2, an O(mu^2) effect the
    leading order neglects: the scattering chain normalizes the pair, while
    the second-order probability of ``predict_mixed`` takes it as it is, so
    that its reduction to the all-diabatic coefficient is exact.
    """
    c = catalog.crossings[k]
    return 1.0 + 0.0j, -1j * np.conj(omega_m(c.m, c.v)) * mu(c.m, eps, h)


@dataclass(frozen=True)
class AdiabaticFactor:
    """Dressed WKB factor at an adiabatic crossing.

    ``pair`` is the special-unitary part; ``has_iq`` records the extracted
    i*Q left factor (present exactly when the order is odd).  The error is
    O(mu^(-(m+1)/m) exp(-a mu^((m+1)/m))).
    """

    pair: tuple[complex, complex]
    has_iq: bool


def wkb_alpha_beta(k: int, eps: float, h: float, catalog: CrossingCatalog,
                   tps: TurningPointSet) -> tuple[complex, complex]:
    """Raw WKB entries from the two turning-point actions at crossing k.

    The exponent orientation is fixed by requiring |beta| ~
    exp(-(Im A_1 + Im A_m)/(2h)), exponentially small on the Im A > 0 branch,
    and |alpha| = O(1).
    """
    m = catalog.crossings[k].m
    sigma_k = catalog.sigma[k]
    a1 = tps.first.action
    am = tps.last.action
    sign_m = (-1.0) ** m
    alpha = cmath.exp(1j * (a1 - am) / (2.0 * h)) \
        + sign_m * cmath.exp(1j * (a1 - 2.0 * np.conj(a1) + am) / (2.0 * h))
    beta = (-1.0) ** sigma_k * (
        cmath.exp(1j * (a1 - np.conj(am)) / (2.0 * h))
        - sign_m * cmath.exp(1j * (a1 - 2.0 * np.conj(a1) + np.conj(am)) / (2.0 * h))
    )
    return alpha, beta


def crossing_transfer_adiabatic(k: int, eps: float, h: float, catalog: CrossingCatalog,
                                tps: TurningPointSet) -> AdiabaticFactor:
    """Adiabatic-crossing factor with the parity case table applied, from
    the turning points ``tps`` of crossing k.

    The dressing depends on (m_k parity, sigma_{k-1} parity); odd orders pull
    out an i*Q factor recorded separately so the SU(2) product algebra applies
    to the rest.
    """
    c = catalog.crossings[k]
    alpha, beta = wkb_alpha_beta(k, eps, h, catalog, tps)
    a, b = normalized(alpha, beta)
    s_odd = catalog.sigma_before(k) % 2 == 1
    if s_odd:
        a, b = np.conj(a), np.conj(b)                        # conj(T)
    m_odd = c.m % 2 == 1
    if m_odd:
        # diag(-i, i) @ T, or diag(i, -i) @ conj(T) when sigma is odd
        a, b = su2_mul(1j if s_odd else -1j, 0.0, a, b)
    return AdiabaticFactor(pair=(a, b), has_iq=m_odd)


def end_connectors(model, catalog: CrossingCatalog, h: float,
                   anchors: tuple[float, float] | None = None):
    """Pairs of the leading Jost-to-local connectors on the right and the left.

    With R a side's regularized action, the connector is diag(e^{-iR/h},
    e^{+iR/h}) where that side's limit of V is positive, with errors
    O(eps^2/h) on the diagonal and O(eps^2) off it; where the limit is
    negative (the left one when sigma_n is odd) it is that diagonal times J,
    with errors O(eps^2/h) off the diagonal and O(eps) on it.  Without
    ``anchors`` R sits at the default anchors.  The anchors and the tail
    integrals, default or explicit, are kept on the catalog, so a second call
    on the same catalog searches and integrates nothing.
    """
    out = []
    for side, r in zip(SIDES, regularized_actions(model, catalog, anchors)):
        phase = cmath.exp(-1j * r / h)
        v_inf = model.v_right if side == "right" else model.v_left
        out.append((phase, 0j) if v_inf > 0 else su2_mul(phase, 0j, *J))
    return tuple(out)


# ----------------------------------------------------------------------------
# chains


@dataclass(frozen=True)
class ChainFactors:
    """The factors of the leading-order transfer chain, each built once.

    ``pairs[k]`` is crossing k's pair: the raw diabatic pair at an "N"
    crossing, the dressed adiabatic pair at an "A" crossing, with ``iq[k]``
    set when i*Q stands to its left.  ``phases[k]`` is e^{-i gap_k/h}, the
    diagonal factor between crossings k and k+1.  ``flipped[k]`` marks the
    crossings from an odd-order adiabatic crossing up to the next one, whose
    factors the flip-conjugated chain replaces by Q M Q.  ``turning_sets[k]``
    holds the turning points that built the factor of each "A" crossing k.
    """

    split: RegimeSplit
    pairs: tuple[tuple[complex, complex], ...]
    iq: tuple[bool, ...]
    phases: tuple[complex, ...]
    flipped: tuple[bool, ...]
    turning_sets: dict[int, TurningPointSet] = field(default_factory=dict, compare=False)

    def flip_conjugated(self, pairs):
        """``pairs`` and the phases with every flagged factor replaced by Q M Q.

        Q diag(nu) Q = diag(conj(nu)) reverses the sign of the gap integral
        in the phase, so the phases become those of the effective coupling.
        """
        pairs = [(np.conj(a), -np.conj(b)) if f else (a, b)
                 for (a, b), f in zip(pairs, self.flipped)]
        phases = [p.conjugate() if f else p for p, f in zip(self.phases, self.flipped)]
        return pairs, phases


def chain_factors(model, eps: float, h: float, split: RegimeSplit,
                  catalog: CrossingCatalog,
                  turning_sets: dict[int, TurningPointSet] | None = None) -> ChainFactors:
    """Each crossing's factor, the phases between crossings and the flip flags.

    Adiabatic factors use ``turning_sets[k]`` where given; the turning points
    of every other adiabatic crossing are solved together, in one batch of
    ``turning_point_sets``.  The sets used are kept on the result.  The
    split is taken as it is.
    """
    given = turning_sets or {}
    missing = [k for k, tag in enumerate(split.assignment) if tag == "A" and k not in given]
    solved = turning_point_sets(model, catalog, missing, eps) if missing else {}
    pairs, iq, used = [], [], {}
    for k, tag in enumerate(split.assignment):
        if tag == "N":
            pairs.append(crossing_transfer_nonadiabatic(k, eps, h, catalog))
            iq.append(False)
        else:
            used[k] = given[k] if k in given else solved[k]
            f = crossing_transfer_adiabatic(k, eps, h, catalog, used[k])
            pairs.append(f.pair)
            iq.append(f.has_iq)
    phases = tuple(cmath.exp(-1j * g / h) for g in catalog.gaps)
    return ChainFactors(split, tuple(pairs), tuple(iq), phases,
                        tuple(_tilde_flags(split, catalog.n)), used)


def su2_chain_product(pairs) -> tuple[complex, complex]:
    """Pair of pairs[0] @ pairs[1] @ ... @ pairs[-1] (first factor applied last).

    A scalar loop: on the few factors of a chain it is faster than the
    vectorized ``su2.ordered_product``.
    """
    a, b = 1.0 + 0.0j, 0.0j
    for pair in pairs:
        a, b = su2_mul(a, b, *pair)
    return a, b


def _interleaved(pairs, phases):
    """pairs[0], diag(phases[0]), pairs[1], ..., pairs[-1]."""
    for k, pair in enumerate(pairs):
        yield pair
        if k < len(phases):
            yield phases[k], 0.0j


def chain_offdiag_leading(alphas, betas, nus) -> complex:
    """First-order (2,1) entry of the alternating product.

    Each term routes the single off-diagonal hop through position j, dressed
    by the diagonal entries of all other factors.
    """
    n = len(betas)
    total = 0.0 + 0.0j
    for j in range(n):
        term = betas[j]
        for kappa in range(j):
            term *= np.conj(alphas[kappa]) * np.conj(nus[kappa])
        for kappa in range(j + 1, n):
            term *= alphas[kappa]
        for kappa in range(j, n):
            term *= nus[kappa]
        total += term
    return total


def chain_pair_term(alphas, betas, nus, j: int, k: int) -> float:
    """Twice the real part of the ordered cross term of couplings j < k."""
    cross = betas[j] * np.conj(betas[k])
    cross *= alphas[j] * alphas[k]
    for kappa in range(j + 1, k):
        cross *= alphas[kappa] ** 2
    for kappa in range(j, k):
        cross *= nus[kappa] ** 2
    return 2.0 * float(np.real(cross))


def chain_prob_leading(alphas, betas, nus) -> float:
    """|tau_21|^2 to second order in the off-diagonal couplings.

    The diagonal sum of |beta_j|^2 plus twice the real part of the ordered
    cross terms; with unit alphas the cross terms reduce to
    beta_j conj(beta_k) prod nu^2.
    """
    n = len(betas)
    total = float(sum(abs(b) ** 2 for b in betas))
    for j in range(n):
        for k in range(j + 1, n):
            total += chain_pair_term(alphas, betas, nus, j, k)
    return total


# ----------------------------------------------------------------------------
# assembled prediction


def _enc(z) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


@dataclass
class PredictedScattering:
    s_matrix: np.ndarray
    p_pred: float
    chain: ChainFactors
    factors: list           # the normalized crossing pairs the products use
    parity_odd: bool
    n_sharp_odd: int
    p_chain_paths: dict

    def to_dict(self) -> dict:
        rows = []
        for k, (tag, (a, b)) in enumerate(zip(self.chain.split.assignment, self.factors)):
            row = {"kind": "crossing", "tag": tag, "a": _enc(a), "b": _enc(b)}
            if tag == "A":
                m = self.chain.split.orders[k]
                row["has_iq"] = self.chain.iq[k]
                row["error"] = f"O(mu^{-(m + 1) / m:g}*exp(-a mu^((m+1)/m)))"
            rows.append(row)
            if k < len(self.chain.phases):
                rows.append({"kind": "between", "a": _enc(self.chain.phases[k]),
                             "b": _enc(0.0j)})
        return {"P_pred": self.p_pred, "paths": self.p_chain_paths,
                "chain": {"factors": rows}}


def predicted_scattering(model, eps: float, h: float, split: RegimeSplit,
                         catalog: CrossingCatalog | None = None,
                         anchors: tuple[float, float] | None = None,
                         ) -> PredictedScattering:
    """Leading-order scattering matrix from the transfer-chain product.

    Two equivalent products of the same factors are evaluated.  The direct
    one takes the dressed factors with their i*Q insertions, the plain gap
    phases and both end connectors.  The other is the pure SU(2) chain of
    flip-conjugated factors and effective phases, whose (2,1) entry gives P
    through the combined parity rule.  Their probabilities must agree to
    roundoff; both are reported.  The connector actions sit at ``anchors``,
    else at the default anchors; either way their tail integrals are kept on
    the catalog, computed by the first call only.  Raises RegimeViolation
    unless ``split`` is the regime rule's split at (eps, h), orders included.
    """
    if catalog is None:
        catalog = find_crossings(model)
    if len(split.assignment) != catalog.n:
        raise ValueError("regime split length mismatch")
    check_split(split, catalog.orders, eps, h)
    return _predicted_scattering(model, eps, h, split, catalog, anchors)


def _predicted_scattering(model, eps: float, h: float, split: RegimeSplit,
                          catalog: CrossingCatalog, anchors) -> PredictedScattering:
    """``predicted_scattering`` without the regime check, for any split."""
    chain = chain_factors(model, eps, h, split, catalog)
    factors = [normalized(*p) if tag == "N" else p
               for tag, p in zip(split.assignment, chain.pairs)]

    # direct product: S = right^-1 (iQ) T_0 nu_0 (iQ) T_1 ... T_(n-1) left
    right, left = end_connectors(model, catalog, h, anchors)
    dressed = [su2_mul(*IQ, *f) if iq else f for f, iq in zip(factors, chain.iq)]
    s = su2_chain_product([(np.conj(right[0]), -right[1]),
                           *_interleaved(dressed, chain.phases), left])
    p_direct = float(abs(s[1]) ** 2)

    # flip-conjugated SU(2) chain with effective phases
    tau = su2_chain_product(_interleaved(*chain.flip_conjugated(factors)))
    tau21_sq = float(abs(tau[1]) ** 2)
    p_chain = 1.0 - tau21_sq if split.parity_odd else tau21_sq

    return PredictedScattering(
        s_matrix=dense(*s), p_pred=p_direct, chain=chain, factors=factors,
        parity_odd=split.parity_odd, n_sharp_odd=split.n_sharp_odd,
        p_chain_paths={"direct": p_direct, "su2_chain": p_chain},
    )


def _tilde_flags(split: RegimeSplit, n: int) -> list[bool]:
    """Factor indices whose matrices are flip-conjugated in the SU(2) chain."""
    flags = [False] * n
    odd = list(split.sharp_odd)
    for i in range(0, len(odd), 2):
        start = odd[i]
        stop = odd[i + 1] if i + 1 < len(odd) else n
        for j in range(start, stop):
            flags[j] = True
    return flags
