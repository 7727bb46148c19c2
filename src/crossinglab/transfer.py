"""Closed-form transfer matrices and their SU(2) chain products.

A crossing traversed diabatically contributes a near-identity SU(2) factor
with off-diagonal -i * conj(omega_m) * mu_m; a crossing in the adiabatic
regime contributes a WKB factor built from the two turning-point actions,
dressed by a case table in (order parity, accumulated-order parity) that may
inject a factor i*Q with Q the flip matrix.  Between crossings the factor is
a diagonal phase exp(-+ (i/h) integral V).  The scattering matrix is the
ordered product; its (2,1) entry squared is the transition probability.

The first-order expansion of the product (off-diagonal linear in the small
couplings) and the interference form of its squared modulus are implemented
separately so the full product can serve as their oracle.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .oscillatory import omega_m
from .params import RegimeSplit, check_split, mu
from .potential.catalog import CrossingCatalog, effective_potential
from .potential.turning import TurningPointSet, turning_points
from .su2 import SU2Matrix, diagonal_su2, identity_su2

Q_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
J_STRUCTURE = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


# ----------------------------------------------------------------------------
# individual factors


@dataclass(frozen=True)
class ErrorOrder:
    """Symbolic error-order tag: sum of monomials mu^p * h^q * exp terms."""

    terms: tuple[dict, ...]

    def describe(self) -> str:
        parts = []
        for t in self.terms:
            bits = []
            for key, power in t.items():
                bits.append(f"{key}^{power:g}" if power != 1 else key)
            parts.append("*".join(bits) if bits else "1")
        return " + ".join(f"O({p})" for p in parts)


def crossing_transfer_nonadiabatic(k: int, eps: float, h: float,
                                   catalog: CrossingCatalog):
    """Diabatic-crossing SU(2) factor and its error order.

    Leading form has unit diagonal and off-diagonal -i conj(omega) mu; the
    determinant deviates from 1 at O(mu^2), removed by normalization and
    absorbed into the error tag.
    """
    c = catalog.crossings[k]
    mu_k = mu(c.m, eps, h)
    w = omega_m(c.m, c.v)
    factor = SU2Matrix.normalized(1.0, -1j * np.conj(w) * mu_k)
    order = ErrorOrder(({"mu": 2}, {"mu": 1, "h": 1.0 / (c.m + 1)}))
    return factor, order


def between_transfer(k: int, eps: float, h: float, catalog: CrossingCatalog,
                     mask=None):
    """Diagonal phase factor between crossings k and k+1.

    With a sign mask the phase integrand is the effective coupling instead of
    V itself (mixed-regime bookkeeping).
    """
    gaps = catalog.gaps if mask is None else catalog.masked_gaps(mask)
    nu = cmath.exp(-1j * gaps[k] / h)
    return diagonal_su2(nu), ErrorOrder(({"eps": 2, "h": -1},))


@dataclass(frozen=True)
class AdiabaticFactor:
    """Dressed WKB factor at an adiabatic crossing.

    ``su2`` is the special-unitary part; ``has_iq`` records the extracted
    i*Q left factor (present exactly when the order is odd).
    """

    su2: SU2Matrix
    has_iq: bool
    alpha: complex
    beta: complex
    order: ErrorOrder

    @property
    def full_matrix(self) -> np.ndarray:
        m = self.su2.matrix
        return (1j * Q_FLIP @ m) if self.has_iq else m


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


def crossing_transfer_adiabatic(k: int, eps: float, h: float,
                                catalog: CrossingCatalog,
                                tps: TurningPointSet | None = None,
                                model=None) -> AdiabaticFactor:
    """Adiabatic-crossing factor with the parity case table applied.

    The dressing depends on (m_k parity, sigma_{k-1} parity); odd orders pull
    out an i*Q factor recorded separately so the SU(2) product algebra applies
    to the rest.
    """
    c = catalog.crossings[k]
    if tps is None:
        if model is None:
            raise ValueError("need either turning points or the model")
        tps = turning_points(model, catalog, k, eps)
    alpha, beta = wkb_alpha_beta(k, eps, h, catalog, tps)
    base = SU2Matrix.normalized(alpha, beta)
    sigma_prev = catalog.sigma_before(k)
    m_odd = c.m % 2 == 1
    s_odd = sigma_prev % 2 == 1

    if not m_odd and not s_odd:
        dressed = base
    elif not m_odd and s_odd:
        dressed = base.conjugated()
    elif m_odd and not s_odd:
        dressed = SU2Matrix(-1j, 0.0) @ base                  # diag(-i, i) @ T
    else:
        dressed = SU2Matrix(1j, 0.0) @ base.conjugated()      # diag(i, -i) @ conj(T)

    exponent = (c.m + 1.0) / c.m
    order = ErrorOrder((
        {"mu": -exponent, "exp(-a mu^((m+1)/m))": 1},
    ))
    return AdiabaticFactor(su2=dressed, has_iq=m_odd, alpha=alpha, beta=beta,
                           order=order)


# ----------------------------------------------------------------------------
# chains


@dataclass
class TransferChain:
    """Ordered alternating factors T_0, T_{0,1}, T_1, ..., with regime tags."""

    crossing_factors: list          # SU2Matrix or AdiabaticFactor per crossing
    between_factors: list[SU2Matrix]
    tags: list[str]                 # "N" or "A" per crossing

    def to_dict(self) -> dict:
        def enc(z):
            return {"re": float(np.real(z)), "im": float(np.imag(z))}

        rows = []
        for k, f in enumerate(self.crossing_factors):
            if isinstance(f, AdiabaticFactor):
                rows.append({"kind": "crossing", "tag": self.tags[k],
                             "a": enc(f.su2.a), "b": enc(f.su2.b),
                             "has_iq": f.has_iq, "error": f.order.describe()})
            else:
                rows.append({"kind": "crossing", "tag": self.tags[k],
                             "a": enc(f.a), "b": enc(f.b)})
            if k < len(self.between_factors):
                g = self.between_factors[k]
                rows.append({"kind": "between", "a": enc(g.a), "b": enc(g.b)})
        return {"factors": rows}


def su2_chain_product(factors) -> SU2Matrix:
    """Ordered product of SU(2) factors (first factor applied last)."""
    out = identity_su2()
    for f in factors:
        out = out @ f
    return out


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


def chain_pair_term(alphas, betas, nus, j: int, k: int,
                    assume_unit_alpha: bool = False) -> float:
    """Twice the real part of the ordered cross term of couplings j < k."""
    cross = betas[j] * np.conj(betas[k])
    if not assume_unit_alpha:
        cross *= alphas[j] * alphas[k]
        for kappa in range(j + 1, k):
            cross *= alphas[kappa] ** 2
    for kappa in range(j, k):
        cross *= nus[kappa] ** 2
    return 2.0 * float(np.real(cross))


def chain_prob_leading(alphas, betas, nus, assume_unit_alpha: bool = False) -> float:
    """|tau_21|^2 to second order in the off-diagonal couplings.

    The diagonal sum of |beta_j|^2 plus twice the real part of the ordered
    cross terms; with unit alphas the cross terms reduce to
    beta_j conj(beta_k) prod nu^2.
    """
    n = len(betas)
    total = float(sum(abs(b) ** 2 for b in betas))
    for j in range(n):
        for k in range(j + 1, n):
            total += chain_pair_term(alphas, betas, nus, j, k, assume_unit_alpha)
    return total


# ----------------------------------------------------------------------------
# assembled prediction


@dataclass
class PredictedScattering:
    s_matrix: np.ndarray
    p_pred: float
    chain: TransferChain
    parity_odd: bool
    n_sharp_odd: int
    tau21_sq: float
    p_chain_paths: dict

    def to_dict(self) -> dict:
        return {"P_pred": self.p_pred, "paths": self.p_chain_paths,
                "chain": self.chain.to_dict()}


def predicted_scattering(model, eps: float, h: float, split: RegimeSplit,
                         catalog: CrossingCatalog | None = None,
                         anchors: tuple[float, float] | None = None,
                         turning_sets: dict[int, TurningPointSet] | None = None,
                         enforce_regime: bool = True) -> PredictedScattering:
    """Leading-order scattering matrix from the transfer-matrix product.

    Two equivalent evaluations are performed: the direct ordered product of
    the dressed factors (with i*Q insertions and the left-connector structure
    matrix), and the pure SU(2) chain with flip-conjugated factors and
    sign-masked between phases.      Their (2,1) probabilities must agree to
    roundoff; both are reported.  Without ``anchors`` the connector actions
    come from the catalog's tail integrals at the default anchors.  With
    ``enforce_regime`` the split must be the regime rule's split at (eps, h).
    """
    from .potential.catalog import find_crossings, regularized_actions

    if catalog is None:
        catalog = find_crossings(model)
    n = catalog.n
    if len(split.assignment) != n:
        raise ValueError("regime split length mismatch")
    if enforce_regime:
        check_split(split, catalog.orders, eps, h)

    r_right, r_left = regularized_actions(model, catalog, anchors)

    # factors
    crossing_factors = []
    for k in range(n):
        if split.assignment[k] == "N":
            f, _ = crossing_transfer_nonadiabatic(k, eps, h, catalog)
        else:
            tps = None if turning_sets is None else turning_sets.get(k)
            f = crossing_transfer_adiabatic(k, eps, h, catalog, tps=tps,
                                            model=model)
        crossing_factors.append(f)
    between = [between_transfer(k, eps, h, catalog)[0] for k in range(n - 1)]

    chain = TransferChain(crossing_factors, between,
                          tags=list(split.assignment))

    # ---- path 1: direct matrix product ------------------------------------
    sigma_odd = catalog.sigma_n % 2 == 1
    t_left = diagonal_su2(cmath.exp(-1j * r_left / h)).matrix
    if sigma_odd:
        t_left = t_left @ J_STRUCTURE
    prod = t_left
    for k in range(n - 1, -1, -1):
        if k < n - 1:
            prod = between[k].matrix @ prod
        f = chain.crossing_factors[k]
        mat = f.full_matrix if isinstance(f, AdiabaticFactor) else f.matrix
        prod = mat @ prod
    t_right_inv = diagonal_su2(cmath.exp(+1j * r_right / h)).matrix
    s_pred = t_right_inv @ prod
    p_direct = float(abs(s_pred[1, 0]) ** 2)

    # ---- path 2: flip-conjugated SU(2) chain with effective phases --------
    tilde = _tilde_flags(split, n)
    mask = effective_potential(catalog, split.sharp_odd)
    su2_factors = []
    for k in range(n):
        f = chain.crossing_factors[k]
        base = f.su2 if isinstance(f, AdiabaticFactor) else f
        su2_factors.append(base.q_conjugated() if tilde[k] else base)
        if k < n - 1:
            bt, _ = between_transfer(k, eps, h, catalog, mask=mask)
            su2_factors.append(bt)
    tau = su2_chain_product(su2_factors)
    tau21_sq = float(abs(tau.b) ** 2)
    n_sharp_odd = split.n_sharp_odd
    parity_odd = (catalog.sigma_n + n_sharp_odd) % 2 == 1
    p_chain = 1.0 - tau21_sq if parity_odd else tau21_sq

    return PredictedScattering(
        s_matrix=s_pred, p_pred=p_direct, chain=chain, parity_odd=parity_odd,
        n_sharp_odd=n_sharp_odd, tau21_sq=tau21_sq,
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
