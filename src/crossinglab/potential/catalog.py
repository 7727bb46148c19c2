"""Zero catalog of the coupling function and the action-type integrals.

Conventions follow the two-level crossing problem: zeros are ordered by
DECREASING position (t_1 > t_2 > ... > t_n, index 0 is the rightmost), the
partial order sums sigma_k fix the sign of V on each gap, and V -> V_r > 0 on
the right.

The catalog is the one cache of what depends on neither h nor eps.  The
crossings and the gap integrals are computed by ``find_crossings``; the rest
is kept in one memo, ``CrossingCatalog.kept``, on first use: the tail anchors
by side and envelope level (the default anchors of the actions R and the
truncation points of ``scattering_matrix``), the tail integrals by side and
anchor (the actions R at any anchor and the Jost tails at +-T read the same
entry), the Jost tails' jets at +-T, the samples of the magnus6 step density
on [-T, T], and the jets of V and V' at each crossing k, ("crossing", k),
from which the turning points take their seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    AnchorInsideCrossings,
    BracketingFailed,
    TailIntegralVanishes,
    ZeroOrderUndetermined,
)
from ..quadrature import integrate_smooth
from .families import PotentialModel

ORDER_TOL = 1e-9       # |V^(l)| below ORDER_TOL * scale counts as vanishing
MAX_ZERO_ORDER = 12
TAIL_LEVEL = 1e-10     # tail envelope at the default anchors of the actions R
TAIL_VANISH_TOL = 1e-13  # |tail integral| below which an anchor is refused
SCAN_POINTS = 4001     # samples of the sign-change scan in find_crossings
SIDES = ("right", "left")


@dataclass(frozen=True)
class Crossing:
    t: float
    m: int
    v: float  # V^(m)(t), the first nonvanishing derivative


@dataclass(frozen=True)
class CrossingCatalog:
    crossings: tuple[Crossing, ...]   # ordered by decreasing t
    sigma: tuple[int, ...]            # sigma[k] = m_0 + ... + m_k
    gaps: tuple[float, ...]           # gaps[k] = integral of V from t_{k+1} to t_k
    # the memo of ``kept``: filled on first use, pickled with the catalog, and
    # neither compared, hashed nor in to_dict
    line_data: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def positions(self) -> tuple[float, ...]:
        return tuple(c.t for c in self.crossings)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(c.m for c in self.crossings)

    @property
    def sigma_n(self) -> int:
        return self.sigma[-1] if self.sigma else 0

    @property
    def m_star(self) -> int:
        return max(c.m for c in self.crossings)

    @property
    def lambda_star(self) -> tuple[int, ...]:
        m = self.m_star
        return tuple(k for k, c in enumerate(self.crossings) if c.m == m)

    def sigma_before(self, k: int) -> int:
        """sigma_{k-1}: total order of crossings to the right of crossing k."""
        return self.sigma[k - 1] if k > 0 else 0

    def kept(self, key: tuple, compute):
        """compute(), kept under a flat ``key`` such as ("tail", side, anchor)
        and computed on the first use only; a compute() that raises keeps
        nothing."""
        if key not in self.line_data:
            self.line_data[key] = compute()
        return self.line_data[key]

    def phase_between(self, j: int, k: int) -> float:
        """integral of V from crossing k up to crossing j (j <= k), a sum of gaps."""
        return sum(self.gaps[j:k], 0.0)

    def to_dict(self) -> dict:
        return {
            "crossings": [{"t": c.t, "m": c.m, "v": c.v} for c in self.crossings],
            "sigma": list(self.sigma),
            "gaps": list(self.gaps),
            "m_star": self.m_star if self.crossings else None,
            "lambda_star": list(self.lambda_star) if self.crossings else [],
        }


def _zero_order(model: PotentialModel, t0: float) -> tuple[int, float]:
    """Order and leading derivative of a zero, from exact jets."""
    jet = model.taylor(t0, MAX_ZERO_ORDER)
    mags = np.abs(jet)
    scale = max(1.0, float(mags.max()))
    for order in range(1, MAX_ZERO_ORDER + 1):
        coeff = jet[order]
        if abs(coeff) > ORDER_TOL * scale:
            return order, float(coeff) * math.factorial(order)
    raise ZeroOrderUndetermined(
        f"all derivatives at t={t0} up to order {MAX_ZERO_ORDER} below tolerance")


def _polish_zero(model: PotentialModel, t0: float) -> float:
    """Sharpen an approximate zero location.

    A multiple root reported by a generic root finder is off by ~sqrt(eps),
    which would corrupt the order classification.  The tentative multiplicity
    is read from the jet with a loose threshold, then Newton is applied to
    the (m-1)-th derivative, which has a simple zero there.
    """
    for _ in range(60):
        jet = model.taylor(t0, MAX_ZERO_ORDER)
        scale = max(1.0, float(np.max(np.abs(jet))))
        m_hat = None
        for order in range(1, MAX_ZERO_ORDER + 1):
            if abs(jet[order]) > 1e-5 * scale:
                m_hat = order
                break
        if m_hat is None:
            raise ZeroOrderUndetermined(f"no dominant derivative near t={t0}")
        step = -jet[m_hat - 1] / (m_hat * jet[m_hat])
        t0 = float(t0 + step)
        if abs(step) < 1e-14 * (1.0 + abs(t0)):
            return t0
    return t0


def find_crossings(model: PotentialModel) -> CrossingCatalog:
    """Locate all real zeros of V with their orders and leading coefficients.

    Builtin families expose their zero candidates exactly; a sign-change scan
    over ``model.suggest_interval()``, which holds every candidate, guards
    against omissions (it can only add odd-order zeros, the even-order ones
    do not change sign).  The integrals of V between consecutive zeros depend
    on neither h nor eps and are computed here, once; the tails are left to
    the memo.
    """
    lo, hi = model.suggest_interval()
    candidates = list(model.candidate_zeros())

    ts = np.linspace(lo, hi, SCAN_POINTS)
    vs = np.real(model.eval(ts))
    sign_changes = np.nonzero(np.sign(vs[:-1]) * np.sign(vs[1:]) < 0)[0]
    for idx in sign_changes:
        a, b = ts[idx], ts[idx + 1]
        if any(a - 1e-6 <= z <= b + 1e-6 for z in candidates):
            continue  # bracket sits on an already known zero
        from scipy.optimize import brentq

        root = brentq(lambda s: float(np.real(model.eval(s))), a, b,
                      xtol=1e-12, maxiter=200)
        if not any(abs(root - z) < 1e-6 for z in candidates):
            candidates.append(root)

    polished = []
    for z in candidates:
        z = _polish_zero(model, z)
        if not any(abs(z - p) < 1e-8 for p in polished):
            polished.append(z)
    zeros = sorted(polished, reverse=True)  # decreasing t
    crossings = []
    for t0 in zeros:
        m, v = _zero_order(model, t0)
        crossings.append(Crossing(t=t0, m=m, v=v))

    sigma = tuple(int(s) for s in np.cumsum([c.m for c in crossings]))
    gaps = tuple(phase_integral(model, lo_t, hi_t) for hi_t, lo_t in zip(zeros, zeros[1:]))
    catalog = CrossingCatalog(tuple(crossings), sigma, gaps)
    _check_sign_pattern(model, catalog, lo, hi)
    return catalog


def _check_sign_pattern(model, catalog, lo, hi):
    """(-1)^sigma_k V > 0 on each gap, and the parity of V_l, assuming V_r > 0."""
    pts = list(catalog.positions)
    mids = []
    if pts:
        mids.append((0, 0.5 * (pts[0] + hi)))  # right of the first crossing: sigma_0 = 0
        for k in range(len(pts) - 1):
            mids.append((k + 1, 0.5 * (pts[k] + pts[k + 1])))
        mids.append((len(pts), 0.5 * (pts[-1] + lo)))
    for count, mid in mids:
        sgn = (-1.0) ** (catalog.sigma[count - 1] if count > 0 else 0)
        if sgn * float(np.real(model.eval(mid))) <= 0:
            raise BracketingFailed(
                f"sign of V at t={mid:.4g} inconsistent with crossing orders")
    if model.has_tails and catalog.crossings:
        if (-1.0) ** catalog.sigma_n * model.v_left <= 0:
            raise BracketingFailed("parity of total order inconsistent with V_l")


def phase_integral(model: PotentialModel, a: float, b: float) -> float:
    """integral of V over [a, b] to near machine precision."""
    if a == b:
        return 0.0
    return integrate_smooth(lambda s: np.real(model.eval(s)), a, b)


def tail_integral(model: PotentialModel, catalog: CrossingCatalog, side: str,
                  anchor: float) -> float:
    """integral of V - V_side from the anchor out to the side's infinity,
    kept on the catalog under ("tail", side, anchor)."""
    return catalog.kept(("tail", side, anchor), lambda: model.tail_integral(side, anchor))


def tail_anchor(model: PotentialModel, catalog: CrossingCatalog, side: str,
                level: float) -> float:
    """Where the side's tail envelope reaches the level, kept on the catalog
    under ("anchor", side, level)."""
    return catalog.kept(("anchor", side, level), lambda: model.tail_anchor(side, level))


def default_anchors(model: PotentialModel, catalog: CrossingCatalog) -> tuple[float, float]:
    """The anchors at TAIL_LEVEL on the right and the left."""
    return tuple(tail_anchor(model, catalog, side, TAIL_LEVEL) for side in SIDES)


def regularized_action(model: PotentialModel, side: str, t_anchor: float,
                       catalog: CrossingCatalog | None = None) -> float:
    """Action constant R with the infinite tail folded in.

    R_r = V_r * t_r + integral_{+inf}^{t_r} (V - V_r), and the mirrored
    expression on the left.  The anchor must sit beyond the outermost zero and
    the tail integral must not vanish (it controls the leading diagonal phase
    of the connector there).  The tail integral is kept on the catalog.
    """
    if catalog is None:
        catalog = find_crossings(model)
    if side not in SIDES:
        raise ValueError("side must be 'right' or 'left'")
    if catalog.crossings:
        if side == "right" and t_anchor <= catalog.positions[0]:
            raise AnchorInsideCrossings(f"anchor {t_anchor} not beyond t_1")
        if side == "left" and t_anchor >= catalog.positions[-1]:
            raise AnchorInsideCrossings(f"anchor {t_anchor} not beyond t_n")
    tail = tail_integral(model, catalog, side, t_anchor)
    if abs(tail) < TAIL_VANISH_TOL:
        raise TailIntegralVanishes(
            f"tail integral {tail:.3e} at anchor {t_anchor}; move the anchor")
    v_inf = model.v_right if side == "right" else model.v_left
    if side == "right":
        return v_inf * t_anchor - tail  # integral from +inf to t_r flips sign
    return v_inf * t_anchor + tail


def regularized_actions(model: PotentialModel, catalog: CrossingCatalog,
                        anchors: tuple[float, float] | None = None) -> tuple[float, float]:
    """R on the right and the left, at ``default_anchors`` when no anchors
    are given."""
    if anchors is None:
        anchors = default_anchors(model, catalog)
    return tuple(regularized_action(model, side, t, catalog)
                 for side, t in zip(SIDES, anchors))
