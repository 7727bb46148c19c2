"""Scattering matrix and transition probability from Jost solutions.

The Jost solutions are selected by their free asymptotics at t -> +/-inf.
Numerically they are realized at a finite anchor by the free basis of the
limiting Hamiltonian corrected with the tail exponential

    U(t) = exp(-(i/h) * integral_{+/-inf}^{t} A(s) ds),

whose exponent splits into a smooth diagonal tail integral (closed form per
family) and an oscillatory off-diagonal one,

    integral_{+/-inf}^{T} f(s) exp(i omega s) ds,   f = V - V_inf,

with omega = 2 lam / h.  The oscillatory tail is the integration-by-parts
series e^{i omega T} sum_k (-1)^k f^(k)(T) / (i omega)^(k+1), built from the
family's exact Taylor jet at T (Iserles & Norsett, Proc. R. Soc. A 461
(2005) 1383).  Terms are added while they decrease; the sum is accepted once
the remainder bound |f^(K)(T)| / (tail_rate omega^K), from the exponential
decay of the tail, is at or below tol, so its cost does not depend on h.
Only when omega is within a small factor of the tail rate does the series
miss the bound; the tail then falls back to composite Gauss-Legendre panels,
each short enough that the phase advances by at most half a radian, out to
where one integration by parts bounds the truncation below tol.

The scattering matrix is the change of basis between the left and right Jost
pairs across the numerically propagated middle region, S = J_r^-1 M J_l, and
the transition probability is the squared modulus of its (2,1) entry.  Jost
bases, propagator and S are ``su2`` pairs, so S is a product of SU(2) pairs
and its unitarity defect is | |a|^2 + |b|^2 - 1 |.

With method "magnus6" the route is picked by predicted cost.  The whole
region's step density, sampled first, predicts the steps that propagating it
builds; where that is at most WINDOW_COST_STEPS per crossing, magnus6
propagates the whole region on that density as the other methods do.
Otherwise the sixth-order Magnus integrator runs only on one window per
crossing, and ``adiabatic`` pairs carry the state between the windows and
out to the anchors.  The windows share half of tol and the adiabatic bounds
the other half, so the report's error_estimate, their sum, meets tol.  When
the windows would merge or reach the anchors, or there is no crossing, the
whole region is propagated after all.  The report's predicted_steps gives
the prediction and window_steps the steps of each window's returned mesh.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .adiabatic import WindowPlan, plan_windows
from .errors import ConfigError, TailNotConverged
from .potential.catalog import CrossingCatalog, find_crossings
from .potential.families import _MAX_JET_ORDER
from .propagator import (
    PropagationDiagnostics,
    _magnus6_density,
    check_parameters,
    fundamental_matrix,
    pilot_steps,
)
from .quadrature import integrate_panels
from .su2 import dense, su2_mul


@dataclass(frozen=True)
class JostAngles:
    """Mixing angle and frequency of the limiting Hamiltonian on one side."""

    angle: float      # theta (V_inf > 0) or eta (V_inf < 0)
    lam: float        # sqrt(V_inf^2 + eps^2)
    v_inf: float

    @staticmethod
    def for_side(v_inf: float, eps: float) -> "JostAngles":
        lam = math.hypot(v_inf, eps)
        # atan((lam - |V_inf|) / eps) without the cancellation at small eps
        angle = math.atan(eps / (lam + abs(v_inf))) if eps else 0.0
        return JostAngles(angle=angle, lam=lam, v_inf=v_inf)


@dataclass
class ScatteringReport:
    s_matrix: np.ndarray
    p_transition: float
    eps: float
    h: float
    truncation: float
    anchors: tuple[float, float]
    unitarity_defect: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        s = self.s_matrix
        return {
            "eps": self.eps,
            "h": self.h,
            "P": self.p_transition,
            "s_matrix": [[{"re": z.real, "im": z.imag} for z in row] for row in s],
            "truncation": self.truncation,
            "anchors": list(self.anchors),
            "unitarity_defect": self.unitarity_defect,
            "diagnostics": self.diagnostics,
        }


def herm_phase_exp(x: float, b: complex, h: float) -> tuple[complex, complex]:
    """Pair of exp(-(i/h) * [[x, b], [conj(b), -x]]), exact for the 2x2
    Hermitian form."""
    z = math.sqrt(x * x + abs(b) ** 2)
    if z == 0.0:
        return 1.0 + 0.0j, 0.0j
    c, s = math.cos(z / h), math.sin(z / h)
    return c - 1j * (s / z) * x, -1j * (s / z) * np.conj(b)


def free_basis(angles: JostAngles, h: float, t: float) -> tuple[complex, complex]:
    """Pair of the free Jost basis (phi^+, phi^-) of the limiting Hamiltonian
    at time t; phi^+ is its first column."""
    ph_minus = np.exp(-1j * angles.lam * t / h)
    cos, sin = math.cos(angles.angle), math.sin(angles.angle)
    if angles.v_inf > 0:
        return cos * ph_minus, sin * ph_minus
    return sin * ph_minus, cos * ph_minus


# multiple of eps_machine |V_inf| / omega below which a tail bound is not reported
_ROUNDOFF_FLOOR = 4.0


def _rounding_floor(v_inf: float, omega: float) -> float:
    """Least tail bound: V - V_inf is only known to about eps |V_inf|, so
    neither is the tail."""
    return _ROUNDOFF_FLOOR * np.finfo(float).eps * abs(v_inf) / abs(omega)


@dataclass(frozen=True)
class TailIntegral:
    """An oscillatory tail integral, the route that gave it and its error bound."""

    value: complex
    route: str        # "series" or "panels"
    bound: float      # bound on |value - exact|


def _series_tail(model, v_inf: float, t_eval: float, omega: float,
                 tol: float) -> TailIntegral | None:
    """Integration-by-parts series of the tail from the exact jet at t_eval.

    None when the terms stop decreasing before the remainder bound reaches tol.
    """
    jet = np.real(model.taylor(t_eval, _MAX_JET_ORDER)).tolist()
    jet[0] -= v_inf
    rate = model.tail_rate
    floor = _rounding_floor(v_inf, omega)
    total, last = 0j, math.inf
    for k, c in enumerate(jet):
        deriv = math.factorial(k) * c   # f^(k)(t_eval)
        bound = abs(deriv) / (rate * omega**k)
        if bound <= tol:
            return TailIntegral(cmath.exp(1j * omega * t_eval) * total, "series",
                                max(bound, floor))
        term = (-1) ** k * deriv / (1j * omega) ** (k + 1)
        if abs(term) >= last:
            return None
        total += term
        last = abs(term)
    return None


def _panel_tail(model, side: str, v_inf: float, t_eval: float, omega: float,
                tol: float) -> TailIntegral:
    """The tail by composite Gauss-Legendre panels.

    Truncated where one integration by parts bounds the remainder by
    2 * envelope / |omega| below tol; the reported bound has the series'
    rounding floor.  Raises QuadratureTolExceeded when the rule's orders 16
    and 8 disagree.
    """
    level = max(tol * abs(omega) / 4.0, 1e-300)
    try:
        t_far = model.tail_anchor(side, min(level, 1e-7))
    except ConfigError as exc:  # envelope never reaches the level
        raise TailNotConverged(str(exc)) from exc
    if side == "right":
        t_far = max(t_far, t_eval) + 5.0
    else:
        t_far = min(t_far, t_eval) - 5.0
    # Gauss-Legendre panels over which the phase advances at most 0.5 rad,
    # none wider than 0.5
    lo, hi = sorted((t_far, t_eval))
    n_panels = max(math.ceil(abs(omega) * (hi - lo) / 0.5), math.ceil((hi - lo) / 0.5))
    value = integrate_panels(
        lambda s: (np.real(model.eval(s)) - v_inf) * np.exp(1j * omega * s),
        np.linspace(lo, hi, n_panels + 1))
    if t_far > t_eval:
        value = -value
    bound = 2.0 * model.tail_envelope(side, t_far) / abs(omega)
    return TailIntegral(value, "panels", max(bound, _rounding_floor(v_inf, omega)))


def _oscillatory_tail(model, side: str, v_inf: float, t_eval: float,
                      omega: float, tol: float) -> TailIntegral:
    """integral_{+/-inf}^{t_eval} (V - V_inf) exp(i omega s) ds.

    The jet series when its remainder bound meets tol, else the panel rule.
    """
    return (_series_tail(model, v_inf, t_eval, omega, tol)
            or _panel_tail(model, side, v_inf, t_eval, omega, tol))


def jost_basis(model, eps: float, h: float, side: str, T: float,
               tol: float = 1e-12, diagnostics: dict | None = None) -> tuple[complex, complex]:
    """Pair of the Jost basis (J^+, J^-) at t = +T (right) or t = -T (left).

    The free basis of the limiting Hamiltonian is corrected by the
    tail-exponential; J^+ is the pair's first column.  A
    given ``diagnostics`` dict receives the oscillatory tail's route and
    remainder bound.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    v_inf = model.v_right if side == "right" else model.v_left
    angles = JostAngles.for_side(v_inf, eps)
    t_eval = T if side == "right" else -T
    phi = free_basis(angles, h, t_eval)

    # exponent X = integral_{+/-inf}^{t_eval} A(s) ds
    two_a = 2.0 * angles.angle
    cos2, sin2 = math.cos(two_a), math.sin(two_a)
    smooth_tail = model.tail_integral(side, t_eval)   # integral to +/-inf from t_eval
    i_diag = -smooth_tail if side == "right" else smooth_tail
    osc = _oscillatory_tail(model, side, v_inf, t_eval, 2.0 * angles.lam / h, tol)
    if diagnostics is not None:
        diagnostics.update(tail_route=osc.route, tail_bound=osc.bound)
    sign_diag = 1.0 if v_inf > 0 else -1.0
    x = sign_diag * cos2 * i_diag
    b = -sin2 * osc.value
    return su2_mul(*phi, *herm_phase_exp(x, b, h))


# whole-line magnus6 steps built that planning and propagating one crossing's
# window cost (see scattering_matrix)
WINDOW_COST_STEPS = 9000


def scattering_matrix(model, eps: float, h: float, tol: float = 1e-9,
                      truncation: float | None = None, method: str = "magnus6",
                      catalog: CrossingCatalog | None = None) -> ScatteringReport:
    """Full scattering matrix S and transition probability P = |S_21|^2.

    With magnus6 the route is the cheaper one.  The whole line's step
    density, sampled first, predicts the steps its propagation builds
    (``pilot_steps``, exact when the pilot pair is accepted; the report's
    predicted_steps).  Up to WINDOW_COST_STEPS per crossing the whole line
    is propagated on that density; beyond, the windows are planned, and the
    whole line is still taken when the plan fails.  The constant is the
    windowed route's cost per crossing in whole-line steps built: the plan
    plus the window propagations take 1.5-2.2 ms per crossing and a
    whole-line step built 0.21 us, i.e. 7.3k-10.4k steps, median 9.1k (tanh
    pair and three-crossing tanh at h = 1e-3 ... 1e-5, windowed LZ at
    h = 0.05 ... 0.2, tol 1e-9, one core).  Both routes meet tol, so the
    constant moves cost, never accuracy.
    """
    return _scattering_matrix(model, eps, h, tol, truncation, method, catalog,
                              WINDOW_COST_STEPS)


def _scattering_matrix(model, eps: float, h: float, tol: float, truncation: float | None,
                       method: str, catalog: CrossingCatalog | None,
                       window_cost: float) -> ScatteringReport:
    """scattering_matrix, with ``window_cost`` whole-line steps per crossing
    as the price of the windowed route: 0 always plans the windows."""
    check_parameters(eps, h, tol)
    if not model.has_tails:
        raise ValueError("scattering needs a potential with constant tails")
    if catalog is None:
        catalog = find_crossings(model)
    if truncation is None:
        level = _anchor_level(eps, h, tol)
        t_r = model.tail_anchor("right", level)
        t_l = model.tail_anchor("left", level)
        truncation = max(abs(t_r), abs(t_l))
        if catalog.crossings:
            truncation = max(truncation, abs(catalog.positions[0]) + 2.0,
                             abs(catalog.positions[-1]) + 2.0)

    plan = density = predicted = None
    if method == "magnus6":
        density = _magnus6_density(model, eps, h, -truncation, truncation, tol)
        predicted = pilot_steps(density)
        if predicted > window_cost * catalog.n:
            plan = plan_windows(model, eps, h, catalog, truncation, 0.5 * tol)
    if plan is None:
        diags = [PropagationDiagnostics()]
        mat = fundamental_matrix(model, eps, h, -truncation, truncation, tol=tol,
                                 method=method, diagnostics=diags[0], density=density)
        m_prop = mat[0, 0], mat[1, 0]
        route = {"route": "whole_line", "windows": [], "window_steps": [], "series_bound": 0.0}
    else:
        m_prop, diags = _windowed_matrix(model, eps, h, tol, plan)
        route = {"route": "windowed", "windows": [list(w) for w in plan.windows],
                 "window_steps": [d.steps for d in diags], "series_bound": plan.bound}
    route.update({key: sum(getattr(d, key) for d in diags) for key in _SUMMED})
    route["method"] = diags[0].method
    route["predicted_steps"] = predicted
    route["error_estimate"] = route["richardson_error"] + route["series_bound"]
    tail_r: dict = {}
    tail_l: dict = {}
    j_right = jost_basis(model, eps, h, "right", truncation, tol=tol * 1e-3,
                         diagnostics=tail_r)
    j_left = jost_basis(model, eps, h, "left", truncation, tol=tol * 1e-3,
                        diagnostics=tail_l)
    a, b = su2_mul(np.conj(j_right[0]), -j_right[1], *su2_mul(*m_prop, *j_left))
    defect = float(abs(abs(a) ** 2 + abs(b) ** 2 - 1.0))
    p = float(abs(b) ** 2)
    return ScatteringReport(
        s_matrix=dense(a, b), p_transition=p, eps=eps, h=h, truncation=truncation,
        anchors=(truncation, -truncation), unitarity_defect=defect,
        diagnostics={
            **route,
            "tail_route": ("panels" if "panels" in (tail_r["tail_route"], tail_l["tail_route"])
                           else "series"),
            "tail_bound": max(tail_r["tail_bound"], tail_l["tail_bound"]),
        },
    )


# propagation diagnostics that the windowed route sums over its windows
_SUMMED = ("steps", "steps_built", "refinements", "richardson_error", "norm_drift")


def _windowed_matrix(model, eps: float, h: float, tol: float, plan: WindowPlan):
    """Pair of the propagator over [-T, T]: magnus6 on each window, adiabatic
    pairs between them.

    The windows share the half of tol that the plan's bound leaves; returns
    the pair and the windows' diagnostics.
    """
    total = plan.transfers[0]
    diags = []
    window_tol = 0.5 * tol / len(plan.windows)
    for (lo, hi), after in zip(plan.windows, plan.transfers[1:]):
        diags.append(PropagationDiagnostics())
        mat = fundamental_matrix(model, eps, h, lo, hi, tol=window_tol, diagnostics=diags[-1])
        total = su2_mul(*after, *su2_mul(mat[0, 0], mat[1, 0], *total))
    return total, diags


def _anchor_level(eps: float, h: float, tol: float) -> float:
    """Tail envelope level at the truncation point.

    The residual after the first-order tail correction is quadratic in the
    integrated tail over h, so the level scales with h and the error budget.
    """
    level = h * math.sqrt(tol / (10.0 * max(eps, 1e-9)))
    return float(min(1e-8, max(1e-13, level)))


def landau_zener_probability(eps: float, h: float, slope: float = 1.0) -> float:
    """Exact transition probability of the linear model V = slope * t."""
    return math.exp(-math.pi * eps * eps / (slope * h))
