"""Oscillatory integrals with a degenerate stationary point.

Handles integrals of the form

    I(h) = integral_I f(t) * exp(sign * (2i/h) * integral_{t0}^{t} V(s) ds) dt

where V may vanish at t0 to finite order m.  The quadrature subdivides I into
panels short enough that the phase advances by a bounded fraction of a radian
per panel (with a floor ~ h^(1/(m+1)) inside the stationary ball), models the
phase spectrally on each panel, and integrates with Clenshaw-Curtis weights.

The leading behaviour is f(t0) * omega_m * h^(1/(m+1)) with the universal
constant omega_m depending on the order m and the leading derivative
v = V^(m)(t0).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import QuadratureTolExceeded
from .quadrature import DEFAULT_PANEL_ORDER, PanelPhaseModel, adaptive_mesh, panel_integrate_nodes

PANEL_PHASE_FRACTION = 0.125   # phase advance per panel, radians
STATIONARY_FLOOR_FRACTION = 0.125  # panel floor as fraction of h^(1/(m+1))


def omega_m(m: int, v: float) -> complex:
    """Leading stationary-phase constant for a phase zero of order m.

    For even m the constant is real; for odd m it carries a phase
    sgn(v) * pi / (2(m+1)).
    """
    if m < 1 or v == 0:
        raise ValueError("need m >= 1 and v != 0")
    amplitude = 2.0 * (math.factorial(m + 1) / (2.0 * abs(v))) ** (1.0 / (m + 1)) \
        * math.gamma((m + 2.0) / (m + 1.0))
    if m % 2 == 0:
        eta = math.cos(math.pi / (2.0 * (m + 1)))
    else:
        eta = cmath.exp(1j * math.copysign(1.0, v) * math.pi / (2.0 * (m + 1)))
    return amplitude * eta


def stationary_phase_leading(f_at_t0: complex, m: int, v: float, h: float) -> complex:
    """f(t0) * omega_m * h^(1/(m+1)), the leading term of the integral."""
    return f_at_t0 * omega_m(m, v) * h ** (1.0 / (m + 1))


def osc_integral(model, interval, t0: float, h: float, amplitude=None,
                 sign: int = 1, stationary_order: int | None = None,
                 tol: float = 1e-12, panel_order: int = DEFAULT_PANEL_ORDER,
                 phase_scale: float = 2.0) -> complex:
    """Numerical value of the oscillatory integral over ``interval``.

    ``amplitude`` is a vectorized callable (default 1); ``sign`` flips the
    exponent; ``phase_scale`` is the constant multiplying integral(V)/h in the
    exponent (2 for the standard two-level phase, 1 for single-branch
    phases).  ``stationary_order`` is the vanishing order of V at t0 used for
    the panel floor; when omitted it is classified from the model's jets.
    """
    a, b = float(interval[0]), float(interval[1])
    if a == b:
        return 0.0 + 0.0j
    orientation = 1.0
    if b < a:
        a, b = b, a
        orientation = -1.0

    if stationary_order is None:
        stationary_order = _max_zero_order_inside(model, a, b)
    m = max(1, stationary_order)
    floor = STATIONARY_FLOOR_FRACTION * h ** (1.0 / (m + 1))

    scale = abs(phase_scale)

    def density(t):
        # panel width = min(phase-resolution rule, stationary-ball cap), so the
        # density is the max of the two reciprocal rules
        v_abs = np.abs(np.real(model.eval(t)))
        rho_osc = scale * v_abs / (PANEL_PHASE_FRACTION * h)
        rho_cap = 1.0 / floor
        return np.maximum(rho_osc, rho_cap)

    forced = [t0] if a < t0 < b else []
    mesh = adaptive_mesh(density, a, b, forced=forced)
    phase = PanelPhaseModel(mesh, _nodes_eval(model, mesh, panel_order), panel_order)

    # phase offset so that the accumulated integral of V is zero at t0
    if a < t0 < b or t0 == a or t0 == b:
        idx = int(np.argmin(np.abs(mesh - t0)))
        offset = phase.offsets[idx] if idx < len(phase.offsets) else \
            phase.offsets[-1] + phase.panel_totals[-1]
    else:
        from .potential.catalog import phase_integral
        offset = phase_integral(model, a, t0)

    pts = phase.node_points()
    phi = (phase.phi_nodes - offset) * (phase_scale / h)
    f_vals = np.ones_like(pts) if amplitude is None else np.asarray(amplitude(pts))
    g = f_vals * np.exp(1j * sign * phi)
    integrals, tail = panel_integrate_nodes(g, phase.half, return_tail=True)
    est = float(np.sum(tail))
    # spectral tails of well-resolved panels sit at the phase-rounding floor:
    # the node phases carry |phi| * eps of irreducible noise
    arc = float(np.sum(phase.half * 2.0 * np.max(np.abs(g), axis=-1)))
    phi_max = float(np.max(np.abs(phi))) if phi.size else 0.0
    floor = 8.0 * np.finfo(float).eps * arc * (1.0 + phi_max)
    if est > max(tol, floor):
        raise QuadratureTolExceeded(
            f"oscillatory panel tail estimate {est:.3e} exceeds tol {tol:.3e}")
    return orientation * complex(np.sum(integrals))


def _nodes_eval(model, mesh: np.ndarray, order: int) -> np.ndarray:
    from .quadrature import lobatto_nodes

    x = lobatto_nodes(order)
    mid = 0.5 * (mesh[:-1] + mesh[1:])
    half = 0.5 * np.diff(mesh)
    pts = mid[:, None] + half[:, None] * x[None, :]
    return np.real(model.eval(pts.ravel())).reshape(pts.shape)


def _max_zero_order_inside(model, a: float, b: float) -> int:
    """Largest zero order of V on [a, b], 1 when V has no zero there.

    Raises ZeroOrderUndetermined when a zero's order cannot be read.
    """
    from .potential.catalog import _zero_order

    return max((_zero_order(model, z)[0] for z in model.candidate_zeros() if a <= z <= b),
               default=1)
