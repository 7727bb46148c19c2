"""Oscillatory integrals with a degenerate stationary point.

Handles integrals of the form

    I(h) = integral_I f(t) * exp(sign * (2i/h) * integral_{t0}^{t} V(s) ds) dt

where V may vanish at t0 to finite order m.  The quadrature subdivides I into
panels short enough that the phase advances by a bounded fraction of a radian
per panel (with a floor ~ h^(1/(m+1)) inside the stationary ball), takes the
phase on each panel from the exact antiderivative of V's interpolant at the
Gauss-Legendre nodes, and integrates with the same Gauss-Legendre rule.

The leading behaviour is f(t0) * omega_m * h^(1/(m+1)) with the universal
constant omega_m depending on the order m and the leading derivative
v = V^(m)(t0).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import QuadratureTolExceeded
from .quadrature import (
    adaptive_mesh,
    gauss_legendre,
    gauss_legendre_antiderivative,
    sample_density,
)

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
                 sign: int = 1, tol: float = 1e-12) -> complex:
    """Numerical value of the oscillatory integral over ``interval``.

    ``amplitude`` is a vectorized callable (default 1); ``sign`` flips the
    exponent.  The panel floor uses the largest vanishing order of V on the
    interval, classified from the model's jets.
    """
    if not 0 < h < math.inf:
        raise ValueError("need 0 < h < inf")
    a, b = float(interval[0]), float(interval[1])
    if a == b:
        return 0.0 + 0.0j
    orientation = 1.0
    if b < a:
        a, b = b, a
        orientation = -1.0

    m = _max_zero_order_inside(model, a, b)
    floor = STATIONARY_FLOOR_FRACTION * h ** (1.0 / (m + 1))

    def density(t):
        # panel width = min(phase-resolution rule, stationary-ball cap), so the
        # density is the max of the two reciprocal rules
        v_abs = np.abs(np.real(model.eval(t)))
        rho_osc = 2.0 * v_abs / (PANEL_PHASE_FRACTION * h)
        rho_cap = 1.0 / floor
        return np.maximum(rho_osc, rho_cap)

    forced = [t0] if a < t0 < b else []
    mesh = adaptive_mesh(sample_density(density, a, b, forced=forced))
    x, w = gauss_legendre(16)
    n = len(x)
    half = 0.5 * np.diff(mesh)
    pts = 0.5 * (mesh[:-1] + mesh[1:])[:, None] + half[:, None] * x
    v = np.real(model.eval(pts.ravel())).reshape(pts.shape)
    # integral of V from a: at the mesh points, and inside each panel
    at_mesh = np.concatenate([[0.0], np.cumsum(half * (v @ w))])
    inside = at_mesh[:-1, None] + half[:, None] * (v @ gauss_legendre_antiderivative(n).T)

    # phase offset so that the accumulated integral of V is zero at t0
    if a <= t0 <= b:
        offset = at_mesh[int(np.argmin(np.abs(mesh - t0)))]
    else:
        from .potential.catalog import phase_integral
        offset = phase_integral(model, a, t0)

    phi = (inside - offset) * (2.0 / h)
    f_vals = np.ones_like(pts) if amplitude is None else np.asarray(amplitude(pts))
    g = f_vals * np.exp(1j * sign * phi)
    # the top two Legendre coefficients of g's interpolant on each panel,
    # c_k = (k + 1/2) sum_i w_i P_k(x_i) g_i, as the error indicator
    k = np.array([n - 2, n - 1])
    top = g @ (np.polynomial.legendre.legvander(x, n - 1)[:, k] * w[:, None] * (k + 0.5))
    est = float(np.sum(np.sum(np.abs(top), axis=-1) * half * 2.0))
    # coefficient tails of well-resolved panels sit at the phase-rounding
    # floor: the node phases carry |phi| * eps of irreducible noise
    arc = float(np.sum(half * 2.0 * np.max(np.abs(g), axis=-1)))
    phi_max = float(np.max(np.abs(phi))) if phi.size else 0.0
    floor = 8.0 * np.finfo(float).eps * arc * (1.0 + phi_max)
    if est > max(tol, floor):
        raise QuadratureTolExceeded(
            f"oscillatory panel tail estimate {est:.3e} exceeds tol {tol:.3e}")
    return orientation * complex(np.sum(half * (g @ w)))


def _max_zero_order_inside(model, a: float, b: float) -> int:
    """Largest zero order of V on [a, b], 1 when V has no zero there.

    Raises ZeroOrderUndetermined when a zero's order cannot be read.
    """
    from .potential.catalog import _zero_order

    return max((_zero_order(model, z)[0] for z in model.candidate_zeros() if a <= z <= b),
               default=1)
