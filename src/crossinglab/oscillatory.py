"""Oscillatory integrals with a degenerate stationary point.

Handles integrals of the form

    I(h) = integral_I f(t) * exp(sign * (2i/h) * integral_{t0}^{t} V(s) ds) dt

where V may vanish at t0 to finite order m.  The integrand is sampled on the
successive-approximation grids of ``msa``: a grid built at h / 2 carries
u^-+ = exp(+-2i Phi / h), and the step that resolves the fastest MSA phase
at h resolves this one.  The sixth-order cumulative rule integrates it on
the grid and on every other node, in pieces (``uniform_integral``), so
only the end values are formed; the grid doubles until the two agree to
tol, and the finer value is returned.  The interval is split at t0 and each
piece runs from t0 outward, so the accumulated phase, whose rounding 2/h
amplifies, is exactly zero at the stationary point.

The leading behaviour is f(t0) * omega_m * h^(1/(m+1)) with the universal
constant omega_m depending on the order m and the leading derivative
v = V^(m)(t0).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import QuadratureTolExceeded
from .msa import GRID_MAX_POINTS, MsaGrid, grid_size
from .quadrature import uniform_integral


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
    exponent; a reversed interval flips the sign of the value.  The value
    meets ``tol``: the pieces from t0 to the two ends each meet tol / 2, or
    QuadratureTolExceeded is raised once a grid would pass GRID_MAX_POINTS.
    """
    if not 0 < h < math.inf:
        raise ValueError("need 0 < h < inf")
    a, b = float(interval[0]), float(interval[1])
    # each piece accumulates the phase outward from c, the point of the
    # interval nearest t0, so the phase rounding that 2/h amplifies is
    # smallest where the integrand does not oscillate
    c = min(max(t0, min(a, b)), max(a, b))
    return (_integral_from(model, c, b, t0, h, amplitude, sign, 0.5 * tol)
            - _integral_from(model, c, a, t0, h, amplitude, sign, 0.5 * tol))


def _integral_from(model, c: float, end: float, t0: float, h: float, amplitude,
                   sign: int, tol: float) -> complex:
    """The integral from c to ``end`` on MSA grids running from c, doubled
    until the grid and its every other node agree to ``tol``."""
    if c == end:
        return 0j
    # the MSA grid at h resolves the doubled phase 2 Phi / h; built at h / 2,
    # its u^-+ are exp(+-2i Phi / h).  An odd count nests the half grid.
    n = grid_size(model, h, c, end) | 1
    while True:
        grid = MsaGrid.build(model, 0.5 * h, (c, end), t0, n)
        g = grid.u(-sign)
        if amplitude is not None:
            g = np.asarray(amplitude(grid.points)) * g
        fine = uniform_integral(g, grid.dx)
        coarse = uniform_integral(g[::2], 2.0 * grid.dx)
        if abs(fine - coarse) <= tol:
            return complex(fine)
        n = 2 * n - 1
        if n > GRID_MAX_POINTS:
            raise QuadratureTolExceeded(
                f"oscillatory integral from {c} to {end}: {len(g)} grid points "
                f"and every other node differ by {abs(fine - coarse):.3e} > tol {tol:.3e}")
