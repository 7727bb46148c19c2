"""Quadrature primitives shared across the package.

Two families of rules live here:

* composite Gauss-Legendre rules on panels, for smooth integrands (action
  integrals) and, on panels short enough that the phase advances by only a
  fraction of a radian, for oscillatory ones; the antiderivative matrix of
  the same nodes gives the running integral inside each panel;
* a sixth-order cumulative rule for samples on a uniform grid, used by the
  successive-approximation operators and their grid phase.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureTolExceeded

# samples of the density per anchor-to-anchor stretch of an adaptive mesh
_MESH_SAMPLES = 4097


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=8)
def gauss_legendre_antiderivative(n: int) -> np.ndarray:
    """Matrix S with (S @ f)[j] = integral from -1 to x_j of the interpolant
    of f at the n Gauss-Legendre nodes x."""
    leg = np.polynomial.legendre
    x, _ = gauss_legendre(n)
    coeffs = np.linalg.inv(leg.legvander(x, n - 1))   # values -> Legendre coefficients
    return leg.legvander(x, n) @ leg.legint(coeffs, lbnd=-1.0, axis=0)


def sample_density(density, a: float, b: float, forced=(),
                   samples: int = _MESH_SAMPLES) -> tuple:
    """Sample a vectorized density (panels per unit length) on a < b.

    Returns, per anchor-to-anchor stretch, the sample points and the running
    integral of the density at them (trapezoid rule from the stretch's
    start).  ``forced`` points inside (a, b) become stretch ends, so meshes
    built from the samples hold them exactly; each stretch takes ``samples``
    points.  The density is floored at one panel per stretch.
    """
    anchors = sorted({float(a), float(b), *[float(t) for t in forced if a < t < b]})
    stretches = []
    for lo, hi in zip(anchors[:-1], anchors[1:]):
        t = np.linspace(lo, hi, samples)
        rho = np.maximum(np.asarray(density(t), dtype=float), 1.0 / (hi - lo))
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(t))])
        stretches.append((t, cum))
    return tuple(stretches)


def adaptive_mesh(stretches, boost: float = 1.0, max_points: int | None = None) -> np.ndarray:
    """Panel breakpoints with local size ~ 1 / (boost * density(t)).

    ``stretches`` comes from ``sample_density``.  Breakpoints are placed by
    inverting the sampled cumulative density, so the mesh adapts smoothly,
    and one sampling serves meshes at any boost.  ``max_points`` raises
    before any large allocation happens.
    """
    counts = [max(1, int(np.ceil(boost * cum[-1]))) for _, cum in stretches]
    if max_points is not None and sum(counts) > max_points:
        raise QuadratureTolExceeded(f"adaptive mesh needs more than {max_points} panels")
    pieces = []
    for (t, cum), count in zip(stretches, counts):
        brk = np.interp(np.linspace(0.0, cum[-1], count + 1), cum, t)
        brk[0], brk[-1] = t[0], t[-1]
        pieces.append(brk[:-1])
    pieces.append(stretches[-1][0][-1:])
    return np.concatenate(pieces)


def integrate_smooth(fn, a: float, b: float, max_panel: float = 0.125,
                     order: int = 16, rtol: float = 1e-13,
                     atol: float = 1e-15) -> float:
    """Composite Gauss-Legendre integral of a smooth vectorized function.

    Equal panels no longer than ``max_panel``; see ``integrate_panels``.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    n_panels = max(1, int(np.ceil((b - a) / max_panel)))
    return sign * integrate_panels(fn, np.linspace(a, b, n_panels + 1), order, rtol, atol)


def integrate_panels(fn, edges: np.ndarray, order: int = 16, rtol: float = 1e-13,
                     atol: float = 1e-15) -> float:
    """Composite Gauss-Legendre integral over the panels between ascending edges.

    A complex-valued ``fn`` gives a complex integral.  Compares the requested
    order against order//2 on the same panels as an error estimate; raises
    QuadratureTolExceeded when it is not met.
    """
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)

    def composite(n):
        x, w = gauss_legendre(n)
        pts = mid[:, None] + half[:, None] * x[None, :]
        vals = fn(pts.ravel()).reshape(pts.shape)
        return np.sum(vals @ w * half).item()

    hi = composite(order)
    lo = composite(max(4, order // 2))
    err = abs(hi - lo)
    if err > atol + rtol * max(1.0, abs(hi)):
        raise QuadratureTolExceeded(
            f"smooth quadrature error estimate {err:.3e} over [{edges[0]}, {edges[-1]}]")
    return hi


# Row k integrates, over [k, k+1], the degree-5 Lagrange interpolant through
# the nodes 0..5, in units of the grid step.  Row 2 is the centred interior
# rule; rows 0, 1 and 3, 4 serve the two intervals at each end.
_CUMULATIVE_WEIGHTS = np.array([
    [475, 1427, -798, 482, -173, 27],
    [-27, 637, 1022, -258, 77, -11],
    [11, -93, 802, 802, -93, 11],
    [-11, 77, -258, 1022, 637, -27],
    [27, -173, 482, -798, 1427, 475],
]) / 1440.0


def cumulative_uniform(values: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative integral of samples on a uniform grid with step ``dx``.

    Returns F with F[0] = 0 and F[j] = integral from the first node to node j
    of the degree-5 interpolant through the six nodes nearest each interval
    (the first or last six at the ends): exact on polynomials of degree <= 5,
    sixth order on smooth data.  ``out``, when given, receives F in place; it
    must not overlap ``values``.  Either way the result is the same, bit for
    bit.
    """
    g = np.asarray(values)
    n = g.shape[0]
    if n < 6:
        raise ValueError("cumulative_uniform needs at least 6 samples")
    if out is None:
        out = np.empty(n, dtype=np.result_type(g, float))
    w = _CUMULATIVE_WEIGHTS
    inc = out[1:]
    # interval i = 2..n-4 uses nodes i-2..i+3 with the symmetric interior row,
    # accumulated as w0 (g0 + g5) + w1 (g1 + g4) + w2 (g2 + g3)
    interior = inc[2:n - 3]
    pair = np.empty_like(interior)
    np.add(g[0:n - 5], g[5:n], out=interior)
    interior *= w[2, 0]
    for k in (1, 2):
        np.add(g[k:n - 5 + k], g[5 - k:n - k], out=pair)
        pair *= w[2, k]
        interior += pair
    inc[:2] = w[:2] @ g[:6]
    inc[n - 3:] = w[3:] @ g[n - 6:]
    inc *= dx
    out[0] = 0.0
    np.cumsum(inc, out=inc)
    return out

