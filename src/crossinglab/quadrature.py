"""Quadrature primitives shared across the package.

Each job has one rule:

* composite Gauss-Legendre rules on panels for integrands without a fast
  phase (action integrals) and for the Jost tails' reference panels, whose
  linear phase a fixed panel width resolves;
* a two-point Hermite rule for integrands whose Taylor jets are already at
  hand at the points (the adiabatic phases between the window plan's
  samples): ``hermite_integrals``;
* a sixth-order cumulative rule for samples on a uniform grid: the
  successive-approximation operators, their grid phase, and every
  oscillatory integral on a grid (``oscillatory.osc_integral`` runs on the
  same grids).  Its step is folded into the weights, so a constant factor
  of the integral, complex or not, costs no pass of its own.  The rule has
  one implementation, a running form: ``RunningCumulative`` takes samples
  in pieces, each after a halo of the five samples before it, and keeps
  only a count and the running total between them, so a pass over a grid
  can be streamed a block at a time (the MSA connection, the grid phase,
  ``uniform_integral``); ``cumulative_uniform`` runs it over a whole array
  as one piece, and every way of feeding it gives the same bits;
* an adaptive mesh for the propagator: ``cumulative_density`` integrates a
  sampled step density once, ``mesh_steps`` gives the steps of a mesh at any
  boost without building it, and ``adaptive_mesh`` inverts the density for
  a mesh of given steps.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureTolExceeded

PANEL_ORDER = 16       # Gauss-Legendre nodes per panel of integrate_panels
PANEL_RTOL = 1e-13     # accepted error estimate of integrate_panels, relative
PANEL_ATOL = 1e-15     # and absolute


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def cumulative_density(t: np.ndarray, rho: np.ndarray) -> tuple:
    """A step density (steps per unit length) sampled at ascending points t.

    Returns t, the running integral of the density at them (trapezoid rule
    from t[0]) and the density, floored at one step over [t[0], t[-1]].
    """
    rho = np.maximum(np.asarray(rho, dtype=float), 1.0 / (t[-1] - t[0]))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(t))])
    return t, cum, rho


def mesh_steps(sampled, boost: float) -> int:
    """Steps of the mesh with local step 1 / (boost * density(t))."""
    return max(1, int(np.ceil(boost * sampled[1][-1])))


_MESH_BLOCK = 1 << 16


def adaptive_mesh(sampled, count: int) -> np.ndarray:
    """Mesh of ``count`` steps, each holding an equal share of the density.

    ``sampled`` comes from ``cumulative_density``; one sampled density serves
    meshes of any size (``mesh_steps`` gives the size at a boost).
    Breakpoints invert the running integral of the density taken linear
    between the samples, a quadratic on each sample interval, so the step
    size varies continuously: a step size that jumps at every sample leaves
    errors that alias with the boost and spoil the propagator's Richardson
    estimate.
    """
    t, cum, rho = sampled
    half = 0.5 * rho
    mesh = np.linspace(0.0, cum[-1], count + 1)
    # the index of the first level at or past each sample, the last interval
    # taking the end point; a level that rounding puts in the neighbouring
    # interval lands at the same point
    first = np.ceil(cum * (count / cum[-1])).astype(np.intp)
    first[-1] = count + 1
    # levels become points in place, a block at a time, so that the
    # temporaries stay small next to the mesh
    for start in range(0, count + 1, _MESH_BLOCK):
        level = mesh[start:start + _MESH_BLOCK]
        counts = np.diff(np.clip(first, start, start + len(level)))
        # rho^2 is linear in the level on a sample interval (d rho^2 / d level
        # = 2 rho'), so the density at the point is an interpolation, and the
        # point on interval j is t[j] + (level - cum[j]) / mean, with mean the
        # average of the density at t[j] and at the point
        mean = np.sqrt(np.interp(level, cum, half * half))
        mean += np.repeat(half[:-1], counts)
        level -= np.repeat(cum[:-1], counts)
        level /= mean
        level += np.repeat(t[:-1], counts)
    mesh[0], mesh[-1] = t[0], t[-1]
    return mesh


def integrate_smooth(fn, a: float, b: float, max_panel: float = 0.125) -> float:
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
    return sign * integrate_panels(fn, np.linspace(a, b, n_panels + 1))


def integrate_panels(fn, edges: np.ndarray) -> float:
    """Composite Gauss-Legendre integral over the panels between ascending edges.

    A complex-valued ``fn`` gives a complex integral.  Compares PANEL_ORDER
    nodes against half as many on the same panels as an error estimate; raises
    QuadratureTolExceeded when it exceeds PANEL_ATOL + PANEL_RTOL max(1, |I|).
    """
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)

    def composite(n):
        x, w = gauss_legendre(n)
        pts = mid[:, None] + half[:, None] * x[None, :]
        vals = fn(pts.ravel()).reshape(pts.shape)
        return np.sum(vals @ w * half).item()

    hi = composite(PANEL_ORDER)
    lo = composite(PANEL_ORDER // 2)
    err = abs(hi - lo)
    if err > PANEL_ATOL + PANEL_RTOL * max(1.0, abs(hi)):
        raise QuadratureTolExceeded(
            f"smooth quadrature error estimate {err:.3e} over [{edges[0]}, {edges[-1]}]")
    return hi


def hermite_integrals(t: np.ndarray, jets: np.ndarray) -> np.ndarray:
    """Integrals of f between neighbouring points, from its Taylor jets there.

    ``jets[k, j]`` is the k-th Taylor coefficient c_k of f at ``t[j]``, k = 0
    ... m; ``t`` may run either way.  Entry j is the integral from t[j] to
    t[j+1] of the degree-(2m + 1) Hermite interpolant of the jets at both
    ends (Obreshkov's rule),

        sum_k w_k d^(k+1) (c_k(t[j]) + (-1)^k c_k(t[j+1])),   d = t[j+1] - t[j],

    with w_k = C(m, k) / (2 (k + 1) C(2m + 1, k)).  Its error is exactly
    (m+1)!^2 / (2m+3)! d^(2m+3) c_(2m+2)(xi) for some xi between the points;
    when f is analytic and bounded by M within distance R of the interval,
    Cauchy's estimate |c_(2m+2)| <= M / R^(2m+2) bounds it by

        (m+1)!^2 / (2m+3)! M |d| (|d| / R)^(2m+2),

    at m = 7 (jets of order 7, degree 15): 4.6e-6 M |d| (|d| / R)^16.
    """
    m = len(jets) - 1
    d = np.diff(t)
    signs = (-1.0) ** np.arange(m + 1)[:, None]
    ends = jets[:, :-1] + signs * jets[:, 1:]
    # Horner in d: d (w_0 e_0 + d (w_1 e_1 + ... ))
    w = [math.comb(m, k) / (2.0 * (k + 1) * math.comb(2 * m + 1, k)) for k in range(m + 1)]
    total = w[m] * ends[m]
    for k in range(m - 1, -1, -1):
        total = total * d + w[k] * ends[k]
    return total * d


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

# samples per pass of the interior rule and per piece of a stream.  The MSA
# connection's pass holds three blocks of complex samples (0.3 MB); larger
# blocks cost fewer numpy calls per sample
_CUMULATIVE_BLOCK = 3 << 11


def _interior(g: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """The centred rule: out[j] integrates over the interval from g[j + 2] to
    g[j + 3], from the six samples g[j] ... g[j + 5], for j < len(g) - 5.

    Accumulated as w0 (g0 + g5) + w1 (g1 + g4) + w2 (g2 + g3), block by
    block, so that every sample rounds alike wherever a piece or a block
    begins.  numpy rounds an in-place complex product on a one-element array
    apart from the same product in a longer one, so that one is made out of
    place.
    """
    m = len(g) - 5
    pair = np.empty(min(m, _CUMULATIVE_BLOCK), dtype=out.dtype)
    for lo in range(0, m, _CUMULATIVE_BLOCK):
        hi = min(lo + _CUMULATIVE_BLOCK, m)
        block, p = out[lo:hi], pair[:hi - lo]
        np.add(g[lo:hi], g[lo + 5:hi + 5], out=p)
        np.multiply(p, w[2, 0], out=block)
        for k in (1, 2):
            np.add(g[lo + k:hi + k], g[lo + 5 - k:hi + 5 - k], out=p)
            if hi - lo > 1:
                p *= w[2, k]
            else:
                p[:] = p * w[2, k]
            block += p


class RunningCumulative:
    """The cumulative rule of ``cumulative_uniform`` over samples that arrive
    in pieces, from node 0.

    The interval from node i to i + 1 needs the samples from node i - 2 to
    i + 3, and the last two intervals use the rule's end rows, so a piece
    completes the intervals up to three nodes short of its end, and the last
    piece (``last``) the rest.  Pieces overlap: each one after the first
    begins with a halo, the last five samples of the pieces before (all of
    them while there are fewer), which it reads again and does not count.
    Between pieces the run keeps only the number of samples it has taken and
    ``total``, the integral at the last node it gave, so a pass over a whole
    grid holds nothing grid-sized.  Fed any way, the results are
    ``cumulative_uniform``'s, bit for bit.
    """

    HALO = 5

    def __init__(self, dx: float | complex):
        self.w = _CUMULATIVE_WEIGHTS * dx
        self.seen = 0      # samples taken, halos not counted
        self.total = None  # the integral at the last node given

    def halo(self) -> int:
        """Length of the halo that the next piece begins with."""
        return min(self.seen, self.HALO)

    def increments(self, window: np.ndarray, out: np.ndarray, last: bool = False) -> int:
        """Take the next piece, its halo first; write the integrals over the
        intervals it completes, in order, to ``out`` (which must not overlap
        ``window``) and return how many.  After the ``last`` piece every
        interval is done; a run of fewer than six samples raises ValueError."""
        g = np.asarray(window)
        before = self.seen
        halo = min(before, self.HALO)
        self.seen += len(g) - halo
        w, k = self.w, 0
        if before < 6 <= self.seen:
            # g begins at node 0: before the start its halo is every sample
            out[:2] = w[:2] @ g[:6]
            k = 2
        # intervals first ... seen - 4; interval i reads from node i - 2, and
        # g begins at node before - halo
        first = max(2, before - 3)
        if self.seen - 3 > first:
            _interior(g[first - 2 - before + halo:], w, out[k:])
            k += self.seen - 3 - first
        if last:
            if self.seen < 6:
                raise ValueError("the cumulative rule needs at least 6 samples")
            out[k:k + 2] = w[3:] @ g[-6:]
            k += 2
        return k

    def integral(self, window: np.ndarray, out: np.ndarray, last: bool = False) -> int:
        """Take the next piece, its halo first; write the integral from node 0
        at the nodes it completes, node 0 (exactly 0) first, to ``out`` and
        return how many.  ``total`` becomes the value at the last of them."""
        lead = int(self.seen < 6 <= self.seen + len(window) - self.halo())
        k = self.increments(window, out[lead:], last)
        if k:
            inc = out[lead:lead + k]
            if lead:
                out[0] = 0.0
            else:
                inc[0] += self.total
            inc.cumsum(out=inc)
            self.total = inc[-1]
        return lead + k


def accumulate_from(out: np.ndarray, origin: int) -> np.ndarray:
    """Sum the increments in ``out[1:]`` (out[j + 1] over the interval from
    node j to j + 1) in place into the integral from node ``origin``, which
    becomes exactly 0.  The sums run outward from the origin."""
    if origin > 0:
        # the intervals below the origin move down one node (a forward copy,
        # which needs no temporary) and are summed from it down to node 0
        out[:origin] = out[1:origin + 1]
        below = out[origin - 1::-1]
        np.cumsum(below, out=below)
        np.negative(out[:origin], out=out[:origin])
    out[origin] = 0.0
    inc = out[origin + 1:]
    np.cumsum(inc, out=inc)
    return out


def cumulative_uniform(values: np.ndarray, dx: float | complex) -> np.ndarray:
    """Cumulative integral of samples on a uniform grid with step ``dx``.

    Returns F with F[0] = 0 and F[j] = integral from node 0 to node j of the
    degree-5 interpolant through the six nodes nearest each interval (the
    first or last six at the ends): exact on polynomials of degree <= 5,
    sixth order on smooth data.  (``accumulate_from`` sums the rule's
    increments from another node.)

    The step is folded into the weights, so no pass scales the result.  It
    may be complex: a step c dx gives c times the integral at step dx, to
    rounding, and a complex result.  Besides F no array larger than
    ``_CUMULATIVE_BLOCK`` samples is made.  The rule runs as one piece of a
    ``RunningCumulative``.
    """
    g = np.asarray(values)
    n = g.shape[0]
    if n < 6:
        raise ValueError("cumulative_uniform needs at least 6 samples")
    out = np.empty(n, dtype=np.result_type(g, float, dx))
    RunningCumulative(dx).increments(g, out[1:], last=True)
    return accumulate_from(out, 0)


def uniform_integral(values: np.ndarray, dx: float | complex) -> complex:
    """``cumulative_uniform(values, dx)[-1]``, bit for bit, from a run over
    pieces of ``_CUMULATIVE_BLOCK`` samples: nothing grid-sized is made."""
    g = np.asarray(values)
    run = RunningCumulative(dx)
    buf = np.empty(_CUMULATIVE_BLOCK + 3, dtype=np.result_type(g, float, dx))
    for lo in range(0, max(len(g), 1), _CUMULATIVE_BLOCK):
        run.integral(g[lo - run.halo():lo + _CUMULATIVE_BLOCK], buf,
                     last=lo + _CUMULATIVE_BLOCK >= len(g))
    return run.total
