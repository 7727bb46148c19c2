"""Transfer of the state across stretches where the gap stays open.

With lam = sqrt(V^2 + eps^2) and theta = atan2(eps, V) / 2 the Hamiltonian
is H = lam R(theta) sigma_z R(theta)^T, R the rotation by theta.  In the
adiabatic frame psi = R(theta) diag(e^{-i Phi/h}, e^{+i Phi/h}) c, with
Phi(t) the integral of lam from a, the amplitudes obey

    c' = theta' [[0, e^{i s}], [-e^{-i s}, 0]] c,      s = 2 Phi / h,

so the only coupling left is theta' = -eps V' / (2 lam^2), against a phase
that turns at the rate 2 lam / h.  Across [a, b] the transfer is the pair

    R(theta_b) diag(e^{-+i Phi_ab/h}) (1 + delta, -conj(B)) R(theta_a)^T

(``su2`` pairs; Berry, Proc. R. Soc. A 429 (1990) 61; Jahnke & Lubich,
Numer. Math. 94 (2003) 289).  B, the integral of theta' e^{i s} over
[a, b], is the integration-by-parts series

    B = sum_{k <= K} i^(k+1) [r_k e^{i s}]_a^b,
    r_0 = -(h/2) theta' / lam,     r_(k+1) = (h/2) r_k' / lam,

from exact Taylor jets at a and b.  delta is the second-order Dyson term:
the first superadiabatic phase gamma = int h theta'^2 / (2 lam) plus the
boundary terms of its own integration by parts,

    delta = -i gamma - (i r_0(a) + r_1(a)) B - (r_0(b)^2 - r_0(a)^2) / 2.

None of it costs more as h shrinks.  With E_k = |r_k(a)| + |r_k(b)|,
S_k = sup |r_k| and TV_k the total variation of r_k on [a, b], the error of
the pair is at most

    (E_(K+1) + TV_(K+1)) (1 + S_0 + S_1)          truncated series, in B and delta
    + D = int |theta'(t)| (|r_2(t)| + |r_2(a)| + TV_[a,t] r_2) dt
                                                   rest of the second order
    + Theta U e^Theta                              third order and beyond

where Theta = TV(theta) and U = gamma + (E_0 + E_1) P_0 + (S_0^2 + E_0^2)/2
+ D, with P_0 = E_0 + S_0 + TV_0, bounds the second-order term anywhere on
[a, b] (one more integration by parts, then a Gronwall estimate).  K
minimises the first line.

``plan_windows`` places one magnus6 window around each crossing, outside of
which these pairs carry the state.  Sups, total variations and integrals in
the bound come from jets on a sample grid graded in the distance from the
crossing, whose points are the candidate window edges.  Each stretch between
windows is split at its midpoint, and each half takes the smallest window on
its side whose bound meets its share of tol.  The half-stretches are planned
together: each is a row of one array, padded by repeating its last sample,
and one pass bounds every candidate edge of every row.

The plan samples V once: one order-8 jet at every sample and at a few core
points across each crossing.  Phi and gamma come from the same jets as the
r_k: lam and h theta'^2 / (2 lam) = -theta' r_0 are integrated between
neighbouring samples by the two-point Hermite rule on their order-7 jets
(``quadrature.hermite_integrals``), whose error on a step d is at most
4.6e-6 M d (d / R)^16 when the integrand is analytic and bounded by M
within R of the step.  On the plan's samples that is below the rounding of
Phi, so the plan's bound does not carry it:
- near a crossing d <= (GRID_RATIO - 1) dist, dist the distance from it,
  and the nearest singularities, the turning points where V = +-i eps, lie
  within the innermost edge; at dist >= 2 innermost edges R >= dist / 2 and
  the error is at most 3e-17 M d.  The edges of order-3 crossings sit at
  least 2.85 innermost edges out from h = 1e-2 to 1e-8; at order 1 the
  turning points lie at +-i eps, so R >= dist;
- in the tails d <= 1 / tail_rate, where lam - lam_inf is led by
  e^(-tail_rate |t|), whose 16th Taylor coefficient is tail_rate^16 / 16!
  times itself: at most 2e-19 d |lam - lam_inf|;
- a clamp's logarithmic branch points lie pi / beta off its edges, where
  steps are 1 / beta: at most 3e-15 / beta^2 per step.
On every side of the tanh pair, the three-crossing tanh and windowed LZ at
h = 1e-2 ... 1e-5, Phi agrees with composite Gauss-Legendre on 8 times finer
panels to 4e-16 and gamma to 5e-15, relative.  The windows' step densities
(``propagator._magnus6_density``) take V and its derivatives from the same
jets: the samples from each chosen edge in to the crossing, and the core
points between.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .potential.catalog import CrossingCatalog
from .potential.families import _jet_deriv, _jet_mul, _jet_power
from .propagator import _density_samples_from_jets
from .quadrature import hermite_integrals
from .su2 import su2_mul

JET_ORDER = 8      # order of the V jets: series terms r_0 ... r_7
GRID_RATIO = 1.1   # distance ratio of successive candidate window edges
# largest spacing of the samples, in units of the tails' decay length
MAX_SPACING = 1.0
# a crossing's core points, in units of its innermost edge: spaced as the
# innermost samples are, (GRID_RATIO - 1) apart
CORE_GRID = np.linspace(-1.0, 1.0, round(2.0 / (GRID_RATIO - 1.0)) + 1)[1:-1]


@dataclass(frozen=True)
class WindowPlan:
    """magnus6 windows around the crossings and the adiabatic pairs between them.

    ``windows`` ascend in t; ``transfers[j]`` carries the state across the
    stretch that ends where window j starts, and the last one from the last
    window out to the truncation point.  ``samples[j]`` are the samples of
    window j's step density (``propagator._density_samples``), from the
    plan's jets.  ``bound`` sums the transfers' error bounds.
    """

    windows: tuple[tuple[float, float], ...]
    transfers: tuple[tuple[complex, complex], ...]
    samples: tuple[tuple, ...]
    bound: float


def _side_grid(scale: float, far: float, max_step: float) -> np.ndarray:
    """Distances from a crossing of one half-stretch's samples, from its far
    end in: ``far`` (the truncation point or the midpoint to the next
    crossing), then the candidate window edges, closing in on the crossing by
    GRID_RATIO down to ``scale``."""
    dist = [scale]
    while True:
        nxt = dist[-1] + min((GRID_RATIO - 1.0) * dist[-1], max_step)
        if nxt >= far:
            break
        dist.append(nxt)
    return np.array([far] + dist[::-1])


def _bounds(t: np.ndarray, r: np.ndarray, theta: np.ndarray, theta_p: np.ndarray,
            left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Error bound and series order K for every candidate edge (column 0 unused).

    The last axis runs over a half-stretch from its far end (column 0) to
    the edge, so every quantity is a running sum or maximum up to the edge.
    ``r`` holds r_0 ... r_7 on its first axis; ``left`` is true where the
    half-stretch lies left of its crossing.
    """
    absr = np.abs(r)
    dt = np.abs(np.diff(t))

    def running(x):
        return np.concatenate([np.zeros(x.shape[:-1] + (1,)), np.cumsum(x, axis=-1)], axis=-1)

    def integral(f):          # trapezoid rule from the far end
        return running(0.5 * (f[..., 1:] + f[..., :-1]) * dt)

    tv = running(np.abs(np.diff(r)))
    sup = np.maximum.accumulate(absr, axis=-1)
    ends = absr[..., :1] + absr
    w = np.abs(theta_p)
    theta_tv = running(np.abs(np.diff(theta)))
    series = ends[1:] + tv[1:]          # row K: remainder after the terms 0..K
    order = np.argmin(series, axis=0)
    series = np.take_along_axis(series, order[None], axis=0)[0]
    # int |theta'(t)| (|r_2(t)| + |r_2(a)| + TV_[a,t] r_2) dt, with a the
    # earlier end: the far end on the left of a crossing, the edge on its right
    w_r2, w_int, w_tv2 = integral(w * absr[2]), integral(w), integral(w * tv[2])
    second = np.where(left, w_r2 + w_int * absr[2, ..., :1] + w_tv2,
                      w_r2 + w_int * (absr[2] + tv[2]) - w_tv2)
    # the second-order term anywhere on the half-stretch: -i gamma(t) on
    # the diagonal, whose product with the coupling is oscillatory, and
    # a rest; they bound the third order and beyond
    gamma = integral(w * absr[0])
    rest = ((ends[0] + ends[1]) * (ends[0] + sup[0] + tv[0])
            + 0.5 * (sup[0]**2 + ends[0]**2) + second)
    bound = (series * (1.0 + sup[0] + sup[1]) + second
             + (gamma * (2.0 * sup[0] + tv[0]) + theta_tv * rest) * np.exp(theta_tv))
    return bound, order


def _transfer(samples: tuple, edge: int, order: int, sign: int, h: float):
    """SU(2) pair of the adiabatic transfer across a half-stretch, from its
    window edge ``edge`` out to its far end, with the series terms 0..``order``.

    ``samples`` are the half-stretch's t, r_k, theta and phases, from its far
    end in; ``sign`` is -1 left of the crossing and +1 right of it.
    """
    _, r, theta, phases = samples
    # in time order: a before b
    a, b = (edge, 0) if sign > 0 else (0, edge)
    # the samples run from the far end in: against time on the right
    phases = -sign * np.sum(phases[:edge])
    phi, gamma = phases.real, phases.imag
    turn = cmath.exp(2j * phi / h)
    big_b = sum(1j ** (k + 1) * (r[k, b] * turn - r[k, a]) for k in range(order + 1))
    delta = (-1j * (gamma + r[0, a] * big_b) - r[1, a] * big_b
             - 0.5 * (r[0, b] ** 2 - r[0, a] ** 2))
    coupled = (1.0 + delta, -np.conj(big_b))
    ca, sa = math.cos(theta[a]), math.sin(theta[a])
    cb, sb = math.cos(theta[b]), math.sin(theta[b])
    pair = su2_mul(*coupled, ca, -sa)
    pair = su2_mul(cmath.exp(-1j * phi / h), 0j, *pair)
    return su2_mul(cb, sb, *pair)


def _sample(t: np.ndarray, v: np.ndarray, eps: float, h: float):
    """r_0 ... r_(n-1), theta and theta' at the points t of the V jets ``v``
    (order n), and the integrals of lam + i h theta'^2 / (2 lam) between
    neighbouring points: Phi and the first superadiabatic phase gamma."""
    n = len(v) - 1
    lam2 = _jet_mul(v, v, n - 1)
    lam2[0] += eps * eps
    inv_lam = _jet_power(lam2, -0.5, n - 1)
    theta_p = (-0.5 * eps) * _jet_mul(_jet_deriv(v), _jet_power(lam2, -1.0, n - 1), n - 1)
    r = [(-0.5 * h) * _jet_mul(theta_p, inv_lam, n - 1)]
    for k in range(n - 1):
        r.append((0.5 * h) * _jet_mul(inv_lam, _jet_deriv(r[-1]), n - 2 - k))
    # lam = lam^2 / lam and h theta'^2 / (2 lam) = -theta' r_0
    rates = _jet_mul(lam2, inv_lam, n - 1) - 1j * _jet_mul(theta_p, r[0], n - 1)
    return (np.array([rk[0] for rk in r]), 0.5 * np.arctan2(eps, v[0]), theta_p[0],
            hermite_integrals(t, rates))


def _scale(crossing, eps: float, h: float) -> float:
    """The innermost candidate window edge, max((h / |v|)^(1/(m+1)), (eps / |v|)^(1/m))
    from a crossing of order m where V ~ v (t - t_k)^m: there h / (lam * distance)
    or eps / |V| reaches 1."""
    v = abs(crossing.v) / math.factorial(crossing.m)
    return max((h / v) ** (1.0 / (crossing.m + 1)), (eps / v) ** (1.0 / crossing.m))


def plan_windows(model, eps: float, h: float, catalog: CrossingCatalog,
                 truncation: float, tol: float) -> WindowPlan | None:
    """Windows and adiabatic transfers whose bounds sum to at most ``tol``.

    None when there is no crossing, or when the windows would merge or
    reach +/- truncation: the bound never meets tol outside of them.
    """
    n = catalog.n
    if n == 0:
        return None
    pos = catalog.positions[::-1]                   # ascending
    cross = catalog.crossings[::-1]
    max_step = MAX_SPACING / model.tail_rate
    # the half-stretches alternate left, right around each crossing,
    # ascending in t; each is sampled from its far end in
    grids, core = [], []
    for k in range(n):
        scale = _scale(cross[k], eps, h)
        far_left = pos[k] + truncation if k == 0 else 0.5 * (pos[k] - pos[k - 1])
        far_right = truncation - pos[k] if k == n - 1 else 0.5 * (pos[k + 1] - pos[k])
        if scale >= min(far_left, far_right):
            return None
        grids.append(pos[k] - _side_grid(scale, far_left, max_step))
        grids.append(pos[k] + _side_grid(scale, far_right, max_step))
        core.append(pos[k] + scale * CORE_GRID)
    # one jet call: the sides' samples, then each crossing's core points
    t = np.concatenate(grids + core)
    v = model.taylor(t, JET_ORDER)
    n_sides = len(t) - n * len(CORE_GRID)
    r, theta, theta_p, phases = _sample(t[:n_sides], v[:, :n_sides], eps, h)
    lengths = np.array([len(grid) for grid in grids])
    stops = np.cumsum(lengths)
    starts = stops - lengths
    # one row a side, padded by repeating its last sample: every running sum
    # and maximum of _bounds stays constant past the row's end
    rows = np.minimum(starts[:, None] + np.arange(lengths.max()), stops[:, None] - 1)
    sides = np.arange(2 * n)
    bound, order = _bounds(t[rows], r[:, rows], theta[rows], theta_p[rows],
                           (sides % 2 == 0)[:, None])
    ok = bound[:, 1:] <= tol / len(sides)
    if not ok[:, 0].all():
        return None
    # each side's innermost edge up to which every bound meets its share
    edges = np.where(ok.all(axis=1), lengths - 1, np.argmin(ok, axis=1))
    halves = [_transfer((t[a:b], r[:, a:b], theta[a:b], phases[a:b - 1]),
                        int(edge), int(order[side, edge]), 1 if side % 2 else -1, h)
              for side, a, b, edge in zip(sides, starts, stops, edges)]
    transfers = [halves[0]]
    for k in range(1, n):
        transfers.append(su2_mul(*halves[2 * k], *halves[2 * k - 1]))
    transfers.append(halves[-1])
    at = starts + edges                             # the window edges' indices in t
    windows = tuple(zip(t[at[::2]].tolist(), t[at[1::2]].tolist()))
    # the samples of each window's step density, as _density_samples gives
    # them: V's jets at the plan's points from each chosen edge in to the
    # crossing, and at the core points between
    samples = []
    for k in range(n):
        ix = np.concatenate([np.arange(at[2 * k], stops[2 * k]),
                             n_sides + k * len(CORE_GRID) + np.arange(len(CORE_GRID)),
                             np.arange(stops[2 * k + 1] - 1, at[2 * k + 1] - 1, -1)])
        samples.append(_density_samples_from_jets(t[ix], v[:, ix]))
    return WindowPlan(windows=windows, transfers=tuple(transfers), samples=tuple(samples),
                      bound=sum(bound[sides, edges].tolist()))
