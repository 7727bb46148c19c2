"""Complex turning points and their action integrals.

Near a real zero t_k of order m the function V(t)**2 + eps**2 has 2m complex
zeros arranged like scaled roots of -1.  The two closest to the real axis in
the upper half-plane control the exponential suppression of transitions in
the adiabatic regime through the imaginary part of the action

    A = 2 * integral_{t_k}^{zeta} sqrt(V**2 + eps**2) dt

taken along the straight segment with the square root branch equal to +eps at
t_k.  Im A scales like a * eps**((m+1)/m); the coefficient a is extracted by
Richardson extrapolation over two eps values.

The roots depend on eps, so unlike the catalog's gaps and tail actions they
are found on every call.  What depends on the crossing alone, the Taylor
jets of V and V' at t_k to JET_ORDER, is kept on the catalog under
("crossing", k), computed on first use.  Each root starts from its
leading-order seed, the root of v (t - t_k)^m / m! = +-i eps on branch j,
and takes JET_STEPS Newton steps on the jet polynomial towards V = +-i eps.
A refined seed is kept only where it stays in its branch's sector,
|arg(zeta - t_k) - pi (2j-1)/(2m)| < pi/(2m), lowers the polynomial's
residual, and lies where the jet has converged (its last two terms below
eps); elsewhere, as at eps beyond the jet's disc of convergence, the
leading seed stands.  Damped Newton on V^2 + eps^2 itself then finishes every
root, and the far-from-the-crossing check still measures from the leading
seed.  ``turning_point_sets`` solves the branches j = 1 and m at eps and at
eps/2 of all the crossings it is given in that one vectorized solve, and
takes their actions from one evaluation of V on the stacked quadrature
segments; ``turning_points`` is its one-crossing case.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import BranchAmbiguity, NewtonDiverged, TurningPointFailure
from ..quadrature import gauss_legendre
from .catalog import CrossingCatalog
from .families import PotentialModel

NEWTON_MAX_ITER = 60
NEWTON_TOL = 1e-12
EPS_MACHINE = float(np.finfo(float).eps)
ROUNDING_ULPS = 4.0
ACTION_NODES = 48      # Gauss-Legendre nodes along each action path
JET_ORDER = 48         # Taylor order of the crossing jets that refine the seeds
JET_STEPS = 4          # Newton steps on the jet polynomial from each seed


@dataclass(frozen=True)
class TurningPoint:
    """A root zeta of V^2 + eps^2 in the upper half-plane, by its action."""

    action: complex      # A = 2 int_{t_k}^{zeta} sqrt(V^2+eps^2)
    decay_coeff: float   # a with Im A ~ a * eps^((m+1)/m)


@dataclass(frozen=True)
class TurningPointSet:
    k: int
    m: int
    eps: float
    first: TurningPoint   # branch index j = 1
    last: TurningPoint    # branch index j = m (same point when m = 1)

    @property
    def a_min(self) -> float:
        return min(self.first.decay_coeff, self.last.decay_coeff)


def _seed(t_k: float, m: int, v: float, eps: float, j: int) -> complex:
    # V^2 + eps^2 depends on |v| only; seeding with |v| targets the pair of
    # roots nearest the real axis for either sign of the leading coefficient.
    radius = (math.factorial(m) * eps / abs(v)) ** (1.0 / m)
    return t_k + radius * cmath.exp(1j * math.pi * (2 * j - 1) / (2 * m))


def _crossing_jet(model: PotentialModel, catalog: CrossingCatalog, k: int) -> np.ndarray:
    """The Taylor coefficients of V (row 0) and V' (row 1) at crossing k to
    JET_ORDER, kept on the catalog under ("crossing", k)."""
    def compute():
        c = model.taylor(catalog.crossings[k].t, JET_ORDER + 1)
        return np.stack([c[:-1], c[1:] * np.arange(1, JET_ORDER + 2)])
    return catalog.kept(("crossing", k), compute)


def _jet_seeds(jets: np.ndarray, t: np.ndarray, lead: np.ndarray, target: np.ndarray,
               half: np.ndarray) -> np.ndarray:
    """The leading seeds ``lead`` refined by Newton on the jet polynomial.

    Seed i solves V = target[i], which is +-i eps, near its crossing t[i],
    where ``jets[i]`` holds the jets of V and V'.  A refined seed gives way
    to its leading seed where it leaves its branch's sector, within half[i]
    of the leading seed's direction, where it does not lower the
    polynomial's residual, or where the jet has not converged: where its
    last two terms add up to eps or more, the size of V at the root.
    """
    powers = np.arange(JET_ORDER + 1)

    def residual(tau):
        tau_k = tau[:, None] ** powers
        v, dv = np.einsum("ikj,ij->ki", jets, tau_k)
        return v - target, dv, tau_k

    start = lead - t
    r0, dv, tau_k = residual(start)
    tau, r = start, r0
    with np.errstate(all="ignore"):   # a step may overflow; the checks drop it
        for _ in range(JET_STEPS):
            tau = tau - r / dv
            r, dv, tau_k = residual(tau)
        keep = ((np.abs(np.angle(tau / start)) < half) & (np.abs(r) < np.abs(r0))
                & (np.abs(jets[:, 0, -2:] * tau_k[:, -2:]).sum(axis=1) < np.abs(target)))
    return np.where(keep, t + tau, lead)


def _newton_roots(model: PotentialModel, seeds: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Damped Newton on V^2 + eps^2 from every seed at once.

    Each root stops once |F| <= NEWTON_TOL eps^2; until then it takes the
    Newton step, halved while its residual grows.  V at the accepted point
    serves the next step.  Away from the origin that tolerance can lie below
    the rounding level of F: moving z by one rounding unit changes F by about
    |F'(z) z| eps_machine.  A root whose step stalls with |F| at most
    ROUNDING_ULPS times that level is accepted where it stands; the halving
    stops as soon as the step no longer moves z.
    """
    z = seeds.copy()
    e2 = eps * eps
    tol = NEWTON_TOL * np.maximum(e2, 1e-300)
    floor = np.zeros_like(tol)          # rounding level of F at the last step
    v = model.eval(z)
    f = v * v + e2
    for _ in range(NEWTON_MAX_ITER):
        idx = np.flatnonzero(~(np.abs(f) <= tol))    # a NaN residual is not converged
        if not idx.size:
            return z
        df = 2.0 * v[idx] * model.deriv(z[idx])
        if np.any(df == 0):
            raise NewtonDiverged(f"stationary Newton step at z={z[idx][df == 0][0]}")
        floor[idx] = ROUNDING_ULPS * EPS_MACHINE * np.abs(df * z[idx])
        step = f[idx] / df
        stalled = []
        for _ in range(50):
            z_new = z[idx] - step
            v_new = model.eval(z_new)
            f_new = v_new * v_new + e2[idx]
            ok = (np.abs(f_new) < np.abs(f[idx])) | (np.abs(f_new) <= tol[idx])
            z[idx[ok]], v[idx[ok]], f[idx[ok]] = z_new[ok], v_new[ok], f_new[ok]
            idx, step, z_new = idx[~ok], 0.5 * step[~ok], z_new[~ok]
            # a step that leaves z bitwise unchanged does so at every further
            # halving, with the same F: the root has stalled already
            moved = z_new != z[idx]
            if not moved.all():
                stalled.append(idx[~moved])
                idx, step = idx[moved], step[moved]
            if not idx.size:
                break
        idx = np.concatenate([idx, *stalled])
        if idx.size:
            noise = np.abs(f[idx]) <= floor[idx]
            if not noise.all():
                raise NewtonDiverged(
                    f"residual stalled at |F|={np.abs(f[idx[~noise]]).max():.3e}")
            tol[idx] = floor[idx]
    if np.any(~(np.abs(f) <= np.maximum(10.0 * tol, floor))):
        raise NewtonDiverged(f"no convergence after {NEWTON_MAX_ITER} iterations, "
                             f"|F|={np.abs(f).max():.3e}")
    return z


@lru_cache(maxsize=1)
def _action_rule():
    """Path parameters s in walking order, from t_k (s = 0) to the turning
    point, and their weights: Gauss-Legendre in u on (0, 1) with s = 1 - u^2.

    Made on first use: the nodes come from an eigenvalue solve, whose
    buffers would otherwise stay in every process that imports the module.
    """
    x, w = gauss_legendre(ACTION_NODES)
    u = 0.5 * (x + 1.0)
    return (1.0 - u * u)[::-1], (w * u)[::-1]


def _actions(model: PotentialModel, t_k: np.ndarray, zeta: np.ndarray, eps: np.ndarray):
    """2 * integral along each straight segment from t_k[i] to zeta[i], branch
    +eps at t_k[i].

    The substitution s = 1 - u^2 removes the square-root endpoint singularity
    at the turning point.  Walking from t_k, each node takes the square root
    nearer to the value at the node before, starting from +eps.
    """
    s, weights = _action_rule()
    t_k = t_k[:, None]
    span = zeta[:, None] - t_k
    g = np.sqrt(model.eval(t_k + s * span) ** 2 + (eps * eps)[:, None])
    prev = np.concatenate([eps[:, None], g[:, :-1]], axis=1)
    # -g is nearer to prev than g where Re(g conj(prev)) < 0
    flips = np.logical_xor.accumulate((g * prev.conj()).real < 0, axis=1)
    np.negative(g, out=g, where=flips)
    if (np.abs(g) < 1e-13 * eps[:, None]).any():
        raise BranchAmbiguity("integrand vanishes inside the action path")
    return 2.0 * np.einsum("ij,j->i", g, weights) * span[:, 0]


def _roots_and_actions(model: PotentialModel, catalog: CrossingCatalog, ks, eps: float):
    """Turning points and their actions at the crossings ``ks`` in one batch.

    Each crossing gives its branches j = 1 and m (1 alone when m = 1), each
    at eps and at eps/2, in that order.
    """
    rows = []
    for i, k in enumerate(ks):
        c = catalog.crossings[k]
        for j in ((1, c.m) if c.m > 1 else (1,)):
            for e in (eps, eps / 2.0):
                seed = _seed(c.t, c.m, c.v, e, j)
                # the seed solves v (t - t_k)^m / m! = i^(2j - 1) sign(v) eps
                rows.append((i, c.t, e, seed, 1j * (-1) ** (j - 1) * math.copysign(e, c.v),
                             0.5 * math.pi / c.m, 10.0 * abs(seed - c.t) + 1e-12))
    which, t, eps, lead, target, half, near = (np.array(col) for col in zip(*rows))
    jets = np.array([_crossing_jet(model, catalog, k) for k in ks])[which]
    zeta = _newton_roots(model, _jet_seeds(jets, t, lead, target, half), eps)
    zeta = np.where(zeta.imag < 0, zeta.conjugate(), zeta)
    far = np.abs(zeta - t) > near
    if far.any():
        i = np.argmax(far)
        raise TurningPointFailure(
            f"Newton converged far from the crossing: zeta={zeta[i]}, t_k={t[i]}")
    actions = _actions(model, t, zeta, eps)
    if (actions.imag <= 0).any():
        i = np.argmax(actions.imag <= 0)
        raise TurningPointFailure(f"Im A = {actions[i].imag:.3e} <= 0 at eps={eps[i]}")
    return zeta, actions


def turning_point_sets(model: PotentialModel, catalog: CrossingCatalog, ks,
                       eps: float) -> dict[int, TurningPointSet]:
    """Nearest upper-half-plane turning points and actions of every crossing
    k in ``ks``, by k, from one batch.

    Decay coefficients come from Richardson extrapolation of
    Im A / eps^((m+1)/m) over eps and eps/2; TurningPointFailure is raised
    when the fitted exponent of Im A at a crossing is far from (m+1)/m.
    """
    _, actions = _roots_and_actions(model, catalog, ks, eps)
    actions = iter(actions.tolist())
    sets = {}
    for k in ks:
        m = catalog.crossings[k].m
        exponent = (m + 1.0) / m
        q = 2.0 ** (-1.0 / m)
        points = []
        im_ratio = []
        for _ in range(2 if m > 1 else 1):
            action, action_half = next(actions), next(actions)
            a_eps = action.imag / eps ** exponent
            a_half = action_half.imag / (eps / 2.0) ** exponent
            a_extrap = (a_half - q * a_eps) / (1.0 - q)
            fitted = math.log(action.imag / action_half.imag) / math.log(2.0)
            points.append(TurningPoint(action, a_extrap))
            im_ratio.append(fitted)

        scaling = sum(im_ratio) / len(im_ratio)
        if abs(scaling - exponent) > 0.25 * exponent:
            raise TurningPointFailure(
                f"Im A scaling exponent {scaling:.3f} far from {(m+1)/m:.3f}; "
                "eps may be too large for the asymptotic regime")
        sets[k] = TurningPointSet(k=k, m=m, eps=eps, first=points[0], last=points[-1])
    return sets


def turning_points(model: PotentialModel, catalog: CrossingCatalog, k: int,
                   eps: float) -> TurningPointSet:
    """Nearest upper-half-plane turning points and actions for crossing k:
    the one-crossing case of ``turning_point_sets``."""
    return turning_point_sets(model, catalog, (k,), eps)[k]
