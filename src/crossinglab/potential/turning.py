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
are found on every call: the branches j = 1 and m at eps and at eps/2 in one
vectorized damped Newton solve, and their actions from one evaluation of V on
the stacked quadrature segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    return t_k + radius * np.exp(1j * math.pi * (2 * j - 1) / (2 * m))


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


def _actions(model: PotentialModel, t_k: float, zeta: np.ndarray, eps: np.ndarray):
    """2 * integral along each straight segment, branch +eps at t_k.

    The substitution s = 1 - u^2 removes the square-root endpoint singularity
    at the turning point.  Walking from t_k, each node takes the square root
    nearer to the value at the node before, starting from +eps.
    """
    x, w = gauss_legendre(ACTION_NODES)
    u = 0.5 * (x + 1.0)          # nodes on (0,1)
    wu = 0.5 * w
    s = 1.0 - u[::-1] ** 2       # path parameter in walking order, from 0 to 1
    z = t_k + s * (zeta - t_k)[:, None]
    g = np.sqrt(model.eval(z) ** 2 + (eps * eps)[:, None])
    prev = np.concatenate([eps[:, None], g[:, :-1]], axis=1)
    flips = np.cumsum(np.abs(g - prev) > np.abs(g + prev), axis=1) % 2 == 1
    g = np.where(flips, -g, g)
    if np.any(np.abs(g) < 1e-13 * eps[:, None]):
        raise BranchAmbiguity("integrand vanishes inside the action path")
    # integrate in u, nodes back in ascending order
    integral = np.sum(wu * g[:, ::-1] * 2.0 * u, axis=1) * (zeta - t_k)
    return 2.0 * integral


def _roots_and_actions(model, crossing, eps: float):
    """Turning points and their actions at a crossing in one batch: branches
    j = 1 and m (1 alone when m = 1), each at eps and at eps/2."""
    t_k, m = crossing.t, crossing.m
    js = (1, m) if m > 1 else (1,)
    seeds = np.array([_seed(t_k, m, crossing.v, e, j) for j in js for e in (eps, eps / 2.0)])
    eps = np.array([eps, eps / 2.0] * len(js))
    zeta = _newton_roots(model, seeds, eps)
    zeta = np.where(zeta.imag < 0, zeta.conjugate(), zeta)
    far = np.abs(zeta - t_k) > 10.0 * np.abs(seeds - t_k) + 1e-12
    if far.any():
        raise TurningPointFailure(
            f"Newton converged far from the crossing: zeta={zeta[far][0]}, t_k={t_k}")
    actions = _actions(model, t_k, zeta, eps)
    if np.any(actions.imag <= 0):
        i = np.argmax(actions.imag <= 0)
        raise TurningPointFailure(f"Im A = {actions[i].imag:.3e} <= 0 at eps={eps[i]}")
    return zeta, actions


def turning_points(model: PotentialModel, catalog: CrossingCatalog, k: int,
                   eps: float) -> TurningPointSet:
    """Nearest upper-half-plane turning points and actions for crossing k.

    Decay coefficients come from Richardson extrapolation of
    Im A / eps^((m+1)/m) over eps and eps/2; TurningPointFailure is raised
    when the fitted exponent of Im A is far from (m+1)/m.
    """
    m = catalog.crossings[k].m
    exponent = (m + 1.0) / m
    _, actions = _roots_and_actions(model, catalog.crossings[k], eps)
    points = []
    im_ratio = []
    for i in range(0, len(actions), 2):
        action, action_half = complex(actions[i]), complex(actions[i + 1])
        a_eps = action.imag / eps ** exponent
        a_half = action_half.imag / (eps / 2.0) ** exponent
        q = 2.0 ** (-1.0 / m)
        a_extrap = (a_half - q * a_eps) / (1.0 - q)
        fitted = math.log(action.imag / action_half.imag) / math.log(2.0)
        points.append(TurningPoint(action, a_extrap))
        im_ratio.append(fitted)

    scaling = float(np.mean(im_ratio))
    if abs(scaling - exponent) > 0.25 * exponent:
        raise TurningPointFailure(
            f"Im A scaling exponent {scaling:.3f} far from {(m+1)/m:.3f}; "
            "eps may be too large for the asymptotic regime")
    return TurningPointSet(k=k, m=m, eps=eps, first=points[0], last=points[-1])
