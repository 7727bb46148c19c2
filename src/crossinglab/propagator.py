"""Ground-truth integrator for i h psi' = H(t) psi.

Two independent backends:

* "cf4": a commutator-free fourth-order exponential stepper built from two
  Gauss-node evaluations per step.  Each substep is an exact 2x2 unitary
  exponential, so constant-Hamiltonian stretches (the tails) carry no error at
  all and the step size is controlled by the *variation* of V rather than by
  the oscillation frequency.  Steps are precomputed on a variation-adaptive
  mesh and stored as SU(2) pairs (a, b) (see ``su2``); all node evaluations
  and exponentials are vectorized, and the ordered product of the pairs is
  taken by chunked pairwise reduction.  A global mesh-doubling Richardson
  check enforces the requested tolerance.

* "dop853": scipy's adaptive Runge-Kutta, used as a cross-check oracle at
  moderate h.

Both preserve the norm to within the requested tolerance; the drift is
reported, never silently corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepUnderflow
from .quadrature import adaptive_mesh
from .su2 import dense, ordered_product, su2_mul

GAUSS_C1 = 0.5 - math.sqrt(3.0) / 6.0
GAUSS_C2 = 0.5 + math.sqrt(3.0) / 6.0
CF4_A1 = 0.25 + math.sqrt(3.0) / 6.0
CF4_A2 = 0.25 - math.sqrt(3.0) / 6.0

MAX_TOTAL_STEPS = 40_000_000
_CHUNK = 1 << 19


@dataclass
class PropagationDiagnostics:
    steps: int = 0
    refinements: int = 0
    richardson_error: float = 0.0
    norm_drift: float = 0.0
    method: str = "cf4"


def hamiltonian(model, eps: float, t):
    v = np.real(model.eval(t))
    return np.array([[v, eps], [eps, -v]], dtype=float)


def _exponential_pairs(v_eff: np.ndarray, eps_eff: float, dt_h: np.ndarray):
    """Pairs of exp(-i * dt/h * (v sigma_z + eps sigma_x)) for arrays of v."""
    theta = dt_h * np.sqrt(v_eff * v_eff + eps_eff * eps_eff)
    sin_over_lam = dt_h * np.sinc(theta / np.pi)
    return np.cos(theta) - 1j * sin_over_lam * v_eff, -1j * sin_over_lam * eps_eff


def _cf4_matrix_on_mesh(model, eps: float, h: float, mesh: np.ndarray):
    """SU(2) pair of the cf4 propagator over the mesh."""
    dt = np.diff(mesh)
    t1 = mesh[:-1] + GAUSS_C1 * dt
    t2 = mesh[:-1] + GAUSS_C2 * dt
    total = (1.0 + 0.0j, 0.0j)
    n = len(dt)
    for start in range(0, n, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n))
        v1 = np.real(model.eval(t1[sl]))
        v2 = np.real(model.eval(t2[sl]))
        dt_h = dt[sl] / h
        # first exponential applied to the state, then the mirrored one
        first = _exponential_pairs(CF4_A1 * v1 + CF4_A2 * v2, 0.5 * eps, dt_h)
        second = _exponential_pairs(CF4_A2 * v1 + CF4_A1 * v2, 0.5 * eps, dt_h)
        steps = su2_mul(*second, *first)
        total = su2_mul(*ordered_product(*steps), *total)
    return total


def _cf4_mesh(model, eps: float, h: float, t0: float, t1: float, tol: float,
              boost: float = 1.0) -> np.ndarray:
    span = abs(t1 - t0)
    tol_local = max(tol, 1e-14) / max(span, 1.0)

    def density(t):
        lam2 = np.real(model.eval(t)) ** 2 + eps * eps
        dv = np.abs(np.real(model.deriv(t)))
        # local truncation ~ dt^5 * lam^2 * |V'| / h^3  (commutator-type term)
        rho = (lam2 * (dv + 1e-12) / (tol_local * h**3)) ** 0.2
        return boost * np.maximum(rho, 1.0 / max(span, 1.0))

    from .errors import QuadratureTolExceeded

    try:
        mesh = adaptive_mesh(density, min(t0, t1), max(t0, t1),
                             max_points=MAX_TOTAL_STEPS)
    except QuadratureTolExceeded as exc:
        raise StepUnderflow(
            f"h={h}, tol={tol} needs more than {MAX_TOTAL_STEPS} steps; "
            "below the feasible floor") from exc
    return mesh


def fundamental_matrix(model, eps: float, h: float, t0: float, t1: float,
                       tol: float = 1e-10, method: str = "cf4",
                       diagnostics: PropagationDiagnostics | None = None) -> np.ndarray:
    """Unitary 2x2 matrix M with psi(t1) = M @ psi(t0)."""
    if t0 == t1:
        return np.eye(2, dtype=complex)
    if t1 < t0:
        return fundamental_matrix(model, eps, h, t1, t0, tol=tol, method=method,
                                  diagnostics=diagnostics).conj().T
    if method == "dop853":
        return _dop853_matrix(model, eps, h, t0, t1, tol, diagnostics)
    if method != "cf4":
        raise ValueError(f"unknown method {method!r}")

    boost = 1.0
    coarse = _cf4_matrix_on_mesh(model, eps, h, _cf4_mesh(model, eps, h, t0, t1, tol, boost))
    for refinement in range(4):
        fine_mesh = _cf4_mesh(model, eps, h, t0, t1, tol, boost * 2.0)
        a, b = fine = _cf4_matrix_on_mesh(model, eps, h, fine_mesh)
        # the other two entries are conjugates of these, with the same moduli
        diff = float(max(abs(a - coarse[0]), abs(b - coarse[1]))) / 15.0
        if diagnostics is not None:
            diagnostics.steps = len(fine_mesh) - 1
            diagnostics.refinements = refinement
            diagnostics.richardson_error = diff
            diagnostics.method = "cf4"
            diagnostics.norm_drift = float(abs(abs(a) ** 2 + abs(b) ** 2 - 1.0))
        if diff <= tol:
            return dense(a, b)
        coarse = fine
        boost *= 2.0
    raise StepUnderflow(f"cf4 failed to reach tol={tol}; last error {diff:.3e}")


def _dop853_matrix(model, eps, h, t0, t1, tol, diagnostics):
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        # y holds both columns stacked: [a1, a2, b1, b2]
        v = float(np.real(model.eval(t)))
        out = np.empty_like(y)
        out[0] = -1j / h * (v * y[0] + eps * y[1])
        out[1] = -1j / h * (eps * y[0] - v * y[1])
        out[2] = -1j / h * (v * y[2] + eps * y[3])
        out[3] = -1j / h * (eps * y[2] - v * y[3])
        return out

    y0 = np.array([1, 0, 0, 1], dtype=complex)
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853",
                    rtol=max(tol * 0.1, 1e-12), atol=tol * 1e-2, dense_output=False)
    if not sol.success:
        raise StepUnderflow(f"dop853 failed: {sol.message}")
    yf = sol.y[:, -1]
    mat = np.array([[yf[0], yf[2]], [yf[1], yf[3]]], dtype=complex)
    if diagnostics is not None:
        diagnostics.steps = sol.t.size
        diagnostics.method = "dop853"
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        diagnostics.norm_drift = float(abs(abs(det) - 1.0))
    return mat


def propagate(model, eps: float, h: float, t0: float, t1: float, psi0,
              tol: float = 1e-10, method: str = "cf4",
              diagnostics: PropagationDiagnostics | None = None) -> np.ndarray:
    """Propagate a state vector from t0 to t1 with local error control."""
    if h <= 0 or eps < 0 or tol <= 0:
        raise ValueError("need h > 0, eps >= 0, tol > 0")
    psi0 = np.asarray(psi0, dtype=complex)
    mat = fundamental_matrix(model, eps, h, t0, t1, tol=tol, method=method,
                             diagnostics=diagnostics)
    return mat @ psi0
