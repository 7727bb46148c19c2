"""Ground-truth integrator for i h psi' = H(t) psi,  H = V sigma_z + eps sigma_x.

Two independent backends:

* "magnus6": the sixth-order Magnus integrator on three Gauss-Legendre
  nodes (Blanes, Casas & Ros, BIT 40 (2000) 434; Blanes, Casas, Oteo & Ros,
  Phys. Rep. 470 (2009) 151).  With A = -(i/h) H at the nodes A1, A2, A3 of
  a step dt,

      a1 = dt A2,  a2 = (sqrt(15) dt / 3) (A3 - A1),  a3 = (10 dt / 3) (A3 - 2 A2 + A1),
      C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,
      Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240,

  and the step is exp(Omega), one exact SU(2) exponential.  Writing
  -i x.sigma for x, a commutator is a cross product of real 3-vectors,
  [-i x.sigma, -i y.sigma] = -i (2 x cross y).sigma.  A constant
  Hamiltonian (the tails) is integrated exactly, so the steps follow the
  variation of V, not the oscillation.  Steps are stored as SU(2) pairs
  (a, b) (see ``su2``); node evaluations and exponentials are vectorized
  over cache-sized chunks, and the ordered product of the pairs is taken by
  pairwise reduction.

  The mesh density equidistributes the local error of a step.  Only
  sigma_x (the eps term) fails to commute with the derivatives of A, which
  all lie along sigma_z, so every commutator carries eps.  Expanded in the
  Taylor coefficients of V at the step's midpoint, the local error is e dt^7
  with

      e = (eps / h) sum_terms K r^p w_j1 w_j2 ... + |V^(6)| / (2016000 h),

  r = lam / h, lam = sqrt(V^2 + eps^2), w_j = |V^(j)| / h, and one term for
  each product of weight p + sum (j + 1) = 6 (LOCAL_ERROR_TERMS).  The
  leading term for small h, r^4 w_1, is [A, [A, [A, [A, [A, A']]]]] / 30240
  of the Magnus series, which the three-node scheme omits: K = 2^5 / 30240
  = 1/945.  The last term is the error of the three-point Gauss rule on the
  diagonal phase.  The other K are the largest of single steps on
  V = v0 + c t^j (and two-coefficient V for the mixed products) over a few
  v0 / lam, fitted at dt -> 0; the error is a sum of vectors, so e bounds
  it.  Away from crossings r^4 w_1 carries the error; in a crossing's core,
  where lam ~ eps, the products w_1^3, w_1 w_3 and w_2^2 and the terms in
  w_5 take over.  V and |V'| ... |V^(6)| come from the order-6 Taylor jet
  of V at each sample.  Meshes of density e^(1/7) (I / tol)^(1/6), I the
  integral of e^(1/7), have the fewest steps whose local errors sum to tol.
  The expansion holds while a step turns the state by at most ~1.5 rad,
  lam dt / h; from ~4 rad on the error no longer falls as dt shrinks, so the
  density is floored at lam / (MAX_PHASE h).  ``boost`` scales the density,
  which is sampled once per propagation and serves every boost.  Its samples
  of V and |V'| ... |V^(6)| (``_density_samples``) depend on neither eps nor
  h, so scattering keeps those of the whole line on the catalog, takes a
  window's from the window plan's jets (``adiabatic.plan_windows``), and
  pays only the eps and h arithmetic per row.

  Step control: a pilot pair of meshes gives a Richardson estimate of the
  finer mesh's error, |M_fine - M_coarse| / (r^q - 1) with r the boost
  ratio.  The pair is nested: the fine mesh has exactly twice the steps of
  the coarse one at boost PILOT_BOOST = 0.35, and the coarse mesh is its
  even points, so one ``adaptive_mesh`` serves both and r = 2 exactly.
  The observed order on these meshes is 6.0 (5.7 to 6.2 from boost 0.35 to
  2 on the tanh pair, cubed tanh and windowed LZ); q = 5 keeps the estimate
  above the true error, about twice it at r = 2 (1.7 to 2.2 on the
  whole-line tanh pair at h = 8e-3 ... 2.5e-3, eps = 0.04 ... 0.06 h^0.75).  That needs a mesh whose step size
  varies continuously (``adaptive_mesh``): where local errors cancel along
  the line, steps that jump at every density sample leave errors that alias
  with the boost, and the same estimate read 0.65 to 13.8 times the error.
  A mesh is accepted when its estimate meets tol; otherwise the next boost
  is sized so that the estimate of the next pair is predicted to meet tol,
  r = (1 + E / tol)^(1/q), never less than 1.25.
  Acceptance always rests on the estimate of two built meshes, never on an
  extrapolation.  Since e adds magnitudes that partly cancel, boost 1 errs
  well below tol; the pilot boosts put the accepted window meshes of the
  tanh pair at 0.10 to 0.24 of their tol from h = 1e-2 to 1e-8 (against the
  same window at tol / 1000).  Where local
  errors cancel along the line (away from crossings, whole-line runs) the
  accepted mesh sits one or two decades below tol, and a pilot of a few
  dozen steps (loose tol, order-1 crossings) is rejected once.

* "dop853": scipy's adaptive Runge-Kutta, used as a cross-check oracle at
  moderate h.

Both propagate the whole interval they are given.  Scattering calls magnus6
on the whole line where that is predicted cheaper and otherwise on the
windows around the crossings only (see ``scattering``); full propagations of
the windowed rows are their independent oracles.

Both preserve the norm to within the requested tolerance; the drift is
reported, never silently corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepUnderflow
from .quadrature import adaptive_mesh, cumulative_density, mesh_steps
from .su2 import dense, ordered_product, su2_mul

# the three Gauss-Legendre nodes of a step, as fractions of it
GAUSS_NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
# local error of a step: e dt^7 with
#     e = (eps/h) sum K r^p prod_j w_j + |V^(6)| / (2016000 h),
# r = lam/h and w_j = |V^(j)|/h, each term of weight p + sum (j + 1) = 6;
# (K, p, (j, ...)) per term
LOCAL_ERROR_TERMS = (
    (1.0 / 945.0, 4, (1,)), (5.3e-4, 3, (2,)), (7.7e-5, 2, (3,)), (3.1e-5, 1, (4,)),
    (5.8e-6, 0, (5,)), (1.6e-3, 2, (1, 1)), (1.45e-3, 1, (1, 2)), (1.0 / 840.0, 0, (1, 1, 1)),
    (3.0e-5, 0, (2, 2)), (3.9e-5, 0, (1, 3)),
)
GAUSS_ERROR = 1.0 / 2016000.0
# samples of the step density on [t0, t1]
DENSITY_SAMPLES = 1025
# largest phase lam dt / h of a boost-1 step: up to ~1.5 the local error is
# e dt^7 within 20%; from ~4 on it no longer falls as dt shrinks
MAX_PHASE = 1.0

MAX_TOTAL_STEPS = 40_000_000
# boost of the coarse pilot mesh (the fine one has twice its steps), the
# smallest ratio between the boosts of a pair, the order of the Richardson
# estimate, and the sized meshes allowed after the pilot pair
PILOT_BOOST = 0.35
MIN_BOOST_RATIO = 1.25
RICHARDSON_ORDER = 5
MAX_REFINEMENTS = 3
_CHUNK = 1 << 14


@dataclass
class PropagationDiagnostics:
    """How a propagation was obtained.

    ``steps`` is the size of the returned mesh and ``steps_built`` that of
    every mesh propagated for it, both meshes of the pilot pair included;
    ``refinements`` counts the sized meshes after the pilot pair,
    ``richardson_error`` is the estimate for the returned mesh and
    ``norm_drift`` the larger norm drift of the pair behind that estimate.
    """

    steps: int = 0
    steps_built: int = 0
    refinements: int = 0
    richardson_error: float = 0.0
    norm_drift: float = 0.0
    method: str = "magnus6"


def _magnus6_pairs(v1, v2, v3, eps: float, dt_h):
    """SU(2) pairs of the sixth-order Magnus steps from V at the three Gauss nodes.

    ``dt_h`` holds dt / h per step.  A = -(i/h)(V sigma_z + eps sigma_x) is
    the triple (eps, 0, V) / h, so a1 = (x, 0, z1) and a2 = (0, 0, z2),
    a3 = (0, 0, z3) lie along sigma_z.  The commutators, 2 u cross v, then
    have closed components: C1 = (0, -2 x z2, 0), C2 = (-x z1 z2, x z3,
    x^2 z2) / 15, and with X = -20 a1 - a3 + C1 and Y = a2 + C2,
    Omega = a1 + a3 / 12 + (X cross Y) / 120.
    """
    x = dt_h * eps
    z1 = dt_h * v2
    z2 = (math.sqrt(15.0) / 3.0) * dt_h * (v3 - v1)
    z3 = (10.0 / 3.0) * dt_h * (v3 - 2.0 * v2 + v1)
    xz2 = x * z2
    x_x, x_y, x_z = -20.0 * x, -2.0 * xz2, -20.0 * z1 - z3
    y_x, y_y, y_z = -xz2 * z1 / 15.0, x * z3 / 15.0, z2 + x * xz2 / 15.0
    wx = x + (x_y * y_z - x_z * y_y) / 120.0
    wy = (x_z * y_x - x_x * y_z) / 120.0
    wz = z1 + z3 / 12.0 + (x_x * y_y - x_y * y_x) / 120.0
    # exp(-i w.sigma) = cos|w| - i sin|w| (w/|w|).sigma, with sin|w|/|w| -> 1 at w = 0
    norm = np.sqrt(wx * wx + wy * wy + wz * wz)
    s = np.sinc(norm / np.pi)
    return np.cos(norm) - 1j * s * wz, s * wy - 1j * s * wx


def _magnus6_matrix_on_mesh(model, eps: float, h: float, mesh: np.ndarray):
    """SU(2) pair of the magnus6 propagator over the mesh, one chunk of steps at a time."""
    total = (1.0 + 0.0j, 0.0j)
    for start in range(0, len(mesh) - 1, _CHUNK):
        nodes = mesh[start:start + _CHUNK + 1]
        dt = np.diff(nodes)
        v = np.real(model.eval((nodes[:-1, None] + dt[:, None] * GAUSS_NODES).ravel()))
        v = v.reshape(-1, 3)
        steps = _magnus6_pairs(v[:, 0], v[:, 1], v[:, 2], eps, dt / h)
        total = su2_mul(*ordered_product(*steps), *total)
    return total


def _density_samples(model, t0: float, t1: float) -> tuple:
    """The part of the step density on [t0, t1] that depends on neither eps
    nor h: the DENSITY_SAMPLES points t, V and |V'| ... |V^(6)| at t, from
    one order-6 jet."""
    t = np.linspace(t0, t1, DENSITY_SAMPLES)
    return _density_samples_from_jets(t, model.taylor(t, 6))


def _density_samples_from_jets(t: np.ndarray, jet: np.ndarray) -> tuple:
    """t, V and |V'| ... |V^(6)| at t from V's Taylor jets there (order >= 6)."""
    return t, jet[0], [math.factorial(j) * np.abs(jet[j]) for j in range(1, 7)]


def _magnus6_density(model, eps: float, h: float, t0: float, t1: float, tol: float,
                     samples: tuple | None = None):
    """The boost-1 step density on [t0, t1], sampled once for every boost.

    e^(1/7) (I / tol)^(1/6), floored where a step would turn the state by
    more than MAX_PHASE, lam dt / h, so that the local error stays e dt^7.
    ``samples`` are ``_density_samples(model, t0, t1)`` when the caller has
    them already; only the eps and h arithmetic is then left.
    """
    t, v, derivs = _density_samples(model, t0, t1) if samples is None else samples
    lam = np.sqrt(v * v + eps * eps)
    rate = lam / h
    # the powers of r, and the powers of h of w_j = |V^(j)| / h in each constant
    rates = [1.0, rate]
    while len(rates) <= max(power for _, power, _ in LOCAL_ERROR_TERMS):
        rates.append(rates[-1] * rate)
    e = (GAUSS_ERROR / h) * derivs[5]
    for k, power, orders in LOCAL_ERROR_TERMS:
        term = (eps * k / h ** (1 + len(orders))) * rates[power]
        for j in orders:
            term = term * derivs[j - 1]
        e += term
    root = e ** (1.0 / 7.0)
    total = float(np.sum(0.5 * (root[1:] + root[:-1]) * np.diff(t)))
    return cumulative_density(
        t, np.maximum((total / tol) ** (1.0 / 6.0) * root, lam / (MAX_PHASE * h)))


def pilot_steps(density) -> int:
    """Steps of the pilot pair on a density from ``_magnus6_density``.

    A propagation whose pilot pair is accepted builds exactly these steps.
    """
    return 3 * mesh_steps(density, PILOT_BOOST)


def _magnus6_mesh(density, h: float, tol: float, steps: int) -> np.ndarray:
    if steps > MAX_TOTAL_STEPS:
        raise StepUnderflow(
            f"h={h}, tol={tol} needs more than {MAX_TOTAL_STEPS} steps; "
            "below the feasible floor")
    return adaptive_mesh(density, steps)


def check_parameters(eps: float, h: float, tol: float) -> None:
    """ValueError unless 0 < h < inf, 0 <= eps < inf and 0 < tol < inf."""
    if not (0 < h < math.inf and 0 <= eps < math.inf and 0 < tol < math.inf):
        raise ValueError("need h > 0, eps >= 0, tol > 0, all finite")


def fundamental_matrix(model, eps: float, h: float, t0: float, t1: float,
                       tol: float = 1e-10, method: str = "magnus6",
                       diagnostics: PropagationDiagnostics | None = None,
                       density=None) -> np.ndarray:
    """Unitary 2x2 matrix M with psi(t1) = M @ psi(t0).

    ``density`` is the magnus6 step density that ``_magnus6_density``
    returns for these arguments, when the caller has sampled it already.
    """
    check_parameters(eps, h, tol)
    if t0 == t1:
        return np.eye(2, dtype=complex)
    if t1 < t0:
        return fundamental_matrix(model, eps, h, t1, t0, tol=tol, method=method,
                                  diagnostics=diagnostics, density=density).conj().T
    if method == "dop853":
        return _dop853_matrix(model, eps, h, t0, t1, tol, diagnostics)
    if method != "magnus6":
        raise ValueError(f"unknown method {method!r}")

    if diagnostics is None:
        diagnostics = PropagationDiagnostics()
    diagnostics.method = "magnus6"
    diagnostics.steps_built = 0

    if density is None:
        density = _magnus6_density(model, eps, h, t0, t1, tol)

    def solve(mesh):
        diagnostics.steps = len(mesh) - 1
        diagnostics.steps_built += diagnostics.steps
        return _magnus6_matrix_on_mesh(model, eps, h, mesh)

    def norm_drift(pair):
        return float(abs(abs(pair[0]) ** 2 + abs(pair[1]) ** 2 - 1.0))

    # the pilot pair is nested: the coarse mesh is every other point of the fine one
    coarse_boost, boost = PILOT_BOOST, 2.0 * PILOT_BOOST
    mesh = _magnus6_mesh(density, h, tol, 2 * mesh_steps(density, coarse_boost))
    coarse = solve(mesh[::2])
    for refinement in range(MAX_REFINEMENTS + 1):
        if refinement:
            mesh = _magnus6_mesh(density, h, tol, mesh_steps(density, boost))
        a, b = fine = solve(mesh)
        # Richardson estimate of the fine mesh's error; the other two entries
        # are conjugates of these, with the same moduli.  Every step is
        # unitary, so the norm drift is rounding, which no mesh removes; that
        # of either mesh of the pair shows it (one may be 0 by chance).
        drift = max(norm_drift(fine), norm_drift(coarse))
        err = max(float(max(abs(a - coarse[0]), abs(b - coarse[1]))) / (
            (boost / coarse_boost) ** RICHARDSON_ORDER - 1.0), drift)
        diagnostics.refinements = refinement
        diagnostics.richardson_error = err
        diagnostics.norm_drift = drift
        if err <= tol:
            return dense(a, b)
        if drift > tol:
            raise StepUnderflow(f"tol={tol} is below the rounding level {drift:.1e} "
                                f"of {diagnostics.steps} magnus6 steps")
        coarse, coarse_boost = fine, boost
        boost *= max(MIN_BOOST_RATIO, (1.0 + err / tol) ** (1.0 / RICHARDSON_ORDER))
    raise StepUnderflow(f"magnus6 failed to reach tol={tol}; last error {err:.3e}")


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
