"""Successive-approximation solutions near a crossing.

The first-order system is turned into an integral system with the scalar
fundamental solutions u^+- = exp(-+ (i/h) integral_{t_ref}^t V) and the
Volterra operators

    K_a^+- f (t) = (i/h) u^+-(t) integral_a^t f(s) / u^+-(s) ds .

Iterating produces two exact solutions w1, w2 normalized to (u^+, 0) and
(0, u^-) at the base points; truncating the Neumann series at depth d leaves
a tail O(mu^(2(d+1))) with mu = eps * h^(-m/(m+1)).  Everything is sampled on
a uniform grid fine enough that the fastest phase advances by a fraction of a
radian per interval.  Cumulative integrals, the grid phase among them (from
one evaluation of V per node), use the sixth-order fixed-weight rule
``quadrature.cumulative_uniform``, and values between nodes come from the
degree-5 Lagrange interpolant on the same six-node stencil.  Base points must
be grid nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureTolExceeded, SeriesNotContracting
from .potential.catalog import CrossingCatalog, find_crossings, phase_integral
from .quadrature import cumulative_uniform
from .su2 import dense

GRID_MIN_POINTS = 4097
GRID_PHASE_STEP = 0.2     # max radians of the fastest phase per grid interval
GRID_MAX_POINTS = 1 << 21
NODE_TOL = 1e-9           # fraction of a grid step within which a point is a node
_STENCIL = np.arange(6)   # interpolation nodes, in grid steps from the stencil start
# prod_{k != j} (j - k): denominators of the Lagrange basis on the nodes 0..5
_LAGRANGE_DENOM = np.array([np.prod([j - k for k in range(6) if k != j]) for j in range(6)],
                           dtype=float)


def grid_size(model, h: float, a: float, b: float) -> int:
    """Points of the default grid on [a, b]: at least GRID_MIN_POINTS, and
    enough that the fastest phase, rate 2 max|V| / h, advances by at most
    GRID_PHASE_STEP per interval.  Raises QuadratureTolExceeded past
    GRID_MAX_POINTS."""
    vmax = float(np.max(np.abs(np.real(model.eval(np.linspace(a, b, 512))))))
    needed = int(np.ceil(abs(b - a) * 2.0 * vmax / (GRID_PHASE_STEP * h))) + 1
    n = max(GRID_MIN_POINTS, needed)
    if n > GRID_MAX_POINTS:
        raise QuadratureTolExceeded(
            f"grid of {n} points needed to resolve oscillations; h too small")
    return n


@dataclass
class MsaGrid:
    """Uniform sample grid over an interval around one crossing."""

    model: object
    h: float
    t_ref: float
    points: np.ndarray
    phase: np.ndarray          # integral of V from t_ref at each grid point
    u_plus: np.ndarray         # exp(-i*phase/h)
    u_minus: np.ndarray        # exp(+i*phase/h)

    @staticmethod
    def build(model, h: float, interval: tuple[float, float], t_ref: float,
              n: int | None = None) -> "MsaGrid":
        """Grid of ``n`` points (default ``grid_size``) from interval[0] to
        interval[1].  A reversed interval gives descending points and dx < 0,
        which the cumulative rule handles; ``index`` and ``interp`` need
        ascending points."""
        a, b = float(interval[0]), float(interval[1])
        if n is None:
            n = grid_size(model, h, a, b)
        pts = np.linspace(a, b, n)
        phase = cumulative_uniform(np.real(model.eval(pts)), (b - a) / (n - 1))
        phase -= phase_integral(model, a, t_ref)
        u_plus = np.multiply(phase / h, -1j)
        np.exp(u_plus, out=u_plus)    # in place: no temporary larger than the result
        return MsaGrid(model=model, h=h, t_ref=t_ref, points=pts, phase=phase,
                       u_plus=u_plus, u_minus=np.conj(u_plus))

    @property
    def dx(self) -> float:
        return float(self.points[-1] - self.points[0]) / (len(self.points) - 1)

    def u(self, sign: int) -> np.ndarray:
        return self.u_plus if sign > 0 else self.u_minus

    def index(self, t: float) -> int:
        """Index of the grid node at t; ValueError when t is not a node."""
        i = int(round((t - self.points[0]) / self.dx))
        if not 0 <= i < len(self.points) or abs(self.points[i] - t) > NODE_TOL * self.dx:
            raise ValueError(f"t={t} is not a node of the grid over "
                             f"[{self.points[0]}, {self.points[-1]}]")
        return i

    def interp(self, values: np.ndarray, t):
        """Degree-5 Lagrange interpolant through the six nodes nearest t (the
        first or last six at the ends), the stencil of cumulative_uniform."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.points[0]) or np.any(t > self.points[-1]):
            raise ValueError(f"t outside the grid [{self.points[0]}, {self.points[-1]}]")
        pos = (t - self.points[0]) / self.dx
        start = np.clip(np.floor(pos).astype(int) - 2, 0, len(self.points) - 6)
        diff = (pos - start)[..., None] - _STENCIL
        basis = np.stack([np.prod(np.delete(diff, j, axis=-1), axis=-1)
                          for j in range(6)], axis=-1) / _LAGRANGE_DENOM
        return np.sum(basis * values[start[..., None] + _STENCIL], axis=-1)


def apply_K(grid: MsaGrid, sign: int, a: float, f: np.ndarray,
            out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Volterra application K_a^+- f on the grid (sign +1 for K^+); the base
    point ``a`` must be a grid node.

    ``out`` and ``work``, complex arrays of the grid's length, are filled in
    place instead of allocating: ``out`` receives the result (it may be
    ``f`` itself), ``work`` is scratch and must be neither ``f`` nor ``out``.
    """
    i = grid.index(a)
    g = np.multiply(f, grid.u(-sign), out=work)    # f / u^{sign} = f * u^{-sign}
    cumulative = cumulative_uniform(g, grid.dx, out=out)
    cumulative -= cumulative[i]
    cumulative *= np.multiply(grid.u(sign), 1j / grid.h, out=g)
    return cumulative


@dataclass
class MsaSolution:
    grid: MsaGrid
    which: str                  # "w1" or "w2"
    base_plus: float
    base_minus: float
    depth: int
    comp1: np.ndarray
    comp2: np.ndarray
    term_sups: list = field(default_factory=list)
    truncation_estimate: float = 0.0

    def at(self, t) -> np.ndarray:
        return np.array([self.grid.interp(self.comp1, t),
                         self.grid.interp(self.comp2, t)])


def msa_solution(model, eps: float, h: float, which: str,
                 a_plus: float, a_minus: float, depth: int = 3,
                 interval: tuple[float, float] | None = None,
                 t_ref: float | None = None,
                 grid: MsaGrid | None = None) -> MsaSolution:
    """Truncated Neumann-series solution w1 or w2 on an interval.

    w1 is normalized to (u^+, 0) at the base points (first component seeded by
    u^+), w2 to (0, u^-).  The base points must be grid nodes.  ``depth``
    counts the eps^2 double applications; the recorded truncation estimate is
    the geometric tail of the term sups.
    """
    if grid is None:
        if interval is None or t_ref is None:
            raise ValueError("need either a grid or (interval, t_ref)")
        grid = MsaGrid.build(model, h, interval, t_ref)
    if which not in ("w1", "w2"):
        raise ValueError("which must be 'w1' or 'w2'")
    if depth < 1:
        raise ValueError("depth >= 1 required")

    lead_sign = +1 if which == "w1" else -1
    a_lead = a_plus if which == "w1" else a_minus
    a_other = a_minus if which == "w1" else a_plus

    # the terms f, g and apply_K's scratch reuse three buffers
    f = grid.u(lead_sign).copy()
    g = np.empty_like(f)
    work = np.empty_like(f)
    sum_lead = f.copy()
    sum_other = np.zeros_like(f)
    sups = [float(np.max(np.abs(f)))]
    for _ in range(depth):
        apply_K(grid, -lead_sign, a_other, f, out=g, work=work)
        sum_other += g
        apply_K(grid, lead_sign, a_lead, g, out=f, work=work)
        f *= eps * eps
        sum_lead += f
        sups.append(float(np.max(np.abs(f))))
        if sups[-1] >= sups[-2] and sups[-1] > 1e-14:
            raise SeriesNotContracting(
                f"term sups {sups}: series not contracting (mu too large)")
    ratio = sups[-1] / sups[-2] if sups[-2] > 0 else 0.0
    tail = sups[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf

    comp_lead = sum_lead
    comp_other = -eps * sum_other
    if which == "w1":
        comp1, comp2 = comp_lead, comp_other
    else:
        comp1, comp2 = comp_other, comp_lead
    return MsaSolution(grid=grid, which=which, base_plus=a_plus, base_minus=a_minus,
                       depth=depth, comp1=comp1, comp2=comp2,
                       term_sups=sups, truncation_estimate=tail)


def residual_norm(sol: MsaSolution, eps: float) -> float:
    """Max norm of i h psi' - H psi on the grid, by finite differences."""
    grid = sol.grid
    h = grid.h
    v = np.real(grid.model.eval(grid.points))
    d1 = np.gradient(sol.comp1, grid.points, edge_order=2)
    d2 = np.gradient(sol.comp2, grid.points, edge_order=2)
    r1 = 1j * h * d1 - (v * sol.comp1 + eps * sol.comp2)
    r2 = 1j * h * d2 - (eps * sol.comp1 - v * sol.comp2)
    interior = slice(2, -2)
    return float(max(np.max(np.abs(r1[interior])), np.max(np.abs(r2[interior]))))


def sampled_norm(grid: MsaGrid, values: np.ndarray, q: float) -> float:
    """Norm sup|f| + h^q sup|f'| with the derivative by finite differences."""
    deriv = np.gradient(values, grid.points, edge_order=2)
    return float(np.max(np.abs(values)) + grid.h ** q * np.max(np.abs(deriv)))


def connection_T_numeric(model, eps: float, h: float, k: int,
                         ell: float, r: float, depth: int = 3,
                         catalog: CrossingCatalog | None = None,
                         grid: MsaGrid | None = None) -> np.ndarray:
    """Change of basis between left-based and right-based solutions.

    Both bases are built over [ell, r] around crossing k; the matrix is read
    off at t = r where the right-based pair reduces to diag(u^+, u^-).  Only
    w1 is solved; w2 follows from it by symmetry.  A
    given grid must span exactly [ell, r] and take its phase from t_k.
    """
    if catalog is None:
        catalog = find_crossings(model)
    t_k = catalog.positions[k]
    if not (ell < t_k < r):
        raise ValueError(f"need ell < t_k={t_k} < r")
    if grid is None:
        grid = MsaGrid.build(model, h, (ell, r), t_k)
    elif grid.index(ell) != 0 or grid.index(r) != len(grid.points) - 1:
        raise ValueError(f"grid spans [{grid.points[0]}, {grid.points[-1]}], "
                         f"not [ell, r] = [{ell}, {r}]")
    elif abs(grid.t_ref - t_k) > NODE_TOL * grid.dx:
        raise ValueError(f"grid phase reference t_ref={grid.t_ref} is not t_k={t_k}")
    w1l = msa_solution(model, eps, h, "w1", ell, ell, depth=depth, grid=grid)
    # H is real and J H J^-1 = -H with J = [[0, -1], [1, 0]], so the second
    # solution is w2 = J conj(w1): its columns need no second solve, and the
    # change of basis is the pair diag(u^-, u^+) (w1_1, w1_2) at t = r
    return dense(grid.u_minus[-1] * w1l.comp1[-1], grid.u_plus[-1] * w1l.comp2[-1])
