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
``quadrature.cumulative_uniform``; solutions are read at the nodes only,
with no interpolation between them.  The grid phase is accumulated outward
from the node nearest t_ref, so that it is exactly 0 at a t_ref that is a
node.  Base points must be grid nodes.

The grid holds u^+ and the ends of its interval, nothing more: u^- is
conj(u^+) and the nodes are a linspace over the ends, both formed when a
caller needs them.  The series runs in the interaction frame: with s the
sign of the leading component, its terms f, g are carried as F = f u^{-s}
and G = g u^{s}.  A term then costs two in-place products by u^s, a
conjugation and one cumulative sum, whose ``origin`` is the base node, so it
is exactly 0 there; the factors i/h and eps^2 i/h ride in the sum's step.
For s = -1 the series is run on u^+ and conjugated, so no solve forms u^-.
``apply_K`` is the same operator in the lab frame.  The components u^s sum F
and -eps u^{-s} sum G are formed once at the end, and
``connection_T_numeric``, which needs only their values at t = r, sums the
terms at that node alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureTolExceeded, SeriesNotContracting
from .potential.catalog import CrossingCatalog, find_crossings, phase_integral
from .quadrature import cumulative_uniform
from .su2 import dense

GRID_MIN_POINTS = 4097
GRID_PHASE_STEP = 0.2     # max radians of the fastest phase per grid interval
GRID_MAX_POINTS = 1 << 21
NODE_TOL = 1e-9           # fraction of a grid step within which a point is a node


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


def grid_phase(model, points: np.ndarray, t_ref: float) -> np.ndarray:
    """integral of V from t_ref at each of the uniform ``points``.

    Accumulated outward from the node nearest t_ref, so that the phase there
    is exact rather than a difference of two sums of size Phi(a)."""
    a, n = points[0], len(points)
    dx = (points[-1] - a) / (n - 1)
    origin = min(max(int(round((t_ref - a) / dx)), 0), n - 1)
    phase = cumulative_uniform(np.real(model.eval(points)), dx, origin=origin)
    phase += phase_integral(model, t_ref, points[origin])
    return phase


@dataclass
class MsaGrid:
    """Uniform sample grid over an interval around one crossing.

    It holds u^+ at the nodes and the interval's ends; the nodes are
    ``np.linspace(*ends, len(u_plus))`` and u^- is conj(u^+).
    """

    model: object
    h: float
    t_ref: float
    ends: tuple[float, float]  # first and last node
    u_plus: np.ndarray         # exp(-i*phase/h), phase = grid_phase(model, points, t_ref)

    @staticmethod
    def build(model, h: float, interval: tuple[float, float], t_ref: float,
              n: int | None = None) -> "MsaGrid":
        """Grid of ``n`` points (default ``grid_size``) from interval[0] to
        interval[1].  A reversed interval gives descending points and dx < 0,
        which the cumulative rule handles; ``index`` needs ascending points."""
        a, b = float(interval[0]), float(interval[1])
        if n is None:
            n = grid_size(model, h, a, b)
        u_plus = np.multiply(grid_phase(model, np.linspace(a, b, n), t_ref) / h, -1j)
        np.exp(u_plus, out=u_plus)    # in place: no temporary larger than the result
        return MsaGrid(model=model, h=h, t_ref=t_ref, ends=(a, b), u_plus=u_plus)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(*self.ends, len(self.u_plus))

    @property
    def dx(self) -> float:
        a, b = self.ends
        return (b - a) / (len(self.u_plus) - 1)

    def u(self, sign: int) -> np.ndarray:
        """u^+ itself for sign > 0, else u^- = conj(u^+) as a new array."""
        return self.u_plus if sign > 0 else np.conj(self.u_plus)

    def index(self, t: float) -> int:
        """Index of the grid node at t; ValueError when t is not a node."""
        (a, b), dx, n = self.ends, self.dx, len(self.u_plus)
        i = int(round((t - a) / dx))
        if not 0 <= i < n or abs(a + i * dx - t) > NODE_TOL * dx:
            raise ValueError(f"t={t} is not a node of the grid over [{a}, {b}]")
        return i


def apply_K(grid: MsaGrid, sign: int, a: float, f: np.ndarray) -> np.ndarray:
    """Volterra application K_a^+- f on the grid (sign +1 for K^+) in the lab
    frame, as a new array; the base point ``a`` must be a grid node."""
    i = grid.index(a)
    g = f * grid.u(-sign)    # f / u^{sign} = f * u^{-sign}
    cumulative = cumulative_uniform(g, grid.dx * (1j / grid.h), origin=i)
    cumulative *= grid.u(sign)
    return cumulative


@dataclass
class MsaSolution:
    grid: MsaGrid
    comp1: np.ndarray
    comp2: np.ndarray
    truncation_estimate: float = 0.0


def _series_sums(grid: MsaGrid, eps: float, lead_sign: int, a_lead: float,
                 a_other: float, depth: int, at: slice):
    """The Neumann series in the interaction frame, summed at the nodes ``at``.

    With s = lead_sign the terms are F = f u^{-s} and G = g u^{s}; they follow
    G = (i/h) C_{a_other}[F (u^s)^2] and F' = eps^2 (i/h) C_{a_lead}[G (u^{-s})^2]
    from F_0 = 1, C being ``cumulative_uniform`` with its origin at the base
    node.  Returns sum F and sum G at ``at`` and the sups of the F terms
    (|F| = |f|, since |u| = 1); raises SeriesNotContracting when a sup does
    not fall.
    """
    i_lead, i_other = grid.index(a_lead), grid.index(a_other)
    u = grid.u_plus
    # the factors i/h and conj(eps^2 i/h) ride in C's step.  G (u^{-s})^2 is
    # conj(conj(G) (u^s)^2), and C commutes with conj, so both products are
    # by u^s, made in place in the two term buffers; for s = -1 the series
    # is the conjugate of the one on u^+ with conjugated steps
    scale = 1j / grid.h
    step_g = grid.dx * scale
    step_f = grid.dx * np.conj(eps * eps * scale)
    if lead_sign < 0:
        step_g, step_f = np.conj(step_g), np.conj(step_f)
    f, g = np.empty_like(u), np.empty_like(u)
    sum_f, sum_g = np.ones_like(u[at]), np.zeros_like(u[at])
    sups = [1.0]
    for n in range(depth):
        if n:
            f *= u
            f *= u
        else:
            np.square(u, out=f)    # F_0 (u^s)^2, F_0 = 1
        cumulative_uniform(f, step_g, out=g, origin=i_other)
        sum_g += g[at]
        np.conjugate(g, out=g)
        g *= u
        g *= u
        cumulative_uniform(g, step_f, out=f, origin=i_lead)
        np.conjugate(f, out=f)
        sum_f += f[at]
        # g is spent: its real parts take |F|
        sups.append(float(np.max(np.abs(f, out=g.real))))
        if sups[-1] >= sups[-2] and sups[-1] > 1e-14:
            raise SeriesNotContracting(
                f"term sups {sups}: series not contracting (mu too large)")
    if lead_sign < 0:
        np.conjugate(sum_f, out=sum_f)
        np.conjugate(sum_g, out=sum_g)
    return sum_f, sum_g, sups


def msa_solution(grid: MsaGrid, eps: float, which: str,
                 a_plus: float, a_minus: float, depth: int = 3) -> MsaSolution:
    """Truncated Neumann-series solution w1 or w2 on the grid.

    w1 is normalized to (u^+, 0) at the base points (first component seeded by
    u^+), w2 to (0, u^-).  The base points must be grid nodes.  ``depth``
    counts the eps^2 double applications; the recorded truncation estimate is
    the geometric tail of the term sups.
    """
    if which not in ("w1", "w2"):
        raise ValueError("which must be 'w1' or 'w2'")
    if depth < 1:
        raise ValueError("depth >= 1 required")

    lead_sign = +1 if which == "w1" else -1
    a_lead = a_plus if which == "w1" else a_minus
    a_other = a_minus if which == "w1" else a_plus
    comp_lead, comp_other, sups = _series_sums(grid, eps, lead_sign, a_lead, a_other,
                                               depth, slice(None))
    ratio = sups[-1] / sups[-2] if sups[-2] > 0 else 0.0
    tail = sups[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf

    # back from the interaction frame: f = u^s F, -eps g = -eps u^{-s} G
    comp_lead *= grid.u(lead_sign)
    comp_other *= grid.u(-lead_sign)
    comp_other *= -eps
    if which == "w1":
        comp1, comp2 = comp_lead, comp_other
    else:
        comp1, comp2 = comp_other, comp_lead
    return MsaSolution(grid=grid, comp1=comp1, comp2=comp2, truncation_estimate=tail)


def residual_norm(sol: MsaSolution, eps: float) -> float:
    """Max norm of i h psi' - H psi on the grid, by finite differences."""
    grid = sol.grid
    h = grid.h
    t = grid.points
    v = np.real(grid.model.eval(t))
    d1 = np.gradient(sol.comp1, t, edge_order=2)
    d2 = np.gradient(sol.comp2, t, edge_order=2)
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
    w1 is solved; w2 follows from it by symmetry.  A given grid must be built
    for this model and h, span exactly [ell, r] and take its phase from t_k.
    """
    if depth < 1:
        raise ValueError("depth >= 1 required")
    if catalog is None:
        catalog = find_crossings(model)
    t_k = catalog.positions[k]
    if not (ell < t_k < r):
        raise ValueError(f"need ell < t_k={t_k} < r")
    if grid is None:
        grid = MsaGrid.build(model, h, (ell, r), t_k)
    elif grid.h != h:
        raise ValueError(f"grid was built at h={grid.h}, not h={h}")
    elif grid.model is not model:
        raise ValueError("grid was built for another model")
    elif grid.index(ell) != 0 or grid.index(r) != len(grid.u_plus) - 1:
        raise ValueError(f"grid spans [{grid.ends[0]}, {grid.ends[1]}], "
                         f"not [ell, r] = [{ell}, {r}]")
    elif abs(grid.t_ref - t_k) > NODE_TOL * grid.dx:
        raise ValueError(f"grid phase reference t_ref={grid.t_ref} is not t_k={t_k}")
    # only w1's end values: the series summed at the last node and taken out
    # of the interaction frame by msa_solution's products, on new one-element
    # arrays (numpy rounds a product of scalars, or one made in place in a
    # one-element array, apart from the same product in a longer array)
    end = slice(-1, None)
    sum_f, sum_g, _ = _series_sums(grid, eps, +1, ell, ell, depth, end)
    u_end = grid.u_plus[end]
    comp1 = sum_f * u_end
    comp2 = sum_g * np.conj(u_end)
    comp2 *= -eps
    u_p = grid.u_plus[-1]
    # H is real and J H J^-1 = -H with J = [[0, -1], [1, 0]], so the second
    # solution is w2 = J conj(w1): its columns need no second solve, and the
    # change of basis is the pair diag(u^-, u^+) (w1_1, w1_2) at t = r
    return dense(np.conj(u_p) * comp1[0], u_p * comp2[0])
