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
caller needs them.  The build evaluates V, accumulates the phase and forms
u^+ a block at a time, so it holds the phase and u^+ and nothing else
grid-sized.  The series runs in the interaction frame: with s the sign of
the leading component, its terms f, g are carried as F = f u^{-s} and
G = g u^{s}.  A term then costs two products by u^s, a conjugation and one
cumulative sum, whose ``origin`` is the base node, so it is exactly 0
there; the factors i/h and eps^2 i/h ride in the sum's step.  For s = -1
the series is run on u^+ and conjugated, so no solve forms u^-.
``apply_K`` is the same operator in the lab frame.

``msa_solution`` sums whole arrays: it holds two term buffers and the two
components u^s sum F and -eps u^{-s} sum G, formed at the end.
``connection_T_numeric`` needs only their values at t = r and has both base
points at node 0, so it sums the series in one pass over blocks of the grid:
a block of u^+ runs through all its cumulative sums in turn, each on the
nodes the one before has completed, and each term's sup and last value are
taken as the blocks pass.  A connection holds the grid and a few blocks, and
its sums at t = r are ``msa_solution``'s, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureTolExceeded, SeriesNotContracting
from .potential.catalog import CrossingCatalog, find_crossings, phase_integral
from .quadrature import (_CUMULATIVE_BLOCK, RunningCumulative, accumulate_from,
                         cumulative_uniform)
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
    is exact rather than a difference of two sums of size Phi(a).  V is
    evaluated a block at a time and the blocks feed the cumulative rule's
    increments straight into the result, so no other grid-sized array is
    made."""
    a, n = points[0], len(points)
    dx = (points[-1] - a) / (n - 1)
    origin = min(max(int(round((t_ref - a) / dx)), 0), n - 1)
    phase = np.empty(n)
    run, done = RunningCumulative(dx), 0
    # V a block at a time, after the halo of the block before
    window = np.empty(min(n, _CUMULATIVE_BLOCK) + run.HALO)
    for lo in range(0, n, _CUMULATIVE_BLOCK):
        halo = run.halo()
        piece = window[:halo + min(n - lo, _CUMULATIVE_BLOCK)]
        piece[halo:] = np.real(model.eval(points[lo:lo + _CUMULATIVE_BLOCK]))
        done += run.increments(piece, phase[1 + done:], last=lo + _CUMULATIVE_BLOCK >= n)
        window[:run.HALO] = piece[-run.HALO:]
    accumulate_from(phase, origin)
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
        # the nodes go once the phase is made; u^+ is formed in place a block
        # at a time, so the phase is the only other grid-sized array
        phase = grid_phase(model, np.linspace(a, b, n), t_ref)
        u_plus = np.empty(n, dtype=complex)
        for lo in range(0, n, _CUMULATIVE_BLOCK):
            block = slice(lo, lo + _CUMULATIVE_BLOCK)
            np.divide(phase[block], h, out=phase[block])
            np.multiply(phase[block], -1j, out=u_plus[block])
            np.exp(u_plus[block], out=u_plus[block])
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


def _check_contracting(sups: list[float]) -> None:
    """SeriesNotContracting unless each term's sup falls below the one before
    or is negligible (a sup that overflowed to inf or nan does neither)."""
    for n in range(1, len(sups)):
        if not (sups[n] < sups[n - 1] or sups[n] <= 1e-14):
            raise SeriesNotContracting(
                f"term sups {sups[:n + 1]}: series not contracting (mu too large)")


def _series_steps(grid: MsaGrid, eps: float, lead_sign: int) -> tuple[complex, complex]:
    """The steps of the cumulative sums for G and F: the factors i/h and
    conj(eps^2 i/h) ride in them; for s = -1 the series is the conjugate of
    the one on u^+ with conjugated steps."""
    scale = 1j / grid.h
    step_g = grid.dx * scale
    step_f = grid.dx * np.conj(eps * eps * scale)
    if lead_sign < 0:
        return np.conj(step_g), np.conj(step_f)
    return step_g, step_f


def _series_sums(grid: MsaGrid, eps: float, lead_sign: int, a_lead: float,
                 a_other: float, depth: int):
    """The Neumann series in the interaction frame, summed at every node.

    With s = lead_sign the terms are F = f u^{-s} and G = g u^{s}; they follow
    G = (i/h) C_{a_other}[F (u^s)^2] and F' = eps^2 (i/h) C_{a_lead}[G (u^{-s})^2]
    from F_0 = 1, C being ``cumulative_uniform`` with its origin at the base
    node.  Returns sum F and sum G and the sups of the F terms (|F| = |f|,
    since |u| = 1); raises SeriesNotContracting when a sup does not fall.
    """
    i_lead, i_other = grid.index(a_lead), grid.index(a_other)
    u = grid.u_plus
    # G (u^{-s})^2 is conj(conj(G) (u^s)^2), and C commutes with conj, so
    # both products are by u^s, made in place in the two term buffers
    step_g, step_f = _series_steps(grid, eps, lead_sign)
    f, g = np.empty_like(u), np.empty_like(u)
    sum_f, sum_g = np.ones_like(u), np.zeros_like(u)
    sups = [1.0]
    for n in range(depth):
        if n:
            f *= u
            f *= u
        else:
            np.square(u, out=f)    # F_0 (u^s)^2, F_0 = 1
        cumulative_uniform(f, step_g, out=g, origin=i_other)
        sum_g += g
        np.conjugate(g, out=g)
        g *= u
        g *= u
        cumulative_uniform(g, step_f, out=f, origin=i_lead)
        np.conjugate(f, out=f)
        sum_f += f
        # g is spent: its real parts take |F|
        sups.append(float(np.max(np.abs(f, out=g.real))))
        _check_contracting(sups)
    if lead_sign < 0:
        np.conjugate(sum_f, out=sum_f)
        np.conjugate(sum_g, out=sum_g)
    return sum_f, sum_g, sups


def _end_sums(grid: MsaGrid, eps: float, depth: int):
    """w1's series based at node 0, summed at the last node in one pass.

    ``_series_sums`` at the last node, bit for bit, when both base points
    are node 0: each of the 2 depth cumulative sums is a ``RunningCumulative``,
    and a block of u^+ runs through all of them in turn, each term's samples
    formed from the nodes its predecessor has completed.  Each term's sup and
    last value are taken as its blocks pass, so nothing grid-sized is made.
    Returns sum F and sum G at the last node, as one-element arrays, and the
    sups of the F terms.
    """
    u = grid.u_plus
    n = len(u)
    step_g, step_f = _series_steps(grid, eps, +1)
    runs = [RunningCumulative(step) for _ in range(depth) for step in (step_g, step_f)]
    halo = RunningCumulative.HALO
    halos = np.empty((len(runs), halo), dtype=complex)   # each run's last samples
    done = [0] * len(runs)    # nodes each run has given
    ends = [None] * len(runs)
    sups = [1.0] + [0.0] * depth
    # a run gives at most two nodes more than it takes
    size = halo + min(n, _CUMULATIVE_BLOCK) + 2 * len(runs)
    take, give = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    # terms of a mu that does not contract may overflow before the check
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _CUMULATIVE_BLOCK):
            last = lo + _CUMULATIVE_BLOCK >= n
            block = u[lo:lo + _CUMULATIVE_BLOCK]
            k = len(block)
            np.square(block, out=take[halo:halo + k])    # F_0 (u^+)^2, F_0 = 1
            for j, run in enumerate(runs):
                h = run.halo()
                window = take[halo - h:halo + k]
                window[:h] = halos[j, halo - h:]
                halos[j, halo - min(len(window), halo):] = window[-halo:]
                k = run.integral(window, give, last)
                if not k:
                    break
                terms, u_k = give[:k], u[done[j]:done[j] + k]
                done[j] += k
                np.conjugate(terms, out=terms)
                if j % 2:   # an F term, conj of its sum: |F| in take, spent
                    sup = float(np.abs(terms, out=take.view(float)[:k]).max())
                    sups[1 + j // 2] = max(sups[1 + j // 2], sup)
                    ends[j] = terms[-1]
                else:       # a G term, conjugated for the product below
                    ends[j] = np.conj(terms[-1])
                if j + 1 == len(runs):
                    break
                # the next run's samples, conj(G) (u^+)^2 or F (u^+)^2, after
                # its halo; made out of place, as numpy rounds an in-place
                # product on one element apart (see quadrature._interior)
                np.multiply(terms, u_k, out=take[halo:halo + k])
                np.multiply(take[halo:halo + k], u_k, out=give[halo:halo + k])
                take, give = give, take
    _check_contracting(sups)
    sum_f, sum_g = np.ones(1, dtype=complex), np.zeros(1, dtype=complex)
    for j in range(0, len(runs), 2):
        sum_g += ends[j]
        sum_f += ends[j + 1]
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
                                               depth)
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
    w1 is solved; w2 follows from it by symmetry.  Its series is summed at
    t = r in one pass over blocks of the grid (``_end_sums``), so beyond the
    grid the solve holds a few blocks of samples, whatever the grid's size.
    A given grid must be built for this model and h, span exactly [ell, r]
    and take its phase from t_k.
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
    # only w1's end values: the series summed at the last node in one pass and
    # taken out of the interaction frame by msa_solution's products, on new
    # one-element arrays (numpy rounds a product of scalars, or one made in
    # place in a one-element array, apart from the same product in a longer
    # array)
    sum_f, sum_g, _ = _end_sums(grid, eps, depth)
    u_end = grid.u_plus[-1:]
    comp1 = sum_f * u_end
    comp2 = sum_g * np.conj(u_end)
    comp2 *= -eps
    u_p = grid.u_plus[-1]
    # H is real and J H J^-1 = -H with J = [[0, -1], [1, 0]], so the second
    # solution is w2 = J conj(w1): its columns need no second solve, and the
    # change of basis is the pair diag(u^-, u^+) (w1_1, w1_2) at t = r
    return dense(np.conj(u_p) * comp1[0], u_p * comp2[0])
