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
node.  Both base points are the grid's first node: the series and ``apply_K``
refuse any other, so every cumulative sum runs from node 0.

The grid holds u^+ and the ends of its interval, nothing more: u^- is
conj(u^+) and the nodes are a linspace over the ends, both formed when a
caller needs them.  The build evaluates V, accumulates the phase and forms
u^+ a block at a time, so it holds the phase and u^+ and nothing else
grid-sized.  The series runs in the interaction frame: with s the sign of
the leading component, its terms f, g are carried as F = f u^{-s} and
G = g u^{s}.  A term then costs two products by u^s, a conjugation and one
cumulative sum, exactly 0 at node 0; the factors i/h and eps^2 i/h ride in
the sum's step.  For s = -1 the series is run on u^+ and conjugated, so no
solve forms u^-.  ``apply_K`` is the same operator in the lab frame.

The series is summed in one pass over blocks of the grid: a block of u^+
runs through all its cumulative sums in turn, each on the nodes the one
before has completed, and each term's sup and last value are taken as the
blocks pass.  ``msa_solution`` adds the terms into its two components as
they pass and takes each block of them out of the interaction frame once
the last term is through it, so it holds the components and a few blocks.
``connection_T_numeric`` needs only the values at t = r: it runs the same
pass without the components, holds the grid and a few blocks, and its
values are ``msa_solution``'s last node, bit for bit.
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


def _check_base(grid: MsaGrid, t: float) -> None:
    """ValueError unless t is the grid's first node, the one base point."""
    if grid.index(t) != 0:
        raise ValueError(f"base point t={t} is not the grid's first node {grid.ends[0]}")


def apply_K(grid: MsaGrid, sign: int, a: float, f: np.ndarray) -> np.ndarray:
    """Volterra application K_a^+- f on the grid (sign +1 for K^+) in the lab
    frame, as a new array; the base point ``a`` must be the grid's first node."""
    _check_base(grid, a)
    g = f * grid.u(-sign)    # f / u^{sign} = f * u^{-sign}
    cumulative = cumulative_uniform(g, grid.dx * (1j / grid.h))
    cumulative *= grid.u(sign)
    return cumulative


@dataclass
class MsaSolution:
    grid: MsaGrid
    comp1: np.ndarray
    comp2: np.ndarray
    truncation_estimate: float = 0.0


def _leave_frame(sum_f, sum_g, u, u_minus, eps: float, lead_sign: int, scratch) -> None:
    """Take the sums at some nodes out of the interaction frame, in place:
    sum F becomes f = u^s sum F and sum G becomes -eps g = -eps u^{-s} sum G,
    the sums of a series run on u^+ for s = -1 being conjugated first.
    ``u`` and ``u_minus`` are u^+ and u^- at the nodes, ``scratch`` as long.
    Every product is made out of place: numpy rounds an in-place product on
    one element apart from the same product in a longer array, and the
    connection's one node must take ``msa_solution``'s bits."""
    if lead_sign < 0:
        np.conjugate(sum_f, out=sum_f)
        np.conjugate(sum_g, out=sum_g)
        u, u_minus = u_minus, u
    np.multiply(sum_f, u, out=scratch)
    sum_f[...] = scratch
    np.multiply(sum_g, u_minus, out=scratch)
    np.multiply(scratch, -eps, out=sum_g)


def _series(grid: MsaGrid, eps: float, lead_sign: int, depth: int, comps=None):
    """The Neumann series in the interaction frame, based at node 0, summed
    in one pass over blocks of the grid.

    With s = lead_sign the terms are F = f u^{-s} and G = g u^{s}; they follow
    G = (i/h) C[F (u^s)^2] and F' = eps^2 (i/h) C[G (u^{-s})^2] from F_0 = 1,
    C the cumulative rule from node 0, each of the 2 depth sums a
    ``RunningCumulative``.  G (u^{-s})^2 is conj(conj(G) (u^s)^2) and C
    commutes with conj, so every product is by u^s.

    ``comps``, when given, is a pair of grid-sized arrays holding 1 and 0:
    each term is added into them at the nodes it completes, and the nodes
    the last term has passed leave the interaction frame there and then, so
    they end as the solution's components f and -eps g.  Returns f and
    -eps g at the last node, as one-element arrays made by the same
    arithmetic, and the sups of the F terms (|F| = |f|, since |u| = 1);
    raises SeriesNotContracting unless each sup falls below the one before
    or is negligible (a sup that overflowed to inf or nan does neither).
    """
    u = grid.u_plus
    n = len(u)
    # the factors i/h and conj(eps^2 i/h) ride in the steps; for s = -1 the
    # series is the conjugate of the one on u^+ with conjugated steps
    scale = 1j / grid.h
    steps = grid.dx * scale, grid.dx * np.conj(eps * eps * scale)
    if lead_sign < 0:
        steps = np.conj(steps)
    runs = [RunningCumulative(step) for _ in range(depth) for step in steps]
    halo = RunningCumulative.HALO
    halos = np.empty((len(runs), halo), dtype=complex)   # each run's last samples
    done = [0] * len(runs)    # nodes each run has given
    left = 0                  # nodes out of the interaction frame
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
                terms, nodes = give[:k], slice(done[j], done[j] + k)
                u_k = u[nodes]
                done[j] += k
                if comps is not None and not j % 2:
                    comps[1][nodes] += terms
                np.conjugate(terms, out=terms)
                if j % 2:   # an F term, conj of its sum: |F| in take, spent
                    if comps is not None:
                        comps[0][nodes] += terms
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
            if comps is not None and done[-1] > left:
                # every term has passed these nodes; the buffers are spent
                nodes, m = slice(left, done[-1]), done[-1] - left
                np.conjugate(u[nodes], out=give[:m])
                _leave_frame(comps[0][nodes], comps[1][nodes], u[nodes], give[:m], eps,
                             lead_sign, take[:m])
                left = done[-1]
    for m in range(1, depth + 1):
        if not (sups[m] < sups[m - 1] or sups[m] <= 1e-14):
            raise SeriesNotContracting(
                f"term sups {sups[:m + 1]}: series not contracting (mu too large)")
    sum_f, sum_g = np.ones(1, dtype=complex), np.zeros(1, dtype=complex)
    for j in range(0, len(runs), 2):
        sum_g += ends[j]
        sum_f += ends[j + 1]
    u_end = u[-1:]
    _leave_frame(sum_f, sum_g, u_end, np.conj(u_end), eps, lead_sign, np.empty_like(u_end))
    return sum_f, sum_g, sups


def msa_solution(grid: MsaGrid, eps: float, which: str,
                 a_plus: float, a_minus: float, depth: int = 3) -> MsaSolution:
    """Truncated Neumann-series solution w1 or w2 on the grid.

    w1 is normalized to (u^+, 0) at the base points (first component seeded by
    u^+), w2 to (0, u^-).  Both base points must be the grid's first node.
    ``depth`` counts the eps^2 double applications; the recorded truncation
    estimate is the geometric tail of the term sups.  The series is summed in
    the connection's one pass (``_series``), into the two components, so the
    solve holds them and a few blocks of samples.
    """
    if which not in ("w1", "w2"):
        raise ValueError("which must be 'w1' or 'w2'")
    if depth < 1:
        raise ValueError("depth >= 1 required")
    _check_base(grid, a_plus)
    _check_base(grid, a_minus)

    n = len(grid.u_plus)
    lead, other = np.ones(n, dtype=complex), np.zeros(n, dtype=complex)
    lead_sign = +1 if which == "w1" else -1
    sups = _series(grid, eps, lead_sign, depth, (lead, other))[2]
    ratio = sups[-1] / sups[-2] if sups[-2] > 0 else 0.0
    tail = sups[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    comp1, comp2 = (lead, other) if which == "w1" else (other, lead)
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
    t = r in ``msa_solution``'s one pass over blocks of the grid, without its
    components, so beyond the grid the solve holds a few blocks of samples,
    whatever the grid's size.
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
    # only w1's values at t = r, by msa_solution's arithmetic
    comp1, comp2, _ = _series(grid, eps, +1, depth)
    u_p = grid.u_plus[-1]
    # H is real and J H J^-1 = -H with J = [[0, -1], [1, 0]], so the second
    # solution is w2 = J conj(w1): its columns need no second solve, and the
    # change of basis is the pair diag(u^-, u^+) (w1_1, w1_2) at t = r
    return dense(np.conj(u_p) * comp1[0], u_p * comp2[0])
