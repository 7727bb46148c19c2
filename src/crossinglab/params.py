"""Two-parameter regime bookkeeping.

The behaviour at a crossing of order m is governed by mu_m = eps * h**(-m/(m+1)):
small mu_m means the crossing is traversed diabatically (non-adiabatic regime),
large mu_m means the transition is exponentially suppressed (adiabatic regime).
The band in between is untreated and must be refused or flagged, never
interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import RegimeViolation

# Regime thresholds for the asymptotic formulas.  Values of mu_m in the open
# band (MU_NONADIABATIC_MAX, MU_ADIABATIC_MIN) are out of reach of either
# expansion.
MU_NONADIABATIC_MAX = 0.1
MU_ADIABATIC_MIN = 10.0


def mu(m: int, eps: float, h: float) -> float:
    """Smallness parameter mu_m = eps * h**(-m/(m+1)) for a crossing of order m."""
    return eps * h ** (-m / (m + 1.0))


def mu_tilde_1(eps: float, h: float) -> float:
    """Log-corrected smallness parameter for transversal (order-1) crossings."""
    return math.sqrt(math.log(1.0 / h)) * eps * h ** (-0.5)


@dataclass(frozen=True)
class RegimeParams:
    """A point (eps, h) of parameter space plus derived regime data."""

    eps: float
    h: float

    def mu(self, m: int) -> float:
        return mu(m, self.eps, self.h)

    def mu_threshold_value(self, m: int) -> float:
        """Value compared against regime thresholds for a crossing of order m.

        Order-1 crossings use the log-corrected parameter; tangential ones use
        plain mu_m.
        """
        if m == 1:
            return mu_tilde_1(self.eps, self.h)
        return self.mu(m)

    def classify_order(self, m: int,
                       lo: float = MU_NONADIABATIC_MAX,
                       hi: float = MU_ADIABATIC_MIN) -> str:
        """Classify a crossing order as "N", "A", or "forbidden"."""
        value = self.mu_threshold_value(m)
        if value <= lo:
            return "N"
        if value >= hi:
            return "A"
        return "forbidden"


@dataclass(frozen=True)
class RegimeSplit:
    """Assignment of each crossing to the non-adiabatic or adiabatic branch.

    ``assignment[k]`` is "N" or "A" for the k-th crossing (ordered by
    decreasing position, as in the catalog).  Derived index sets follow the
    flat/sharp split: m_flat is the largest order among non-adiabatic
    crossings, m_sharp the smallest among adiabatic ones.
    """

    assignment: tuple[str, ...]
    orders: tuple[int, ...]
    m_flat: int | None = field(default=None)
    m_sharp: int | None = field(default=None)
    lambda_flat: tuple[int, ...] = field(default=())
    lambda_sharp: tuple[int, ...] = field(default=())
    sharp_odd: tuple[int, ...] = field(default=())

    @staticmethod
    def build(orders: list[int] | tuple[int, ...],
              assignment: list[str] | tuple[str, ...]) -> "RegimeSplit":
        assignment = tuple(assignment)
        orders = tuple(orders)
        if len(assignment) != len(orders):
            raise ValueError("assignment and orders length mismatch")
        flat = [k for k, a in enumerate(assignment) if a == "N"]
        sharp = [k for k, a in enumerate(assignment) if a == "A"]
        m_flat = max((orders[k] for k in flat), default=None)
        m_sharp = min((orders[k] for k in sharp), default=None)
        lambda_flat = tuple(k for k in flat if orders[k] == m_flat)
        lambda_sharp = tuple(k for k in sharp if orders[k] == m_sharp)
        sharp_odd = tuple(k for k in sharp if orders[k] % 2 == 1)
        return RegimeSplit(assignment, orders, m_flat, m_sharp,
                           lambda_flat, lambda_sharp, sharp_odd)

    @property
    def n_sharp_odd(self) -> int:
        """Count of odd-order adiabatic crossings (parity contribution N)."""
        return len(self.sharp_odd)


def classify_regimes(orders, eps: float, h: float,
                     lo: float = MU_NONADIABATIC_MAX,
                     hi: float = MU_ADIABATIC_MIN,
                     force: list[str] | None = None) -> RegimeSplit:
    """Build a RegimeSplit for the given crossing orders at (eps, h).

    Raises RegimeViolation when any crossing sits in the untreated band,
    unless ``force`` supplies an explicit assignment (used by demo paths that
    document their own desk-scale thresholds).
    """
    if force is not None:
        return RegimeSplit.build(list(orders), force)
    params = RegimeParams(eps, h)
    assignment = []
    for k, m in enumerate(orders):
        cls = params.classify_order(m, lo=lo, hi=hi)
        if cls == "forbidden":
            raise RegimeViolation(
                f"crossing {k} of order {m}: mu={params.mu_threshold_value(m):.4g} "
                f"lies in the untreated band ({lo}, {hi})")
        assignment.append(cls)
    return RegimeSplit.build(list(orders), assignment)
