"""Two-parameter regime bookkeeping and the one regime rule.

The behaviour at a crossing of order m is governed by mu_m = eps * h**(-m/(m+1)):
small mu_m means the crossing is traversed diabatically (non-adiabatic regime),
large mu_m means the transition is exponentially suppressed (adiabatic regime).

The regime rule classes each crossing on its own:

* "N" (non-adiabatic) when its threshold value is at most
  MU_NONADIABATIC_MAX = 0.1.  The threshold value is the log-corrected
  mu~_1 = sqrt(log(1/h)) * eps / sqrt(h) for order 1 and mu_m otherwise;
* "A" (adiabatic) when plain mu_m is at least MU_ADIABATIC_MIN = 10;
* otherwise the crossing sits in the untreated band, which is refused
  (RegimeViolation), never interpolated.

For order 1 the two sides are not symmetric: the non-adiabatic side gates on
mu~_1, the adiabatic side on plain mu_1.  ``classify_regimes`` applies the rule
and is the only place that reads the thresholds; the closed forms check a
split against it once, on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import RegimeViolation

MU_NONADIABATIC_MAX = 0.1
MU_ADIABATIC_MIN = 10.0


def mu(m: int, eps: float, h: float) -> float:
    """Smallness parameter mu_m = eps * h**(-m/(m+1)) for a crossing of order m."""
    return eps * h ** (-m / (m + 1.0))


def mu_tilde_1(eps: float, h: float) -> float:
    """Log-corrected smallness parameter for transversal (order-1) crossings.

    Defined for h <= 1 only; RegimeViolation above, where log(1/h) < 0.
    """
    if h > 1.0:
        raise RegimeViolation(f"the log-corrected mu~_1 needs h <= 1, got h={h:.4g}")
    return math.sqrt(math.log(1.0 / h)) * eps * h ** (-0.5)


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
        sharp_odd = tuple(k for k in sharp if orders[k] % 2 == 1)
        return RegimeSplit(assignment, orders, m_flat, m_sharp, sharp_odd)

    @property
    def n_sharp_odd(self) -> int:
        """Count of odd-order adiabatic crossings (parity contribution N)."""
        return len(self.sharp_odd)

    @property
    def parity_odd(self) -> bool:
        """Combined parity of sigma_n and N: odd when P is near 1 at leading order."""
        return (sum(self.orders) + self.n_sharp_odd) % 2 == 1


def classify_regimes(orders, eps: float, h: float) -> RegimeSplit:
    """The regime rule's split of the given crossing orders at (eps, h).

    Raises RegimeViolation when any crossing sits in the untreated band.
    """
    assignment = []
    for k, m in enumerate(orders):
        mu_m = mu(m, eps, h)
        threshold = mu_tilde_1(eps, h) if m == 1 else mu_m
        if threshold <= MU_NONADIABATIC_MAX:
            assignment.append("N")
        elif mu_m >= MU_ADIABATIC_MIN:
            assignment.append("A")
        else:
            value = f"mu={mu_m:.4g}" + (f" (log-corrected {threshold:.4g})" if m == 1 else "")
            raise RegimeViolation(
                f"crossing {k} of order {m}: {value} lies in the untreated band "
                f"(above {MU_NONADIABATIC_MAX}, below {MU_ADIABATIC_MIN})")
    return RegimeSplit.build(list(orders), assignment)


def check_split(split: RegimeSplit, orders, eps: float, h: float) -> None:
    """Raise RegimeViolation unless ``split`` is the regime rule's split at (eps, h)."""
    expected = classify_regimes(orders, eps, h)
    if split != expected:
        raise RegimeViolation(
            f"split {split.assignment} of orders {split.orders} disagrees with the "
            f"regime rule's {expected.assignment} of orders {expected.orders} "
            f"at eps={eps:.4g}, h={h:.4g}")
