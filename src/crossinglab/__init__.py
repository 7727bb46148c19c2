"""crossinglab: numerics for two-level avoided crossings.

Exact unitary propagation, scattering-matrix extraction, and closed-form
asymptotic predictions (transfer-matrix products, interference factors,
regime classification) for Hamiltonians of the form

    H(t) = [[V(t), eps], [eps, -V(t)]]

with V from a family of analytic coupling functions with constant tails.
"""

__version__ = "0.1.0"

from . import errors
from .params import RegimeSplit, classify_regimes, mu, mu_tilde_1

__all__ = ["errors", "RegimeSplit", "classify_regimes", "mu", "mu_tilde_1",
           "__version__"]
