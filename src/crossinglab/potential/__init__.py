from .families import (
    LinearLZ,
    PolynomialWindowed,
    PotentialModel,
    ScaledTanhProduct,
    model_from_config,
)
from .catalog import (
    Crossing,
    CrossingCatalog,
    find_crossings,
    phase_integral,
    regularized_action,
)
from .turning import TurningPoint, TurningPointSet, turning_points

__all__ = [
    "PotentialModel", "LinearLZ", "ScaledTanhProduct", "PolynomialWindowed",
    "model_from_config", "Crossing", "CrossingCatalog", "find_crossings",
    "regularized_action",
    "phase_integral", "TurningPoint", "TurningPointSet", "turning_points",
]
