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
    area_adjacent,
    area_between,
    effective_potential,
    find_crossings,
    phase_integral,
    regularized_action,
)
from .turning import TurningPoint, TurningPointSet, turning_points

__all__ = [
    "PotentialModel", "LinearLZ", "ScaledTanhProduct", "PolynomialWindowed",
    "model_from_config", "Crossing", "CrossingCatalog", "find_crossings",
    "area_between", "regularized_action", "effective_potential",
    "phase_integral", "TurningPoint", "TurningPointSet", "turning_points",
]
