"""Leakage measures for finite-alphabet channels.

A channel is a row-stochastic matrix; the library evaluates a
two-parameter family of worst-case information leakage measures on it,
together with the classical quantities the family interpolates (maximal
leakage, local differential privacy, Renyi-divergence based pointwise
leakage, channel capacity) and brute-force oracles for cross-checking.
"""

from .core import (
    Channel,
    LeakageValue,
    OrderPair,
    SimplexPoint,
    compose,
    product,
    push_forward,
    read_channel_csv,
    validate_channel,
    write_channel_csv,
)
from .errors import (
    BudgetExceeded,
    ChanleakError,
    DegenerateInput,
    InvalidEntry,
    NotStochastic,
    NumericalFailure,
    ShapeError,
)
from .measures import (
    MeasureResult,
    alpha_tau_leakage,
    alpha_tau_order,
    inner_gradient,
    inner_objective,
    ldp,
    lrdp,
    lrdp_variant,
    maximal_alpha_beta_leakage,
    maximal_alpha_leakage,
    maximal_leakage,
    optimal_q_y,
    shannon_capacity,
    variational_objective,
)
from .optim import OptimizerConfig, OptimizerReport
from .oracle import definitional_leakage, grid_search_inner

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "LeakageValue",
    "OrderPair",
    "SimplexPoint",
    "compose",
    "product",
    "push_forward",
    "read_channel_csv",
    "validate_channel",
    "write_channel_csv",
    "ChanleakError",
    "InvalidEntry",
    "NotStochastic",
    "ShapeError",
    "NumericalFailure",
    "DegenerateInput",
    "BudgetExceeded",
    "MeasureResult",
    "maximal_alpha_beta_leakage",
    "maximal_leakage",
    "maximal_alpha_leakage",
    "ldp",
    "lrdp",
    "lrdp_variant",
    "alpha_tau_order",
    "alpha_tau_leakage",
    "inner_objective",
    "inner_gradient",
    "variational_objective",
    "optimal_q_y",
    "shannon_capacity",
    "OptimizerConfig",
    "OptimizerReport",
    "grid_search_inner",
    "definitional_leakage",
    "__version__",
]
