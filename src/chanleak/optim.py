"""The certified solver of the concave regime, beta < alpha.

For finite orders beta < alpha the family value is

    max over x' of  pref * log max over p on the simplex of G(p),
    G(p) = sum_y r(y) (A p)_y^c,

with A = P^alpha, r = P(x', .)^(1-beta), c = beta/alpha in (0, 1) and
pref = alpha / ((alpha-1) beta). G is concave and homogeneous of degree c,
so <p, grad G> = c G, and with ratio = grad G / (c G) concavity gives

    G(p) <= max G <= G(p) + max grad G - <p, grad G> = G(p) (1 + c (max ratio - 1)),

a bracket that holds at every p. The update p <- p * ratio^(1/(1-c)),
renormalized, maximizes a lower bound of G that touches it at p (Jensen on
t -> t^c), so G never decreases: the multiplicative scheme of Blahut and
Arimoto, which Arimoto extended to order-alpha capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SimplexPoint
from .errors import NumericalFailure, ShapeError

__all__ = ["OptimizerConfig", "OptimizerReport", "maximize_power_sum"]

# The loop runs on to this fraction of the requested tolerance: the
# iterate's shortfall below the supremum tracks its gap almost one to one,
# so a value certified to the tolerance is also accurate to it.
_MARGIN = 1e-2

# Bracket ends are logs of sums over n + m terms; differences below this
# many units in the last place of them are rounding, never a certificate.
_ROUNDING_ULPS = 4.0
_EPS = float(np.finfo(float).eps)

# Every weight stays above e^-600 times the largest, so each reached
# output keeps a mixture far above underflow and B^(c-1) stays finite,
# even where reference weights underflowed to 0; a weight this small moves
# no value by a representable amount.
_LOG_WEIGHT_FLOOR = -600.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for :func:`maximize_power_sum`.

    ``tolerance`` bounds the certified gap at exit; ``max_iterations``
    caps the number of multiplicative steps.
    """

    max_iterations: int = 10_000
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ShapeError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (self.tolerance > 0.0):
            raise ShapeError(f"tolerance must be positive, got {self.tolerance!r}")


@dataclass(frozen=True, eq=False)
class OptimizerReport:
    """Outcome of a simplex maximization.

    ``certified_gap`` bounds how far ``value`` can sit below the true
    supremum; ``converged`` holds exactly when that gap is within the
    configured tolerance.
    """

    value: float
    maximizer: SimplexPoint
    iterations: int
    certified_gap: float
    converged: bool


def maximize_power_sum(logP: np.ndarray, alpha: float, beta: float,
                       config: OptimizerConfig) -> tuple[int, OptimizerReport]:
    """Maximize the family's inner expression over x' and p, for finite beta < alpha.

    ``logP`` is the log of the channel matrix. At beta > 1 a zero entry in
    a column that some input reaches makes the value +inf; the caller
    settles that case before calling. All reference inputs run at once
    (one, when beta = 1 and the reference row drops out); each step is two
    matrix products in the column-scaled domain exp(alpha log P - column
    max), where the largest entry of each column is 1 at any alpha.

    Returns the winning reference input (the last one among exact ties)
    and the report of its mixture. The certified gap is the best upper
    end of the brackets minus the reported value, never below the
    rounding of the bracket ends. Non-convergence is reported, never raised.
    """
    logP = logP[:, ~np.all(np.isneginf(logP), axis=0)]  # outputs no input reaches
    n, m = logP.shape
    c = beta / alpha
    pref = alpha / (alpha - 1.0) / beta  # (alpha-1) beta overflows at huge orders
    colmax = logP.max(axis=0)
    A = np.exp(alpha * (logP - colmax))
    # r(y) times the column scale raised to c, one row per reference input
    logR = beta * colmax[None, :] if beta == 1.0 else (1.0 - beta) * logP + beta * colmax
    shift = logR.max(axis=1)
    R = np.exp(logR - shift[:, None])
    logp = np.zeros(R.shape[:1] + (n,))  # log weights up to a per-row constant
    p = np.full_like(logp, 1.0 / n)
    iterations = 0
    # log(0) for an input whose scaled row underflowed to 0 meets the weight floor
    with np.errstate(divide="ignore"):
        while True:
            B = p @ A
            W = R * B ** (c - 1.0)
            G = (W * B).sum(axis=1)
            ratio = (W @ A.T) / G[:, None]
            lower = pref * (np.log(G) + shift)
            upper = lower + pref * np.log1p(c * (ratio.max(axis=1) - 1.0))
            best = len(lower) - 1 - int(np.argmax(lower[::-1]))
            value = float(lower[best])
            floor = _ROUNDING_ULPS * (n + m) * _EPS * max(pref, abs(value))
            gap = max(float(upper.max()) - value, floor)
            if not math.isfinite(gap):
                raise NumericalFailure("the power-sum bracket is not finite")
            if gap <= max(config.tolerance * _MARGIN, floor) or iterations == config.max_iterations:
                break
            logp += np.log(ratio) / (1.0 - c)
            logp = np.maximum(logp - logp.max(axis=1, keepdims=True), _LOG_WEIGHT_FLOOR)
            p = np.exp(logp)
            p /= p.sum(axis=1, keepdims=True)
            iterations += 1
    report = OptimizerReport(
        value=value,
        maximizer=SimplexPoint(p[best]),
        iterations=iterations,
        certified_gap=gap,
        converged=gap <= config.tolerance,
    )
    return best, report
