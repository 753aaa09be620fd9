"""Brute-force ground truth, independent of the analytic machinery.

Two layers. ``grid_search_inner`` exhaustively evaluates the inner
expression over a dense rational grid on the mixture simplex, giving a
certified lower bound that converges to the family value as the grid
refines. ``definitional_leakage`` starts one level further back: it
realizes the measure's operational definition by building an auxiliary
variable U that determines the input X (each input x owns a block of
|U_x| equally likely u values), solving the estimator maximizations in
closed form, and scanning full-support input laws together with all
block-size vectors. Both are deliberately written without reference to
the optimizer or the dispatch logic in :mod:`chanleak.measures` so that
agreement between the two is evidence, not tautology.

The block-size scan only reaches mixture weights of the form
w(x) proportional to |U_x|^(1-alpha) P_X(x)^alpha, and capped sizes keep
that set coarse near the simplex boundary; the sup over the definition's
family also contains the limit points where the output law collapses
onto a single row. Those limits are therefore scanned explicitly (each
channel row as reference, same mixture weights), keeping every reported
value a true lower bound while letting fixed budgets reach the
vertex-attained optima.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Channel, LeakageValue, OrderPair, SimplexPoint
from .errors import BudgetExceeded, InvalidEntry
from ._logdomain import logsumexp as _logsumexp

__all__ = [
    "ShatterSpec",
    "grid_search_inner",
    "definitional_leakage",
    "estimator_gain_denominator",
]

# enumeration guards; exhaustive scans refuse to start past these
_GRID_POINT_CAP = 2_000_000
_DEFINITIONAL_EVAL_CAP = 5_000_000

# a log entry of P lies in [-745, 0], so an order up to this times it stays finite
_ORDER_CAP = np.finfo(float).max / 746.0


@dataclass(frozen=True)
class ShatterSpec:
    """Block sizes |U_x| for the input-determining auxiliary variable."""

    sizes: tuple[int, ...]
    total_cap: int = 64

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) == 0 or any(s < 1 for s in sizes):
            raise InvalidEntry(f"every block size must be a positive integer, got {self.sizes!r}")
        if sum(sizes) > self.total_cap:
            raise BudgetExceeded(f"total block count {sum(sizes)} exceeds the cap {self.total_cap}")

    def induced_tilt(self, p_x: SimplexPoint, alpha: float) -> SimplexPoint:
        """The mixture weight vector w(x) proportional to |U_x|^(1-alpha) P_X(x)^alpha."""
        a = float(alpha)
        if not math.isfinite(a) or a <= 1.0:
            raise InvalidEntry(f"alpha must be finite in (1, inf), got {alpha!r}")
        if len(self.sizes) != len(p_x):
            raise InvalidEntry(f"{len(self.sizes)} block sizes against {len(p_x)} input weights")
        with np.errstate(divide="ignore"):
            logt = (1.0 - a) * np.log(np.array(self.sizes, dtype=float)) + a * np.log(p_x.weights)
        logt = logt - _logsumexp(logt)
        return SimplexPoint.from_weights(np.exp(logt))


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``.

    Rows come as int64 in ascending lexicographic order, from
    (0, ..., 0, total) to (total, 0, ..., 0). Each part but the last
    expands every row into one child per value it can take, in order.
    """
    columns: list[np.ndarray] = []
    rest = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        counts = rest + 1
        starts = np.cumsum(counts) - counts
        head = np.arange(counts.sum(), dtype=np.int64) - np.repeat(starts, counts)
        columns = [np.repeat(column, counts) for column in columns]
        columns.append(head)
        rest = np.repeat(rest, counts) - head
    columns.append(rest)
    return np.stack(columns, axis=1)


def _log_outputs(weights: np.ndarray, logP: np.ndarray, alpha: float) -> np.ndarray:
    """log B of the (K, m) alpha-mixtures weights @ P^alpha, laid out as (m, K) rows.

    Each column of P is scaled by its largest entry before the power, so
    P^alpha does not underflow at large alpha:
    log B = log(weights @ exp(alpha (log P - colmax))) + alpha colmax.
    """
    colmax = logP.max(axis=0)
    colmax[np.isneginf(colmax)] = 0.0  # a column no input reaches keeps B = 0
    out = np.empty((logP.shape[1], len(weights)))
    with np.errstate(divide="ignore"):
        np.log((weights @ np.exp(alpha * (logP - colmax))).T, out=out)
    out += alpha * colmax[:, None]
    return out


def _power_sum_log(log_ref: np.ndarray, logB: np.ndarray, beta: float, ba: float) -> np.ndarray:
    """Columns of log sum_y ref(y)^(1-beta) * B(y)^(beta/alpha), conventions applied.

    ``logB`` has shape (m, K), one row per output, so every reduction runs
    along rows; ``log_ref`` is (m, 1), one reference for every column, or
    (m, K), one per column. At beta = 1 the reference drops out entirely.
    Above it a -inf in log_ref against a live B sends the column to +inf,
    as (1 - beta) * -inf = +inf, and a -inf in logB kills its term, even
    against a zero reference.
    """
    T = np.multiply(logB, ba)
    if beta != 1.0:
        with np.errstate(invalid="ignore"):
            T += (1.0 - beta) * log_ref
        np.copyto(T, -np.inf, where=np.isneginf(logB))
    return _logsumexp(T, axis=0)


def _finite_order(order: OrderPair) -> tuple[float, float]:
    if order.alpha_infinite or order.beta_infinite:
        raise InvalidEntry("the oracle evaluates finite orders only; approach infinity with large finite values")
    if max(order.alpha, order.beta) > _ORDER_CAP:
        raise InvalidEntry(f"the oracle evaluates orders up to {_ORDER_CAP:.6e}, got {order!r}")
    return order.alpha, order.beta


def grid_search_inner(channel: Channel, order: OrderPair, resolution: int) -> LeakageValue:
    """Exhaustive maximum of the inner expression over the rational simplex grid.

    Every mixture weight vector with denominators equal to ``resolution``
    is evaluated against every reference input; the result lower-bounds
    the family value and converges to it as the resolution grows. Grids
    whose resolution divides another's are nested, so refinement along
    doubling chains is monotone.
    """
    alpha, beta = _finite_order(order)
    r = int(resolution)
    if r < 1:
        raise InvalidEntry(f"resolution must be a positive integer, got {resolution!r}")
    n = channel.n_inputs
    if n > 4:
        raise BudgetExceeded(f"grid enumeration over {n} inputs explodes; 4 is the ceiling")
    points = math.comb(r + n - 1, n - 1)
    if points > _GRID_POINT_CAP:
        raise BudgetExceeded(f"{points} grid points exceed the cap {_GRID_POINT_CAP}")

    weights = _compositions(r, n) / r
    with np.errstate(divide="ignore"):
        logP = np.log(channel.matrix)
    logB = _log_outputs(weights, logP, alpha)
    log_rows = logP[:, :, None]  # each row as an (m, 1) reference
    pref = alpha / (alpha - 1.0) / beta
    ba = beta / alpha
    best = -math.inf
    references = range(1) if beta == 1.0 else range(n)
    for x_prime in references:
        best = max(best, pref * float(np.max(_power_sum_log(log_rows[x_prime], logB, beta, ba))))
    return LeakageValue(best)


def definitional_leakage(channel: Channel, order: OrderPair, px_grid: int, shatter_cap: int) -> LeakageValue:
    """Scan the operational definition's achievable family on a tiny channel.

    For every full-support input law on the grid with denominators
    ``px_grid`` and every block-size vector with entries up to
    ``shatter_cap``, the closed-form value of the definition's inner
    maximizations is evaluated twice: once against the induced output
    law, and once against each single channel row (the boundary limits of
    the same family, see the module docstring). The maximum over
    everything is a certified lower bound on the family value that
    approaches it as both budgets grow.

    The output-law references are the definition's own term; the channel
    rows are its limits. By Jensen (t^(1-beta) is convex for beta > 1) a
    tilt's sum against the output law is at most the input law's average
    of its sums against the rows, so the rows dominate and the output-law
    term never raises the bound. It stays so that this oracle evaluates
    the definition itself, not only its limits.
    """
    alpha, beta = _finite_order(order)
    n, m = channel.n_inputs, channel.n_outputs
    if n > 3 or m > 3:
        raise BudgetExceeded(f"definitional scan is limited to 3x3 channels, got {n}x{m}")
    gp = int(px_grid)
    if gp < n:
        raise InvalidEntry(f"px_grid {px_grid!r} cannot carry a full-support law over {n} inputs")
    sc = int(shatter_cap)
    if sc < 1:
        raise InvalidEntry(f"shatter_cap must be a positive integer, got {shatter_cap!r}")
    n_px = math.comb(gp - 1, n - 1)
    n_sizes = sc**n
    if n_px * n_sizes * (n + 1) > _DEFINITIONAL_EVAL_CAP:
        raise BudgetExceeded(
            f"{n_px} input laws x {n_sizes} block vectors exceed the evaluation cap {_DEFINITIONAL_EVAL_CAP}"
        )

    # full-support laws: positive compositions of the grid denominator
    px = (_compositions(gp - n, n).astype(float) + 1.0) / gp
    sizes = np.array(list(itertools.product(range(1, sc + 1), repeat=n)), dtype=float)
    log_sizes = np.log(sizes)

    # mixture weights induced by each (input law, block vector) pair
    logt = alpha * np.log(px)[:, None, :] + (1.0 - alpha) * log_sizes[None, :, :]
    logt = logt.reshape(-1, n)
    logt = logt - _logsumexp(logt, axis=1)[:, None]
    tilts = np.exp(logt)

    with np.errstate(divide="ignore"):
        logP = np.log(channel.matrix)
        log_py = np.log(px @ channel.matrix)
    logB = _log_outputs(tilts, logP, alpha)
    log_rows = logP[:, :, None]  # each row as an (m, 1) reference
    pref = alpha / (alpha - 1.0) / beta
    ba = beta / alpha

    # each tilt against the output law of the input law that induced it,
    # then the boundary limits: the output law collapsed onto one channel row
    references = [np.repeat(log_py.T, len(sizes), axis=1), *log_rows]
    best = -math.inf
    for log_ref in references:
        best = max(best, pref * float(np.max(_power_sum_log(log_ref, logB, beta, ba))))
    return LeakageValue(best)


def estimator_gain_denominator(p_u, alpha: float) -> float:
    """Closed form (sum_u P_U(u)^alpha)^(1/alpha) of the blind estimator's best gain."""
    a = float(alpha)
    if not math.isfinite(a) or a <= 1.0:
        raise InvalidEntry(f"alpha must be finite in (1, inf), got {alpha!r}")
    point = p_u if isinstance(p_u, SimplexPoint) else SimplexPoint.from_weights(p_u)
    with np.errstate(divide="ignore"):
        logp = np.log(point.weights)
    return math.exp(_logsumexp(a * logp) / a)
