"""Brute-force ground truth, independent of the analytic machinery.

The module's only public names are its two oracles. ``grid_search_inner``
exhaustively evaluates the inner expression over a dense rational grid
on the mixture simplex, giving a certified lower bound that converges to
the family value as the grid refines. ``definitional_leakage`` starts
one level further back: it realizes the measure's operational definition
by building an auxiliary variable U that determines the input X (each
input x owns a block of |U_x| equally likely u values), solving the
estimator maximizations in closed form, and scanning full-support input
laws together with all block-size vectors. Both are deliberately written
without reference to the optimizer or the dispatch logic in
:mod:`chanleak.measures` so that agreement between the two is evidence,
not tautology.

The block-size scan only reaches mixture weights of the form
w(x) proportional to |U_x|^(1-alpha) P_X(x)^alpha, and capped sizes keep
that set coarse near the simplex boundary; the sup over the definition's
family also contains the limit points where the output law collapses
onto a single row. Those limits are therefore scanned explicitly (each
channel row as reference, same mixture weights), keeping every reported
value a true lower bound while letting fixed budgets reach the
vertex-attained optima. The tilt is computed in one place, inside
``definitional_leakage``, and both oracles end in one shared scan of
their mixtures against their references.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import Channel, LeakageValue, OrderPair, _finite_orders, _logsumexp, _positive_int
from .errors import BudgetExceeded, InvalidEntry

__all__ = ["grid_search_inner", "definitional_leakage"]

# enumeration guards; exhaustive scans refuse to start past these
_GRID_POINT_CAP = 2_000_000
_DEFINITIONAL_EVAL_CAP = 5_000_000


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


def _best_value(references, weights: np.ndarray, logP: np.ndarray, alpha: float, beta: float) -> LeakageValue:
    """The largest inner value of every mixture in ``weights`` against every reference.

    Each reference is a log law of shape (m, 1), one for every mixture, or
    (m, K), one per mixture. The prefactor alpha / ((alpha - 1) beta) is
    positive, so it multiplies the largest log power sum once.
    """
    logB = _log_outputs(weights, logP, alpha)
    ba = beta / alpha
    best = -math.inf
    for log_ref in references:
        best = max(best, float(np.max(_power_sum_log(log_ref, logB, beta, ba))))
    return LeakageValue(alpha / (alpha - 1.0) / beta * best)


def grid_search_inner(channel: Channel, order: OrderPair, resolution: int) -> LeakageValue:
    """Exhaustive maximum of the inner expression over the rational simplex grid.

    Every mixture weight vector with denominators equal to ``resolution``
    is evaluated against every reference input; the result lower-bounds
    the family value and converges to it as the resolution grows. Grids
    whose resolution divides another's are nested, so refinement along
    doubling chains is monotone.
    """
    alpha, beta = order.alpha, order.beta
    _finite_orders("grid_search_inner", alpha, beta)
    r = _positive_int(resolution, "resolution")
    n = channel.n_inputs
    if n > 4:
        raise BudgetExceeded(f"grid enumeration over {n} inputs explodes; 4 is the ceiling")
    points = math.comb(r + n - 1, n - 1)
    if points > _GRID_POINT_CAP:
        raise BudgetExceeded(f"{points} grid points exceed the cap {_GRID_POINT_CAP}")

    with np.errstate(divide="ignore"):
        logP = np.log(channel.matrix)
    # each row as an (m, 1) reference; at beta = 1 the reference drops out
    log_rows = logP[:1, :, None] if beta == 1.0 else logP[:, :, None]
    return _best_value(log_rows, _compositions(r, n) / r, logP, alpha, beta)


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
    alpha, beta = order.alpha, order.beta
    _finite_orders("definitional_leakage", alpha, beta)
    n, m = channel.n_inputs, channel.n_outputs
    if n > 3 or m > 3:
        raise BudgetExceeded(f"definitional scan is limited to 3x3 channels, got {n}x{m}")
    gp = _positive_int(px_grid, "px_grid")
    if gp < n:
        raise InvalidEntry(f"px_grid {px_grid!r} cannot carry a full-support law over {n} inputs")
    sc = _positive_int(shatter_cap, "shatter_cap")
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

    # each tilt against the output law of the input law that induced it,
    # then the boundary limits: the output law collapsed onto one channel row
    references = [np.repeat(log_py.T, len(sizes), axis=1), *logP[:, :, None]]
    return _best_value(references, tilts, logP, alpha, beta)

