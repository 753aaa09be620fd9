"""Leakage functionals for finite channels.

The central object is a two-parameter family indexed by an order pair
(alpha, beta) with alpha in (1, inf], beta in [1, inf]. For a channel P and
a reference input x', the inner quantity is

    F(x', p) = (alpha / ((alpha-1) * beta))
               * log sum_y P(y|x')^(1-beta) * (sum_x p(x) P(y|x)^alpha)^(beta/alpha)

and the family value is max over x' of sup over p on the simplex of F.
For beta <= alpha the sum inside the log is concave in p, so the supremum
is found by certified simplex maximization; for beta >= alpha it is
attained at a vertex p = point mass, which collapses the whole measure to
a closed form over input pairs. The classical measures fall out at the
edges of the order square: Renyi-divergence based pointwise leakage at
beta = alpha, local differential privacy at alpha = beta = inf, maximal
leakage at (inf, 1), and channel capacity in the alpha -> 1 limit (served
by :func:`chanleak.optim.maximize_information`).

Every closed form and inner evaluation here is one power sum
sum_y ref(y)^ref_exp num(y)^num_exp taken in the log domain. Two edges of
the order square are settled once, in the dispatcher, for every branch.
At beta > 1 a pair (x', x) where x reaches an output x' misses makes the
value +inf, with x' and the point mass at x as witness. Above
``_HUGE_ORDER``, where alone an order times log P can overflow, alpha is
inf and a closed form takes its beta = inf form. The power-sum conventions
of every evaluation are written once: ``_log_power`` takes 0^0 = 1 (at
beta = 1 the reference row drops out) and leaves to IEEE arithmetic that
a zero reference entry raised to a negative power yields +inf;
``_log_terms`` adds that a zero numerator kills its term, even against a
zero reference. The chunked kernel ``_power_table`` reduces those terms
for the inner evaluations and the alpha = inf form (the column maximum in
the numerator). For beta >= alpha the measure is a maximum over input pairs,
and its two pairwise forms do not build the terms of all n^2 pairs: the
power form ranks every pair with one row-shifted matrix product and
passes to ``_power_table`` only the pairs that the product's a-priori
error bound cannot rule out, and the sup log ratio (its beta = inf edge)
is the largest column range of log P, with its witness sought only in
the columns that attain it. As rounding is monotone, in such a column
the first x' of a pair at that ratio is the first whose distance below
the column maximum rounds to the ratio, and its x the first whose
distance above x' does: O(n) per column, and no n x n table. Both
return the value and the first maximizing pair in row-major order that
``_power_table`` over all pairs gives, bit for bit. Two places keep
their own rule on purpose: the solver in :mod:`chanleak.optim` works in
the linear domain, and :mod:`chanleak.oracle` stays independent of this
module so that its agreement with the fast paths is evidence.

What the measures read of a channel beyond its matrix, they read from
facts that the :class:`~chanleak.core.Channel` works out on first use and
keeps: log P, the column extremes of P and of log P, the row extremes of
log P over the reached outputs, and the first pair that makes the value
+inf. Given those, the edges of the order square (``ldp``,
``maximal_leakage``, the +inf dispatch and the sup log ratio) cost
O(n + m) per call on a channel already used, and the other forms take
no log or extreme of their own.

Log-sum-exp is max-shifted; values are nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Channel, LeakageValue, OrderPair, SimplexPoint
from .errors import DegenerateInput, InvalidEntry, NumericalFailure, ShapeError
from .optim import OptimizerConfig, OptimizerReport, _prefactor, maximize_information, maximize_power_sum
from ._logdomain import logsumexp as _logsumexp

__all__ = [
    "MeasureResult",
    "inner_objective",
    "inner_gradient",
    "maximal_alpha_beta_leakage",
    "maximal_leakage",
    "maximal_alpha_leakage",
    "ldp",
    "lrdp",
    "lrdp_variant",
    "alpha_tau_order",
    "alpha_tau_leakage",
    "variational_objective",
    "optimal_q_y",
    "shannon_capacity",
]


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """A measure value plus the witnesses that achieved it.

    ``maximizing_distribution`` is the optimizing mixture weight vector
    when the concave path ran, the vertex point mass when a closed form
    over input pairs ran, and None for the closed forms whose optimum is
    not a single distribution. A +inf value carries the pair that proves
    it, in every branch: ``maximizing_x_prime`` is x' and the distribution
    is the point mass at an input x that reaches an output x' misses.
    ``report`` is present only when the
    simplex optimizer ran; its ``certified_gap`` bounds how far ``value``
    can sit below the true supremum.
    """

    value: LeakageValue
    maximizing_x_prime: int
    maximizing_distribution: SimplexPoint | None = None
    report: OptimizerReport | None = None


def _weights_argument(p, dim: int, what: str) -> np.ndarray:
    """Accept a SimplexPoint or a raw nonnegative weight vector.

    Raw vectors are deliberately not snapped to the simplex: the
    finite-difference contracts probe the objective slightly off it.
    """
    if isinstance(p, SimplexPoint):
        w = p.weights
    else:
        w = np.asarray(p, dtype=float)
        if w.ndim != 1:
            raise ShapeError(f"{what} must be a 1-D vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise InvalidEntry(f"{what} must be finite and nonnegative")
        if float(w.sum()) <= 0.0:
            raise InvalidEntry(f"{what} has no mass")
    if w.shape[0] != dim:
        raise ShapeError(f"{what} has {w.shape[0]} entries, expected {dim}")
    return w


# Reference rows per chunk are chosen so that one chunk of terms holds
# about this many entries; it bounds the memory of every closed form.
_CHUNK_ELEMENTS = 1 << 20


def _log_power(log_base: np.ndarray, exponent: float) -> np.ndarray:
    """exponent * log_base, the log of base^exponent, with 0^0 = 1.

    At exponent == 0 the power is 1 whatever the base, so this gives zeros
    without forming 0 * log 0. A zero base (-inf) needs no rule of its
    own: IEEE arithmetic makes its power 0 at a positive exponent and +inf
    at a negative one.
    """
    if exponent == 0.0:
        return np.zeros_like(log_base)
    return exponent * log_base


def _log_terms(ref: np.ndarray, ref_exp: float, num: np.ndarray, num_exp: float) -> np.ndarray:
    """The (K, L, m) terms ref_exp log ref_i(y) + num_exp log num_j(y) of a power sum.

    ``ref`` (K, m) and ``num`` (L, m) hold the logs of nonnegative rows;
    ref_exp <= 0 < num_exp. The reference takes the rules of
    :func:`_log_power`: at ref_exp == 0 it drops out, and below that a zero
    entry sends its term to +inf. The one rule added here is that a zero
    numerator entry kills its term, even against a zero reference.
    """
    with np.errstate(invalid="ignore"):
        terms = _log_power(ref, ref_exp)[:, None, :] + num_exp * num
    np.copyto(terms, -np.inf, where=(num == -np.inf)[None, :, :])
    return terms


def _power_table(ref: np.ndarray, ref_exp: float, num: np.ndarray, num_exp: float) -> np.ndarray:
    """The (K, L) table of the log-sum-exp over y of :func:`_log_terms`.

    The terms are built a chunk of reference rows at a time, so the memory
    in use stays near ``_CHUNK_ELEMENTS`` entries whatever K is.
    """
    n_num, m = num.shape
    step = max(1, _CHUNK_ELEMENTS // (n_num * m))
    table = np.empty((ref.shape[0], n_num))
    for start in range(0, ref.shape[0], step):
        terms = _log_terms(ref[start:start + step], ref_exp, num, num_exp)
        table[start:start + step] = _logsumexp(terms, axis=2)
    return table


def _log_mixture(logP: np.ndarray, w: np.ndarray, alpha: float) -> np.ndarray:
    """log B(y) = log sum_x w(x) P(y|x)^alpha; -inf where no weighted input reaches y."""
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    return _logsumexp(logw[:, None] + alpha * logP, axis=0)


def _inner_arguments(channel: Channel, x_prime: int, p_tilde, alpha: float):
    """The checked arguments of an inner evaluation: log P(.|x') and log B of ``p_tilde``."""
    x = int(x_prime)
    if not 0 <= x < channel.n_inputs:
        raise ShapeError(f"x_prime {x_prime} out of range for {channel.n_inputs} inputs")
    w = _weights_argument(p_tilde, channel.n_inputs, "p_tilde")
    return channel._log[x], _log_mixture(channel._log, w, alpha)


def _inner_log_sum(xp: np.ndarray, mix: np.ndarray, alpha: float, beta: float) -> float:
    """log S = log sum_y P(y|x')^(1-beta) B(y)^(beta/alpha).

    ``xp`` is log P(.|x') and ``mix`` is log B.
    """
    return float(_power_table(xp[None, :], 1.0 - beta, mix[None, :], beta / alpha)[0, 0])


def inner_objective(channel: Channel, x_prime: int, p_tilde, order: OrderPair) -> float:
    """Evaluate the inner log expression at a fixed reference input.

    Parameters
    ----------
    channel : Channel
    x_prime : int
        Reference input index.
    p_tilde : SimplexPoint or array-like
        Mixture weights over inputs. A raw vector is evaluated as given.
    order : OrderPair
        Both orders must be finite here; the infinite orders are served
        by their closed forms.

    Returns
    -------
    float
        The value in nats; +inf when a structural zero of the reference
        row meets positive mixture mass at beta > 1.
    """
    if order.alpha_infinite or order.beta_infinite:
        raise InvalidEntry("inner_objective requires finite orders; infinite orders have closed forms")
    a, b = order.alpha, order.beta
    xp, mix = _inner_arguments(channel, x_prime, p_tilde, a)
    return _prefactor(a, b) * _inner_log_sum(xp, mix, a, b)


def inner_gradient(channel: Channel, x_prime: int, p_tilde, order: OrderPair) -> np.ndarray:
    """Analytic gradient of :func:`inner_objective` in the mixture weights.

    Requires beta <= alpha (the regime where the objective is concave and
    the gradient is used); a non-finite intermediate raises
    NumericalFailure rather than returning garbage. The gradient is

        g_x = (1/(alpha-1)) * (1/S) * sum_y P(y|x')^(1-beta)
              * B(y)^(beta/alpha - 1) * P(y|x)^alpha,
        B(y) = sum_x p(x) P(y|x)^alpha,  S = the sum inside the log,

    one :func:`_power_table` of P(y|x)^alpha against the reference
    P(y|x')^(1-beta) B(y)^(beta/alpha-1), passed as the log of its
    reciprocal at exponent -1 so that its zeros take the zero-reference
    rule. An output that the mixture starves but the channel reaches thus
    makes the derivative +inf for every input that covers it, and the
    point raises, when beta < alpha, or when beta == alpha and x' misses
    it too; at beta == alpha, where B^0 = 1, x' reaching it adds its
    linear term.
    """
    if order.alpha_infinite or order.beta_infinite:
        raise InvalidEntry("inner_gradient requires finite orders")
    if order.beta > order.alpha:
        raise InvalidEntry(f"inner_gradient requires beta <= alpha, got {order.beta} > {order.alpha}")
    alpha, beta = order.alpha, order.beta
    xp, mix = _inner_arguments(channel, x_prime, p_tilde, alpha)
    logS = _inner_log_sum(xp, mix, alpha, beta)
    if not math.isfinite(logS):
        raise NumericalFailure("inner objective is not differentiable at this point")
    reciprocal = _log_power(xp, beta - 1.0) + _log_power(mix, 1.0 - beta / alpha)
    with np.errstate(over="ignore"):
        # near a vertex the off-support entries blow up; +inf is the honest answer
        gradient = np.exp(_power_table(reciprocal[None, :], -1.0, channel._log, alpha)[0] - logS) / (alpha - 1.0)
    if not np.all(np.isfinite(gradient)):
        raise NumericalFailure("inner objective is not differentiable at this point")
    return gradient


# Pairs whose row-shifted product falls below this are recomputed. Above
# it, the subnormal summands a product may hold, each off by at most
# 2^-1074, move it by less than m 2^-174 of itself.
_UNDERFLOW_FLOOR = 2.0 ** -900
_EPS = float(np.finfo(float).eps)


def _pairwise_power_form(channel: Channel, beta: float, pref: float) -> tuple[float, int, int]:
    """max over input pairs (x', x) of pref * log sum_y P(y|x')^(1-beta) P(y|x)^beta.

    Takes 1 < beta <= ``_HUGE_ORDER`` and a channel whose every column is
    all zero or all positive, which the dispatcher has settled. Returns
    the value and the first maximizing pair in row-major order, bit for
    bit what :func:`_power_table` over all n^2 pairs gives, without
    forming it:

    - One matrix product ranks every pair in a row-shifted linear domain:
      log sum_y A(x', y) B(x, y) plus the shifts, with
      A = exp((1-beta) (log P - low)) and B = exp(beta (log P - high)) over
      the outputs some input reaches, low and high the least and largest
      log P of the row, so that no entry exceeds 1 and each row holds a 1.
    - Let S = (|1-beta| + beta) max |log P|, which bounds every term and
      shift. That ranking and the per-pair sums each sit within
      4 eps (S + m + 1000) of the exact sum over y of the rounded terms:
      the terms, shifts and exponents carry a few rounding errors of at
      most eps S each, the exponentials and the m-term sums of
      nonnegative numbers a relative error below (m + 3) eps, and the
      logarithm and the final additions below eps (S + 1000). delta =
      32 eps (S + m + 1000) exceeds the two bounds together plus the
      rounding of the product with ``pref``, so every pair that the
      per-pair sums rank first, or tie with the first after that product,
      lies within delta of the ranking's maximum.
    - Those pairs, and every pair whose product fell below
      ``_UNDERFLOW_FLOOR``, where the ranking proves nothing, are
      recomputed: :func:`_power_table` fills the sub-table of their rows
      and columns. Its other pairs fall short of the maximum, and its rows
      and columns keep their order, so its first maximum in row-major
      order is the first of all n^2 pairs. Usually it is 1 x 1; it has
      n^2 pairs only where that many tie or underflow.
    """
    logP = channel._log
    m = logP.shape[1]
    live = logP if channel._reached.all() else logP[:, channel._reached]
    low, high = channel._log_row_min[:, None], channel._log_row_max[:, None]
    # the largest |log P|, as no entry exceeds 1 beyond rounding
    spread = -float(np.minimum.reduce(low, axis=None))
    with np.errstate(divide="ignore"):
        products = np.exp((1.0 - beta) * (live - low)) @ np.exp(beta * (live - high)).T
        table = (1.0 - beta) * low + (beta * high).T + np.log(products)
    under = products < _UNDERFLOW_FLOOR
    table[under] = -np.inf
    delta = 32.0 * _EPS * ((abs(1.0 - beta) + beta) * spread + m + 1000.0)
    recompute = (table >= np.maximum.reduce(table, axis=None) - delta) | under
    rows = np.logical_or.reduce(recompute, axis=1).nonzero()[0]
    cols = np.logical_or.reduce(recompute, axis=0).nonzero()[0]
    exact = pref * _power_table(logP[rows], 1.0 - beta, logP[cols], beta)
    i, j = divmod(int(exact.argmax()), len(cols))
    return float(exact[i, j]), int(rows[i]), int(cols[j])


def _alpha_inf_form(channel: Channel, beta: float):
    """max over x' of (1/beta) * log sum_y P(y|x')^(1-beta) * max_x P(y|x)^beta."""
    table = _power_table(channel._log, 1.0 - beta, channel._log_col_max[None, :], beta)
    i = int(np.argmax(table))
    return float(table[i, 0]) / beta, i


def _pairwise_sup_log_ratio(channel: Channel) -> tuple[float, int, int]:
    """max over (x', x) of log max over y with P(y|x) > 0 of P(y|x) / P(y|x'), and its first pair.

    Takes a channel whose every column is all zero or all positive, which
    the dispatcher has settled. Since rounding is monotone the largest
    ratio is then the largest column range max_x log P - min_x log P, bit
    for bit, and only a column whose range equals it can hold a pair at
    that ratio. In such a column y an x' heads a pair at the ratio exactly
    when fl(max_x log P(y|x) - log P(y|x')) equals it, and the first x of
    its pair is the first with fl(log P(y|x) - log P(y|x')) equal to it:
    O(n) per column, and the least of those pairs is the first in
    row-major order.
    """
    reached = channel._reached
    ranges = channel._log_col_max[reached] - channel._log_col_min[reached]
    ratio = ranges.max()
    pairs = []
    for y in reached.nonzero()[0][ranges == ratio]:
        column = channel._log[:, y]
        x_prime = int(np.argmax(channel._log_col_max[y] - column == ratio))
        pairs.append((x_prime, int(np.argmax(column - column[x_prime] == ratio))))
    return float(ratio), *min(pairs)


# Above this order, and only there, an order times log P can overflow, as
# every positive double has |log P| <= 745. A closed form at such a beta is
# within alpha/(alpha-1) (log m + 745) / beta of its beta = inf form, and
# the family at such an alpha within (log n + |its value|) / (alpha - 1)
# of its alpha = inf form: far below one ulp of any value but 0.
_HUGE_ORDER = float(np.finfo(float).max) / 746.0


def _leakage(channel: Channel, alpha: float, beta: float,
             config: OptimizerConfig | None) -> tuple[float, int, int | None, OptimizerReport | None]:
    """The dispatch of :func:`maximal_alpha_beta_leakage`.

    Returns the value, x', the input of the point-mass witness (None when
    the optimum is not a point mass) and the solver's report.
    """
    alpha = math.inf if alpha > _HUGE_ORDER else alpha
    if beta > 1.0 and channel._infinite_pair is not None:
        return math.inf, *channel._infinite_pair, None
    if beta < alpha < math.inf:
        reached = channel._reached
        # a copy even when every output is reached: its Fortran order fixes
        # how the solver's matrix products accumulate, and so their bits
        live, colmax = channel._log[:, reached], channel._log_col_max[reached]
        x_prime, report = maximize_power_sum(live, colmax, alpha, beta, config or OptimizerConfig())
        return report.value, x_prime, None, report
    if beta > _HUGE_ORDER:
        ratio, i, j = _pairwise_sup_log_ratio(channel)
        return (ratio if math.isinf(alpha) else alpha / (alpha - 1.0) * ratio), i, j, None
    if math.isinf(alpha):
        return *_alpha_inf_form(channel, beta), None, None
    return *_pairwise_power_form(channel, beta, _prefactor(alpha, beta)), None


def maximal_alpha_beta_leakage(channel: Channel, order: OrderPair,
                               config: OptimizerConfig | None = None) -> MeasureResult:
    """The two-parameter family value for a channel at the given order pair.

    Two edges are settled first, for every branch. At beta > 1, an input
    x that reaches an output x' misses makes the value +inf; the result
    names the first such pair in row-major order. Above ``_HUGE_ORDER``
    (about 2.4e305) alpha is taken as inf and a closed form at beta takes
    its beta = inf form. Then the order square dispatches:

    - alpha = beta = inf: pairwise sup log ratio (local differential privacy);
    - alpha = inf, beta finite: closed form with the column maximum inside;
    - beta = inf, alpha finite: (alpha/(alpha-1)) times the sup log ratio;
    - beta >= alpha, both finite: vertex optimum, closed form over input pairs;
    - beta < alpha: certified concave maximization over mixtures, all
      reference inputs at once (see :func:`chanleak.optim.maximize_power_sum`).

    Non-convergence of the concave path is reported through
    ``result.report.converged``, never silently.
    """
    value, x_prime, x, report = _leakage(channel, order.alpha, order.beta, config)
    if report is not None:
        point = report.maximizer
    else:
        point = None if x is None else SimplexPoint.point_mass(channel.n_inputs, x)
    return MeasureResult(LeakageValue(value), x_prime, point, report)


def maximal_leakage(channel: Channel) -> LeakageValue:
    """log of the summed column maxima."""
    return LeakageValue(math.log(float(channel._col_max.sum())))


def maximal_alpha_leakage(channel: Channel, alpha: float,
                          config: OptimizerConfig | None = None) -> MeasureResult:
    """The beta = 1 member; alpha = inf reduces to maximal leakage."""
    return maximal_alpha_beta_leakage(channel, OrderPair(alpha, 1.0), config)


def ldp(channel: Channel) -> LeakageValue:
    """Worst-case log ratio between any two rows at any output, a reached
    column's max over its min; +inf on a structural zero opposite positive mass."""
    reached = channel._col_max > 0.0
    high, low = channel._col_max[reached], channel._col_min[reached]
    if not low.all():
        return LeakageValue(math.inf)
    with np.errstate(over="ignore"):
        ratio = float((high / low).max())
    # a subnormal min overflows the largest ratio, but not its log
    return LeakageValue(math.log(ratio) if ratio < math.inf else float((np.log(high) - np.log(low)).max()))


def lrdp(channel: Channel, alpha: float) -> LeakageValue:
    """max over input pairs of the order-alpha Renyi divergence between rows: the family at (alpha, alpha)."""
    order = OrderPair(alpha, alpha)
    if order.alpha_infinite:
        raise InvalidEntry("the infinite order is served by ldp")
    return LeakageValue(_leakage(channel, order.alpha, order.beta, None)[0])


def lrdp_variant(channel: Channel, beta: float) -> LeakageValue:
    """The alpha = inf slice at finite beta; beta = 1 reduces to maximal leakage."""
    order = OrderPair(math.inf, beta)
    if order.beta_infinite:
        raise InvalidEntry("the infinite order is served by ldp")
    return LeakageValue(_leakage(channel, order.alpha, order.beta, None)[0])


def _checked_alpha_tau(alpha: float, tau: float) -> tuple[float, float]:
    a = float(alpha)
    if math.isinf(a) or math.isnan(a) or a <= 1.0:
        raise InvalidEntry(f"alpha must be finite in (1, inf), got {alpha!r}")
    t = float(tau)
    if math.isnan(t) or not 0.0 <= t <= 1.0:
        raise InvalidEntry(f"tau must lie in [0, 1], got {tau!r}")
    return a, t


def alpha_tau_order(alpha: float, tau: float) -> OrderPair:
    """The order pair of the tau slice: beta = alpha / (1 + tau (alpha - 1)).

    alpha must be finite in (1, inf) and tau lie in [0, 1]. The endpoints
    are exact: tau = 0 gives beta = alpha (local Renyi DP) and tau = 1
    gives beta = 1 (maximal alpha-leakage); the whole slice lies in the
    concave regime beta <= alpha.
    """
    a, t = _checked_alpha_tau(alpha, tau)
    if t == 0.0:
        return OrderPair(a, a)
    if t == 1.0:
        return OrderPair(a, 1.0)
    return OrderPair(a, a / (1.0 + t * (a - 1.0)))


def alpha_tau_leakage(channel: Channel, alpha: float, tau: float,
                      config: OptimizerConfig | None = None) -> MeasureResult:
    """The family value on the tau slice, at the order :func:`alpha_tau_order` gives."""
    return maximal_alpha_beta_leakage(channel, alpha_tau_order(alpha, tau), config)


def variational_objective(channel: Channel, x_prime: int, p_tilde, q_y,
                          alpha: float, tau: float) -> float:
    """The saddle form whose inner minimum over q recovers the tau slice:

        (1/(alpha-1)) * log sum_{x,y} p(x) P(y|x)^alpha
                        * (q(y)^tau P(y|x')^(1-tau))^(1-alpha)
    """
    a, t = _checked_alpha_tau(alpha, tau)
    # the sum over x is the alpha-mixture B(y), leaving a power sum over y
    xp, mix = _inner_arguments(channel, x_prime, p_tilde, a)
    q = _weights_argument(q_y, channel.n_outputs, "q_y")
    with np.errstate(divide="ignore"):
        logq = np.log(q)
    anchor = _log_power(logq, t) + _log_power(xp, 1.0 - t)
    return float(_power_table(anchor[None, :], 1.0 - a, mix[None, :], 1.0)[0, 0]) / (a - 1.0)


def optimal_q_y(channel: Channel, x_prime: int, p_tilde, alpha: float, tau: float) -> SimplexPoint:
    """The closed-form minimizer of :func:`variational_objective` over q.

    With gamma = tau (1 - alpha) and
    C(y) = sum_x p(x) P(y|x)^alpha P(y|x')^((1-tau)(1-alpha)), the minimizer
    is q(y) proportional to C(y)^(1/(1-gamma)). Requires tau > 0 (at tau = 0
    the objective does not depend on q).
    """
    a, t = _checked_alpha_tau(alpha, tau)
    if t == 0.0:
        raise InvalidEntry("tau must be positive here: at tau = 0 the objective does not depend on q")
    xp, mix = _inner_arguments(channel, x_prime, p_tilde, a)
    ref_exp = (1.0 - t) * (1.0 - a)  # <= 0, zero exactly at tau = 1
    if ref_exp != 0.0 and np.any(np.isneginf(xp) & channel._reached):
        raise DegenerateInput(
            "reference row has a structural zero at a reachable output; the minimizing output law degenerates"
        )
    logC = _log_terms(xp[None, :], ref_exp, mix[None, :], 1.0)[0, 0]
    if np.all(np.isneginf(logC)):
        raise DegenerateInput("every output weight C(y) vanished")
    scale = 1.0 / (1.0 + t * (a - 1.0))  # 1 / (1 - gamma)
    scaled = scale * logC
    logq = scaled - _logsumexp(scaled)
    return SimplexPoint(np.exp(logq))


def shannon_capacity(channel: Channel, tolerance: float = 1e-9) -> LeakageValue:
    """Channel capacity in nats, certified to a bracket gap of ``tolerance``.

    The value is the lower end of the bracket that
    :func:`chanleak.optim.maximize_information` certifies. Where the bracket
    does not close within its step cap this raises NumericalFailure, naming
    the gap left; that function's report holds the open bracket.
    """
    if not 0.0 < tolerance < math.inf:
        raise InvalidEntry(f"tolerance must be positive and finite, got {tolerance!r}")
    report = maximize_information(channel.matrix, OptimizerConfig(tolerance=tolerance))
    if not report.converged:
        raise NumericalFailure(f"capacity bracket gap {report.certified_gap:.3e} exceeds the tolerance {tolerance:.3e}")
    return LeakageValue(report.value)
