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
by a dedicated routine).

Zero conventions, applied everywhere: 0^0 = 1 (at beta = 1 the reference
row drops out), and a zero reference entry P(y|x') = 0 raised to the
negative power 1 - beta < 0 yields +inf when the alpha-mixture at y is
positive but contributes nothing when the mixture is zero as well.

All sums are evaluated in the log domain with max-shifted log-sum-exp;
values are nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Channel, LeakageValue, OrderPair, SimplexPoint
from .errors import DegenerateInput, InvalidEntry, NumericalFailure, ShapeError
from .optim import OptimizerConfig, OptimizerReport, maximize_power_sum
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
    "alpha_tau_leakage",
    "variational_objective",
    "optimal_q_y",
    "shannon_capacity",
]

_CAPACITY_MAX_ITERATIONS = 100_000


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """A measure value plus the witnesses that achieved it.

    ``maximizing_distribution`` is the optimizing mixture weight vector
    when the concave path ran, the vertex point mass when a closed form
    over input pairs ran, and None for the closed forms whose optimum is
    not a single distribution. ``report`` is present only when the
    simplex optimizer ran; its ``certified_gap`` bounds how far ``value``
    can sit below the true supremum.
    """

    value: LeakageValue
    maximizing_x_prime: int
    maximizing_distribution: SimplexPoint | None = None
    report: OptimizerReport | None = None


def _log_matrix(matrix: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(matrix)


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


def _check_x_prime(x_prime: int, n: int) -> int:
    x = int(x_prime)
    if not 0 <= x < n:
        raise ShapeError(f"x_prime {x_prime} out of range for {n} inputs")
    return x


def _objective_factory(logP: np.ndarray, alpha: float, beta: float, x_prime: int):
    """Build the (value, gradient) callable for the inner objective at fixed x'.

    The gradient of the log term is

        g_x = (1/(alpha-1)) * (1/S) * sum_y P(y|x')^(1-beta)
              * B(y)^(beta/alpha - 1) * P(y|x)^alpha,
        B(y) = sum_x p(x) P(y|x)^alpha,  S = the sum inside the log,

    assembled in the log domain. Outputs whose alpha-mixture vanishes
    while the channel still reaches them make the one-sided derivative
    +inf for every input that covers them (when beta < alpha); those
    entries are reported as +inf so a search can leave such a face.
    """
    n, m = logP.shape
    alogP = alpha * logP
    pref = alpha / ((alpha - 1.0) * beta)
    ba = beta / alpha
    xp = logP[x_prime]
    xp_dead = np.isneginf(xp)
    col_alive = ~np.all(np.isneginf(logP), axis=0)

    def value_and_gradient(w: np.ndarray) -> tuple[float, np.ndarray]:
        with np.errstate(divide="ignore"):
            logw = np.log(w)
        mix = _logsumexp(logw[:, None] + alogP, axis=0)  # (m,) log B(y)
        alive = ~np.isneginf(mix)
        if beta == 1.0:
            T = ba * mix
        else:
            if np.any(alive & xp_dead):
                # reference row structurally misses an output the mixture reaches
                return math.inf, np.full(n, np.nan)
            T = np.where(
                alive,
                (1.0 - beta) * np.where(alive, xp, 0.0) + ba * np.where(alive, mix, 0.0),
                -np.inf,
            )
        logS = _logsumexp(T)
        value = pref * logS

        coef = np.zeros(m)
        coef[alive] = (ba - 1.0) * mix[alive]
        if beta != 1.0:
            coef[alive] += (1.0 - beta) * xp[alive]
        use = alive.copy()
        if beta == alpha and beta != 1.0:
            # a starved output still contributes linearly when beta == alpha
            extra = (~alive) & col_alive & ~xp_dead
            if np.any(extra):
                coef[extra] = (1.0 - beta) * xp[extra]
                use |= extra
        cols = np.flatnonzero(use)
        terms = alogP[:, cols] + coef[cols][None, :]
        with np.errstate(over="ignore"):
            # near a vertex the off-support entries blow up; +inf is the honest answer
            gradient = np.exp(_logsumexp(terms, axis=1) - logS) / (alpha - 1.0)

        if beta < alpha:
            starved = (~alive) & col_alive
        elif beta == alpha:
            starved = (~alive) & col_alive & xp_dead
        else:
            starved = None
        if starved is not None and np.any(starved):
            covering = np.any(np.isfinite(logP[:, starved]), axis=1)
            gradient[covering] = math.inf
        return value, gradient

    return value_and_gradient


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
    x = _check_x_prime(x_prime, channel.n_inputs)
    w = _weights_argument(p_tilde, channel.n_inputs, "p_tilde")
    value, _ = _objective_factory(_log_matrix(channel.matrix), order.alpha, order.beta, x)(w)
    return value


def inner_gradient(channel: Channel, x_prime: int, p_tilde, order: OrderPair) -> np.ndarray:
    """Analytic gradient of :func:`inner_objective` in the mixture weights.

    Requires beta <= alpha (the regime where the objective is concave and
    the gradient is used); a non-finite intermediate raises
    NumericalFailure rather than returning garbage.
    """
    if order.alpha_infinite or order.beta_infinite:
        raise InvalidEntry("inner_gradient requires finite orders")
    if order.beta > order.alpha:
        raise InvalidEntry(f"inner_gradient requires beta <= alpha, got {order.beta} > {order.alpha}")
    x = _check_x_prime(x_prime, channel.n_inputs)
    w = _weights_argument(p_tilde, channel.n_inputs, "p_tilde")
    value, gradient = _objective_factory(_log_matrix(channel.matrix), order.alpha, order.beta, x)(w)
    if not math.isfinite(value) or not np.all(np.isfinite(gradient)):
        raise NumericalFailure("inner objective is not differentiable at this point")
    return gradient


def _pairwise_power_form(logP: np.ndarray, ref_exp: float, num_exp: float, pref: float):
    """max over input pairs (x', x) of pref * log sum_y P(y|x')^ref_exp P(y|x)^num_exp.

    Zero conventions: a zero numerator entry kills its term outright; a
    zero reference entry against a positive numerator sends the term to
    +inf when ref_exp < 0 (and is simply absent from the product when
    ref_exp == 0).
    """
    n = logP.shape[0]
    dead = np.isneginf(logP)
    num_part = num_exp * logP
    if ref_exp == 0.0:
        T = np.broadcast_to(np.where(dead, -np.inf, num_part)[None, :, :], (n, n, logP.shape[1]))
    else:
        ref_part = ref_exp * logP  # +inf at zeros since ref_exp < 0
        with np.errstate(invalid="ignore"):
            combined = ref_part[:, None, :] + num_part[None, :, :]
        T = np.where(
            dead[None, :, :],
            -np.inf,
            np.where(dead[:, None, :], np.inf, combined),
        )
    values = pref * _logsumexp(T, axis=2)
    flat = int(np.argmax(values))
    i, j = divmod(flat, n)
    return float(values[i, j]), int(i), int(j)


def _alpha_inf_form(logP: np.ndarray, beta: float):
    """max over x' of (1/beta) * log sum_y P(y|x')^(1-beta) * max_x P(y|x)^beta."""
    n = logP.shape[0]
    colmax = logP.max(axis=0)
    values = np.empty(n)
    for i in range(n):
        if beta == 1.0:
            T = colmax
        else:
            xp = logP[i]
            with np.errstate(invalid="ignore"):
                combined = (1.0 - beta) * xp + beta * colmax
            T = np.where(
                np.isneginf(colmax),
                -np.inf,
                np.where(np.isneginf(xp), np.inf, combined),
            )
        values[i] = _logsumexp(T)
    best = int(np.argmax(values))
    return float(values[best]) / beta, best


def _pairwise_sup_log_ratio(logP: np.ndarray):
    """max over (x', x) of log max over y with P(y|x) > 0 of P(y|x) / P(y|x')."""
    n = logP.shape[0]
    dead = np.isneginf(logP)
    with np.errstate(invalid="ignore"):
        diff = logP[None, :, :] - logP[:, None, :]  # (x', x, y)
    ratios = np.where(dead[None, :, :], -np.inf, diff).max(axis=2)
    flat = int(np.argmax(ratios))
    i, j = divmod(flat, n)
    return float(ratios[i, j]), int(i), int(j)


def _concave_path(channel: Channel, logP: np.ndarray, alpha: float, beta: float,
                  config: OptimizerConfig) -> MeasureResult:
    """Certified maximization over mixtures and reference inputs, beta < alpha."""
    n = channel.n_inputs
    if beta > 1.0:
        matrix = channel.matrix
        mixed = (matrix == 0.0).any(axis=0) & (matrix > 0.0).any(axis=0)
        if mixed.any():
            y = int(np.flatnonzero(mixed)[0])
            i = int(np.flatnonzero(matrix[:, y] == 0.0)[0])
            j = int(np.argmax(matrix[:, y]))
            return MeasureResult(LeakageValue(math.inf), i, SimplexPoint.point_mass(n, j), None)
    x_prime, report = maximize_power_sum(logP, alpha, beta, config)
    return MeasureResult(LeakageValue(report.value), x_prime, report.maximizer, report)


def maximal_alpha_beta_leakage(channel: Channel, order: OrderPair,
                               config: OptimizerConfig | None = None) -> MeasureResult:
    """The two-parameter family value for a channel at the given order pair.

    Dispatch over the order square:

    - alpha = beta = inf: pairwise sup log ratio (local differential privacy);
    - alpha = inf, beta finite: closed form with the column maximum inside;
    - beta = inf, alpha finite: (alpha/(alpha-1)) times the sup log ratio;
    - beta >= alpha, both finite: vertex optimum, closed form over input pairs;
    - beta < alpha: certified concave maximization over mixtures, all
      reference inputs at once (see :func:`chanleak.optim.maximize_power_sum`).

    Non-convergence of the concave path is reported through
    ``result.report.converged``, never silently.
    """
    logP = _log_matrix(channel.matrix)
    n = channel.n_inputs
    a, b = order.alpha, order.beta
    if order.alpha_infinite and order.beta_infinite:
        value, i, j = _pairwise_sup_log_ratio(logP)
        return MeasureResult(LeakageValue(value), i, SimplexPoint.point_mass(n, j), None)
    if order.alpha_infinite:
        value, i = _alpha_inf_form(logP, b)
        return MeasureResult(LeakageValue(value), i, None, None)
    if order.beta_infinite:
        ratio, i, j = _pairwise_sup_log_ratio(logP)
        return MeasureResult(LeakageValue(a / (a - 1.0) * ratio), i, SimplexPoint.point_mass(n, j), None)
    if b >= a:
        value, i, j = _pairwise_power_form(logP, 1.0 - b, b, a / ((a - 1.0) * b))
        return MeasureResult(LeakageValue(value), i, SimplexPoint.point_mass(n, j), None)
    return _concave_path(channel, logP, a, b, config or OptimizerConfig())


def maximal_leakage(channel: Channel) -> LeakageValue:
    """log of the summed column maxima."""
    return LeakageValue(math.log(float(channel.matrix.max(axis=0).sum())))


def maximal_alpha_leakage(channel: Channel, alpha: float,
                          config: OptimizerConfig | None = None) -> MeasureResult:
    """The beta = 1 member; alpha = inf reduces to maximal leakage."""
    return maximal_alpha_beta_leakage(channel, OrderPair(alpha, 1.0), config)


def ldp(channel: Channel) -> LeakageValue:
    """Worst-case log ratio between any two rows at any output; +inf on a
    structural zero opposite positive mass."""
    matrix = channel.matrix
    best = 0.0
    for y in range(channel.n_outputs):
        column = matrix[:, y]
        positive = column[column > 0.0]
        if positive.size == 0:
            continue
        low = float(column.min())
        if low == 0.0:
            return LeakageValue(math.inf)
        best = max(best, math.log(float(positive.max()) / low))
    return LeakageValue(best)


def lrdp(channel: Channel, alpha: float) -> LeakageValue:
    """max over input pairs of the order-alpha Renyi divergence between rows."""
    a = float(alpha)
    if math.isinf(a):
        raise InvalidEntry("the infinite order is served by ldp")
    if math.isnan(a) or a <= 1.0:
        raise InvalidEntry(f"alpha must lie in (1, inf), got {alpha!r}")
    value, _, _ = _pairwise_power_form(_log_matrix(channel.matrix), 1.0 - a, a, 1.0 / (a - 1.0))
    return LeakageValue(value)


def lrdp_variant(channel: Channel, beta: float) -> LeakageValue:
    """The alpha = inf slice at finite beta; beta = 1 reduces to maximal leakage."""
    b = float(beta)
    if math.isinf(b) or math.isnan(b) or b < 1.0:
        raise InvalidEntry(f"beta must lie in [1, inf), got {beta!r}")
    value, _ = _alpha_inf_form(_log_matrix(channel.matrix), b)
    return LeakageValue(value)


def alpha_tau_leakage(channel: Channel, alpha: float, tau: float,
                      config: OptimizerConfig | None = None) -> MeasureResult:
    """The tau in [0, 1] reparameterized slice: beta = alpha / (1 + tau (alpha - 1)).

    tau = 0 recovers the beta = alpha closed form, tau = 1 the beta = 1
    member; the whole slice lies in the concave regime beta <= alpha.
    """
    a = float(alpha)
    if math.isinf(a) or math.isnan(a) or a <= 1.0:
        raise InvalidEntry(f"alpha must be finite in (1, inf), got {alpha!r}")
    t = float(tau)
    if math.isnan(t) or not 0.0 <= t <= 1.0:
        raise InvalidEntry(f"tau must lie in [0, 1], got {tau!r}")
    if t == 0.0:
        beta = a
    elif t == 1.0:
        beta = 1.0
    else:
        beta = a / (1.0 + t * (a - 1.0))
    return maximal_alpha_beta_leakage(channel, OrderPair(a, beta), config)


def variational_objective(channel: Channel, x_prime: int, p_tilde, q_y,
                          alpha: float, tau: float) -> float:
    """The saddle form whose inner minimum over q recovers the tau slice:

        (1/(alpha-1)) * log sum_{x,y} p(x) P(y|x)^alpha
                        * (q(y)^tau P(y|x')^(1-tau))^(1-alpha)
    """
    a = float(alpha)
    if math.isinf(a) or math.isnan(a) or a <= 1.0:
        raise InvalidEntry(f"alpha must be finite in (1, inf), got {alpha!r}")
    t = float(tau)
    if math.isnan(t) or not 0.0 <= t <= 1.0:
        raise InvalidEntry(f"tau must lie in [0, 1], got {tau!r}")
    x = _check_x_prime(x_prime, channel.n_inputs)
    w = _weights_argument(p_tilde, channel.n_inputs, "p_tilde")
    q = _weights_argument(q_y, channel.n_outputs, "q_y")

    logP = _log_matrix(channel.matrix)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
        logq = np.log(q)
    xp = logP[x]
    if t == 0.0:
        anchor = xp
    elif t == 1.0:
        anchor = logq
    else:
        anchor = t * logq + (1.0 - t) * xp  # -inf propagates, no 0 * inf possible
    with np.errstate(invalid="ignore"):
        base = logw[:, None] + a * logP + (1.0 - a) * anchor[None, :]
    T = np.where(np.isneginf(logP) | np.isneginf(logw)[:, None], -np.inf, base)
    return _logsumexp(T) / (a - 1.0)


def optimal_q_y(channel: Channel, x_prime: int, p_tilde, alpha: float, tau: float) -> SimplexPoint:
    """The closed-form minimizer of :func:`variational_objective` over q.

    With gamma = tau (1 - alpha) and
    C(y) = sum_x p(x) P(y|x)^alpha P(y|x')^((1-tau)(1-alpha)), the minimizer
    is q(y) proportional to C(y)^(1/(1-gamma)). Requires tau > 0 (at tau = 0
    the objective does not depend on q).
    """
    a = float(alpha)
    if math.isinf(a) or math.isnan(a) or a <= 1.0:
        raise InvalidEntry(f"alpha must be finite in (1, inf), got {alpha!r}")
    t = float(tau)
    if math.isnan(t) or not 0.0 < t <= 1.0:
        raise InvalidEntry(f"tau must lie in (0, 1] here, got {tau!r}")
    x = _check_x_prime(x_prime, channel.n_inputs)
    w = _weights_argument(p_tilde, channel.n_inputs, "p_tilde")

    logP = _log_matrix(channel.matrix)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    xp = logP[x]
    ref_exp = (1.0 - t) * (1.0 - a)  # <= 0, zero exactly at tau = 1
    if ref_exp != 0.0 and np.any(np.isneginf(xp) & ~np.all(np.isneginf(logP), axis=0)):
        raise DegenerateInput(
            "reference row has a structural zero at a reachable output; the minimizing output law degenerates"
        )
    with np.errstate(invalid="ignore"):
        base = logw[:, None] + a * logP + (ref_exp * xp)[None, :] if ref_exp != 0.0 else logw[:, None] + a * logP
    T = np.where(np.isneginf(logP) | np.isneginf(logw)[:, None], -np.inf, base)
    logC = _logsumexp(T, axis=0)
    if np.all(np.isneginf(logC)):
        raise DegenerateInput("every output weight C(y) vanished")
    scale = 1.0 / (1.0 + t * (a - 1.0))  # 1 / (1 - gamma)
    scaled = scale * logC
    logq = scaled - _logsumexp(scaled)
    return SimplexPoint(np.exp(logq))


def shannon_capacity(channel: Channel, tolerance: float = 1e-9) -> LeakageValue:
    """Channel capacity in nats by alternating maximization.

    Iterates the classic input-distribution update; at each step the
    mutual information I under the current input law and the row-wise
    divergence maximum U bracket the capacity, I <= C <= U, so U - I is a
    duality-gap stopping certificate.
    """
    if not tolerance > 0.0:
        raise InvalidEntry(f"tolerance must be positive, got {tolerance!r}")
    matrix = channel.matrix
    logM = _log_matrix(matrix)
    n = channel.n_inputs
    q = np.full(n, 1.0 / n)
    info = 0.0
    for _ in range(_CAPACITY_MAX_ITERATIONS):
        p_y = q @ matrix
        with np.errstate(divide="ignore", invalid="ignore"):
            divergences = np.where(matrix > 0.0, matrix * (logM - np.log(p_y)[None, :]), 0.0).sum(axis=1)
        info = float(q @ divergences)
        upper = float(divergences.max())
        if upper - info <= tolerance:
            break
        q = q * np.exp(divergences - upper)
        q /= q.sum()
    return LeakageValue(max(info, 0.0))
