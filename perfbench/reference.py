"""Independent reference values for checking the benchmark's outputs.

Nothing here imports chanleak. Every function returns a bracket
``(lower, upper)`` that contains the true value of the measure: the two
are equal for the closed forms, and for the concave regime and for
capacity they come from an iterative solver of this module's own together
with a certificate that bounds the true supremum from above. A bracket of
``(inf, inf)`` means the value is exactly +inf.

The formulas restate the definitions of the (alpha, beta) family over a
row-stochastic matrix P (rows are inputs, columns outputs), with the
conventions 0^0 = 1, a zero numerator kills its term, and a zero
reference entry raised to a negative power against a positive numerator
gives +inf. Sums are taken in the log domain, shifted by their largest term.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


def _log(P: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(P)


def _log_sum(T: np.ndarray) -> np.ndarray:
    """log sum exp along the last axis; -inf terms drop out, +inf dominates."""
    top = T.max(axis=-1)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.log(np.exp(T - shift[..., None]).sum(axis=-1)) + shift


def _power_terms(log_ref: np.ndarray, ref_exp: float, log_num: np.ndarray, num_exp: float) -> np.ndarray:
    """Log terms of ref^ref_exp * num^num_exp under the zero conventions.

    ``log_ref`` broadcasts against ``log_num``; the result has the shape of
    their broadcast.
    """
    num_dead = np.isneginf(log_num)
    with np.errstate(invalid="ignore"):
        if ref_exp == 0.0:
            T = num_exp * log_num
        else:
            T = ref_exp * log_ref + num_exp * log_num
        T = np.where(np.isneginf(log_ref) & (ref_exp < 0.0), INF, T)
    return np.where(num_dead, -INF, T)


def power_pairs(P: np.ndarray, ref_exp: float, num_exp: float, pref: float) -> float:
    """max over input pairs (x', x) of pref * log sum_y P(y|x')^ref_exp P(y|x)^num_exp."""
    logP = _log(P)
    best = -INF
    for i in range(P.shape[0]):
        values = pref * _log_sum(_power_terms(logP[i][None, :], ref_exp, logP, num_exp))
        best = max(best, float(values.max()))
    return best


def alpha_inf(P: np.ndarray, beta: float) -> float:
    """max over x' of (1/beta) log sum_y P(y|x')^(1-beta) * (max_x P(y|x))^beta."""
    logP = _log(P)
    log_colmax = logP.max(axis=0)
    values = _log_sum(_power_terms(logP, 1.0 - beta, log_colmax[None, :], beta)) / beta
    return float(values.max())


def sup_ratio(P: np.ndarray) -> float:
    """max over (x', x) and outputs y with P(y|x) > 0 of log P(y|x) / P(y|x')."""
    logP = _log(P)
    best = -INF
    for i in range(P.shape[0]):
        with np.errstate(invalid="ignore"):
            diff = logP - logP[i][None, :]
        diff = np.where(np.isneginf(logP), -INF, np.where(np.isneginf(logP[i])[None, :], INF, diff))
        best = max(best, float(diff.max()))
    return best


def maximal_leakage(P: np.ndarray) -> float:
    return math.log(float(P.max(axis=0).sum()))


def concave_bracket(P: np.ndarray, alpha: float, beta: float,
                    tolerance: float = 1e-10, max_iterations: int = 20_000) -> tuple[float, float]:
    """Bracket the family value at finite beta < alpha.

    For each reference input x' the inner problem maximizes the concave
    function G(p) = sum_y r(y) (A p)_y^c over the simplex, with A = P^alpha,
    r = P(x', .)^(1-beta) and c = beta/alpha. The iterates are the
    multiplicative updates p <- p * grad G / <p, grad G>, batched over all
    x'. G(p) is a lower bound at any p; G(p) + max_x grad_x - <p, grad> is an
    upper bound by concavity. The loop stops once the best upper bound is
    within ``tolerance`` of the best lower bound; a bracket that is still
    wide at ``max_iterations`` is returned as it is and remains valid.
    """
    live = P.max(axis=0) > 0.0
    P = P[:, live]
    if beta > 1.0 and np.any(P == 0.0):
        # a zero reference entry at an output the mixture can reach
        return INF, INF
    n = P.shape[0]
    c = beta / alpha
    pref = alpha / ((alpha - 1.0) * beta)
    A = P ** alpha
    R = np.ones((1, P.shape[1])) if beta == 1.0 else P ** (1.0 - beta)
    p = np.full((R.shape[0], n), 1.0 / n)
    for _ in range(max_iterations):
        B = p @ A
        weight = R * B ** (c - 1.0)
        G = (weight * B).sum(axis=1)
        grad = c * (weight @ A.T)
        inner = (grad * p).sum(axis=1)
        lower = float((pref * np.log(G)).max())
        upper = float((pref * np.log(G + grad.max(axis=1) - inner)).max())
        if upper - lower <= tolerance:
            break
        p = p * grad / inner[:, None]
    return lower, upper


def capacity_bracket(P: np.ndarray, tolerance: float = 1e-9,
                     max_iterations: int = 20_000) -> tuple[float, float]:
    """Blahut-Arimoto bracket I(q) <= C <= max_x D(P(.|x) || q P) in nats."""
    n = P.shape[0]
    q = np.full(n, 1.0 / n)
    logP = _log(P)
    positive = P > 0.0
    lower, upper = 0.0, INF
    for _ in range(max_iterations):
        log_out = _log(q @ P)
        with np.errstate(invalid="ignore"):
            div = np.where(positive, P * (logP - log_out[None, :]), 0.0).sum(axis=1)
        lower = max(lower, float(q @ div))
        upper = min(upper, float(div.max()))
        if upper - lower <= tolerance:
            break
        q = q * np.exp(div - div.max())
        q /= q.sum()
    return max(lower, 0.0), upper


def tau_beta(alpha: float, tau: float) -> float:
    """The beta of the tau slice: alpha / (1 + tau (alpha - 1))."""
    if tau == 0.0:
        return alpha
    if tau == 1.0:
        return 1.0
    return alpha / (1.0 + tau * (alpha - 1.0))


class Reference:
    """Brackets for the measures of one channel matrix.

    Forms shared by several measures (for example ldp and the beta = inf
    slice, or lrdp at alpha and the family at beta = alpha) are computed
    once per channel.
    """

    def __init__(self, P: np.ndarray):
        self.P = np.asarray(P, dtype=float)
        self._memo: dict[tuple, tuple[float, float]] = {}

    def _cached(self, key: tuple, compute) -> tuple[float, float]:
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _pairs(self, order: float, pref: float) -> tuple[float, float]:
        # max over pairs of log sum P(y|x')^(1-order) P(y|x)^order, scaled afterwards
        v = self._cached(("pairs", order), lambda: (power_pairs(self.P, 1.0 - order, order, 1.0),) * 2)[0]
        return pref * v, pref * v

    def _closed(self, key: tuple, compute) -> tuple[float, float]:
        return self._cached(key, lambda: (compute(),) * 2)

    def family(self, alpha: float, beta: float) -> tuple[float, float]:
        """Bracket of the (alpha, beta) family value, dispatched over the order square."""
        P = self.P
        if math.isinf(alpha) and math.isinf(beta):
            return self._closed(("ratio",), lambda: sup_ratio(P))
        if math.isinf(alpha):
            return self._closed(("alpha-inf", beta), lambda: alpha_inf(P, beta))
        if math.isinf(beta):
            ratio = self._closed(("ratio",), lambda: sup_ratio(P))[0]
            return (alpha / (alpha - 1.0) * ratio,) * 2
        if beta >= alpha:
            return self._pairs(beta, alpha / ((alpha - 1.0) * beta))
        return self._cached(("concave", alpha, beta), lambda: concave_bracket(P, alpha, beta))

    def measure(self, name: str, alpha: float | None = None, beta: float | None = None,
                tau: float | None = None) -> tuple[float, float]:
        """Bracket for one measure, named as on the chanleak command line."""
        if name == "abl":
            return self.family(alpha, beta)
        if name == "max-alpha-l":
            return self.family(alpha, 1.0)
        if name == "alpha-tau":
            return self.family(alpha, tau_beta(alpha, tau))
        if name == "lrdp":
            return self._pairs(alpha, 1.0 / (alpha - 1.0))
        if name == "lrdp-variant":
            return self.family(math.inf, beta)
        if name == "ldp":
            return self.family(math.inf, math.inf)
        if name == "maxl":
            return self._closed(("maxl",), lambda: maximal_leakage(self.P))
        if name == "capacity":
            return self._cached(("capacity",), lambda: capacity_bracket(self.P))
        raise ValueError(f"unknown measure {name!r}")


def within(value: float, bracket: tuple[float, float], tolerance: float, below: float = 0.0) -> bool:
    """True when ``value`` lies in the bracket widened by ``tolerance`` (relative
    to max(1, |bound|)) and, on the lower side only, by ``below`` more;
    +inf matches only an exact +inf bracket."""
    lower, upper = bracket
    if math.isnan(value):
        return False
    if math.isinf(lower) or math.isinf(upper) or math.isinf(value):
        return value == lower == upper
    return (lower - below - tolerance * max(1.0, abs(lower)) <= value
            <= upper + tolerance * max(1.0, abs(upper)))
