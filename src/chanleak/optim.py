"""The certified solver: the concave regime beta < alpha, and capacity.

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
Arimoto, which Arimoto extended to order-alpha capacity. Capacity itself is
the second problem here: I(q) <= C <= max over x of D(P_x || qP) at every q.

That scheme alone converges sublinearly where weights decay toward 0, so
the leading rows (the one holding the best lower end of the bracket and
the one holding the largest upper end, exact ties included) follow each
multiplicative step with one safeguarded projected Newton step
(:func:`_newton_step`) on the inputs that carry weight. The step moves
along the projection arc max(p + t d, 0) of Bertsekas ("Projected Newton
methods for optimization problems with simple constraints", SIAM J.
Control Optim. 1982), so every input it drives to zero leaves in the same
step rather than one per step; the two kinds of step together certify in
a handful of steps where the multiplicative steps alone take thousands.
The Newton step is accepted only where the objective does not drop, so the
iterates still ascend, and since the bracket holds at every point, it can
only close the bracket sooner. The other rows take only the cheap batched
multiplicative step until they are dropped or take the lead. Both
problems share one loop, which also drops a reference input once its
bracket shows it cannot win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _EPS, SimplexPoint, _positive_int
from .errors import InvalidEntry, NumericalFailure

__all__ = ["OptimizerConfig", "OptimizerReport", "maximize_information", "maximize_power_sum"]

# The loop runs on to this fraction of the requested tolerance: the
# iterate's shortfall below the supremum tracks its gap almost one to one,
# so a value certified to the tolerance is also accurate to it.
_MARGIN = 1e-2

# Bracket ends are logs of sums over n + m terms; differences below this
# many units in the last place of them are rounding, never a certificate.
_ROUNDING_ULPS = 4.0

# Every weight stays above e^-600 times the largest, so each reached
# output keeps a mixture far above underflow and B^(c-1) stays finite,
# even where reference weights underflowed to 0; a weight this small moves
# no value by a representable amount.
_LOG_WEIGHT_FLOOR = -600.0

# The Newton step moves the inputs weighing more than this fraction of
# the largest weight, plus those whose gradient says they should gain.
_FREE_WEIGHT = 1e-9
# Ridge on the free Hessian, relative to its trace: duplicated rows and
# more inputs than outputs make the Hessian singular.
_RIDGE = 1e-13
# The Newton step length is halved at most this many times along the
# projection arc, and as many times again from the first blocking length.
_MAX_HALVINGS = 20


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for :func:`maximize_power_sum` and :func:`maximize_information`.

    ``tolerance``, positive and finite, bounds the certified gap at exit;
    ``max_iterations``, a positive integer, caps the number of steps, each
    one multiplicative step for every row still in the race followed by
    one Newton step for each of the rows that lead it. Either out of range
    raises InvalidEntry.
    """

    max_iterations: int = 10_000
    tolerance: float = 1e-9

    def __post_init__(self):
        _positive_int(self.max_iterations, "max_iterations")
        if not 0.0 < self.tolerance < math.inf:
            raise InvalidEntry(f"tolerance must be positive and finite, got {self.tolerance!r}")


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


def _prefactor(alpha: float, beta: float) -> float:
    """alpha / ((alpha-1) beta), divided in turn: the product (alpha-1) beta
    overflows to inf at huge finite orders, which would make it 0."""
    return alpha / (alpha - 1.0) / beta


def maximize_power_sum(logP: np.ndarray, colmax: np.ndarray, alpha: float, beta: float,
                       config: OptimizerConfig) -> tuple[int, OptimizerReport]:
    """Maximize the family's inner expression over x' and p, for finite beta < alpha.

    ``logP`` is the log of the channel matrix over the outputs some input
    reaches, and ``colmax`` its column maximum. At beta > 1 a zero entry in
    a column that some input reaches makes the value +inf, and
    :func:`chanleak.measures.maximal_alpha_beta_leakage` returns it, with
    its witness pair, without calling here. All reference inputs run at once
    (one, when beta = 1 and the reference row drops out); each
    multiplicative step is two matrix products in the column-scaled domain
    exp(alpha log P - column max), where the largest entry of each column
    is 1 at any alpha, and is followed by a Newton step for the leading
    rows. A row whose upper end falls below the best lower end by more
    than rounding is dropped; the row holding the best lower end never is.

    Returns the winning reference input (the last one among exact ties)
    and the report of its mixture. The certified gap is the largest upper
    end of the brackets, pruned rows' last ones included, minus the
    reported value, never below the rounding of the bracket ends.
    Non-convergence is reported, never raised.
    """
    n, m = logP.shape
    c = beta / alpha
    pref = _prefactor(alpha, beta)
    A = np.exp(alpha * (logP - colmax))
    AT = np.ascontiguousarray(A.T)
    # r(y) times the column scale raised to c, one row per reference input
    logR = beta * colmax[None, :] if beta == 1.0 else (1.0 - beta) * logP + beta * colmax
    shift = logR.max(axis=1)
    R = np.exp(logR - shift[:, None])

    def bracket(p, R, shift):
        B = p @ A
        W = R * B ** (c - 1.0)
        G = (W * B).sum(axis=1)
        ratio = W @ AT
        ratio /= G[:, None]
        lower = pref * (np.log(G) + shift)
        upper = lower + pref * np.log1p(c * (ratio.max(axis=1) - 1.0))
        step = np.log(ratio, out=ratio)
        step /= 1.0 - c
        return lower, upper, step

    def newton_terms(p, R, shift):
        B = p @ A
        grad = c * ((R * B ** (c - 1.0)) @ AT)
        # H = c (c-1) A diag(R B^(c-2)) A^T, factored with square roots so
        # that no factor overflows where a mixture sits near the weight floor
        S = np.sqrt(R) * B ** (0.5 * c - 1.0)
        for k in range(len(p)):
            def objective(q, r=R[k]):
                return float(r @ (q @ A) ** c)
            yield grad[k], c * (c - 1.0), A, S[k], objective, float(R[k] @ B[k] ** c)

    return _ascend(np.full((len(R), n), 1.0 / n), n + m, pref, bracket, newton_terms, config, (R, shift))


def maximize_information(matrix: np.ndarray, config: OptimizerConfig) -> OptimizerReport:
    """Maximize the mutual information over input laws q: the capacity of a channel matrix.

    Blahut-Arimoto steps q <- q exp D(P_x || qP), each followed by a Newton
    step (Hessian -P diag(1/qP) P^T over the reached outputs). The report
    certifies I(q) <= C <= max over x of D(P_x || qP); non-convergence
    within ``config.max_iterations`` is reported, never raised.
    """
    reached = matrix[:, matrix.max(axis=0) > 0.0]  # the columns some input reaches
    n, m = reached.shape
    neg_entropy = (reached * np.log(reached, out=np.zeros_like(reached), where=reached > 0.0)).sum(axis=1)

    def divergences(q: np.ndarray) -> np.ndarray:
        """D(P_x || qP) for every input x; +inf where x reaches an output q leaves unreached."""
        qP = q @ reached
        unreached = qP == 0.0
        d = neg_entropy - reached @ np.log(qP + unreached)  # log 1 = 0 stands in at unreached outputs
        d[reached @ unreached > 0.0] = math.inf
        return d

    def information(q: np.ndarray, d: np.ndarray) -> float:
        """I under q from its divergences d; -inf where q misses a reached output, so no step goes there."""
        return float(q @ d) if d.max() < math.inf else -math.inf

    def bracket(p):
        d = divergences(p[0])
        return np.maximum(p @ d, 0.0), d.max(keepdims=True), d[None, :]

    def newton_terms(p):
        d = divergences(p[0])
        yield (d, -1.0, reached, 1.0 / np.sqrt(p[0] @ reached),
               lambda q: information(q, divergences(q)), information(p[0], d))

    return _ascend(np.full((1, n), 1.0 / n), n + m, 1.0, bracket, newton_terms, config)[1]


def _ascend(p: np.ndarray, terms: int, scale: float, bracket, newton_terms,
            config: OptimizerConfig, rows: tuple = ()) -> tuple[int, OptimizerReport]:
    """The certified ascent both solvers share, from the start weights p, one row per problem.

    ``bracket(p, *rows)`` gives each live row's lower end, upper end and
    log multiplicative step. Every live row takes the multiplicative step;
    then the leading rows, those whose lower end equals the best one or
    whose upper end equals the largest one, take a Newton step.
    ``newton_terms(p, *rows)``, given the leading rows only, yields row by
    row the arguments of :func:`_newton_step` after the point, its value
    at the point last, all worked out from p before its first row moves.
    Exact equality keeps rows that tie exactly stepping alike. A row whose
    upper end falls below the best lower end by more than rounding
    (``scale`` times that of ``terms`` terms) leaves with its ``rows``
    state; the best never does. The gap is the largest upper end, departed
    rows' included, minus the value. One ``np.errstate`` covers the whole
    loop, Newton steps included. Returns the best row's original index
    (the last among ties) and its report.
    """
    live = np.arange(len(p))  # the original index of each row still in the race
    pruned_upper = -math.inf
    logp = np.zeros_like(p)  # log weights up to a per-row constant
    iterations = 0
    # one scope for the whole loop: log(0) for an input whose weight
    # underflowed to 0 meets the weight floor, and a Newton system that is
    # not finite shows in its direction
    with np.errstate(all="ignore"):
        while True:
            lower, upper, step = bracket(p, *rows)
            best = len(lower) - 1 - int(lower[::-1].argmax())
            value = float(lower[best])
            floor = _ROUNDING_ULPS * terms * _EPS * max(scale, abs(value))
            top = float(upper.max())
            gap = max(max(top, pruned_upper) - value, floor)
            if not math.isfinite(gap):
                raise NumericalFailure("the certified bracket is not finite")
            if gap <= max(config.tolerance * _MARGIN, floor) or iterations == config.max_iterations:
                break
            lead = range(len(p))  # a lone row is the best row, and leads
            if len(p) > 1:
                # a row whose upper end sits below the best lower end can
                # never win: its supremum lies below that of the best row
                keep = upper >= value - floor
                keep[best] = True
                if not keep.all():
                    pruned_upper = max(pruned_upper, float(upper[~keep].max()))
                    live, logp, step, lower, upper = live[keep], logp[keep], step[keep], lower[keep], upper[keep]
                    rows = tuple(state[keep] for state in rows)
                lead = ((lower == value) | (upper == top)).nonzero()[0].tolist()
            logp += step
            logp -= logp.max(axis=1, keepdims=True)
            np.maximum(logp, _LOG_WEIGHT_FLOOR, out=logp)
            p = np.exp(logp)
            p /= p.sum(axis=1, keepdims=True)
            if len(lead) == len(p):
                leading = newton_terms(p, *rows)
            else:
                leading = newton_terms(p[lead], *(state[lead] for state in rows))
            for k, args in zip(lead, leading):
                p[k] = _newton_step(p[k], *args)
            # the floor lies below each row's largest weight, which it leaves as it was
            heaviest = p.max(axis=1, keepdims=True)
            np.maximum(p, math.exp(_LOG_WEIGHT_FLOOR) * heaviest, out=p)
            logp = p / heaviest
            np.log(logp, out=logp)
            iterations += 1
    report = OptimizerReport(
        value=value,
        maximizer=SimplexPoint(p[best]),
        iterations=iterations,
        certified_gap=gap,
        converged=gap <= config.tolerance,
    )
    return int(live[best]), report


def _newton_step(p: np.ndarray, grad: np.ndarray, curvature: float, factor: np.ndarray,
                 scale: np.ndarray, objective, start: float) -> np.ndarray:
    """One safeguarded projected Newton step of a concave objective on the simplex.

    The free inputs are those that carry weight (above ``_FREE_WEIGHT`` of
    the largest) and those that enter: their gradient exceeds <p, grad>,
    so they would gain weight; the others stay fixed. The Hessian on them
    is H = ``curvature`` Z_F Z_F^T, curvature < 0, with Z_F the free rows
    of ``factor`` times the column ``scale``, formed once. The direction
    solves the KKT system of H on the simplex by Schur complement
    (:func:`_kkt_direction`); an entering input that it would push below
    zero is fixed again and the direction solved without it. Lengths
    t = 1, 1/2, ... above the first t that drives an input to zero try the
    projection arc max(p + t d, 0), so every input the step blocks leaves
    at once (Bertsekas's projected Newton method); then t runs from that
    first blocking length, halved each time. A point is taken only where
    ``objective`` does not drop below ``start``, its value at p. Returns
    the new point, renormalized, or p itself when no step qualifies. The
    caller holds the errstate: a system that is not finite gives no
    direction, so its warnings are noise.
    """
    held = p > _FREE_WEIGHT * p.max()
    free = (held | (grad > p @ grad)).nonzero()[0]
    Z = factor[free] * scale
    H = curvature * (Z @ Z.T)
    while True:
        if len(free) < 2:
            return p
        d = _kkt_direction(H, grad[free])
        if d is None:
            return p
        shrink = d < 0.0
        leaving = shrink & ~held[free]
        if not leaving.any():
            break
        stay = ~leaving
        free, H = free[stay], H[np.ix_(stay, stay)]
    base = p[free]
    blocking = min(1.0, float((base[shrink] / -d[shrink]).min())) if shrink.any() else 1.0
    q = np.empty_like(p)
    for t in _step_lengths(blocking):
        q[:] = p
        q[free] = np.maximum(base + t * d, 0.0)
        q /= q.sum()
        if objective(q) >= start:
            return q
    return p


def _kkt_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """The d of [[H - delta I, 1], [1^T, 0]] [d; lambda] = [-g; 0], delta a ridge of ``_RIDGE`` |tr H|.

    Solved by Schur complement: one solve of M = H - delta I against -g
    and 1 gives u and v, and d = u - v (sum u / sum v) is the solution
    whose entries sum to zero. H is negative semidefinite, so M is
    negative definite and sum v < 0 wherever delta > 0. Returns None where
    H or g is not finite or M is singular. An entry of H = c Z Z^T that is
    not finite shows on its diagonal, so delta catches it before the
    solve: LAPACK can return a finite d from a matrix with an infinite
    entry.
    """
    k = len(g)
    delta = _RIDGE * abs(H.trace())
    if not math.isfinite(delta):
        return None
    M = H.copy()
    M.ravel()[:: k + 1] -= delta
    rhs = np.ones((k, 2))
    rhs[:, 0] = -g
    try:
        u, v = np.linalg.solve(M, rhs).T
    except np.linalg.LinAlgError:
        return None
    d = u - v * (u.sum() / v.sum())
    return d if np.isfinite(d).all() else None


def _step_lengths(blocking: float):
    """The lengths a Newton step tries: 1, 1/2, ... while above ``blocking``, then ``blocking`` halved."""
    t = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        if t <= blocking:
            break
        yield t
        t *= 0.5
    t = blocking
    for _ in range(_MAX_HALVINGS + 1):
        yield t
        t *= 0.5
