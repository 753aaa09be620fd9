"""Finite-alphabet probability primitives.

A channel is a row-stochastic matrix: entry (x, y) is the probability of
output y given input x. Distributions are points on the probability
simplex. All algebra is positional; labels are carried as metadata and are
never consulted by any computation. Both pass one whole-array check, which
stores a read-only copy of the input and leaves the caller's array alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEntry, NotStochastic, NumericalFailure, ShapeError

__all__ = [
    "DEFAULT_TOLERANCE",
    "SimplexPoint",
    "Channel",
    "OrderPair",
    "LeakageValue",
    "validate_channel",
    "compose",
    "product",
    "push_forward",
    "read_channel_csv",
    "write_channel_csv",
]

# Lenient gate: how far a user-supplied row may stray from sum 1 and still
# be renormalized rather than rejected.
DEFAULT_TOLERANCE = 1e-9

# Tight invariant enforced after construction / renormalization.
_TIGHT = 1e-12

# Leakage values this far below zero are treated as round-off, anything
# worse is a bug upstream.
_NEGATIVE_ROUNDOFF = 1e-9


def _stochastic(raw, ndim: int, tolerance: float, what: str) -> np.ndarray:
    """A read-only float copy of ``raw``: ``ndim`` non-empty axes, finite
    nonnegative entries, and every row (the vector itself at ``ndim`` 1)
    within ``tolerance`` of sum one and divided by its sum, which leaves a
    row that sums to exactly one as it was. A fault names its first row."""
    try:  # in C order each row sums pairwise, bit for bit as a 1-D vector would
        arr = np.array(raw, dtype=float, order="C")
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"{what} is not a rectangular array of numbers: {exc}") from None
    if arr.ndim != ndim or arr.size == 0:
        raise ShapeError(f"{what} must be {ndim}-D and non-empty, got shape {arr.shape}")
    rows = arr.reshape(-1, arr.shape[-1])

    def where(marked: np.ndarray) -> str:
        return what if ndim == 1 else f"row {int(np.argmax(marked))} of the {what}"

    if not (rows.min() >= 0.0 and rows.max() < math.inf):  # NaN fails both
        for bad, problem in ((~np.isfinite(rows), "contains a non-finite entry"),
                             (rows < 0.0, "contains a negative entry")):
            if bad.any():
                raise InvalidEntry(f"{where(bad.any(axis=1))} {problem}")
    with np.errstate(over="ignore"):  # a sum that overflows is inf, and off
        sums = rows.sum(axis=1, keepdims=True)
    off = ~(np.abs(sums[:, 0] - 1.0) < tolerance)
    if off.any():
        total = float(sums[np.argmax(off), 0])
        raise NotStochastic(f"{where(off)} sums to {total!r}, outside tolerance {tolerance!r}")
    rows /= sums
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """A probability distribution over a finite alphabet.

    Direct construction expects an already normalized vector (sum within
    1e-12 of one); use :meth:`from_weights` to renormalize noisier input.
    The stored array is a read-only copy of the input.
    """

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _stochastic(self.weights, 1, _TIGHT, "weights"))

    @classmethod
    def from_weights(cls, raw, tolerance: float = DEFAULT_TOLERANCE) -> "SimplexPoint":
        """Build a point, renormalizing a sum that deviates by less than tolerance."""
        return cls(_stochastic(raw, 1, tolerance, "weights"))

    @classmethod
    def uniform(cls, dim: int) -> "SimplexPoint":
        if dim < 1:
            raise ShapeError(f"dimension must be >= 1, got {dim}")
        return cls(np.full(dim, 1.0 / dim))

    @classmethod
    def point_mass(cls, dim: int, index: int) -> "SimplexPoint":
        if dim < 1:
            raise ShapeError(f"dimension must be >= 1, got {dim}")
        if not 0 <= index < dim:
            raise ShapeError(f"index {index} out of range for dimension {dim}")
        w = np.zeros(dim)
        w[index] = 1.0
        return cls(w)

    def __len__(self) -> int:
        return self.weights.shape[0]


def _checked_labels(labels, count: int, what: str) -> tuple[str, ...] | None:
    if labels is None:
        return None
    out = tuple(str(item) for item in labels)
    if len(out) != count:
        raise ShapeError(f"{what} has {len(out)} labels for {count} symbols")
    return out


@dataclass(frozen=True, eq=False)
class Channel:
    """A row-stochastic matrix with optional alphabet labels.

    Direct construction expects rows already summing to one within 1e-12;
    :func:`validate_channel` is the lenient gate for external input. The
    stored matrix is a read-only copy of the input.
    """

    matrix: np.ndarray
    input_labels: tuple[str, ...] | None = None
    output_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", _stochastic(self.matrix, 2, _TIGHT, "channel matrix"))
        object.__setattr__(self, "input_labels", _checked_labels(self.input_labels, self.n_inputs, "input"))
        object.__setattr__(self, "output_labels", _checked_labels(self.output_labels, self.n_outputs, "output"))

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[1]

    def row(self, x: int) -> np.ndarray:
        return self.matrix[x]


def validate_channel(
    matrix,
    tolerance: float = DEFAULT_TOLERANCE,
    input_labels=None,
    output_labels=None,
) -> Channel:
    """Validate a candidate matrix and return a :class:`Channel`.

    The matrix is copied and checked as a whole. Rows whose sums deviate
    from one by less than ``tolerance`` are renormalized; larger deviations
    raise :class:`NotStochastic`. Negative or non-finite entries raise
    :class:`InvalidEntry`, ahead of any bad row sum; a ragged or
    non-2-D argument raises :class:`ShapeError`.
    """
    return Channel(_stochastic(matrix, 2, tolerance, "channel matrix"), input_labels, output_labels)


def _underflow_checked(matrix: np.ndarray, reached: np.ndarray, what: str) -> np.ndarray:
    """``matrix``, refused where an entry that ``reached`` marks positive underflowed to 0.

    Such an entry drops an output its input reaches, which can turn a
    finite leakage value into +inf.
    """
    lost = reached & (matrix == 0.0)
    if lost.any():
        x, y = (int(i) for i in np.argwhere(lost)[0])
        raise NumericalFailure(f"entry ({x}, {y}) of the {what} is positive but underflows to 0")
    return matrix


def compose(first: Channel, second: Channel) -> Channel:
    """Cascade two channels: the output of ``first`` feeds ``second``.

    Raises NumericalFailure where an entry of the cascade underflows.
    """
    if first.n_outputs != second.n_inputs:
        raise ShapeError(
            f"cannot compose: first has {first.n_outputs} outputs, second expects {second.n_inputs} inputs"
        )
    reached = (first.matrix > 0.0) @ (second.matrix > 0.0)
    return Channel(
        _underflow_checked(first.matrix @ second.matrix, reached, "composition"),
        input_labels=first.input_labels,
        output_labels=second.output_labels,
    )


def _paired_labels(a: tuple[str, ...] | None, b: tuple[str, ...] | None) -> tuple[str, ...] | None:
    if a is None or b is None:
        return None
    return tuple(f"{la},{lb}" for la in a for lb in b)


def product(first: Channel, second: Channel) -> Channel:
    """Tensor (Kronecker) product channel acting on the product alphabets.

    Raises NumericalFailure where an entry of the product underflows.
    """
    reached = np.kron(first.matrix > 0.0, second.matrix > 0.0)
    return Channel(
        _underflow_checked(np.kron(first.matrix, second.matrix), reached, "product"),
        input_labels=_paired_labels(first.input_labels, second.input_labels),
        output_labels=_paired_labels(first.output_labels, second.output_labels),
    )


def push_forward(point: SimplexPoint, channel: Channel) -> SimplexPoint:
    """Output distribution induced by feeding ``point`` through ``channel``."""
    if len(point) != channel.n_inputs:
        raise ShapeError(
            f"distribution has {len(point)} entries, channel expects {channel.n_inputs}"
        )
    return SimplexPoint(point.weights @ channel.matrix)


@dataclass(frozen=True)
class OrderPair:
    """The (alpha, beta) order pair selecting a member of the leakage family.

    alpha lies in (1, inf], beta in [1, inf]; ``math.inf`` is the exact
    representation of an infinite order. Order alpha = 1 is served by the
    dedicated channel-capacity routine, not by this pair.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        a = float(self.alpha)
        b = float(self.beta)
        if math.isnan(a) or a <= 1.0:
            raise InvalidEntry(f"alpha must lie in (1, inf], got {self.alpha!r}")
        if math.isnan(b) or b < 1.0:
            raise InvalidEntry(f"beta must lie in [1, inf], got {self.beta!r}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def alpha_infinite(self) -> bool:
        return math.isinf(self.alpha)

    @property
    def beta_infinite(self) -> bool:
        return math.isinf(self.beta)


@dataclass(frozen=True)
class LeakageValue:
    """A leakage amount in nats; +inf is legal, NaN and truly negative are not.

    Negative round-off within 1e-9 of zero is clamped to exactly zero so
    that downstream consumers never see a spurious sign.
    """

    nats: float

    def __post_init__(self):
        v = float(self.nats)
        if math.isnan(v):
            raise NumericalFailure("leakage value is NaN")
        if v < 0.0:
            if v < -_NEGATIVE_ROUNDOFF:
                raise NumericalFailure(f"leakage value {v!r} is negative beyond round-off")
            v = 0.0
        object.__setattr__(self, "nats", v)

    @property
    def bits(self) -> float:
        return self.nats / math.log(2.0)

    def __float__(self) -> float:
        return self.nats


def read_channel_csv(path, tolerance: float = DEFAULT_TOLERANCE) -> Channel:
    """Read a channel from CSV: one row per input symbol, entries as decimal literals.

    An optional first line starting with ``#`` carries comma-separated
    output labels. Blank lines are ignored.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    lines = [line for line in lines if line]
    if not lines:
        raise ShapeError(f"{path}: no rows found")
    output_labels = None
    if lines[0].startswith("#"):
        output_labels = [token.strip() for token in lines[0][1:].split(",")]
        lines = lines[1:]
        if not lines:
            raise ShapeError(f"{path}: header but no rows")
    rows = []
    for lineno, line in enumerate(lines, start=1):
        tokens = [token.strip() for token in line.split(",")]
        try:
            rows.append([float(token) for token in tokens])
        except ValueError:
            raise InvalidEntry(f"{path}: row {lineno} holds a non-numeric token") from None
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ShapeError(f"{path}: rows have unequal lengths")
    return validate_channel(rows, tolerance=tolerance, output_labels=output_labels)


def write_channel_csv(channel: Channel, path) -> None:
    """Write a channel as CSV with 17 significant digits (exact float round-trip)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if channel.output_labels is not None:
            handle.write("# " + ",".join(channel.output_labels) + "\n")
        for x in range(channel.n_inputs):
            handle.write(",".join(f"{v:.17g}" for v in channel.matrix[x]) + "\n")
