"""Shared log-domain primitive.

Kept in its own module so the oracle and the analytic measures can use
the same numerically careful reduction without depending on each other.
"""

from __future__ import annotations

import numpy as np

__all__ = ["logsumexp"]


def logsumexp(a: np.ndarray, axis=None):
    """Max-shifted log-sum-exp; -inf entries drop out, +inf dominates.

    Returns a float when ``axis`` is None, otherwise an array with that
    axis reduced. All -inf slices reduce to -inf without warnings.
    """
    a = np.asarray(a, dtype=float)
    # the ufunc reductions are np.max and np.sum without their wrappers,
    # which cost more than the arithmetic on the small arrays served here;
    # exp works in place, so a large input costs one temporary, not two
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        terms = np.subtract(a, shift)
        out = np.log(np.add.reduce(np.exp(terms, out=terms), axis=axis, keepdims=True)) + shift
    if axis is None:
        return float(out.reshape(()))
    return out.squeeze(axis)
