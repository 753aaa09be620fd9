"""Shared log-domain primitive.

Kept in its own module so the oracle and the analytic measures can use
the same numerically careful reduction without depending on each other.
"""

from __future__ import annotations

import numpy as np

__all__ = ["logsumexp"]


def logsumexp(a: np.ndarray, axis=None, temperature: float = 1.0):
    """Max-shifted log-sum-exp; -inf entries drop out, +inf dominates.

    At a temperature t > 0 it is log(sum exp(t a)) / t, formed as
    max + log(sum exp(t (a - max))) / t so that t a is never formed; at
    t = 1 it is the plain log-sum-exp bit for bit. Returns a float when
    ``axis`` is None, otherwise an array with that axis reduced. All -inf
    slices reduce to -inf without warnings.
    """
    a = np.asarray(a, dtype=float)
    # the ufunc reductions are np.max and np.sum without their wrappers,
    # which cost more than the arithmetic on the small arrays served here
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        scaled = temperature * (a - shift)  # exact at t = 1, as is the division below
        out = np.log(np.add.reduce(np.exp(scaled), axis=axis, keepdims=True)) / temperature + shift
    if axis is None:
        return float(out.reshape(()))
    return out.squeeze(axis)
