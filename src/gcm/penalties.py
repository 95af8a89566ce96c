"""Scalar penalty functions and their first derivatives.

All four functions accept scalars or numpy arrays and broadcast elementwise.
``huber`` penalizes weights; ``smoothed_hinge`` penalizes margin violations
and degrades to the exact hinge at ``delta = 0``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def _check_epsilon(epsilon: float):
    if not 0.0 < epsilon < np.inf:
        raise DomainError(f"epsilon must be finite and > 0, got {epsilon}")


def _check_delta(delta: float):
    if not 0.0 <= delta < np.inf:
        raise DomainError(f"delta must be finite and >= 0, got {delta}")


def _maybe_scalar(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def huber(t, epsilon: float):
    """Huber penalty: quadratic ``t^2 / (2 eps)`` for ``|t| <= eps``, else ``|t| - eps/2``."""
    _check_epsilon(epsilon)
    t = np.asarray(t, dtype=np.float64)
    at = np.abs(t)
    out = np.where(at <= epsilon, t * t / (2.0 * epsilon), at - epsilon / 2.0)
    return _maybe_scalar(out, t.ndim == 0)


def huber_prime(t, epsilon: float):
    """Derivative of :func:`huber`: ``t / eps`` inside the band, ``sign(t)`` outside."""
    _check_epsilon(epsilon)
    t = np.asarray(t, dtype=np.float64)
    out = np.where(np.abs(t) <= epsilon, t / epsilon, np.sign(t))
    return _maybe_scalar(out, t.ndim == 0)


def smoothed_hinge(t, delta: float):
    """Hinge loss with a quadratic blend of width ``2 delta`` below the margin.

    Piecewise: 0 for ``t >= 1``; ``(1 - t)^2 / (4 delta)`` for
    ``1 - 2 delta <= t < 1``; ``1 - t - delta`` for ``t < 1 - 2 delta``.
    ``delta = 0`` gives the exact hinge ``max(0, 1 - t)``.
    """
    _check_delta(delta)
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    if delta == 0.0:
        return _maybe_scalar(np.maximum(0.0, 1.0 - t), scalar)
    # one select: at t >= 1 the quadratic of min(t, 1) = 1 is already +0.0
    out = np.where(t >= 1.0 - 2.0 * delta,
                   (1.0 - np.minimum(t, 1.0)) ** 2 / (4.0 * delta),
                   1.0 - t - delta)
    return _maybe_scalar(out, scalar)


def smoothed_hinge_prime(t, delta: float):
    """Derivative of :func:`smoothed_hinge`.

    At ``delta = 0`` returns the hinge subgradient choice: -1 for ``t < 1``
    and 0 for ``t >= 1`` (0 at exactly ``t = 1``).
    """
    _check_delta(delta)
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    if delta == 0.0:
        return _maybe_scalar(np.where(t < 1.0, -1.0, 0.0), scalar)
    # one select, as in smoothed_hinge: min(t, 1) - 1 is +0.0 at t >= 1
    out = np.where(t >= 1.0 - 2.0 * delta,
                   (np.minimum(t, 1.0) - 1.0) / (2.0 * delta), -1.0)
    return _maybe_scalar(out, scalar)
