"""Training entry points: grouped and per-candidate minimization.

Both start from the zero model (the objectives are convex, so the start
affects only the iteration count) and pack ``(w, b)`` into one flat vector
for the solver, which takes each accepted point's gradient from the
:class:`~gcm.objectives.ObjectiveValue` of the pass that priced it.
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import Dataset, Hyperparams, LinearModel
from .objectives import ObjectiveValue, eval_grouped, eval_per_candidate
# Not called here: bench/tracing.py patches and counts these names on this module.
from .objectives import gradient_per_candidate, subgradient_grouped  # noqa: F401
from .solver import SolverConfig, SolveTrace, minimize


def _unpack(point: np.ndarray) -> LinearModel:
    return LinearModel(w=point[:-1], b=float(point[-1]))


def _warn_unregularized(hp: Hyperparams):
    if hp.lam == 1.0:
        warnings.warn(
            "lam=1 disables regularization; on separable data the infimum may "
            "not be attained and the run is bounded only by the iteration cap",
            stacklevel=3,
        )


def train_per_candidate(data: Dataset, hp: Hyperparams,
                        cfg: SolverConfig | None = None,
                        start: LinearModel | None = None
                        ) -> tuple[LinearModel, SolveTrace]:
    """Minimize the per-candidate objective over ``data``."""
    _warn_unregularized(hp)
    point, trace = minimize(
        lambda p: _priced(eval_per_candidate(_unpack(p), data, hp)),
        _start_point(data.d, start),
        cfg,
    )
    return _unpack(point), trace


def train_gcm(data: Dataset, hp: Hyperparams,
              cfg: SolverConfig | None = None
              ) -> tuple[LinearModel, SolveTrace]:
    """Minimize the grouped objective (key positives, max-loss negatives)."""
    _warn_unregularized(hp)
    point, trace = minimize(
        lambda p: _priced(eval_grouped(_unpack(p), data, hp)),
        _start_point(data.d, None),
        cfg,
    )
    return _unpack(point), trace


def _priced(value: ObjectiveValue):
    """``(total, gradient thunk)`` in the form :func:`minimize` takes."""
    def grad() -> np.ndarray:
        g = value.gradient()
        return np.concatenate([g.grad_w, [g.grad_b]])
    return value.total, grad


def _start_point(d: int, start: LinearModel | None) -> np.ndarray:
    if start is None:
        return np.zeros(d + 1)
    return np.concatenate([start.w, [start.b]])
