"""Training entry points: grouped and per-candidate minimization.

Both trainers run one solve, :func:`_train`, and differ only in the
objective it prices. ``train_gcm`` starts from the zero model;
``train_per_candidate`` starts from ``start`` when one is given (MI-SVM
warm-starts each inner problem from the previous model) and from zero
otherwise. The objectives are convex, so the start affects only the
iteration count. The solve packs ``(w, b)`` into one flat vector for the
solver, which takes each accepted point's gradient from the
:class:`~gcm.objectives.ObjectiveValue` of the pass that priced it; that
gradient comes in the same layout, weights then bias.
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import Dataset, Hyperparams, LinearModel
from .objectives import _WorkingSet, eval_grouped, eval_per_candidate
from .solver import SolverConfig, SolveTrace, minimize


# Not called in this package: bench/tracing.py patches and counts these two
# names on this module, and they are its only user.
def gradient_per_candidate(model, data, hp):
    return eval_per_candidate(model, data, hp).gradient()


def subgradient_grouped(model, data, hp):
    return eval_grouped(model, data, hp).gradient()


def _unpack(point: np.ndarray) -> LinearModel:
    return LinearModel(w=point[:-1], b=float(point[-1]))


def train_per_candidate(data: Dataset, hp: Hyperparams,
                        cfg: SolverConfig | None = None,
                        start: LinearModel | None = None
                        ) -> tuple[LinearModel, SolveTrace]:
    """Minimize the per-candidate objective over ``data``."""
    return _train(eval_per_candidate, data, hp, cfg, start)


def train_gcm(data: Dataset, hp: Hyperparams,
              cfg: SolverConfig | None = None
              ) -> tuple[LinearModel, SolveTrace]:
    """Minimize the grouped objective (key positives, max-loss negatives).

    Over an in-memory :class:`Dataset` the solve prices points on a working
    set whenever it can prove the result equal to a full pass, and prices
    the zero start and the backtracks of its first line search, which are
    power-of-two multiples of the first step, from gathered rows without
    scoring any (see :class:`~gcm.objectives._WorkingSet`). A streamed
    source is read whole at every point. Either way the model and trace are
    the same, bit for bit, except ``rows_priced``.
    """
    return _train(eval_grouped, data, hp, cfg, None,
                  screened=isinstance(data, Dataset))


def _train(objective, data: Dataset, hp: Hyperparams,
           cfg: SolverConfig | None, start: LinearModel | None,
           screened: bool = False) -> tuple[LinearModel, SolveTrace]:
    """Minimize ``objective(model, data, hp)`` from ``start`` or zero.

    The caller passes the objective it looked up at call time, so a patched
    module attribute is the one that runs. ``screened`` gives each call a
    working set that lives for this solve only.
    """
    state = {"_working_set": _WorkingSet()} if screened else {}
    if hp.lam == 1.0:
        warnings.warn(
            "lam=1 disables regularization; on separable data the infimum may "
            "not be attained and the run is bounded only by the iteration cap",
            stacklevel=3,
        )
    point, trace = minimize(
        lambda p: objective(_unpack(p), data, hp, **state),
        np.zeros(data.d + 1) if start is None
        else np.concatenate([start.w, [start.b]]),
        cfg,
    )
    return _unpack(point), trace
