"""Training entry points: grouped and per-candidate minimization.

Both trainers run one solve, :func:`_train`, and differ only in the
objective it prices. Each starts from ``start`` when one is given and from
the zero model otherwise: MI-SVM warm-starts each inner problem from the
previous model, and cross-validation each fit of a fold's trade-off chain
from the fit before. The objectives are convex, so the start moves only
the iteration count and, within the solver's tolerances, the last digits
of the result. A ``start`` whose width is not ``data.d`` is refused before
any pass. The solve packs ``(w, b)`` into one flat vector for the
solver, which takes each accepted point's gradient from the
:class:`~gcm.objectives.ObjectiveValue` of the pass that priced it; that
gradient comes in the same layout, weights then bias.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionMismatchError
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


def _start_point(start: LinearModel | None, d: int) -> np.ndarray:
    """``start`` packed as ``(w, b)``, or zero when None; a ``start`` of
    another width than ``d`` is refused."""
    if start is None:
        return np.zeros(d + 1)
    if start.d != d:
        raise DimensionMismatchError(d, start.d, "start")
    return np.concatenate([start.w, [start.b]])


def train_per_candidate(data: Dataset, hp: Hyperparams,
                        cfg: SolverConfig | None = None,
                        start: LinearModel | None = None
                        ) -> tuple[LinearModel, SolveTrace]:
    """Minimize the per-candidate objective over ``data``."""
    return _train(eval_per_candidate, data, hp, cfg,
                  _start_point(start, data.d))


def train_gcm(data: Dataset, hp: Hyperparams,
              cfg: SolverConfig | None = None,
              start: LinearModel | None = None, *,
              _working_set: _WorkingSet | None = None
              ) -> tuple[LinearModel, SolveTrace]:
    """Minimize the grouped objective (key positives, max-loss negatives)
    from ``start``, or from the zero model when it is None.

    ``data`` is a :class:`Dataset` or a stream of group blocks such as a
    :class:`~gcm.data_io.BinaryDatasetReader`. Either way the solve prices
    points on a working set whenever it can prove the result equal to a
    full pass, and prices the zero start and the backtracks of its first
    line search, which are power-of-two multiples of the first step, from
    gathered rows without scoring any (see
    :class:`~gcm.objectives._WorkingSet`). Only full passes, and the zero
    start, read a stream. Over a stream, the snapshot of the latest full
    pass, its gathered rows and set together, holds at most
    ``_MAX_SET_BYTES`` (32 MiB) of features, so a streamed solve keeps flat
    memory: 64 MB for the pass plus one budget and one block's screening
    temporaries. The model and trace are the
    same for both sources, bit for bit, and so is ``rows_priced`` wherever
    that budget does not bind.

    Over a :class:`Dataset` every point is one
    :func:`~gcm.objectives.eval_grouped` call. Over a stream the set prices
    what it can first (:meth:`~gcm.objectives._WorkingSet.reuse`), and
    :func:`~gcm.objectives.eval_grouped` is called only for the points that
    decode the file, once per decode.

    ``_working_set`` carries the set of an earlier solve over the same
    ``data`` into this one, as cross-validation does along a fold's chain
    of trade-offs, so a warm start can be certified on the set built near
    the previous optimum. The snapshot and its certificate depend only on
    the points and the rows, never on ``hp``, so the model and trace equal
    those of a fresh set bit for bit; only ``rows_priced`` differs.
    """
    x0 = _start_point(start, data.d)  # refused before the set measures rows
    state = _WorkingSet() if _working_set is None else _working_set
    if isinstance(data, Dataset):
        return _train(lambda *args: eval_grouped(*args, _working_set=state),
                      data, hp, cfg, x0)

    def objective(model, data, hp):
        value = state.reuse(model, hp)
        if value is None:  # the zero start or a full pass: decode the file
            value = eval_grouped(model, data, hp, _working_set=state)
        return value

    return _train(objective, data, hp, cfg, x0)


def _train(objective, data: Dataset, hp: Hyperparams,
           cfg: SolverConfig | None, x0: np.ndarray
           ) -> tuple[LinearModel, SolveTrace]:
    """Minimize ``objective(model, data, hp)`` from the packed point ``x0``.

    The caller passes the objective it looked up at call time, so a patched
    module attribute is the one that runs.
    """
    if hp.lam == 1.0:
        warnings.warn(
            "lam=1 disables regularization; on separable data the infimum may "
            "not be attained and the run is bounded only by the iteration cap",
            stacklevel=3,
        )
    point, trace = minimize(lambda p: objective(_unpack(p), data, hp), x0,
                            cfg)
    return _unpack(point), trace
