"""MI-SVM, the weakly supervised comparison algorithm.

MI-SVM (Andrews et al., NIPS 2002) is an alternating heuristic: it ignores
key annotations, guesses which candidate represents each positive group,
retrains, and repeats until the selection stops changing. One loop runs
every outer iteration: the first represents each positive group by its mean
feature vector and solves from the zero model, each later one takes the row
the previous model scores highest and warm-starts from that model. Each
inner problem is the shared per-candidate objective at the caller's
hyperparameters, so the classic trade-off constant C corresponds to
``lam = C / (1 + C)``. The per-candidate SVM baseline needs no code of its
own: it is :func:`~gcm.train.train_per_candidate` with ``delta = 0``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DomainError
from .model import Dataset, Hyperparams, LinearModel
from .objectives import _group_argmax
from .solver import SolverConfig
from .train import train_per_candidate

#: Huber width :func:`~gcm.evaluation.fit_algorithm` trains MI-SVM's inner
#: problems with, whatever epsilon the other algorithms use.
MISVM_INNER_EPSILON = 1.0

#: Default cap on MI-SVM's outer iterations (inner solves).
MISVM_MAX_OUTER = 50


def _inner_dataset(data: Dataset, pos_features: np.ndarray,
                   pos_group_ids: np.ndarray) -> Dataset:
    """One positive row per positive group plus every negative row."""
    neg = data.labels == -1
    features = np.vstack([pos_features, data.X[neg]])
    labels = np.concatenate([np.ones(len(pos_features), dtype=np.int8),
                             data.labels[neg]])
    group_ids = np.concatenate([pos_group_ids, data.group_ids[neg]])
    is_key = np.concatenate([np.ones(len(pos_features), dtype=bool),
                             np.zeros(int(np.count_nonzero(neg)), dtype=bool)])
    return Dataset(features, labels, group_ids, is_key)


def train_mi_svm(data: Dataset, hp: Hyperparams,
                 cfg: SolverConfig | None = None,
                 max_outer: int = MISVM_MAX_OUTER
                 ) -> tuple[LinearModel, np.ndarray, int, bool]:
    """Alternating MI-SVM heuristic.

    Iteration 1 represents each positive group by its mean feature vector;
    later iterations select the row with the highest raw score per positive
    group (the first on ties) and retrain on (selected positives + all
    negative rows), each inner problem solved at ``hp`` with ``cfg``. Stops
    when the selection reaches a fixed point or after ``max_outer`` inner
    solves. Key flags in ``data`` are ignored.

    ``hp.lam`` must lie in (0, 1): at 0 every inner solve returns the zero
    model, and at 1 the inner problems are unregularized.

    Returns ``(model, selected_rows, outer, converged)``: the selected row
    per positive group in group order (int64), the number of inner solves,
    and whether the selection reached its fixed point.
    """
    if not 0.0 < hp.lam < 1.0:
        raise DomainError(f"MI-SVM needs lam in (0, 1), got {hp.lam}")
    if max_outer < 1:
        raise DomainError("max_outer must be >= 1")
    pos = np.flatnonzero(data.group_labels == 1)
    if not pos.size:
        raise ConfigurationError("MI-SVM needs at least one positive group")
    if data.n_neg_rows == 0:
        raise ConfigurationError("MI-SVM needs negative rows")
    starts = data.group_starts
    pos_group_ids = data.group_ids[starts[pos]]

    # rows by np.arange, not a slice: a slice sums in another order
    features = np.stack([
        data.X[np.arange(starts[k], starts[k + 1])].mean(axis=0) for k in pos])
    selected = np.full(len(pos), -1, dtype=np.int64)  # no row selected yet
    model, outer, converged = None, 0, False
    while outer < max_outer and not converged:
        inner = _inner_dataset(data, features, pos_group_ids)
        model, _ = train_per_candidate(inner, hp, cfg, start=model)
        outer += 1
        previous = selected
        selected = _group_argmax(model.raw_scores(data.X), starts)[pos]
        converged = np.array_equal(selected, previous)
        features = data.X[selected]
    return model, selected, outer, converged
