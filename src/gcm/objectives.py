"""Objective functions and their (sub)gradients.

Two trainable objectives share the same three-term shape::

    (1 - lam)/d * sum_j huber(w_j)  +  lam/n+ * <positive loss>  +  lam/n- * <negative loss>

* per-candidate: every row contributes its own smoothed-hinge loss and
  ``n+``/``n-`` count rows.
* grouped: each positive group contributes only its key candidate's loss,
  each negative group contributes the maximum loss over its rows, and
  ``n+``/``n-`` count groups.

Grouped evaluation consumes group-aligned blocks (``iter_group_blocks``), so
it runs identically over an in-memory :class:`~gcm.model.Dataset` and a
streaming binary reader. Scores are accumulated feature by feature over the
column-major feature blocks and group contributions are reduced in fixed-size
chunks, which makes the result bit-identical regardless of how the blocks
partition the rows.

The grouped kernels apply the hinge once per group, not once per row: to the
key row's margin for a positive group, and to ``-max(scores)`` for a negative
group. Because ``smoothed_hinge`` is non-increasing, ``max_i L(-s_i)`` equals
``L(-max_i s_i)``, and the negative group's subgradient row is the first row
of its maximal score. One numerical caveat: for about 1% of ``delta`` values
the float hinge rises by 1 ulp across the ``1 - 2 delta`` piece boundary (it
never does at ``delta`` 0 or 0.5), so a group whose smallest margin lies
within a few ulps of that boundary can differ by 1 ulp from the per-row
maximum of the loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError
from .model import Dataset, Hyperparams, LinearModel
from .penalties import huber, huber_prime, smoothed_hinge, smoothed_hinge_prime


@dataclass(frozen=True)
class ObjectiveValue:
    """Objective total and its three summands."""

    total: float
    regularization_term: float
    positive_loss_term: float
    negative_loss_term: float


@dataclass(frozen=True, eq=False)
class GradientVector:
    """Gradient with respect to the weights and the bias."""

    grad_w: np.ndarray
    grad_b: float


class _ChunkedSum:
    """Sums a sequence in fixed 4096-wide chunks.

    The reduction tree depends only on the order of the incoming values,
    never on how they were batched, so streaming and in-memory callers get
    bit-identical totals.
    """

    CHUNK = 4096

    def __init__(self):
        self._buf = np.empty(self.CHUNK, dtype=np.float64)
        self._fill = 0
        self._partial = 0.0

    def add(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        i, n = 0, values.size
        while i < n:
            take = min(self.CHUNK - self._fill, n - i)
            self._buf[self._fill:self._fill + take] = values[i:i + take]
            self._fill += take
            i += take
            if self._fill == self.CHUNK:
                self._partial += float(np.sum(self._buf))
                self._fill = 0

    def total(self) -> float:
        t = self._partial
        if self._fill:
            t += float(np.sum(self._buf[:self._fill]))
        return t


def _fixed_order_scores(X: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """Row scores ``X @ w + b`` accumulated one feature at a time.

    Each row's arithmetic is independent of every other row, so the result
    does not depend on how rows are split into blocks.
    """
    out = np.full(X.shape[0], b, dtype=np.float64)
    for j in range(X.shape[1]):
        out += X[:, j] * w[j]
    return out


def _group_argmax(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """First index of the per-group maximum; groups are contiguous runs.

    A group holding a NaN has maximum NaN and yields its first NaN, as
    ``np.argmax`` does, so every group keeps exactly one index.
    """
    gmax = np.maximum.reduceat(values, starts[:-1])
    hit = values == np.repeat(gmax, np.diff(starts))
    if np.isnan(gmax).any():
        hit |= np.isnan(values)
    hits = np.flatnonzero(hit)
    # every group holds a hit, so its first hit is the first at or after its start
    return hits[np.searchsorted(hits, starts[:-1])]


def _check_dims(model: LinearModel, d: int):
    if model.d != d:
        raise DimensionMismatchError(model.d, d, "objective")


def _regularization(model: LinearModel, hp: Hyperparams) -> float:
    return (1.0 - hp.lam) / model.d * float(np.sum(huber(model.w, hp.epsilon)))


def _class_terms(lam: float, pos_sum: float, n_pos: int, neg_sum: float,
                 n_neg: int, unit: str) -> tuple[float, float]:
    if lam > 0.0 and (n_pos == 0 or n_neg == 0):
        raise ConfigurationError(
            f"objective with lam > 0 needs at least one positive and one "
            f"negative {unit} (got {n_pos} positive, {n_neg} negative)"
        )
    pos = lam / n_pos * pos_sum if n_pos else 0.0
    neg = lam / n_neg * neg_sum if n_neg else 0.0
    return pos, neg


def eval_per_candidate(model: LinearModel, data: Dataset,
                       hp: Hyperparams) -> ObjectiveValue:
    """Evaluate the per-candidate objective (every row weighted equally per class)."""
    _check_dims(model, data.d)
    reg = _regularization(model, hp)
    if hp.lam == 0.0:
        return ObjectiveValue(reg, reg, 0.0, 0.0)
    margins = data.labels * model.raw_scores(data.X)
    losses = smoothed_hinge(margins, hp.delta)
    pos_mask = data.labels == 1
    pos, neg = _class_terms(
        hp.lam,
        float(np.sum(losses[pos_mask])), data.n_pos_rows,
        float(np.sum(losses[~pos_mask])), data.n_neg_rows,
        "candidate",
    )
    return ObjectiveValue(reg + pos + neg, reg, pos, neg)


def _grouped_sums(model: LinearModel, source, hp: Hyperparams):
    """One pass over group blocks: key-candidate and per-group-max loss sums.

    The hinge runs on one margin per group: the key row's score for a
    positive group, minus the group's maximal score for a negative one.
    """
    pos_acc, neg_acc = _ChunkedSum(), _ChunkedSum()
    n_pos = n_neg = 0
    for block in source.iter_group_blocks():
        scores = _fixed_order_scores(block.X, model.w, model.b)
        neg_groups = block.labels[block.starts[:-1]] == -1
        key_scores = scores[block.is_key]
        neg_margins = -np.maximum.reduceat(scores, block.starts[:-1])[neg_groups]
        losses = smoothed_hinge(np.concatenate([key_scores, neg_margins]), hp.delta)
        pos_acc.add(losses[:key_scores.size])
        neg_acc.add(losses[key_scores.size:])
        n_neg += neg_margins.size
        n_pos += neg_groups.size - neg_margins.size
    return pos_acc.total(), n_pos, neg_acc.total(), n_neg


def eval_grouped(model: LinearModel, data, hp: Hyperparams) -> ObjectiveValue:
    """Evaluate the grouped objective.

    ``data`` may be an in-memory :class:`Dataset` or any source of
    group-aligned blocks (e.g. a streaming binary reader); both produce
    bit-identical values.
    """
    _check_dims(model, data.d)
    reg = _regularization(model, hp)
    if hp.lam == 0.0:
        return ObjectiveValue(reg, reg, 0.0, 0.0)
    pos_sum, n_pos, neg_sum, n_neg = _grouped_sums(model, data, hp)
    pos, neg = _class_terms(hp.lam, pos_sum, n_pos, neg_sum, n_neg, "group")
    return ObjectiveValue(reg + pos + neg, reg, pos, neg)


def gradient_per_candidate(model: LinearModel, data: Dataset,
                           hp: Hyperparams) -> GradientVector:
    """Gradient of :func:`eval_per_candidate`.

    Each row contributes ``weight * L'(margin) * y`` to the bias gradient and
    that coefficient times its feature vector to the weight gradient, where
    ``weight`` is ``lam / n`` for its class. Rows at margin >= 1 drop out.
    """
    _check_dims(model, data.d)
    grad_w = (1.0 - hp.lam) / model.d * huber_prime(model.w, hp.epsilon)
    if hp.lam == 0.0:
        return GradientVector(grad_w, 0.0)
    if data.n_pos_rows == 0 or data.n_neg_rows == 0:
        raise ConfigurationError("gradient with lam > 0 needs both classes")
    margins = data.labels * model.raw_scores(data.X)
    lprime = smoothed_hinge_prime(margins, hp.delta)
    weights = np.where(data.labels == 1, hp.lam / data.n_pos_rows,
                       hp.lam / data.n_neg_rows)
    coeff = weights * lprime * data.labels
    grad_w = grad_w + data.X.T @ coeff
    return GradientVector(grad_w, float(np.sum(coeff)))


def subgradient_grouped(model: LinearModel, data, hp: Hyperparams) -> GradientVector:
    """Subgradient of :func:`eval_grouped`.

    Only key candidates (positive groups) and each negative group's
    maximal-score candidate carry coefficients, and ``smoothed_hinge_prime``
    runs on those margins only. Ties on the maximal score resolve to the
    group's first such row, which selects one valid subgradient
    deterministically.
    """
    _check_dims(model, data.d)
    grad_w = (1.0 - hp.lam) / model.d * huber_prime(model.w, hp.epsilon)
    if hp.lam == 0.0:
        return GradientVector(grad_w, 0.0)
    d = model.d
    pos_w = np.zeros(d)
    neg_w = np.zeros(d)
    pos_b = neg_b = 0.0
    n_pos = n_neg = 0
    for block in data.iter_group_blocks():
        scores = _fixed_order_scores(block.X, model.w, model.b)
        neg_groups = block.labels[block.starts[:-1]] == -1
        key_rows = np.flatnonzero(block.is_key)
        amax = _group_argmax(scores, block.starts)[neg_groups]
        lprime = smoothed_hinge_prime(
            np.concatenate([scores[key_rows], -scores[amax]]), hp.delta
        )
        n_neg += amax.size
        n_pos += neg_groups.size - amax.size

        if key_rows.size:
            c = lprime[:key_rows.size]
            pos_w += block.X[key_rows].T @ c
            pos_b += float(np.sum(c))

        if amax.size:
            c = -lprime[key_rows.size:]
            neg_w += block.X[amax].T @ c
            neg_b += float(np.sum(c))
    if n_pos == 0 or n_neg == 0:
        raise ConfigurationError("subgradient with lam > 0 needs both group classes")
    grad_w = grad_w + hp.lam / n_pos * pos_w + hp.lam / n_neg * neg_w
    grad_b = hp.lam / n_pos * pos_b + hp.lam / n_neg * neg_b
    return GradientVector(grad_w, grad_b)
