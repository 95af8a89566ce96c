"""Objective functions and their (sub)gradients.

One pass over the rows yields both the value and the (sub)gradient at a
point: :meth:`ObjectiveValue.gradient` reads what that pass kept, so a line
search that needs the gradient only at accepted points pays no second pass.

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

The grouped objective applies the hinge and its derivative once per group,
not once per row: to the key row's margin for a positive group, and to
``-max(scores)`` for a negative group. Because ``smoothed_hinge`` is
non-increasing, ``max_i L(-s_i)`` equals ``L(-max_i s_i)``, and the negative
group's subgradient row is the first row of its maximal score. One numerical caveat: for about 1% of ``delta`` values
the float hinge rises by 1 ulp across the ``1 - 2 delta`` piece boundary (it
never does at ``delta`` 0 or 0.5), so a group whose smallest margin lies
within a few ulps of that boundary can differ by 1 ulp from the per-row
maximum of the loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError
from .model import Dataset, Hyperparams, LinearModel
from .penalties import huber, huber_prime, smoothed_hinge, smoothed_hinge_prime


@dataclass(frozen=True)
class ObjectiveValue:
    """Objective total and its three summands.

    Values from :func:`eval_grouped` and :func:`eval_per_candidate` also
    carry the point's (sub)gradient, which equality and ``repr`` ignore.
    """

    total: float
    regularization_term: float
    positive_loss_term: float
    negative_loss_term: float
    _gradient: Callable[[], GradientVector] | None = field(
        default=None, compare=False, repr=False)

    def gradient(self) -> GradientVector:
        """The (sub)gradient at the point this value was evaluated at."""
        if self._gradient is None:
            raise ValueError("this ObjectiveValue was built without a gradient")
        return self._gradient()


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


def _regularization_gradient(model: LinearModel, hp: Hyperparams) -> np.ndarray:
    return (1.0 - hp.lam) / model.d * huber_prime(model.w, hp.epsilon)


def _regularization_only(model: LinearModel, hp: Hyperparams) -> ObjectiveValue:
    reg = _regularization(model, hp)
    return ObjectiveValue(
        reg, reg, 0.0, 0.0,
        lambda: GradientVector(_regularization_gradient(model, hp), 0.0))


def eval_per_candidate(model: LinearModel, data: Dataset,
                       hp: Hyperparams) -> ObjectiveValue:
    """Evaluate the per-candidate objective (every row weighted equally per class).

    The gradient reuses the margins: row ``i`` adds ``c_i = lam/n_class *
    L'(margin_i) * y_i`` to the bias gradient and ``c_i x_i`` to the weight
    gradient, one ``X.T @ c`` product. Rows at margin >= 1 drop out.
    """
    _check_dims(model, data.d)
    if hp.lam == 0.0:
        return _regularization_only(model, hp)
    reg = _regularization(model, hp)
    margins = data.labels * model.raw_scores(data.X)
    losses = smoothed_hinge(margins, hp.delta)
    pos_mask = data.labels == 1
    pos, neg = _class_terms(
        hp.lam,
        float(np.sum(losses[pos_mask])), data.n_pos_rows,
        float(np.sum(losses[~pos_mask])), data.n_neg_rows,
        "candidate",
    )

    def gradient() -> GradientVector:
        weights = np.where(pos_mask, hp.lam / data.n_pos_rows,
                           hp.lam / data.n_neg_rows)
        coeff = weights * smoothed_hinge_prime(margins, hp.delta) * data.labels
        grad_w = _regularization_gradient(model, hp) + data.X.T @ coeff
        return GradientVector(grad_w, float(np.sum(coeff)))

    return ObjectiveValue(reg + pos + neg, reg, pos, neg, gradient)


def eval_grouped(model: LinearModel, data, hp: Hyperparams) -> ObjectiveValue:
    """Evaluate the grouped objective and, in the same pass, its subgradient.

    ``data`` may be an in-memory :class:`Dataset` or any source of
    group-aligned blocks (e.g. a streaming binary reader, read once); both
    give bit-identical results. Only key rows and each negative group's
    maximal-score row carry subgradient coefficients; a tie resolves to the
    group's first such row, one valid subgradient chosen deterministically.
    """
    _check_dims(model, data.d)
    if hp.lam == 0.0:
        return _regularization_only(model, hp)
    reg = _regularization(model, hp)
    pos_acc, neg_acc = _ChunkedSum(), _ChunkedSum()
    pos_w = np.zeros(model.d)
    neg_w = np.zeros(model.d)
    pos_b = neg_b = 0.0
    n_pos = n_neg = 0
    for block in data.iter_group_blocks():
        scores = _fixed_order_scores(block.X, model.w, model.b)
        neg_groups = block.labels[block.starts[:-1]] == -1
        key_rows = np.flatnonzero(block.is_key)
        amax = _group_argmax(scores, block.starts)[neg_groups]
        margins = np.concatenate([scores[key_rows], -scores[amax]])
        losses = smoothed_hinge(margins, hp.delta)
        lprime = smoothed_hinge_prime(margins, hp.delta)
        k = key_rows.size
        pos_acc.add(losses[:k])
        neg_acc.add(losses[k:])
        n_neg += amax.size
        n_pos += neg_groups.size - amax.size
        # an empty gather adds +0.0, which leaves the sums' bits unchanged
        pos_w += block.X[key_rows].T @ lprime[:k]
        pos_b += float(np.sum(lprime[:k]))
        neg_w += block.X[amax].T @ -lprime[k:]
        neg_b += float(np.sum(-lprime[k:]))
    pos, neg = _class_terms(hp.lam, pos_acc.total(), n_pos, neg_acc.total(),
                            n_neg, "group")

    def gradient() -> GradientVector:
        grad_w = (_regularization_gradient(model, hp)
                  + hp.lam / n_pos * pos_w + hp.lam / n_neg * neg_w)
        grad_b = hp.lam / n_pos * pos_b + hp.lam / n_neg * neg_b
        return GradientVector(grad_w, grad_b)

    return ObjectiveValue(reg + pos + neg, reg, pos, neg, gradient)


def gradient_per_candidate(model: LinearModel, data: Dataset,
                           hp: Hyperparams) -> GradientVector:
    """Gradient of :func:`eval_per_candidate`."""
    return eval_per_candidate(model, data, hp).gradient()


def subgradient_grouped(model: LinearModel, data, hp: Hyperparams) -> GradientVector:
    """Subgradient of :func:`eval_grouped`."""
    return eval_grouped(model, data, hp).gradient()
