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

Since a grouped value needs only each positive group's key row and each
negative group's maximal row, a solve over an in-memory ``Dataset`` can
price most points on a working set: the key rows plus, per negative group,
the rows that could still be its maximum (:class:`_WorkingSet`). A
per-group check after each working-set pass proves that the result equals
the full pass bit for bit; when it cannot, that point gets a full pass,
which rebuilds the set. Two kinds of point score no row at all: the zero
point, where every group's first row is its maximum, and a power-of-two
multiple ``2^-k z1`` of the latest full pass's point ``z1``, whose scores
are exactly the recorded ones times ``2^-k`` while a guard on the
exponents keeps every intermediate in the normal range. So a solve from
zero pays one full pass for its first line search, not one per backtrack.
A streamed source always gets full passes, so its memory stays flat.
:attr:`ObjectiveValue.rows` counts the rows each pass scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError
from .model import Dataset, GroupBlock, Hyperparams, LinearModel
from .penalties import huber, huber_prime, smoothed_hinge, smoothed_hinge_prime


@dataclass(frozen=True)
class ObjectiveValue:
    """Objective total and its three summands.

    Values from :func:`eval_grouped` and :func:`eval_per_candidate` also
    carry the point's (sub)gradient and ``rows``, the number of rows the
    pass scored; equality and ``repr`` ignore both.
    """

    total: float
    regularization_term: float
    positive_loss_term: float
    negative_loss_term: float
    _gradient: Callable[[], np.ndarray] | None = field(
        default=None, compare=False, repr=False)
    rows: int = field(default=0, compare=False, repr=False)

    def gradient(self) -> np.ndarray:
        """The (sub)gradient at the point this value was evaluated at: one
        float64 vector of length ``d + 1``, the weights' entries then the
        bias's."""
        if self._gradient is None:
            raise ValueError("this ObjectiveValue was built without a gradient")
        return self._gradient()


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


#: Rows per chunk of :func:`eval_per_candidate`'s elementwise work: small
#: enough that a chunk's temporaries stay in cache and its allocations are
#: reused, large enough that per-chunk call overhead stays small.
CANDIDATE_CHUNK_ROWS = 16384


def _row_chunks(n: int):
    """Slices covering rows ``0..n`` in :data:`CANDIDATE_CHUNK_ROWS` steps."""
    step = CANDIDATE_CHUNK_ROWS
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _check_dims(model: LinearModel, d: int):
    if model.d != d:
        raise DimensionMismatchError(model.d, d, "objective")


def _regularization(model: LinearModel, hp: Hyperparams) -> float:
    return (1.0 - hp.lam) / model.d * float(np.sum(huber(model.w, hp.epsilon)))


def _class_terms(lam: float, pos_sum: float, n_pos: int, neg_sum: float,
                 n_neg: int, unit: str) -> tuple[float, float]:
    if n_pos == 0 or n_neg == 0:
        raise ConfigurationError(
            f"objective with lam > 0 needs at least one positive and one "
            f"negative {unit} (got {n_pos} positive, {n_neg} negative)"
        )
    return lam / n_pos * pos_sum, lam / n_neg * neg_sum


def _regularization_gradient(model: LinearModel, hp: Hyperparams) -> np.ndarray:
    return (1.0 - hp.lam) / model.d * huber_prime(model.w, hp.epsilon)


def _regularization_only(model: LinearModel, hp: Hyperparams) -> ObjectiveValue:
    reg = _regularization(model, hp)
    return ObjectiveValue(
        reg, reg, 0.0, 0.0,
        lambda: np.append(_regularization_gradient(model, hp), 0.0))


def eval_per_candidate(model: LinearModel, data: Dataset,
                       hp: Hyperparams) -> ObjectiveValue:
    """Evaluate the per-candidate objective (every row weighted equally per class).

    The gradient reuses the margins: row ``i`` adds ``c_i = lam/n_class *
    L'(margin_i) * y_i`` to the bias gradient and ``c_i x_i`` to the weight
    gradient, one ``X.T @ c`` product. Rows at margin >= 1 drop out.

    Between the two BLAS products, the elementwise work runs in chunks of
    :data:`CANDIDATE_CHUNK_ROWS` rows, so its temporaries stay small. Each
    row's arithmetic is the same in any chunk, and each class's losses are
    summed once, in row order, so no result depends on the chunk size.
    """
    _check_dims(model, data.d)
    if hp.lam == 0.0:
        return _regularization_only(model, hp)
    reg = _regularization(model, hp)
    labels = data.labels
    margins = model.raw_scores(data.X)  # a fresh array, turned into margins
    pos_losses = np.empty(data.n_pos_rows)
    neg_losses = np.empty(data.n_neg_rows)
    n_pos = n_neg = 0
    for rows in _row_chunks(data.n_rows):
        m = margins[rows]
        np.multiply(labels[rows], m, out=m)
        losses = smoothed_hinge(m, hp.delta)
        is_pos = labels[rows] == 1
        k = int(np.count_nonzero(is_pos))
        pos_losses[n_pos:n_pos + k] = losses[is_pos]
        neg_losses[n_neg:n_neg + m.size - k] = losses[~is_pos]
        n_pos, n_neg = n_pos + k, n_neg + m.size - k
    pos, neg = _class_terms(
        hp.lam,
        float(np.sum(pos_losses)), data.n_pos_rows,
        float(np.sum(neg_losses)), data.n_neg_rows,
        "candidate",
    )

    def gradient() -> np.ndarray:
        w_pos, w_neg = hp.lam / data.n_pos_rows, hp.lam / data.n_neg_rows
        coeff = np.empty(data.n_rows)
        for rows in _row_chunks(data.n_rows):
            c = coeff[rows]
            np.multiply(np.where(labels[rows] == 1, w_pos, w_neg),
                        smoothed_hinge_prime(margins[rows], hp.delta), out=c)
            np.multiply(c, labels[rows], out=c)
        return np.append(_regularization_gradient(model, hp) + data.X.T @ coeff,
                         np.sum(coeff))

    return ObjectiveValue(reg + pos + neg, reg, pos, neg, gradient,
                          data.n_rows)


class _GroupedSums:
    """The sums of one grouped pass, fed one block at a time in row order.

    :meth:`add` takes a block's key rows and the maximal row of each of its
    negative groups, each as the matrix gathered from the block, with their
    scores. Equal inputs in equal order give bit-identical sums, however
    many rows were scored to find them.
    """

    def __init__(self, d: int):
        self.pos_acc, self.neg_acc = _ChunkedSum(), _ChunkedSum()
        self.pos_w, self.neg_w = np.zeros(d), np.zeros(d)
        self.pos_b = self.neg_b = 0.0
        self.n_pos = self.n_neg = 0

    def add(self, X_key, key_scores, X_max, max_scores, delta: float):
        margins = np.concatenate([key_scores, -max_scores])
        losses = smoothed_hinge(margins, delta)
        lprime = smoothed_hinge_prime(margins, delta)
        k = key_scores.size
        self.pos_acc.add(losses[:k])
        self.neg_acc.add(losses[k:])
        self.n_pos += k  # one key row per positive group
        self.n_neg += max_scores.size
        # an empty gather adds +0.0, which leaves the sums' bits unchanged
        self.pos_w += X_key.T @ lprime[:k]
        self.pos_b += float(np.sum(lprime[:k]))
        self.neg_w += X_max.T @ -lprime[k:]
        self.neg_b += float(np.sum(-lprime[k:]))

    def value(self, model: LinearModel, hp: Hyperparams, reg: float,
              rows: int) -> ObjectiveValue:
        pos, neg = _class_terms(hp.lam, self.pos_acc.total(), self.n_pos,
                                self.neg_acc.total(), self.n_neg, "group")
        a, c = hp.lam / self.n_pos, hp.lam / self.n_neg

        def gradient() -> np.ndarray:
            return np.append(_regularization_gradient(model, hp)
                             + a * self.pos_w + c * self.neg_w,
                             a * self.pos_b + c * self.neg_b)

        return ObjectiveValue(reg + pos + neg, reg, pos, neg, gradient, rows)


class _Gathered(NamedTuple):
    """What a block adds to a grouped pass (:meth:`_GroupedSums.add`)."""

    X_key: np.ndarray  # the key rows, gathered from the block
    key_scores: np.ndarray
    X_max: np.ndarray  # each negative group's first maximal row, gathered
    max_scores: np.ndarray


def _full_pass(model: LinearModel, data, delta: float, sums: _GroupedSums,
               visit=None) -> int:
    """Score every row of ``data`` into ``sums``; returns the rows scored.

    ``visit(index, block, scores, amax, gathered)``, when given, sees each
    block after it is summed: its scores, the first maximal row of each
    negative group and the :class:`_Gathered` rows it added.
    """
    rows = 0
    for index, block in enumerate(data.iter_group_blocks()):
        scores = _fixed_order_scores(block.X, model.w, model.b)
        neg_groups = block.labels[block.starts[:-1]] == -1
        key_rows = np.flatnonzero(block.is_key)
        amax = _group_argmax(scores, block.starts)[neg_groups]
        gathered = _Gathered(block.X[key_rows], scores[key_rows],
                             block.X[amax], scores[amax])
        sums.add(*gathered, delta)
        rows += scores.size
        if visit is not None:
            visit(index, block, scores, amax, gathered)
    return rows


def eval_grouped(model: LinearModel, data, hp: Hyperparams,
                 _working_set: _WorkingSet | None = None) -> ObjectiveValue:
    """Evaluate the grouped objective and, in the same pass, its subgradient.

    ``data`` may be an in-memory :class:`Dataset` or any source of
    group-aligned blocks (e.g. a streaming binary reader, read once); both
    give bit-identical results. Only key rows and each negative group's
    maximal-score row carry subgradient coefficients; a tie resolves to the
    group's first such row, one valid subgradient chosen deterministically.

    ``_working_set`` is the state of one solve over a :class:`Dataset` (see
    :class:`_WorkingSet`); the value is bit-identical with or without it.
    """
    _check_dims(model, data.d)
    if hp.lam == 0.0:
        return _regularization_only(model, hp)
    reg = _regularization(model, hp)
    if _working_set is not None:
        return _working_set.price(model, data, hp, reg)
    sums = _GroupedSums(model.d)
    rows = _full_pass(model, data, hp.delta, sums)
    return sums.value(model, hp, reg, rows)


#: A working set is built only when it holds at most this share of the rows.
_MAX_SHARE = 0.25
#: Relative slack on the step length ``t`` of the certificate.
_STEP_SLACK = 1e-12
#: Certified only while ``P_g (|z| + |z'| + t)`` stays below this, so no
#: partial score sum can overflow.
_SCORE_LIMIT = 2.0 ** 1000


def _norm(v: np.ndarray) -> float:
    """Euclidean norm without overflow or underflow."""
    return math.hypot(*v.tolist())


class _Built(NamedTuple):
    """A working set: the rows of every block in turn."""

    z: np.ndarray  # the point it was built at
    z_norm: float
    X_key: np.ndarray  # Fortran-order copy of every key row
    X_kept: np.ndarray  # Fortran-order copy of every kept negative row
    kept_rows: np.ndarray  # each kept row's index in its block
    kept_starts: np.ndarray  # offsets of each negative group in X_kept
    thr: np.ndarray  # per negative group: every dropped row scored below it
    blocks: list  # per block: X, its gathered key rows, key and group slices


class _Stats(NamedTuple):
    """What pricing derives from a :class:`Dataset`'s rows, in one pass."""

    reach: list  # per block, P_g of each negative group: max norm of (x, 1)
    reach_all: np.ndarray  # P_g over all blocks
    reach_max: float
    col_min: np.ndarray  # per column, its smallest nonzero |x| (inf if none)


def _stats(data: Dataset) -> _Stats:
    """``data``'s :class:`_Stats`, computed at the first call and kept on it."""
    if data._pricing_stats is None:
        col_min = np.full(data.d, np.inf)
        reach = []
        for block in data.iter_group_blocks():
            sq = np.ones(block.X.shape[0])
            for j in range(data.d):
                x = block.X[:, j]
                sq += x * x
                ax = np.abs(x)
                m = ax.min()  # a zero entry is rare: only then mask it out
                if m == 0.0:
                    m = np.min(ax, where=ax > 0.0, initial=np.inf)
                col_min[j] = min(col_min[j], m)
            neg_groups = block.labels[block.starts[:-1]] == -1
            reach.append(np.sqrt(
                np.maximum.reduceat(sq, block.starts[:-1])[neg_groups]))
        reach_all = np.concatenate(reach)
        data._pricing_stats = _Stats(reach, reach_all,
                                     float(np.max(reach_all, initial=0.0)),
                                     col_min)
    return data._pricing_stats


def _ulp_exponent(v: np.ndarray) -> np.ndarray:
    """For nonzero finite ``v``: each entry, and every float at least as
    large in magnitude, is a multiple of 2 to this power."""
    return np.frexp(v)[1] - 53


class _Record(NamedTuple):
    """A full pass at ``z``: each block's :class:`_Gathered` rows."""

    z: np.ndarray
    blocks: list


class _WorkingSet:
    """Pricing of the grouped objective for one solve over a
    :class:`Dataset`, bit-identical to a full pass but scoring fewer rows.

    Three kinds of point need no full pass:

    * **A zero point**, every entry of ``(w, b)`` ±0. Every score is ±0,
      so each negative group's first row is its maximum: the value needs
      only the key rows and those first rows, and scores no row.
    * **A power-of-two multiple** ``z = 2^-k z1`` (``k >= 0``) of the point
      ``z1`` of the latest full pass whose scores were all finite. That pass
      recorded each block's key rows, maximal rows and their scores. Every
      product and partial sum of :func:`_fixed_order_scores` at ``z1`` is a
      multiple of ``2^q``, where ``q`` is the least of the ulp exponent of
      ``b1`` and, over the features with ``w1_j != 0``, the sum of the ulp
      exponents of ``w1_j`` and of column ``j``'s smallest nonzero ``|x|``.
      When ``q - k >= -1022`` no nonzero intermediate at ``z`` is
      subnormal, so each rounds exactly as at ``z1`` scaled by ``2^-k``:
      every score at ``z`` is ``2^-k`` times its score at ``z1``, the
      maximal rows are the same, and the recorded scores are scaled. No row
      is scored. The solver's first line search from zero tries exactly
      such points.
    * **A point certified on the working set**. After a full pass at point
      ``z``, each negative group ``g`` keeps the rows with score
      ``s >= thr_g = max(m_g - 2 P_g theta, -1 - P_g theta)`` and its first
      maximal row: ``m_g`` is its maximum score, ``P_g`` the largest norm of
      ``(x, 1)`` over its rows and ``theta`` the distance from the point
      priced before. The working set is those rows plus every key row, and
      it is built only when it holds at most a quarter of the rows.

      At a later point ``z'``, at distance ``t`` from ``z``, no dropped row
      scores above ``thr_g + P_g t`` (Cauchy-Schwarz); ``eta`` bounds the
      rounding of both scores. Group ``g`` is certified when its working-set
      maximum ``M_g`` lies strictly above ``thr_g + P_g (t + eta)``, so the
      dropped rows can neither reach nor tie it, or when ``M_g`` and that
      bound are both at most -1, so the group's loss and derivative are
      exactly zero whichever row is its maximum. Only when every group is
      certified is the working-set value returned.

    Each value is the full pass's, bit for bit, because each block's key
    rows and maximal rows are gathered from the block and summed in the
    full pass's order. Any other point is priced by a full pass, which
    records it and rebuilds the set. ``P_g`` and the column minima come
    from one pass over the rows per :class:`Dataset` (:func:`_stats`).
    """

    def __init__(self):
        self._last: np.ndarray | None = None  # the point priced before
        self._record: _Record | None = None
        self._built: _Built | None = None

    def price(self, model: LinearModel, data: Dataset, hp: Hyperparams,
              reg: float) -> ObjectiveValue:
        z = np.append(model.w, model.b)
        theta = None if self._last is None else _norm(z - self._last)
        self._last = z
        sums = _GroupedSums(model.d)
        if not z.any():
            _zero_pass(model, data, hp.delta, sums)
            return sums.value(model, hp, reg, 0)
        k = self._scale(z, data)
        if k is not None:
            for X_key, key_scores, X_max, max_scores in self._record.blocks:
                sums.add(X_key, np.ldexp(key_scores, -k),
                         X_max, np.ldexp(max_scores, -k), hp.delta)
            return sums.value(model, hp, reg, 0)
        rows = 0
        if self._built is not None:
            certified, rows = self._certified_pass(model, data, z, hp.delta,
                                                   sums)
            if certified:
                return sums.value(model, hp, reg, rows)
            self._built = None
        rows += self._rebuilding_pass(model, data, hp.delta, sums, z, theta)
        return sums.value(model, hp, reg, rows)

    def _scale(self, z: np.ndarray, data: Dataset) -> int | None:
        """``k`` when ``z = 2^-k z1`` for the recorded point ``z1`` and every
        score at ``z`` is exactly ``2^-k`` times its score at ``z1``."""
        if self._record is None:
            return None
        z1 = self._record.z
        i = int(np.argmax(np.abs(z1)))
        if z[i] == 0.0:
            return None
        k = int(np.frexp(z1[i])[1] - np.frexp(z[i])[1])
        if not (k >= 0 and np.array_equal(np.ldexp(z, k), z1)
                and np.array_equal(np.ldexp(z1, -k), z)
                and np.array_equal(np.signbit(z), np.signbit(z1))):
            return None
        w1, b1 = z1[:-1], z1[-1]
        col_min = _stats(data).col_min
        terms = (w1 != 0.0) & np.isfinite(col_min)
        q = _ulp_exponent(w1[terms]) + _ulp_exponent(col_min[terms])
        if b1 != 0.0:
            q = np.append(q, _ulp_exponent(b1))
        return k if np.all(q - k >= -1022) else None

    def _certified_pass(self, model, data, z, delta,
                        sums) -> tuple[bool, int]:
        """Price the working set into ``sums``; (certified, rows scored)."""
        built, stats = self._built, _stats(data)
        t = _norm(z - built.z) * (1.0 + _STEP_SLACK)
        scale = built.z_norm + _norm(z) + t
        if not stats.reach_max * scale < _SCORE_LIMIT:
            return False, 0
        d = model.d
        # the second term covers products that underflow to subnormals
        eta = (8.0 * (d + 2) * np.finfo(np.float64).eps * scale
               + (d + 2) * 2.0 ** -1070)
        key_scores = _fixed_order_scores(built.X_key, model.w, model.b)
        scores = _fixed_order_scores(built.X_kept, model.w, model.b)
        rows = key_scores.size + scores.size
        local = _group_argmax(scores, built.kept_starts)
        top = scores[local]
        bound = built.thr + stats.reach_all * (t + eta)
        if not np.all((top > bound) | ((top <= -1.0) & (bound <= -1.0))):
            return False, rows
        amax = built.kept_rows[local]
        for X, X_key, keys, groups in built.blocks:
            sums.add(X_key, key_scores[keys], X[amax[groups]], top[groups],
                     delta)
        return True, rows

    def _rebuilding_pass(self, model, data, delta, sums, z, theta) -> int:
        """A full pass that records its rows at ``z`` and builds a working
        set there, if it fits.

        No set is built at the solve's first point, where ``theta`` is
        None, nor where one row per negative group would already exceed the
        cap. Only a pass whose scores are all finite is recorded.
        """
        cap = _MAX_SHARE * data.n_rows - data.n_pos_groups
        build = theta is not None and data.n_neg_groups <= cap
        reach = _stats(data).reach if build else None
        record, seen = [], []
        kept = 0

        def visit(index, block, scores, amax, gathered):
            nonlocal record, kept
            if record is not None and not np.isfinite(scores).all():
                record = None  # scaling such a pass is not proven exact
            elif record is not None:
                record.append(gathered)
            if not build or kept > cap:
                return
            p = reach[index]
            thr = np.maximum(scores[amax] - 2.0 * p * theta, -1.0 - p * theta)
            neg_groups = block.labels[block.starts[:-1]] == -1
            group_thr = np.full(neg_groups.size, np.inf)
            group_thr[neg_groups] = thr
            keep = scores >= np.repeat(group_thr, np.diff(block.starts))
            keep[amax] = True
            kept += int(np.count_nonzero(keep))
            seen.append((block, keep, neg_groups, thr, gathered.X_key))

        self._record = None  # one record at a time
        rows = _full_pass(model, data, delta, sums, visit)
        if record is not None:
            self._record = _Record(z, record)
        if build and 0 < kept <= cap:  # 0: no negative group, nothing to screen
            self._built = _build(seen, z)
        return rows


def _zero_pass(model: LinearModel, data: Dataset, delta: float,
               sums: _GroupedSums):
    """Sum a pass at a zero point into ``sums``: every score is ±0, so each
    negative group's first row is its first maximal row."""
    for block in data.iter_group_blocks():
        key_rows = np.flatnonzero(block.is_key)
        firsts = block.starts[:-1][block.labels[block.starts[:-1]] == -1]
        X_key, X_max = block.X[key_rows], block.X[firsts]
        sums.add(X_key, _fixed_order_scores(X_key, model.w, model.b),
                 X_max, _fixed_order_scores(X_max, model.w, model.b), delta)


def _build(seen, z: np.ndarray) -> _Built:
    """Gather the rows each block of a full pass kept, with its key rows.

    ``seen`` holds, per block, the block, its row mask of kept rows, its
    negative-group mask, its thresholds and its gathered key rows.
    """
    kept_rows, counts, blocks = [], [], []
    k0 = g0 = 0
    for block, keep, neg_groups, thr, X_key in seen:
        kept_rows.append(np.flatnonzero(keep))
        counts.append(np.add.reduceat(keep, block.starts[:-1],
                                      dtype=np.int64)[neg_groups])
        k1, g1 = k0 + X_key.shape[0], g0 + thr.size
        blocks.append((block.X, X_key, slice(k0, k1), slice(g0, g1)))
        k0, g0 = k1, g1
    X_kept = np.empty((sum(r.size for r in kept_rows), z.size - 1), order="F")
    lo = 0
    for (block, *_), rows in zip(seen, kept_rows):
        for j in range(X_kept.shape[1]):
            np.take(block.X[:, j], rows, out=X_kept[lo:lo + rows.size, j])
        lo += rows.size
    return _Built(
        z=z, z_norm=_norm(z),
        X_key=np.asfortranarray(np.concatenate([e[4] for e in seen])),
        X_kept=X_kept,
        kept_rows=np.concatenate(kept_rows),
        kept_starts=np.concatenate(([0], np.cumsum(np.concatenate(counts)))),
        thr=np.concatenate([e[3] for e in seen]),
        blocks=blocks)
