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

Grouped evaluation consumes group-aligned blocks (``iter_group_blocks``) and
adds each block's losses and gradient terms to the pass's sums in row order.
A row's score is accumulated feature by feature, so it does not depend on
the block that holds the row; the sums do. Hence one exactness contract, for
values and gradients alike: every pricing route (a plain pass, the zero
point, a scaled point, a certified working set) over every source that cuts
the same blocks gives the same bits. Every source in the package cuts them
alike (:func:`~gcm.model.partition_groups` at
:data:`~gcm.model.DEFAULT_BLOCK_ROWS`), so an in-memory
:class:`~gcm.model.Dataset` and a streaming binary reader at any read chunk
agree bit for bit; blocks cut at another size agree only to rounding.

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
negative group's maximal row, a solve can price most points on a working
set: copies of the key rows plus, per negative group, of the rows that
could still be its maximum, from which it takes each group's maximal row
(:class:`_WorkingSet`). A per-group check after each working-set pass
proves that the result equals the full pass bit for bit; when it cannot,
that point gets a full pass, which rebuilds the set. Two kinds of point
score no row at all: the zero point, where every group's first row is its
maximum, and a power-of-two multiple ``2^-k z1`` of the latest full pass's
point ``z1``, whose scores are exactly the gathered ones times ``2^-k``
while a guard on the exponents keeps every intermediate in the normal
range. So a solve from zero pays one full pass for its first line search,
not one per backtrack. The set works the same over an in-memory
``Dataset`` and over a stream: a streamed solve decodes its file only for
the zero point and for full passes. One snapshot of the latest full pass
holds what both reuse: its gathered key and maximal rows and, when it
fits, the set. The set holds at most a quarter of the rows; over a
stream, the snapshot's rows, set included, share one budget of
:data:`_MAX_SET_BYTES` (32 MiB) of features, so a streamed solve's memory
stays flat in the row count.
:attr:`ObjectiveValue.rows` counts the rows each pass scored, not the rows
it read.
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
    scores, and adds the block's loss, weight and bias sums to the pass's.
    So the sums follow the block partition: equal blocks in equal order give
    bit-identical sums, however many rows were scored to find them.
    """

    def __init__(self, d: int):
        self.pos_loss = self.neg_loss = 0.0
        self.pos_w, self.neg_w = np.zeros(d), np.zeros(d)
        self.pos_b = self.neg_b = 0.0
        self.n_pos = self.n_neg = 0

    def add(self, X_key, key_scores, X_max, max_scores, delta: float):
        margins = np.concatenate([key_scores, -max_scores])
        losses = smoothed_hinge(margins, delta)
        lprime = smoothed_hinge_prime(margins, delta)
        k = key_scores.size
        self.pos_loss += float(np.sum(losses[:k]))
        self.neg_loss += float(np.sum(losses[k:]))
        self.n_pos += k  # one key row per positive group
        self.n_neg += max_scores.size
        # an empty gather adds +0.0, which leaves the sums' bits unchanged
        self.pos_w += X_key.T @ lprime[:k]
        self.pos_b += float(np.sum(lprime[:k]))
        self.neg_w += X_max.T @ -lprime[k:]
        self.neg_b += float(np.sum(-lprime[k:]))

    def value(self, model: LinearModel, hp: Hyperparams, reg: float,
              rows: int) -> ObjectiveValue:
        pos, neg = _class_terms(hp.lam, self.pos_loss, self.n_pos,
                                self.neg_loss, self.n_neg, "group")
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


def _full_pass(model: LinearModel, blocks, delta: float, sums: _GroupedSums):
    """Score every row of ``blocks`` into ``sums``, a block at a time.

    After summing each block, yields ``(block, scores, amax, gathered)``:
    its scores, the first maximal row of each negative group and the
    :class:`_Gathered` rows it added.
    """
    for block in blocks:
        scores = _fixed_order_scores(block.X, model.w, model.b)
        neg_groups = block.labels[block.starts[:-1]] == -1
        key_rows = np.flatnonzero(block.is_key)
        amax = _group_argmax(scores, block.starts)[neg_groups]
        gathered = _Gathered(block.X[key_rows], scores[key_rows],
                             block.X[amax], scores[amax])
        sums.add(*gathered, delta)
        yield block, scores, amax, gathered


def eval_grouped(model: LinearModel, data, hp: Hyperparams,
                 _working_set: _WorkingSet | None = None) -> ObjectiveValue:
    """Evaluate the grouped objective and, in the same pass, its subgradient.

    ``data`` may be an in-memory :class:`Dataset` or any source of
    group-aligned blocks (e.g. a streaming binary reader, read once); two
    sources that cut the same blocks give bit-identical values and
    gradients (see the module docstring). Only key rows and each negative
    group's maximal-score row carry subgradient coefficients; a tie
    resolves to the group's first such row, one valid subgradient chosen
    deterministically.

    ``_working_set`` is the state of one solve, or of a chain of solves,
    over ``data`` (see :class:`_WorkingSet`); the value and gradient are
    bit-identical with or without it.
    """
    _check_dims(model, data.d)
    if hp.lam == 0.0:
        return _regularization_only(model, hp)
    if _working_set is not None:
        return _working_set.price(model, data, hp)
    reg = _regularization(model, hp)
    sums = _GroupedSums(model.d)
    rows = sum(scores.size for _, scores, _, _ in
               _full_pass(model, data.iter_group_blocks(), hp.delta, sums))
    return sums.value(model, hp, reg, rows)


#: A working set holds at most this share of the rows.
_MAX_SHARE = 0.25
#: Bytes of features a stream's snapshot of its latest full pass may hold:
#: its key rows, each negative group's maximal row and, when a working set
#: fits too, the set's kept rows. A streamed solve's memory then stays flat
#: in the row count. A ``Dataset`` holds every row anyway, so its snapshot
#: is held only to the quarter.
_MAX_SET_BYTES = 32 * 2 ** 20
#: Relative slack on the step length ``t`` of the certificate.
_STEP_SLACK = 1e-12
#: Certified only while ``P_g (|z| + |z'| + t)`` stays below this, so no
#: partial score sum can overflow.
_SCORE_LIMIT = 2.0 ** 1000


def _norm(v: np.ndarray) -> float:
    """Euclidean norm without overflow or underflow."""
    return math.hypot(*v.tolist())


class _Snapshot(NamedTuple):
    """The latest full pass, at ``z``: the rows it gathered from each block
    and, when one fit, the working set it built (the last four fields,
    None otherwise). It holds no view of the rows."""

    z: np.ndarray
    z_norm: float
    scalable: bool  # every score was finite, so scaled points may read it
    blocks: list  # per block of the pass, the _Gathered rows it added
    X_key: np.ndarray | None = None  # every key row; the blocks' are slices
    X_kept: np.ndarray | None = None  # Fortran-order kept negative rows
    kept_starts: np.ndarray | None = None  # each negative group's offset in it
    thr: np.ndarray | None = None  # per negative group, above its dropped rows


class _Stats(NamedTuple):
    """What pricing derives from a source's rows, in one pass over them."""

    n_rows: int
    n_pos_groups: int
    reach: np.ndarray  # per negative group in order, P_g: max norm of (x, 1)
    reach_max: float
    col_min: np.ndarray  # per column, its smallest nonzero |x| (inf if none)


class _Measure:
    """Accumulates :class:`_Stats` over blocks fed in row order."""

    def __init__(self, d: int):
        self.n_rows = self.n_pos_groups = 0
        self.reach = []
        self.col_min = np.full(d, np.inf)

    def add(self, block: GroupBlock):
        sq = np.ones(block.X.shape[0])
        for j in range(block.X.shape[1]):
            x = block.X[:, j]
            sq += x * x
            ax = np.abs(x)
            m = ax.min()  # a zero entry is rare: only then mask it out
            if m == 0.0:
                m = np.min(ax, where=ax > 0.0, initial=np.inf)
            self.col_min[j] = min(self.col_min[j], m)
        neg_groups = block.labels[block.starts[:-1]] == -1
        self.n_rows += sq.size
        self.n_pos_groups += int(np.count_nonzero(~neg_groups))
        self.reach.append(np.sqrt(
            np.maximum.reduceat(sq, block.starts[:-1])[neg_groups]))

    def stats(self) -> _Stats:
        reach = np.concatenate(self.reach)
        return _Stats(self.n_rows, self.n_pos_groups, reach,
                      float(np.max(reach, initial=0.0)), self.col_min)


def _ulp_exponent(v: np.ndarray) -> np.ndarray:
    """For nonzero finite ``v``: each entry, and every float at least as
    large in magnitude, is a multiple of 2 to this power."""
    return np.frexp(v)[1] - 53


class _Pending(NamedTuple):
    """A point that :meth:`_WorkingSet.reuse` left to a pass over the
    source."""

    z: np.ndarray
    theta: float | None  # its distance from the point priced before
    rows: int  # the rows a certified pass scored there and did not prove


class _WorkingSet:
    """Pricing of the grouped objective for one solve, bit-identical to a
    full pass but scoring fewer rows and, over a stream, decoding less.
    Nothing it holds depends on the hyperparameters, so a chain of solves
    over the same rows may share one: each solve then prices its first
    point from what the solve before left.

    Each full pass replaces the :class:`_Snapshot` of the one before: the
    old one is dropped before the pass starts. Three kinds of point need no
    full pass:

    * **A zero point**, every entry of ``(w, b)`` ±0. Every score is ±0,
      so each negative group's first row is its maximum: the value needs
      only the key rows and those first rows, and scores no row.
    * **A power-of-two multiple** ``z = 2^-k z1`` (``k >= 0``) of the point
      ``z1`` of the snapshot, when every score of its pass was finite. The
      snapshot holds each block's key rows, maximal rows and their scores.
      Every product and partial sum of :func:`_fixed_order_scores` at
      ``z1`` is a multiple of ``2^q``, where ``q`` is the least of the ulp
      exponent of ``b1`` and, over the features with ``w1_j != 0``, the sum
      of the ulp exponents of ``w1_j`` and of column ``j``'s smallest
      nonzero ``|x|``. When ``q - k >= -1022`` no nonzero intermediate at
      ``z`` is subnormal, so each rounds exactly as at ``z1`` scaled by
      ``2^-k``: every score at ``z`` is ``2^-k`` times its score at
      ``z1``, the maximal rows are the same, and the snapshot's scores are
      scaled. No row is scored and nothing is read. The solver's first line
      search from zero tries exactly such points.
    * **A point certified on the working set**. A full pass at point ``z``
      keeps, per negative group ``g``, the rows with score
      ``s >= thr_g = max(m_g - 2 P_g theta, -1 - P_g theta)`` and its first
      maximal row: ``m_g`` is its maximum score, ``P_g`` the largest norm of
      ``(x, 1)`` over its rows and ``theta`` the distance from the point
      priced before. The working set is those rows plus every key row, and
      the snapshot holds it only when it holds at most a quarter of the
      rows and, over a stream, fits the byte budget.

      At a later point ``z'``, at distance ``t`` from ``z``, no dropped row
      scores above ``thr_g + P_g t`` (Cauchy-Schwarz); ``eta`` bounds the
      rounding of both scores. Group ``g`` is certified when its working-set
      maximum ``M_g`` lies strictly above ``thr_g + P_g (t + eta)``, so the
      dropped rows can neither reach nor tie it, or when ``M_g`` and that
      bound are both at most -1, so the group's loss and derivative are
      exactly zero whichever row is its maximum. Only when every group is
      certified is the working-set value returned.

    Each value is the full pass's, bit for bit: per block of the pass, the
    set's key rows and each group's maximal row, taken from the snapshot's
    own copies (``X_key``, ``X_kept``) and not from the block, hold the
    same values in the same C-order layout as the full pass's gathers, and
    are summed in its order. Any other point is priced
    by a full pass, which takes the next snapshot.

    :meth:`reuse` prices the points that need no pass over the source and
    leaves the others pending; :meth:`price`, which :func:`eval_grouped`
    calls, makes the pending pass or tries :meth:`reuse` first. A streamed
    solve (``train_gcm``) calls :meth:`reuse` itself and
    :func:`eval_grouped` only when it returns None, so each of its
    :func:`eval_grouped` calls decodes the file once.

    The set works the same over a :class:`Dataset` and over a stream of
    blocks: only full passes, and the zero point, read the source. ``P_g``,
    the column minima and the group counts (:class:`_Stats`) are measured
    in the first pass over the source, as it reads, so a stream pays no
    extra decode for them; a :class:`Dataset` keeps them for the next
    solve. A streamed solve's memory stays flat in the row count: its
    snapshot's key rows, maximal rows and kept rows share one budget of
    :data:`_MAX_SET_BYTES` of features, and a block's kept rows go straight
    into the set's matrix as the block passes, since the blocks are not
    held. So the solve holds at most one budget beyond what a single
    streamed pass holds, plus one block's screening temporaries.
    """

    def __init__(self):
        self._stats: _Stats | None = None
        self._last: np.ndarray | None = None  # the point priced before
        self._snapshot: _Snapshot | None = None
        self._pending: _Pending | None = None

    def reuse(self, model: LinearModel,
              hp: Hyperparams) -> ObjectiveValue | None:
        """The value at ``model`` when the snapshot gives it, or None when
        the point needs a pass over the source: the zero point, or a full
        pass. Then the next :meth:`price` at ``model`` makes that pass and
        only that."""
        if hp.lam == 0.0:
            return None
        z = np.append(model.w, model.b)
        theta = None if self._last is None else _norm(z - self._last)
        self._last = z
        rows = 0
        if z.any():
            snap, k = self._snapshot, self._scale(z)
            if k is not None:
                sums = _GroupedSums(model.d)
                for X_key, key_scores, X_max, max_scores in snap.blocks:
                    sums.add(X_key, np.ldexp(key_scores, -k),
                             X_max, np.ldexp(max_scores, -k), hp.delta)
                return sums.value(model, hp, _regularization(model, hp), 0)
            if snap is not None and snap.X_kept is not None:
                sums = _GroupedSums(model.d)
                certified, rows = self._certified_pass(model, z, hp.delta,
                                                       sums)
                if certified:
                    return sums.value(model, hp, _regularization(model, hp),
                                      rows)
        self._pending = _Pending(z, theta, rows)
        return None

    def price(self, model: LinearModel, data,
              hp: Hyperparams) -> ObjectiveValue:
        """The value at ``model``: from :meth:`reuse` if it gives one,
        otherwise from a pass over ``data``."""
        z = np.append(model.w, model.b)
        pending = self._pending
        if pending is None or not np.array_equal(pending.z, z):
            value = self.reuse(model, hp)
            if value is not None:
                return value
            pending = self._pending
        self._pending = None
        reg = _regularization(model, hp)
        sums = _GroupedSums(model.d)
        if not z.any():
            _zero_pass(model, self._blocks(data), hp.delta, sums)
            return sums.value(model, hp, reg, 0)
        rows = pending.rows + self._rebuilding_pass(
            model, data, hp.delta, sums, z, pending.theta)
        return sums.value(model, hp, reg, rows)

    def _blocks(self, data):
        """``data``'s blocks. Until the stats are known, the pass measures
        them as it reads, and a :class:`Dataset` keeps them."""
        if self._stats is None and isinstance(data, Dataset):
            self._stats = data._pricing_stats
        if self._stats is not None:
            yield from data.iter_group_blocks()
            return
        measure = _Measure(data.d)
        for block in data.iter_group_blocks():
            measure.add(block)
            yield block
        self._stats = measure.stats()
        if isinstance(data, Dataset):
            data._pricing_stats = self._stats

    def _scale(self, z: np.ndarray) -> int | None:
        """``k`` when ``z = 2^-k z1`` for the snapshot's point ``z1`` and
        every score at ``z`` is exactly ``2^-k`` times its score at ``z1``."""
        if self._snapshot is None or not self._snapshot.scalable:
            return None
        z1 = self._snapshot.z
        i = int(np.argmax(np.abs(z1)))
        if z[i] == 0.0:
            return None
        k = int(np.frexp(z1[i])[1] - np.frexp(z[i])[1])
        if not (k >= 0 and np.array_equal(np.ldexp(z, k), z1)
                and np.array_equal(np.ldexp(z1, -k), z)
                and np.array_equal(np.signbit(z), np.signbit(z1))):
            return None
        w1, b1 = z1[:-1], z1[-1]
        col_min = self._stats.col_min
        terms = (w1 != 0.0) & np.isfinite(col_min)
        q = _ulp_exponent(w1[terms]) + _ulp_exponent(col_min[terms])
        if b1 != 0.0:
            q = np.append(q, _ulp_exponent(b1))
        return k if np.all(q - k >= -1022) else None

    def _certified_pass(self, model, z, delta, sums) -> tuple[bool, int]:
        """Price the working set into ``sums``; (certified, rows scored)."""
        snap, stats = self._snapshot, self._stats
        t = _norm(z - snap.z) * (1.0 + _STEP_SLACK)
        scale = snap.z_norm + _norm(z) + t
        if not stats.reach_max * scale < _SCORE_LIMIT:
            return False, 0
        d = model.d
        # the second term covers products that underflow to subnormals
        eta = (8.0 * (d + 2) * np.finfo(np.float64).eps * scale
               + (d + 2) * 2.0 ** -1070)
        key_scores = _fixed_order_scores(snap.X_key, model.w, model.b)
        scores = _fixed_order_scores(snap.X_kept, model.w, model.b)
        rows = key_scores.size + scores.size
        local = _group_argmax(scores, snap.kept_starts)
        top = scores[local]
        bound = snap.thr + stats.reach * (t + eta)
        if not np.all((top > bound) | ((top <= -1.0) & (bound <= -1.0))):
            return False, rows
        k0 = g0 = 0
        for g in snap.blocks:
            k1, g1 = k0 + g.key_scores.size, g0 + g.max_scores.size
            sums.add(g.X_key, key_scores[k0:k1], snap.X_kept[local[g0:g1]],
                     top[g0:g1], delta)
            k0, g0 = k1, g1
        return True, rows

    def _rebuilding_pass(self, model, data, delta, sums, z, theta) -> int:
        """A full pass that takes the snapshot at ``z``, with a working set
        if one fits.

        No set is built at the solve's first point, where ``theta`` is
        None, nor where one row per negative group would already exceed the
        cap. The rows a block keeps go into the set's matrix at once from a
        stream, whose blocks are not held, and at the end from a
        :class:`Dataset`, whose blocks are views of its rows; the set is
        dropped once they pass the cap. Over a stream, the snapshot's key
        rows, maximal rows and kept rows share the byte budget: a pass whose
        key and maximal rows alone pass it keeps no snapshot.
        """
        self._snapshot = None  # one snapshot at a time
        views = isinstance(data, Dataset)  # its blocks are views of its rows
        # in rows of features
        budget = math.inf if views else _MAX_SET_BYTES // (8 * data.d)
        stats, keeping = self._stats, False
        if theta is not None and stats is not None:
            n_pos, n_neg = stats.n_pos_groups, stats.reach.size
            cap = math.floor(min(_MAX_SHARE * stats.n_rows - n_pos,
                                 budget - n_pos - n_neg))  # rows it may keep
            keeping = n_neg <= cap
        X_key = None  # the key rows in one matrix, for the set to score
        if keeping:
            X_key = np.empty((n_pos, data.d))
            # a stream's kept rows go straight in; a Dataset's at the end
            X_kept = None if views else np.empty((cap, data.d), order="F")
            gathers, counts, thrs = [], [], []
        blocks, scalable = [], True
        rows = held = kept = g0 = k0 = 0
        for block, scores, amax, gathered in _full_pass(
                model, self._blocks(data), delta, sums):
            rows += scores.size
            held += gathered.key_scores.size + amax.size
            if X_key is not None:  # C order, as gathered: the same sums
                k1 = k0 + gathered.key_scores.size
                X_key[k0:k1] = gathered.X_key
                gathered = gathered._replace(X_key=X_key[k0:k1])
                k0 = k1
            if held > budget:
                blocks = None  # its key and maximal rows pass the budget
            elif blocks is not None:
                blocks.append(gathered)
            scalable = scalable and bool(np.isfinite(scores).all())
            if keeping:
                p = stats.reach[g0:g0 + amax.size]
                thr = np.maximum(scores[amax] - 2.0 * p * theta,
                                 -1.0 - p * theta)
                neg_groups = block.labels[block.starts[:-1]] == -1
                group_thr = np.full(neg_groups.size, np.inf)
                group_thr[neg_groups] = thr
                keep = scores >= np.repeat(group_thr, np.diff(block.starts))
                keep[amax] = True
                if kept + int(np.count_nonzero(keep)) > cap:
                    keeping = False
                    X_kept = gathers = counts = thrs = None
                else:
                    kept_rows = np.flatnonzero(keep)
                    if views:
                        gathers.append((block.X, kept_rows, kept))
                    else:
                        _take_rows(block.X, kept_rows,
                                   X_kept[kept:kept + kept_rows.size])
                    kept += kept_rows.size
                    counts.append(np.diff(np.searchsorted(
                        kept_rows, block.starts))[neg_groups])
                    thrs.append(thr)
            g0 += amax.size
        if blocks is None:
            return rows
        if not (keeping and kept):  # no kept row: nothing to screen
            self._snapshot = _Snapshot(z, _norm(z), scalable, blocks)
            return rows
        if views:
            X_kept = np.empty((kept, data.d), order="F")
            for X, kept_rows, lo in gathers:
                _take_rows(X, kept_rows, X_kept[lo:lo + kept_rows.size])
        self._snapshot = _Snapshot(
            z, _norm(z), scalable, blocks, X_key, X_kept[:kept],
            np.concatenate(([0], np.cumsum(np.concatenate(counts)))),
            np.concatenate(thrs))
        return rows


def _zero_pass(model: LinearModel, blocks, delta: float, sums: _GroupedSums):
    """Sum a pass over ``blocks`` at a zero point into ``sums``: every score
    is ±0, so each negative group's first row is its first maximal row."""
    for block in blocks:
        key_rows = np.flatnonzero(block.is_key)
        firsts = block.starts[:-1][block.labels[block.starts[:-1]] == -1]
        X_key, X_max = block.X[key_rows], block.X[firsts]
        sums.add(X_key, _fixed_order_scores(X_key, model.w, model.b),
                 X_max, _fixed_order_scores(X_max, model.w, model.b), delta)


def _take_rows(X: np.ndarray, rows: np.ndarray, out: np.ndarray):
    """Gather rows ``rows`` of the Fortran-order ``X`` into ``out``, a
    column at a time."""
    for j in range(X.shape[1]):
        np.take(X[:, j], rows, out=out[:, j])
