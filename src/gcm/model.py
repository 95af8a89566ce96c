"""Core domain types: grouped datasets, linear models, hyperparameters.

These types carry no algorithms. A :class:`Dataset` canonicalizes its rows so
that every group occupies one contiguous block (stable sort by group id, input
order preserved inside each group) and stores its features column-major. This
module also owns the two rules that every source of group-aligned blocks
shares, in memory or streamed: :func:`validate_groups` checks the structural
invariants that the grouped objectives rely on (labels of +1 or -1, key
flags of 0 or 1, homogeneous labels per group, exactly one key candidate per
positive group), and :func:`partition_groups` cuts groups into blocks. All
types are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    DomainError,
    MalformedRecordError,
    MissingKeyError,
    MixedLabelGroupError,
    MultipleKeysError,
)
from .penalties import _check_delta, _check_epsilon

#: Row budget per group-aligned block; one block always holds whole groups.
DEFAULT_BLOCK_ROWS = 65536

#: Rows per chunk of :func:`_column_major_copy`.
COPY_CHUNK_ROWS = 4096

#: Shipped default for the Huber width.
DEFAULT_EPSILON = 1.0

#: Shipped default for the smoothed-hinge width.
DEFAULT_DELTA = 0.5


@dataclass(frozen=True)
class Hyperparams:
    """Shared objective hyperparameters.

    ``lam`` trades regularization against training loss and must lie in
    [0, 1]. ``epsilon`` (finite, > 0) is the weight penalty's Huber width;
    ``delta`` (finite, >= 0) the smoothed hinge's, 0 meaning the exact hinge.
    """

    lam: float
    epsilon: float = DEFAULT_EPSILON
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lam must be in [0, 1], got {self.lam}")
        _check_epsilon(self.epsilon)
        _check_delta(self.delta)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Linear classifier: weight vector ``w`` and unregularized bias ``b``."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1:
            raise DomainError(f"w must be a vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or not np.isfinite(self.b):
            raise DomainError("model parameters must be finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))

    @property
    def d(self) -> int:
        return self.w.shape[0]

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        """Return ``X @ w + b`` for a row matrix of matching width."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.d:
            raise DimensionMismatchError(self.d, X.shape[-1], "raw_scores")
        scores = X @ self.w
        scores += self.b  # in place: one row-length array per call
        return scores


class GroupBlock(NamedTuple):
    """A run of whole groups, as contiguous arrays.

    ``starts`` has one offset per group plus a trailing sentinel, so group
    ``k`` of the block occupies rows ``starts[k]:starts[k + 1]``.
    """

    X: np.ndarray
    labels: np.ndarray
    is_key: np.ndarray
    group_ids: np.ndarray
    starts: np.ndarray


def _refuse_unrepresentable(shape: tuple[int, ...]):
    """Raise :class:`MemoryError`, as numpy does for an array it cannot
    allocate, when a float64 array of ``shape`` is larger than numpy can
    represent at all; numpy itself raises a ``ValueError`` there."""
    limit = int(np.iinfo(np.intp).max)
    if max(shape) > limit or math.prod(shape) * 8 > limit:
        raise MemoryError(f"Unable to allocate an array with shape {shape}: "
                          "it is larger than numpy can represent")


def _group_location(group_id, path) -> str:
    """``group <id>``, plus `` in <path>`` when a path is given."""
    where = f"group {int(group_id)}"
    return where if path is None else f"{where} in {path}"


def _reject_nonfinite(X: np.ndarray, group_ids: np.ndarray, path=None):
    """Raise :class:`MalformedRecordError` at the group of ``X``'s first row
    holding a NaN or ±inf (row ``r`` is in ``group_ids[r]``), if any."""
    # a column is finite exactly when its minimum and maximum both are
    if np.isfinite(X.min(axis=0)).all() and np.isfinite(X.max(axis=0)).all():
        return
    row = np.flatnonzero(~np.isfinite(X).all(axis=1))[0]
    raise MalformedRecordError("features must not be NaN or infinite",
                               _group_location(group_ids[row], path))


def _column_major_copy(X, group_ids: np.ndarray, path=None,
                       order: np.ndarray | None = None) -> np.ndarray:
    """Copy ``X`` into a new Fortran-order float64 matrix of finite values.

    Output row ``r`` is ``X[order[r]]``, or ``X[r]`` when ``order`` is None;
    ``group_ids[r]`` is its group. The copy runs :data:`COPY_CHUNK_ROWS` rows
    at a time so that each chunk's transpose stays in cache, which makes it
    far cheaper than ``np.asfortranarray`` on a row-major or strided input.
    Each chunk goes through :func:`_reject_nonfinite`, located in ``path``
    when one is given.
    """
    out = np.empty(X.shape, dtype=np.float64, order="F")
    for lo in range(0, X.shape[0], COPY_CHUNK_ROWS):
        hi = lo + COPY_CHUNK_ROWS
        chunk = out[lo:hi]
        chunk[...] = X[lo:hi] if order is None else X[order[lo:hi]]
        _reject_nonfinite(chunk, group_ids[lo:hi], path)
    return out


def group_starts(group_ids: np.ndarray) -> np.ndarray:
    """Offsets of each run of equal ids in sorted ``group_ids``, plus a sentinel."""
    boundaries = np.flatnonzero(np.diff(group_ids)) + 1
    return np.concatenate(([0], boundaries, [len(group_ids)])).astype(np.int64)


def validate_groups(labels, is_key, group_ids, starts, path=None):
    """Check the invariants of rows that are already grouped at ``starts``.

    ``starts`` holds the first row of each group plus a trailing sentinel, as
    in :class:`GroupBlock`. Labels and key flags are checked as given, so
    pass them before any narrowing or ``bool`` cast. Raises, for the first
    failing check:

    * :class:`MalformedRecordError` for a label other than +1 or -1;
    * :class:`MalformedRecordError` for a key flag other than 0 or 1;
    * :class:`MixedLabelGroupError` for a group with both labels;
    * :class:`MalformedRecordError` for a key flag in a negative group;
    * :class:`MissingKeyError` or :class:`MultipleKeysError` for a positive
      group without exactly one key.

    The error is located at ``group <id>``, with `` in <path>`` appended when
    ``path`` is given.
    """
    def fail(error, message, row):
        raise error(message, _group_location(group_ids[row], path))

    bad = np.flatnonzero(np.abs(labels) != 1)
    if bad.size:
        fail(MalformedRecordError,
             f"label must be +1 or -1, got {labels[bad[0]]}", bad[0])
    keys = is_key.astype(bool)
    bad = np.flatnonzero(keys != is_key)  # the cast changes any other flag
    if bad.size:
        fail(MalformedRecordError,
             f"is_key must be 0 or 1, got {is_key[bad[0]]}", bad[0])
    group_labels = labels[starts[:-1]]
    bad = np.flatnonzero(labels != np.repeat(group_labels, np.diff(starts)))
    if bad.size:
        fail(MixedLabelGroupError, "group mixes positive and negative rows", bad[0])
    key_counts = np.diff(np.searchsorted(np.flatnonzero(keys), starts))
    pos = group_labels == 1
    for error, message, bad in (
        (MalformedRecordError, "is_key is only valid on positive rows",
         ~pos & (key_counts > 0)),
        (MissingKeyError, "positive group has no key candidate",
         pos & (key_counts == 0)),
        (MultipleKeysError, "positive group has more than one key candidate",
         pos & (key_counts > 1)),
    ):
        if bad.any():
            fail(error, message, starts[np.argmax(bad)])


def partition_groups(starts: np.ndarray, max_rows: int) -> list[int]:
    """Cut the groups at ``starts`` into blocks of at most ``max_rows`` rows.

    Returns group indices ``cuts`` from 0 to the group count: block ``i``
    holds groups ``cuts[i]`` to ``cuts[i + 1] - 1``. Each block takes as many
    whole groups as fit, and a group larger than ``max_rows`` goes alone. A
    cut depends only on the sizes of the groups up to the first one that does
    not fit, so a reader that sees the groups a chunk at a time can emit
    every block but the last and cut the rest again later, with the same
    result.
    """
    n_groups = len(starts) - 1
    cuts = [0]
    while cuts[-1] < n_groups:
        k = cuts[-1]
        fits = int(np.searchsorted(starts, starts[k] + max_rows, side="right")) - 1
        cuts.append(max(fits, k + 1))
    return cuts


class Dataset:
    """Immutable collection of labeled, grouped candidate rows.

    Rows are stored sorted by group id (stable, so input order inside each
    group is preserved); this makes every group one contiguous block and lets
    grouped objectives stream the data a block of whole groups at a time.

    ``X`` is a read-only Fortran-order (column-major) copy of the features,
    so each feature of a block of rows is one contiguous run, which is the
    order the grouped score kernel reads it in. Features must be finite:
    a NaN or ±inf raises :class:`MalformedRecordError` at its group.

    After sorting, the rows go through :func:`validate_groups`, the same
    check that :class:`~gcm.data_io.BinaryDatasetReader` runs on each block,
    so a broken group invariant raises the same error type in memory and
    streamed. Labels and key flags are checked before they are narrowed to
    ``int8`` and ``bool``.
    """

    #: What :mod:`gcm.objectives` derives from the rows for pricing, filled
    #: at its first use and kept for the dataset's lifetime.
    _pricing_stats = None

    def __init__(self, features, labels, group_ids, is_key):
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise MalformedRecordError(f"features must be 2-D, got shape {X.shape}")
        if X.shape[1] == 0:
            raise MalformedRecordError("features must have at least one column")
        labels = np.asarray(labels)
        if labels.dtype.kind not in "iuf":
            raise MalformedRecordError(f"labels must be numbers, got {labels.dtype}")
        try:
            group_ids = np.asarray(group_ids).astype(np.int64, casting="safe")
        except TypeError as exc:
            raise MalformedRecordError("group_ids cannot be converted to int64") from exc
        is_key = np.array(is_key)  # an own contiguous copy, checked raw
        if is_key.dtype.kind not in "biuf":
            raise MalformedRecordError(f"is_key must be numbers, got {is_key.dtype}")
        n = X.shape[0]
        if n == 0:
            raise MalformedRecordError("dataset must contain at least one row")
        if not (labels.shape == group_ids.shape == is_key.shape == (n,)):
            raise MalformedRecordError(
                "features, labels, group_ids and is_key must have one entry per row"
            )
        bad = np.flatnonzero(group_ids < 0)
        if bad.size:
            raise MalformedRecordError(
                f"group_id must be >= 0, got {group_ids[bad[0]]}", f"row {bad[0]}"
            )

        order = None
        if np.any(group_ids[1:] < group_ids[:-1]):
            order = np.argsort(group_ids, kind="stable")
            labels = labels[order]
            group_ids = group_ids[order]
            is_key = is_key[order]
        starts = group_starts(group_ids)
        validate_groups(labels, is_key, group_ids, starts)

        self._store(_column_major_copy(X, group_ids, order=order),
                    labels.astype(np.int8), group_ids,
                    is_key.astype(bool, copy=False), starts)

    @classmethod
    def _adopt(cls, X: np.ndarray, rows: "Dataset") -> "Dataset":
        """The rows of ``rows`` with new features ``X``, kept without a copy.

        ``X`` is a Fortran-order float64 matrix, one row per row of
        ``rows``, that the caller owns and hands over. Labels, group ids,
        key flags and group offsets are those of ``rows``, already checked,
        so only the features go through :func:`_reject_nonfinite`, which
        raises at the same group as the constructor's copy would.
        """
        _reject_nonfinite(X, rows.group_ids)
        data = cls.__new__(cls)
        data._store(X, rows.labels, rows.group_ids, rows.is_key,
                    rows.group_starts)
        return data

    def _store(self, X, labels, group_ids, is_key, starts):
        """Keep the checked, group-sorted arrays, read-only."""
        self.X = X
        self.labels = labels
        self.group_ids = group_ids
        self.is_key = is_key
        self.group_starts = starts
        self.group_labels = labels[starts[:-1]]
        for arr in (self.X, self.labels, self.group_ids, self.is_key,
                    self.group_labels):
            arr.flags.writeable = False
        # counted once: the arrays are read-only and the trainers ask often
        self.n_pos_rows = int(np.count_nonzero(labels == 1))
        self.n_neg_rows = X.shape[0] - self.n_pos_rows
        self.n_pos_groups = int(np.count_nonzero(self.group_labels == 1))
        self.n_neg_groups = len(self.group_labels) - self.n_pos_groups

    # -- shape ---------------------------------------------------------------

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_groups(self) -> int:
        return len(self.group_starts) - 1

    def subset_groups(self, keep_ids) -> "Dataset":
        """Return a new dataset with only the given group ids.

        Raises :class:`ConfigurationError` for an empty selection or one
        naming an id that is not in the dataset, and
        :class:`MalformedRecordError` for ids that do not convert to int64
        without loss (``casting="safe"``, as in the constructor).
        """
        ids = np.asarray(keep_ids)
        if ids.size == 0:
            raise ConfigurationError("subset contains no groups")
        try:
            ids = ids.astype(np.int64, casting="safe")
        except TypeError as exc:
            raise MalformedRecordError("group ids cannot be converted to int64") from exc
        absent = ~np.isin(ids, self.group_ids[self.group_starts[:-1]])
        if absent.any():
            raise ConfigurationError(
                f"group id {ids[absent][0]} is not in the dataset")
        keep = np.isin(self.group_ids, ids)
        return Dataset(self.X[keep], self.labels[keep], self.group_ids[keep],
                       self.is_key[keep])

    # -- block iteration -----------------------------------------------------

    def iter_group_blocks(self, max_rows: int = DEFAULT_BLOCK_ROWS) -> Iterator[GroupBlock]:
        """Yield runs of whole groups, each at most ``max_rows`` rows.

        The blocks are those of :func:`partition_groups`, so a streaming
        reader over the same data produces identical blocks.
        """
        starts = self.group_starts
        cuts = partition_groups(starts, max_rows)
        for k, j in zip(cuts[:-1], cuts[1:]):
            lo, hi = starts[k], starts[j]
            yield GroupBlock(
                X=self.X[lo:hi],
                labels=self.labels[lo:hi],
                is_key=self.is_key[lo:hi],
                group_ids=self.group_ids[lo:hi],
                starts=starts[k:j + 1] - lo,
            )
