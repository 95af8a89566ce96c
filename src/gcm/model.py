"""Core domain types: candidates, grouped datasets, linear models, hyperparameters.

These types carry no algorithms. A :class:`Dataset` canonicalizes its rows so
that every group occupies one contiguous block (stable sort by group id, input
order preserved inside each group), stores its features column-major, and
validates the structural invariants that the grouped objectives rely on:
homogeneous labels per group and exactly one key candidate per positive group.
All types are immutable after construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

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

#: Row budget per group-aligned block; one block always holds whole groups.
DEFAULT_BLOCK_ROWS = 65536

#: Rows per chunk of :func:`_column_major_copy`.
COPY_CHUNK_ROWS = 4096

#: Shipped default for the Huber width.
DEFAULT_EPSILON = 1.0

#: Shipped default for the smoothed-hinge width.
DEFAULT_DELTA = 0.5


class Aggregation(enum.Enum):
    """How per-row losses are combined into the training objective."""

    PER_CANDIDATE = "per-candidate"
    GROUPED = "grouped"


@dataclass(frozen=True)
class Hyperparams:
    """Shared objective hyperparameters.

    ``lam`` trades regularization against training loss and must lie in
    [0, 1]. ``epsilon`` (> 0) is the Huber width for the weight penalty.
    ``delta`` (>= 0) is the smoothed-hinge width; 0 means the exact hinge.
    """

    lam: float
    epsilon: float = DEFAULT_EPSILON
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lam must be in [0, 1], got {self.lam}")
        if not self.epsilon > 0.0:
            raise DomainError(f"epsilon must be > 0, got {self.epsilon}")
        if self.delta < 0.0:
            raise DomainError(f"delta must be >= 0, got {self.delta}")


@dataclass(frozen=True, eq=False)
class Candidate:
    """One feature row: group membership, label, key flag, features."""

    group_id: int
    label: int
    is_key: bool
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "features", np.asarray(self.features, dtype=np.float64)
        )


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
        return X @ self.w + self.b


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which aggregation to train with, plus the shared hyperparameters."""

    hyperparams: Hyperparams
    aggregation: Aggregation = Aggregation.GROUPED


class GroupBlock(NamedTuple):
    """A run of whole groups, as contiguous arrays.

    ``starts`` has one offset per group plus a trailing sentinel, so group
    ``k`` of the block occupies rows ``starts[k]:starts[k + 1]``.
    ``row_offset`` is the index of the block's first row in the full dataset.
    """

    X: np.ndarray
    labels: np.ndarray
    is_key: np.ndarray
    group_ids: np.ndarray
    starts: np.ndarray
    row_offset: int


def soft_margin(model: LinearModel, candidate: Candidate) -> float:
    """Return ``y * (w @ x + b)`` for a single candidate."""
    x = candidate.features
    if x.shape != (model.d,):
        raise DimensionMismatchError(model.d, x.shape[0], "soft_margin")
    return float(candidate.label) * (float(model.w @ x) + model.b)


def _as_array(values, dtype, name: str) -> np.ndarray:
    arr = np.asarray(values)
    try:
        return arr.astype(dtype, casting="safe" if dtype == np.int64 else "unsafe")
    except TypeError as exc:
        raise MalformedRecordError(f"{name} cannot be converted to {dtype}") from exc


def _column_major_copy(X, group_ids: np.ndarray, path=None,
                       order: np.ndarray | None = None) -> np.ndarray:
    """Copy ``X`` into a new Fortran-order float64 matrix, rejecting NaN.

    Output row ``r`` is ``X[order[r]]``, or ``X[r]`` when ``order`` is None;
    ``group_ids[r]`` is its group. The copy runs :data:`COPY_CHUNK_ROWS` rows
    at a time so that each chunk's transpose stays in cache, which makes it
    far cheaper than ``np.asfortranarray`` on a row-major or strided input.
    A NaN feature raises :class:`MalformedRecordError` located at its group,
    with ``in <path>`` appended when ``path`` is given. Infinite features
    pass.
    """
    out = np.empty(X.shape, dtype=np.float64, order="F")
    for lo in range(0, X.shape[0], COPY_CHUNK_ROWS):
        hi = lo + COPY_CHUNK_ROWS
        chunk = out[lo:hi]
        chunk[...] = X[lo:hi] if order is None else X[order[lo:hi]]
        # a column's minimum is NaN exactly when the column holds a NaN
        if np.isnan(chunk.min(axis=0)).any():
            row = lo + np.flatnonzero(np.isnan(chunk).any(axis=1))[0]
            where = f"group {int(group_ids[row])}"
            if path is not None:
                where += f" in {path}"
            raise MalformedRecordError("features must not be NaN", where)
    return out


class Dataset:
    """Immutable collection of labeled, grouped candidate rows.

    Rows are stored sorted by group id (stable, so input order inside each
    group is preserved); this makes every group one contiguous block and lets
    grouped objectives stream the data a block of whole groups at a time.

    ``X`` is a read-only Fortran-order (column-major) copy of the features,
    so each feature of a block of rows is one contiguous run, which is the
    order the grouped score kernel reads it in. Features must not be NaN;
    infinite values are accepted.
    """

    def __init__(self, features, labels, group_ids, is_key):
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise MalformedRecordError(f"features must be 2-D, got shape {X.shape}")
        labels = _as_array(labels, np.int8, "labels")
        group_ids = _as_array(group_ids, np.int64, "group_ids")
        is_key = np.asarray(is_key).astype(bool)
        n = X.shape[0]
        if n == 0:
            raise MalformedRecordError("dataset must contain at least one row")
        if not (labels.shape == group_ids.shape == is_key.shape == (n,)):
            raise MalformedRecordError(
                "features, labels, group_ids and is_key must have one entry per row"
            )

        bad = np.flatnonzero(np.abs(labels) != 1)
        if bad.size:
            raise MalformedRecordError(
                f"label must be +1 or -1, got {labels[bad[0]]}", f"row {bad[0]}"
            )
        bad = np.flatnonzero(group_ids < 0)
        if bad.size:
            raise MalformedRecordError(
                f"group_id must be >= 0, got {group_ids[bad[0]]}", f"row {bad[0]}"
            )
        bad = np.flatnonzero(is_key & (labels != 1))
        if bad.size:
            raise MalformedRecordError(
                "is_key is only valid on positive rows", f"row {bad[0]}"
            )

        order = None
        if np.any(group_ids[1:] < group_ids[:-1]):
            order = np.argsort(group_ids, kind="stable")
            labels = labels[order]
            group_ids = group_ids[order]
            is_key = is_key[order]

        self.X = _column_major_copy(X, group_ids, order=order)
        self.labels = labels
        self.group_ids = group_ids
        self.is_key = is_key
        for arr in (self.X, self.labels, self.group_ids, self.is_key):
            arr.flags.writeable = False

        boundaries = np.flatnonzero(np.diff(group_ids)) + 1 if n else np.empty(0, int)
        self.group_starts = np.concatenate(([0], boundaries, [n])).astype(np.int64)
        self._validate_groups()

    def _validate_groups(self):
        starts = self.group_starts
        same_group = np.diff(self.group_ids) == 0
        label_change = np.diff(self.labels) != 0
        bad = np.flatnonzero(same_group & label_change)
        if bad.size:
            gid = int(self.group_ids[bad[0]])
            raise MixedLabelGroupError(
                "group mixes positive and negative rows", f"group {gid}"
            )
        group_labels = self.labels[starts[:-1]]
        key_counts = np.add.reduceat(self.is_key.astype(np.int64), starts[:-1])
        pos = group_labels == 1
        bad = np.flatnonzero(pos & (key_counts == 0))
        if bad.size:
            gid = int(self.group_ids[starts[bad[0]]])
            raise MissingKeyError("positive group has no key candidate", f"group {gid}")
        bad = np.flatnonzero(pos & (key_counts > 1))
        if bad.size:
            gid = int(self.group_ids[starts[bad[0]]])
            raise MultipleKeysError(
                f"positive group has {int(key_counts[bad[0]])} key candidates",
                f"group {gid}",
            )
        self.group_labels = group_labels.copy()
        self.group_labels.flags.writeable = False

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

    @property
    def n_pos_groups(self) -> int:
        return int(np.count_nonzero(self.group_labels == 1))

    @property
    def n_neg_groups(self) -> int:
        return int(np.count_nonzero(self.group_labels == -1))

    @property
    def n_pos_rows(self) -> int:
        return int(np.count_nonzero(self.labels == 1))

    @property
    def n_neg_rows(self) -> int:
        return int(np.count_nonzero(self.labels == -1))

    @property
    def group_index(self) -> dict[int, tuple[int, np.ndarray]]:
        """Map group id -> (polarity, row indices in within-group input order)."""
        out = {}
        for k in range(self.n_groups):
            lo, hi = self.group_starts[k], self.group_starts[k + 1]
            out[int(self.group_ids[lo])] = (
                int(self.group_labels[k]),
                np.arange(lo, hi),
            )
        return out

    # -- access --------------------------------------------------------------

    def candidate(self, row: int) -> Candidate:
        return Candidate(
            group_id=int(self.group_ids[row]),
            label=int(self.labels[row]),
            is_key=bool(self.is_key[row]),
            features=self.X[row],
        )

    def candidates(self) -> Iterator[Candidate]:
        return (self.candidate(i) for i in range(self.n_rows))

    @classmethod
    def from_candidates(cls, candidates: Sequence[Candidate]) -> "Dataset":
        if not candidates:
            raise MalformedRecordError("dataset must contain at least one row")
        return cls(
            features=np.stack([c.features for c in candidates]),
            labels=[c.label for c in candidates],
            group_ids=[c.group_id for c in candidates],
            is_key=[c.is_key for c in candidates],
        )

    def subset_groups(self, keep_ids) -> "Dataset":
        """Return a new dataset with only the given group ids."""
        keep = np.isin(self.group_ids, np.asarray(list(keep_ids), dtype=np.int64))
        if not np.any(keep):
            raise ConfigurationError("subset contains no groups")
        return Dataset(self.X[keep], self.labels[keep], self.group_ids[keep],
                       self.is_key[keep])

    # -- block iteration -----------------------------------------------------

    def iter_group_blocks(self, max_rows: int = DEFAULT_BLOCK_ROWS) -> Iterator[GroupBlock]:
        """Yield runs of whole groups, each at most ``max_rows`` rows.

        A group larger than ``max_rows`` is yielded alone. The partition
        depends only on the group sizes, so a streaming reader over the same
        data produces identical blocks.
        """
        starts = self.group_starts
        n_groups = self.n_groups
        k = 0
        while k < n_groups:
            lo = starts[k]
            j = k + 1
            while j < n_groups and starts[j + 1] - lo <= max_rows:
                j += 1
            hi = starts[j]
            yield GroupBlock(
                X=self.X[lo:hi],
                labels=self.labels[lo:hi],
                is_key=self.is_key[lo:hi],
                group_ids=self.group_ids[lo:hi],
                starts=starts[k:j + 1] - lo,
                row_offset=int(lo),
            )
            k = j
