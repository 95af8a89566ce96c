"""Polynomial feature lift: all monomials up to a degree, classifier stays linear.

The constant monomial is excluded because the bias plays that role. Monomials
are ordered graded-lexicographically (degree 1 first, then within each degree
the enumeration of ``itertools.combinations_with_replacement``), and the
order is recorded alongside trained models so pipelines cannot disagree
silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .model import Dataset


@dataclass(frozen=True)
class ExpansionSpec:
    """Expansion degree: monomials of total degree 1..degree."""

    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise DomainError("degree must be >= 1")


def expanded_dimension(d: int, degree: int) -> int:
    """Number of monomials of total degree 1..degree over d variables."""
    return comb(d + degree, degree) - 1


def monomial_exponents(d: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors in the canonical (graded lexicographic) order."""
    out = []
    for k in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(d), k):
            exps = [0] * d
            for j in combo:
                exps[j] += 1
            out.append(tuple(exps))
    return out


def monomial_names(d: int, degree: int) -> list[str]:
    """Readable monomial names like ``x1^2*x2`` in canonical order."""
    names = []
    for exps in monomial_exponents(d, degree):
        parts = [
            f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
            for j, e in enumerate(exps) if e > 0
        ]
        names.append("*".join(parts))
    return names


def expand_matrix(X: np.ndarray, spec: ExpansionSpec) -> np.ndarray:
    """Apply the lift to a raw feature matrix.

    The output is column-major: each monomial is written as one contiguous
    column, and :class:`Dataset` copies it without a transpose.
    """
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    out_dim = expanded_dimension(d, spec.degree)
    cols = np.empty((X.shape[0], out_dim), dtype=np.float64, order="F")
    for i, exps in enumerate(monomial_exponents(d, spec.degree)):
        col = np.ones(X.shape[0], dtype=np.float64)
        for j, e in enumerate(exps):
            if e:
                col = col * X[:, j] ** e
        cols[:, i] = col
    return cols


def expand(data: Dataset, spec: ExpansionSpec) -> Dataset:
    """Replace each row's features with its monomial vector."""
    return Dataset(
        features=expand_matrix(data.X, spec),
        labels=data.labels,
        group_ids=data.group_ids,
        is_key=data.is_key,
    )


class AffineScaler:
    """Optional per-feature standardizer: ``(x - shift) / scale``.

    Fit on the training split only; no scaling is ever applied implicitly.
    Constant features get scale 1 so they pass through unchanged.
    """

    def __init__(self, shift: np.ndarray, scale: np.ndarray):
        self.shift = np.asarray(shift, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        if self.shift.shape != self.scale.shape or self.shift.ndim != 1:
            raise DomainError("shift and scale must be matching vectors")
        if np.any(self.scale == 0.0):
            raise DomainError("scale entries must be nonzero")

    @classmethod
    def fit(cls, data: Dataset) -> "AffineScaler":
        shift = data.X.mean(axis=0)
        scale = data.X.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        return cls(shift, scale)

    def transform(self, data: Dataset) -> Dataset:
        if data.d != self.shift.shape[0]:
            raise DimensionMismatchError(self.shift.shape[0], data.d, "scaler")
        return Dataset(
            features=(data.X - self.shift) / self.scale,
            labels=data.labels,
            group_ids=data.group_ids,
            is_key=data.is_key,
        )
