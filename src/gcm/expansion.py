"""Feature pipeline: a polynomial lift, then a per-feature standardizer.

The lift maps each row to all monomials up to a degree, so the classifier
stays linear. The constant monomial is excluded because the bias plays that
role. Monomials are ordered graded-lexicographically (degree 1 first, then
within each degree the enumeration of
``itertools.combinations_with_replacement``), and the order is recorded
alongside trained models so pipelines cannot disagree silently.
:class:`FeaturePipeline` owns the composition and its width checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .errors import DimensionMismatchError, DomainError, NumericalError
from .model import Dataset, _reject_nonfinite


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
    column, the layout :class:`Dataset` stores. A monomial
    that overflows comes out as ±inf without a warning; :class:`Dataset`
    rejects it at its group.
    """
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    out_dim = expanded_dimension(d, spec.degree)
    cols = np.empty((X.shape[0], out_dim), dtype=np.float64, order="F")
    with np.errstate(over="ignore"):
        for i, exps in enumerate(monomial_exponents(d, spec.degree)):
            col = np.ones(X.shape[0], dtype=np.float64)
            for j, e in enumerate(exps):
                if e:
                    col = col * X[:, j] ** e
            cols[:, i] = col
    return cols


class AffineScaler:
    """Per-feature standardizer: ``(x - shift) / scale``.

    Fit on the training split only; both vectors must be finite and
    ``scale`` nonzero. Constant features get scale 1 so they pass through.
    """

    def __init__(self, shift: np.ndarray, scale: np.ndarray):
        self.shift = np.asarray(shift, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        if self.shift.shape != self.scale.shape or self.shift.ndim != 1:
            raise DomainError("shift and scale must be matching vectors")
        if not np.isfinite(self.shift).all() or not np.isfinite(self.scale).all():
            raise DomainError("shift and scale must be finite")
        if np.any(self.scale == 0.0):
            raise DomainError("scale entries must be nonzero")

    @classmethod
    def fit(cls, X: np.ndarray) -> "AffineScaler":
        """Column means and standard deviations of the matrix ``X``.

        One column at a time, so the deviations never fill a second matrix;
        on a Fortran-order ``X`` the values are bit-identical to
        ``X.mean(axis=0)`` and ``X.std(axis=0)``.
        """
        shift, scale = np.empty(X.shape[1]), np.empty(X.shape[1])
        with np.errstate(over="ignore"):  # reported just below
            for j in range(X.shape[1]):
                shift[j], scale[j] = X[:, j].mean(), X[:, j].std()
        bad = np.flatnonzero(~(np.isfinite(shift) & np.isfinite(scale)))
        if bad.size:
            raise NumericalError(f"feature {bad[0] + 1}'s mean or standard "
                                 "deviation is not finite")
        return cls(shift, np.where(scale == 0.0, 1.0, scale))


@dataclass(frozen=True, eq=False)
class FeaturePipeline:
    """Lift rows of ``input_d`` features by ``expansion``, then scale them by
    ``scaler`` (each when set; the scaler is as wide as the lifted rows).
    The identity pipeline, with neither, returns its input unchanged."""

    input_d: int
    expansion: ExpansionSpec | None = None
    scaler: AffineScaler | None = None

    def __post_init__(self):
        if self.input_d < 1:
            raise DomainError(f"input_d must be >= 1, got {self.input_d}")
        if self.scaler is not None and len(self.scaler.shift) != self.output_d:
            raise DomainError(f"scaler has {len(self.scaler.shift)} features, "
                              f"the pipeline outputs {self.output_d}")

    @property
    def output_d(self) -> int:
        if self.expansion is None:
            return self.input_d
        return expanded_dimension(self.input_d, self.expansion.degree)

    @classmethod
    def fit(cls, data: Dataset, expansion: ExpansionSpec | None = None,
            standardize: bool = False) -> tuple["FeaturePipeline", Dataset]:
        """The pipeline for ``data`` (its scaler, if ``standardize``, fit on
        the lifted rows) and ``data`` transformed by it."""
        return cls(data.d, expansion)._run(data, standardize)

    def apply(self, data: Dataset) -> Dataset:
        """``data`` lifted, then scaled."""
        return self._run(data)[1]

    def _run(self, data: Dataset, fit_scaler: bool = False):
        if data.d != self.input_d:
            raise DimensionMismatchError(self.input_d, data.d, "pipeline input")
        X = (data.X if self.expansion is None
             else expand_matrix(data.X, self.expansion))
        pipeline = self
        if fit_scaler:
            if X is not data.X:  # a lifted value may have overflowed
                _reject_nonfinite(X, data.group_ids)
            pipeline = replace(self, scaler=AffineScaler.fit(X))
        if pipeline.scaler is not None:
            # a fresh lift is scaled in place, the input's matrix never is
            X = np.subtract(X, pipeline.scaler.shift,
                            out=None if X is data.X else X)
            X /= pipeline.scaler.scale
        # a new matrix is the pipeline's own and column-major: adopted, not copied
        return pipeline, (data if X is data.X else Dataset._adopt(X, data))
