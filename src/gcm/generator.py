"""Synthetic grouped-data generator.

Background rows are isotropic Gaussian noise. Each positive group gets
exactly one key row shifted along axis 0; optionally the remaining positive
rows carry a milder "decoy" shift along axis 1, a plentiful but less reliable
signal. Negative groups are background except that, with some probability,
one row is shifted toward the positive region, creating the hard negatives
that dominate a group's maximum loss.

Generation is fully vectorized with a fixed call sequence on a seeded PCG64
generator, so a given spec reproduces byte-identical datasets anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .model import Dataset, _refuse_unrepresentable


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one synthetic dataset.

    ``key_shift`` moves each positive group's key row along axis 0.
    ``decoy_shift`` (0 disables) moves the non-key positive rows along
    axis 1. ``outlier_shift`` moves one row of an affected negative group
    along the axis where the bulk of the positive rows lives: axis 1 when
    decoys are enabled, axis 0 otherwise.
    """

    seed: int
    n_pos_groups: int
    n_neg_groups: int
    group_size_min: int = 150
    group_size_max: int = 250
    d: int = 13
    key_shift: float = 3.0
    noise_scale: float = 1.0
    outlier_rate: float = 0.0
    outlier_shift: float = 0.0
    decoy_shift: float = 0.0

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.n_pos_groups < 1:
            raise DomainError(
                "n_pos_groups must be >= 1 (a dataset without positive groups "
                "cannot be used for training)"
            )
        if self.n_neg_groups < 0:
            raise DomainError("n_neg_groups must be >= 0")
        if not 1 <= self.group_size_min <= self.group_size_max:
            raise DomainError("need 1 <= group_size_min <= group_size_max")
        if self.d < 1 or (self.decoy_shift != 0.0 and self.d < 2):
            raise DomainError("d must be >= 1 (>= 2 when decoys are enabled)")
        if not 0.0 < self.noise_scale < np.inf:
            raise DomainError("noise_scale must be finite and > 0")
        if not np.isfinite([self.key_shift, self.outlier_shift,
                            self.decoy_shift]).all():
            raise DomainError("key, outlier and decoy shifts must be finite")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise DomainError("outlier_rate must be in [0, 1]")


def generate(spec: GeneratorSpec) -> Dataset:
    """Draw one dataset; deterministic per spec."""
    rng = np.random.default_rng(spec.seed)
    n_pos, n_neg = spec.n_pos_groups, spec.n_neg_groups
    n_groups = n_pos + n_neg
    # the largest draw the spec allows: every group at its largest size
    _refuse_unrepresentable((n_groups * spec.group_size_max, spec.d))
    sizes = rng.integers(spec.group_size_min, spec.group_size_max + 1,
                         size=n_groups)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    X = rng.normal(0.0, spec.noise_scale, size=(total, spec.d))
    key_within = rng.integers(0, sizes[:n_pos])
    outlier_hit = rng.random(n_neg) < spec.outlier_rate
    outlier_within = rng.integers(0, sizes[n_pos:]) if n_neg else np.empty(0, int)

    key_rows = offsets[:n_pos] + key_within
    X[key_rows, 0] += spec.key_shift
    n_pos_rows = int(offsets[n_pos])
    if spec.decoy_shift != 0.0:
        decoy = np.ones(n_pos_rows, dtype=bool)
        decoy[key_rows] = False
        X[:n_pos_rows][decoy, 1] += spec.decoy_shift
    if n_neg:
        outlier_rows = (offsets[n_pos:-1] + outlier_within)[outlier_hit]
        axis = 1 if spec.decoy_shift != 0.0 else 0
        X[outlier_rows, axis] += spec.outlier_shift

    labels = np.where(np.arange(total) < n_pos_rows, 1, -1).astype(np.int8)
    group_ids = np.repeat(np.arange(n_groups, dtype=np.int64), sizes)
    is_key = np.zeros(total, dtype=bool)
    is_key[key_rows] = True
    return Dataset(X, labels, group_ids, is_key)


def easy_spec(seed: int = 0, n_pos_groups: int = 40, n_neg_groups: int = 200,
              **overrides) -> GeneratorSpec:
    """A cleanly separable regime: strong keys, no hard negatives."""
    return replace(
        GeneratorSpec(seed=seed, n_pos_groups=n_pos_groups,
                      n_neg_groups=n_neg_groups, key_shift=6.0),
        **overrides,
    )


def hard_negatives_spec(seed: int, n_pos_groups: int = 100,
                        n_neg_groups: int = 5000, **overrides) -> GeneratorSpec:
    """The benchmark regime for grouped-vs-per-candidate comparisons.

    Keys are a small minority of each positive group (one row out of
    150..250) while the remaining positive rows carry a plentiful decoy
    signal; 2% of negative groups hide one decoy-like outlier row strong
    enough to dominate the group maximum.
    """
    return replace(
        GeneratorSpec(
            seed=seed,
            n_pos_groups=n_pos_groups,
            n_neg_groups=n_neg_groups,
            key_shift=6.0,
            decoy_shift=2.0,
            outlier_rate=0.02,
            outlier_shift=6.0,
        ),
        **overrides,
    )


PRESETS = {
    "easy": easy_spec,
    "hard-negatives": hard_negatives_spec,
}
