"""Trade-off selection by grouped cross-validation, plus a polynomial lift.

Run: python3 demos/cross_validation_and_expansion.py  (about a minute)
"""

import numpy as np

from gcm import (
    Algorithm,
    CvPlan,
    Dataset,
    ExpansionSpec,
    FeaturePipeline,
    Hyperparams,
    cross_validate,
    evaluate_model,
    monomial_names,
    train_per_candidate,
)
from gcm.generator import GeneratorSpec, generate


def cv_demo():
    print("=" * 70)
    print("Cross-validating the trade-off on grouped folds")
    print("=" * 70)
    data = generate(GeneratorSpec(seed=3, n_pos_groups=30, n_neg_groups=120,
                                  group_size_min=5, group_size_max=15, d=8,
                                  key_shift=2.5, outlier_rate=0.1,
                                  outlier_shift=2.0))
    plan = CvPlan(folds=3, lambda_grid=(0.1, 0.3, 0.5, 0.7, 0.9), seed=0)
    best, results = cross_validate(data, Algorithm.GCM, plan)
    print(f"{'lambda':>7} {'group AUC':>10} {'cand AUC':>9}")
    for r in results:
        marker = "  <- selected" if r.lam == best else ""
        print(f"{r.lam:>7.2f} {r.mean_group_auc:>10.4f} "
              f"{r.mean_candidate_auc:>9.4f}{marker}")
    print()


def ring_dataset(rng, n, radius=2.0):
    """Positives inside a circle, negatives on a ring: not linearly separable."""
    angles = rng.uniform(0, 2 * np.pi, n)
    inner = rng.uniform(0, radius * 0.6, n)
    outer = rng.uniform(radius * 0.9, radius * 1.4, n)
    X = np.vstack([
        np.column_stack([inner * np.cos(angles), inner * np.sin(angles)]),
        np.column_stack([outer * np.cos(angles), outer * np.sin(angles)]),
    ])
    labels = np.concatenate([np.ones(n, int), -np.ones(n, int)])
    return Dataset(X, labels, np.arange(2 * n), labels == 1)


def expansion_demo():
    print("=" * 70)
    print("Polynomial lift keeps the classifier linear but the boundary is not")
    print("=" * 70)
    rng = np.random.default_rng(7)
    train, test = ring_dataset(rng, 150), ring_dataset(rng, 150)
    hp = Hyperparams(lam=0.7)
    spec = ExpansionSpec(degree=2)
    print("monomials:", ", ".join(monomial_names(2, spec.degree)))
    linear_model, _ = train_per_candidate(train, hp)
    # the pipeline fit on the training rows lifts the test rows the same way
    pipeline, lifted_train = FeaturePipeline.fit(train, spec)
    lifted_model, _ = train_per_candidate(lifted_train, hp)
    lin_auc = evaluate_model(linear_model, test).candidate_auc
    poly_auc = evaluate_model(lifted_model,
                              pipeline.apply(test)).candidate_auc
    print(f"linear features : candidate AUC = {lin_auc:.3f}")
    print(f"degree-2 lift   : candidate AUC = {poly_auc:.3f}")


if __name__ == "__main__":
    cv_demo()
    expansion_demo()
