"""Why grouping negatives by their maximum loss changes what gets learned.

Generates a dataset where each positive group hides one reliable key row
(axis 0) among many decoy rows (axis 1), and a few negative groups hide one
decoy-like outlier. Per-candidate training chases the plentiful decoy signal
and gets fooled by the outliers at the group level; grouped training follows
the keys and suppresses exactly the rows that dominate each negative group's
maximum.

Run: python3 demos/grouped_vs_per_candidate.py  (about half a minute)
"""

import numpy as np

from gcm import (
    Hyperparams,
    SolverConfig,
    evaluate_model,
    generate,
    hard_negatives_spec,
    train_gcm,
    train_mi_svm,
    train_per_candidate,
)
from gcm.baselines import MISVM_INNER_EPSILON


def main():
    train = generate(hard_negatives_spec(seed=1000, n_pos_groups=40,
                                         n_neg_groups=800))
    test = generate(hard_negatives_spec(seed=1001, n_pos_groups=80,
                                        n_neg_groups=800))
    print(f"train: {train.n_rows} rows, {train.n_pos_groups} positive / "
          f"{train.n_neg_groups} negative groups")
    print(f"keys are {train.is_key.sum()} of {train.n_pos_rows} positive rows "
          f"({100 * train.is_key.sum() / train.n_pos_rows:.1f}%)\n")

    solver = SolverConfig(max_iterations=400)
    hp = Hyperparams(lam=0.5, epsilon=1.0, delta=0.5)

    models = {}
    models["grouped"], _ = train_gcm(train, hp, solver)
    models["per-candidate"], _ = train_per_candidate(train, hp, solver)
    models["svm (exact hinge)"], _ = train_per_candidate(
        train, Hyperparams(lam=0.5, delta=0.0), solver)
    models["mi-svm"], _, outer, _ = train_mi_svm(
        train, Hyperparams(lam=0.5, epsilon=MISVM_INNER_EPSILON, delta=0.0),
        solver)
    print(f"mi-svm selector fixed point after {outer} outer iterations\n")

    print(f"{'algorithm':<20} {'cand AUC':>9} {'group AUC':>10}   "
          f"w[key axis]  w[decoy axis]")
    for name, model in models.items():
        rep = evaluate_model(model, test)
        print(f"{name:<20} {rep.candidate_auc:>9.4f} {rep.group_auc:>10.4f}   "
              f"{model.w[0]:>11.3f}  {model.w[1]:>13.3f}")

    print("\nGrouped training pushes weight onto the key axis and wins at the")
    print("group level; per-candidate training follows the decoys and wins at")
    print("the candidate level. MI-SVM, lacking key annotations, locks onto")
    print("the decoys too.")


if __name__ == "__main__":
    main()
