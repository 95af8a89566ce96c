"""Scoring, group aggregation, ROC/AUC, and cross-validation over the trade-off.

A group's score is the maximum raw classifier score over its candidates; the
group is the unit of final classification. ROC curves sweep the distinct
scores in descending order with all tied rows crossing the threshold
together, and AUC is the trapezoid area, so it equals the concordant-pair
count with ties worth one half.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .baselines import MISVM_INNER_EPSILON, MISVM_MAX_OUTER, train_mi_svm
from .errors import ConfigurationError, DomainError
from .model import DEFAULT_DELTA, DEFAULT_EPSILON, Dataset, Hyperparams, LinearModel
from .objectives import _group_argmax
from .solver import SolverConfig
from .train import train_gcm, train_per_candidate

#: Default trade-off grid searched by cross-validation.
DEFAULT_LAMBDA_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))


class Algorithm(enum.Enum):
    GCM = "gcm"
    GCM_NOGROUP = "gcm-nogroup"
    SVM = "svm"
    MISVM = "misvm"


#: Algorithms whose model selection criterion is group-level AUC; the
#: per-candidate trainers select on candidate-level AUC instead.
GROUP_METRIC_ALGORITHMS = frozenset({Algorithm.GCM, Algorithm.MISVM})


@dataclass(frozen=True)
class ScoredGroup:
    """Max raw score over one group's candidates and where it was attained."""

    group_id: int
    label: int
    group_score: float
    argmax_row: int


@dataclass(frozen=True, eq=False)
class EvalReport:
    """ROC points (fpr, tpr, threshold) and AUC at both levels."""

    candidate_roc: np.ndarray
    candidate_auc: float
    group_roc: np.ndarray
    group_auc: float


@dataclass(frozen=True)
class CvPlan:
    """Cross-validation layout: folds partition groups, stratified by polarity."""

    folds: int = 5
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise DomainError("folds must be >= 2")
        if not self.lambda_grid:
            raise DomainError("lambda_grid must not be empty")
        for lam in self.lambda_grid:
            if not 0.0 < lam < 1.0:
                raise DomainError(f"lambda grid values must be in (0, 1), got {lam}")


@dataclass(frozen=True)
class LambdaCvResult:
    """Mean validation AUCs for one grid point."""

    lam: float
    mean_group_auc: float
    mean_candidate_auc: float
    folds_used: int


def score_groups(model: LinearModel, data: Dataset) -> list[ScoredGroup]:
    """Per group, the maximal raw score and its row (lowest index on ties)."""
    scores = model.raw_scores(data.X)
    amax = _group_argmax(scores, data.group_starts)
    return [
        ScoredGroup(
            group_id=int(data.group_ids[data.group_starts[k]]),
            label=int(data.group_labels[k]),
            group_score=float(scores[amax[k]]),
            argmax_row=int(amax[k]),
        )
        for k in range(data.n_groups)
    ]


def roc_auc(scores, labels) -> tuple[np.ndarray, float]:
    """ROC points and trapezoidal AUC for +1/-1 labels.

    Returns an array of (fpr, tpr, threshold) rows starting at
    (0, 0, inf); tied scores move across the threshold together.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = int(np.count_nonzero(labels == -1))
    if n_pos == 0 or n_neg == 0:
        raise ConfigurationError("ROC needs both labels present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    pos = (labels[order] == 1).astype(np.int64)
    block_ends = np.flatnonzero(np.diff(s)) if len(s) > 1 else np.empty(0, int)
    block_ends = np.concatenate([block_ends, [len(s) - 1]]).astype(int)
    tp = np.concatenate([[0], np.cumsum(pos)[block_ends]])
    fp = np.concatenate([[0], block_ends + 1 - np.cumsum(pos)[block_ends]])
    thresholds = np.concatenate([[np.inf], s[block_ends]])
    points = np.column_stack([fp / n_neg, tp / n_pos, thresholds])
    # trapezoid area over integer counts: exact up to the final division
    area = float(np.sum((fp[1:] - fp[:-1]) * (tp[1:] + tp[:-1])))
    auc = area / (2.0 * n_pos * n_neg)
    return points, auc


def evaluate_model(model: LinearModel, data: Dataset) -> EvalReport:
    """Candidate-level and group-level ROC/AUC for one model on one dataset."""
    cand_roc, cand_auc = roc_auc(model.raw_scores(data.X), data.labels)
    groups = score_groups(model, data)
    group_roc, group_auc = roc_auc(
        [g.group_score for g in groups], [g.label for g in groups]
    )
    return EvalReport(cand_roc, cand_auc, group_roc, group_auc)


def write_report_csv(report: EvalReport, path):
    """Serialize a report as CSV rows of ROC points plus a summary line."""
    lines = ["level,fpr,tpr,threshold"]
    for level, roc in (("candidate", report.candidate_roc),
                       ("group", report.group_roc)):
        # np.float64 subclasses float; float.__repr__ prints it as repr(float(x))
        fpr, tpr, thr = (map(float.__repr__, col) for col in np.asarray(roc).T)
        lines += [f"{level},{a},{b},{c}" for a, b, c in zip(fpr, tpr, thr)]
    lines.append(
        f"# auc candidate={report.candidate_auc!r} group={report.group_auc!r}"
    )
    _write_lines(path, lines)


def write_groups_csv(groups: list[ScoredGroup], path):
    """Serialize per-group scores: one row per group, argmax row included."""
    _write_lines(path, ["group_id,label,group_score,argmax_row"] + [
        f"{g.group_id},{g.label},{g.group_score!r},{g.argmax_row}" for g in groups])


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def training_hyperparams(algo: Algorithm, lam: float,
                         epsilon: float = DEFAULT_EPSILON,
                         delta: float = DEFAULT_DELTA) -> Hyperparams:
    """The hyperparameters that :func:`fit_algorithm` trains ``algo`` with.

    The SVM baseline and MI-SVM use the exact hinge (delta = 0), and MI-SVM
    its fixed inner Huber width; the others take the arguments as given.
    """
    if algo is Algorithm.SVM:
        return Hyperparams(lam, epsilon, 0.0)
    if algo is Algorithm.MISVM:
        return Hyperparams(lam, MISVM_INNER_EPSILON, 0.0)
    return Hyperparams(lam, epsilon, delta)


def fit_algorithm(algo: Algorithm, data: Dataset, lam: float,
                  epsilon: float = DEFAULT_EPSILON, delta: float = DEFAULT_DELTA,
                  solver_cfg: SolverConfig | None = None,
                  misvm_max_outer: int = MISVM_MAX_OUTER
                  ) -> tuple[LinearModel, dict]:
    """Train one algorithm and return (model, run details).

    Hyperparameters are those of :func:`training_hyperparams`; MI-SVM's
    inner problems train at ``lam`` itself. MI-SVM's details hold the outer
    iteration count, whether the selector reached its fixed point, and the
    selected row per positive group as ``{group_id: row}``.
    """
    hp = training_hyperparams(algo, lam, epsilon, delta)
    if algo is Algorithm.GCM:
        model, trace = train_gcm(data, hp, solver_cfg)
    elif algo in (Algorithm.GCM_NOGROUP, Algorithm.SVM):
        model, trace = train_per_candidate(data, hp, solver_cfg)
    elif algo is Algorithm.MISVM:
        if not 0.0 < lam < 1.0:
            raise DomainError(f"MI-SVM needs lam in (0, 1), got {lam}")
        model, selected, outer, converged = train_mi_svm(
            data, hp, solver_cfg, misvm_max_outer)
        pos_ids = data.group_ids[data.group_starts[:-1]][data.group_labels == 1]
        return model, {
            "outer_iterations": outer,
            "termination_reason": "SelectorFixedPoint"
            if converged else "MaxOuterIterations",
            "selector": dict(zip(pos_ids.tolist(), selected.tolist())),
        }
    else:  # pragma: no cover - exhaustive enum
        raise ConfigurationError(f"unknown algorithm {algo}")
    return model, {
        "iterations": trace.iterations,
        "termination_reason": trace.termination_reason.value,
        "final_grad_inf_norm": trace.final_grad_inf_norm,
    }


def make_group_folds(data: Dataset, plan: CvPlan) -> list[np.ndarray]:
    """Deal shuffled group ids round-robin into folds, per polarity."""
    if plan.folds > data.n_groups:
        raise ConfigurationError(
            f"{plan.folds} folds need at least that many groups, "
            f"got {data.n_groups}"
        )
    rng = np.random.default_rng(plan.seed)
    starts = data.group_starts[:-1]
    fold_ids: list[list[int]] = [[] for _ in range(plan.folds)]
    for polarity in (1, -1):
        ids = data.group_ids[starts][data.group_labels == polarity]
        ids = np.sort(ids)
        rng.shuffle(ids)
        for i, gid in enumerate(ids):
            fold_ids[i % plan.folds].append(int(gid))
    return [np.array(sorted(ids), dtype=np.int64) for ids in fold_ids]


def cross_validate(data: Dataset, algo: Algorithm, plan: CvPlan,
                   epsilon: float = DEFAULT_EPSILON,
                   delta: float = DEFAULT_DELTA,
                   solver_cfg: SolverConfig | None = None,
                   misvm_max_outer: int = MISVM_MAX_OUTER
                   ) -> tuple[float, list[LambdaCvResult]]:
    """Pick the trade-off maximizing mean validation AUC over the grid.

    The selection metric is group-level AUC for the grouped algorithms and
    candidate-level AUC for the per-candidate ones; both are reported for
    every grid point. Folds partition groups (never rows), stratified by
    polarity. A fold whose training or validation side is single-class is
    skipped with a warning; ties on the metric resolve to the earliest grid
    point. Deterministic given ``plan.seed``.
    """
    folds = make_group_folds(data, plan)
    all_ids = np.concatenate(folds)
    splits = []
    for k, valid_ids in enumerate(folds):
        train_ids = np.setdiff1d(all_ids, valid_ids)
        if len(train_ids) == 0 or len(valid_ids) == 0:
            warnings.warn(f"fold {k} is empty on one side; skipping")
            continue
        train_data = data.subset_groups(train_ids)
        valid_data = data.subset_groups(valid_ids)
        if min(train_data.n_pos_groups, train_data.n_neg_groups,
               valid_data.n_pos_groups, valid_data.n_neg_groups) == 0:
            warnings.warn(f"fold {k} has a single class; skipping")
            continue
        splits.append((train_data, valid_data))
    if not splits:
        raise ConfigurationError("every cross-validation fold was skipped")

    results = []
    for lam in plan.lambda_grid:
        group_aucs, cand_aucs = [], []
        for train_data, valid_data in splits:
            model, _ = fit_algorithm(algo, train_data, lam, epsilon, delta,
                                     solver_cfg, misvm_max_outer)
            report = evaluate_model(model, valid_data)
            group_aucs.append(report.group_auc)
            cand_aucs.append(report.candidate_auc)
        results.append(LambdaCvResult(
            lam=lam,
            mean_group_auc=float(np.mean(group_aucs)),
            mean_candidate_auc=float(np.mean(cand_aucs)),
            folds_used=len(splits),
        ))
    use_group = algo in GROUP_METRIC_ALGORITHMS
    best = max(
        results,
        key=lambda r: r.mean_group_auc if use_group else r.mean_candidate_auc,
    )
    return best.lam, results


def split_groups(data: Dataset, train_fraction: float, seed: int
                 ) -> tuple[Dataset, Dataset]:
    """Deterministic polarity-stratified train/test split at group level."""
    if not 0.0 < train_fraction < 1.0:
        raise DomainError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    starts = data.group_starts[:-1]
    train_ids: list[int] = []
    test_ids: list[int] = []
    for polarity in (1, -1):
        ids = np.sort(data.group_ids[starts][data.group_labels == polarity])
        rng.shuffle(ids)
        cut = int(round(train_fraction * len(ids)))
        train_ids.extend(int(g) for g in ids[:cut])
        test_ids.extend(int(g) for g in ids[cut:])
    if not train_ids or not test_ids:
        raise ConfigurationError("split produced an empty side")
    return data.subset_groups(train_ids), data.subset_groups(test_ids)
