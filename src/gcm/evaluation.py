"""Scoring, group aggregation, ROC/AUC, and cross-validation over the trade-off.

A group's score is the maximum raw classifier score over its candidates; the
group is the unit of final classification. ROC curves sweep the distinct
scores in descending order with all tied rows crossing the threshold
together, and AUC is the trapezoid area, so it equals the concordant-pair
count with ties worth one half.

A curve is built from value sorts, never from an index sort: the runs of
equal values in the sorted scores give one point per distinct score and the
rows at or above it, and the sorted positive scores, placed among the run
values, give the positives per run. Equality decides the runs, so tied
``inf`` or ``-inf`` scores form one point like any other tie. A tied block
of ``0.0`` and ``-0.0`` takes its threshold's sign from its row with the
largest index. NaN scores, which have no place in the order, come after
every other point, one point per row in row order.
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


@dataclass(frozen=True, eq=False)
class EvalReport:
    """ROC points (fpr, tpr, threshold) and AUC at both levels, plus
    ``scores``: the raw row scores that both curves were built from."""

    candidate_roc: np.ndarray
    candidate_auc: float
    group_roc: np.ndarray
    group_auc: float
    scores: np.ndarray


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


def score_groups(scores: np.ndarray, data: Dataset
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per group of ``data``: its id, its label, its maximal row of
    ``scores`` (one raw score per row, e.g. :attr:`EvalReport.scores`) and
    that row's index, lowest on ties; four arrays in group order."""
    amax = _group_argmax(scores, data.group_starts)
    return (data.group_ids[data.group_starts[:-1]], data.group_labels,
            scores[amax], amax)


def roc_auc(scores, labels) -> tuple[np.ndarray, float]:
    """ROC points and trapezoidal AUC for +1/-1 labels (others raise).

    Returns an array of (fpr, tpr, threshold) rows starting at
    (0, 0, inf), then one row per distinct non-NaN score, highest first,
    counting every row that scores at or above it: tied scores (``inf``
    and ``-inf`` included) move across the threshold together. A tied
    block of ``0.0`` and ``-0.0`` takes its threshold's sign from the tied
    row with the largest index. NaN scores come last, one row each, in row
    order, with the row's own score as threshold. The AUC is the
    trapezoid area over the integer counts, divided once at the end.

    The runs of equal values in ``np.sort(scores)`` give the distinct
    thresholds and the rows at or above each; one ``searchsorted`` of the
    sorted positive scores into the run values counts the positives per
    run.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DomainError(f"scores and labels differ in shape: "
                          f"{scores.shape} and {labels.shape}")
    is_pos = labels == 1
    n_pos = int(np.count_nonzero(is_pos))
    n_neg = int(np.count_nonzero(labels == -1))
    if n_pos + n_neg != labels.size:
        i = int(np.flatnonzero((labels != 1) & (labels != -1))[0])
        raise DomainError(
            f"labels must be +1 or -1, got {labels[i].item()!r} at index {i}")
    if n_pos == 0 or n_neg == 0:
        raise ConfigurationError("ROC needs both labels present")
    is_nan = np.isnan(scores)
    nan_rows = np.flatnonzero(is_nan)
    s = np.sort(scores)[:len(scores) - len(nan_rows)]  # NaN sorts last
    run_start = np.ones(len(s), dtype=bool)
    run_start[1:] = s[1:] != s[:-1]  # unlike np.diff, inf == inf here
    first = np.flatnonzero(run_start)
    values = s[first]
    # np.sort orders 0.0 and -0.0 arbitrarily; the last such row sets the sign
    zero = np.searchsorted(values, 0.0)
    if zero < len(values) and values[zero] == 0.0:
        values[zero] = scores[np.flatnonzero(scores == 0.0)[-1]]
    pos_per_run = np.bincount(
        np.searchsorted(values, np.sort(scores[is_pos & ~is_nan])),
        minlength=len(values))
    rows_per_run = np.diff(np.append(first, len(s)))
    # integer counts at each point, highest threshold first, NaN rows last
    tp = np.cumsum(np.concatenate([[0], pos_per_run[::-1], is_pos[nan_rows]]))
    fp = np.cumsum(np.concatenate(
        [[0], rows_per_run[::-1], np.ones(len(nan_rows), np.int64)])) - tp
    thresholds = np.concatenate([[np.inf], values[::-1], scores[nan_rows]])
    points = np.column_stack([fp / n_neg, tp / n_pos, thresholds])
    # trapezoid area over integer counts: exact up to the final division
    area = float(np.sum((fp[1:] - fp[:-1]) * (tp[1:] + tp[:-1])))
    auc = area / (2.0 * n_pos * n_neg)
    return points, auc


def evaluate_model(model: LinearModel, data: Dataset) -> EvalReport:
    """Candidate-level and group-level ROC/AUC for one model on one dataset.

    The rows are scored once; each group's score is its maximal row score.
    """
    scores = model.raw_scores(data.X)
    cand_roc, cand_auc = roc_auc(scores, data.labels)
    group_roc, group_auc = roc_auc(
        scores[_group_argmax(scores, data.group_starts)], data.group_labels)
    return EvalReport(cand_roc, cand_auc, group_roc, group_auc, scores)


#: Rows formatted per write, so a report never sits in memory whole.
_REPORT_CHUNK_ROWS = 16384


def write_report_csv(report: EvalReport, path):
    """Serialize a report as CSV rows of ROC points plus a summary line.

    Each level's points are formatted and written in chunks of
    ``_REPORT_CHUNK_ROWS`` rows; the bytes do not depend on the chunk size.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("level,fpr,tpr,threshold\n")
        for level, roc in (("candidate", report.candidate_roc),
                           ("group", report.group_roc)):
            fpr, tpr, thr = np.asarray(roc, dtype=np.float64).T
            # tpr takes at most n_pos + 1 values: format each one once
            tpr_values, tpr_index = np.unique(tpr, return_inverse=True)
            tpr_text = [repr(v) for v in tpr_values.tolist()]
            for lo in range(0, len(fpr), _REPORT_CHUNK_ROWS):
                hi = lo + _REPORT_CHUNK_ROWS
                fh.write("".join(
                    f"{level},{a!r},{tpr_text[i]},{c!r}\n"
                    for a, i, c in zip(fpr[lo:hi].tolist(),
                                       tpr_index[lo:hi].tolist(),
                                       thr[lo:hi].tolist())))
        fh.write(f"# auc candidate={report.candidate_auc!r} "
                 f"group={report.group_auc!r}\n")


def write_groups_csv(groups, path):
    """Serialize :func:`score_groups`' arrays, one row per group."""
    _write_lines(path, ["group_id,label,group_score,argmax_row"] + [
        f"{gid},{label},{score!r},{row}"
        for gid, label, score, row in zip(*(a.tolist() for a in groups))])


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


def _shuffled_group_ids(data: Dataset, seed: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Positive, then negative group ids, shuffled in turn by one generator."""
    rng = np.random.default_rng(seed)
    ids = data.group_ids[data.group_starts[:-1]]  # ascending: rows sort by group
    pos, neg = ids[data.group_labels == 1], ids[data.group_labels == -1]
    rng.shuffle(pos)
    rng.shuffle(neg)
    return pos, neg


def make_group_folds(data: Dataset, plan: CvPlan) -> list[np.ndarray]:
    """Deal shuffled group ids round-robin into folds, per polarity."""
    if plan.folds > data.n_groups:
        raise ConfigurationError(
            f"{plan.folds} folds need at least that many groups, "
            f"got {data.n_groups}"
        )
    pos, neg = _shuffled_group_ids(data, plan.seed)
    return [np.sort(np.concatenate([pos[k::plan.folds], neg[k::plan.folds]]))
            for k in range(plan.folds)]


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
    polarity; one loop visits them, fitting the whole grid on each, so only
    one fold's training and validation subsets are held at a time. A fold
    whose training or validation side is single-class is skipped with a
    warning; ties on the metric resolve to the earliest grid point.
    Deterministic given ``plan.seed``.
    """
    folds = make_group_folds(data, plan)
    group_aucs = [[] for _ in plan.lambda_grid]
    cand_aucs = [[] for _ in plan.lambda_grid]
    for k, valid_ids in enumerate(folds):
        train_ids = np.concatenate(folds[:k] + folds[k + 1:])
        if len(train_ids) == 0 or len(valid_ids) == 0:
            warnings.warn(f"fold {k} is empty on one side; skipping")
            continue
        train_data = data.subset_groups(train_ids)
        valid_data = data.subset_groups(valid_ids)
        if min(train_data.n_pos_groups, train_data.n_neg_groups,
               valid_data.n_pos_groups, valid_data.n_neg_groups) == 0:
            warnings.warn(f"fold {k} has a single class; skipping")
            continue
        for i, lam in enumerate(plan.lambda_grid):
            model, _ = fit_algorithm(algo, train_data, lam, epsilon, delta,
                                     solver_cfg, misvm_max_outer)
            report = evaluate_model(model, valid_data)
            group_aucs[i].append(report.group_auc)
            cand_aucs[i].append(report.candidate_auc)
    folds_used = len(group_aucs[0])
    if not folds_used:
        raise ConfigurationError("every cross-validation fold was skipped")
    results = [
        LambdaCvResult(lam=lam, mean_group_auc=float(np.mean(g)),
                       mean_candidate_auc=float(np.mean(c)),
                       folds_used=folds_used)
        for lam, g, c in zip(plan.lambda_grid, group_aucs, cand_aucs)
    ]
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
    pos, neg = _shuffled_group_ids(data, seed)
    n_pos = int(round(train_fraction * len(pos)))
    n_neg = int(round(train_fraction * len(neg)))
    train_ids = np.concatenate([pos[:n_pos], neg[:n_neg]])
    test_ids = np.concatenate([pos[n_pos:], neg[n_neg:]])
    if not train_ids.size or not test_ids.size:
        raise ConfigurationError("split produced an empty side")
    return data.subset_groups(train_ids), data.subset_groups(test_ids)
