"""Scoring, group aggregation, ROC/AUC, and cross-validation over the trade-off.

A group's score is the maximum raw classifier score over its candidates; the
group is the unit of final classification. ROC curves sweep the distinct
scores in descending order with all tied rows crossing the threshold
together, and AUC is the curve's trapezoid area, so it equals the
concordant-pair count with ties worth one half.

The AUC is counted without the curve, from two value sorts: each class's
non-NaN scores are sorted, and each positive counts the negatives below it
and, at half weight, those tied with it. :func:`evaluate_model` computes
only the AUCs; an :class:`EvalReport` builds a level's curve when it is
read, which only the report writer does.

A curve is built from value sorts, never from an index sort: the runs of
equal values in the sorted scores give one point per distinct score and the
rows at or above it, and the sorted positive scores, placed among the run
values, give the positives per run. Equality decides the runs, so tied
``inf`` or ``-inf`` scores form one point like any other tie. A tied block
of ``0.0`` and ``-0.0`` takes its threshold's sign from its row with the
largest index. NaN scores, which have no place in the order, come after
every other point, one point per row in row order; in the AUC, a NaN row
ranks below every other row, and an earlier NaN row above a later one.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._floattext import csv_lines, float_text, int_text
from .baselines import MISVM_INNER_EPSILON, MISVM_MAX_OUTER, train_mi_svm
from .errors import ConfigurationError, DomainError
from .model import DEFAULT_DELTA, DEFAULT_EPSILON, Dataset, Hyperparams, LinearModel
from .objectives import _group_argmax, _WorkingSet
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
    """AUC at both levels, plus ``scores``: the raw row scores that both
    were computed from. Only :func:`evaluate_model` builds one.

    The ROC points (fpr, tpr, threshold) of each level, ``candidate_roc``
    and ``group_roc``, are built from the scores and labels the report
    refers to each time they are read.
    """

    candidate_auc: float
    group_auc: float
    scores: np.ndarray
    _labels: np.ndarray = field(repr=False)
    _group_scores: np.ndarray = field(repr=False)
    _group_labels: np.ndarray = field(repr=False)

    @property
    def candidate_roc(self) -> np.ndarray:
        return _roc_curve(self.scores, self._labels)

    @property
    def group_roc(self) -> np.ndarray:
        return _roc_curve(self._group_scores, self._group_labels)


@dataclass(frozen=True)
class CvPlan:
    """Cross-validation layout: folds partition groups, stratified by polarity."""

    folds: int = 5
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise DomainError("folds must be >= 2")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
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


def _checked(scores, labels) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The input checks shared by :func:`_auc` and :func:`_roc_curve`:
    returns the scores as float64, the positive rows, and the positive and
    negative counts."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise DomainError(f"scores and labels must be 1-D, got shapes "
                          f"{scores.shape} and {labels.shape}")
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
    return scores, is_pos, n_pos, n_neg


def _auc(scores, labels) -> float:
    """:func:`roc_auc`'s AUC without its curve, from two value sorts.

    Each positive counts the negatives below it twice and those tied with
    it once (two ``searchsorted`` into the sorted negative scores); NaN
    rows rank below every other row, in row order. The integer sum is twice
    the curve's trapezoid area, so the AUC has the same bits.
    """
    scores, is_pos, n_pos, n_neg = _checked(scores, labels)
    pos = np.sort(scores[is_pos])
    neg = np.sort(scores[~is_pos])
    pos = pos[:np.searchsorted(pos, np.nan)]  # NaN sorts last
    neg = neg[:np.searchsorted(neg, np.nan)]
    area = (np.searchsorted(neg, pos, "left").sum(dtype=np.int64)
            + np.searchsorted(neg, pos, "right").sum(dtype=np.int64))
    if len(neg) < n_neg:
        # a NaN negative ranks below every non-NaN positive and every NaN
        # positive in an earlier row
        nan_pos = is_pos[np.isnan(scores)]
        area += 2 * (len(pos) * (n_neg - len(neg))
                     + np.cumsum(nan_pos)[~nan_pos].sum(dtype=np.int64))
    return float(area) / (2.0 * n_pos * n_neg)


def _roc_curve(scores, labels) -> np.ndarray:
    """:func:`roc_auc`'s points, written into one (n, 3) array.

    The runs of equal values in ``np.sort(scores)`` give the distinct
    thresholds and the rows at or above each; one ``searchsorted`` of the
    sorted positive scores into the run values counts the positives per
    run.
    """
    scores, is_pos, n_pos, n_neg = _checked(scores, labels)
    is_nan = np.isnan(scores)
    nan_rows = np.flatnonzero(is_nan)
    n = len(scores) - len(nan_rows)
    s = np.sort(scores)[:n]  # NaN sorts last
    run_start = np.ones(len(s), dtype=bool)
    run_start[1:] = s[1:] != s[:-1]  # unlike np.diff, inf == inf here
    first = np.flatnonzero(run_start)
    values = s[first]
    # np.sort orders 0.0 and -0.0 arbitrarily; the last such row sets the sign
    zero = np.searchsorted(values, 0.0)
    if zero < len(values) and values[zero] == 0.0:
        values[zero] = scores[np.flatnonzero(scores == 0.0)[-1]]
    rows_at = n - first[::-1]
    m = len(values)
    pos_per_run = np.bincount(
        np.searchsorted(values, np.sort(scores[is_pos & ~is_nan])),
        minlength=m)
    # integer counts at each point, highest threshold first, NaN rows last
    tp = np.empty(1 + m + len(nan_rows), dtype=np.int64)
    tp[0] = 0
    np.cumsum(pos_per_run[::-1], out=tp[1:m + 1])
    np.cumsum(is_pos[nan_rows], out=tp[m + 1:])
    tp[m + 1:] += tp[m]
    fp = np.empty_like(tp)
    fp[0] = 0
    fp[1:m + 1] = rows_at
    fp[m + 1:] = np.arange(n + 1, len(scores) + 1)
    fp -= tp
    points = np.empty((len(tp), 3))
    np.divide(fp, n_neg, out=points[:, 0])
    np.divide(tp, n_pos, out=points[:, 1])
    points[0, 2] = np.inf
    points[1:m + 1, 2] = values[::-1]
    points[m + 1:, 2] = scores[nan_rows]
    return points


def roc_auc(scores, labels) -> tuple[np.ndarray, float]:
    """ROC points and AUC for +1/-1 labels (others raise), from 1-D arrays
    of one shape (others raise).

    Returns an array of (fpr, tpr, threshold) rows starting at
    (0, 0, inf), then one row per distinct non-NaN score, highest first,
    counting every row that scores at or above it: tied scores (``inf``
    and ``-inf`` included) move across the threshold together. A tied
    block of ``0.0`` and ``-0.0`` takes its threshold's sign from the tied
    row with the largest index. NaN scores come last, one row each, in row
    order, with the row's own score as threshold.

    The AUC is the curve's trapezoid area, but it is counted without the
    curve: from the two classes' sorted scores, as the concordant pairs
    with ties worth one half, in integers divided once at the end.
    """
    return _roc_curve(scores, labels), _auc(scores, labels)


def evaluate_model(model: LinearModel, data: Dataset) -> EvalReport:
    """Candidate-level and group-level AUC for one model on one dataset.

    The rows are scored once; each group's score is its maximal row score.
    Both AUCs come from value sorts of each class's scores; the report
    builds a ROC curve only when it is read.
    """
    scores = model.raw_scores(data.X)
    group_scores = scores[_group_argmax(scores, data.group_starts)]
    return EvalReport(_auc(scores, data.labels),
                      _auc(group_scores, data.group_labels), scores,
                      data.labels, group_scores, data.group_labels)


#: Rows formatted per write, so a report never sits in memory whole.
_REPORT_CHUNK_ROWS = 8192


def write_report_csv(report: EvalReport, path):
    """Serialize a report as CSV rows of ROC points plus a summary line.

    Each level's points are formatted and written in chunks of
    ``_REPORT_CHUNK_ROWS`` rows; the bytes do not depend on the chunk size.
    Floats are written as their ``repr``.
    """
    with open(path, "wb") as fh:
        fh.write(b"level,fpr,tpr,threshold\n")
        for level, roc in (("candidate", report.candidate_roc),
                           ("group", report.group_roc)):
            fpr, tpr, thr = np.asarray(roc, dtype=np.float64).T
            # tpr takes at most n_pos + 1 values: format each one once
            tpr_values, tpr_index = np.unique(tpr, return_inverse=True)
            tpr_text = float_text(tpr_values)
            for lo in range(0, len(fpr), _REPORT_CHUNK_ROWS):
                hi = lo + _REPORT_CHUNK_ROWS
                fh.write(csv_lines([level.encode(), float_text(fpr[lo:hi]),
                                    tpr_text[tpr_index[lo:hi]],
                                    float_text(thr[lo:hi])]))
        fh.write(f"# auc candidate={report.candidate_auc!r} "
                 f"group={report.group_auc!r}\n".encode())


def write_groups_csv(groups, path):
    """Serialize :func:`score_groups`' arrays, one row per group, in chunks
    of ``_REPORT_CHUNK_ROWS`` rows; the score is written as its ``repr``."""
    gids, labels, scores, rows = groups
    with open(path, "wb") as fh:
        fh.write(b"group_id,label,group_score,argmax_row\n")
        for lo in range(0, len(gids), _REPORT_CHUNK_ROWS):
            hi = lo + _REPORT_CHUNK_ROWS
            fh.write(csv_lines([int_text(gids[lo:hi]), int_text(labels[lo:hi]),
                                float_text(scores[lo:hi]),
                                int_text(rows[lo:hi])]))


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
                  misvm_max_outer: int = MISVM_MAX_OUTER,
                  start: LinearModel | None = None, *,
                  _working_set: _WorkingSet | None = None
                  ) -> tuple[LinearModel, dict]:
    """Train one algorithm and return (model, run details).

    Hyperparameters are those of :func:`training_hyperparams`; MI-SVM's
    inner problems train at ``lam`` itself. MI-SVM's details hold the outer
    iteration count, whether the selector reached its fixed point, and the
    selected row per positive group as ``{group_id: row}``.

    ``start`` warm-starts the GCM and per-candidate solves; MI-SVM keeps its
    own group-mean start and refuses one. ``_working_set``, a working set
    over ``data`` carried from an earlier fit, reaches only
    :func:`~gcm.train.train_gcm`.
    """
    hp = training_hyperparams(algo, lam, epsilon, delta)
    if algo is Algorithm.GCM:
        model, trace = train_gcm(data, hp, solver_cfg, start,
                                 _working_set=_working_set)
    elif algo in (Algorithm.GCM_NOGROUP, Algorithm.SVM):
        model, trace = train_per_candidate(data, hp, solver_cfg, start)
    elif algo is Algorithm.MISVM:
        if start is not None:
            raise ConfigurationError(
                "MI-SVM starts from its group means and takes no start")
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
    every grid point, in the order of ``plan.lambda_grid``. Folds partition
    groups (never rows), stratified by polarity; one loop visits them,
    fitting the whole grid on each, so only one fold's training and
    validation subsets are held at a time. A fold whose training or
    validation side is single-class is skipped with a warning; ties on the
    metric resolve to the earliest grid point. Deterministic given
    ``plan.seed``.

    Each fold fits its grid as one chain, in ascending lambda (a stable
    sort, so equal values keep their grid order): the first fit starts
    from zero and each later one from the fit before, so a value's result
    does not depend on where it sits in the grid. MI-SVM, which has its own
    start, fits every value cold. A GCM chain shares one working set over
    the fold's training rows (see :func:`~gcm.train.train_gcm`), so a warm
    start is priced near the previous optimum. A warm-started fit stops
    within the solver's tolerances of the same optimum as a cold one, so
    its AUCs may differ from a cold fit's in the last digits.
    """
    folds = make_group_folds(data, plan)
    group_aucs = [[] for _ in plan.lambda_grid]
    cand_aucs = [[] for _ in plan.lambda_grid]
    chain = sorted(range(len(plan.lambda_grid)),
                   key=plan.lambda_grid.__getitem__)
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
        state = _WorkingSet() if algo is Algorithm.GCM else None
        model = None
        for i in chain:
            model, _ = fit_algorithm(
                algo, train_data, plan.lambda_grid[i], epsilon, delta,
                solver_cfg, misvm_max_outer,
                start=None if algo is Algorithm.MISVM else model,
                _working_set=state)
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
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    pos, neg = _shuffled_group_ids(data, seed)
    n_pos = int(round(train_fraction * len(pos)))
    n_neg = int(round(train_fraction * len(neg)))
    train_ids = np.concatenate([pos[:n_pos], neg[:n_neg]])
    test_ids = np.concatenate([pos[n_pos:], neg[n_neg:]])
    if not train_ids.size or not test_ids.size:
        raise ConfigurationError("split produced an empty side")
    return data.subset_groups(train_ids), data.subset_groups(test_ids)
