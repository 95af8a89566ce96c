"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive: plain Python loops over rows and
groups, per-coordinate central finite differences, explicit pair counting.
None of it shares aggregation code with the package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def huber_scalar(t: float, eps: float) -> float:
    if abs(t) <= eps:
        return t * t / (2.0 * eps)
    return abs(t) - eps / 2.0


def smoothed_hinge_scalar(t: float, delta: float) -> float:
    if delta == 0.0:
        return max(0.0, 1.0 - t)
    if t >= 1.0:
        return 0.0
    if t >= 1.0 - 2.0 * delta:
        return (1.0 - t) ** 2 / (4.0 * delta)
    return 1.0 - t - delta


def nested_smoothed_hinge(t, delta: float):
    """``gcm.penalties.smoothed_hinge`` as two nested selects: zero at
    ``t >= 1``, else the quadratic or the linear piece."""
    t = np.asarray(t, dtype=np.float64)
    if delta == 0.0:
        out = np.maximum(0.0, 1.0 - t)
    else:
        out = np.where(
            t >= 1.0,
            0.0,
            np.where(
                t >= 1.0 - 2.0 * delta,
                (1.0 - t) ** 2 / (4.0 * delta),
                1.0 - t - delta,
            ),
        )
    return float(out) if t.ndim == 0 else out


def nested_smoothed_hinge_prime(t, delta: float):
    """``gcm.penalties.smoothed_hinge_prime`` as two nested selects."""
    t = np.asarray(t, dtype=np.float64)
    if delta == 0.0:
        out = np.where(t < 1.0, -1.0, 0.0)
    else:
        out = np.where(
            t >= 1.0,
            0.0,
            np.where(t >= 1.0 - 2.0 * delta, (t - 1.0) / (2.0 * delta), -1.0),
        )
    return float(out) if t.ndim == 0 else out


def naive_per_candidate(w, b, X, labels, lam, eps, delta) -> float:
    d = len(w)
    reg = (1.0 - lam) / d * sum(huber_scalar(float(wj), eps) for wj in w)
    pos = [i for i in range(len(labels)) if labels[i] == 1]
    neg = [i for i in range(len(labels)) if labels[i] == -1]
    pos_loss = sum(
        smoothed_hinge_scalar(labels[i] * (float(np.dot(X[i], w)) + b), delta)
        for i in pos
    )
    neg_loss = sum(
        smoothed_hinge_scalar(labels[i] * (float(np.dot(X[i], w)) + b), delta)
        for i in neg
    )
    total = reg
    if lam > 0:
        total += lam / len(pos) * pos_loss + lam / len(neg) * neg_loss
    return total


def naive_grouped(w, b, X, labels, group_ids, is_key, lam, eps, delta) -> float:
    d = len(w)
    reg = (1.0 - lam) / d * sum(huber_scalar(float(wj), eps) for wj in w)
    groups: dict[int, list[int]] = {}
    for i, gid in enumerate(group_ids):
        groups.setdefault(int(gid), []).append(i)
    pos_losses, neg_losses = [], []
    for gid, rows in groups.items():
        losses = [
            smoothed_hinge_scalar(labels[i] * (float(np.dot(X[i], w)) + b), delta)
            for i in rows
        ]
        if labels[rows[0]] == 1:
            key_rows = [i for i in rows if is_key[i]]
            assert len(key_rows) == 1
            pos_losses.append(
                smoothed_hinge_scalar(float(np.dot(X[key_rows[0]], w)) + b, delta)
            )
        else:
            neg_losses.append(max(losses))
    total = reg
    if lam > 0:
        total += lam / len(pos_losses) * sum(pos_losses)
        total += lam / len(neg_losses) * sum(neg_losses)
    return total


def fd_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    """Central finite differences, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(len(x)):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def pair_count_auc(scores, labels) -> float:
    """Concordant pairs plus half the ties, over all pos/neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == -1]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def roc_points(scores, labels):
    """ROC points and AUC by brute force over the distinct scores.

    One point per distinct non-NaN score, highest first, counting every row
    at or above it; a block of +0.0 and -0.0 takes the sign of its last
    row. Then one point per NaN row in row order. The AUC is the trapezoid
    area over the integer counts, divided once at the end.
    """
    scores = [float(s) for s in scores]
    labels = [int(y) for y in labels]
    n_pos, n_neg = labels.count(1), labels.count(-1)
    counts = [(0, 0)]
    thresholds = [math.inf]
    for t in sorted({s for s in scores if not math.isnan(s)}, reverse=True):
        tp = fp = 0
        for s, y in zip(scores, labels):
            if s >= t:
                tp += y == 1
                fp += y == -1
        counts.append((fp, tp))
        thresholds.append([s for s in scores if s == t][-1])
    for s, y in zip(scores, labels):
        if math.isnan(s):
            fp, tp = counts[-1]
            counts.append((fp + (y == -1), tp + (y == 1)))
            thresholds.append(s)
    points = [(fp / n_neg, tp / n_pos, t)
              for (fp, tp), t in zip(counts, thresholds)]
    area = sum((fp1 - fp0) * (tp1 + tp0)
               for (fp0, tp0), (fp1, tp1) in zip(counts, counts[1:]))
    return points, area / (2 * n_pos * n_neg)


def enumerate_monomials(d: int, degree: int) -> set[tuple[int, ...]]:
    """All exponent vectors with total degree in 1..degree, by raw product."""
    out = set()
    for exps in itertools.product(range(degree + 1), repeat=d):
        if 1 <= sum(exps) <= degree:
            out.add(exps)
    return out
