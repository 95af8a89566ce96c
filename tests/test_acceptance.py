"""Acceptance suite: one test per criterion, run with ``pytest -v -s``.

Each test prints a PASS line when its criterion holds. The comparison
criteria (07, 08) run on a frozen benchmark seed; their margin threshold was
calibrated once from 20 independent repetitions (seeds 2000..2019) whose
group-AUC gap ranged 0.0088..0.0277 with mean 0.0177, so the threshold 0.004
sits below every observed repetition.
"""

import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from gcm import (
    BinaryDatasetReader,
    Dataset,
    GeneratorSpec,
    Hyperparams,
    LinearModel,
    SolverConfig,
    eval_grouped,
    eval_per_candidate,
    evaluate_model,
    generate,
    gradient_per_candidate,
    hard_negatives_spec,
    monomial_names,
    save_binary,
    smoothed_hinge,
    smoothed_hinge_prime,
    subgradient_grouped,
    train_gcm,
    train_mi_svm,
    train_per_candidate,
)
from gcm.baselines import MISVM_INNER_EPSILON
from gcm.cli import main as cli_main
from conftest import build_grouped_dataset
from oracles import fd_gradient

#: Frozen benchmark seed and calibrated group-AUC margin for criterion 7.
BENCHMARK_SEED = 2004
GROUP_AUC_MARGIN = 0.004


def report(number, message):
    print(f"\n[criterion {number:02d}] PASS - {message}")


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_01_margin_cost_ratio_anchor():
    ratio_smoothed = smoothed_hinge(-0.5, 0.5) / smoothed_hinge(0.5, 0.5)
    ratio_hinge = smoothed_hinge(-0.5, 0.0) / smoothed_hinge(0.5, 0.0)
    assert ratio_smoothed == 8.0
    assert ratio_hinge == 3.0
    report(1, "error/in-margin cost ratio is exactly 8 (delta=0.5) and 3 (delta=0)")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_smoothed_hinge_smoothness_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    for delta in (0.1, 0.5, 1.0):
        for edge in (1.0, 1.0 - 2.0 * delta):
            below = math.nextafter(edge, -math.inf)
            above = math.nextafter(edge, math.inf)
            # value and first derivative continuous across both joints; the
            # only slack is one rounding ulp when 1 - 2*delta is inexact
            assert abs(smoothed_hinge(edge, delta)
                       - smoothed_hinge(below, delta)) <= 1e-15
            assert abs(smoothed_hinge_prime(edge, delta)
                       - smoothed_hinge_prime(below, delta)) <= 1e-15
            assert abs(smoothed_hinge_prime(above, delta)
                       - smoothed_hinge_prime(edge, delta)) <= 1e-15

        t1 = rng.uniform(-10, 10, size=10_000)
        t2 = rng.uniform(-10, 10, size=10_000)
        alpha = rng.uniform(0, 1, size=10_000)
        mid = alpha * t1 + (1 - alpha) * t2
        chord = alpha * smoothed_hinge(t1, delta) + \
            (1 - alpha) * smoothed_hinge(t2, delta)
        assert np.all(smoothed_hinge(mid, delta) <= chord + 1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, f"derivative continuity at both joints and 10^4 chord tests "
              f"per delta in {{0.1, 0.5, 1.0}} ({elapsed:.2f}s)")


# -- criterion 3 ---------------------------------------------------------------


def _fd_instance(seed, delta):
    """A (dataset, point) pair with margins and group maxima away from kinks."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        ds = build_grouped_dataset(rng, 5, 5, 5, 5, 8)  # 10 groups x 5 = 50 rows
        point = np.concatenate([rng.normal(size=8) * 0.5,
                                [float(rng.normal()) * 0.3]])
        model = LinearModel(point[:-1], float(point[-1]))
        margins = ds.labels * model.raw_scores(ds.X)
        lo = 1.0 - 2.0 * delta
        if np.any(np.abs(margins - 1.0) < 1e-3) or np.any(np.abs(margins - lo) < 1e-3):
            continue
        losses = smoothed_hinge(margins, delta)
        tied = False
        for k in range(ds.n_groups):
            a, b = ds.group_starts[k], ds.group_starts[k + 1]
            if ds.group_labels[k] == -1:
                top = np.sort(losses[a:b])[-2:]
                if top[1] - top[0] < 1e-4:
                    tied = True
                    break
        if not tied:
            return ds, point
    raise AssertionError(f"no valid instance for seed {seed}")


def test_criterion_03_gradients_match_finite_differences():
    started = time.perf_counter()
    hp = Hyperparams(lam=0.5, epsilon=1.0, delta=0.5)
    worst = 0.0
    for case in range(100):
        ds, point = _fd_instance(7000 + case, hp.delta)
        model = LinearModel(point[:-1], float(point[-1]))

        g = gradient_per_candidate(model, ds, hp)
        analytic = np.concatenate([g.grad_w, [g.grad_b]])
        fd = fd_gradient(
            lambda p: eval_per_candidate(
                LinearModel(p[:-1], float(p[-1])), ds, hp).total, point)
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
        worst = max(worst, rel)
        assert rel <= 1e-5

        g = subgradient_grouped(model, ds, hp)
        analytic = np.concatenate([g.grad_w, [g.grad_b]])
        fd = fd_gradient(
            lambda p: eval_grouped(
                LinearModel(p[:-1], float(p[-1])), ds, hp).total, point)
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
        worst = max(worst, rel)
        assert rel <= 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, f"100 instances, both objectives, worst relative error "
              f"{worst:.2e} ({elapsed:.1f}s)")


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_04_global_optimum_from_random_starts():
    started = time.perf_counter()
    rng = np.random.default_rng(44)
    ds = build_grouped_dataset(rng, 20, 20, 4, 6, 5)
    hp = Hyperparams(lam=0.5, epsilon=1.0, delta=0.5)
    cfg = SolverConfig(rel_obj_tolerance=0.0, max_iterations=3000)

    def objective(p):
        return eval_per_candidate(LinearModel(p[:-1], float(p[-1])), ds, hp).total

    def gradient(p):
        g = gradient_per_candidate(LinearModel(p[:-1], float(p[-1])), ds, hp)
        return np.concatenate([g.grad_w, [g.grad_b]])

    from gcm import minimize
    finals = []
    for _ in range(5):
        start = rng.normal(size=6) * 3.0
        point, _ = minimize(
            lambda p: (objective(p), lambda: gradient(p)), start, cfg)
        finals.append(objective(point))
    spread = (max(finals) - min(finals)) / abs(min(finals))
    assert spread <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, f"5 random starts agree to {spread:.2e} relative ({elapsed:.1f}s)")


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_05_group_max_not_mean():
    # negative group whose three candidates have hinge losses 0, 0.4 and 4.1
    X = np.array([[-1.7], [-0.6], [3.1], [2.0]])
    ds = Dataset(X, [-1, -1, -1, 1], [0, 0, 0, 1], [False, False, False, True])
    hp = Hyperparams(lam=1.0, delta=0.0)
    val = eval_grouped(LinearModel(np.array([1.0]), 0.0), ds, hp)
    assert val.negative_loss_term == pytest.approx(4.1, abs=1e-12)
    mean_loss = float(np.mean(smoothed_hinge(np.array([1.7, 0.6, -3.1]), 0.0)))
    assert mean_loss == pytest.approx(1.5, abs=1e-12)
    report(5, "group contributes its max loss 4.1, not the mean 1.5")


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_06_polynomial_expansion_anchor():
    names = monomial_names(2, 3)
    assert len(names) == 9
    assert set(names) == {"x1", "x2", "x1^2", "x2^2", "x1^3", "x2^3",
                          "x1*x2", "x1*x2^2", "x1^2*x2"}
    report(6, "two features at degree 3 expand to exactly the 9 monomials")


# -- criteria 7 and 8 share one benchmark run ----------------------------------


@pytest.fixture(scope="module")
def benchmark_runs():
    solver = SolverConfig(max_iterations=400)
    hp = Hyperparams(lam=0.5, epsilon=1.0, delta=0.5)
    train = generate(hard_negatives_spec(seed=BENCHMARK_SEED))
    test = generate(hard_negatives_spec(seed=BENCHMARK_SEED + 50000,
                                        n_pos_groups=200, n_neg_groups=2000))
    started = time.perf_counter()
    grouped_model, _ = train_gcm(train, hp, solver)
    flat_model, _ = train_per_candidate(train, hp, solver)
    mi_model, _, outer, _ = train_mi_svm(
        train, Hyperparams(0.5, MISVM_INNER_EPSILON, 0.0), solver)
    elapsed = time.perf_counter() - started
    return {
        "train": train,
        "grouped": evaluate_model(grouped_model, test),
        "flat": evaluate_model(flat_model, test),
        "misvm": evaluate_model(mi_model, test),
        "misvm_outer": outer,
        "train_seconds": elapsed,
    }


def test_criterion_07_grouping_beats_per_candidate_at_group_level(benchmark_runs):
    train = benchmark_runs["train"]
    assert train.n_pos_groups == 100 and train.n_neg_groups == 5000
    sizes = np.diff(train.group_starts)
    assert 150 <= sizes.min() and sizes.max() <= 250
    grouped, flat = benchmark_runs["grouped"], benchmark_runs["flat"]
    group_gap = grouped.group_auc - flat.group_auc
    cand_gap = flat.candidate_auc - grouped.candidate_auc
    assert group_gap >= GROUP_AUC_MARGIN
    assert cand_gap > 0.0
    assert benchmark_runs["train_seconds"] < 300.0
    report(7, f"group-AUC gap {group_gap:+.4f} >= {GROUP_AUC_MARGIN} and "
              f"candidate-AUC gap {cand_gap:+.4f} > 0 "
              f"(training {benchmark_runs['train_seconds']:.0f}s)")


def test_criterion_08_gcm_at_least_misvm_with_minority_keys(benchmark_runs):
    train = benchmark_runs["train"]
    key_fraction = train.is_key.sum() / train.n_pos_rows
    assert key_fraction < 0.01
    grouped, misvm = benchmark_runs["grouped"], benchmark_runs["misvm"]
    assert grouped.group_auc >= misvm.group_auc
    assert benchmark_runs["misvm_outer"] < 50
    report(8, f"group AUC {grouped.group_auc:.4f} (grouped) >= "
              f"{misvm.group_auc:.4f} (mi-svm); selector fixed point after "
              f"{benchmark_runs['misvm_outer']} outer iterations")


# -- criterion 9 ---------------------------------------------------------------


def _write_scale_dataset(tmp_path, n_neg_groups, seed):
    spec = GeneratorSpec(seed=seed, n_pos_groups=100,
                         n_neg_groups=n_neg_groups, group_size_min=150,
                         group_size_max=250, d=13, key_shift=6.0,
                         outlier_rate=0.02, outlier_shift=4.0)
    data = generate(spec)
    path = tmp_path / f"scale_{n_neg_groups}.bin"
    save_binary(data, path)
    return data, path


def test_criterion_09_streaming_scale(tmp_path):
    model = LinearModel(np.linspace(-0.5, 0.5, 13), 0.1)
    hp = Hyperparams(lam=0.5)
    ceiling_bytes = 64 * 1024 * 1024

    data, path = _write_scale_dataset(tmp_path, 4900, seed=99)
    assert data.n_rows >= 1_000_000
    in_memory = eval_grouped(model, data, hp)
    del data

    peaks = {}
    for rows_label, p in (("full", path), ):
        tracemalloc.start()
        started = time.perf_counter()
        streamed = eval_grouped(model, BinaryDatasetReader(p), hp)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[rows_label] = peak
        assert elapsed < 60.0
        assert peak < ceiling_bytes
        assert peak < os.path.getsize(p) / 2
    assert streamed.total == in_memory.total

    # the ceiling does not move when the row count halves
    half_data, half_path = _write_scale_dataset(tmp_path, 2400, seed=98)
    del half_data
    tracemalloc.start()
    eval_grouped(model, BinaryDatasetReader(half_path), hp)
    _, half_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert half_peak < ceiling_bytes

    report(9, f"1e6-row stream in {elapsed:.2f}s, peak "
              f"{peaks['full'] / 1e6:.0f} MB (file "
              f"{os.path.getsize(path) / 1e6:.0f} MB), bit-identical to "
              f"in-memory; ceiling flat at half the rows")


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_command_level_determinism(tmp_path, monkeypatch):
    outputs = []
    for tag in ("first", "second"):
        workdir = tmp_path / tag
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli_main(["synth", "--out", "data.bin", "--seed", "13",
                         "--pos-groups", "6", "--neg-groups", "18",
                         "--group-size-min", "4", "--group-size-max", "8",
                         "--d", "4", "--key-shift", "6"]) == 0
        assert cli_main(["train", "--data", "data.bin", "--model-out",
                         "model.json", "--algo", "gcm", "--lambda", "0.5"]) == 0
        assert cli_main(["evaluate", "--model", "model.json", "--data",
                         "data.bin", "--report-out", "report.csv"]) == 0
        assert cli_main(["cv", "--data", "data.bin", "--algo", "svm",
                         "--folds", "2", "--lambda-grid", "0.3,0.7",
                         "--seed", "3", "--report-out", "cv.csv"]) == 0
        assert cli_main(["compare", "--data", "data.bin", "--lambda", "0.5",
                         "--seed", "3", "--report-out", "compare.csv"]) == 0
        outputs.append({
            name: (workdir / name).read_bytes()
            for name in ("data.bin", "model.json", "report.csv",
                         "report.csv.groups.csv", "cv.csv", "compare.csv")
        })
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
    report(10, "synth/train/evaluate/cv/compare re-runs are bit-identical")
