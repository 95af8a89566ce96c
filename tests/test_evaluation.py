import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gcm.evaluation
from gcm import (
    Algorithm,
    ConfigurationError,
    CvPlan,
    Dataset,
    DomainError,
    Hyperparams,
    LinearModel,
    SolverConfig,
    cross_validate,
    evaluate_model,
    fit_algorithm,
    generate,
    GeneratorSpec,
    make_group_folds,
    roc_auc,
    score_groups,
    split_groups,
    train_per_candidate,
    write_report_csv,
)
from conftest import build_grouped_dataset
from oracles import pair_count_auc, roc_points


@st.composite
def tied_scores_and_labels(draw):
    """Scores from a small pool (heavy ties, +-0.0, NaN) plus finite draws,
    with at most one +inf and one -inf; both labels present."""
    n = draw(st.integers(2, 24))
    pool = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, math.nan])
    scores = draw(st.lists(st.one_of(pool, st.floats(-3.0, 3.0)),
                           min_size=n, max_size=n))
    for inf in (math.inf, -math.inf):
        if draw(st.booleans()):
            scores[draw(st.integers(0, n - 1))] = inf
    labels = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    assume(1 in labels and -1 in labels)
    return scores, labels


def score_fixture():
    # four candidates in one group with raw scores -1.0, 0.3, 2.2, -0.7
    X = np.array([[-1.0], [0.3], [2.2], [-0.7]])
    return Dataset(X, [-1] * 4, [0] * 4, [False] * 4), LinearModel(
        np.array([1.0]), 0.0)


class TestScoreGroups:
    def test_group_score_is_max(self):
        ds, model = score_fixture()
        ids, labels, group_scores, rows = score_groups(
            model.raw_scores(ds.X), ds)
        assert ids.tolist() == [0] and labels.tolist() == [-1]
        assert group_scores.tolist() == [2.2]
        assert rows.tolist() == [2]

    def test_singleton_group(self, rng):
        ds = Dataset(rng.normal(size=(1, 2)), [-1], [0], [False])
        model = LinearModel(rng.normal(size=2), 0.5)
        group_scores = score_groups(model.raw_scores(ds.X), ds)[2]
        assert group_scores[0] == pytest.approx(
            float(model.raw_scores(ds.X)[0]), rel=1e-15)

    def test_matches_naive_max(self, rng):
        ds = build_grouped_dataset(rng, 4, 5, 2, 6, 3)
        model = LinearModel(rng.normal(size=3), 0.1)
        scores = model.raw_scores(ds.X)
        starts = ds.group_starts
        ids, labels, group_scores, rows = score_groups(scores, ds)
        for k in range(ds.n_groups):
            assert ids[k] == ds.group_ids[starts[k]]
            assert labels[k] == ds.labels[starts[k]]
            assert group_scores[k] == np.max(scores[starts[k]:starts[k + 1]])
            assert scores[rows[k]] == group_scores[k]

    def test_tie_takes_lowest_row(self):
        X = np.array([[1.0], [1.0]])
        ds = Dataset(X, [-1, -1], [0, 0], [False, False])
        scores = LinearModel(np.array([1.0]), 0.0).raw_scores(ds.X)
        assert score_groups(scores, ds)[3].tolist() == [0]

    def test_removing_non_argmax_candidate_keeps_score(self, rng):
        ds = build_grouped_dataset(rng, 2, 3, 3, 5, 2)
        model = LinearModel(rng.normal(size=2), 0.0)
        ids, _, group_scores, rows = score_groups(model.raw_scores(ds.X), ds)
        before = dict(zip(ids.tolist(), group_scores.tolist()))
        argmax = dict(zip(ids.tolist(), rows.tolist()))
        keep = np.ones(ds.n_rows, dtype=bool)
        victim = None
        starts = ds.group_starts
        for lo, hi in zip(starts[:-1], starts[1:]):
            gid = int(ds.group_ids[lo])
            others = [r for r in range(lo, hi)
                      if r != argmax[gid] and not ds.is_key[r]]
            if others:
                victim = (gid, others[0])
                break
        assert victim is not None
        keep[victim[1]] = False
        smaller = Dataset(ds.X[keep], ds.labels[keep], ds.group_ids[keep],
                          ds.is_key[keep])
        ids, _, group_scores, _ = score_groups(model.raw_scores(smaller.X),
                                               smaller)
        after = dict(zip(ids.tolist(), group_scores.tolist()))
        assert after[victim[0]] == before[victim[0]]


class TestRocAuc:
    def test_perfect_separation(self):
        _, auc = roc_auc([3.0, 2.0, -1.0, -2.0], [1, 1, -1, -1])
        assert auc == 1.0

    def test_all_scores_equal(self):
        points, auc = roc_auc([1.0, 1.0, 1.0, 1.0], [1, -1, 1, -1])
        assert auc == 0.5
        assert points.shape[0] == 2

    def test_matches_pair_count_oracle_distinct(self):
        rng = np.random.default_rng(3)
        scores = rng.permutation(np.linspace(-1, 1, 10))
        labels = rng.choice([1, -1], size=10)
        while len(set(labels.tolist())) < 2:
            labels = rng.choice([1, -1], size=10)
        _, auc = roc_auc(scores, labels)
        assert auc == pytest.approx(pair_count_auc(scores, labels), abs=1e-12)

    def test_matches_pair_count_oracle_with_ties(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            scores = r.integers(-2, 3, size=30).astype(float)
            labels = r.choice([1, -1], size=30)
            if len(set(labels.tolist())) < 2:
                continue
            _, auc = roc_auc(scores, labels)
            assert auc == pytest.approx(pair_count_auc(scores, labels),
                                        abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ConfigurationError):
            roc_auc([1.0, 2.0], [1, 1])

    @pytest.mark.parametrize("bad", [0, 2])
    def test_label_other_than_plus_minus_one_rejected(self, bad):
        with pytest.raises(DomainError, match=f"got {bad} at index 2"):
            roc_auc([1.0, 2.0, 3.0], [1, -1, bad])

    @pytest.mark.parametrize("n_scores, n_labels", [(2, 3), (3, 2)])
    def test_length_mismatch_rejected(self, n_scores, n_labels):
        with pytest.raises(DomainError,
                           match=fr"\({n_scores},\) and \({n_labels},\)"):
            roc_auc([1.0, 2.0, 3.0][:n_scores], [1, -1, -1][:n_labels])

    def test_dataset_labels_accepted(self, rng):
        ds = build_grouped_dataset(rng, 3, 4, 2, 3, 2)
        scores = rng.normal(size=ds.n_rows)
        for s, labels in ((scores, ds.labels),
                          (scores[ds.group_starts[:-1]], ds.group_labels)):
            _, auc = roc_auc(s, labels)
            assert auc == pytest.approx(pair_count_auc(s, labels), abs=1e-12)

    def test_curve_shape(self, rng):
        scores = rng.normal(size=50)
        labels = rng.choice([1, -1], size=50)
        points, _ = roc_auc(scores, labels)
        assert tuple(points[0]) == (0.0, 0.0, np.inf)
        assert points[-1][0] == 1.0 and points[-1][1] == 1.0
        assert np.all(np.diff(points[:, 0]) >= 0)
        assert np.all(np.diff(points[:, 1]) >= 0)
        assert np.all(np.diff(points[:, 2]) < 0)

    @settings(max_examples=300, deadline=None)
    @given(tied_scores_and_labels())
    def test_matches_roc_points_oracle(self, case):
        scores, labels = case
        points, auc = roc_auc(scores, labels)
        want_points, want_auc = roc_points(scores, labels)
        assert points.tobytes() == np.array(want_points).tobytes()
        assert repr(auc) == repr(want_auc)

    @pytest.mark.parametrize("labels", [[1, -1, -1], [-1, 1, -1]])
    def test_tied_infinities_cross_together(self, labels):
        points, auc = roc_auc([np.inf, np.inf, 0.0], labels)
        assert auc == pair_count_auc([np.inf, np.inf, 0.0], labels) == 0.75
        assert points[:, 2].tolist() == [np.inf, np.inf, 0.0]

    def test_tied_infinities_match_pair_count_oracle(self):
        for seed in range(20):
            r = np.random.default_rng(seed)
            scores = r.choice([-np.inf, -1.0, 0.0, 1.0, np.inf], size=25)
            labels = r.choice([1, -1], size=25)
            if len(set(labels.tolist())) < 2:
                continue
            _, auc = roc_auc(scores, labels)
            assert auc == pair_count_auc(scores, labels)

    def test_signed_zero_block_takes_last_rows_sign(self):
        for scores, sign in (([0.0, -0.0, 1.0], -1.0), ([-0.0, 0.0, 1.0], 1.0)):
            points, _ = roc_auc(scores, [1, -1, -1])
            assert math.copysign(1.0, points[-1, 2]) == sign

    def test_nan_rows_come_last_in_row_order(self):
        points, auc = roc_auc([np.nan, 1.0, np.nan, -1.0], [-1, -1, 1, 1])
        assert points[:, :2].tolist() == [
            [0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [1.0, 0.5], [1.0, 1.0]]
        assert np.isnan(points[3:, 2]).all()
        assert auc == 0.25

    def test_group_auc_invariant_under_monotone_transform(self, rng):
        ds = build_grouped_dataset(rng, 5, 6, 2, 5, 3)
        model = LinearModel(rng.normal(size=3), 0.2)
        _, labels, raw, _ = score_groups(model.raw_scores(ds.X), ds)
        _, auc1 = roc_auc(raw, labels)
        _, auc2 = roc_auc(np.exp(raw / 2) + 3, labels)
        assert auc1 == pytest.approx(auc2, abs=1e-12)


class TestEvaluateModel:
    def test_scores_the_rows_once(self, rng, monkeypatch):
        ds = build_grouped_dataset(rng, 4, 5, 2, 6, 3)
        model = LinearModel(rng.normal(size=3), 0.1)
        calls = []
        raw_scores = LinearModel.raw_scores
        monkeypatch.setattr(LinearModel, "raw_scores",
                            lambda self, X: calls.append(X) or raw_scores(self, X))
        evaluate_model(model, ds)
        assert len(calls) == 1

    def test_group_curve_is_over_score_groups(self, rng):
        ds = build_grouped_dataset(rng, 5, 7, 1, 6, 3)
        model = LinearModel(rng.normal(size=3), -0.2)
        report = evaluate_model(model, ds)
        assert report.scores.tobytes() == model.raw_scores(ds.X).tobytes()
        _, labels, group_scores, _ = score_groups(report.scores, ds)
        points, auc = roc_auc(group_scores, labels)
        assert report.group_roc.tobytes() == points.tobytes()
        assert repr(report.group_auc) == repr(auc)


class TestFolds:
    def test_partition_and_stratification(self, rng):
        ds = build_grouped_dataset(rng, 11, 17, 1, 3, 2)
        plan = CvPlan(folds=4, seed=5)
        folds = make_group_folds(ds, plan)
        all_ids = np.concatenate(folds)
        assert sorted(all_ids.tolist()) == sorted(
            set(ds.group_ids.tolist()))
        gid_to_label = dict(zip(ds.group_ids[ds.group_starts[:-1]].tolist(),
                                ds.group_labels.tolist()))
        pos_counts = [sum(1 for g in f if gid_to_label[int(g)] == 1)
                      for f in folds]
        neg_counts = [sum(1 for g in f if gid_to_label[int(g)] == -1)
                      for f in folds]
        assert max(pos_counts) - min(pos_counts) <= 1
        assert max(neg_counts) - min(neg_counts) <= 1

    def test_groups_never_split(self, rng):
        ds = build_grouped_dataset(rng, 4, 6, 2, 4, 2)
        folds = make_group_folds(ds, CvPlan(folds=3, seed=0))
        seen = {}
        for k, fold in enumerate(folds):
            for gid in fold:
                assert gid not in seen
                seen[gid] = k

    def test_too_many_folds_rejected(self, rng):
        ds = build_grouped_dataset(rng, 2, 2, 1, 2, 2)
        with pytest.raises(ConfigurationError):
            make_group_folds(ds, CvPlan(folds=5, seed=0))

    def test_pinned_folds_and_splits(self):
        # shuffles are PCG64 permutations, so the ids are the same on every
        # CPU; positive groups carry the highest ids, so polarity is by label
        base = build_grouped_dataset(np.random.default_rng(6), 6, 10, 2, 6, 3)
        ds = Dataset(base.X, base.labels, 3 * (base.n_groups - base.group_ids),
                     base.is_key)
        folds = {seed: [f.tolist() for f in
                        make_group_folds(ds, CvPlan(folds=4, seed=seed))]
                 for seed in range(3)}
        assert folds == {
            0: [[12, 15, 27, 33, 42], [9, 21, 24, 36, 39], [3, 6, 48],
                [18, 30, 45]],
            1: [[3, 6, 12, 45, 48], [15, 21, 30, 33, 42], [18, 24, 39],
                [9, 27, 36]],
            2: [[9, 15, 30, 33, 42], [18, 24, 27, 36, 48], [3, 12, 39],
                [6, 21, 45]],
        }
        splits = {seed: [np.unique(side.group_ids).tolist()
                         for side in split_groups(ds, 0.6, seed)]
                  for seed in range(2)}
        assert splits == {
            0: [[3, 9, 12, 15, 18, 24, 39, 42, 45, 48], [6, 21, 27, 30, 33, 36]],
            1: [[6, 9, 12, 15, 21, 24, 33, 36, 39, 45], [3, 18, 27, 30, 42, 48]],
        }

    def test_plan_validation(self):
        with pytest.raises(DomainError):
            CvPlan(folds=1)
        with pytest.raises(DomainError):
            CvPlan(lambda_grid=())
        with pytest.raises(DomainError):
            CvPlan(lambda_grid=(0.5, 1.0))


class TestCrossValidate:
    def test_degenerate_grid_returns_it(self, rng):
        ds = build_grouped_dataset(rng, 6, 8, 1, 3, 2)
        plan = CvPlan(folds=2, lambda_grid=(0.3,), seed=1)
        best, results = cross_validate(ds, Algorithm.GCM, plan)
        assert best == 0.3
        assert len(results) == 1 and results[0].folds_used == 2

    def test_deterministic_given_seed(self, rng):
        ds = build_grouped_dataset(rng, 6, 8, 1, 3, 2)
        plan = CvPlan(folds=2, lambda_grid=(0.2, 0.8), seed=9)
        a = cross_validate(ds, Algorithm.SVM, plan)
        b = cross_validate(ds, Algorithm.SVM, plan)
        assert a[0] == b[0]
        assert [(r.mean_group_auc, r.mean_candidate_auc) for r in a[1]] == \
            [(r.mean_group_auc, r.mean_candidate_auc) for r in b[1]]

    def test_label_noise_selects_interior_lambda(self):
        # weak 1-feature signal plus noise dims: with lam near 1 the model
        # overfits the noise dimensions on the small training folds
        rng = np.random.default_rng(12)
        n = 60
        X = np.column_stack([
            rng.normal(size=n) + 0.8 * np.repeat([1.0, -1.0], n // 2),
            rng.normal(size=(n, 5)) * 2.0,
        ])
        labels = np.repeat([1, -1], n // 2)
        flip = rng.random(n) < 0.25
        labels = np.where(flip, -labels, labels)
        if not (np.any(labels == 1) and np.any(labels == -1)):
            pytest.skip("degenerate flip")
        ds = Dataset(X, labels, np.arange(n), labels == 1)
        plan = CvPlan(folds=3, lambda_grid=(0.1, 0.3, 0.5, 0.7, 0.9, 0.99),
                      seed=4)
        best, _ = cross_validate(ds, Algorithm.GCM_NOGROUP, plan)
        assert best < 0.99

    def test_single_class_fold_is_skipped(self):
        # 4 positive groups dealt into 5 folds: fold 4 validates no positive;
        # the other folds' AUCs differ by lambda and by training set; with
        # 0.6 first, reversing or rotating the grid moves its group AUCs
        ds = generate(GeneratorSpec(seed=1, n_pos_groups=4, n_neg_groups=12,
                                    group_size_min=3, group_size_max=6, d=3,
                                    key_shift=1.5))
        plan = CvPlan(folds=5, lambda_grid=(0.6, 0.3, 0.9), seed=2)
        with pytest.warns(UserWarning, match="fold 4 has a single class"):
            best, results = cross_validate(ds, Algorithm.GCM, plan)
        # reference: every lambda over every usable fold, lambda outermost
        folds = make_group_folds(ds, plan)
        all_ids = np.concatenate(folds)
        splits = [(ds.subset_groups(np.setdiff1d(all_ids, f)),
                   ds.subset_groups(f)) for f in folds[:4]]
        expected = []
        for lam in plan.lambda_grid:
            reports = [evaluate_model(fit_algorithm(Algorithm.GCM, tr, lam)[0],
                                      va) for tr, va in splits]
            expected.append(gcm.evaluation.LambdaCvResult(
                lam, float(np.mean([r.group_auc for r in reports])),
                float(np.mean([r.candidate_auc for r in reports])), 4))
        assert repr(results) == repr(expected)
        assert best == max(expected, key=lambda r: r.mean_group_auc).lam

    def test_every_fold_skipped_fits_nothing(self, monkeypatch):
        # one positive group: each fold lacks positives on one side
        ds = build_grouped_dataset(np.random.default_rng(4), 1, 6, 1, 3, 2)
        fits = []
        monkeypatch.setattr(gcm.evaluation, "fit_algorithm",
                            lambda *a, **k: fits.append(a))
        with pytest.warns(UserWarning, match="single class"), \
                pytest.raises(ConfigurationError, match="every"):
            cross_validate(ds, Algorithm.GCM, CvPlan(folds=2, seed=0))
        assert fits == []


class TestFitAlgorithm:
    def test_svm_uses_exact_hinge(self, rng):
        ds = build_grouped_dataset(rng, 5, 5, 1, 3, 2)
        model, _ = fit_algorithm(Algorithm.SVM, ds, lam=0.5, delta=0.5)
        reference, _ = train_per_candidate(ds, Hyperparams(0.5, 1.0, 0.0))
        assert np.array_equal(model.w, reference.w) and model.b == reference.b

    def test_misvm_details(self, rng):
        ds = build_grouped_dataset(rng, 4, 5, 2, 4, 2)
        model, info = fit_algorithm(Algorithm.MISVM, ds, lam=0.5,
                                    solver_cfg=SolverConfig(max_iterations=200))
        assert "outer_iterations" in info
        assert len(info["selector"]) == 4


class TestSplitGroups:
    def test_disjoint_and_stratified(self, rng):
        ds = build_grouped_dataset(rng, 10, 14, 1, 3, 2)
        train, test = split_groups(ds, 0.5, seed=3)
        train_ids = set(train.group_ids.tolist())
        test_ids = set(test.group_ids.tolist())
        assert not train_ids & test_ids
        assert train.n_pos_groups == 5 and test.n_pos_groups == 5
        assert train.n_neg_groups == 7 and test.n_neg_groups == 7

    def test_bad_fraction(self, rng):
        ds = build_grouped_dataset(rng, 3, 3, 1, 2, 2)
        with pytest.raises(DomainError) as err:
            split_groups(ds, 1.0, seed=0)
        assert err.type is DomainError


class TestReportCsv:
    def test_deterministic_bytes_and_summary(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 4, 5, 2, 4, 3)
        model = LinearModel(rng.normal(size=3), 0.0)
        report = evaluate_model(model, ds)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(report, p1)
        write_report_csv(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.startswith("level,fpr,tpr,threshold\n")
        assert "# auc candidate=" in text.splitlines()[-1]

    def test_matches_row_by_row_format(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 4, 6, 2, 5, 3)
        report = evaluate_model(LinearModel(rng.normal(size=3), 0.3), ds)
        lines = ["level,fpr,tpr,threshold"]
        for level, roc in (("candidate", report.candidate_roc),
                           ("group", report.group_roc)):
            lines += [f"{level},{float(a)!r},{float(b)!r},{float(c)!r}"
                      for a, b, c in roc]
        lines.append(f"# auc candidate={report.candidate_auc!r} "
                     f"group={report.group_auc!r}")
        path = tmp_path / "r.csv"
        write_report_csv(report, path)
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_bytes_do_not_depend_on_chunk_size(self, tmp_path, rng,
                                                monkeypatch):
        ds = build_grouped_dataset(rng, 4, 6, 2, 5, 3)
        report = evaluate_model(LinearModel(rng.normal(size=3), 0.3), ds)
        whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
        write_report_csv(report, whole)
        monkeypatch.setattr(gcm.evaluation, "_REPORT_CHUNK_ROWS", 3)
        write_report_csv(report, chunked)
        assert chunked.read_bytes() == whole.read_bytes()
