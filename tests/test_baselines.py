import numpy as np
import pytest

from gcm import (
    ConfigurationError,
    Dataset,
    DomainError,
    GeneratorSpec,
    Hyperparams,
    LinearModel,
    SolverConfig,
    eval_grouped,
    eval_per_candidate,
    evaluate_model,
    generate,
    train_gcm,
    train_mi_svm,
    train_per_candidate,
)
from gcm.baselines import MISVM_INNER_EPSILON
from gcm.evaluation import Algorithm, fit_algorithm
from conftest import build_grouped_dataset


def blobs(rng, n_per_class=20, gap=4.0):
    pos = rng.normal(size=(n_per_class, 2)) + [gap / 2, 0.0]
    neg = rng.normal(size=(n_per_class, 2)) + [-gap / 2, 0.0]
    X = np.vstack([pos, neg])
    labels = [1] * n_per_class + [-1] * n_per_class
    gids = list(range(2 * n_per_class))
    keys = [True] * n_per_class + [False] * n_per_class
    return Dataset(X, labels, gids, keys)


class TestSvmBaseline:
    def test_separable_blobs_reach_full_training_accuracy(self):
        rng = np.random.default_rng(11)
        ds = blobs(rng, n_per_class=20, gap=6.0)
        model, _ = train_per_candidate(ds, Hyperparams(lam=0.5, delta=0.0))
        pred = np.sign(model.raw_scores(ds.X))
        assert np.all(pred == ds.labels)

    def test_symmetric_pair_gives_zero_bias(self):
        ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), [1, -1], [0, 1],
                     [True, False])
        model, _ = train_per_candidate(ds, Hyperparams(lam=0.5, epsilon=1.0,
                                                      delta=0.0))
        assert model.w[0] > 0
        assert abs(model.b) <= 1e-6

    def test_beats_random_probes(self):
        rng = np.random.default_rng(5)
        ds = build_grouped_dataset(rng, 8, 8, 2, 4, 3)
        hp = Hyperparams(lam=0.5)
        model, _ = train_per_candidate(ds, hp)
        best = eval_per_candidate(model, ds, hp).total
        for _ in range(1000):
            probe = LinearModel(rng.normal(size=3), float(rng.normal()))
            assert best <= eval_per_candidate(probe, ds, hp).total + 1e-12

    def test_single_class_rejected(self):
        ds = Dataset(np.zeros((2, 1)), [1, 1], [0, 1], [True, True])
        with pytest.raises(ConfigurationError):
            train_per_candidate(ds, Hyperparams(lam=0.5))


class TestMiSvmConfig:
    def test_fit_algorithm_trains_at_lambda_itself(self, rng):
        # 0.6 / 0.4 = 1.4999999999999998, and C / (1 + C) of that is
        # 0.5999999999999999: a trip through C must not move lambda
        ds = build_grouped_dataset(rng, 4, 6, 2, 4, 2)
        model, info = fit_algorithm(Algorithm.MISVM, ds, lam=0.6)
        reference, selected, outer, _ = train_mi_svm(
            ds, Hyperparams(0.6, MISVM_INNER_EPSILON, 0.0))
        assert model.w.tobytes() == reference.w.tobytes()
        assert model.b == reference.b
        assert list(info["selector"].values()) == selected.tolist()
        assert info["outer_iterations"] == outer

    def test_validation(self, rng):
        ds = build_grouped_dataset(rng, 2, 2, 1, 3, 2)
        with pytest.raises(DomainError):
            train_mi_svm(ds, Hyperparams(lam=0.5), max_outer=0)
        with pytest.raises(DomainError):
            train_mi_svm(ds, Hyperparams(lam=0.5, delta=-1.0))

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_lambda_at_a_bound_is_refused(self, lam):
        # at 0 the alternation would return the zero model as converged
        ds = generate(GeneratorSpec(seed=5, n_pos_groups=8, n_neg_groups=24,
                                    group_size_min=5, group_size_max=9))
        with pytest.raises(DomainError, match=r"MI-SVM needs lam in \(0, 1\)"):
            train_mi_svm(ds, Hyperparams(lam, MISVM_INNER_EPSILON, 0.0))


class TestMiSvm:
    def test_singleton_positive_groups_match_svm_baseline(self):
        rng = np.random.default_rng(21)
        ds = blobs(rng, n_per_class=15, gap=3.0)
        hp = Hyperparams(lam=0.5, epsilon=MISVM_INNER_EPSILON, delta=0.5)
        model, _, outer, _ = train_mi_svm(ds, hp)
        assert outer <= 2
        baseline, _ = train_per_candidate(ds, hp)
        obj_mi = eval_per_candidate(model, ds, hp).total
        obj_base = eval_per_candidate(baseline, ds, hp).total
        assert obj_mi == pytest.approx(obj_base, rel=1e-6)

    def test_singleton_positive_groups_exact_hinge_close(self):
        # with the non-smooth exact hinge both solvers stall near the shared
        # optimum rather than hitting gradient tolerance
        rng = np.random.default_rng(21)
        ds = blobs(rng, n_per_class=15, gap=3.0)
        hp = Hyperparams(lam=0.5, epsilon=MISVM_INNER_EPSILON, delta=0.0)
        model, _, outer, _ = train_mi_svm(ds, hp)
        assert outer <= 2
        baseline, _ = train_per_candidate(ds, hp)
        obj_mi = eval_per_candidate(model, ds, hp).total
        obj_base = eval_per_candidate(baseline, ds, hp).total
        assert obj_mi == pytest.approx(obj_base, rel=1e-3)

    def test_selector_reaches_fixed_point(self, rng):
        ds = build_grouped_dataset(rng, 10, 12, 3, 6, 4)
        model, selected, outer, _ = train_mi_svm(
            ds, Hyperparams(0.5, MISVM_INNER_EPSILON, 0.0), max_outer=50)
        assert outer <= 50
        assert len(selected) == 10

    def test_selector_rows_have_maximal_score(self, rng):
        ds = build_grouped_dataset(rng, 6, 6, 2, 5, 3)
        model, selected, _, _ = train_mi_svm(
            ds, Hyperparams(2.0 / 3.0, MISVM_INNER_EPSILON, 0.0))
        scores = model.raw_scores(ds.X)
        starts = ds.group_starts
        for k, row in zip(np.flatnonzero(ds.group_labels == 1), selected):
            assert starts[k] <= row < starts[k + 1]
            assert scores[row] == np.max(scores[starts[k]:starts[k + 1]])

    def test_key_forced_inner_matches_grouped_positive_term(self, rng):
        # singleton negative groups: the grouped objective equals the
        # per-candidate objective on (key rows + negatives)
        ds = build_grouped_dataset(rng, 4, 6, 1, 1, 3)
        full = build_grouped_dataset(rng, 4, 6, 3, 5, 3)
        for data in (ds, full):
            keep = data.is_key | (data.labels == -1)
            # make every negative group a singleton by keeping all rows only
            # when the dataset already has singleton groups
            if data is full:
                neg_first = np.zeros(data.n_rows, dtype=bool)
                for k in range(data.n_groups):
                    lo = data.group_starts[k]
                    if data.group_labels[k] == -1:
                        neg_first[lo] = True
                keep = data.is_key | neg_first
                inner = Dataset(data.X[keep], data.labels[keep],
                                data.group_ids[keep], data.is_key[keep])
            else:
                inner = Dataset(data.X[keep], data.labels[keep],
                                data.group_ids[keep], data.is_key[keep])
            hp = Hyperparams(lam=0.6, delta=0.5)
            for _ in range(5):
                model = LinearModel(rng.normal(size=3), float(rng.normal()))
                grouped_val = eval_grouped(model, inner, hp).total
                flat_val = eval_per_candidate(model, inner, hp).total
                assert grouped_val == pytest.approx(flat_val, rel=1e-9)

    @pytest.mark.parametrize("max_outer, selected, outer, converged", [
        (1, [1, 4, 10, 15, 17, 20], 1, False),
        (2, [1, 4, 10, 12, 19, 20], 2, False),
        (3, [1, 4, 10, 12, 19, 20], 3, True),
        (50, [1, 4, 10, 12, 19, 20], 3, True),
    ])
    def test_pinned_selection_and_exit(self, max_outer, selected, outer,
                                       converged):
        # every selected row wins its group by at least 0.05 in score, so
        # the rows do not hinge on the last bits of the BLAS sums
        ds = build_grouped_dataset(np.random.default_rng(6), 6, 10, 2, 6, 3)
        _, got, got_outer, got_converged = train_mi_svm(
            ds, Hyperparams(0.5, MISVM_INNER_EPSILON, 0.0), max_outer=max_outer)
        assert got.tolist() == selected
        assert (got_outer, got_converged) == (outer, converged)

    def test_no_positive_groups_rejected(self):
        ds = Dataset(np.zeros((3, 1)), [-1, -1, -1], [0, 1, 2],
                     [False, False, False])
        with pytest.raises(ConfigurationError):
            train_mi_svm(ds, Hyperparams(lam=0.5))

    def test_minority_keys_favor_gcm_at_group_level(self):
        # desk-scale hard-negative regime: keys are 1 of ~30 rows, decoy
        # signal misleads the weakly supervised selector
        from gcm import generate, hard_negatives_spec
        spec = hard_negatives_spec(seed=909, n_pos_groups=16, n_neg_groups=120,
                                   group_size_min=25, group_size_max=35, d=6)
        train = generate(spec)
        test = generate(hard_negatives_spec(seed=910, n_pos_groups=24,
                                            n_neg_groups=160,
                                            group_size_min=25,
                                            group_size_max=35, d=6))
        solver = SolverConfig(max_iterations=300)
        gcm_model, _ = train_gcm(train, Hyperparams(lam=0.5), solver)
        mi_model, _, outer, _ = train_mi_svm(
            train, Hyperparams(0.5, MISVM_INNER_EPSILON, 0.0), solver)
        assert outer <= 50
        gcm_auc = evaluate_model(gcm_model, test).group_auc
        mi_auc = evaluate_model(mi_model, test).group_auc
        assert mi_auc <= gcm_auc
