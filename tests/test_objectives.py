import numpy as np
import pytest

import gcm.objectives
from gcm import (
    ConfigurationError,
    Dataset,
    DimensionMismatchError,
    Hyperparams,
    LinearModel,
    ObjectiveValue,
    eval_grouped,
    eval_per_candidate,
    smoothed_hinge,
    smoothed_hinge_prime,
)
from conftest import build_grouped_dataset
from oracles import (
    fd_gradient,
    naive_grouped,
    naive_per_candidate,
    nested_smoothed_hinge,
    nested_smoothed_hinge_prime,
)


def pack_objective(fn, data, hp, grouped):
    """Objective as a function of the flat (w, b) point, for FD checks."""
    def f(point):
        model = LinearModel(w=point[:-1], b=float(point[-1]))
        value = (eval_grouped if grouped else eval_per_candidate)(model, data, hp)
        return value.total
    return f


def singleton_dataset(X, labels):
    n = len(labels)
    return Dataset(X, labels, np.arange(n), [y == 1 for y in labels])


class TestEvalPerCandidate:
    def test_zero_model_loss_terms(self, rng):
        ds = build_grouped_dataset(rng, 2, 3, 2, 4, 3)
        for delta in (0.0, 0.25, 0.5):
            hp = Hyperparams(lam=1.0, delta=delta)
            val = eval_per_candidate(LinearModel(np.zeros(3), 0.0), ds, hp)
            assert val.positive_loss_term == pytest.approx(1.0 - delta, rel=1e-12)
            assert val.negative_loss_term == pytest.approx(1.0 - delta, rel=1e-12)
            assert val.total == pytest.approx(2.0 * (1.0 - delta), rel=1e-12)

    def test_lambda_zero_zero_weights(self, rng):
        ds = build_grouped_dataset(rng, 1, 1, 1, 3, 2)
        val = eval_per_candidate(LinearModel(np.zeros(2), 0.0), ds,
                                 Hyperparams(lam=0.0))
        assert val.total == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ds = build_grouped_dataset(rng, 2, 2, 1, 3, 2)
        model = LinearModel(rng.normal(size=2), float(rng.normal()))
        hp = Hyperparams(lam=float(rng.uniform(0.1, 0.9)),
                         epsilon=float(rng.uniform(0.2, 2.0)),
                         delta=float(rng.choice([0.0, 0.3, 0.5])))
        expected = naive_per_candidate(model.w, model.b, ds.X, ds.labels,
                                       hp.lam, hp.epsilon, hp.delta)
        got = eval_per_candidate(model, ds, hp)
        assert got.total == pytest.approx(expected, rel=1e-12)

    def test_terms_sum_to_total(self, rng):
        ds = build_grouped_dataset(rng, 3, 3, 1, 4, 3)
        model = LinearModel(rng.normal(size=3), 0.3)
        val = eval_per_candidate(model, ds, Hyperparams(lam=0.4))
        terms = val.regularization_term + val.positive_loss_term + val.negative_loss_term
        assert val.total == pytest.approx(terms, rel=1e-12)

    def test_empty_class_with_positive_lambda_rejected(self):
        ds = Dataset(np.zeros((2, 1)), [1, 1], [0, 1], [True, True])
        with pytest.raises(ConfigurationError):
            eval_per_candidate(LinearModel(np.zeros(1), 0.0), ds,
                               Hyperparams(lam=0.5))
        # lam = 0 tolerates the missing class
        val = eval_per_candidate(LinearModel(np.zeros(1), 0.0), ds,
                                 Hyperparams(lam=0.0))
        assert val.total == 0.0

    def test_dimension_mismatch(self, rng):
        ds = build_grouped_dataset(rng, 1, 1, 1, 2, 3)
        with pytest.raises(DimensionMismatchError):
            eval_per_candidate(LinearModel(np.zeros(2), 0.0), ds,
                               Hyperparams(lam=0.5))


def value_bits(value: ObjectiveValue) -> tuple[list[int], list[int]]:
    """The bits of the total, the three terms, the bias gradient and the
    weight gradient of ``value``."""
    g = value.gradient()
    scalars = np.array([value.total, value.regularization_term,
                        value.positive_loss_term, value.negative_loss_term,
                        g[-1]])
    return scalars.view(np.int64).tolist(), g[:-1].view(np.int64).tolist()


class TestPerCandidateChunks:
    """No bit of eval_per_candidate depends on its row chunk size."""

    CHUNK = 7

    def assert_chunk_invariant(self, monkeypatch, model, ds, hp):
        seen = []
        for chunk in (self.CHUNK, ds.n_rows + 1):
            monkeypatch.setattr(gcm.objectives, "CANDIDATE_CHUNK_ROWS", chunk)
            seen.append(value_bits(eval_per_candidate(model, ds, hp)))
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("n_rows", [5, 21, 23])  # below, k * 7, not k * 7
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_row_counts(self, n_rows, delta, monkeypatch, rng):
        labels = np.where(np.arange(n_rows) % 3 == 0, 1, -1)
        ds = singleton_dataset(rng.normal(size=(n_rows, 3)), labels)
        model = LinearModel(rng.normal(size=3), 0.3)
        self.assert_chunk_invariant(monkeypatch, model, ds,
                                    Hyperparams(lam=0.6, delta=delta))

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_single_class_chunks(self, delta, monkeypatch, rng):
        # rows 0-6 are one positive group, rows 7-13 one negative group
        labels = [1] * 7 + [-1] * 7 + [1, -1, 1, -1]
        gids = [0] * 7 + [1] * 7 + [2, 3, 4, 5]
        keys = [True] + [False] * 13 + [True, False, True, False]
        ds = Dataset(rng.normal(size=(18, 2)), labels, gids, keys)
        model = LinearModel(rng.normal(size=2), -0.1)
        self.assert_chunk_invariant(monkeypatch, model, ds,
                                    Hyperparams(lam=0.5, delta=delta))

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_infinite_scores(self, delta, monkeypatch):
        # scores of +inf and -inf on both classes, so margins of both signs
        x = [1e300, -1e300, 0.5, 1e300, -1e300, -0.2, 0.1, 2.0, -1e300, 1e300]
        labels = [1, 1, 1, -1, -1, -1, -1, 1, -1, 1]
        ds = singleton_dataset(np.array(x)[:, None], labels)
        model = LinearModel(np.array([1e10]), 0.0)
        hp = Hyperparams(lam=0.5, delta=delta)
        with np.errstate(over="ignore"):  # the scores overflow on purpose
            margins = ds.labels * model.raw_scores(ds.X)
            assert np.isinf(margins).sum() == 6
            for fn, nested in ((smoothed_hinge, nested_smoothed_hinge),
                               (smoothed_hinge_prime,
                                nested_smoothed_hinge_prime)):
                assert (fn(margins, delta).tobytes()
                        == nested(margins, delta).tobytes())
            assert eval_per_candidate(model, ds, hp).total == np.inf
            self.assert_chunk_invariant(monkeypatch, model, ds, hp)


class TestEvalGrouped:
    def test_max_not_mean_for_negative_group(self):
        # one negative group with hinge losses {0, 0.4, 4.1}: margins are
        # t = -score, so scores {-1.7, -0.6, 3.1} realize them at delta = 0
        X = np.array([[-1.7], [-0.6], [3.1], [2.0]])
        ds = Dataset(X, [-1, -1, -1, 1], [0, 0, 0, 1],
                     [False, False, False, True])
        hp = Hyperparams(lam=1.0, delta=0.0)
        val = eval_grouped(LinearModel(np.array([1.0]), 0.0), ds, hp)
        assert val.negative_loss_term == pytest.approx(4.1, abs=1e-12)
        losses = smoothed_hinge(np.array([1.7, 0.6, -3.1]), 0.0)
        assert float(np.mean(losses)) == pytest.approx(1.5, abs=1e-12)

    def test_singleton_groups_reduce_to_per_candidate(self, rng):
        X = rng.normal(size=(8, 3))
        labels = [1, 1, 1, -1, -1, -1, -1, 1]
        ds = singleton_dataset(X, labels)
        model = LinearModel(rng.normal(size=3), 0.2)
        hp = Hyperparams(lam=0.6, delta=0.5)
        a = eval_grouped(model, ds, hp)
        b = eval_per_candidate(model, ds, hp)
        assert a.total == pytest.approx(b.total, rel=1e-12)
        ga, gb = a.gradient(), b.gradient()
        assert np.allclose(ga[:-1], gb[:-1], rtol=1e-12, atol=1e-15)
        assert ga[-1] == pytest.approx(gb[-1], rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        ds = build_grouped_dataset(rng, 3, 3, 1, 4, 2, shuffle_rows=True)
        model = LinearModel(rng.normal(size=2), float(rng.normal()))
        hp = Hyperparams(lam=float(rng.uniform(0.1, 0.9)),
                         delta=float(rng.choice([0.0, 0.5])))
        expected = naive_grouped(model.w, model.b, ds.X, ds.labels,
                                 ds.group_ids, ds.is_key, hp.lam, hp.epsilon,
                                 hp.delta)
        assert eval_grouped(model, ds, hp).total == pytest.approx(
            expected, rel=1e-12)

    def test_non_key_positive_rows_ignored(self, rng):
        base = rng.normal(size=(3, 2))
        keyed = Dataset(base, [1, 1, -1], [0, 0, 1], [True, False, False])
        solo = Dataset(base[[0, 2]], [1, -1], [0, 1], [True, False])
        model = LinearModel(rng.normal(size=2), 0.1)
        hp = Hyperparams(lam=0.7)
        assert eval_grouped(model, keyed, hp).total == pytest.approx(
            eval_grouped(model, solo, hp).total, rel=1e-12)

    def test_max_at_least_mean_property(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            ds = build_grouped_dataset(r, 2, 4, 2, 5, 2)
            model = LinearModel(r.normal(size=2), float(r.normal()))
            hp = Hyperparams(lam=1.0)
            val = eval_grouped(model, ds, hp)
            margins = ds.labels * model.raw_scores(ds.X)
            losses = smoothed_hinge(margins, hp.delta)
            mean_term = 0.0
            for k in range(ds.n_groups):
                lo, hi = ds.group_starts[k], ds.group_starts[k + 1]
                if ds.group_labels[k] == -1:
                    mean_term += float(np.mean(losses[lo:hi]))
            mean_term /= ds.n_neg_groups
            assert val.negative_loss_term >= mean_term - 1e-12


class TestGradientPerCandidate:
    def test_hand_example_exact_hinge(self):
        ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), [1, -1], [0, 1],
                     [True, False])
        hp = Hyperparams(lam=1.0, delta=0.0)
        g = eval_per_candidate(LinearModel(np.zeros(2), 0.0), ds, hp).gradient()
        assert np.allclose(g[:-1], [2.0, 2.0])
        assert g[-1] == 0.0

    def test_lambda_zero_huber_only(self, rng):
        ds = build_grouped_dataset(rng, 1, 1, 1, 2, 2)
        w = np.array([0.4, -2.0])
        hp = Hyperparams(lam=0.0, epsilon=1.0)
        g = eval_per_candidate(LinearModel(w, 0.5), ds, hp).gradient()
        assert np.allclose(g[:-1], np.array([0.4, -1.0]) / 2)
        assert g[-1] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        ds = build_grouped_dataset(rng, 5, 5, 4, 6, 8)
        hp = Hyperparams(lam=0.5, delta=0.5)
        point = np.concatenate([rng.normal(size=8) * 0.4, [0.1]])
        model = LinearModel(point[:-1], float(point[-1]))
        margins = ds.labels * model.raw_scores(ds.X)
        near = (np.abs(margins - 1.0) < 1e-3) | (np.abs(margins) < 1e-3)
        if np.any(near):
            pytest.skip("margins too close to a region boundary for FD")
        analytic = eval_per_candidate(model, ds, hp).gradient()
        fd = fd_gradient(pack_objective(None, ds, hp, grouped=False), point)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
        assert rel <= 1e-5


class TestSubgradientGrouped:
    def test_unique_argmax_row_carries_the_gradient(self):
        X = np.array([[0.0], [5.0], [1.0]])
        ds = Dataset(X, [-1, -1, 1], [0, 0, 1], [False, False, True])
        hp = Hyperparams(lam=1.0, delta=0.0)
        model = LinearModel(np.array([1.0]), 0.0)
        g = eval_grouped(model, ds, hp).gradient()
        # negative group argmax-loss row is x = 5 (score 5, margin -5);
        # positive key x = 1 has margin 1, zero loss and zero derivative
        assert g[0] == pytest.approx(5.0)
        assert g[-1] == pytest.approx(1.0)

    def test_inactive_negative_group_contributes_nothing(self):
        X = np.array([[-3.0], [-2.0], [2.0]])
        ds = Dataset(X, [-1, -1, 1], [0, 0, 1], [False, False, True])
        hp = Hyperparams(lam=1.0, delta=0.0)
        g = eval_grouped(LinearModel(np.array([1.0]), 0.0), ds, hp).gradient()
        assert g[0] == 0.0 and g[-1] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences_away_from_ties(self, seed):
        rng = np.random.default_rng(300 + seed)
        hp = Hyperparams(lam=0.5, delta=0.5)
        for attempt in range(20):
            ds = build_grouped_dataset(rng, 3, 4, 1, 4, 5)
            point = np.concatenate([rng.normal(size=5) * 0.5, [0.05]])
            model = LinearModel(point[:-1], float(point[-1]))
            margins = ds.labels * model.raw_scores(ds.X)
            if np.any(np.abs(margins - 1.0) < 1e-3) or np.any(np.abs(margins) < 1e-3):
                continue
            losses = smoothed_hinge(margins, hp.delta)
            tied = False
            for k in range(ds.n_groups):
                lo, hi = ds.group_starts[k], ds.group_starts[k + 1]
                if ds.group_labels[k] == -1 and hi - lo > 1:
                    top = np.sort(losses[lo:hi])[-2:]
                    if top[1] - top[0] < 1e-4:
                        tied = True
            if tied:
                continue
            analytic = eval_grouped(model, ds, hp).gradient()
            fd = fd_gradient(pack_objective(None, ds, hp, grouped=True), point)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
            assert rel <= 1e-5
            return
        pytest.skip("no tie-free instance found")

    def test_first_order_lower_bound(self, rng):
        # any subgradient of a convex function satisfies
        # f(x + s*u) >= f(x) + s * <g, u> up to rounding
        ds = build_grouped_dataset(rng, 3, 4, 2, 5, 4)
        hp = Hyperparams(lam=0.7, delta=0.5)
        f = pack_objective(None, ds, hp, grouped=True)
        for trial in range(20):
            point = np.concatenate([rng.normal(size=4), [float(rng.normal())]])
            model = LinearModel(point[:-1], float(point[-1]))
            gvec = eval_grouped(model, ds, hp).gradient()
            for s in (1e-4, 1e-5):
                u = rng.normal(size=5)
                assert f(point + s * u) >= f(point) + s * float(gvec @ u) - 1e-8


class TestObjectiveConvexity:
    @pytest.mark.parametrize("grouped", [False, True])
    def test_chord_inequality(self, grouped, rng):
        ds = build_grouped_dataset(rng, 3, 4, 1, 4, 3)
        hp = Hyperparams(lam=0.6, delta=0.5)
        f = pack_objective(None, ds, hp, grouped=grouped)
        for _ in range(50):
            p1 = rng.normal(size=4) * 2
            p2 = rng.normal(size=4) * 2
            a = float(rng.uniform())
            mid = a * p1 + (1 - a) * p2
            assert f(mid) <= a * f(p1) + (1 - a) * f(p2) + 1e-9


class TestObjectiveValue:
    def test_four_float_constructor_and_equality_ignore_the_gradient(self, rng):
        # ... and ignore the rows scored
        bare = ObjectiveValue(1.0, 0.25, 0.5, 0.25)
        assert bare == ObjectiveValue(1.0, 0.25, 0.5, 0.25, rows=7)
        assert repr(ObjectiveValue(1.0, 0.25, 0.5, 0.25, rows=7)) == (
            "ObjectiveValue(total=1.0, regularization_term=0.25, "
            "positive_loss_term=0.5, negative_loss_term=0.25)")
        with pytest.raises(ValueError, match="without a gradient"):
            bare.gradient()
        ds = build_grouped_dataset(rng, 3, 4, 2, 4, 2)
        model = LinearModel(rng.normal(size=2), 0.1)
        hp = Hyperparams(lam=0.5)
        for evaluate in (eval_grouped, eval_per_candidate):
            value = evaluate(model, ds, hp)
            assert value == ObjectiveValue(
                value.total, value.regularization_term,
                value.positive_loss_term, value.negative_loss_term)
            assert value.gradient().shape == (3,)
            assert value.rows == ds.n_rows  # a full pass scores every row
