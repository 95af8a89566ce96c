import numpy as np
import pytest

from gcm import (
    Candidate,
    Dataset,
    DimensionMismatchError,
    DomainError,
    Hyperparams,
    LinearModel,
    MalformedRecordError,
    MissingKeyError,
    MixedLabelGroupError,
    MultipleKeysError,
    soft_margin,
)
from conftest import build_grouped_dataset


def cand(x, y=1, gid=0, key=False):
    return Candidate(group_id=gid, label=y, is_key=key, features=np.asarray(x, float))


class TestSoftMargin:
    def test_zero_model(self):
        m = LinearModel(w=np.zeros(3), b=0.0)
        assert soft_margin(m, cand([5.0, -2.0, 7.0])) == 0.0

    def test_hand_example(self):
        m = LinearModel(w=np.array([1.0, 1.0]), b=-1.0)
        assert soft_margin(m, cand([2.0, 1.0], y=1)) == 2.0

    def test_label_sign_symmetry(self):
        m = LinearModel(w=np.array([1.0, 1.0]), b=-1.0)
        assert soft_margin(m, cand([2.0, 1.0], y=-1)) == -2.0

    def test_dimension_mismatch(self):
        m = LinearModel(w=np.ones(3), b=0.0)
        with pytest.raises(DimensionMismatchError):
            soft_margin(m, cand([1.0, 2.0]))

    def test_linearity_in_model(self, rng):
        x = rng.normal(size=4)
        for _ in range(50):
            w1, w2 = rng.normal(size=4), rng.normal(size=4)
            b1, b2 = rng.normal(), rng.normal()
            a, c = rng.normal(), rng.normal()
            combo = LinearModel(w=a * w1 + c * w2, b=a * b1 + c * b2)
            lhs = soft_margin(combo, cand(x))
            rhs = a * soft_margin(LinearModel(w1, b1), cand(x)) + \
                c * soft_margin(LinearModel(w2, b2), cand(x))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_negating_label_negates_margin(self, rng):
        for _ in range(20):
            m = LinearModel(w=rng.normal(size=3), b=rng.normal())
            x = rng.normal(size=3)
            assert soft_margin(m, cand(x, y=1)) == -soft_margin(m, cand(x, y=-1))


class TestHyperparams:
    def test_defaults(self):
        hp = Hyperparams(lam=0.5)
        assert hp.epsilon == 1.0 and hp.delta == 0.5

    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_lambda_range(self, lam):
        with pytest.raises(DomainError):
            Hyperparams(lam=lam)

    def test_epsilon_zero_rejected(self):
        with pytest.raises(DomainError):
            Hyperparams(lam=0.5, epsilon=0.0)

    def test_delta_zero_is_valid(self):
        assert Hyperparams(lam=0.5, delta=0.0).delta == 0.0

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            Hyperparams(lam=0.5, delta=-0.01)


class TestLinearModel:
    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            LinearModel(w=np.array([1.0, np.nan]), b=0.0)
        with pytest.raises(DomainError):
            LinearModel(w=np.ones(2), b=np.inf)

    def test_weights_immutable(self):
        m = LinearModel(w=np.ones(2), b=0.0)
        with pytest.raises(ValueError):
            m.w[0] = 2.0


class TestDatasetValidation:
    def test_mixed_label_group_rejected(self):
        with pytest.raises(MixedLabelGroupError):
            Dataset(np.zeros((2, 1)), [1, -1], [7, 7], [True, False])

    def test_missing_key_rejected(self):
        with pytest.raises(MissingKeyError) as err:
            Dataset(np.zeros((2, 1)), [1, 1], [3, 3], [False, False])
        assert "group 3" in str(err.value)

    def test_multiple_keys_rejected(self):
        with pytest.raises(MultipleKeysError):
            Dataset(np.zeros((2, 1)), [1, 1], [0, 0], [True, True])

    def test_key_on_negative_row_rejected(self):
        with pytest.raises(MalformedRecordError):
            Dataset(np.zeros((2, 1)), [-1, -1], [0, 0], [True, False])

    def test_bad_label_value_rejected(self):
        with pytest.raises(MalformedRecordError):
            Dataset(np.zeros((1, 1)), [2], [0], [False])

    def test_negative_group_id_rejected(self):
        with pytest.raises(MalformedRecordError):
            Dataset(np.zeros((1, 1)), [-1], [-5], [False])

    def test_empty_rejected(self):
        with pytest.raises(MalformedRecordError):
            Dataset(np.zeros((0, 2)), [], [], [])

    def test_nan_feature_rejected_with_its_group(self):
        X = np.zeros((3, 2))
        X[2, 1] = np.nan
        with pytest.raises(MalformedRecordError, match="NaN.*group 7"):
            Dataset(X, [1, -1, -1], [3, 7, 7], [True, False, False])

    def test_nan_past_the_first_copy_chunk_names_its_group(self):
        n = 10_000
        X = np.zeros((n, 1))
        X[n - 5, 0] = np.nan
        gids = np.arange(n)[::-1]  # unsorted: row n - 5 is group 4
        with pytest.raises(MalformedRecordError, match=r"group 4\b"):
            Dataset(X, [-1] * n, gids, [False] * n)

    def test_infinite_features_accepted(self):
        ds = Dataset([[np.inf], [-np.inf]], [1, -1], [0, 1], [True, False])
        assert ds.X[:, 0].tolist() == [np.inf, -np.inf]


class TestDatasetStructure:
    def test_rows_sorted_by_group_with_stable_order(self):
        X = np.arange(10, dtype=float).reshape(5, 2)
        ds = Dataset(X, [-1, 1, -1, 1, -1], [5, 2, 5, 2, 1],
                     [False, True, False, False, False])
        assert list(ds.group_ids) == [1, 2, 2, 5, 5]
        # within-group input order preserved: group 5 rows were X[0], X[2]
        assert ds.X[3, 0] == 0.0 and ds.X[4, 0] == 4.0
        assert ds.n_pos_groups == 1 and ds.n_neg_groups == 2

    def test_group_index(self):
        ds = Dataset(np.zeros((3, 1)), [1, 1, -1], [4, 4, 9],
                     [True, False, False])
        idx = ds.group_index
        assert set(idx) == {4, 9}
        polarity, rows = idx[4]
        assert polarity == 1 and list(rows) == [0, 1]

    def test_counts_are_groups_not_rows(self, rng):
        ds = build_grouped_dataset(rng, 3, 4, 2, 5, 2)
        assert ds.n_pos_groups == 3 and ds.n_neg_groups == 4
        assert ds.n_pos_rows >= 6 and ds.n_neg_rows >= 8

    def test_arrays_read_only(self, rng):
        ds = build_grouped_dataset(rng, 2, 2, 1, 3, 2)
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1.0

    def test_shuffled_input_canonicalized(self, rng):
        ds = build_grouped_dataset(rng, 3, 3, 2, 4, 3, shuffle_rows=True)
        assert np.all(np.diff(ds.group_ids) >= 0)

    def test_subset_groups(self, rng):
        ds = build_grouped_dataset(rng, 3, 3, 2, 4, 2)
        keep = [0, 3]
        sub = ds.subset_groups(keep)
        assert sorted(set(sub.group_ids.tolist())) == keep
        assert sub.n_groups == 2

    def test_from_candidates_round_trip(self, rng):
        ds = build_grouped_dataset(rng, 2, 2, 1, 3, 2)
        again = Dataset.from_candidates(list(ds.candidates()))
        assert np.array_equal(again.X, ds.X)
        assert np.array_equal(again.labels, ds.labels)
        assert np.array_equal(again.is_key, ds.is_key)


class TestGroupBlocks:
    def test_blocks_cover_all_rows_and_never_split_groups(self, rng):
        ds = build_grouped_dataset(rng, 5, 10, 1, 7, 2)
        seen = 0
        for block in ds.iter_group_blocks(max_rows=11):
            assert block.row_offset == seen
            rows = block.X.shape[0]
            seen += rows
            assert block.starts[0] == 0 and block.starts[-1] == rows
            # whole groups only: ids change exactly at the starts
            for k in range(len(block.starts) - 1):
                lo, hi = block.starts[k], block.starts[k + 1]
                assert len(set(block.group_ids[lo:hi].tolist())) == 1
        assert seen == ds.n_rows

    def test_block_size_bound(self, rng):
        ds = build_grouped_dataset(rng, 4, 8, 2, 6, 2)
        for block in ds.iter_group_blocks(max_rows=9):
            if len(block.starts) > 2:
                assert block.X.shape[0] <= 9

    def test_oversized_group_alone(self):
        ds = Dataset(np.zeros((5, 1)), [-1] * 5, [1] * 5, [False] * 5)
        blocks = list(ds.iter_group_blocks(max_rows=2))
        assert len(blocks) == 1 and blocks[0].X.shape[0] == 5
