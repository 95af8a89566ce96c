import numpy as np
import pytest

from gcm import (
    ConfigurationError,
    Dataset,
    DomainError,
    Hyperparams,
    LinearModel,
    MalformedRecordError,
    MissingKeyError,
    MixedLabelGroupError,
    MultipleKeysError,
)
from conftest import build_grouped_dataset


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

    @pytest.mark.parametrize("width", ["epsilon", "delta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_width_rejected(self, width, value):
        with pytest.raises(DomainError, match=f"{width} must be finite"):
            Hyperparams(lam=0.5, **{width: value})


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
        # checked before the int8 cast, under which 255 would read as -1
        with pytest.raises(MalformedRecordError, match="got 255"):
            Dataset(np.zeros((2, 1)), [1, 255], [0, 1], [True, False])

    @pytest.mark.parametrize("flag", [2, 0.5, np.nan])
    def test_key_flag_other_than_0_or_1_rejected(self, flag):
        # checked before the bool cast, under which each would read as a key
        with pytest.raises(MalformedRecordError, match="is_key") as err:
            Dataset(np.zeros((3, 1)), [1, -1, -1], [0, 1, 1], [flag, 0, 0])
        assert err.value.location == "group 0"

    def test_non_numeric_key_flags_rejected(self):
        with pytest.raises(MalformedRecordError, match="is_key must be numbers"):
            Dataset(np.zeros((2, 1)), [1, -1], [0, 1], np.array(["1", "0"]))

    def test_no_feature_columns_rejected(self):
        with pytest.raises(MalformedRecordError, match="at least one column"):
            Dataset(np.zeros((3, 0)), [1, -1, -1], [0, 1, 1], [1, 0, 0])

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

    def test_infinite_features_rejected_with_their_group(self):
        for value in (np.inf, -np.inf):
            with pytest.raises(MalformedRecordError,
                               match=r"infinite.*group 3\b"):
                Dataset([[1.0], [value]], [1, -1], [0, 3], [True, False])


class TestDatasetStructure:
    def test_rows_sorted_by_group_with_stable_order(self):
        X = np.arange(10, dtype=float).reshape(5, 2)
        ds = Dataset(X, [-1, 1, -1, 1, -1], [5, 2, 5, 2, 1],
                     [False, True, False, False, False])
        assert list(ds.group_ids) == [1, 2, 2, 5, 5]
        # within-group input order preserved: group 5 rows were X[0], X[2]
        assert ds.X[3, 0] == 0.0 and ds.X[4, 0] == 4.0
        assert ds.n_pos_groups == 1 and ds.n_neg_groups == 2

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

    def test_subset_groups_rejects_fractional_ids(self, rng):
        ds = build_grouped_dataset(rng, 3, 3, 2, 4, 2)
        with pytest.raises(MalformedRecordError):
            ds.subset_groups([0.7, 1.2])  # not truncated to [0, 1]

    def test_subset_groups_names_the_first_absent_id(self, rng):
        ds = build_grouped_dataset(rng, 3, 3, 2, 4, 2)
        with pytest.raises(ConfigurationError, match="group id 9 "):
            ds.subset_groups([0, 9, 12])

    def test_subset_groups_rejects_an_empty_selection(self, rng):
        ds = build_grouped_dataset(rng, 3, 3, 2, 4, 2)
        with pytest.raises(ConfigurationError, match="no groups"):
            ds.subset_groups([])


class TestGroupBlocks:
    def test_blocks_cover_all_rows_and_never_split_groups(self, rng):
        ds = build_grouped_dataset(rng, 5, 10, 1, 7, 2)
        seen = 0
        for block in ds.iter_group_blocks(max_rows=11):
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
