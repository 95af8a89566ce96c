"""Column-major feature storage and the group-max grouped kernels.

The grouped objective and subgradient apply the hinge to one margin per
group. These tests pin them, bit for bit, to the per-row formulation: the
hinge on every row, then the maximum loss per negative group and its first
maximal-loss row.
"""

import numpy as np
import pytest

from gcm import (
    BinaryDatasetReader,
    Dataset,
    ExpansionSpec,
    FeaturePipeline,
    GeneratorSpec,
    Hyperparams,
    LinearModel,
    generate,
    huber_prime,
    load_binary,
    load_text,
    save_binary,
    save_text,
    smoothed_hinge,
    smoothed_hinge_prime,
)
from gcm.baselines import _inner_dataset
from gcm.objectives import (
    _class_terms,
    _fixed_order_scores,
    _group_argmax,
    _regularization,
    eval_grouped,
)
from conftest import build_grouped_dataset
from oracles import naive_grouped


def assert_column_major(X):
    assert X.flags.f_contiguous
    assert not X.flags.writeable


class TestDatasetLayout:
    def test_list_input(self):
        ds = Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [1, -1, -1],
                     [0, 1, 1], [True, False, False])
        assert_column_major(ds.X)
        assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_row_major_input_is_copied(self, rng):
        X = rng.normal(size=(6, 3))
        ds = Dataset(X, [1, 1, -1, -1, -1, -1], [0, 0, 1, 1, 2, 2],
                     [True, False, False, False, False, False])
        assert_column_major(ds.X)
        assert np.array_equal(ds.X, X)
        X[0, 0] = 99.0
        assert ds.X[0, 0] != 99.0

    def test_unsorted_input_is_stably_sorted(self, rng):
        X = rng.normal(size=(7, 2))
        gids = np.array([4, 1, 4, 0, 1, 4, 0])
        labels = np.where(gids == 0, 1, -1)
        keys = np.zeros(7, dtype=bool)
        keys[3] = True
        ds = Dataset(X, labels, gids, keys)
        order = np.argsort(gids, kind="stable")
        assert_column_major(ds.X)
        assert np.array_equal(ds.X, X[order])
        assert np.array_equal(ds.group_ids, gids[order])
        assert np.array_equal(ds.is_key, keys[order])

    def test_subset_groups(self, rng):
        ds = build_grouped_dataset(rng, 3, 4, 1, 5, 3)
        sub = ds.subset_groups([0, 4, 5])
        assert_column_major(sub.X)
        assert np.array_equal(sub.X, ds.X[np.isin(ds.group_ids, [0, 4, 5])])

    def test_text_and_binary_loaders(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 3, 4, 1, 5, 3)
        save_text(ds, tmp_path / "d.csv")
        save_binary(ds, tmp_path / "d.bin")
        for loaded in (load_text(tmp_path / "d.csv"),
                       load_binary(tmp_path / "d.bin")):
            assert_column_major(loaded.X)
            assert np.array_equal(loaded.X, ds.X)

    def test_generator_expansion_and_scaler(self):
        ds = generate(GeneratorSpec(seed=3, n_pos_groups=4, n_neg_groups=6,
                                    d=3))
        assert_column_major(ds.X)
        for spec in (None, ExpansionSpec(degree=2)):
            _, out = FeaturePipeline.fit(ds, spec, standardize=True)
            assert_column_major(out.X)
        _, out = FeaturePipeline.fit(ds, ExpansionSpec(degree=2))
        assert_column_major(out.X)

    def test_mi_svm_inner_set(self, rng):
        ds = build_grouped_dataset(rng, 3, 4, 1, 5, 3)
        pos_rows = np.flatnonzero(ds.is_key)
        inner = _inner_dataset(ds, ds.X[pos_rows], ds.group_ids[pos_rows])
        assert_column_major(inner.X)

    def test_blocks_have_contiguous_columns(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 5, 9, 1, 7, 4)
        path = tmp_path / "s.bin"
        save_binary(ds, path)
        reader = BinaryDatasetReader(path, read_chunk_rows=5)
        for max_rows in (1, 4, 13, 1000):
            for source in (ds, reader):
                for block in source.iter_group_blocks(max_rows=max_rows):
                    assert block.X.strides[0] == block.X.itemsize


class TestScoreKernel:
    def test_row_and_column_major_give_identical_bits(self, rng):
        X = rng.normal(size=(500, 7))
        w, b = rng.normal(size=7), float(rng.normal())
        c_scores = _fixed_order_scores(np.ascontiguousarray(X), w, b)
        f_scores = _fixed_order_scores(np.asfortranarray(X), w, b)
        assert np.array_equal(c_scores, f_scores)

    @pytest.mark.parametrize("cuts", [(1,), (17, 18, 300), (250,), (499,)])
    def test_block_split_gives_identical_bits(self, rng, cuts):
        X = np.asfortranarray(rng.normal(size=(500, 7)))
        w, b = rng.normal(size=7), float(rng.normal())
        whole = _fixed_order_scores(X, w, b)
        bounds = (0, *cuts, 500)
        parts = [_fixed_order_scores(X[lo:hi], w, b)
                 for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(np.concatenate(parts), whole)


class TestGroupArgmax:
    def test_first_row_of_the_maximum(self):
        values = np.array([1.0, 3.0, 3.0, 2.0, 5.0, -1.0, -1.0])
        starts = np.array([0, 4, 5, 7])
        assert _group_argmax(values, starts).tolist() == [1, 4, 5]

    def test_nan_group_keeps_one_index(self):
        values = np.array([1.0, np.nan, 2.0, np.nan, 4.0, 3.0])
        starts = np.array([0, 4, 6])
        assert _group_argmax(values, starts).tolist() == [1, 4]


# -- per-row reference -----------------------------------------------------------


def per_row_objective(model, source, hp):
    """Grouped objective with the hinge on every row, then a group max."""
    pos_sum = neg_sum = 0.0
    n_pos = n_neg = 0
    for block in source.iter_group_blocks():
        scores = _fixed_order_scores(block.X, model.w, model.b)
        losses = smoothed_hinge(block.labels * scores, hp.delta)
        glabels = block.labels[block.starts[:-1]]
        pos_sum += float(np.sum(losses[block.is_key]))
        neg_sum += float(np.sum(
            np.maximum.reduceat(losses, block.starts[:-1])[glabels == -1]))
        n_pos += int(np.count_nonzero(glabels == 1))
        n_neg += int(np.count_nonzero(glabels == -1))
    reg = _regularization(model, hp)
    pos, neg = _class_terms(hp.lam, pos_sum, n_pos, neg_sum, n_neg, "group")
    return reg + pos + neg, pos, neg


def per_row_subgradient(model, source, hp):
    """Subgradient at each negative group's first maximal-loss row."""
    d = model.d
    pos_w, neg_w = np.zeros(d), np.zeros(d)
    pos_b = neg_b = 0.0
    n_pos = n_neg = 0
    for block in source.iter_group_blocks():
        scores = _fixed_order_scores(block.X, model.w, model.b)
        margins = block.labels * scores
        losses = smoothed_hinge(margins, hp.delta)
        lprime = smoothed_hinge_prime(margins, hp.delta)
        glabels = block.labels[block.starts[:-1]]
        n_pos += int(np.count_nonzero(glabels == 1))
        n_neg += int(np.count_nonzero(glabels == -1))
        key_rows = np.flatnonzero(block.is_key)
        if key_rows.size:
            c = lprime[key_rows]
            pos_w += block.X[key_rows].T @ c
            pos_b += float(np.sum(c))
        amax = _group_argmax(losses, block.starts)[glabels == -1]
        if amax.size:
            c = -lprime[amax]
            neg_w += block.X[amax].T @ c
            neg_b += float(np.sum(c))
    grad_w = (1.0 - hp.lam) / d * huber_prime(model.w, hp.epsilon)
    grad_w = grad_w + hp.lam / n_pos * pos_w + hp.lam / n_neg * neg_w
    return grad_w, hp.lam / n_pos * pos_b + hp.lam / n_neg * neg_b


class SmallBlocks:
    """A dataset whose blocks hold at most ``max_rows`` rows."""

    def __init__(self, data, max_rows):
        self.data, self.max_rows, self.d = data, max_rows, data.d

    def iter_group_blocks(self):
        return self.data.iter_group_blocks(max_rows=self.max_rows)


D = 4
W = np.array([0.8, -0.5, 0.3, 1.1])
B = 0.25


def rows_scoring(rng, targets):
    """Feature rows whose scores under (W, B) are close to ``targets``."""
    Z = rng.normal(size=(len(targets), D))
    shift = (np.asarray(targets) - (Z @ W + B)) / (W @ W)
    return Z + shift[:, None] * W


def edge_case_dataset(rng) -> Dataset:
    """Negative groups with ties, all-zero losses, single rows and edge maxima.

    Scores spread over every hinge piece at delta 0.5 (margins below 0, in
    [0, 1) and >= 1) and positive groups carry keys in every position.
    """
    groups = []  # (label, feature rows, key index)
    for targets, key in [([1.7], 0), ([-0.4, 0.9, 2.5], 0), ([0.2, 3.0], 1),
                         ([0.6, -1.2, 0.1, 0.4, 2.0], 4), ([-2.0], 0)]:
        groups.append((1, rows_scoring(rng, targets), key))
    neg_targets = [
        [-1.5], [0.3], [-0.7], [2.2],                # single rows
        [-3.0, -1.2, -5.0, -1.0001],                 # every margin >= 1
        [-4.0, -2.5, -1.0, -1.7],                    # smallest margin near 1
        [1.4, -0.3, 0.2, 0.9],                       # maximum on the first row
        [-0.9, 0.1, -1.6, 0.75],                     # maximum on the last row
        [-0.2, 0.45, -2.0, 0.3, -1.1],
        [0.05, -0.05, 0.6, -0.8, 0.59, 0.1],
    ]
    for targets in neg_targets:
        groups.append((-1, rows_scoring(rng, targets), None))
    # the maximal row repeated: twice in the middle and at the end, then
    # three times at the start, in the middle and at the end
    for top in (0.35, 1.8, -1.4):
        rows = rows_scoring(rng, [top - 0.5, top, top - 1.0, top])
        rows[3] = rows[1]
        groups.append((-1, rows, None))
    rows = rows_scoring(rng, [-0.6, -0.2, -0.9])
    groups.append((-1, np.vstack([rows[1], rows, rows[1]]), None))

    features, labels, gids, keys = [], [], [], []
    for gid, (label, rows, key) in enumerate(groups):
        for r, row in enumerate(rows):
            features.append(row)
            labels.append(label)
            gids.append(gid)
            keys.append(key == r)
    return Dataset(np.array(features), labels, gids, keys)


def nearby_models(rng):
    """(W, B) and four random perturbations of it."""
    return [LinearModel(W, B)] + [
        LinearModel(W + 0.2 * rng.normal(size=D), B + 0.2 * float(rng.normal()))
        for _ in range(4)
    ]


def sources(data, tmp_path):
    """The data in memory, in small blocks, and streamed in small chunks."""
    path = tmp_path / "edge.bin"
    save_binary(data, path)
    yield data
    for max_rows in (1, 3, 7, 11):
        yield SmallBlocks(data, max_rows)
    for chunk in (2, 5):
        yield BinaryDatasetReader(path, read_chunk_rows=chunk)
    yield SmallBlocks(BinaryDatasetReader(path, read_chunk_rows=3), 4)


class TestGroupMaxKernels:
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_objective_equals_per_row_formulation(self, rng, tmp_path, delta):
        data = edge_case_dataset(rng)
        hp = Hyperparams(lam=0.6, epsilon=0.7, delta=delta)
        for model in nearby_models(rng):
            # the loss sums follow the block partition, so the reference
            # reads the same blocks
            for source in sources(data, tmp_path):
                total, pos, neg = per_row_objective(model, source, hp)
                got = eval_grouped(model, source, hp)
                assert got.total == total
                assert got.positive_loss_term == pos
                assert got.negative_loss_term == neg

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_subgradient_equals_per_row_formulation(self, rng, tmp_path, delta):
        data = edge_case_dataset(rng)
        hp = Hyperparams(lam=0.6, epsilon=0.7, delta=delta)
        for model in nearby_models(rng):
            # the weight sums follow the block partition, so the reference
            # reads the same blocks
            for source in sources(data, tmp_path):
                grad_w, grad_b = per_row_subgradient(model, source, hp)
                got = eval_grouped(model, source, hp).gradient()
                assert np.array_equal(got[:-1], grad_w)
                assert got[-1] == grad_b

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_tied_scores_resolve_to_the_first_row(self, delta):
        # under w = (1, 1, 0), b = 0 the negative group's rows 1 and 3 both
        # score 0.75 exactly, from different features
        X = np.array([[2.0, 0.0, 0.0],
                      [-1.0, -1.0, 0.0], [0.5, 0.25, 4.0], [0.0, 0.0, 1.0],
                      [0.25, 0.5, -2.0]])
        data = Dataset(X, [1, -1, -1, -1, -1], [0, 1, 1, 1, 1],
                       [True, False, False, False, False])
        model = LinearModel(np.array([1.0, 1.0, 0.0]), 0.0)
        hp = Hyperparams(lam=0.5, delta=delta)
        got = eval_grouped(model, data, hp).gradient()
        grad_w, grad_b = per_row_subgradient(model, data, hp)
        assert np.array_equal(got[:-1], grad_w) and got[-1] == grad_b
        # the tied row that wins carries its third feature, 4.0
        lprime = smoothed_hinge_prime(-0.75, delta)
        assert got[2] == pytest.approx(-0.5 * lprime * 4.0)

    def test_edge_cases_are_present(self, rng):
        data = edge_case_dataset(rng)
        scores = data.X @ W + B
        neg = data.group_labels == -1
        sizes = np.diff(data.group_starts)
        top = np.maximum.reduceat(scores, data.group_starts[:-1])
        first = _group_argmax(scores, data.group_starts) - data.group_starts[:-1]
        assert np.any(neg & (sizes == 1))
        assert np.any(neg & (top <= -1.0) & (sizes > 1))
        assert np.any(neg & (first == 0) & (sizes > 1))
        assert np.any(neg & (first == sizes - 1) & (sizes > 1))
        ties = [np.count_nonzero(scores[lo:hi] == top[k]) > 1
                for k, (lo, hi) in enumerate(zip(data.group_starts[:-1],
                                                 data.group_starts[1:]))]
        assert np.any(neg & np.array(ties))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_delta_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        data = build_grouped_dataset(rng, 4, 7, 1, 6, 3)
        model = LinearModel(rng.normal(size=3), float(rng.normal()))
        hp = Hyperparams(lam=float(rng.uniform(0.1, 0.9)),
                         epsilon=float(rng.uniform(0.2, 2.0)),
                         delta=float(rng.uniform(0.0, 1.5)))
        expected = naive_grouped(model.w, model.b, data.X, data.labels,
                                 data.group_ids, data.is_key, hp.lam,
                                 hp.epsilon, hp.delta)
        assert eval_grouped(model, data, hp).total == pytest.approx(
            expected, rel=1e-12, abs=1e-12)
