import tracemalloc

import numpy as np
import pytest

from gcm import (
    AffineScaler,
    Dataset,
    DimensionMismatchError,
    DomainError,
    ExpansionSpec,
    FeaturePipeline,
    LinearModel,
    MalformedRecordError,
    NumericalError,
    expand_matrix,
    expanded_dimension,
    monomial_exponents,
    monomial_names,
)
from conftest import build_grouped_dataset
from oracles import enumerate_monomials


class TestMonomialEnumeration:
    def test_two_features_degree_three_gives_nine(self):
        names = monomial_names(2, 3)
        assert len(names) == 9
        assert set(names) == {
            "x1", "x2", "x1^2", "x2^2", "x1^3", "x2^3",
            "x1*x2", "x1*x2^2", "x1^2*x2",
        }

    def test_canonical_order_is_graded_lexicographic(self):
        assert monomial_names(2, 3) == [
            "x1", "x2", "x1^2", "x1*x2", "x2^2",
            "x1^3", "x1^2*x2", "x1*x2^2", "x2^3",
        ]

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("degree", range(1, 5))
    def test_count_matches_closed_form_and_oracle(self, d, degree):
        exps = monomial_exponents(d, degree)
        assert len(exps) == expanded_dimension(d, degree)
        assert set(exps) == enumerate_monomials(d, degree)

    def test_three_features_degree_two(self):
        assert expanded_dimension(3, 2) == 9


def lift(data, degree):
    return FeaturePipeline(data.d, ExpansionSpec(degree=degree)).apply(data)


class TestExpand:
    def test_degree_one_is_identity(self, rng):
        ds = build_grouped_dataset(rng, 2, 2, 1, 3, 4)
        out = lift(ds, 1)
        assert np.array_equal(out.X, ds.X)

    def test_metadata_untouched(self, rng):
        ds = build_grouped_dataset(rng, 2, 3, 2, 4, 3)
        out = lift(ds, 2)
        assert np.array_equal(out.labels, ds.labels)
        assert np.array_equal(out.group_ids, ds.group_ids)
        assert np.array_equal(out.is_key, ds.is_key)
        assert out.d == expanded_dimension(3, 2)

    def test_commutes_with_row_permutation(self, rng):
        X = rng.normal(size=(10, 3))
        perm = rng.permutation(10)
        spec = ExpansionSpec(degree=3)
        assert np.array_equal(expand_matrix(X[perm], spec),
                              expand_matrix(X, spec)[perm])

    def test_scoring_matches_direct_polynomial_evaluation(self, rng):
        spec = ExpansionSpec(degree=3)
        X = rng.normal(size=(20, 2))
        lifted = expand_matrix(X, spec)
        model = LinearModel(rng.normal(size=lifted.shape[1]), 0.7)
        scores = model.raw_scores(lifted)
        exps = monomial_exponents(2, 3)
        for i in range(20):
            direct = model.b + sum(
                wj * np.prod(X[i] ** np.array(e))
                for wj, e in zip(model.w, exps)
            )
            assert scores[i] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_bad_degree_rejected(self):
        with pytest.raises(DomainError):
            ExpansionSpec(degree=0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_monomial_is_rejected_at_its_group(self):
        ds = Dataset([[1.0], [1e200], [2.0]], [1, -1, -1], [0, 4, 5],
                     [True, False, False])
        for standardize in (False, True):
            with pytest.raises(MalformedRecordError, match=r"group 4\b"):
                FeaturePipeline.fit(ds, ExpansionSpec(degree=2), standardize)


class TestAffineScaler:
    def test_fit_transform_standardizes(self, rng):
        ds = build_grouped_dataset(rng, 4, 4, 5, 8, 3)
        pipeline, out = FeaturePipeline.fit(ds, standardize=True)
        assert np.array_equal(pipeline.scaler.shift, ds.X.mean(axis=0))
        assert np.allclose(out.X.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.X.std(axis=0), 1.0, atol=1e-12)

    def test_constant_feature_passthrough(self):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        scaler = AffineScaler.fit(X)
        assert scaler.scale[0] == 1.0
        ds = Dataset(X, [1, 1, -1, -1], [0, 1, 2, 3],
                     [True, True, False, False])
        out = FeaturePipeline(2, scaler=scaler).apply(ds)
        assert np.allclose(out.X[:, 0], 0.0)

    def test_dimension_mismatch(self, rng):
        ds3 = build_grouped_dataset(rng, 2, 2, 1, 3, 3)
        ds2 = build_grouped_dataset(rng, 2, 2, 1, 3, 2)
        pipeline, _ = FeaturePipeline.fit(ds3, standardize=True)
        with pytest.raises(DimensionMismatchError):
            pipeline.apply(ds2)
        with pytest.raises(DomainError, match="scaler has 3 features"):
            FeaturePipeline(3, ExpansionSpec(degree=2), pipeline.scaler)

    def test_zero_scale_rejected(self):
        with pytest.raises(DomainError):
            AffineScaler(np.zeros(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("field", ["shift", "scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_shift_or_scale_rejected(self, field, value):
        vectors = {"shift": np.zeros(2), "scale": np.ones(2)}
        vectors[field][1] = value
        with pytest.raises(DomainError, match="finite"):
            AffineScaler(**vectors)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_deviation_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="feature 2"):
            AffineScaler.fit(np.array([[0.0, 1e300], [1.0, -1e300]]))


class TestFeaturePipeline:
    def test_identity_returns_its_input(self, rng):
        ds = build_grouped_dataset(rng, 2, 3, 1, 4, 3)
        pipeline, out = FeaturePipeline.fit(ds)
        assert out is ds
        assert pipeline.apply(ds) is ds

    @pytest.mark.parametrize("degree", [None, 2])
    @pytest.mark.parametrize("standardize", [False, True])
    def test_apply_repeats_fit(self, rng, degree, standardize):
        # scaling a fresh lift in place gives the bits of lift, then scale
        ds = build_grouped_dataset(rng, 3, 5, 2, 6, 3)
        spec = None if degree is None else ExpansionSpec(degree=degree)
        pipeline, fitted = FeaturePipeline.fit(ds, spec, standardize)
        X = ds.X if spec is None else expand_matrix(ds.X, spec)
        if standardize:
            X = (X - X.mean(axis=0)) / X.std(axis=0)
        assert np.array_equal(fitted.X, X)
        assert np.array_equal(pipeline.apply(ds).X, X)
        assert pipeline.output_d == X.shape[1]
        # an adopted matrix makes the same dataset as the constructor's copy
        want = Dataset(X, ds.labels, ds.group_ids, ds.is_key)
        for name in ("X", "labels", "group_ids", "is_key", "group_starts",
                     "group_labels"):
            got, ref = getattr(fitted, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert got.flags.writeable == ref.flags.writeable
        assert fitted.X.flags.f_contiguous
        assert ((fitted.n_pos_rows, fitted.n_neg_rows, fitted.n_pos_groups,
                 fitted.n_neg_groups) == (want.n_pos_rows, want.n_neg_rows,
                                          want.n_pos_groups,
                                          want.n_neg_groups))

    def test_lifted_matrix_is_kept_not_copied(self, rng):
        ds = build_grouped_dataset(rng, 40, 160, 20, 40, 13)
        tracemalloc.start()
        try:
            _, out = FeaturePipeline.fit(ds, ExpansionSpec(degree=2), True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.d == 104
        assert peak < 1.5 * out.X.nbytes  # a second copy would make it 2x

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_scaled_value_is_rejected_at_its_group(self):
        ds = Dataset([[1.0], [1e10], [2.0]], [1, -1, -1], [0, 4, 5],
                     [True, False, False])
        pipeline = FeaturePipeline(1, scaler=AffineScaler([0.0], [1e-300]))
        with pytest.raises(MalformedRecordError, match=r"group 4\b"):
            pipeline.apply(ds)

    def test_bad_input_width_rejected(self):
        with pytest.raises(DomainError):
            FeaturePipeline(0)
