import numpy as np
import pytest

from gcm import (
    AffineScaler,
    Dataset,
    DimensionMismatchError,
    DomainError,
    ExpansionSpec,
    LinearModel,
    expand,
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


class TestExpand:
    def test_degree_one_is_identity(self, rng):
        ds = build_grouped_dataset(rng, 2, 2, 1, 3, 4)
        out = expand(ds, ExpansionSpec(degree=1))
        assert np.array_equal(out.X, ds.X)

    def test_metadata_untouched(self, rng):
        ds = build_grouped_dataset(rng, 2, 3, 2, 4, 3)
        out = expand(ds, ExpansionSpec(degree=2))
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


class TestAffineScaler:
    def test_fit_transform_standardizes(self, rng):
        ds = build_grouped_dataset(rng, 4, 4, 5, 8, 3)
        scaler = AffineScaler.fit(ds)
        out = scaler.transform(ds)
        assert np.allclose(out.X.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.X.std(axis=0), 1.0, atol=1e-12)

    def test_constant_feature_passthrough(self):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        ds = Dataset(X, [1, 1, -1, -1], [0, 1, 2, 3],
                     [True, True, False, False])
        scaler = AffineScaler.fit(ds)
        out = scaler.transform(ds)
        assert np.allclose(out.X[:, 0], 0.0)

    def test_dimension_mismatch(self, rng):
        ds3 = build_grouped_dataset(rng, 2, 2, 1, 3, 3)
        ds2 = build_grouped_dataset(rng, 2, 2, 1, 3, 2)
        scaler = AffineScaler.fit(ds3)
        with pytest.raises(DimensionMismatchError):
            scaler.transform(ds2)

    def test_zero_scale_rejected(self):
        with pytest.raises(DomainError):
            AffineScaler(np.zeros(2), np.array([1.0, 0.0]))
