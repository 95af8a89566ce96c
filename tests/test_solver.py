import numpy as np
import pytest

import gcm.train
from gcm import (
    BinaryDatasetReader,
    Dataset,
    DimensionMismatchError,
    DomainError,
    GeneratorSpec,
    Hyperparams,
    LinearModel,
    NumericalError,
    ObjectiveValue,
    SolverConfig,
    Termination,
    eval_grouped,
    eval_per_candidate,
    generate,
    minimize,
    save_binary,
    train_gcm,
    train_per_candidate,
)
from conftest import build_grouped_dataset


def value_of(total, grad):
    """An objective value for :func:`minimize`: a total and a gradient thunk."""
    return ObjectiveValue(total, total, 0.0, 0.0, grad)


def fused(f, g):
    """The objective callable of :func:`minimize`, from f and g."""
    return lambda x: value_of(f(x), lambda: g(x))


def per_candidate_problem(ds, hp):
    def f(p):
        return eval_per_candidate(LinearModel(p[:-1], float(p[-1])), ds, hp).total

    def g(p):
        return eval_per_candidate(LinearModel(p[:-1], float(p[-1])), ds,
                                  hp).gradient()

    return f, g


class TestQuadraticBowl:
    def test_converges_to_center(self, rng):
        center = rng.normal(size=6) * 3
        f = lambda x: float(np.sum((x - center) ** 2))
        g = lambda x: 2.0 * (x - center)
        point, trace = minimize(fused(f, g), rng.normal(size=6) * 5)
        assert np.allclose(point, center, atol=1e-8)
        assert trace.iterations <= 50
        assert trace.termination_reason in (
            Termination.GRAD_TOLERANCE, Termination.OBJ_TOLERANCE)


class TestOnObjectives:
    def test_per_candidate_matches_slow_gradient_descent(self):
        rng = np.random.default_rng(42)
        ds = build_grouped_dataset(rng, 20, 20, 4, 6, 5)
        assert ds.n_rows >= 160
        hp = Hyperparams(lam=0.5, epsilon=1.0, delta=0.5)
        f, g = per_candidate_problem(ds, hp)
        point, trace = minimize(fused(f, g), np.zeros(6),
                                SolverConfig(max_iterations=2000,
                                             rel_obj_tolerance=0.0))
        assert trace.final_grad_inf_norm <= 1e-6

        x = np.zeros(6)
        for _ in range(60000):
            x -= 0.25 * g(x)
        assert f(point) == pytest.approx(f(x), rel=1e-6)

    def test_grouped_descent_and_termination(self, rng):
        ds = build_grouped_dataset(rng, 10, 15, 3, 6, 4)
        hp = Hyperparams(lam=0.5)

        def f(p):
            return eval_grouped(LinearModel(p[:-1], float(p[-1])), ds, hp).total

        def g(p):
            return eval_grouped(LinearModel(p[:-1], float(p[-1])), ds,
                                hp).gradient()

        point, trace = minimize(fused(f, g), np.zeros(5))
        hist = np.array(trace.objective_history)
        assert np.all(np.diff(hist) <= 1e-15)
        assert trace.iterations < SolverConfig().max_iterations

    def test_global_optimum_from_random_starts(self):
        rng = np.random.default_rng(7)
        ds = build_grouped_dataset(rng, 10, 10, 3, 5, 4)
        hp = Hyperparams(lam=0.5, epsilon=1.0, delta=0.5)
        f, g = per_candidate_problem(ds, hp)
        finals = []
        for _ in range(2):
            start = rng.normal(size=5) * 2
            point, _ = minimize(fused(f, g), start)
            finals.append(f(point))
        assert finals[0] == pytest.approx(finals[1], rel=1e-6)


class TestSolverBehavior:
    def test_monotone_history(self, rng):
        f = lambda x: float(np.sum(x ** 4) + np.sum(x ** 2))
        g = lambda x: 4 * x ** 3 + 2 * x
        _, trace = minimize(fused(f, g), rng.normal(size=4) * 2)
        hist = np.array(trace.objective_history)
        assert np.all(np.diff(hist) <= 1e-15)

    def test_determinism(self, rng):
        ds = build_grouped_dataset(rng, 5, 5, 2, 4, 3)
        hp = Hyperparams(lam=0.5)
        f, g = per_candidate_problem(ds, hp)
        p1, t1 = minimize(fused(f, g), np.zeros(4))
        p2, t2 = minimize(fused(f, g), np.zeros(4))
        assert np.array_equal(p1, p2)
        assert t1.objective_history == t2.objective_history

    def test_line_search_failure_is_benign(self):
        # |x| with the sign subgradient: near 0 no Armijo step can succeed
        f = lambda x: float(np.abs(x[0]))
        g = lambda x: np.array([1.0 if x[0] >= 0 else -1.0])
        point, trace = minimize(fused(f, g), np.array([1.0]),
                                SolverConfig(max_iterations=500))
        assert trace.termination_reason == Termination.LINE_SEARCH_FAILURE
        assert abs(point[0]) < 1e-6

    @pytest.mark.parametrize("problem", ["exact-hinge", "abs"])
    def test_gradient_only_at_start_and_accepted_steps(self, problem, rng):
        if problem == "exact-hinge":
            # delta 0: the exact hinge makes the line search backtrack
            ds = build_grouped_dataset(rng, 8, 8, 2, 5, 3)
            f, g = per_candidate_problem(ds, Hyperparams(lam=0.5, delta=0.0))
            start = np.zeros(4)
        else:
            # ends in a line-search failure: its trials are all rejected
            f = lambda x: float(np.abs(x[0]))
            g = lambda x: np.array([1.0 if x[0] >= 0 else -1.0])
            start = np.array([1.0])
        priced, graded = [], []

        def objective(x):
            index = len(priced)
            priced.append(f(x))

            def grad():
                graded.append(index)
                return g(x)

            return value_of(priced[index], grad)

        _, trace = minimize(objective, start,
                            SolverConfig(max_iterations=500))
        assert len(graded) == 1 + trace.iterations
        assert len(priced) > len(graded)  # some trials were rejected
        # each gradient belongs to the start or to an accepted step
        assert [priced[i] for i in graded] == trace.objective_history
        assert graded == sorted(set(graded))

    def test_nonfinite_start_rejected(self):
        with pytest.raises(NumericalError):
            minimize(fused(lambda x: float("nan"), lambda x: x), np.zeros(2))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 2.5),
        ("max_iterations", float("inf")),
        ("max_iterations", 10.0),
        ("max_iterations", "10"),
        ("max_iterations", -3),
        ("grad_inf_tolerance", float("nan")),
        ("grad_inf_tolerance", -1e-6),
        ("grad_inf_tolerance", "0"),
        ("rel_obj_tolerance", float("nan")),
        ("rel_obj_tolerance", -1e-10),
        ("rel_obj_tolerance", None),
    ])
    def test_config_refuses_what_a_solve_cannot_run(self, field, value):
        # a cap that range() refuses would fail only after the start point
        # is priced, and a NaN or negative tolerance never fires
        with pytest.raises(DomainError, match=field):
            SolverConfig(**{field: value})

    def test_zero_tolerances_run_a_fixed_number_of_iterations(self):
        cfg = SolverConfig(max_iterations=np.int64(3), grad_inf_tolerance=0.0,
                           rel_obj_tolerance=0.0)
        # exp has no minimizer: no tolerance of 0 can fire
        _, trace = minimize(fused(lambda x: float(np.sum(np.exp(x))), np.exp),
                            np.array([3.0, -4.0]), cfg)
        assert trace.iterations == 3
        assert trace.termination_reason is Termination.MAX_ITERATIONS


class TestTrainers:
    def test_train_per_candidate_and_gcm_run(self, rng):
        ds = build_grouped_dataset(rng, 6, 8, 2, 5, 3)
        hp = Hyperparams(lam=0.5)
        m1, t1 = train_per_candidate(ds, hp)
        m2, t2 = train_gcm(ds, hp)
        assert m1.d == ds.d and m2.d == ds.d
        assert t1.objective_history[-1] <= t1.objective_history[0]
        assert t2.objective_history[-1] <= t2.objective_history[0]

    @pytest.mark.parametrize("width", [2, 4])
    @pytest.mark.parametrize("source", ["gcm", "per-candidate", "gcm-stream"])
    def test_start_of_another_width_is_refused_before_any_pass(
            self, source, width, rng, tmp_path, monkeypatch):
        ds = build_grouped_dataset(rng, 4, 6, 2, 4, 3)
        path = tmp_path / "d.bin"
        save_binary(ds, path)
        data = BinaryDatasetReader(path) if source == "gcm-stream" else ds
        trainer = train_per_candidate if source == "per-candidate" else train_gcm

        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran before the start was checked")

        for owner, name in ((gcm.train, "eval_grouped"),
                            (gcm.train, "eval_per_candidate"),
                            (Dataset, "iter_group_blocks"),
                            (BinaryDatasetReader, "iter_group_blocks")):
            monkeypatch.setattr(owner, name, no_pass)
        start = LinearModel(np.ones(width), 0.5)
        with pytest.raises(DimensionMismatchError, match="start"):
            trainer(data, Hyperparams(lam=0.5), start=start)

    def test_lambda_one_warns(self, rng):
        ds = build_grouped_dataset(rng, 2, 2, 1, 3, 2)
        with pytest.warns(UserWarning, match="lam=1"):
            train_per_candidate(ds, Hyperparams(lam=1.0),
                                SolverConfig(max_iterations=5))


class TestFusedGradient:
    """Trainers take each gradient from the pass that priced the point.

    The reference solve prices each point with ``eval_*(...).total`` and
    takes each gradient from a fresh ``eval_*(...).gradient()`` pass at that
    point.
    """

    CFG = SolverConfig(max_iterations=40)

    @staticmethod
    def reference(evaluate, data, hp, start):
        def objective(p):
            model = LinearModel(p[:-1], float(p[-1]))
            return value_of(evaluate(model, data, hp).total,
                            lambda: evaluate(model, data, hp).gradient())

        point, trace = minimize(objective, start, TestFusedGradient.CFG)
        return LinearModel(point[:-1], float(point[-1])), trace

    @staticmethod
    def assert_same(got, want):
        (model, trace), (ref_model, ref_trace) = got, want
        assert model.w.tobytes() == ref_model.w.tobytes()
        assert model.b == ref_model.b
        assert trace.objective_history == ref_trace.objective_history
        assert trace.iterations == ref_trace.iterations > 1

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_train_gcm_in_memory_and_streamed(self, delta, tmp_path):
        # generated rather than build_grouped_dataset: on pure noise the
        # zero start's tied group maxima give no descent step at all
        ds = generate(GeneratorSpec(seed=5, n_pos_groups=10, n_neg_groups=30,
                                    group_size_min=2, group_size_max=7, d=4))
        hp = Hyperparams(lam=0.5, delta=delta)
        want = self.reference(eval_grouped, ds, hp, np.zeros(5))
        self.assert_same(train_gcm(ds, hp, self.CFG), want)
        path = tmp_path / "d.bin"
        save_binary(ds, path)
        reader = BinaryDatasetReader(path, read_chunk_rows=9)
        self.assert_same(train_gcm(reader, hp, self.CFG), want)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_train_per_candidate(self, delta, rng):
        ds = build_grouped_dataset(rng, 12, 20, 2, 7, 4)
        hp = Hyperparams(lam=0.5, delta=delta)
        start = LinearModel(rng.normal(size=4), 0.3)
        want = self.reference(eval_per_candidate, ds, hp,
                              np.concatenate([start.w, [start.b]]))
        self.assert_same(train_per_candidate(ds, hp, self.CFG, start=start),
                         want)
