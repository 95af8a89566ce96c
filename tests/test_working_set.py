"""Working-set pricing of the grouped objective (``gcm.objectives._WorkingSet``).

Every value priced with a working set, at a zero point or at a power-of-two
multiple of the latest full pass's point, must equal the plain full pass bit
for bit: the total, the three terms and the gradient bytes. The solves that
use it must return the same models and traces as solves over a block source
that hides its :class:`~gcm.Dataset` type, which gets plain passes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcm.evaluation
import gcm.train
from gcm import (
    Algorithm,
    BinaryDatasetReader,
    Dataset,
    GeneratorSpec,
    Hyperparams,
    LinearModel,
    SolverConfig,
    cross_validate,
    eval_grouped,
    eval_per_candidate,
    generate,
    hard_negatives_spec,
    save_binary,
    train_gcm,
)
from gcm.evaluation import CvPlan
from gcm.objectives import _WorkingSet
from oracles import naive_grouped


class BlockSource:
    """The group-aligned blocks of a dataset, without its ``Dataset`` type."""

    def __init__(self, data):
        self.d = data.d
        self.iter_group_blocks = data.iter_group_blocks


def as_model(point) -> LinearModel:
    return LinearModel(np.asarray(point[:-1]), float(point[-1]))


def assert_same_value(got, want):
    assert (got.total, got.regularization_term, got.positive_loss_term,
            got.negative_loss_term) == (
        want.total, want.regularization_term, want.positive_loss_term,
        want.negative_loss_term)
    assert got.gradient().tobytes() == want.gradient().tobytes()


def price_along(data, hp, points):
    """Price ``points`` in turn with one working set; check each against a
    plain pass, and return the rows each working-set call scored."""
    state = _WorkingSet()
    rows = []
    for point in points:
        model = as_model(point)
        got = eval_grouped(model, data, hp, _working_set=state)
        assert_same_value(got, eval_grouped(model, data, hp))
        rows.append(got.rows)
    return rows


def random_dataset(rng, n_pos, n_neg, d, duplicates):
    """Groups of 3 to 20 rows; with ``duplicates``, a negative group's rows
    are drawn with repeats from two thirds as many distinct rows, so some of
    its scores tie at every point."""
    X, labels, gids, keys = [], [], [], []
    for g in range(n_pos + n_neg):
        size = int(rng.integers(3, 21))
        rows = rng.normal(size=(size, d))
        if g >= n_pos and duplicates:
            rows = rows[rng.integers(0, 2 * size // 3, size)]
        X.append(rows)
        labels += [1 if g < n_pos else -1] * size
        gids += [g] * size
        key = int(rng.integers(0, size))
        keys += [g < n_pos and r == key for r in range(size)]
    return Dataset(np.vstack(X), labels, gids, keys)


@st.composite
def pricing_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(1, 4))
    data = random_dataset(rng, draw(st.integers(1, 4)),
                          draw(st.integers(2, 12)), d, draw(st.booleans()))
    hp = Hyperparams(lam=draw(st.sampled_from([0.3, 0.9])),
                     delta=draw(st.sampled_from([0.0, 0.5])))
    # steps from 1e-13 to 10, in an order that both grows and shrinks them
    exponents = draw(st.lists(st.integers(-13, 1), min_size=3, max_size=14))
    point = rng.normal(size=d + 1)
    points = [point]
    for e in exponents:
        step = rng.normal(size=d + 1)
        point = point + 10.0 ** e * step / np.linalg.norm(step)
        if draw(st.booleans()):
            # shift the bias so that one negative group's maximum lies
            # within a few ulps of -1
            scores = data.X @ point[:-1] + point[-1]
            g = int(rng.integers(data.n_pos_groups, data.n_groups))
            lo, hi = data.group_starts[g], data.group_starts[g + 1]
            point = point.copy()
            point[-1] -= scores[lo:hi].max() + 1.0
            point[-1] += int(rng.integers(-3, 4)) * np.spacing(point[-1])
        points.append(point)
        if draw(st.integers(0, 5)) == 0:
            points.append(point)  # the same point twice: a zero step
    return data, hp, points


class TestExactness:
    @settings(max_examples=150, deadline=None)
    @given(pricing_cases())
    def test_equals_the_full_pass_bit_for_bit(self, case):
        price_along(*case)

    @settings(max_examples=30, deadline=None)
    @given(pricing_cases())
    def test_matches_the_naive_oracle(self, case):
        data, hp, points = case
        state = _WorkingSet()
        for point in points:
            value = eval_grouped(as_model(point), data, hp, _working_set=state)
            want = naive_grouped(point[:-1], point[-1], data.X, data.labels,
                                 data.group_ids, data.is_key, hp.lam,
                                 hp.epsilon, hp.delta)
            assert value.total == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_small_steps_are_priced_on_the_working_set(self, delta):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 3, 12, 3, duplicates=False)
        start = rng.normal(size=4)
        direction = rng.normal(size=4)
        # the set is built at the second point, with theta = 1e-3 |direction|;
        # the next four lie within theta / 2 of it
        points = [start + s * direction for s in (0.0, 1e-3, 1.2e-3, 1.5e-3,
                                                  1.4e-3, 1.45e-3, 1.0)]
        rows = price_along(data, Hyperparams(0.5, delta=delta), points)
        assert rows[:2] == [data.n_rows] * 2  # no set before the second pass
        assert all(r < data.n_rows / 4 for r in rows[2:-1])
        assert rows[-1] > data.n_rows  # a long step fails the certificate

    def test_tied_maxima_resolve_to_the_first_row(self):
        # each negative group holds its maximal row at the start twice,
        # after its first copy; both copies tie at every point
        rng = np.random.default_rng(11)
        start = rng.normal(size=3)
        X = [rng.normal(size=(30, 2))]
        for _ in range(10):
            rows = rng.normal(size=(12, 2))
            top = int(np.argmax(rows @ start[:-1]))
            X.append(np.insert(rows, int(rng.integers(top + 1, 13)),
                               rows[top], axis=0))
        data = Dataset(np.vstack(X), [1] * 30 + [-1] * 130,
                       [0] * 30 + list(np.repeat(np.arange(1, 11), 13)),
                       [True] + [False] * 159)
        points = [start + s * np.array([1.0, -1.0, 0.5])
                  for s in (0.0, 1e-6, 2e-6, 1.5e-6)]
        for delta in (0.0, 0.5):
            rows = price_along(data, Hyperparams(0.5, delta=delta), points)
            assert rows[2:] == [1 + 20, 1 + 20]  # the key and both copies

    def test_rounding_slack_is_needed(self):
        """The score bound needs its rounding term ``eta``.

        Scores here are ``2**60 + x0 w0 - (2**60 + 2**40)``: the first sum
        rounds to a multiple of 256. Moving ``w0`` by one ulp changes the
        exact scores by about 2**-12, but carries the first row's sum across
        a rounding midpoint, so its score jumps from 256 to 512 and ties the
        second row's. The first row was dropped at the build (its score was
        below ``512 - 2 P theta = 384``), so without ``eta`` the set would
        certify the second row as the maximum; the full pass takes the first.
        """
        big = 2.0 ** 40
        X = np.array([[0.0, 0.0]] * 10
                     + [[big + 384 - 2.0 ** -12, 1024.0], [big + 512, 1024.0]])
        data = Dataset(X, [1] * 10 + [-1, -1], [0] * 10 + [1, 1],
                       [True] + [False] * 11)
        w1, b = -(2.0 ** 50 + 2.0 ** 30), 2.0 ** 60
        points = [(1.0 - 2.0 ** -34, w1, b), (1.0, w1, b),
                  (1.0 + 2.0 ** -52, w1, b)]
        rows = price_along(data, Hyperparams(0.5), points)
        assert rows == [12, 12, 2 + 12]  # the set fails, then a full pass

    def test_lam_zero_prices_no_rows(self, rng):
        data = random_dataset(rng, 2, 4, 2, duplicates=False)
        value = eval_grouped(as_model([0.5, -0.5, 0.1]), data,
                             Hyperparams(0.0), _working_set=_WorkingSet())
        assert value.rows == 0


#: Column factors: as drawn, about 1e-300, and into the subnormal range.
COLUMN_SCALES = (1.0, 1e-300, 2.0 ** -1060)
#: Exponents for the entries of the full pass's point: ordinary ones, and
#: some near 2^-1000, where the scaled scores leave the normal range.
POINT_EXPONENTS = (0, 0, -40, -990, -1000)


@st.composite
def scaling_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(1, 4))
    data = random_dataset(rng, draw(st.integers(1, 3)),
                          draw(st.integers(2, 8)), d, draw(st.booleans()))
    # half the cases are ordinary, where every multiple can be scaled
    extreme = draw(st.booleans())
    scales = st.sampled_from(COLUMN_SCALES if extreme else (1.0,))
    exponents = st.sampled_from(POINT_EXPONENTS if extreme else (0,))
    X = data.X * [draw(scales) for _ in range(d)]
    X[rng.random(X.shape) < 0.2] = 0.0
    data = Dataset(X, data.labels, data.group_ids, data.is_key)
    point = rng.normal(size=d + 1) * np.exp2(
        [draw(exponents) for _ in range(d + 1)])
    point[rng.random(d + 1) < 0.2] = 0.0
    hp = Hyperparams(lam=draw(st.sampled_from([0.3, 0.9])),
                     delta=draw(st.sampled_from([0.0, 0.5])))
    return data, hp, point


def first_line_search(point):
    """The zero start, then ``point`` and its multiples ``2^-k`` for k = 1..40."""
    return [np.zeros(point.size), point] + [np.ldexp(point, -k)
                                            for k in range(1, 41)]


class TestZeroAndScaledPoints:
    @settings(max_examples=100, deadline=None)
    @given(scaling_cases())
    def test_equal_the_full_pass_bit_for_bit(self, case):
        data, hp, point = case
        rows = price_along(data, hp, first_line_search(point))
        assert rows[0] == 0

    @settings(max_examples=20, deadline=None)
    @given(scaling_cases())
    def test_match_the_naive_oracle(self, case):
        data, hp, point = case
        state = _WorkingSet()
        for z in first_line_search(point):
            value = eval_grouped(as_model(z), data, hp, _working_set=state)
            want = naive_grouped(z[:-1], z[-1], data.X, data.labels,
                                 data.group_ids, data.is_key, hp.lam,
                                 hp.epsilon, hp.delta)
            assert value.total == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_first_line_search_scores_one_pass(self, delta):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 3, 12, 3, duplicates=True)
        hp = Hyperparams(0.5, delta=delta)
        # the solver's first direction: the negative gradient at zero
        p = -eval_grouped(as_model(np.zeros(4)), data, hp).gradient()
        rows = price_along(data, hp, first_line_search(p))
        assert rows == [0, data.n_rows] + [0] * 40

    def test_guard_refuses_scores_that_turn_subnormal(self):
        """At ``z1 = (1, 0, 0)`` the negative group's scores are the least
        normal float and the next one up, so its second row is the maximum.
        Halving ``z1`` rounds both scores to ``2^-1023`` in the subnormal
        range, where they tie and the first row becomes the maximum: its
        second feature differs, and so does the gradient. Scaling the
        recorded scores would keep the second row; the guard refuses, since
        the first column's least entry has ulp exponent -1074."""
        tiny = np.finfo(np.float64).smallest_normal
        X = np.array([[0.0, 0.0], [tiny, 1.0], [np.nextafter(tiny, 1.0), 2.0]])
        data = Dataset(X, [1, -1, -1], [0, 1, 1], [True, False, False])
        rows = price_along(data, Hyperparams(0.5, delta=0.0),
                           [(1.0, 0.0, 0.0), (0.5, 0.0, 0.0)])
        assert rows == [3, 3]


class TestRowsPriced:
    def test_streamed_solve_prices_every_row_at_every_call(self, tmp_path,
                                                           monkeypatch):
        data = generate(GeneratorSpec(seed=3, n_pos_groups=8, n_neg_groups=40))
        path = tmp_path / "d.bin"
        save_binary(data, path)
        cfg = SolverConfig(max_iterations=30)
        calls = []

        def counted(model, source, hp, **state):
            calls.append(source)
            return eval_grouped(model, source, hp, **state)

        monkeypatch.setattr(gcm.train, "eval_grouped", counted)
        _, streamed = train_gcm(BinaryDatasetReader(path), Hyperparams(0.5), cfg)
        _, in_memory = train_gcm(data, Hyperparams(0.5), cfg)
        n_streamed = sum(isinstance(s, BinaryDatasetReader) for s in calls)
        assert streamed.rows_priced == n_streamed * data.n_rows
        assert in_memory.rows_priced < (len(calls) - n_streamed) * data.n_rows


def assert_same_solve(got, want):
    (model, trace), (ref_model, ref_trace) = got, want
    assert model.w.tobytes() == ref_model.w.tobytes()
    assert model.b == ref_model.b
    assert trace.objective_history == ref_trace.objective_history
    assert trace.iterations == ref_trace.iterations
    assert trace.termination_reason == ref_trace.termination_reason
    assert trace.final_grad_inf_norm == ref_trace.final_grad_inf_norm


class TestSolves:
    def test_criterion_fixture_solve(self):
        """The criterion 7/8 solve: same model, about a third of the rows."""
        train = generate(hard_negatives_spec(seed=2004))
        hp = Hyperparams(lam=0.5, epsilon=1.0, delta=0.5)
        cfg = SolverConfig(max_iterations=400)
        screened = train_gcm(train, hp, cfg)
        full = train_gcm(BlockSource(train), hp, cfg)
        assert_same_solve(screened, full)
        assert screened[1].rows_priced <= 0.40 * full[1].rows_priced

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_small_solves(self, delta):
        data = generate(GeneratorSpec(seed=5, n_pos_groups=10, n_neg_groups=30,
                                      group_size_min=2, group_size_max=7, d=4))
        hp = Hyperparams(lam=0.5, delta=delta)
        cfg = SolverConfig(max_iterations=60)
        screened = train_gcm(data, hp, cfg)
        full = train_gcm(BlockSource(data), hp, cfg)
        assert_same_solve(screened, full)
        # at least the zero start scores no row
        assert screened[1].rows_priced <= full[1].rows_priced - data.n_rows

    def test_cross_validate(self, monkeypatch):
        data = generate(hard_negatives_spec(seed=7, n_pos_groups=12,
                                            n_neg_groups=60))
        plan = CvPlan(folds=3, lambda_grid=(0.3, 0.7), seed=7)
        cfg = SolverConfig(max_iterations=100)
        screened = [cross_validate(data, Algorithm.GCM, plan, delta=delta,
                                   solver_cfg=cfg) for delta in (0.0, 0.5)]
        plain = gcm.evaluation.train_gcm
        monkeypatch.setattr(gcm.evaluation, "train_gcm",
                            lambda d, hp, c: plain(BlockSource(d), hp, c))
        assert [cross_validate(data, Algorithm.GCM, plan, delta=delta,
                               solver_cfg=cfg)
                for delta in (0.0, 0.5)] == screened
