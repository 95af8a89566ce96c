"""Working-set pricing of the grouped objective (``gcm.objectives._WorkingSet``).

Every value priced with a working set, at a zero point or at a power-of-two
multiple of the latest full pass's point, must equal the plain full pass bit
for bit: the total, the three terms and the gradient bytes, whether the set
reads an in-memory :class:`~gcm.Dataset` or a streamed file. The solves that
use it must return the same models and traces as solves that price every
point with a plain full pass, and a streamed solve must equal the in-memory
one, ``rows_priced`` included, while decoding its file less often than it
prices a point. Warm-started solves keep both contracts, and a set carried
from one solve to the next gives each the solve of a fresh set.
"""

import contextlib
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcm.evaluation
import gcm.objectives
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
from gcm.model import DEFAULT_BLOCK_ROWS
from gcm.objectives import _MAX_SET_BYTES, _MAX_SHARE, _WorkingSet
from gcm.solver import minimize
from oracles import naive_grouped


class BlockSource:
    """The group-aligned blocks of a dataset, without its ``Dataset`` type:
    a solve over it measures its rows as a stream does."""

    def __init__(self, data):
        self.d = data.d
        self.iter_group_blocks = data.iter_group_blocks


@contextlib.contextmanager
def block_budget(rows):
    """Cut every dataset's and every binary reader's group blocks at
    ``rows`` rows, so that a pass over a small dataset spans several
    blocks."""
    functions = (Dataset.iter_group_blocks,
                 BinaryDatasetReader.iter_group_blocks)
    defaults = [f.__defaults__ for f in functions]
    for f in functions:
        f.__defaults__ = (rows,)
    try:
        yield
    finally:
        for f, saved in zip(functions, defaults):
            f.__defaults__ = saved


@contextlib.contextmanager
def binary_copy(data):
    """The path of a binary file that holds ``data``, removed on exit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.bin")
        save_binary(data, path)
        yield path


def arrays_in(value):
    """Every array in ``value``, looking into tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)


def as_model(point) -> LinearModel:
    return LinearModel(np.asarray(point[:-1]), float(point[-1]))


def assert_same_value(got, want):
    assert (got.total, got.regularization_term, got.positive_loss_term,
            got.negative_loss_term) == (
        want.total, want.regularization_term, want.positive_loss_term,
        want.negative_loss_term)
    assert got.gradient().tobytes() == want.gradient().tobytes()


def price_along(data, hp, points, source=None):
    """Price ``points`` in turn with one working set over ``source``
    (``data`` when None); check each against a plain pass over ``data``, and
    return the rows each working-set call scored."""
    state = _WorkingSet()
    rows = []
    for point in points:
        model = as_model(point)
        got = eval_grouped(model, data if source is None else source, hp,
                           _working_set=state)
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
    # a small budget cuts the rows into several blocks, each summed apart
    block_rows = draw(st.integers(1, 64) | st.just(DEFAULT_BLOCK_ROWS))
    return data, hp, points, block_rows


class TestExactness:
    @settings(max_examples=150, deadline=None)
    @given(pricing_cases())
    def test_equals_the_full_pass_bit_for_bit(self, case):
        data, hp, points, block_rows = case
        with block_budget(block_rows):
            price_along(data, hp, points)

    @settings(max_examples=60, deadline=None)
    @given(pricing_cases(), st.integers(1, 16))
    def test_streamed_equals_the_full_pass_bit_for_bit(self, case, chunk):
        """A streamed set, read in chunks of a few rows and cut into small
        blocks, prices each point as the in-memory set does."""
        data, hp, points, block_rows = case
        with block_budget(block_rows), binary_copy(data) as path:
            reader = BinaryDatasetReader(path, read_chunk_rows=chunk)
            assert (price_along(data, hp, points, reader)
                    == price_along(data, hp, points))

    @settings(max_examples=30, deadline=None)
    @given(pricing_cases())
    def test_matches_the_naive_oracle(self, case):
        data, hp, points, block_rows = case
        state = _WorkingSet()
        with block_budget(block_rows):
            values = [eval_grouped(as_model(point), data, hp,
                                   _working_set=state) for point in points]
        for point, value in zip(points, values):
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

    def test_set_shares_the_byte_budget_with_the_gathered_rows(
            self, monkeypatch):
        """Over a stream, a set fits only when the key rows, the maximal
        rows and the kept rows together fit the byte budget: at one row
        less, the point after the set's build gets a full pass."""
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 3, 12, 3, duplicates=False)
        start, direction = rng.normal(size=4), rng.normal(size=4)
        points = [start + s * direction for s in (0.0, 1e-3, 1.2e-3)]
        state = _WorkingSet()
        for point in points[:2]:
            eval_grouped(as_model(point), data, Hyperparams(0.5),
                         _working_set=state)
        kept = state._snapshot.X_kept.shape[0]
        with binary_copy(data) as path:
            for budget, on_the_set in ((data.n_groups + kept, True),
                                       (data.n_groups + kept - 1, False)):
                monkeypatch.setattr(gcm.objectives, "_MAX_SET_BYTES",
                                    8 * data.d * budget)
                rows = price_along(data, Hyperparams(0.5), points,
                                   BinaryDatasetReader(path))
                assert (rows[2] < data.n_rows) == on_the_set

    def test_set_and_record_hold_no_view_of_the_rows(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 3, 12, 3, duplicates=False)
        start, direction = rng.normal(size=4), rng.normal(size=4)
        state = _WorkingSet()
        with block_budget(40):
            rows = [eval_grouped(as_model(start + s * direction), data,
                                 Hyperparams(0.5), _working_set=state).rows
                    for s in (0.0, 1e-3, 1.2e-3)]
        assert rows[-1] < data.n_rows  # priced on the set
        snapshot = state._snapshot
        assert snapshot.X_kept is not None and len(snapshot.blocks) > 1
        assert not any(np.shares_memory(a, data.X)
                       for a in arrays_in(snapshot))

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

    def test_record_over_the_byte_budget_is_not_kept(self, monkeypatch):
        """A snapshot holds a row per group. When a stream's key and maximal
        rows pass the byte budget, no snapshot is kept and each backtrack
        gets a full pass. A ``Dataset`` holds every row anyway: its
        snapshot is kept."""
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 3, 12, 3, duplicates=True)
        hp = Hyperparams(0.5)
        p = -eval_grouped(as_model(np.zeros(4)), data, hp).gradient()
        monkeypatch.setattr(gcm.objectives, "_MAX_SET_BYTES",
                            8 * data.d * (data.n_groups - 1))
        points = first_line_search(p)
        with binary_copy(data) as path:
            rows = price_along(data, hp, points, BinaryDatasetReader(path))
        assert rows == [0] + [data.n_rows] * 41
        assert price_along(data, hp, points) == [0, data.n_rows] + [0] * 40

    def test_record_is_kept_where_the_set_passes_the_shared_budget(
            self, tmp_path, monkeypatch):
        """Over a stream, a snapshot's key rows, maximal rows and kept rows
        share one byte budget. Where the first two fit and a set would not,
        the snapshot keeps them without a set: the backtracks of the first
        line search decode nothing, and the solve equals the in-memory one,
        which builds sets."""
        data = generate(GeneratorSpec(seed=3, n_pos_groups=8, n_neg_groups=40))
        path = tmp_path / "d.bin"
        save_binary(data, path)
        hp, cfg = Hyperparams(0.5, delta=0.5), SolverConfig(max_iterations=30)
        # one row per group fits; a set keeps one row per negative group more
        monkeypatch.setattr(gcm.objectives, "_MAX_SET_BYTES",
                            8 * data.d * data.n_groups)
        decodes, snapshots = [], []
        read = BinaryDatasetReader.iter_group_blocks
        rebuild = _WorkingSet._rebuilding_pass

        def decoding(reader, *args, **kwargs):
            decodes.append(reader)
            return read(reader, *args, **kwargs)

        def snapshot(state, *args):
            rows = rebuild(state, *args)
            snapshots.append(state._snapshot)
            return rows

        monkeypatch.setattr(BinaryDatasetReader, "iter_group_blocks", decoding)
        monkeypatch.setattr(_WorkingSet, "_rebuilding_pass", snapshot)
        p = -eval_grouped(as_model(np.zeros(data.d + 1)), data, hp).gradient()
        rows = price_along(data, hp, first_line_search(p),
                           BinaryDatasetReader(path))
        assert rows == [0, data.n_rows] + [0] * 40
        assert len(decodes) == 2  # the zero point and the pass at p
        del snapshots[:]
        streamed = train_gcm(BinaryDatasetReader(path), hp, cfg)
        assert snapshots and all(s.X_kept is None for s in snapshots)
        del snapshots[:]
        in_memory = train_gcm(data, hp, cfg)
        assert any(s.X_kept is not None for s in snapshots)
        assert_same_solve(streamed, in_memory)

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


def test_first_decode_measures_what_a_dataset_keeps(tmp_path):
    """A stream's first pass measures the stats a ``Dataset`` caches, bit
    for bit, and keeps them with the solve, not on the reader."""
    data = random_dataset(np.random.default_rng(7), 3, 12, 3, duplicates=False)
    path = tmp_path / "d.bin"
    save_binary(data, path)
    reader = BinaryDatasetReader(path, read_chunk_rows=5)
    state = _WorkingSet()
    with block_budget(16):
        eval_grouped(as_model(np.zeros(4)), reader, Hyperparams(0.5),
                     _working_set=state)
    eval_grouped(as_model(np.zeros(4)), data, Hyperparams(0.5),
                 _working_set=_WorkingSet())
    got, want = state._stats, data._pricing_stats
    assert (got.n_rows, got.n_pos_groups, got.reach.size) == (
        data.n_rows, data.n_pos_groups, data.n_neg_groups)
    assert got.reach_max == want.reach_max
    assert got.reach.tobytes() == want.reach.tobytes()
    assert got.col_min.tobytes() == want.col_min.tobytes()
    assert not hasattr(reader, "_pricing_stats")


def test_a_dataset_keeps_its_stats_for_the_next_solve(monkeypatch):
    """A fresh set over a ``Dataset`` reads the stats that an earlier
    solve measured instead of measuring them again."""
    data = random_dataset(np.random.default_rng(7), 3, 12, 3, duplicates=False)
    measured = []
    add = gcm.objectives._Measure.add

    def counted(measure, block):
        measured.append(block)
        return add(measure, block)

    monkeypatch.setattr(gcm.objectives._Measure, "add", counted)
    cfg = SolverConfig(max_iterations=5)
    first = train_gcm(data, Hyperparams(0.5), cfg)
    assert len(measured) == 1
    assert_same_solve(train_gcm(data, Hyperparams(0.5), cfg), first)
    assert len(measured) == 1


def plain_solve(data, hp, cfg, start=None, _working_set=None):
    """The solve that prices every point with a plain full pass, from
    ``start`` or zero; a working set passed in goes unused."""
    x0 = np.zeros(data.d + 1) if start is None else np.append(start.w, start.b)
    point, trace = minimize(lambda p: eval_grouped(as_model(p), data, hp),
                            x0, cfg)
    return as_model(point), trace


class TestStreamedSolves:
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_equal_the_in_memory_solve_with_fewer_decodes(self, delta,
                                                           tmp_path,
                                                           monkeypatch):
        data = generate(GeneratorSpec(seed=3, n_pos_groups=8, n_neg_groups=40))
        path = tmp_path / "d.bin"
        save_binary(data, path)
        hp, cfg = Hyperparams(0.5, delta=delta), SolverConfig(max_iterations=30)
        calls, passes, decodes = [], [], []
        reuse = _WorkingSet.reuse

        def objective(state, model, hp):
            calls.append(model)
            return reuse(state, model, hp)

        def counted(model, source, hp, **state):
            passes.append(source)
            return eval_grouped(model, source, hp, **state)

        read = BinaryDatasetReader.iter_group_blocks

        def decoding(reader, *args, **kwargs):
            decodes.append(reader)
            return read(reader, *args, **kwargs)

        monkeypatch.setattr(_WorkingSet, "reuse", objective)
        monkeypatch.setattr(gcm.train, "eval_grouped", counted)
        monkeypatch.setattr(BinaryDatasetReader, "iter_group_blocks", decoding)
        in_memory = train_gcm(data, hp, cfg)
        # in memory, every objective call is one eval_grouped call
        assert len(passes) == len(calls) > 0
        n_calls = len(calls)
        del calls[:], passes[:]
        streamed = train_gcm(BinaryDatasetReader(path), hp, cfg)
        assert_same_solve(streamed, in_memory)
        assert streamed[1].rows_priced == in_memory[1].rows_priced
        assert len(calls) == n_calls
        # only the zero start and full passes read the file, each once and
        # each through eval_grouped: the backtracks of the first line search
        # and certified points read nothing
        assert len(decodes) == len(passes)
        assert 0 < len(passes) < n_calls

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_many_blocks_equal_the_in_memory_solve(self, delta, tmp_path):
        """Cut into 500-row blocks, every pass sums its losses and gradient
        terms block by block; a stream that cuts the same blocks gives the
        solve of the ``Dataset`` bit for bit."""
        data = generate(GeneratorSpec(seed=3, n_pos_groups=8, n_neg_groups=40))
        path = tmp_path / "d.bin"
        save_binary(data, path)
        hp, cfg = Hyperparams(0.5, delta=delta), SolverConfig(max_iterations=30)
        with block_budget(500):
            assert len(list(data.iter_group_blocks())) == 24
            in_memory = train_gcm(data, hp, cfg)
            streamed = train_gcm(BinaryDatasetReader(path, read_chunk_rows=64),
                                 hp, cfg)
        assert_same_solve(streamed, in_memory)
        assert streamed[1].rows_priced == in_memory[1].rows_priced

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_warm_start_equals_the_in_memory_solve(self, delta, tmp_path):
        data = generate(GeneratorSpec(seed=3, n_pos_groups=8, n_neg_groups=40))
        path = tmp_path / "d.bin"
        save_binary(data, path)
        cfg = SolverConfig(max_iterations=60)
        start, _ = train_gcm(data, Hyperparams(0.3, delta=delta), cfg)
        hp = Hyperparams(0.6, delta=delta)
        in_memory = train_gcm(data, hp, cfg, start)
        streamed = train_gcm(BinaryDatasetReader(path, read_chunk_rows=7), hp,
                             cfg, start)
        assert_same_solve(streamed, in_memory)
        assert streamed[1].rows_priced == in_memory[1].rows_priced
        assert_same_solve(in_memory, plain_solve(data, hp, cfg, start))


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
        """The criterion 7/8 solve: same model, about a third of the rows,
        and the same rows from a source that is not a ``Dataset``."""
        train = generate(hard_negatives_spec(seed=2004))
        hp = Hyperparams(lam=0.5, epsilon=1.0, delta=0.5)
        cfg = SolverConfig(max_iterations=400)
        screened = train_gcm(train, hp, cfg)
        full = plain_solve(train, hp, cfg)
        assert_same_solve(screened, full)
        assert screened[1].rows_priced <= 0.40 * full[1].rows_priced
        blocks = train_gcm(BlockSource(train), hp, cfg)
        assert_same_solve(blocks, full)
        assert blocks[1].rows_priced == screened[1].rows_priced

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_small_solves(self, delta):
        data = generate(GeneratorSpec(seed=5, n_pos_groups=10, n_neg_groups=30,
                                      group_size_min=2, group_size_max=7, d=4))
        hp = Hyperparams(lam=0.5, delta=delta)
        cfg = SolverConfig(max_iterations=60)
        screened = train_gcm(data, hp, cfg)
        full = plain_solve(data, hp, cfg)
        assert_same_solve(screened, full)
        # at least the zero start scores no row
        assert screened[1].rows_priced <= full[1].rows_priced - data.n_rows

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_chain_sharing_one_set_equals_fresh_sets(self, delta):
        """Warm-started fits along a lambda chain that share one working
        set give each fit the model and trace of the same warm-started fit
        with a fresh set, and score fewer rows in all."""
        data = generate(hard_negatives_spec(seed=7, n_pos_groups=12,
                                            n_neg_groups=60))
        cfg = SolverConfig(max_iterations=100)
        shared = _WorkingSet()
        start, carried, fresh = None, 0, 0
        for lam in (0.2, 0.4, 0.6, 0.8):
            hp = Hyperparams(lam, delta=delta)
            got = train_gcm(data, hp, cfg, start, _working_set=shared)
            want = train_gcm(data, hp, cfg, start)
            assert_same_solve(got, want)
            carried += got[1].rows_priced
            fresh += want[1].rows_priced
            start = got[0]
        assert carried < fresh

    def test_cross_validate_on_a_benchmark_seed(self, monkeypatch):
        """The cross-validation of the benchmark's cv-sweep draw, with
        working sets shared along each fold's chain, equals the one whose
        every fit prices each point with a plain full pass."""
        data = generate(hard_negatives_spec(seed=2004, n_pos_groups=40,
                                            n_neg_groups=400))
        plan = CvPlan(folds=5, lambda_grid=(0.2, 0.4, 0.6, 0.8), seed=2004)
        cfg = SolverConfig(max_iterations=400)
        screened = cross_validate(data, Algorithm.GCM, plan, 1.0, 0.5, cfg)
        monkeypatch.setattr(gcm.evaluation, "train_gcm", plain_solve)
        assert cross_validate(data, Algorithm.GCM, plan, 1.0, 0.5,
                              cfg) == screened

    def test_cross_validate(self, monkeypatch):
        data = generate(hard_negatives_spec(seed=7, n_pos_groups=12,
                                            n_neg_groups=60))
        plan = CvPlan(folds=3, lambda_grid=(0.3, 0.7), seed=7)
        cfg = SolverConfig(max_iterations=100)
        screened = [cross_validate(data, Algorithm.GCM, plan, delta=delta,
                                   solver_cfg=cfg) for delta in (0.0, 0.5)]
        monkeypatch.setattr(gcm.evaluation, "train_gcm", plain_solve)
        assert [cross_validate(data, Algorithm.GCM, plan, delta=delta,
                               solver_cfg=cfg)
                for delta in (0.0, 0.5)] == screened


class TestStreamedMemory:
    """A streamed solve keeps flat memory: one read chunk and two blocks, as
    a single streamed pass does (criterion 9), plus one byte budget for the
    snapshot of its latest full pass and one block's screening temporaries,
    whatever the row count."""

    #: Criterion 9's ceiling for one streamed pass.
    CEILING = 64 * 1024 * 1024
    #: One block's screening temporaries: a threshold per row, the kept-row
    #: indices and the masks, under three float64 values a row.
    SCREENING = 3 * 8 * DEFAULT_BLOCK_ROWS

    @staticmethod
    def peak(price, *args) -> int:
        tracemalloc.start()
        try:
            price(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @classmethod
    def solve_peak(cls, path) -> int:
        return cls.peak(train_gcm, BinaryDatasetReader(path), Hyperparams(0.5),
                        SolverConfig(max_iterations=30))

    def test_peak_stays_below_the_ceiling_and_flat(self, tmp_path,
                                                   monkeypatch):
        paths = []
        # about 200k and 400k rows, 23 and 46 MB: 4 and 7 blocks
        for n_neg in (1000, 2000):
            path = tmp_path / f"{n_neg}.bin"
            save_binary(generate(hard_negatives_spec(
                seed=11, n_pos_groups=20, n_neg_groups=n_neg)), path)
            paths.append(path)
        for path in paths:
            assert (self.solve_peak(path)
                    < self.CEILING + _MAX_SET_BYTES + self.SCREENING)
        # Under the quarter cap the set may grow with the rows. A budget that
        # binds at both sizes leaves nothing to grow, where holding the
        # decoded blocks would add 23 MB at the larger size.
        budget = 2 ** 20
        monkeypatch.setattr(gcm.objectives, "_MAX_SET_BYTES", budget)
        small, large = (self.solve_peak(path) for path in paths)
        assert large < small + budget

    def test_snapshot_at_the_byte_cap_holds_one_budget_at_most(
            self, tmp_path, monkeypatch):
        """Where the byte budget, not the quarter, caps the set, the
        snapshot's rows fill more than half of it and never pass it, and
        the solve's peak stays within one budget and one block's screening
        of a single streamed pass's."""
        data = generate(hard_negatives_spec(seed=11, n_pos_groups=20,
                                            n_neg_groups=1000))
        path = tmp_path / "d.bin"
        save_binary(data, path)
        budget = 2 * 2 ** 20
        assert 8 * data.d * _MAX_SHARE * data.n_rows > 2 * budget
        monkeypatch.setattr(gcm.objectives, "_MAX_SET_BYTES", budget)
        held, used = [], []  # bytes of features: allocated, and filled
        rebuild = _WorkingSet._rebuilding_pass

        def measured(state, *args):
            rows = rebuild(state, *args)
            snapshot = state._snapshot
            gathered = sum(g.X_key.nbytes + g.X_max.nbytes
                           for g in snapshot.blocks)
            kept = snapshot.X_kept
            if kept is None:
                kept = np.empty((0, 1))
            held.append(gathered + (kept if kept.base is None
                                    else kept.base).nbytes)
            used.append(gathered + kept.nbytes)
            return rows

        monkeypatch.setattr(_WorkingSet, "_rebuilding_pass", measured)
        solve = self.solve_peak(path)
        assert budget / 2 < max(used) <= max(held) <= budget
        one_pass = self.peak(eval_grouped, as_model(np.ones(data.d + 1)),
                             BinaryDatasetReader(path), Hyperparams(0.5))
        assert solve < one_pass + budget + self.SCREENING
