"""The four benchmark workloads.

Each workload draws its inputs from the seed in :meth:`setup` and runs one
repetition of its timed calls in :meth:`repetition`. Every timed call goes
through :meth:`Recorder.op`, which counts it as one operation and fails it
if it raises or its check reports a problem. All calls go through module
attributes (``gcm.train.train_gcm``), so the wrappers that a traced run
installs see them. The fit settings are those of acceptance criteria 7/8,
except that the two single large GCM fits run a fixed number of iterations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import time
import tracemalloc

import gcm
import gcm.cli
from gcm.evaluation import Algorithm, CvPlan
from gcm.generator import hard_negatives_spec
from gcm.model import Hyperparams
from gcm.solver import SolverConfig, Termination

from tracing import clock

#: fit_algorithm maps lam to the MI-SVM constant C = lam / (1 - lam) = 1.
HP = Hyperparams(lam=0.5, epsilon=1.0, delta=0.5)
SOLVER = SolverConfig(max_iterations=400)
#: The single large fits run a fixed number of iterations: their draws need
#: 20-31 to converge depending on the seed, which spread grouped-inmem's
#: train_s by ~20% across seeds. The streamed fit is shorter so that a run
#: holds four or more repetitions; on the shared 2-core host the benchmark
#: was sized on, speed drifts by 10-25% over tens of seconds.
GROUPED_ITERATIONS = 20
STREAM_ITERATIONS = 10
MISVM_MAX_OUTER = 50
CV_FOLDS = 5
CV_GRID = (0.2, 0.4, 0.6, 0.8)
#: Offset between a workload's training draw and its test draw.
TEST_SEED_OFFSET = 50000
#: In-memory evaluation takes ~0.15 s, so each model is scored this often.
EVAL_REPEATS = 5
#: gcm-nogroup fits per baselines repetition; ``train_s`` is their median.
NOGROUP_REPEATS = 3
#: gcm evaluate commands per file-stream repetition. Its report formatting
#: is pure Python and varies by ~15% from call to call.
CLI_REPEATS = 2


class Recorder:
    """Times operations, records failures and checks repeatability.

    ``reps`` holds, per repetition, each operation name's durations on
    :data:`tracing.clock` (CPU seconds); ``wall`` holds their wall times.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.reps: list[dict[str, list[float]]] = []
        self.wall: dict[str, list[float]] = {}
        self._first: dict[str, object] = {}

    def start_repetition(self):
        self.reps.append({})

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def op(self, name: str, fn, check=None):
        """Time ``fn()``; return its result, or None if it raised."""
        self.attempted += 1
        span = self.tracer.open(f"op.{name}") if self.tracer else None
        wall_started, started = time.perf_counter(), clock()
        try:
            result = fn()
        except Exception as exc:  # a failed operation, not a failed run
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = clock() - started
            wall = time.perf_counter() - wall_started
            if span is not None:
                self.tracer.close(span)
        self.reps[-1].setdefault(name, []).append(elapsed)
        self.wall.setdefault(name, []).append(wall)
        if check is not None:
            with self.untraced():
                problems = check(result)
            if problems:
                self.failures.extend(f"{name}: {p}" for p in problems)
        return result

    def same(self, key: str, value) -> list[str]:
        """Problems if ``value`` differs from the first one seen for ``key``."""
        if key not in self._first:
            self._first[key] = value
            return []
        if self._first[key] != value:
            return [f"{key} differs from the first repetition"]
        return []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def rep_seconds(self, rep: int) -> float:
        return sum(sum(times) for times in self.reps[rep].values())

    def rep_total(self, names, rep: int) -> float:
        return sum(sum(self.reps[rep].get(n, ())) for n in names)

    def median_rep_total(self, names) -> float:
        return statistics.median(self.rep_total(names, r)
                                 for r in range(len(self.reps)))

    def median_call(self, name: str) -> float:
        return statistics.median(t for rep in self.reps for t in rep.get(name, ()))


def fixed_length(iterations: int) -> SolverConfig:
    """A solve that stops only after ``iterations`` (tolerances 0)."""
    return SolverConfig(max_iterations=iterations, grad_inf_tolerance=0.0,
                        rel_obj_tolerance=0.0)


def scaled(n: int, size: float, minimum: int) -> int:
    return max(minimum, int(round(n * size)))


def draw(seed: int, size: float, n_pos: int, n_neg: int):
    return gcm.generator.generate(hard_negatives_spec(
        seed=seed, n_pos_groups=scaled(n_pos, size, 5),
        n_neg_groups=scaled(n_neg, size, 10)))


def test_draw(seed: int, size: float):
    return draw(seed + TEST_SEED_OFFSET, size, 200, 2000)


def model_key(model) -> bytes:
    return model.w.tobytes() + repr(model.b).encode()


def fit_problems(rec: Recorder, key: str, result, data, hp=HP,
                 iterations=None) -> list[str]:
    """The checks shared by every ``train_gcm`` call.

    ``iterations`` is the exact count a fixed-length solve must run;
    otherwise the solve must converge before the iteration cap.
    """
    model, trace = result
    history = trace.objective_history
    problems = []
    if any(b > a for a, b in zip(history, history[1:])):
        problems.append("objective_history increases")
    if iterations is None:
        if trace.termination_reason is Termination.MAX_ITERATIONS:
            problems.append("solve stopped at the iteration cap")
    elif trace.iterations != iterations:
        problems.append(f"solve ran {trace.iterations} iterations, "
                        f"not {iterations}")
    final = gcm.objectives.eval_grouped(model, data, hp).total
    if final != history[-1]:
        problems.append(f"eval_grouped at the model is {final!r}, "
                        f"the trace ends at {history[-1]!r}")
    problems += rec.same(key, (model_key(model), trace.iterations, tuple(history)))
    return problems


def evaluate(rec: Recorder, key: str, model, test):
    """Score ``model`` on the test draw; returns the group AUC."""
    aucs = []
    for _ in range(EVAL_REPEATS):
        report = rec.op(
            "evaluate", lambda: gcm.evaluation.evaluate_model(model, test),
            lambda r: rec.same(key, (r.group_auc, r.candidate_auc)))
        if report is not None:
            aucs.append(report.group_auc)
    return aucs[0] if aucs else None


class Workload:
    name = ""
    why = ""
    #: Operation names whose times add up to ``train_s`` in a repetition.
    train_ops: tuple[str, ...] = ()
    #: Operation name whose median call time is ``eval_s``.
    eval_op = "evaluate"
    #: Names for single operations' median times, printed as details.
    detail_ops: dict[str, str] = {}

    def train_s(self, rec: Recorder) -> float:
        """Median over repetitions of the training calls' total time."""
        return rec.median_rep_total(self.train_ops)

    def setup(self, seed: int, size: float, workdir: str) -> dict:
        raise NotImplementedError

    def repetition(self, state: dict, rec: Recorder, first: bool = True):
        """One repetition; ``first`` is false for a run's later ones."""
        raise NotImplementedError

    def layer_extras(self, state: dict) -> dict:
        """Per-layer values measured apart from the traced repetitions."""
        return {}

    def rows_and_bytes(self, state: dict) -> dict:
        """Dataset sizes for the run facts (bytes computed as rows * d * 8)."""
        return {k: {"rows": v.n_rows, "computed_bytes": v.n_rows * v.d * 8}
                for k, v in state.items() if hasattr(v, "n_rows")}


class GroupedInMemory(Workload):
    name = "grouped-inmem"
    why = ("train_gcm on the 1e6-row hard-negatives draw; the grouped "
           "objectives do ~99% of the work")
    train_ops = ("train_gcm",)

    def setup(self, seed, size, workdir):
        return {"train": draw(seed, size, 100, 5000),
                "test": test_draw(seed, size)}

    def repetition(self, state, rec, first=True):
        train = state["train"]
        fit = rec.op(
            "train_gcm", lambda: gcm.train.train_gcm(
                train, HP, fixed_length(GROUPED_ITERATIONS)),
            lambda r: fit_problems(rec, "gcm fit", r, train,
                                   iterations=GROUPED_ITERATIONS))
        if fit is None:
            return
        state["objective"] = fit[1].objective_history[-1]
        state["group_auc"] = evaluate(rec, "gcm auc", fit[0], state["test"])


class BaselinesInMemory(Workload):
    name = "baselines-inmem"
    why = ("svm, gcm-nogroup and MI-SVM on 417k rows: per-candidate BLAS "
           "path and line-search backtracking, no grouped kernels")
    detail_ops = {"train_svm_s": "fit_svm", "train_nogroup_s": "fit_gcm-nogroup",
                  "train_misvm_s": "fit_misvm"}

    def train_s(self, rec):
        """Median gcm-nogroup fit.

        Its solve takes the same iteration count on every draw tried, while
        svm's exact-hinge solve takes 15-24 iterations and MI-SVM 3-6 outer
        iterations depending on the draw, which spreads their wall times by
        40-70% across seeds. Their times are details; their counts are
        per-layer metrics and repeat exactly for a seed.
        """
        return rec.median_call("fit_gcm-nogroup")

    def setup(self, seed, size, workdir):
        return {"train": draw(seed, size, 100, 2000),
                "test": test_draw(seed, size)}

    def repetition(self, state, rec, first=True):
        train, test = state["train"], state["test"]
        # MI-SVM takes 5-20 s and its time is not gated, so it runs once per
        # run and the remaining time goes to more samples of the gated fit.
        algos = ([Algorithm.SVM] + [Algorithm.GCM_NOGROUP] * NOGROUP_REPEATS
                 + [Algorithm.MISVM] * first)
        for k, algo in enumerate(algos):
            def fit(algo=algo):
                return gcm.evaluation.fit_algorithm(
                    algo, train, HP.lam, HP.epsilon, HP.delta, SOLVER,
                    MISVM_MAX_OUTER)

            def check(result, algo=algo):
                model, info = result
                problems = rec.same(f"{algo.value} fit",
                                    (model_key(model), sorted(info.items())))
                if (algo is Algorithm.MISVM
                        and info["outer_iterations"] >= MISVM_MAX_OUTER):
                    problems.append("MI-SVM hit the outer cap before its "
                                    "selector fixed point")
                return problems

            result = rec.op(f"fit_{algo.value}", fit, check)
            if result is None:
                continue
            if algos.index(algo) != k:
                continue  # a repeated fit is scored once
            model = result[0]
            if algo is Algorithm.GCM_NOGROUP:
                with rec.untraced():
                    state["objective"] = gcm.objectives.eval_per_candidate(
                        model, train, HP).total
            auc = evaluate(rec, f"{algo.value} auc", model, test)
            if algo is Algorithm.MISVM:
                state["group_auc"] = auc


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class FileStream(Workload):
    name = "file-stream"
    why = ("a fixed-length train_gcm streamed from a 31 MB binary file, then "
           "the gcm evaluate command: decode, model and report writes")
    train_ops = ("train_gcm_stream",)
    eval_op = "cli_evaluate"
    detail_ops = {"save_model_s": "save_model"}

    def setup(self, seed, size, workdir):
        train = draw(seed, size, 100, 1250)
        paths = {k: os.path.join(workdir, f"{k}.bin") for k in ("train", "test")}
        gcm.data_io.save_binary(train, paths["train"])
        test = draw(seed + TEST_SEED_OFFSET, size, 100, 1000)
        gcm.data_io.save_binary(test, paths["test"])
        return {"train": train, "paths": paths, "workdir": workdir}

    def layer_extras(self, state):
        """tracemalloc peak of one streamed objective pass at the fitted model.

        Taken apart from the timed calls: under tracemalloc decode runs ~3x
        slower. Every pass of a streamed fit reads the file the same way, so
        one pass has the fit's peak.
        """
        reader = gcm.data_io.BinaryDatasetReader(state["paths"]["train"])
        tracemalloc.start()
        try:
            gcm.objectives.eval_grouped(state["model"], reader, HP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"data_io.stream_peak_mb": peak / 1e6}

    def rows_and_bytes(self, state):
        out = super().rows_and_bytes(state)
        for k, path in state["paths"].items():
            out[f"{k}.bin"] = {"file_bytes": os.path.getsize(path)}
        return out

    def repetition(self, state, rec, first=True):
        paths, workdir = state["paths"], state["workdir"]
        model_path = os.path.join(workdir, "model.json")
        report_path = os.path.join(workdir, "report.csv")

        def train():
            reader = gcm.data_io.BinaryDatasetReader(paths["train"])
            return gcm.train.train_gcm(reader, HP,
                                       fixed_length(STREAM_ITERATIONS))

        fit = rec.op("train_gcm_stream", train,
                     lambda r: fit_problems(rec, "streamed fit", r,
                                            state["train"],
                                            iterations=STREAM_ITERATIONS))
        if fit is None:
            return
        state["model"] = fit[0]
        state["objective"] = fit[1].objective_history[-1]
        saved = rec.op("save_model", lambda: gcm.data_io.save_model(
            model_path, fit[0], HP) or model_path)
        if saved is None:
            return

        def evaluate_command():
            with contextlib.redirect_stdout(io.StringIO()):
                return gcm.cli.main(["evaluate", "--model", model_path,
                                     "--data", paths["test"],
                                     "--report-out", report_path])

        def check(code):
            if code != 0:
                return [f"gcm evaluate exited {code}"]
            return rec.same("report and groups csv sha256", (
                sha256(model_path), sha256(report_path),
                sha256(f"{report_path}.groups.csv")))

        codes = [rec.op("cli_evaluate", evaluate_command, check)
                 for _ in range(CLI_REPEATS)]
        if 0 in codes:
            with open(report_path, encoding="utf-8") as fh:
                last = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
            state["group_auc"] = float(last.rsplit("group=", 1)[1])


class CvSweep(Workload):
    name = "cv-sweep"
    why = ("5-fold CV over 4 lambdas on 88k rows: 20 short solves, so "
           "per-call and per-fit costs weigh more")
    train_ops = ("cross_validate", "refit")
    detail_ops = {"cv_s": "cross_validate"}

    def setup(self, seed, size, workdir):
        return {"train": draw(seed, size, 40, 400),
                "test": test_draw(seed, size), "seed": seed}

    def repetition(self, state, rec, first=True):
        train = state["train"]
        plan = CvPlan(folds=CV_FOLDS, lambda_grid=CV_GRID, seed=state["seed"])

        def check(result):
            best, results = result
            return rec.same("cv results", (best, [
                (r.lam, r.mean_group_auc, r.mean_candidate_auc, r.folds_used)
                for r in results]))

        cv = rec.op("cross_validate", lambda: gcm.evaluation.cross_validate(
            train, Algorithm.GCM, plan, HP.epsilon, HP.delta, SOLVER), check)
        if cv is None:
            return
        best_lam, results = cv
        state["group_auc"] = max(r.mean_group_auc for r in results)
        hp = Hyperparams(best_lam, HP.epsilon, HP.delta)
        fit = rec.op(
            "refit", lambda: gcm.train.train_gcm(train, hp, SOLVER),
            lambda r: fit_problems(rec, "refit", r, train, hp))
        if fit is None:
            return
        state["objective"] = fit[1].objective_history[-1]
        evaluate(rec, "refit auc", fit[0], state["test"])


WORKLOADS = {w.name: w for w in (GroupedInMemory(), BaselinesInMemory(),
                                 FileStream(), CvSweep())}
