"""Spans around the public functions of ``gcm``, installed from outside.

A :class:`Tracer` keeps every span in memory as (name, start, end, parent,
run id, attributes) and writes them out when the run ends. :func:`installed`
patches the names where ``gcm``'s own callers look them up (for example
``gcm.train.eval_grouped`` and ``gcm.objectives.smoothed_hinge``) and
restores the originals on exit, so an untraced run executes unmodified code.

:func:`self_times` gives each span's duration minus the part of its interval
that its child spans cover, and :func:`layer_metrics` folds the spans into
the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: The clock of every timed call, set-up and span: CPU seconds of this
#: process (user + system, all threads). The benchmark runs one caller and
#: pins BLAS to one thread, so on an unshared core this equals wall time;
#: on a shared host it leaves out the time the process waited for a core,
#: which moved single calls' wall times by up to 2x.
clock = time.process_time


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self.enabled = True
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, clock(), float("nan"),
                               parent, self.run_id))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, **attrs):
        span = self.spans[index]
        span.end = clock()
        span.attrs.update(attrs)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def paused(self):
        """Wrapped calls made inside the block record no spans."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so that each call records one span.

        ``attrs(args, kwargs, result)`` returns extra attributes for the span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, raised=True)
                raise
            self.close(index, **(attrs(args, kwargs, result) if attrs else {}))
            return result
        return traced

    def wrap_generator(self, name: str, fn, attrs=None):
        """Wrap a generator function; each ``next`` records one span.

        The spans cover the generator's own work between yields, not the
        consumer's work on the yielded item.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                if not self.enabled:
                    yield from inner
                    return
                index = self.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    self.close(index)
                    return
                except BaseException:
                    self.close(index, raised=True)
                    raise
                self.close(index, **(attrs(args, item) if attrs else {}))
                yield item
        return traced

    def write_jsonl(self, path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run_id": s.run_id, "attrs": s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def select(spans: list[Span], run_ids: set[str]) -> list[Span]:
    """The spans of the given run ids, with parent indices renumbered."""
    index = {}
    out = []
    for i, s in enumerate(spans):
        if s.run_id in run_ids:
            index[i] = len(out)
            out.append(Span(s.name, s.start, s.end, index.get(s.parent),
                            s.run_id, s.attrs))
    return out


# -- what gets patched --------------------------------------------------------


def _rows(args, kwargs, result):
    data = args[1]
    return {"rows": int(data.n_rows), "d": int(data.d)}


def _elements(args, kwargs, result):
    return {"elements": int(np.size(args[0]))}


def _solve(args, kwargs, result):
    return {"iterations": int(result[1].iterations)}


def _dataset_rows(args, kwargs, result):
    return {"rows": int(args[0].n_rows)}


def _file_bytes(path_index):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_index])}
    return attrs


def _outer(args, kwargs, result):
    return {"outer": int(result[2])}


def _decoded(args, block):
    reader = args[0]
    rows = len(block.labels)
    return {"rows": rows,
            "bytes": rows * os.path.getsize(reader.path) / reader.n_rows}


def _patch_table(gcm):
    """(owner, attribute, span name, attributes function) per wrapper."""
    model, data_io, evaluation = gcm.model, gcm.data_io, gcm.evaluation
    table = [
        (gcm.train, "eval_grouped", "objectives.eval_grouped", _rows),
        (gcm.train, "subgradient_grouped", "objectives.subgradient_grouped", _rows),
        (gcm.train, "eval_per_candidate", "objectives.eval_per_candidate", _rows),
        (gcm.train, "gradient_per_candidate", "objectives.gradient_per_candidate", _rows),
        (gcm.train, "minimize", "solver.minimize", _solve),
        (model.Dataset, "__init__", "model.dataset_init", _dataset_rows),
        (model.Dataset, "subset_groups", "model.subset_groups", None),
        (model.LinearModel, "raw_scores", "model.raw_scores", None),
        (data_io, "load_binary", "data_io.load_binary", _file_bytes(0)),
        (data_io, "save_binary", "data_io.save_binary", _file_bytes(1)),
        (evaluation, "evaluate_model", "evaluation.evaluate_model", None),
        (gcm.cli, "evaluate_model", "evaluation.evaluate_model", None),
        (evaluation, "roc_auc", "evaluation.roc_auc", None),
        (evaluation, "score_groups", "evaluation.score_groups", None),
        (gcm.cli, "score_groups", "evaluation.score_groups", None),
        (gcm.cli, "write_report_csv", "evaluation.write_report_csv", _file_bytes(1)),
        (gcm.cli, "write_groups_csv", "evaluation.write_groups_csv", _file_bytes(1)),
        (evaluation, "cross_validate", "evaluation.cross_validate", None),
        (evaluation, "fit_algorithm", "evaluation.fit_algorithm", None),
        (evaluation, "train_mi_svm", "baselines.misvm", _outer),
        (gcm.generator, "generate", "generator.generate", None),
        (gcm.cli, "main", "cli.main", None),
    ]
    for fn in ("smoothed_hinge", "smoothed_hinge_prime", "huber", "huber_prime"):
        table.append((gcm.objectives, fn, "penalties", _elements))
    return table


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced name for the duration of the block."""
    import gcm
    import gcm.cli  # noqa: F401  (not imported by the package itself)

    saved = []
    try:
        for owner, attr, name, attrs in _patch_table(gcm):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, attrs))
        reader = gcm.data_io.BinaryDatasetReader
        saved.append((reader, "iter_group_blocks", reader.iter_group_blocks))
        reader.iter_group_blocks = tracer.wrap_generator(
            "data_io.decode", reader.iter_group_blocks, _decoded)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------

#: Metric name -> unit, in the order ``BENCHMARK.json`` lists them.
LAYER_UNITS = {
    "objectives.eval_grouped.calls": "count",
    "objectives.eval_grouped.self_s": "s",
    "objectives.subgradient_grouped.calls": "count",
    "objectives.subgradient_grouped.self_s": "s",
    "objectives.grouped.rows_per_s": "1/s",
    "objectives.grouped.computed_mb_per_s": "MB/s",
    "objectives.eval_per_candidate.calls": "count",
    "objectives.eval_per_candidate.self_s": "s",
    "objectives.gradient_per_candidate.calls": "count",
    "objectives.gradient_per_candidate.self_s": "s",
    "objectives.per_candidate.rows_per_s": "1/s",
    "penalties.calls": "count",
    "penalties.self_s": "s",
    "penalties.elements": "count",
    "solver.solves": "count",
    "solver.iterations": "count",
    "solver.objective_calls": "count",
    "solver.gradient_calls": "count",
    "solver.backtracks": "count",
    "solver.passes_per_iter": "1",
    "solver.self_s": "s",
    "model.dataset_init.calls": "count",
    "model.dataset_init.rows": "count",
    "model.dataset_init.self_s": "s",
    "model.subset_groups.calls": "count",
    "model.subset_groups.self_s": "s",
    "model.raw_scores.calls": "count",
    "model.raw_scores.self_s": "s",
    "data_io.decode.self_s": "s",
    "data_io.decode.blocks": "count",
    "data_io.decode.bytes": "B",
    "data_io.decode_mb_per_s": "MB/s",
    "data_io.load_binary.self_s": "s",
    "data_io.load_mb_per_s": "MB/s",
    "data_io.save_binary.self_s": "s",
    "data_io.save_mb_per_s": "MB/s",
    "data_io.stream_peak_mb": "MB",
    "evaluation.evaluate_model.self_s": "s",
    "evaluation.roc_auc.self_s": "s",
    "evaluation.score_groups.self_s": "s",
    "evaluation.write_report_csv.self_s": "s",
    "evaluation.write_groups_csv.self_s": "s",
    "evaluation.write_report_csv.mb_per_s": "MB/s",
    "evaluation.cv.fits": "count",
    "evaluation.cv.fit_s": "s",
    "baselines.misvm.outer_iterations": "count",
    "baselines.misvm.self_s": "s",
    "cli.evaluate.self_s": "s",
    "generator.generate.self_s": "s",
    "trace.overhead_frac": "1",
}

#: Per-layer counts that must repeat exactly for a given seed.
COUNTERS = tuple(k for k, unit in LAYER_UNITS.items()
                 if unit == "count" or k.endswith((".bytes", "passes_per_iter")))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Fold spans into the per-layer metrics (all but the two set by the run).

    ``data_io.stream_peak_mb`` and ``trace.overhead_frac`` are measured by
    the workload runner, not from spans, and are absent here.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(name):
        return float(sum(selfs[i] for i in by_name.get(name, [])))

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, []))

    def children_of(index, name):
        return [j for j in by_name.get(name, []) if spans[j].parent == index]

    def ancestors(index):
        p = spans[index].parent
        while p is not None:
            yield p
            p = spans[p].parent

    def compute(names, subtract=()):
        """(rows, computed bytes, seconds) over spans minus named children."""
        rows = nbytes = seconds = 0.0
        for name in names:
            for i in by_name.get(name, []):
                s = spans[i]
                rows += s.attrs.get("rows", 0)
                nbytes += s.attrs.get("rows", 0) * s.attrs.get("d", 0) * 8
                seconds += s.duration - sum(
                    spans[j].duration for sub in subtract
                    for j in children_of(i, sub))
        return rows, nbytes, seconds

    m: dict[str, float] = {}
    for short in ("eval_grouped", "subgradient_grouped", "eval_per_candidate",
                  "gradient_per_candidate"):
        m[f"objectives.{short}.calls"] = calls(f"objectives.{short}")
        m[f"objectives.{short}.self_s"] = self_s(f"objectives.{short}")
    rows, nbytes, seconds = compute(
        ["objectives.eval_grouped", "objectives.subgradient_grouped"],
        subtract=["data_io.decode"])
    m["objectives.grouped.rows_per_s"] = _ratio(rows, seconds)
    m["objectives.grouped.computed_mb_per_s"] = _ratio(nbytes, seconds) / 1e6
    rows, _, seconds = compute(["objectives.eval_per_candidate",
                                "objectives.gradient_per_candidate"])
    m["objectives.per_candidate.rows_per_s"] = _ratio(rows, seconds)

    m["penalties.calls"] = calls("penalties")
    m["penalties.self_s"] = self_s("penalties")
    m["penalties.elements"] = attr_sum("penalties", "elements")

    solves = by_name.get("solver.minimize", [])
    iterations = attr_sum("solver.minimize", "iterations")
    objective_calls = sum(
        len(children_of(i, f"objectives.{k}")) for i in solves
        for k in ("eval_grouped", "eval_per_candidate"))
    gradient_calls = sum(
        len(children_of(i, f"objectives.{k}")) for i in solves
        for k in ("subgradient_grouped", "gradient_per_candidate"))
    m["solver.solves"] = len(solves)
    m["solver.iterations"] = iterations
    m["solver.objective_calls"] = objective_calls
    m["solver.gradient_calls"] = gradient_calls
    m["solver.backtracks"] = (objective_calls - len(solves) - iterations
                              if solves else 0)
    m["solver.passes_per_iter"] = _ratio(objective_calls + gradient_calls,
                                         iterations)
    m["solver.self_s"] = self_s("solver.minimize")

    m["model.dataset_init.calls"] = calls("model.dataset_init")
    m["model.dataset_init.rows"] = attr_sum("model.dataset_init", "rows")
    m["model.dataset_init.self_s"] = self_s("model.dataset_init")
    for short in ("subset_groups", "raw_scores"):
        m[f"model.{short}.calls"] = calls(f"model.{short}")
        m[f"model.{short}.self_s"] = self_s(f"model.{short}")

    decode_s = self_s("data_io.decode")
    decode_bytes = attr_sum("data_io.decode", "bytes")
    m["data_io.decode.self_s"] = decode_s
    m["data_io.decode.blocks"] = calls("data_io.decode")
    m["data_io.decode.bytes"] = decode_bytes
    m["data_io.decode_mb_per_s"] = _ratio(decode_bytes, decode_s) / 1e6
    for short, rate in (("load_binary", "load_mb_per_s"),
                        ("save_binary", "save_mb_per_s")):
        seconds = self_s(f"data_io.{short}")
        m[f"data_io.{short}.self_s"] = seconds
        m[f"data_io.{rate}"] = _ratio(
            attr_sum(f"data_io.{short}", "bytes"), seconds) / 1e6

    for short in ("evaluate_model", "roc_auc", "score_groups",
                  "write_report_csv", "write_groups_csv"):
        m[f"evaluation.{short}.self_s"] = self_s(f"evaluation.{short}")
    m["evaluation.write_report_csv.mb_per_s"] = _ratio(
        attr_sum("evaluation.write_report_csv", "bytes"),
        m["evaluation.write_report_csv.self_s"]) / 1e6
    cv = set(by_name.get("evaluation.cross_validate", []))
    cv_fits = [i for i in by_name.get("evaluation.fit_algorithm", [])
               if cv.intersection(ancestors(i))]
    m["evaluation.cv.fits"] = len(cv_fits)
    m["evaluation.cv.fit_s"] = float(sum(spans[i].duration for i in cv_fits))

    m["baselines.misvm.outer_iterations"] = attr_sum("baselines.misvm", "outer")
    m["baselines.misvm.self_s"] = self_s("baselines.misvm")
    m["cli.evaluate.self_s"] = self_s("cli.main")
    m["generator.generate.self_s"] = self_s("generator.generate")
    return m


def call_summary(spans: list[Span]) -> dict[str, dict]:
    """Per span name: sample count, median and the highest of p90/p99/p99.9
    that has at least ten samples beyond it (durations in ms)."""
    durations: dict[str, list[float]] = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.duration * 1e3)
    out = {}
    for name, values in sorted(durations.items()):
        entry = {"n": len(values), "p50_ms": float(np.median(values))}
        for q in (99.9, 99.0, 90.0):
            if len(values) * (1.0 - q / 100.0) >= 10:
                entry[f"p{q:g}_ms"] = float(np.percentile(values, q))
                break
        out[name] = entry
    return out
