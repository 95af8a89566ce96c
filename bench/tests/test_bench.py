"""Tests of the benchmark itself: smoke runs, span arithmetic, trace safety."""

import argparse
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import gcm  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, layer_metrics, self_times  # noqa: E402

SMOKE_SIZE = 0.02


@pytest.fixture
def bench_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path / "work"))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    return tmp_path


def smoke(name, trace):
    args = argparse.Namespace(workload=name, seed=7, seconds=0.0, trace=trace,
                              size=SMOKE_SIZE)
    return run.run_workload(args)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_untraced_reports_every_end_to_end_metric(name, bench_dirs):
    result = smoke(name, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    for entry in result["metrics"].values():
        assert entry["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_traced_reports_every_layer_metric(name, bench_dirs):
    result = smoke(name, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(tracing.LAYER_UNITS)
    assert metrics["generator.generate.self_s"]["value"] > 0
    if name != "cv-sweep":
        assert metrics["solver.solves"]["value"] >= 1
    assert os.listdir(bench_dirs / "out")
    assert not os.listdir(bench_dirs / "work")


def test_file_stream_layers_are_attributed(bench_dirs):
    m = {k: v["value"] for k, v in smoke("file-stream", 1)["metrics"].items()}
    assert m["data_io.decode.blocks"] > 0
    assert m["data_io.decode.self_s"] > 0
    assert m["data_io.save_binary.self_s"] > 0
    assert m["data_io.load_binary.self_s"] > 0
    assert m["data_io.stream_peak_mb"] > 0
    assert m["cli.evaluate.self_s"] > 0
    # one objective or gradient pass decodes every block of the file once
    passes = m["objectives.eval_grouped.calls"] + m["objectives.subgradient_grouped.calls"]
    assert m["data_io.decode.blocks"] % passes == 0


def test_failed_check_is_a_failed_operation(bench_dirs, monkeypatch):
    original = gcm.objectives.eval_grouped

    def off_by_a_little(model, data, hp):
        value = original(model, data, hp)
        return type(value)(value.total + 1e-12, value.regularization_term,
                           value.positive_loss_term, value.negative_loss_term)

    monkeypatch.setattr(gcm.objectives, "eval_grouped", off_by_a_little)
    result = smoke("grouped-inmem", 0)
    assert not result["correct"]
    assert result["failed"] >= 1


def span(name, start, end, parent=None, **attrs):
    return Span(name, start, end, parent, "r", attrs)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
        span("c", 8.0, 12.0, 0),  # overlaps b and runs past the parent's end
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_solver_counters_come_from_nested_spans():
    spans = [
        span("solver.minimize", 0.0, 10.0, iterations=2),
        span("objectives.eval_grouped", 0.0, 1.0, 0, rows=100, d=2),
        span("objectives.subgradient_grouped", 1.0, 2.0, 0, rows=100, d=2),
        span("objectives.eval_grouped", 2.0, 3.0, 0, rows=100, d=2),
        span("objectives.eval_grouped", 3.0, 4.0, 0, rows=100, d=2),
        span("penalties", 3.0, 3.5, 4, elements=100),
        span("objectives.subgradient_grouped", 4.0, 5.0, 0, rows=100, d=2),
        span("objectives.eval_grouped", 5.0, 6.0, 0, rows=100, d=2),
        span("objectives.subgradient_grouped", 6.0, 7.0, 0, rows=100, d=2),
    ]
    m = layer_metrics(spans)
    assert m["solver.objective_calls"] == 4
    assert m["solver.gradient_calls"] == 3
    assert m["solver.backtracks"] == 1
    assert m["solver.passes_per_iter"] == 3.5
    assert m["solver.self_s"] == pytest.approx(3.0)
    assert m["objectives.eval_grouped.self_s"] == pytest.approx(3.5)
    assert m["penalties.self_s"] == pytest.approx(0.5)
    assert m["objectives.grouped.rows_per_s"] == pytest.approx(100.0)


def test_tracing_leaves_model_and_report_bytes_unchanged(tmp_path):
    stream = workloads.FileStream()
    state = stream.setup(11, SMOKE_SIZE, str(tmp_path))
    names = ("model.json", "report.csv", "report.csv.groups.csv")

    def repetition(rec):
        rec.start_repetition()
        stream.repetition(state, rec)
        assert rec.failed == 0, rec.failures
        contents = {}
        for n in names:
            with open(tmp_path / n, "rb") as fh:
                contents[n] = fh.read()
        return contents

    untraced = repetition(workloads.Recorder())
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = repetition(workloads.Recorder(tracer))
    assert traced == untraced
    assert any(s.name == "data_io.decode" for s in tracer.spans)
    assert gcm.train.eval_grouped is gcm.objectives.eval_grouped


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grouped-inmem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
