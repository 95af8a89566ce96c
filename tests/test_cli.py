import argparse
import hashlib
import json
import sys
import types
from contextlib import nullcontext

import numpy as np
import pytest

import gcm.cli

from gcm import (
    Algorithm,
    GeneratorSpec,
    Hyperparams,
    LinearModel,
    MalformedRecordError,
    fit_algorithm,
    generate,
    load_binary,
    load_model,
    save_binary,
    save_model,
    save_text,
    train_mi_svm,
)
from gcm.cli import build_parser, main
from conftest import build_grouped_dataset


def run(*argv):
    return main(list(argv))


@pytest.fixture
def easy_files(tmp_path):
    """A cleanly separable binary train/test pair."""
    train = generate(GeneratorSpec(seed=5, n_pos_groups=8, n_neg_groups=24,
                                   group_size_min=3, group_size_max=6, d=3,
                                   key_shift=20.0, noise_scale=0.5))
    test = generate(GeneratorSpec(seed=6, n_pos_groups=8, n_neg_groups=24,
                                  group_size_min=3, group_size_max=6, d=3,
                                  key_shift=20.0, noise_scale=0.5))
    train_path, test_path = tmp_path / "train.bin", tmp_path / "test.bin"
    save_binary(train, train_path)
    save_binary(test, test_path)
    return train_path, test_path


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            assert run("synth", "--out", str(out), "--seed", "7",
                       "--pos-groups", "4", "--neg-groups", "10",
                       "--group-size-min", "3", "--group-size-max", "5",
                       "--d", "4") == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.bin.manifest.json").exists()

    def test_preset(self, tmp_path):
        out = tmp_path / "p.bin"
        assert run("synth", "--out", str(out), "--preset", "easy",
                   "--seed", "1", "--pos-groups", "3", "--neg-groups", "6",
                   "--group-size-min", "2", "--group-size-max", "4",
                   "--d", "3") == 0
        manifest = json.loads((tmp_path / "p.bin.manifest.json").read_text())
        assert manifest["parameters"]["spec"]["key_shift"] == 6.0

    def test_unset_flags_take_the_spec_defaults(self, tmp_path):
        out = tmp_path / "s.bin"
        assert run("synth", "--out", str(out), "--seed", "3",
                   "--pos-groups", "2", "--neg-groups", "3") == 0
        manifest = json.loads((tmp_path / "s.bin.manifest.json").read_text())
        assert manifest["parameters"]["spec"] == GeneratorSpec(
            seed=3, n_pos_groups=2, n_neg_groups=3).__dict__

    @pytest.mark.parametrize("preset", [None, "easy"])
    @pytest.mark.parametrize("flags", [
        ("--d", "0"),
        ("--group-size-min", "0", "--group-size-max", "0"),
        ("--pos-groups", "0"),
        ("--key-shift", "nan"),
        ("--key-shift", "inf"),
        ("--decoy-shift", "nan"),
        ("--outlier-shift=-inf",),
    ])
    def test_invalid_spec_is_usage_error(self, preset, flags, tmp_path):
        preset_flags = ("--preset", preset) if preset else ()
        assert run("synth", "--out", str(tmp_path / "bad.bin"),
                   *preset_flags, *flags) == 2
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    @pytest.mark.parametrize("algo", ["gcm", "gcm-nogroup", "svm", "misvm"])
    def test_all_algorithms_train(self, algo, easy_files, tmp_path):
        train_path, _ = easy_files
        model_out = tmp_path / f"{algo}.model.json"
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", algo, "--lambda", "0.5") == 0
        saved = load_model(model_out)
        assert saved.provenance["algo"] == algo
        manifest = json.loads(
            (tmp_path / f"{algo}.model.json.manifest.json").read_text())
        assert "termination_reason" in manifest

    def test_exact_hinge_baseline(self, easy_files, tmp_path):
        train_path, _ = easy_files
        model_out = tmp_path / "svm0.model.json"
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", "svm", "--lambda", "0.5",
                   "--delta", "0") == 0
        assert load_model(model_out).hyperparams.delta == 0.0

    def test_svm_trains_like_fit_algorithm(self, easy_files, tmp_path):
        # no --delta: the baseline trains at the exact hinge, as in cv and
        # compare, and the model file records that delta
        train_path, _ = easy_files
        model_out = tmp_path / "svm.model.json"
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", "svm", "--lambda", "0.5") == 0
        saved = load_model(model_out)
        model, _ = fit_algorithm(Algorithm.SVM, load_binary(train_path), 0.5)
        assert np.array_equal(saved.model.w, model.w)
        assert saved.model.b == model.b
        assert saved.hyperparams.delta == 0.0

    def test_misvm_records_the_lambda_it_trained_at(self, easy_files, tmp_path):
        train_path, _ = easy_files
        model_out = tmp_path / "misvm.model.json"
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", "misvm", "--lambda", "0.6") == 0
        saved = load_model(model_out)
        assert saved.hyperparams.lam == 0.6
        model, _, _, _ = train_mi_svm(load_binary(train_path), saved.hyperparams)
        assert saved.model.w.tobytes() == model.w.tobytes()
        assert saved.model.b == model.b

    @pytest.mark.parametrize("cap, reason", [
        (50, "SelectorFixedPoint"),
        (2, "SelectorFixedPoint"),  # the fixed point is reached at the cap
        (1, "MaxOuterIterations"),
    ])
    def test_misvm_termination_reason(self, cap, reason, easy_files, tmp_path):
        train_path, _ = easy_files
        model_out = tmp_path / "misvm.model.json"
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", "misvm", "--lambda", "0.5",
                   "--misvm-max-outer", str(cap)) == 0
        manifest = json.loads(
            (tmp_path / "misvm.model.json.manifest.json").read_text())
        assert manifest["outer_iterations"] == min(cap, 2)
        assert manifest["termination_reason"] == reason

    def test_dataset_is_hashed_once(self, easy_files, tmp_path, monkeypatch):
        train_path, _ = easy_files
        model_out = tmp_path / "gcm.model.json"
        hashed = []
        sha256 = gcm.cli._sha256
        monkeypatch.setattr(gcm.cli, "_sha256",
                            lambda p: hashed.append(p) or sha256(p))
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", "gcm", "--lambda", "0.5") == 0
        assert hashed == [str(train_path)]
        digest = hashlib.sha256(train_path.read_bytes()).hexdigest()
        manifest = json.loads(
            (tmp_path / "gcm.model.json.manifest.json").read_text())
        assert manifest["dataset_sha256"] == {str(train_path): digest}
        assert load_model(model_out).provenance["dataset_sha256"] == digest

    def test_max_iterations_is_the_only_solver_flag(self, easy_files, tmp_path):
        train_path, _ = easy_files
        model_out = tmp_path / "gcm.model.json"
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", "gcm", "--lambda", "0.5",
                   "--max-iterations", "3") == 0
        manifest = json.loads(
            (tmp_path / "gcm.model.json.manifest.json").read_text())
        assert manifest["iterations"] <= 3
        assert manifest["parameters"]["solver"]["max_iterations"] == 3
        with pytest.raises(SystemExit) as err:
            run("train", "--data", str(train_path), "--model-out",
                str(model_out), "--algo", "gcm", "--lambda", "0.5",
                "--grad-tol", "1e-3")
        assert err.value.code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--lambda", "1.5"),
        ("--delta", "nan"),
        ("--delta", "inf"),
        ("--epsilon", "nan"),
        ("--epsilon", "inf"),
    ], ids=lambda v: v.lstrip("-"))
    def test_out_of_range_flag_is_usage_error(self, flag, value, easy_files,
                                              tmp_path):
        train_path, _ = easy_files
        before = set(tmp_path.iterdir())
        with pytest.raises(SystemExit) as err:
            run("train", "--data", str(train_path), "--model-out",
                str(tmp_path / "m.json"), "--algo", "gcm", "--lambda", "0.5",
                flag, value)
        assert err.value.code == 2
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("lam", ["0", "1.0"])
    def test_misvm_lambda_at_a_bound_is_usage_error(self, lam, easy_files,
                                                    tmp_path):
        train_path, _ = easy_files
        before = set(tmp_path.iterdir())
        assert run("train", "--data", str(train_path), "--model-out",
                   str(tmp_path / "m.json"), "--algo", "misvm",
                   "--lambda", lam) == 2
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_is_usage_error(self, threads, easy_files,
                                                tmp_path):
        train_path, _ = easy_files
        before = set(tmp_path.iterdir())
        with pytest.raises(SystemExit) as err:
            run("--threads", threads, "train", "--data", str(train_path),
                "--model-out", str(tmp_path / "m.json"), "--algo", "gcm",
                "--lambda", "0.5")
        assert err.value.code == 2
        assert set(tmp_path.iterdir()) == before

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("group_id,label,is_key,f1\n0,+1,0,1.0\n1,-1,0,0.0\n")
        assert run("train", "--data", str(bad), "--model-out",
                   str(tmp_path / "m.json"), "--algo", "gcm",
                   "--lambda", "0.5") == 3

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # finite features whose standard deviation overflows
        bad = tmp_path / "huge.csv"
        bad.write_text("group_id,label,is_key,f1\n"
                       "0,+1,1,1e300\n1,-1,0,-1e300\n")
        assert run("train", "--data", str(bad), "--model-out",
                   str(tmp_path / "m.json"), "--algo", "gcm",
                   "--lambda", "0.5", "--standardize") == 4
        assert "feature 1" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("value, flags", [
        ("-inf", ()),
        ("1e200", ("--expand-degree", "2")),
        ("1e200", ("--expand-degree", "2", "--standardize")),
    ])
    def test_infinite_feature_is_a_data_error(self, value, flags, tmp_path,
                                              capsys):
        # given, or made by the lift: either way, rejected at its group
        bad = tmp_path / "inf.csv"
        bad.write_text("group_id,label,is_key,f1\n"
                       f"0,+1,1,1.0\n1,-1,0,{value}\n")
        assert run("train", "--data", str(bad), "--model-out",
                   str(tmp_path / "m.json"), "--algo", "gcm",
                   "--lambda", "0.5", *flags) == 3
        assert "group 1" in capsys.readouterr().err

    def test_expansion_and_standardize_round_trip(self, easy_files, tmp_path):
        train_path, test_path = easy_files
        model_out = tmp_path / "poly.model.json"
        report = tmp_path / "poly.csv"
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", "gcm-nogroup", "--lambda", "0.5",
                   "--expand-degree", "2", "--standardize") == 0
        saved = load_model(model_out)
        assert saved.pipeline.expansion.degree == 2
        assert saved.pipeline.scaler is not None
        assert run("evaluate", "--model", str(model_out), "--data",
                   str(test_path), "--report-out", str(report)) == 0


class TestEvaluate:
    def test_perfect_fixture_reports_group_auc_one(self, easy_files, tmp_path):
        train_path, test_path = easy_files
        model_out = tmp_path / "m.json"
        report = tmp_path / "r.csv"
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", "gcm", "--lambda", "0.5") == 0
        assert run("evaluate", "--model", str(model_out), "--data",
                   str(test_path), "--report-out", str(report)) == 0
        assert "group=1.0" in report.read_text().splitlines()[-1]

    def test_reports_are_deterministic(self, easy_files, tmp_path):
        train_path, test_path = easy_files
        model_out = tmp_path / "m.json"
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run("train", "--data", str(train_path), "--model-out", str(model_out),
            "--algo", "gcm", "--lambda", "0.5")
        for r in (r1, r2):
            assert run("evaluate", "--model", str(model_out), "--data",
                       str(test_path), "--report-out", str(r)) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_outputs_match_pinned_hashes(self, tmp_path):
        # a fixed model, not a trained one, so only evaluation is pinned;
        # the candidate curve (20,284 points) spans two report chunks
        data, model = tmp_path / "s.bin", tmp_path / "m.json"
        assert run("synth", "--out", str(data), "--seed", "11",
                   "--pos-groups", "10", "--neg-groups", "90", "--d", "3") == 0
        save_model(model, LinearModel(np.array([0.5, -0.25, 1.0]), 0.125),
                   Hyperparams(0.5, 1.0, 0.5))
        report = tmp_path / "r.csv"
        assert run("evaluate", "--model", str(model), "--data", str(data),
                   "--report-out", str(report)) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (report, tmp_path / "r.csv.groups.csv")}
        assert digests == {
            "r.csv": "92cc81753f11dc0a51fd0f551a35cd19"
                     "f5911c2b3d9a1f3a9a286bf9016aea97",
            "r.csv.groups.csv": "dc9351a12a38076d2f0cfc2482ff701e"
                                "ae10385193e6818d4c14445227850a11",
        }

    @pytest.mark.parametrize("algo, digests", [
        ("gcm", ("a79964c5d409533f294b8c62247c1e3c9e796dcd50d3588d5c7a8c2d317dc0cd",
                 "21e4646c19792c96bb7ca99b5e0e21b2d204ea10bec529e02c6356d0eed7fe7f",
                 "9d7240bed7064a399cb91dd7f7a3b8836938dfc21b2f39f8cfe3da0c9636d07f")),
        ("gcm-nogroup",
         ("e3bccafa56a42bb9ff6396bf22d7f2b41f5cc091ecd5d2d62e3d37d44d5e15a8",
          "047131c801a531b91cf726ebcc3d1c28ef0ee81a4209b741576f6218d9e39d56",
          "d7d5afb594f66d7188ba702a7f1da2ee369c8950df2dc2c2cf80426c889faddf")),
    ])
    def test_pipeline_outputs_match_pinned_hashes(self, algo, digests,
                                                  tmp_path, monkeypatch):
        # lift, then scale, at training and at evaluation; the model file
        # records the dataset path, so the run uses relative names
        monkeypatch.chdir(tmp_path)
        assert run("synth", "--out", "s.bin", "--seed", "11",
                   "--pos-groups", "10", "--neg-groups", "90", "--d", "3") == 0
        assert run("train", "--data", "s.bin", "--model-out", f"{algo}.json",
                   "--algo", algo, "--lambda", "0.5", "--expand-degree", "2",
                   "--standardize") == 0
        assert run("evaluate", "--model", f"{algo}.json", "--data", "s.bin",
                   "--report-out", f"{algo}.csv") == 0
        assert tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in (f"{algo}.json", f"{algo}.csv",
                         f"{algo}.csv.groups.csv")) == digests

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda doc: doc["hyperparams"].update(delta=-1), "delta",
                     id="negative delta"),
        pytest.param(lambda doc: doc["w"].__setitem__(0, float("nan")),
                     "finite", id="NaN weight"),
        pytest.param(lambda doc: doc["scaler"]["scale"].__setitem__(0, 0.0),
                     "nonzero", id="zero scale"),
        pytest.param(lambda doc: doc["scaler"]["scale"].__setitem__(
            0, float("nan")), "finite", id="NaN scale"),
        pytest.param(lambda doc: doc["expansion"].update(degree=0), "degree",
                     id="degree 0"),
        pytest.param(lambda doc: doc["scaler"].update(
            shift=doc["scaler"]["shift"][:5], scale=doc["scaler"]["scale"][:5]),
            "scaler has 5 features, the pipeline outputs 9",
            id="narrow scaler"),
        pytest.param(lambda doc: doc.update(scaler=None) or doc[
            "expansion"].update(input_d=4),
            "model has 9 weights, its feature pipeline outputs 14",
            id="pipeline wider than the model"),
    ])
    def test_bad_model_field_is_a_data_error_at_the_file(
            self, edit, message, easy_files, tmp_path, capsys):
        train_path, test_path = easy_files
        model_out = tmp_path / "m.json"
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", "gcm-nogroup", "--lambda", "0.5",
                   "--max-iterations", "5", "--expand-degree", "2",
                   "--standardize") == 0
        doc = json.loads(model_out.read_text())
        edit(doc)
        model_out.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecordError, match=message) as err:
            load_model(model_out)
        assert err.value.location == str(model_out)
        capsys.readouterr()
        assert run("evaluate", "--model", str(model_out), "--data",
                   str(test_path), "--report-out",
                   str(tmp_path / "r.csv")) == 3
        assert f"(at {model_out})" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_scores_the_rows_once(self, easy_files, tmp_path, monkeypatch):
        train_path, test_path = easy_files
        model_out = tmp_path / "m.json"
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", "gcm", "--lambda", "0.5") == 0
        calls = []
        raw_scores = LinearModel.raw_scores
        monkeypatch.setattr(LinearModel, "raw_scores",
                            lambda self, X: calls.append(X) or raw_scores(self, X))
        assert run("evaluate", "--model", str(model_out), "--data",
                   str(test_path), "--report-out", str(tmp_path / "r.csv")) == 0
        assert len(calls) == 1

    def test_groups_csv_argmax_column(self, tmp_path):
        # one negative group with scores -1.0, 0.3, 2.2, -0.7 under w=1, b=0,
        # plus a positive singleton so both classes exist
        X = np.array([[-1.0], [0.3], [2.2], [-0.7], [5.0]])
        ds_path = tmp_path / "g.csv"
        from gcm import Dataset
        save_text(Dataset(X, [-1, -1, -1, -1, 1], [0, 0, 0, 0, 1],
                          [False] * 4 + [True]), ds_path)
        model_path = tmp_path / "hand.model.json"
        from gcm import Hyperparams, LinearModel, save_model
        save_model(model_path, LinearModel(np.array([1.0]), 0.0),
                   Hyperparams(lam=0.5))
        report = tmp_path / "r.csv"
        assert run("evaluate", "--model", str(model_path), "--data",
                   str(ds_path), "--report-out", str(report)) == 0
        groups_csv = (tmp_path / "r.csv.groups.csv").read_text().splitlines()
        assert groups_csv[0] == "group_id,label,group_score,argmax_row"
        assert groups_csv[1] == "0,-1,2.2,2"

    def test_nan_feature_is_a_data_error(self, easy_files, tmp_path, capsys):
        train_path, _ = easy_files
        model_out = tmp_path / "m.json"
        run("train", "--data", str(train_path), "--model-out", str(model_out),
            "--algo", "gcm", "--lambda", "0.5")
        bad = tmp_path / "nan.csv"
        bad.write_text("group_id,label,is_key,f1,f2,f3\n"
                       "0,+1,1,1.0,2.0,3.0\n1,-1,0,nan,nan,nan\n")
        assert run("evaluate", "--model", str(model_out), "--data", str(bad),
                   "--report-out", str(tmp_path / "r.csv")) == 3
        assert "group 1" in capsys.readouterr().err

    def test_reordered_monomials_are_a_data_error(self, easy_files, tmp_path,
                                                  capsys):
        train_path, test_path = easy_files
        model_out = tmp_path / "poly.model.json"
        assert run("train", "--data", str(train_path), "--model-out",
                   str(model_out), "--algo", "gcm", "--lambda", "0.5",
                   "--expand-degree", "2") == 0
        doc = json.loads(model_out.read_text())
        doc["expansion"]["feature_order"].reverse()
        model_out.write_text(json.dumps(doc))
        assert run("evaluate", "--model", str(model_out), "--data",
                   str(test_path), "--report-out",
                   str(tmp_path / "r.csv")) == 3
        assert str(model_out) in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_dimension_mismatch_exit_code(self, easy_files, tmp_path, rng):
        train_path, _ = easy_files
        model_out = tmp_path / "m.json"
        run("train", "--data", str(train_path), "--model-out", str(model_out),
            "--algo", "svm", "--lambda", "0.5")
        other = build_grouped_dataset(rng, 2, 2, 1, 3, 5)
        other_path = tmp_path / "other.bin"
        save_binary(other, other_path)
        assert run("evaluate", "--model", str(model_out), "--data",
                   str(other_path), "--report-out",
                   str(tmp_path / "r.csv")) == 3


class TestCv:
    def test_single_fold_is_usage_error(self, easy_files, tmp_path):
        train_path, _ = easy_files
        with pytest.raises(SystemExit) as err:
            run("cv", "--data", str(train_path), "--algo", "gcm",
                "--folds", "1", "--report-out", str(tmp_path / "cv.csv"))
        assert err.value.code == 2

    @pytest.mark.parametrize("grid", ["0.5,1.0", "nan", ","])
    def test_bad_lambda_grid_is_usage_error(self, grid, easy_files, tmp_path):
        train_path, _ = easy_files
        before = set(tmp_path.iterdir())
        assert run("cv", "--data", str(train_path), "--algo", "gcm",
                   "--lambda-grid", grid, "--report-out",
                   str(tmp_path / "cv.csv")) == 2
        assert set(tmp_path.iterdir()) == before

    def test_small_grid_runs_and_reports(self, easy_files, tmp_path):
        train_path, _ = easy_files
        report = tmp_path / "cv.csv"
        assert run("cv", "--data", str(train_path), "--algo", "svm",
                   "--folds", "2", "--lambda-grid", "0.3,0.6",
                   "--report-out", str(report)) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "lambda,mean_group_auc,mean_candidate_auc,folds_used"
        assert len(lines) == 4 and lines[-1].startswith("# best_lambda=")


class TestCompare:
    def test_table_and_determinism(self, easy_files, tmp_path):
        train_path, test_path = easy_files
        r1, r2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        for r in (r1, r2):
            assert run("compare", "--data", str(train_path), "--test-data",
                       str(test_path), "--lambda", "0.5", "--report-out",
                       str(r)) == 0
        assert r1.read_bytes() == r2.read_bytes()
        lines = r1.read_text().splitlines()
        assert lines[0] == "algo,candidate_auc,group_auc"
        assert [l.split(",")[0] for l in lines[1:]] == [
            "gcm", "gcm-nogroup", "svm", "misvm"]

    def test_split_fraction_out_of_range_is_usage_error(self, easy_files,
                                                        tmp_path):
        train_path, _ = easy_files
        before = set(tmp_path.iterdir())
        assert run("compare", "--data", str(train_path), "--lambda", "0.5",
                   "--split-fraction", "1.5", "--report-out",
                   str(tmp_path / "c.csv")) == 2
        assert set(tmp_path.iterdir()) == before


def argv_from_manifest(manifest):
    """Rebuild a command line from the flags a manifest records.

    Every flag of the command must be recorded under its dest name; the
    parameters left over are the settings the command resolved.
    """
    params = dict(manifest["parameters"])

    def flags(parser):
        argv = []
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction) or not action.option_strings:
                continue
            value = params.pop(action.dest)
            if value is None or value is False:
                continue
            argv.append(action.option_strings[0])
            if isinstance(value, list):
                argv.append(",".join(map(str, value)))
            elif value is not True:
                argv.append(str(value))
        return argv

    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    command = manifest["command"]
    argv = flags(parser) + [command] + flags(commands[command])
    return argv, params


class TestManifest:
    def test_rerunning_each_manifest_reproduces_its_outputs(
            self, tmp_path, monkeypatch):
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        monkeypatch.chdir(first)
        small = ("--pos-groups", "5", "--neg-groups", "12",
                 "--group-size-min", "3", "--group-size-max", "6", "--d", "3")
        commands = [
            ("synth", "--out", "train.bin", "--seed", "11", *small),
            ("synth", "--out", "test.csv", "--seed", "12", "--format", "text",
             "--preset", "easy", *small),
            ("train", "--data", "train.bin", "--model-out", "model.json",
             "--algo", "gcm-nogroup", "--lambda", "0.4", "--expand-degree",
             "2", "--standardize", "--max-iterations", "7"),
            ("evaluate", "--model", "model.json", "--data", "test.csv",
             "--report-out", "report.csv", "--groups-out", "groups.csv"),
            ("cv", "--data", "train.bin", "--algo", "gcm", "--folds", "2",
             "--lambda-grid", "0.3,0.7", "--seed", "3", "--max-iterations",
             "3", "--report-out", "cv.csv"),
            ("compare", "--data", "train.bin", "--lambda", "0.5", "--seed",
             "3", "--max-iterations", "3", "--report-out", "split.csv"),
            ("compare", "--data", "train.bin", "--test-data", "test.csv",
             "--lambda", "0.5", "--max-iterations", "3", "--delta", "0.25",
             "--report-out", "held_out.csv"),
        ]
        outputs = ["train.bin", "test.csv", "model.json", "report.csv",
                   "cv.csv", "split.csv", "held_out.csv"]
        for argv in commands:
            assert run(*argv) == 0
        settings = {"synth": {"spec"}, "train": {"solver"}}
        monkeypatch.chdir(second)
        for out in outputs:
            manifest = json.loads((first / f"{out}.manifest.json").read_text())
            argv, resolved = argv_from_manifest(manifest)
            assert set(resolved) == settings.get(manifest["command"], set())
            assert main(argv) == 0, argv
            again = json.loads((second / f"{out}.manifest.json").read_text())
            for m in (manifest, again):
                del m["wall_clock_seconds"]
            assert again == manifest
        assert ({p.name for p in second.iterdir()}
                == {p.name for p in first.iterdir()})
        for path in first.iterdir():
            if not path.name.endswith(".manifest.json"):
                assert (second / path.name).read_bytes() == path.read_bytes(), \
                    path.name


class TestThreads:
    def synth(self, tmp_path, *flags):
        out = tmp_path / "s.bin"
        assert run(*flags, "synth", "--out", str(out), "--pos-groups", "2",
                   "--neg-groups", "3") == 0
        return json.loads((tmp_path / "s.bin.manifest.json").read_text())

    def test_cap_applied_with_threadpoolctl(self, tmp_path, monkeypatch):
        seen = []
        fake = types.ModuleType("threadpoolctl")
        fake.threadpool_limits = lambda limits: seen.append(limits) or nullcontext()
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        manifest = self.synth(tmp_path, "--threads", "2")
        assert seen == [2]
        assert manifest["threads_applied"] is True
        assert manifest["parameters"]["threads"] == 2

    def test_cap_not_applied_without_threadpoolctl(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        with pytest.warns(UserWarning, match="--threads ignored"):
            manifest = self.synth(tmp_path, "--threads", "2")
        assert manifest["threads_applied"] is False
        assert manifest["parameters"]["threads"] == 2


class TestPipelineDeterminism:
    def test_synth_train_evaluate_bitwise_repeatable(self, tmp_path, monkeypatch):
        outputs = []
        for tag in ("one", "two"):
            # same file names in separate directories so recorded paths match
            workdir = tmp_path / tag
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            data = "data.bin"
            model = "model.json"
            report = "report.csv"
            assert run("synth", "--out", data, "--seed", "11",
                       "--pos-groups", "5", "--neg-groups", "12",
                       "--group-size-min", "3", "--group-size-max", "6",
                       "--d", "4", "--key-shift", "6") == 0
            assert run("train", "--data", data, "--model-out",
                       model, "--algo", "gcm", "--lambda", "0.4") == 0
            assert run("evaluate", "--model", model, "--data", data,
                       "--report-out", report) == 0
            outputs.append(((workdir / data).read_bytes(),
                            (workdir / model).read_bytes(),
                            (workdir / report).read_bytes()))
        assert outputs[0] == outputs[1]
