"""Batch command-line front end.

Subcommands: ``synth`` (generate datasets), ``train``, ``evaluate``, ``cv``
(cross-validate the trade-off), ``compare`` (four-algorithm benchmark on a
shared split). Each command returns its output path, its input files, the
settings it resolved and its results, and :func:`main` writes one run
manifest from them (``<output>.manifest.json``). The manifest's
``parameters`` hold every parsed flag under its argparse dest name (``lam``
for ``--lambda``), plus ``spec`` (the resolved ``GeneratorSpec``) for
``synth`` and ``solver`` (the ``SolverConfig``) for ``train``. Beside them
it records whether the ``--threads`` cap was applied (``threads_applied``,
false where ``threadpoolctl`` is missing), the SHA-256 of each input file,
the wall clock and the command's results as top-level keys. Model and
report files themselves contain nothing non-deterministic, so re-running
the flags a manifest records reproduces them byte for byte.

Exit codes: 0 success, 2 usage error, 3 data error (including arrays too
large to allocate), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import fields, replace

from . import __version__
from .baselines import MISVM_MAX_OUTER
from .data_io import (
    load_dataset,
    load_model,
    save_binary,
    save_model,
    save_text,
)
from .errors import DomainError, GcmError, NumericalError
from .evaluation import (
    Algorithm,
    CvPlan,
    DEFAULT_LAMBDA_GRID,
    _write_lines,
    cross_validate,
    evaluate_model,
    fit_algorithm,
    score_groups,
    split_groups,
    training_hyperparams,
    write_groups_csv,
    write_report_csv,
)
from .expansion import ExpansionSpec, FeaturePipeline
from .generator import GeneratorSpec, PRESETS, generate
from .model import DEFAULT_DELTA, DEFAULT_EPSILON
from .solver import SolverConfig, Termination

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _lambda_arg(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"lambda must be in [0, 1], got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _int_at_least(minimum: int):
    """argparse type: an int no smaller than ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value
    return parse


def _grid_arg(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated floats; :class:`CvPlan` checks them."""
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, output, inputs: dict, settings: dict,
                    results: dict, started: float, threads_applied: bool):
    """Write ``<output>.manifest.json`` for one finished command.

    ``inputs`` maps each input file to its SHA-256, or to None when the
    command has not hashed it yet.
    """
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    manifest = {
        "command": args.command,
        "package_version": __version__,
        "parameters": {**flags, **settings},
        "threads_applied": threads_applied,
        "dataset_sha256": {p: digest or _sha256(p) for p, digest in inputs.items()},
        "wall_clock_seconds": time.perf_counter() - started,
        **results,
    }
    with open(f"{output}.manifest.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def _add_fit_flags(parser, with_lambda=True):
    """The fit flags shared by ``train``, ``cv`` and ``compare``."""
    if with_lambda:
        parser.add_argument("--lambda", dest="lam", type=_lambda_arg,
                            required=True,
                            help="trade-off between regularization and loss, "
                                 "in [0, 1]")
    parser.add_argument("--epsilon", type=_positive_float, default=DEFAULT_EPSILON,
                        help="Huber width for the weight penalty")
    parser.add_argument("--delta", type=_nonneg_float, default=DEFAULT_DELTA,
                        help="smoothed-hinge width; 0 means the exact hinge")
    parser.add_argument("--misvm-max-outer", type=int, default=MISVM_MAX_OUTER,
                        help="MI-SVM outer iteration cap")
    group = parser.add_argument_group("solver overrides")
    group.add_argument("--max-iterations", type=int,
                       default=SolverConfig.max_iterations,
                       help="L-BFGS iteration cap per solve")


# Each command returns (output path, {input path: sha256 or None},
# resolved settings, results); main writes the manifest from them.


def cmd_synth(args):
    if args.preset:
        spec = PRESETS[args.preset](seed=args.seed)
    else:
        spec = GeneratorSpec(seed=args.seed, n_pos_groups=40, n_neg_groups=200)
    # every synth flag's dest is a spec field; the spec checks the values
    spec = replace(spec, **{f.name: getattr(args, f.name) for f in fields(spec)
                            if getattr(args, f.name) is not None})
    data = generate(spec)
    if args.format == "binary":
        save_binary(data, args.out)
    else:
        save_text(data, args.out)
    print(f"wrote {data.n_rows} rows / {data.n_groups} groups to {args.out}")
    return args.out, {args.out: None}, {"spec": spec.__dict__}, {}


def cmd_train(args):
    digest = _sha256(args.data)
    solver_cfg = SolverConfig(max_iterations=args.max_iterations)
    algo = Algorithm(args.algo)
    expansion = (None if args.expand_degree is None
                 else ExpansionSpec(degree=args.expand_degree))
    pipeline, data = FeaturePipeline.fit(load_dataset(args.data), expansion,
                                         args.standardize)
    model, details = fit_algorithm(algo, data, args.lam, args.epsilon,
                                   args.delta, solver_cfg, args.misvm_max_outer)
    if (details.get("iterations") == 0 and details["termination_reason"]
            == Termination.LINE_SEARCH_FAILURE.value):
        # no step was accepted: the model would be the start point
        raise NumericalError("the first line search found no decrease from "
                             "the zero model; no model was written")
    results = {k: v for k, v in details.items() if k != "selector"}
    provenance = {
        "algo": args.algo,
        "dataset": args.data,
        "dataset_sha256": digest,
        "solver": solver_cfg.__dict__,
        "standardize": args.standardize,
        **results,
    }
    hp = training_hyperparams(algo, args.lam, args.epsilon, args.delta)
    save_model(args.model_out, model, hp, pipeline=pipeline,
               provenance=provenance)
    print(f"trained {args.algo} model -> {args.model_out} "
          f"({results['termination_reason']})")
    return (args.model_out, {args.data: digest},
            {"solver": solver_cfg.__dict__}, results)


def cmd_evaluate(args):
    saved = load_model(args.model)
    data = saved.pipeline.apply(load_dataset(args.data))
    report = evaluate_model(saved.model, data)
    write_report_csv(report, args.report_out)
    groups_out = args.groups_out or f"{args.report_out}.groups.csv"
    write_groups_csv(score_groups(report.scores, data), groups_out)
    print(f"candidate_auc={report.candidate_auc!r} group_auc={report.group_auc!r}")
    return (args.report_out, dict.fromkeys([args.data, args.model]), {},
            {"candidate_auc": report.candidate_auc,
             "group_auc": report.group_auc})


def cmd_cv(args):
    plan = CvPlan(folds=args.folds, lambda_grid=args.lambda_grid, seed=args.seed)
    data = load_dataset(args.data)
    best_lam, results = cross_validate(
        data, Algorithm(args.algo), plan,
        epsilon=args.epsilon, delta=args.delta,
        solver_cfg=SolverConfig(max_iterations=args.max_iterations),
        misvm_max_outer=args.misvm_max_outer,
    )
    _write_lines(args.report_out, [
        "lambda,mean_group_auc,mean_candidate_auc,folds_used",
        *(f"{r.lam!r},{r.mean_group_auc!r},{r.mean_candidate_auc!r},"
          f"{r.folds_used}" for r in results),
        f"# best_lambda={best_lam!r}",
    ])
    print(f"best_lambda={best_lam!r}")
    return args.report_out, {args.data: None}, {}, {"best_lambda": best_lam}


def cmd_compare(args):
    data = load_dataset(args.data)
    inputs = {args.data: None}
    if args.test_data:
        train_data, test_data = data, load_dataset(args.test_data)
        inputs[args.test_data] = None
    else:
        train_data, test_data = split_groups(data, args.split_fraction, args.seed)
    solver_cfg = SolverConfig(max_iterations=args.max_iterations)
    reports = {}
    for algo in Algorithm:
        model, _ = fit_algorithm(algo, train_data, args.lam, args.epsilon,
                                 args.delta, solver_cfg, args.misvm_max_outer)
        reports[algo] = evaluate_model(model, test_data)
    _write_lines(args.report_out, ["algo,candidate_auc,group_auc", *(
        f"{algo.value},{rep.candidate_auc!r},{rep.group_auc!r}"
        for algo, rep in reports.items())])
    for algo, rep in reports.items():
        print(f"{algo.value:12s} candidate_auc={rep.candidate_auc:.4f} "
              f"group_auc={rep.group_auc:.4f}")
    return args.report_out, inputs, {}, {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcm",
        description="Group-level convex training of linear classifiers",
    )
    parser.add_argument("--threads", type=_int_at_least(1), default=1,
                        help="BLAS thread cap recorded in the manifest")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic grouped dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("binary", "text"), default="binary")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pos-groups", dest="n_pos_groups", type=int)
    p.add_argument("--neg-groups", dest="n_neg_groups", type=int)
    p.add_argument("--group-size-min", type=int)
    p.add_argument("--group-size-max", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--key-shift", type=float)
    p.add_argument("--noise-scale", type=_positive_float)
    p.add_argument("--outlier-rate", type=_nonneg_float)
    p.add_argument("--outlier-shift", type=float)
    p.add_argument("--decoy-shift", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one algorithm on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--algo", choices=[a.value for a in Algorithm], required=True)
    _add_fit_flags(p)
    p.add_argument("--expand-degree", type=int)
    p.add_argument("--standardize", action="store_true",
                   help="fit and apply a per-feature standardizer")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report-out", required=True)
    p.add_argument("--groups-out",
                   help="per-group score table; default <report-out>.groups.csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="cross-validate the trade-off on a grid")
    p.add_argument("--data", required=True)
    p.add_argument("--algo", choices=[a.value for a in Algorithm], required=True)
    p.add_argument("--folds", type=_int_at_least(2), default=CvPlan.folds)
    p.add_argument("--lambda-grid", type=_grid_arg, default=DEFAULT_LAMBDA_GRID)
    p.add_argument("--seed", type=int, default=0)
    _add_fit_flags(p, with_lambda=False)
    p.add_argument("--report-out", required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser(
        "compare",
        help="train all four algorithms on a shared split and tabulate AUCs",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--test-data")
    p.add_argument("--split-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    _add_fit_flags(p)
    p.add_argument("--report-out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def _thread_limit(threads: int):
    """A context capping BLAS at ``threads``, and whether it applies the cap.

    Without ``threadpoolctl`` the context does nothing.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        if threads != 1:
            warnings.warn("threadpoolctl unavailable; --threads ignored")
        return nullcontext(), False
    return threadpool_limits(limits=threads), True


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        limit, threads_applied = _thread_limit(args.threads)
        with limit:
            run = args.func(args)
        _write_manifest(args, *run, started, threads_applied)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GcmError, OSError, MemoryError) as exc:
        # the rest: a bad or unreadable file, or data and settings that
        # cannot be run, such as arrays too large to allocate
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
