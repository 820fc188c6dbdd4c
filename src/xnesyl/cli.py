"""Command-line entry point.

Subcommands cover the whole pipeline: `gen` emits a synthetic dataset,
`train` runs either training procedure and writes checkpoints plus a
metrics report, `eval` re-scores checkpoints on a dataset, `explain`
emits the attribution graph artifacts for one instance, and `report`
tabulates metrics across run directories.

Exit codes: 0 success, 2 usage error, 3 input validation error or a
path the OS refused, 4 numerical failure. XNESYL_SEED serves as a
fallback seed when --seed is not given.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .alignment import SCHEME_KINDS, WeightScheme, instance_attribution, sag_to_dot, sag_to_json
from .classifier import load_classifier, save_classifier
from .datagen import (
    GeneratorConfig, generate_dataset, locate_instance, read_dataset, read_test_split,
    split_dataset, write_dataset,
)
from .detector import AGGREGATIONS, aggregate, detect, load_detector, save_detector
from .errors import NumericalError, ValidationError, read_json_array, read_json_object
from .kg import KnowledgeGraph, load_kg
from .shapley import SHAP_MODES, BackgroundSet
from .training import (
    RunArtifacts,
    TrainConfig,
    config_echo,
    config_from_echo,
    evaluate,
    metrics_report,
    shap_eval_seed,
    train_shap_backprop,
    train_standard,
)

_SCHEME_FLAGS = {kind.replace("_", "-"): kind for kind in SCHEME_KINDS}
_REPORT_METRICS = ("part_macro_accuracy", "accuracy", "mean_shap_ged")


def _render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("XNESYL_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"XNESYL_SEED must be an integer, got {env!r}") from None


def _parse_regions(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValidationError(f"--regions expects LO:HI, got {text!r}") from None


def _add_gen(sub) -> None:
    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--kg", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--noise", type=float, default=GeneratorConfig.noise_rate)
    gen.add_argument("--dim", type=int, default=GeneratorConfig.feature_dim)
    gen.add_argument("--sep", type=float, default=GeneratorConfig.separation)
    gen.add_argument("--regions", default="%d:%d" % GeneratorConfig.regions_per_instance)
    gen.set_defaults(func=_cmd_gen)


def _add_train(sub) -> None:
    train = sub.add_parser("train", help="train and evaluate a run")
    train.add_argument("--kg", required=True)
    train.add_argument("--data", required=True)
    train.add_argument("--out-dir", required=True)
    train.add_argument("--mode", choices=["standard", "shap-backprop"], default="standard")
    train.add_argument("--scheme", choices=sorted(_SCHEME_FLAGS), default=None)
    train.add_argument(
        "--agg", dest="aggregation", choices=AGGREGATIONS, default=TrainConfig.aggregation
    )
    train.add_argument("--epochs-det", type=int, default=TrainConfig.epochs_det)
    train.add_argument("--epochs-clf", type=int, default=TrainConfig.epochs_clf)
    train.add_argument("--lr-det", type=float, default=TrainConfig.lr_det)
    train.add_argument("--lr-clf", type=float, default=TrainConfig.lr_clf)
    train.add_argument("--h", type=float, default=WeightScheme.h)
    train.add_argument("--s", type=float, default=TrainConfig.s)
    train.add_argument("--v-threshold", type=float, default=TrainConfig.v_threshold)
    train.add_argument(
        "--shap", dest="shap_mode", choices=SHAP_MODES, default=TrainConfig.shap_mode
    )
    train.add_argument("--shap-samples", type=int, default=TrainConfig.shap_samples)
    train.add_argument(
        "--bg-size", dest="background_size", metavar="BG_SIZE", type=int,
        default=TrainConfig.background_size,
    )
    train.add_argument("--seed", type=int, default=None)
    train.set_defaults(func=lambda args: _cmd_train(args, train))


def _add_eval(sub) -> None:
    ev = sub.add_parser("eval", help="re-evaluate checkpoints on a dataset")
    ev.add_argument("--kg", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--checkpoints", required=True)
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=_cmd_eval)


def _add_explain(sub) -> None:
    explain = sub.add_parser("explain", help="emit attribution graph artifacts for one instance")
    explain.add_argument("--kg", required=True)
    explain.add_argument("--data", required=True)
    explain.add_argument("--checkpoints", required=True)
    explain.add_argument("--instance-id", required=True)
    explain.add_argument("--out-dir", default=None)
    explain.set_defaults(func=_cmd_explain)


def _add_report(sub) -> None:
    report = sub.add_parser("report", help="tabulate metrics across run directories")
    report.add_argument("--runs", required=True)
    report.add_argument("--out", default=None)
    report.set_defaults(func=_cmd_report)


_COMMANDS = {
    "gen": _add_gen,
    "train": _add_train,
    "eval": _add_eval,
    "explain": _add_explain,
    "report": _add_report,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given a known `command`, only that subcommand is built."""
    parser = argparse.ArgumentParser(prog="xnesyl")
    known = command in _COMMANDS
    # a one-command parser's usage line still lists every command, so its
    # messages read as the full parser's
    metavar = "{" + ",".join(_COMMANDS) + "}" if known else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for add in [_COMMANDS[command]] if known else _COMMANDS.values():
        add(sub)
    return parser


def _cmd_gen(args) -> int:
    kg = load_kg(args.kg)
    cfg = GeneratorConfig(
        seed=_resolve_seed(args.seed),
        feature_dim=args.dim,
        regions_per_instance=_parse_regions(args.regions),
        noise_rate=args.noise,
        separation=args.sep,
    )
    instances = generate_dataset(kg, cfg, args.count)
    write_dataset(instances, args.out)
    print(f"wrote {len(instances)} instances to {args.out}")
    return 0


def _load_run_dir(checkpoints: str, kg: KnowledgeGraph) -> RunArtifacts:
    """The saved run (models, background, config), checked against the KG scoring it."""
    cp = Path(checkpoints)
    det = load_detector(cp / "detector.json")
    clf = load_classifier(cp / "classifier.json")
    # the class order fixes every row and column index; a reordered KG
    # would score the checkpoint's outputs against the wrong classes
    for name, saved, expected in (
        ("part_classes", det.part_classes, kg.part_classes),
        ("object_classes", clf.object_classes, kg.object_classes),
    ):
        if saved != expected:
            raise ValidationError(
                f"checkpoint {name} {list(saved)} differ from --kg {name} {list(expected)}"
            )
    if clf.input_dim != kg.num_parts:
        raise ValidationError(
            f"{cp / 'classifier.json'}: input_dim {clf.input_dim} differs from "
            f"the {kg.num_parts} --kg part_classes"
        )
    bg_path = cp / "background.json"
    if not bg_path.exists():
        raise ValidationError(f"{bg_path} not found; re-train the run to write it")
    bg_doc = read_json_object(bg_path, "attribution background", "background", ("vectors",))
    background = BackgroundSet(read_json_array(bg_path, bg_doc, "vectors", (None, kg.num_parts)))
    report_path = cp / "metrics.json"
    report = read_json_object(report_path, "metrics report", None, ("config",))
    try:
        return RunArtifacts(det, clf, background, config_from_echo(report["config"]))
    except ValidationError as exc:
        raise ValidationError(f"{report_path}: {exc}") from exc


def _cmd_train(args, parser: argparse.ArgumentParser) -> int:
    if args.mode == "standard" and args.scheme is not None:
        parser.error("--scheme requires --mode shap-backprop")
    if args.mode == "shap-backprop" and args.scheme is None:
        parser.error("--mode shap-backprop requires --scheme")
    kg = load_kg(args.kg)
    dataset = read_dataset(args.data, kg)
    splits = split_dataset(dataset)
    scheme = None
    if args.scheme is not None:
        scheme = WeightScheme(_SCHEME_FLAGS[args.scheme], args.h)
    # every other TrainConfig field is the dest of the flag that sets it
    cfg = TrainConfig(
        seed=_resolve_seed(args.seed),
        scheme=scheme,
        **{
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(TrainConfig)
            if f.name not in ("seed", "scheme")
        },
    )
    # refuse an unusable output path before the run trains, not after
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = train_standard if cfg.scheme is None else train_shap_backprop
    artifacts = runner(kg, splits, cfg)
    save_detector(artifacts.detector, out / "detector.json")
    save_classifier(artifacts.classifier, out / "classifier.json")
    background = {"kind": "background", "vectors": artifacts.background.vectors.tolist()}
    (out / "background.json").write_text(json.dumps(background) + "\n", encoding="utf-8")
    (out / "metrics.json").write_text(
        _render_json(metrics_report(artifacts)), encoding="utf-8"
    )
    ged_report = dict(sorted(artifacts.ged_per_instance.items()))
    ged_report["mean"] = artifacts.metrics["mean_shap_ged"]
    (out / "ged_report.json").write_text(_render_json(ged_report), encoding="utf-8")
    sys.stdout.write(_render_json({"metrics": artifacts.metrics}))
    return 0


def _cmd_eval(args) -> int:
    kg = load_kg(args.kg)
    saved = _load_run_dir(args.checkpoints, kg)
    test_split = read_test_split(args.data, kg, saved.detector.feature_dim)
    out_path = Path(args.out) if args.out else Path(args.checkpoints) / "eval_metrics.json"
    # refuse an output under a missing directory or a file, or a directory, before the
    # split is scored, with the reason the OS gives for the parent
    try:
        parent_is_dir = stat.S_ISDIR(os.stat(out_path.parent).st_mode)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(out_path)) from None
    if not parent_is_dir:
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out_path))
    if out_path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out_path))
    scored = evaluate(saved, test_split, kg)
    rendered = _render_json({"config": config_echo(scored.config), "metrics": scored.metrics})
    out_path.write_text(rendered, encoding="utf-8")
    sys.stdout.write(rendered)
    return 0


def _cmd_explain(args) -> int:
    kg = load_kg(args.kg)
    saved = _load_run_dir(args.checkpoints, kg)
    # An instance is seeded by its position in its own split; for a test
    # instance that is the seed `evaluate` scored it with.
    located = locate_instance(args.data, kg, args.instance_id, saved.detector.feature_dim)
    if located is None:
        raise ValidationError(f"--instance-id {args.instance_id!r} not found in {args.data}")
    index, inst = located
    cfg = saved.config
    # refuse an unusable output path before the instance is detected and scored
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.checkpoints)
    out_dir.mkdir(parents=True, exist_ok=True)
    v = aggregate(detect(saved.detector, inst), cfg.aggregation)
    values, sag = instance_attribution(
        saved.classifier, v, index, kg, saved.background, cfg.s, cfg.shap_mode,
        cfg.shap_samples, shap_eval_seed(cfg),
    )
    stem = f"sag-{inst.id}"
    (out_dir / f"{stem}.dot").write_text(sag_to_dot(sag, kg), encoding="utf-8")
    (out_dir / f"{stem}.json").write_text(sag_to_json(sag), encoding="utf-8")
    # class-major in KG order, then parts in KG order; exact reprs of
    # Python floats (numpy 2 would print np.float64(...))
    with (out_dir / f"{stem}.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["part", "feature_value", "shap_value", "class"])
        for k, label in enumerate(kg.object_classes):
            writer.writerows(
                [part, repr(float(v[j])), repr(float(values[k, j])), label]
                for j, part in enumerate(kg.part_classes)
            )
    print(f"wrote {stem}.dot, {stem}.json, {stem}.csv to {out_dir}")
    return 0


def _cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    if not runs_dir.is_dir():
        raise ValidationError(f"--runs directory not found: {runs_dir}")
    rows = []
    for run in sorted(p for p in runs_dir.iterdir() if p.is_dir()):
        report_path = run / "metrics.json"
        if not report_path.exists():
            continue
        doc = read_json_object(report_path, "metrics report", None, ("config", "metrics"))
        try:
            cfg, metrics = doc["config"], doc["metrics"]
            scores = [repr(metrics[name]) for name in _REPORT_METRICS]
            rows.append([run.name, cfg["mode"], cfg["scheme"] or "", *scores])
        except (KeyError, TypeError):
            needed = ", ".join(("mode", "scheme", *_REPORT_METRICS))
            raise ValidationError(f"{report_path}: metrics report lacks one of {needed}") from None
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["run", "mode", "scheme", *_REPORT_METRICS])
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    return args.func(args)


def main(argv: list[str] | None = None) -> int:
    # every non-finite loss or attribution is caught by an explicit check
    # (exit 4), so numpy's floating-point warnings would only repeat it
    try:
        with np.errstate(all="ignore"):
            return run(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # a path the OS refused, such as an output under a missing directory
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
