"""Command-line entry point.

Subcommands: synth, labels, train, infer, eval, gradcheck, plotdata.
Exit codes: 0 success, 1 usage or config error, 2 runtime failure,
3 gradient-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, load_run_config, run_config_to_dict
from .data import (
    DatasetFormatError,
    finite_float,
    generate_dataset,
    load_annotations,
    load_dataset,
    read_json,
    save_dataset,
)
from .evaluate import evaluate
from .gradcheck import TINY_MODEL, model_grad_errors
from .inference import predictions_from_json, predictions_to_json
from .labels import labels_to_dict
from .losses import LossConfig
from .model import CheckpointError, Model, load_checkpoint, save_checkpoint
from .pipeline import TIMING_STAGES, ground_truth_segments, predict_dataset
from .train import train

LOSS_CSV_HEADER = "step,contrastive,boundary_map,frame_prob,total"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _seed(text: str) -> int:
    """--seed value: a non-negative integer, as the config's `seed` field."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_config(path: str | None) -> RunConfig:
    return load_run_config(Path(path)) if path else RunConfig()


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    out = Path(args.out)
    splits = (
        ("train", cfg.synth, 0),
        ("val", dataclasses.replace(cfg.synth, count=cfg.val_clips), 1),
        ("test", dataclasses.replace(cfg.synth, count=cfg.test_clips), 2),
    )
    out.mkdir(parents=True, exist_ok=True)
    for name, synth_cfg, stream in splits:
        clips = generate_dataset(synth_cfg, seed, prefix=name, stream=stream)
        save_dataset(out / name, clips)
        print(f"wrote {len(clips)} clips to {out / name}")
    resolved = run_config_to_dict(cfg)
    resolved["seed"] = seed
    _write_json(out / "config.json", resolved)
    return 0


def cmd_labels(args) -> int:
    cfg = _load_config(args.config)
    anns = load_annotations(Path(args.data) / "annotations.json")
    dump = [labels_to_dict(a, cfg.model.max_duration, cfg.infer.d_f) for a in anns]
    _write_json(Path(args.out), dump)
    print(f"wrote labels for {len(dump)} clips to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    data = Path(args.data)
    train_clips = load_dataset(data / "train")
    val_dir = data / "val"
    val_clips = load_dataset(val_dir) if val_dir.exists() else []
    model = Model(cfg.model, seed=seed)
    result = train(model, train_clips, val_clips, cfg.loss, cfg.optim,
                   d_f=cfg.infer.d_f, seed=seed)
    save_checkpoint(Path(args.out), model)
    log_path = Path(args.log) if args.log else Path(args.out).with_suffix(".loss.csv")
    with open(log_path, "w") as fh:
        fh.write(LOSS_CSV_HEADER + "\n")
        for step, l_fc, l_cp, l_fp, total in result.step_log:
            fh.write(f"{step},{l_fc!r},{l_cp!r},{l_fp!r},{total!r}\n")
    # One JSON line per epoch: the mean of each train and validation term,
    # the validation loss, the lr, the mean batch gradient norm and the
    # epoch's seconds and clips/s.
    terms = LOSS_CSV_HEADER.split(",")[1:]
    with open(log_path.with_suffix(".epochs.jsonl"), "w") as fh:
        for epoch, val_loss, lr, seconds, train_means, val_means, grad_norm in result.epoch_log:
            record = {"epoch": epoch, "train": dict(zip(terms, train_means)),
                      "val": dict(zip(terms, val_means)), "val_loss": val_loss, "lr": lr,
                      "grad_norm": grad_norm, "seconds": seconds,
                      "clips_per_s": len(train_clips) / seconds}
            fh.write(json.dumps(record) + "\n")
    print(
        f"trained {cfg.optim.epochs} epochs on {len(train_clips)} clips; "
        f"best val loss {result.best_val:.6f} at epoch {result.best_epoch}; "
        f"checkpoint {args.out}"
    )
    return 0


def cmd_infer(args) -> int:
    cfg = _load_config(args.config)
    model = load_checkpoint(Path(args.checkpoint), cfg.model)
    clips = load_dataset(Path(args.data))
    timing = {} if args.timing else None
    preds = predict_dataset(model, clips, cfg.infer, fusion=args.fusion, timing=timing)
    payload = [predictions_to_json(clip_id, preds[clip_id]) for clip_id in sorted(preds)]
    _write_json(Path(args.out), payload)
    print(f"wrote predictions for {len(payload)} clips to {args.out}")
    if timing is not None:
        per_clip = {stage: 1e3 * timing.get(stage, 0.0) / max(len(clips), 1)
                    for stage in TIMING_STAGES}
        print(json.dumps({"clips": len(clips), "ms_per_clip": per_clip}), file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    preds = predictions_from_json(read_json(Path(args.pred)), args.pred)
    anns = load_annotations(Path(args.data) / "annotations.json")
    gts = ground_truth_segments(anns)
    for clip_id in gts:
        preds.setdefault(clip_id, [])
    report = evaluate(preds, gts)
    _write_json(Path(args.out), report.to_dict())
    if args.csv:
        header, values = report.csv_row()
        with open(args.csv, "w") as fh:
            fh.write(header + "\n" + values + "\n")
    for tau, v in report.ap.items():
        print(f"AP@{tau:g} = {v:.4f}")
    for n, v in report.ar.items():
        print(f"AR@{n} = {v:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.config:
        cfg = _load_config(args.config)
        model_cfg, loss_cfg, d_f, seed = cfg.model, cfg.loss, cfg.infer.d_f, cfg.seed
    else:
        model_cfg, loss_cfg, d_f, seed = TINY_MODEL, LossConfig(), 1.0, 0
    report = model_grad_errors(model_cfg, loss_cfg, d_f=d_f, seed=seed)
    for loss_name, group, err in report.rows():
        print(f"{loss_name:12s} {group:12s} max_rel_err={err:.3e}")
    if args.out:
        _write_json(Path(args.out), report.to_dict())
    if not report.passed:
        print(f"FAIL: max relative error {report.max_error:.3e} > {report.threshold:g}",
              file=sys.stderr)
        return 3
    print(f"OK: max relative error {report.max_error:.3e} <= {report.threshold:g}")
    return 0


def _read_loss_csv(path: Path) -> list[tuple[str, str, str]]:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != LOSS_CSV_HEADER:
            raise DatasetFormatError(
                f"{path}: bad loss CSV header {header!r}, expected {LOSS_CSV_HEADER!r}"
            )
        names = header.split(",")[1:]
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 5:
                raise DatasetFormatError(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
            try:
                int(parts[0])
                [float(x) for x in parts[1:]]
            except ValueError:
                raise DatasetFormatError(f"{path}:{lineno}: non-numeric value") from None
            rows.extend((parts[0], name, value) for name, value in zip(names, parts[1:]))
    return rows


def _read_report(path: Path) -> list[tuple[str, str, str]]:
    """(report, metric, value) rows from an eval report's "ap" and "ar" objects."""
    report = read_json(path)
    if not isinstance(report, dict):
        raise DatasetFormatError(f"{path}: expected a JSON object")
    rows = []
    for section in ("ap", "ar"):
        values = report.get(section, {})
        if not isinstance(values, dict):
            raise DatasetFormatError(f"{path}: {section!r} must be a JSON object")
        for key, v in values.items():
            if any(c in key for c in ',"\r\n'):
                raise DatasetFormatError(f"{path}: {section} key {key!r} is not a CSV field")
            finite_float(v, f"{path}: {section}[{key!r}]")  # check only: an int stays "1"
            rows.append((path.stem, f"{section}_{key}", repr(v)))
    return rows


def cmd_plotdata(args) -> int:
    out_rows: list[tuple[str, str, str]] = []
    if args.loss_csv:
        out_rows = _read_loss_csv(Path(args.loss_csv))
        header = "step,metric,value"
    else:
        for path in args.reports:
            out_rows += _read_report(Path(path))
        header = "report,metric,value"
    with open(args.out, "w") as fh:
        fh.write(header + "\n")
        for row in out_rows:
            fh.write(",".join(row) + "\n")
    print(f"wrote {len(out_rows)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="avloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate train/val/test synthetic datasets")
    p.add_argument("--config", help="run config JSON (defaults used if omitted)")
    p.add_argument("--seed", type=_seed, help="override the config seed")
    p.add_argument("--out", required=True, help="output dataset root directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("labels", help="dump supervision targets for a dataset split")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--data", required=True, help="dataset split directory")
    p.add_argument("--out", required=True, help="output JSON file")
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser("train", help="train a model on a synthesized dataset")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--seed", type=_seed, help="override the config seed")
    p.add_argument("--data", required=True, help="dataset root (train/ and val/ inside)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--log", help="loss CSV path (default: <out>.loss.csv); the per-epoch "
                   "JSON lines go next to it, as <log stem>.epochs.jsonl")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="run inference and write scored proposals")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset split directory")
    p.add_argument("--out", required=True, help="output predictions JSON")
    p.add_argument("--fusion", choices=("both", "forward"), default="both",
                   help="use both directions (default) or forward only")
    p.add_argument("--timing", action="store_true",
                   help="write the mean ms per clip of each stage to stderr as one JSON line")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against annotations")
    p.add_argument("--pred", required=True, help="predictions JSON")
    p.add_argument("--data", required=True, help="dataset split directory")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--csv", help="also write a flat CSV metrics row")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all model gradients")
    p.add_argument("--config", help="run config JSON (default: built-in tiny config)")
    p.add_argument("--out", help="write the report as JSON")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("plotdata", help="reshape logs/reports into tidy CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--loss-csv", help="a training loss CSV")
    group.add_argument("--reports", nargs="+", help="one or more eval report JSON files")
    p.add_argument("--out", required=True, help="output tidy CSV")
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DatasetFormatError, CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
