"""Workloads of the avloc benchmark: seeded inputs, timed units, correctness checks.

Every workload runs the pipeline a user runs with the ``avloc`` CLI, through
the library's public functions, as a mix of three kinds of timed unit:

* set-up: ``generate_dataset`` for the train, val and test splits plus a
  fresh ``Model`` (the train workloads), or ``load_checkpoint`` plus
  ``load_dataset`` of the test split (``infer_default``);
* train: one ``train.train`` call on the train and val splits, always from
  the same initial parameters and shuffle seed, so every call does the same
  work;
* infer: ``pipeline.predict_clip`` and ``inference.predictions_to_json``
  for every test clip, then one ``evaluate.evaluate``.

Between the first train call and the first inference, the trained model and
the test split go through disk as with the CLI (``save_checkpoint`` and
``save_dataset`` are fixture work, ``load_checkpoint`` and ``load_dataset``
are the program's). ``infer_default`` first trains a fixed fixture model,
untimed, so that the model it evaluates depends only on the seed.

The units are interleaved over the whole run, each kind getting a fixed
share of the time, so that every metric samples the same stretch of a
machine whose speed drifts over seconds.

The program is called through module attributes (``tr.train``,
``pl.predict_clip``, ...) so that the traced run's wrappers, which replace
those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path

import numpy as np

from avloc.config import RunConfig, run_config_from_dict

from bench_trace import CONTEXTS, Tracer

# The package re-exports functions named like some of its modules
# (avloc.train, avloc.evaluate), so `import avloc.train as tr` would bind the
# function; look the modules up by name instead.
ad, dt, ev, inf, md, pl, tr = (
    import_module(f"avloc.{name}")
    for name in ("autodiff", "data", "evaluate", "inference", "model", "pipeline", "train")
)

# Criterion 8's small config (tests/test_acceptance.py), minus its seed and
# split sizes, which the workload sets.
SMALL_CONFIG = {
    "model": {"num_frames": 64, "d_audio": 8, "d_visual": 8, "channels": 8,
              "max_duration": 12, "num_samples": 4},
    "synth": {"num_frames": 64, "d_audio": 8, "d_visual": 8,
              "min_segments": 1, "max_segments": 2, "min_len": 6, "max_len": 16},
    "optim": {"learning_rate": 0.02, "epochs": 2, "batch_size": 4, "optimizer": "adam"},
}

# Consecutive test clips per infer_clips_per_s sample: a whole pass (1-3 s)
# would give under ten samples a run.
RATE_BLOCK = 10

# AP@0.5 that the infer_default fixture model must reach on its test split.
# Seeds 1-20 gave 0.28-0.67; untrained models gave at most 0.05 on seeds 1-4.
FIXTURE_AP_FLOOR = 0.15

OPS = (
    "add", "mul", "scalar_mul", "matmul", "transpose", "reshape", "flip", "concat",
    "slice_axis", "sigmoid", "relu", "log", "sqrt", "pow_const", "softmax", "mean",
    "tsum", "conv1d", "conv2d", "max_pool1d", "upsample1d", "weighted_sum",
)


@dataclass(frozen=True)
class Fixture:
    """A model trained before the run (untimed) for the inference units to load."""

    train_clips: int
    optim: tr.OptimConfig
    calls: int
    ap_floor: float


@dataclass(frozen=True)
class Workload:
    name: str
    config: RunConfig  # split sizes: synth.count train clips, val_clips, test_clips
    optim: tr.OptimConfig  # one timed train() call
    shares: dict[str, float]  # share of the run's time per unit kind
    fixture: Fixture | None = None


def _sized(cfg: RunConfig, train: int, val: int, test: int) -> RunConfig:
    return dataclasses.replace(
        cfg, synth=dataclasses.replace(cfg.synth, count=train), val_clips=val, test_clips=test
    )


def make_workloads(seed: int) -> dict[str, Workload]:
    default = RunConfig(seed=seed)
    small = run_config_from_dict({**SMALL_CONFIG, "seed": seed})
    return {
        "train_default": Workload(
            "train_default", _sized(default, 12, 2, 30),
            dataclasses.replace(default.optim, epochs=2),
            {"setup": 0.05, "train": 0.60, "infer": 0.35},
        ),
        "train_small": Workload(
            "train_small", _sized(small, 16, 3, 40), small.optim,
            {"setup": 0.05, "train": 0.70, "infer": 0.25},
        ),
        # Batch 1 learns the most per clip-step, which keeps the fixture
        # short; lr 0.003 gives the most even AP across seeds.
        "infer_default": Workload(
            "infer_default", _sized(default, 12, 2, 50),
            dataclasses.replace(default.optim, epochs=2),
            {"setup": 0.05, "train": 0.25, "infer": 0.70},
            Fixture(48, dataclasses.replace(default.optim, epochs=1, batch_size=1,
                                            learning_rate=0.003), 4, FIXTURE_AP_FLOOR),
        ),
    }


# -- correctness checks -------------------------------------------------------

def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def check_train_call(result, model, n_clips: int, optim: tr.OptimConfig) -> list[str]:
    errors = []
    losses = [v for row in result.step_log for v in row[1:]]
    if not _finite(losses) or not _finite([row[1] for row in result.epoch_log]):
        errors.append("non-finite loss")
    if not all(_finite(p.data) for p in model.params.values()):
        errors.append("non-finite parameter")
    expected = math.ceil(n_clips / optim.batch_size) * optim.epochs
    if len(result.step_log) != expected:
        errors.append(f"{len(result.step_log)} steps, expected {expected}")
    return errors


def check_loss_decreased(step_totals: list[float]) -> list[str]:
    """The mean total loss of the last third of the steps is below that of the first third."""
    k = max(1, len(step_totals) // 3)
    first, last = float(np.mean(step_totals[:k])), float(np.mean(step_totals[-k:]))
    return [] if last < first else [f"loss did not decrease ({first:.4g} -> {last:.4g})"]


def check_clip_prediction(proposals, payload: dict, clip_id: str, num_frames: int,
                          top_k: int) -> list[str]:
    errors = []
    if payload.get("id") != clip_id:
        errors.append(f"prediction id {payload.get('id')!r} != clip id {clip_id!r}")
    if len(proposals) > top_k:
        errors.append(f"{len(proposals)} proposals > top_k={top_k}")
    if len(payload.get("proposals", ())) != len(proposals):
        errors.append("JSON proposal count differs from the predicted count")
    scores = [p.score for p in proposals]
    if not _finite(scores) or any(not 0.0 <= s <= 1.0 for s in scores):
        errors.append("score outside [0, 1]")
    if any(a < b for a, b in zip(scores, scores[1:])):
        errors.append("scores not descending")
    for p in proposals:
        s, e = p.segment.start, p.segment.end
        if not (0 <= s < e <= num_frames):
            errors.append(f"segment [{s}, {e}) outside [0, {num_frames}]")
            break
    return errors


def check_report(report, ap_floor: float | None) -> list[str]:
    values = list(report.ap.values()) + list(report.ar.values())
    errors = []
    if not _finite(values) or any(not 0.0 <= v <= 1.0 for v in values):
        errors.append("AP/AR outside [0, 1]")
    if ap_floor is not None and not report.ap[0.5] >= ap_floor:
        errors.append(f"AP@0.5 {report.ap[0.5]:.4f} below the fixture floor {ap_floor}")
    return errors


# -- the run ------------------------------------------------------------------

@dataclass
class Samples:
    setup_s: list[float] = dataclasses.field(default_factory=list)
    train_rate: list[float] = dataclasses.field(default_factory=list)
    train_rate_traced: list[float] = dataclasses.field(default_factory=list)
    clip_s: list[float] = dataclasses.field(default_factory=list)
    infer_rate: list[float] = dataclasses.field(default_factory=list)
    pass_s: list[float] = dataclasses.field(default_factory=list)
    pass_s_traced: list[float] = dataclasses.field(default_factory=list)
    ap_05: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {'; '.join(errors)}")


class Run:
    """One benchmark run of one workload: its units, their samples and their checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work_dir: Path,
                 tracer: Tracer | None = None):
        self.w = workload
        self.cfg = workload.config
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.tracer = tracer
        self.samples = Samples()
        self.spent = dict.fromkeys(workload.shares, 0.0)
        self._counts = dict.fromkeys(workload.shares, 0)

    def _unit(self, kind: str | None = None):
        """In a traced run: every other train or infer unit, and every other kind of unit."""
        if self.tracer is None:
            return contextlib.nullcontext(), False
        if kind in ("train", "infer") and self._counts[kind] % 2 == 1:
            return contextlib.nullcontext(), False
        return self.tracer.traced(), True

    def _timed(self, kind: str, body):
        start = time.perf_counter()
        products = body()
        self.spent[kind] += time.perf_counter() - start
        self._counts[kind] += 1
        return products

    def _generate(self, count: int) -> dict:
        cfg = self.cfg
        splits = (("train", count, 0), ("val", cfg.val_clips, 1), ("test", cfg.test_clips, 2))
        return {
            name: dt.generate_dataset(dataclasses.replace(cfg.synth, count=n),
                                      self.seed, prefix=name, stream=stream)
            for name, n, stream in splits
        }

    # -- units --

    def setup(self) -> tuple:
        """Program-side set-up; the run keeps the first call's products, repeats only time it."""
        unit, _ = self._unit()
        with unit:
            t0 = time.perf_counter()
            if self.w.fixture is None:
                products = (self._generate(self.cfg.synth.count),
                            md.Model(self.cfg.model, seed=self.seed))
            else:
                products = (md.load_checkpoint(self.work_dir / "model.ckpt", self.cfg.model),
                            dt.load_dataset(self.work_dir / "test"))
            self.samples.setup_s.append(time.perf_counter() - t0)
        return products

    def train(self) -> None:
        s = self.samples
        for k, p in self.train_model.params.items():
            p.data = self.init_params[k].copy()
        unit, traced = self._unit("train")
        with unit:
            t0 = time.perf_counter()
            result = tr.train(self.train_model, self.splits["train"], self.splits["val"],
                              self.cfg.loss, self.w.optim, d_f=self.cfg.infer.d_f,
                              seed=self.seed)
            elapsed = time.perf_counter() - t0
        clip_steps = len(self.splits["train"]) * self.w.optim.epochs
        (s.train_rate_traced if traced else s.train_rate).append(clip_steps / elapsed)
        errors = check_train_call(result, self.train_model, len(self.splits["train"]),
                                  self.w.optim)
        errors += check_loss_decreased([row[4] for row in result.step_log])
        s.record("train call", errors)

    def infer(self) -> None:
        s, clips = self.samples, self.test_clips
        unit, traced = self._unit("infer")
        with unit:
            preds, payload, latencies, clip_total = {}, [], [], []
            t_pass = time.perf_counter()
            for clip in clips:
                t0 = time.perf_counter()
                proposals = pl.predict_clip(self.infer_model, clip, self.cfg.infer)
                latencies.append(time.perf_counter() - t0)
                preds[clip[1].id] = proposals
                payload.append(inf.predictions_to_json(clip[1].id, proposals))
                clip_total.append(time.perf_counter() - t0)
            pass_s = time.perf_counter() - t_pass
            report = ev.evaluate(preds, self.gts)
        if traced:
            s.pass_s_traced.append(pass_s)
        else:
            s.pass_s.append(pass_s)
            s.clip_s += latencies
            for i in range(0, len(clips), RATE_BLOCK):
                block = clip_total[i:i + RATE_BLOCK]
                s.infer_rate.append(len(block) / sum(block))
        s.ap_05.append(report.ap[0.5])
        for (stream, ann), obj in zip(clips, payload):
            s.record(f"clip {ann.id}", check_clip_prediction(
                preds[ann.id], obj, ann.id, stream.num_frames, self.cfg.infer.top_k))
        s.record("evaluate", check_report(report, self.w.fixture and self.w.fixture.ap_floor))

    # -- phases --

    def _train_fixture(self) -> None:
        """Train the inference model of infer_default and write it and the test split to disk."""
        fx = self.w.fixture
        unit, _ = self._unit()
        with unit:
            splits = self._generate(fx.train_clips)
            model = md.Model(self.cfg.model, seed=self.seed)
        self.init_params = {k: p.data.copy() for k, p in model.params.items()}
        totals = []
        for call in range(fx.calls):
            result = tr.train(model, splits["train"], splits["val"], self.cfg.loss, fx.optim,
                              d_f=self.cfg.infer.d_f, seed=self.seed + call)
            totals += [row[4] for row in result.step_log]
            errors = check_train_call(result, model, fx.train_clips, fx.optim)
            if call == fx.calls - 1:
                errors += check_loss_decreased(totals)
            self.samples.record(f"fixture train call {call}", errors)
        md.save_checkpoint(self.work_dir / "model.ckpt", model)
        dt.save_dataset(self.work_dir / "test", splits["test"])
        n = self.cfg.synth.count
        self.splits = {"train": splits["train"][:n], "val": splits["val"]}
        self.train_model = model

    def _load_for_inference(self) -> None:
        """The CLI's hand-off from training to inference: checkpoint and test split via disk."""
        md.save_checkpoint(self.work_dir / "model.ckpt", self.train_model)
        dt.save_dataset(self.work_dir / "test", self.splits["test"])
        unit, _ = self._unit()
        with unit:
            self.infer_model = md.load_checkpoint(self.work_dir / "model.ckpt", self.cfg.model)
            self.test_clips = dt.load_dataset(self.work_dir / "test")

    def execute(self) -> Samples:
        start = time.perf_counter()
        if self.w.fixture is None:
            self.splits, self.train_model = self._timed("setup", self.setup)
            self.init_params = {k: p.data.copy() for k, p in self.train_model.params.items()}
            self._timed("train", self.train)
            self._load_for_inference()
        else:
            self._train_fixture()
            start = time.perf_counter()
            self.infer_model, self.test_clips = self._timed("setup", self.setup)
        self.gts = pl.ground_truth_segments([ann for _, ann in self.test_clips])
        units = {"setup": self.setup, "train": self.train, "infer": self.infer}
        while True:
            total = sum(self.spent.values())
            if all(self._counts.values()) and time.perf_counter() - start >= self.seconds:
                break
            # Run a kind not yet run, else the one furthest behind its share
            # of the time spent so far.
            kind = next((k for k in ("infer", "train", "setup") if not self._counts[k]), None)
            kind = kind or max(units, key=lambda k: self.w.shares[k] * total - self.spent[k])
            self._timed(kind, units[kind])
        return self.samples


# -- metrics --------------------------------------------------------------------

MB = 1e6

# Throughput and latency are read on the slow side of their samples: the 10th
# percentile of unit rates, the 90th of clip latencies. A host whose speed
# switches every few seconds between a fast state and one about 1.5x slower
# gives each run a different mix of the two; a median falls between the
# states and jumps with the mix, while the slow tail is set by the slow state
# alone, which nearly every run meets. See "Bounds and steadiness" in
# README.md. Set-up time stays a median over the run's set-up units.
SLOW_PCT = 90


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(s: Samples) -> dict:
    clip_ms = np.asarray(s.clip_s) * 1e3
    return {
        "setup_s": _metric(statistics.median(s.setup_s), "s"),
        "train_clip_steps_per_s": _metric(np.percentile(s.train_rate, 100 - SLOW_PCT), "1/s"),
        "infer_clips_per_s": _metric(np.percentile(s.infer_rate, 100 - SLOW_PCT), "1/s"),
        "infer_clip_ms_p90": _metric(np.percentile(clip_ms, SLOW_PCT), "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
    }


def register_targets(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need, at the caller's lookup."""
    def on_op(t, idx, args, out):
        t.out_bytes[idx] = out.data.nbytes
        t.tracked[idx] = bool(out.requires_grad)

    def on_mask(t, idx, args, out):
        t.counters["model.mask_bytes"] = sum(
            v.nbytes for v in vars(out).values() if isinstance(v, np.ndarray))

    def on_scored(t, idx, args, out):
        t.counters["inference.proposals_scored"] += len(out)

    def on_kept(t, idx, args, out):
        t.counters["inference.proposals_kept"] += len(out)

    def on_read(t, idx, args, out):  # file size: 20-byte header plus f32 features
        t.counters["data.feature_bytes_read"] += 20 + 4 * (out.audio.size + out.visual.size)

    for op in OPS:
        tracer.add_target(ad, op, f"autodiff.{op}", on_op)
    tracer.add_target(ad.Tensor, "backward", "autodiff.backward")
    for method in ("forward_full", "encode_and_fuse", "boundary_map_head", "frame_prob_head"):
        tracer.add_target(md.Model, method, f"model.{method}")
    tracer.add_target(md, "build_sampling_mask", "model.build_sampling_mask", on_mask)
    tracer.add_target(md, "load_checkpoint", "model.load_checkpoint")
    tracer.add_target(tr, "train", "train.train")
    tracer.add_target(tr, "clip_losses", "train.clip_losses")
    tracer.add_target(tr, "build_targets", "labels.build_targets")
    tracer.add_target(tr, "contrastive_loss", "losses.contrastive")
    tracer.add_target(tr, "boundary_map_loss", "losses.boundary_map")
    tracer.add_target(tr, "frame_prob_loss", "losses.frame_prob")
    tracer.add_target(pl, "predict_clip", "pipeline.predict_clip")
    tracer.add_target(pl, "fuse_bidirectional", "inference.fuse")
    tracer.add_target(pl, "score_proposals", "inference.score_proposals", on_scored)
    tracer.add_target(pl, "soft_nms", "inference.soft_nms", on_kept)
    tracer.add_target(inf, "predictions_to_json", "inference.predictions_to_json")
    tracer.add_target(ev, "evaluate", "evaluate.evaluate")
    tracer.add_target(ev, "average_precision", "evaluate.average_precision")
    tracer.add_target(ev, "average_recall", "evaluate.average_recall")
    tracer.add_counter(ev, "segment_iou", "evaluate.segment_iou_calls")
    tracer.add_target(dt, "generate_dataset", "data.generate_dataset")
    tracer.add_target(dt, "load_dataset", "data.load_dataset")
    tracer.add_target(dt, "read_feature_file", "data.read_feature_file", on_read)


# Per-layer metrics: (metric, span, statistic). "incl" and "self" are ms per
# call of the span, inclusive of or excluding its child spans.
SPAN_METRICS = (
    ("autodiff.backward_ms", "autodiff.backward", "incl"),
    ("model.forward_full_ms", "model.forward_full", "incl"),
    ("model.encode_and_fuse_ms", "model.encode_and_fuse", "incl"),
    ("model.boundary_map_head_ms", "model.boundary_map_head", "incl"),
    ("model.frame_prob_head_ms", "model.frame_prob_head", "incl"),
    ("model.build_sampling_mask_ms", "model.build_sampling_mask", "incl"),
    ("model.load_checkpoint_ms", "model.load_checkpoint", "incl"),
    ("losses.contrastive_ms", "losses.contrastive", "incl"),
    ("losses.boundary_map_ms", "losses.boundary_map", "incl"),
    ("losses.frame_prob_ms", "losses.frame_prob", "incl"),
    ("labels.build_targets_ms", "labels.build_targets", "incl"),
    ("train.self_ms", "train.train", "self"),
    ("inference.fuse_ms", "inference.fuse", "incl"),
    ("inference.score_proposals_ms", "inference.score_proposals", "incl"),
    ("inference.soft_nms_ms", "inference.soft_nms", "incl"),
    ("inference.predictions_to_json_ms", "inference.predictions_to_json", "incl"),
    ("pipeline.predict_clip_ms", "pipeline.predict_clip", "self"),
    ("evaluate.average_precision_ms", "evaluate.average_precision", "incl"),
    ("evaluate.average_recall_ms", "evaluate.average_recall", "incl"),
    ("evaluate.evaluate_ms", "evaluate.evaluate", "incl"),
    ("data.generate_dataset_ms", "data.generate_dataset", "incl"),
    ("data.load_dataset_ms", "data.load_dataset", "incl"),
) + tuple((f"autodiff.op_ms.{op}", f"autodiff.{op}", "self") for op in OPS)


def _pct_slower(traced: list[float], untraced: list[float]) -> float:
    if not traced or not untraced:
        return 0.0
    return (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0


def per_layer_metrics(tracer: Tracer, table: dict, s: Samples) -> dict:
    def calls(span: str) -> int:
        return int(table.get(span, (0,))[0])

    def per(total: float, n: int) -> float:
        return total / n if n else 0.0

    metrics = {}
    for name, span, stat in SPAN_METRICS:
        n, incl, self_s = table.get(span, (0, 0.0, 0.0))
        metrics[name] = _metric(per((incl if stat == "incl" else self_s) * 1e3, n), "ms")

    # Op counts per clip_losses call (one clip's forward and losses) and per
    # predicted clip: exact for a given config.
    op_ids = {tracer.name_ids.get(f"autodiff.{op}"): op for op in OPS}
    loss_ctx = CONTEXTS.index("train.clip_losses")
    pred_ctx = CONTEXTS.index("pipeline.predict_clip")
    n_loss, n_pred = calls("train.clip_losses"), calls("pipeline.predict_clip")
    per_op = dict.fromkeys(OPS, 0)
    out_bytes = infer_ops = tracked = 0
    for i, name_id in enumerate(tracer.name):
        op = op_ids.get(name_id)
        if op is None:
            continue
        ctx = tracer.context[i]
        if ctx == loss_ctx:
            per_op[op] += 1
            out_bytes += tracer.out_bytes[i]
        elif ctx == pred_ctx:
            infer_ops += 1
            tracked += tracer.tracked[i]
    for op in OPS:
        metrics[f"autodiff.op_calls.{op}"] = _metric(per(per_op[op], n_loss), "count")
    metrics["autodiff.op_calls"] = _metric(per(sum(per_op.values()), n_loss), "count")
    metrics["autodiff.op_out_mb"] = _metric(per(out_bytes, n_loss) / MB, "MB")
    metrics["autodiff.op_calls_infer"] = _metric(per(infer_ops, n_pred), "count")
    metrics["autodiff.tracked_ops_infer"] = _metric(per(tracked, n_pred), "count")

    c = tracer.counters
    metrics["model.mask_mb"] = _metric(c["model.mask_bytes"] / MB, "MB")
    metrics["inference.proposals_scored"] = _metric(
        per(c["inference.proposals_scored"], calls("inference.score_proposals")), "count")
    metrics["inference.proposals_kept"] = _metric(
        per(c["inference.proposals_kept"], calls("inference.soft_nms")), "count")
    metrics["evaluate.segment_iou_calls"] = _metric(
        per(c["evaluate.segment_iou_calls"], calls("evaluate.evaluate")), "count")
    metrics["data.feature_mb_read"] = _metric(
        per(c["data.feature_bytes_read"], calls("data.load_dataset")) / MB, "MB")

    # Tracing overhead: traced against untraced units of the same run.
    metrics["trace.overhead_train_pct"] = _metric(
        _pct_slower([1 / r for r in s.train_rate_traced], [1 / r for r in s.train_rate]), "%")
    metrics["trace.overhead_infer_pct"] = _metric(_pct_slower(s.pass_s_traced, s.pass_s), "%")
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> tuple[dict, dict]:
    """Run one workload: the result object, and details (check failures, trace file)."""
    name = workload.name
    tracer = Tracer(run_id=f"{name}-seed{seed}-{time.time_ns()}") if trace else None
    if tracer is not None:
        register_targets(tracer)
    work_dir = out_dir / f"work-{name}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    try:
        samples = Run(workload, seed, seconds, work_dir, tracer).execute()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    extra = {"errors": samples.errors, "ap_0.5": statistics.median(samples.ap_05)}
    if tracer is None:
        metrics = end_to_end_metrics(samples)
    else:
        table = tracer.self_times()
        metrics = per_layer_metrics(tracer, table, samples)
        extra["accounting"] = tracer.accounting(table)
        extra["trace_file"] = str(out_dir / f"trace-{name}-seed{seed}.json.gz")
        tracer.write(Path(extra["trace_file"]), {
            "workload": name, "seed": seed, "seconds": seconds,
            "accounting": extra["accounting"],
        })
    result = {
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": metrics,
    }
    return result, extra
