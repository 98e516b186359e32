#!/usr/bin/env python3
"""Seed sweep: the criterion-6 pipeline at several seeds, both fusion modes.

For each seed s of 1, 2, 3, 4 and 42, one process runs synth, train, infer
(`--fusion both` and `--fusion forward`) and eval under the config
{"seed": s}, as the acceptance suite's criteria 6 and 7 do at seed 42. Two
processes run at a time, each with one BLAS thread. The record written to `--out` holds,
per source tree, per seed and per fusion mode, AP@0.5/0.75/0.95 and
AR@10/20/50, their medians over the seeds, the git commit (with whether the
working tree's `src/` differs from it, and a digest of the `src/` that ran)
and the seconds spent training. Per seed it also holds the sha256 of the
checkpoint and of each fusion mode's predictions file.

The working tree's `src/` is swept as "change". With `--against REV`, the
`src/` of commit REV is exported with `git archive` into the work directory
and swept too, as "parent"; the two trees' runs of one seed are queued next
to each other, so they run side by side. The record's "same_bytes" then
says, per seed, whether the change's checkpoint and predictions have the
parent's digests, and the script prints whether they do at every seed.

With `--variant module:name`, the change runs a variant of the model with
no edit to `src/`: `name` in `module` is either a mapping of `Model`
method names to functions, which replace those methods, or a `Model`
subclass, which every avloc module then uses in place of `Model`. The
module is imported from the directory the script runs in or from
PYTHONPATH, after the swept tree's `avloc`. The record names the variant.

Usage: python scripts/seed_sweep.py --out QUALITY.json [--against REV] [--variant MODULE:NAME]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 42)
JOBS = 2  # processes at a time, one per core of a 2-vCPU host
FUSIONS = ("both", "forward")
OUTPUTS = ("model.ckpt",) + tuple(f"preds_{fusion}.json" for fusion in FUSIONS)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def apply_variant(spec: str) -> None:
    """Put the variant `module:name` in place of avloc's Model, in this process."""
    from avloc.model import Model

    module_name, sep, attr = spec.partition(":")
    if not (module_name and sep and attr):
        raise ValueError(f"--variant: expected MODULE:NAME, got {spec!r}")
    variant = getattr(importlib.import_module(module_name), attr)
    if isinstance(variant, type) and issubclass(variant, Model):
        for name, module in list(sys.modules.items()):
            if (name == "avloc" or name.startswith("avloc.")) and vars(module).get("Model") is Model:
                module.Model = variant
    elif isinstance(variant, Mapping):
        unknown = sorted(set(variant) - set(dir(Model)))
        if unknown:
            raise ValueError(f"--variant {spec}: Model has no methods {unknown}")
        for name, fn in variant.items():
            setattr(Model, name, fn)
    else:
        raise ValueError(f"--variant {spec}: expected a Model subclass or a mapping of "
                         f"Model methods, got {type(variant).__name__}")


def run_seed(work: Path, seed: int) -> dict:
    """The pipeline at one seed, in this process: AP/AR per fusion mode, the
    training seconds and the sha256 of each file in OUTPUTS. avloc is
    imported from sys.path as the caller set it."""
    from avloc.cli import main as cli

    def run(*argv):
        code = cli([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"seed {seed}: exit {code} from avloc {' '.join(map(str, argv))}")

    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps({"seed": seed}))
    run("synth", "--config", config, "--out", work / "data")
    started = time.perf_counter()
    run("train", "--config", config, "--data", work / "data", "--out", work / "model.ckpt")
    record = {"train_s": round(time.perf_counter() - started, 1)}
    for fusion in FUSIONS:
        preds, report = work / f"preds_{fusion}.json", work / f"report_{fusion}.json"
        run("infer", "--config", config, "--checkpoint", work / "model.ckpt",
            "--data", work / "data" / "test", "--out", preds, "--fusion", fusion)
        run("eval", "--pred", preds, "--data", work / "data" / "test", "--out", report)
        scores = json.loads(report.read_text())
        record[fusion] = {"ap": scores["ap"], "ar": scores["ar"]}
    record["sha256"] = {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
                        for name in OUTPUTS}
    return record


def same_bytes(runs: dict) -> dict[str, bool]:
    """Per seed, whether the change's OUTPUTS digests equal the parent's."""
    change, parent = runs["change"]["seeds"], runs["parent"]["seeds"]
    return {seed: change[seed]["sha256"] == parent[seed]["sha256"] for seed in change}


def _git(*args: str, cwd: Path = REPO) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, dest: Path) -> str:
    """Write rev's src/ under dest with git archive; returns the full commit id."""
    commit = _git("rev-parse", f"{rev}^{{commit}}")
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", commit, "src"], cwd=REPO, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def _digest(src: Path) -> str:
    """sha256 over the tree's Python files, names and contents, in path order."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _spawn(src: Path, work: Path, seed: int, variant: str | None) -> dict:
    path = os.pathsep.join(filter(None, [str(src), os.getcwd(), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **{var: "1" for var in BLAS_VARS})
    argv = [sys.executable, __file__, "--worker", str(work), str(seed)]
    if variant:
        argv += ["--variant", variant]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed} in {work} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _medians(seeds: dict[str, dict]) -> dict:
    runs = list(seeds.values())
    out = {}
    for fusion in FUSIONS:
        out[fusion] = {kind: {key: statistics.median(r[fusion][kind][key] for r in runs)
                              for key in runs[0][fusion][kind]}
                       for kind in ("ap", "ar")}
    out["train_s"] = statistics.median(r["train_s"] for r in runs)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, help="record to write (JSON)")
    parser.add_argument("--against", metavar="REV", help="also sweep this commit's src/")
    parser.add_argument("--variant", metavar="MODULE:NAME",
                        help="sweep the change with this Model subclass or method mapping")
    parser.add_argument("--worker", nargs=2, metavar=("WORKDIR", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        if args.variant:
            apply_variant(args.variant)
        print(json.dumps(run_seed(Path(args.worker[0]), int(args.worker[1]))))
        return 0
    if args.out is None:
        parser.error("--out is required")
    if args.variant:  # fail here, not in every worker
        sys.path[:0] = [str(REPO / "src"), os.getcwd()]
        try:
            apply_variant(args.variant)
        except (ImportError, AttributeError, ValueError) as exc:
            parser.error(str(exc))

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        trees = {"change": (REPO / "src", {"commit": _git("rev-parse", "HEAD"),
                                            "dirty": bool(_git("status", "--porcelain", "src")),
                                            "variant": args.variant})}
        if args.against:
            commit = _export(args.against, work / "parent")
            trees["parent"] = (work / "parent" / "src",
                               {"commit": commit, "dirty": False, "variant": None})
        digests = {label: _digest(src) for label, (src, _) in trees.items()}
        jobs = [(label, seed) for seed in SEEDS for label in trees]
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            futures = {job: pool.submit(_spawn, trees[job[0]][0],
                                        work / f"{job[0]}-seed{job[1]}", job[1],
                                        trees[job[0]][1]["variant"])
                       for job in jobs}
            results = {job: future.result() for job, future in futures.items()}

    record = {
        "protocol": {
            "pipeline": "synth, train, infer --fusion both|forward, eval; config {\"seed\": s}",
            "seeds": SEEDS,
            "jobs": JOBS,
            "blas_threads": 1,
            "nproc": os.cpu_count(),
        },
        "runs": {},
    }
    for label, (_, meta) in trees.items():
        seeds = {str(seed): results[(label, seed)] for seed in SEEDS}
        record["runs"][label] = {**meta, "src_sha256": digests[label], "seeds": seeds,
                                 "median": _medians(seeds)}
    if "parent" in trees:
        record["same_bytes"] = same_bytes(record["runs"])
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for label, run in record["runs"].items():
        both = run["median"]["both"]
        print(f"{label}: median AP@0.5 {both['ap']['0.5']:.4f}, AR@10 {both['ar']['10']:.4f}, "
              f"train {run['median']['train_s']:.0f} s")
    if "same_bytes" in record:
        differ = [seed for seed, same in record["same_bytes"].items() if not same]
        print("checkpoint and predictions: "
              + (f"differ from the parent's at seeds {', '.join(differ)}" if differ
                 else "the parent's bytes at every seed"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
