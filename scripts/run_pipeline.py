#!/usr/bin/env python3
"""End-to-end toy experiment: synth -> train -> infer -> eval in one work dir.

Usage: python scripts/run_pipeline.py WORKDIR [--config CONFIG.json] [--seed N]
"""

import os

# One BLAS thread per process, unless the caller says otherwise, so that
# several runs side by side do not oversubscribe the cores. Must be set
# before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from avloc.cli import main as cli  # noqa: E402


def run(argv):
    code = cli(argv)
    if code != 0:
        print(f"step failed with exit code {code}: {' '.join(argv)}", file=sys.stderr)
        raise SystemExit(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir")
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    config_flags = ["--config", args.config] if args.config else []
    seed_flags = ["--seed", str(args.seed)] if args.seed is not None else []

    t0 = time.monotonic()
    run(["synth", *config_flags, *seed_flags, "--out", str(work / "data")])
    run(["train", *config_flags, *seed_flags, "--data", str(work / "data"),
         "--out", str(work / "model.ckpt")])
    run(["infer", *config_flags, "--checkpoint", str(work / "model.ckpt"),
         "--data", str(work / "data" / "test"), "--out", str(work / "predictions.json")])
    run(["eval", "--pred", str(work / "predictions.json"),
         "--data", str(work / "data" / "test"),
         "--out", str(work / "report.json"), "--csv", str(work / "report.csv")])

    report = json.loads((work / "report.json").read_text())
    print(f"\npipeline finished in {time.monotonic() - t0:.1f}s")
    print(json.dumps({"ap": report["ap"], "ar": report["ar"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
