#!/usr/bin/env python3
"""Compare bidirectional-fused scoring against forward-only scoring.

Runs inference twice from the same checkpoint and emits one CSV row with
AP at each threshold for both modes plus the deltas.

Usage: python scripts/run_direction_ablation.py WORKDIR [--config CONFIG.json]
(WORKDIR must already contain data/test and model.ckpt from run_pipeline.py.)
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
from pathlib import Path  # noqa: E402

from avloc.cli import main as cli  # noqa: E402


def run(argv):
    code = cli(argv)
    if code != 0:
        raise SystemExit(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir")
    parser.add_argument("--config", default=None)
    args = parser.parse_args()
    work = Path(args.workdir)
    config_flags = ["--config", args.config] if args.config else []

    reports = {}
    for mode in ("both", "forward"):
        preds = work / f"predictions_{mode}.json"
        report = work / f"report_{mode}.json"
        run(["infer", *config_flags, "--checkpoint", str(work / "model.ckpt"),
             "--data", str(work / "data" / "test"), "--out", str(preds),
             "--fusion", mode])
        run(["eval", "--pred", str(preds), "--data", str(work / "data" / "test"),
             "--out", str(report)])
        reports[mode] = json.loads(report.read_text())["ap"]

    taus = sorted(reports["both"], key=float)
    header = ",".join(
        ["mode_pair"]
        + [f"ap_{t}_fused" for t in taus]
        + [f"ap_{t}_forward" for t in taus]
        + [f"ap_{t}_delta" for t in taus]
    )
    row = ",".join(
        ["fused_vs_forward"]
        + [repr(reports["both"][t]) for t in taus]
        + [repr(reports["forward"][t]) for t in taus]
        + [repr(reports["both"][t] - reports["forward"][t]) for t in taus]
    )
    out = work / "direction_ablation.csv"
    out.write_text(header + "\n" + row + "\n")
    print(header)
    print(row)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
