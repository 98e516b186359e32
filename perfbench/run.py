#!/usr/bin/env python3
"""Benchmark driver for avloc.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 20 --trace 0

Runs one workload in this (fresh) process against the sources in ``src/``
and prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run, whose spans are also written to
``.perfbench_out/``. The line before it records the environment. See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import os

# One process generates the load, with one BLAS thread (<= nproc), unless the
# caller says otherwise. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "avloc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "avloc" / "__init__.py").is_file():
        print(f"error: no avloc sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import avloc
    import bench_workloads

    if Path(avloc.__file__).resolve().parent != SRC / "avloc":
        print(f"error: imported avloc from {avloc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workloads = bench_workloads.make_workloads(args.seed)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    result, extra = bench_workloads.run_workload(
        workloads[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR)
    for line in extra.get("errors", []):
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"env": environment(), **extra}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
