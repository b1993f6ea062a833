"""Benchmark of groupalg, run from the root of a checkout:

    python3 perfbench/run.py --workload large|sweep|codes --seed N --seconds S --trace 0|1

The last line of standard output is one JSON record with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-module metrics with --trace 1.  The record and the run's details
(per-round sums, set-up samples, failures, span totals) are also written to
.perfbench/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("large", "sweep", "codes"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "groupalg", "__init__.py")):
        print(f"error: no groupalg package under {src}", file=sys.stderr)
        return 2
    # one process at a time; BLAS may use the cores this process may run on
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, src)

    import bench  # after the thread settings, which numpy reads on import

    result, detail = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for note in detail["failures"]:
        print(f"failed: {note}", file=sys.stderr)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
