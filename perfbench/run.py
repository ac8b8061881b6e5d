"""Run one kbrerank benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload pipeline_narrow --seed 1 --seconds 24 --trace 0

Run from the repository root. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``. The
line before it is a ``{"detail": ...}`` record with the run environment, the
WER table, artifact digests and every stage time. The exit code is 0 only
when every stage succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

# fixed before numpy loads: one BLAS/OpenMP thread keeps timings steady on a
# shared machine and stays within nproc everywhere
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 170


class TimeLimit(BaseException):
    pass


def _on_alarm(signum, frame):
    raise TimeLimit()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kbrerank" / "cli.py").is_file():
        print(f"error: no kbrerank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)
    try:
        result, detail = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    except TimeLimit:
        print(f"error: run exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    measured = result["metrics"]
    missing = [name for name in wanted if name not in measured]
    if result["correct"] and missing:
        detail["problems"].append(f"metrics not measured: {missing}")
        result["correct"] = False
    result["metrics"] = {
        name: {"value": measured.get(name, 0.0), "unit": units[name]} for name in wanted
    }
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
