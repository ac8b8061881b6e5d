"""Run workloads over several seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --save set1.json
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --compare set1.json
    python3 perfbench/spread.py --workloads pipeline_narrow --seeds 20260808 7 11

For every end-to-end metric it prints the median and the distance between the
first and third quartile as a share of the median, next to the metric's bound
from BENCHMARK.json. ``--compare`` also prints how far each median moved
against an earlier saved set and whether the WER tables and artifact digests
are identical. The WER table of every run is printed too, which makes the
last form above the seed-spread report (informational, not gated).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def spread(values) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def wer_line(detail: dict) -> str:
    tables = detail.get("wer_pct")
    if not tables:
        return "(no evaluate stage)"
    return "  ".join(
        f"{split} WER % " + " ".join(f"{k} {v:.2f}" for k, v in table.items())
        for split, table in tables.items()
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write every run's result and detail to this JSON file")
    parser.add_argument("--compare", help="JSON file saved by an earlier --save")
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    runs: dict = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            result, detail = run_once(workload, seed, args.seconds)
            runs[workload].append({"seed": seed, "result": result, "detail": detail})
            print(f"{workload} seed {seed}: correct={result['correct']} cycles={detail.get('cycles')} "
                  f"{wer_line(detail)}", flush=True)
        print(f"\n{workload}: {len(args.seeds)} seeds")
        print(f"  {'metric':45s} {'median':>12s} {'unit':>9s} {'IQR/med':>8s} {'bound':>6s} {'moved':>8s}")
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs[workload]]
            med, rel = spread(values)
            bound = m["bound"]
            moved = ""
            if workload in earlier:
                old = statistics.median(
                    r["result"]["metrics"][m["name"]]["value"] for r in earlier[workload]
                )
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                moved = f"{worse:+.3f}"
            flag = " !" if rel > bound / 3 else ""
            print(f"  {m['name']:45s} {med:12.5g} {m['unit']:>9s} {rel:8.3f} "
                  f"{bound:>6} {moved:>8s}{flag}")
        if workload in earlier:
            same = [
                (a["detail"].get("wer_pct"), a["detail"].get("digests"))
                == (b["detail"].get("wer_pct"), b["detail"].get("digests"))
                for a, b in zip(earlier[workload], runs[workload])
            ]
            print(f"  WER tables and artifact digests identical to the earlier set: {sum(same)}/{len(same)} runs")
        print(flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
