"""Repeat untraced benchmark runs and summarize each end-to-end metric.

    python3 bench/baseline.py --runs 10 [--workloads deduce,cli] [--out bench/baseline.json]

Run it from the root of a source checkout.  Each run is a separate
``bench/run.py`` process with its own seed (1, 2, ...), one after another.
For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  ``raw.*`` rows
are the wall-clock timings before the speed correction (``run.Calibration``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()

    summary: dict = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                return 1
            note, result = json.loads(lines[-2]), json.loads(lines[-1])
            summary["machine"] = note["machine"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output: {note['problems']}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in note.get("raw", {}).items():
                values.setdefault("raw." + name, []).append(v)
        stats = {name: summarize(v) for name, v in values.items()}
        summary["workloads"][workload] = stats
        for name, s in stats.items():
            print(f"{workload:7} {name:19} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
