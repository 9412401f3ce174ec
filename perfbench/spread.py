"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload site-burst --seeds 0-9
    python3 perfbench/spread.py --workload site-burst --seeds 3,3,3,3,3

Runs ``perfbench/run.py`` once per listed seed, one run at a time, for
``run_seconds`` from ``BENCHMARK.json``, and prints for each end-to-end
metric its median and its spread: the distance between the first and
third quartile of the values (``statistics.quantiles(values, n=4)``) as
a share of their median, next to the metric's bound. Distinct seeds
(``0-9``) is the acceptance check of the benchmark; one seed repeated
separates the machine's run-to-run noise from the inputs' variation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """``"0-9"``, ``"3,3,3"`` or a mix such as ``"0-4,7"``."""
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, spec["run_seconds"]))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v:.5g}" for k, v in runs[-1].items()
        ), flush=True)
    print(f"\n{args.workload}: {len(runs)} runs")
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        s = spread(values)
        flag = "ok" if s <= bound / 3 else ("WIDE" if s > bound else "over 1/3")
        print(
            f"  {name:22s} median {statistics.median(values):12.6g}  "
            f"spread {s:7.4f}  bound {bound:.3f}  {flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
