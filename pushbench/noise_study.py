"""Noise study: run every workload with several seeds and record, per
end-to-end metric, its median, quartiles and spread (interquartile
distance as a share of the median).  The bounds in ``BENCHMARK.json``
are set from these spreads, never narrower.

Runs alternate the workload order from round to round, so a slow episode
of the shared host does not land on one workload only.

    python3 pushbench/noise_study.py --first-seed 3000 --out pushbench/noise/set1.json
    python3 pushbench/noise_study.py --first-seed 4000 --previous pushbench/noise/set1.json

``--previous`` reports, per metric, how much worse each median is than
the earlier study's (the check a second set of runs must pass).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    probe = [line for line in proc.stderr.splitlines() if "host probe" in line]
    result["probe"] = probe[-1].split("host probe ")[1].split(" ")[0].rstrip(",") if probe else ""
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--previous", type=Path,
                        help="an earlier study to compare medians with, e.g. of the parent commit")
    args = parser.parse_args()
    previous = json.loads(args.previous.read_text()) if args.previous else None

    results: dict[str, list[dict]] = {name: [] for name in args.workloads}
    for round_ in range(args.runs):
        order = args.workloads if round_ % 2 == 0 else args.workloads[::-1]
        for workload in order:
            result = run_once(workload, args.first_seed + round_, args.seconds)
            results[workload].append(result)
            print(f"round {round_} {workload}: correct={result['correct']} "
                  f"wall={result['wall_s']:.1f}s probe={result['probe']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"] for m in bench["end_to_end"] if m["better"] == "lower"}
    study = {"seconds": args.seconds, "runs": args.runs,
             "seeds": [args.first_seed + r for r in range(args.runs)], "workloads": {}}
    for workload, runs in results.items():
        metrics = {}
        for name in runs[0]["metrics"]:
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary["bound"] = bounds.get(name)
            if previous is not None:
                # How much worse this median is than the earlier one, as a
                # share of the earlier median (negative: better).
                old = previous["workloads"][workload]["metrics"][name]["median"]
                change = (summary["median"] - old) / old if old else 0.0
                summary["worse_than_previous"] = change if name in lower_better else -change
            metrics[name] = summary
        study["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "wall_s_max": max(r["wall_s"] for r in runs),
            "host_probe": [r["probe"] for r in runs],
            "metrics": metrics,
        }
        for name, s in metrics.items():
            flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  <-- wide"
            if "worse_than_previous" in s:
                flag += f"  worse_than_previous={s['worse_than_previous']:+.4f}"
                if s["worse_than_previous"] > s["bound"]:
                    flag += "  <-- REGRESSION"
            print(f"{workload:14s} {name:18s} median={s['median']:.5g} "
                  f"spread={s['spread']:.4f} bound={s['bound']}{flag}")
    if args.out:
        args.out.write_text(json.dumps(study, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
