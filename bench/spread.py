"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage (from the repository root):

    python3 bench/spread.py --workloads rate_sweep,bit_sweep --seeds 1-10
    python3 bench/spread.py --workloads all --seeds 1-10 --out bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed), one process at a time,
and reports for every metric the median, the quartiles and the
interquartile range as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them), next to the metric's
bound from BENCHMARK.json.  A spread above a third of its bound is
flagged.  It also collects each run's pass-0 CSV sha256.  With
``--compare FILE`` the medians are compared with an earlier ``--out``
file, such as the recorded baseline, and so are the CSV digests of the
seeds both hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


CSV_LINE = "csv sha256 (pass 0) "


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str, float]:
    """The untraced run's result line, its pass-0 CSV sha256 and its wall time in seconds."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])  # a run whose checks failed still has a result
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    digest = next(line.strip()[len(CSV_LINE):] for line in lines if line.strip().startswith(CSV_LINE))
    return result, digest, wall


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", help="write the values and summaries as JSON")
    parser.add_argument("--compare", help="JSON from an earlier --out to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    section = spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in section}
    better = {m["name"]: m["better"] for m in section}
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}

    result = {"seeds": seeds, "seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for name in names:
        runs, walls, digests = [], [], {}
        for seed in seeds:
            run, digest, wall = run_once(name, seed, spec["run_seconds"])
            runs.append(run)
            walls.append(wall)
            digests[str(seed)] = digest
            print(f"{name} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {"correct": all(r["correct"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "attempted": sum(r["attempted"] for r in runs),
                   "run_wall_s_max": max(walls), "csv_sha256_pass0": digests, "metrics": {}}
        for metric in runs[0]["metrics"]:
            summary["metrics"][metric] = summarize([r["metrics"][metric]["value"] for r in runs])
        result["workloads"][name] = summary
        print(f"\n{name}: correct={summary['correct']} failed {summary['failed']} "
              f"of {summary['attempted']}; longest run {max(walls):.1f} s")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}"
              + ("  vs earlier" if earlier else ""))
        for metric, s in summary["metrics"].items():
            bound = bounds.get(metric)
            flag = ""
            if bound:
                worst = max(worst, s["iqr_share"] / bound)
                flag = "  > bound/3" if s["iqr_share"] > bound / 3 else ""
            line = (f"  {metric:36s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                    f"{s['iqr_share']:8.4f} {bound if bound is not None else '':>6}{flag}")
            old = earlier.get(name, {}).get("metrics", {}).get(metric)
            if old and old["median"]:
                change = s["median"] / old["median"] - 1.0
                worse = -change if better[metric] == "higher" else change
                line += f"  {change:+.3%}" + ("  WORSE THAN BOUND" if bound and worse > bound else "")
            print(line)
        old_digests = earlier.get(name, {}).get("csv_sha256_pass0", {})
        differ = [seed for seed, digest in digests.items() if old_digests.get(seed, digest) != digest]
        if old_digests:
            shared = sum(seed in old_digests for seed in digests)
            print(f"  pass-0 CSV sha256: {shared - len(differ)} of {shared} shared seeds identical"
                  + (f"; DIFFERENT on seeds {', '.join(differ)}" if differ else ""))
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
