"""Run the benchmark over several seeds and summarise each end-to-end metric
the way a regression check reads it: median, quartiles and the spread
(interquartile distance as a share of the median) against the bound that
BENCHMARK.json fixes.

    python3 bench/sweep.py --seeds 0-9 --out bench/baseline.json
    python3 bench/sweep.py --workload slope12k_img --seeds 0-4

Runs are made one at a time, each in its own process, exactly as a single
benchmark run is made. The summary is printed as a table and, as its last
line, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Seeds 0-9 tune and prove the benchmark; a claimed gain must also hold on
# this one, which no tuning has looked at.
HELD_OUT_SEED = 101


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values: list, bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="repeat for several; default: every workload")
    ap.add_argument("--seeds", default="0-9", help="range such as 0-9")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--out", type=Path, help="also write the summary here")
    args = ap.parse_args(argv)

    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    summary = {}
    for workload in workloads:
        results = []
        for seed in _seeds(args.seeds):
            res = _run(workload, seed, args.seconds)
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} " + " ".join(
                      f"{k}={m['value']:.5g}{m['unit']}" for k, m in res["metrics"].items()),
                  flush=True)
        summary[workload] = {
            m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in results],
                                 m["bound"])
            for m in SPEC["end_to_end"]}
        summary[workload]["failed_runs"] = sum(not r["correct"] for r in results)
        for name, s in summary[workload].items():
            if name != "failed_runs":
                print(f"  {name:20s} median {s['median']:.5g}  spread {s['spread']:.3f}"
                      f"  bound {s['bound']}  {'steady' if s['steady'] else 'NOT steady'}")
    if args.out:
        import numpy
        import scipy
        args.out.write_text(json.dumps({
            "held_out_seed": HELD_OUT_SEED,
            "seeds": args.seeds,
            "run_seconds": args.seconds,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "workloads": summary,
        }, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
