"""Run workloads once per seed, one process after another, and summarise
each metric by its median, quartiles and spread.

    python3 bench/repeat.py --seeds 10 --trace 0 --out results.json
    python3 bench/repeat.py --workloads decode-long --seeds 5 --first-seed 100

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. For an
end-to-end metric it is printed next to the bound in ``BENCHMARK.json``;
a spread above a third of the bound is marked ``noisy``, above the bound
``OVER``. With ``--compare earlier.json`` each median is also divided by
the same median in an earlier summary, and a ratio that is worse than the
bound allows is marked ``OVER``. Run it from the root of a checkout, like
``run.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return {"result": lines[-1], "environment": lines[0]["environment"],
            "detail": next((ln["detail"] for ln in lines if "detail" in ln), {})}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the summary as JSON here")
    parser.add_argument("--compare", help="an earlier summary written by --out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        summary["environment"] = runs[0]["environment"]
        metrics = {}
        for name, first in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarise(values), unit=first["unit"])
        summary["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "metrics": metrics,
            "details": [r["detail"] for r in runs],
        }
        print(f"{workload}: correct={summary['workloads'][workload]['correct']}", flush=True)
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "OVER" if m["spread"] > bound else "noisy" if m["spread"] > bound / 3 else "ok"
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                ratio = m["median"] / before["median"]
                m["ratio"] = ratio
                worse = ratio - 1 if lower_better.get(name, True) else 1 - ratio
                flag += f" ratio {ratio:.3f}" + (" OVER" if bound is not None and worse > bound else "")
            print(f"  {name:34s} {m['median']:14.6g} {m['unit']:6s} spread {m['spread']:.3f}"
                  f"{'' if bound is None else f' bound {bound}'} {flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
