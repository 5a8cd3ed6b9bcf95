"""Steadiness mode: run workloads repeatedly and report the spread.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Runs run.py once per seed (seeds 1 .. runs) for each workload, with the
run length from BENCHMARK.json, and prints the median and quartiles of
every end-to-end metric.  The spread is the
distance between the quartiles (statistics.quantiles, n=4) as a share of
the median; a metric whose spread exceeds its bound is flagged.  Every run
is kept in perfbench/_results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = os.path.join(HERE, "_results")
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    flagged = 0
    for name in args.workload or names:
        results = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            results.append(res)
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()), flush=True)
        with open(os.path.join(out_dir, f"steady-{name}-{stamp}.json"), "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: correct={all(r['correct'] for r in results)} failed shares={sorted(shares)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "  <-- spread exceeds bound" if spread > bound else ""
            flagged += bool(flag)
            print(f"  {metric:12s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}"
                  f"  spread {spread:.2%} (bound {bound:.0%}){flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
