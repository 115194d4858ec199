"""Steadiness check: repeated runs of the benchmark, one at a time.

    python3 perfbench/steady.py --runs 10 [--first-seed 1]

Every run measures for BENCHMARK.json's run_seconds.  Round r runs every
workload of BENCHMARK.json once with seed first_seed + r, in the listed order
on even rounds and the reverse order on odd rounds.  For each workload
and end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread as a
share of the median next to a third of the metric's bound in BENCHMARK.json,
and the max/min spread.  It also prints the failed share of each run.  Raw
results go to perfbench/out/steady-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    results = {w: [] for w in names}
    for r in range(args.runs):
        for w in (names if r % 2 == 0 else names[::-1]):
            res = run_once(w, args.first_seed + r, spec["run_seconds"])
            results[w].append(res)
            print(f"round {r} {w}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':18s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'iqr/med':>8s} {'bound/3':>8s} {'max/min':>8s}")
    for w, runs in results.items():
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            print(f"{w:18s} {name:12s} {q2:10.5g} {q1:10.5g} {q3:10.5g} {(q3 - q1) / q2:8.2%} "
                  f"{bounds[name] / 3:8.2%} {max(vals) / min(vals) - 1:8.2%}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{w:18s} failed share(s) {shares}, correct in all runs: {all(r['correct'] for r in runs)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    dump = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    dump.write_text(json.dumps(results, indent=1))
    print(f"raw results: {dump.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
