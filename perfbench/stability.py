"""Sets of benchmark runs of the same code, against the bounds in BENCHMARK.json.

    python3 perfbench/stability.py --runs 10 --sets 2
    python3 perfbench/stability.py --workload geometry --runs 5 --sets 1

Runs ``run.py`` once per (set, run, workload), one run at a time, for
BENCHMARK.json's ``run_seconds``, workloads interleaved, each run with
its own seed, counting up from ``FIRST_SEED``.  For every workload and
end-to-end metric it prints per set the median, the quartiles and
the spread (q3 - q1) / median as a share of the metric's bound, and from
the second set on the drift of the median from the first set's, also as
a share of the bound (worse direction positive).  It also prints the
share of failed operations per set.  Every run's result goes to
``perfbench/out/stability.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 5000


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=names,
                   help="repeat to pick several; default all")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    args = p.parse_args(argv)
    workloads = args.workload or names

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = FIRST_SEED
    for k in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                r = run_once(w, seed, spec["run_seconds"])
                results[w][k].append({"seed": seed, **r})
                seed += 1
                print(f"set {k} run {i} {w} seed {seed - 1}: correct={r['correct']} "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in r["metrics"].items()),
                      flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "stability.json").write_text(json.dumps(results, indent=1) + "\n")

    print(f"\n{'workload':<10s} {'metric':<12s} {'set':>3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread/bound':>12s} {'drift/bound':>11s}")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            first = None
            for k, runs in enumerate(results[w]):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                    else (values[0],) * 3
                first = med if first is None else first
                drift = sign * (med - first) / first / bound
                print(f"{w:<10s} {name:<12s} {k:3d} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                      f"{(q3 - q1) / med / bound:12.2f} {drift if k else 0.0:11.2f}")
        for k, runs in enumerate(results[w]):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print(f"{w:<10s} set {k}: failed {failed}/{attempted}, all correct: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
