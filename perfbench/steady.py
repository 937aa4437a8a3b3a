"""Steadiness check: two sets of benchmark runs of the same code, compared.

Usage (from the root of a checkout):

    python3 perfbench/steady.py --workload sweep_dense --runs 10

Runs ``perfbench/run.py --trace 0`` ``--runs`` times in each of two sets,
one seed per run (seeds 1 to ``runs`` in the first set, ``runs + 1`` to
``2 * runs`` in the second), one run at a time.  For every metric it prints
each set's sample count, median and quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  Against BENCHMARK.json it then
checks, for each end-to-end metric, that both sets' spreads stay within the
metric's bound and that the second set's median is not worse than the
first's by more than the bound, and that both sets fail the same share of
their operations.  Exits 1 if a check fails.  Results are also written to
perfbench/out/steady-<workload>.json.
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
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for k in range(SETS):
        results = []
        for i in range(args.runs):
            seed = 1 + k * args.runs + i
            result = run_once(args.workload, seed, seconds)
            results.append(result)
            print(f"set {k + 1} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
        sets.append(results)

    ok = True
    summary = {"workload": args.workload, "runs": args.runs, "run_seconds": seconds,
               "sets": [], "checks": []}
    for k, results in enumerate(sets):
        stats = {name: describe([r["metrics"][name]["value"] for r in results])
                 for name in results[0]["metrics"]}
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        summary["sets"].append({"seeds": [1 + k * args.runs + i for i in range(args.runs)],
                                "all_correct": all(r["correct"] for r in results),
                                "failed_shares": shares, "metrics": stats})
        ok &= all(r["correct"] for r in results)

    print(f"\n{args.workload}: {args.runs} runs per set, {seconds} s each")
    print(f"{'metric':34s} {'set':>3s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in summary["sets"][0]["metrics"]:
        bound = bounds.get(name, {}).get("bound")
        for k, entry in enumerate(summary["sets"]):
            s = entry["metrics"][name]
            print(f"{name:34s} {k + 1:3d} {s['n']:3d} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.2%} {'' if bound is None else format(bound, '.0%'):>6s}")
            if bound is not None and not s["spread"] <= bound:
                summary["checks"].append(f"{name}: set {k + 1} spread {s['spread']:.2%} exceeds bound {bound:.0%}")
        if bound is not None:
            m1 = summary["sets"][0]["metrics"][name]["median"]
            m2 = summary["sets"][1]["metrics"][name]["median"]
            worse = (m2 / m1 - 1.0) if bounds[name]["better"] == "lower" else (1.0 - m2 / m1)
            print(f"{'':34s} second median worse by {worse:+.2%} (bound {bound:.0%})")
            if worse > bound:
                summary["checks"].append(f"{name}: second median worse by {worse:.2%} > {bound:.0%}")
    if summary["sets"][0]["failed_shares"] != summary["sets"][1]["failed_shares"]:
        summary["checks"].append("failed shares differ between the sets")
    for k, entry in enumerate(summary["sets"]):
        print(f"set {k + 1}: all correct={entry['all_correct']}, failed shares {entry['failed_shares']}")
    for check in summary["checks"]:
        print(f"FAIL: {check}")
    ok &= not summary["checks"]
    print("steady: " + ("yes" if ok else "no"))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
