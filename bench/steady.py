"""Steadiness of the benchmark: run one workload in fresh processes, in
two sets over the same seeds, and print, for every end-to-end metric and
set, the median, the quartiles and the spread (interquartile range over
the median) next to the metric's bound from BENCHMARK.json, and how much
worse the second set's median is than the first's.

    python3 bench/steady.py --workload evaluate-short --runs 10

The two sets run interleaved in time, alternating which goes first for
each seed. A summary goes to bench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()

    results = [[], []]
    for i in range(args.runs):
        seed = args.first_seed + i
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            r = run_once(args.workload, seed, args.seconds)
            results[s].append(r)
            print(f"set {s} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} " + " ".join(
                      f"{k}={m['value']:.4g}" for k, m in r["metrics"].items()), flush=True)

    summary = {"workload": args.workload, "runs": args.runs, "seconds": args.seconds, "metrics": {}}
    print(f"\n{'metric':<14} {'set':>3} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>7} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        rows = []
        for s, rs in enumerate(results):
            q1, med, q3, sp = spread([r["metrics"][name]["value"] for r in rs])
            rows.append({"q1": q1, "median": med, "q3": q3, "spread": sp})
            verdict = "steady" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO NOISY")
            print(f"{name:<14} {s:>3} {q1:>10.4g} {med:>10.4g} {q3:>10.4g} {sp:>7.3f} {bound:>6}  {verdict}")
        shift = worse_by(rows[0]["median"], rows[1]["median"], m["better"])
        print(f"{'':<14} second set worse by {shift:+.3f} ({'ok' if shift <= bound else 'OVER BOUND'})")
        summary["metrics"][name] = {"unit": m["unit"], "bound": bound, "sets": rows,
                                    "second_worse_by": shift}
    shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in results]
    summary["failed_share"] = shares
    summary["all_correct"] = all(r["correct"] for rs in results for r in rs)
    print(f"failed share per set: {shares}; all correct: {summary['all_correct']}")
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / f"steady-{args.workload}.json").write_text(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
