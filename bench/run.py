"""Benchmark of orthosep's train, separate and evaluate paths.

    python3 bench/run.py --workload train-short --seed 0 --seconds 40 --trace 0

Run from the repository root; the program is imported from ./src. The run
builds its inputs from --seed, runs one warm-up operation, then times as
many whole rounds of identical operations as fit in --seconds (at least
one), and checks the outputs after timing. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
same run is made with every public layer call timed, and the metrics are
the per-layer ones. A fuller record goes to bench/out/.
"""

import time

# set-up time is measured from here: imports, inputs, set-up training and
# the warm-up operation
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS threads are pinned before numpy is first imported (in main).
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def provenance():
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pins": PINS,
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        import orthosep  # noqa: F401
    except ImportError as e:
        print(f"bench: cannot import the program from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import checks
    from orthosep.errors import OrthosepError
    from tracing import Tracer
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    workload = WORKLOADS[args.workload](args.seed, OUT)
    warm = workload.op(workload.panel[0])
    setup_s = time.perf_counter() - STARTED

    times, attempted, failed, errors = [], 0, 0, []
    outputs, identical = {}, True  # panel index -> first round's output
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for i, item in enumerate(workload.panel):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = workload.op(item)
            except OrthosepError as e:
                failed += 1
                errors.append(f"{type(e).__name__}: {e}")
                continue
            times.append(time.perf_counter() - t0)
            if i in outputs:
                identical = identical and workload.same(outputs[i], out)
            else:
                outputs[i] = out
        if tracer and tracer.fixed_end is None:
            tracer.end_fixed_work()
        # stop before a round that, at the last round's pace, would end
        # after --seconds; at least one round runs
        now = time.perf_counter()
        if now - t_start + (now - t_round) > args.seconds:
            break
    measured_s = time.perf_counter() - t_start
    # before the checks and the allocation probe, which are not the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer_metrics = None
    if tracer:
        tracer.uninstall()
        layer_metrics = tracer.metrics()

    correct, facts = True, {}
    try:
        if len(outputs) != len(workload.panel):
            raise checks.CheckFailed("an item of the panel failed in every round")
        if not (identical and workload.same(warm, outputs[0])):
            raise checks.CheckFailed("repeated operations gave different outputs")
        facts = workload.check([outputs[i] for i in range(len(workload.panel))])
    except checks.CheckFailed as e:
        correct = False
        errors.append(f"check failed: {e}")
    for e in errors:
        print(f"bench: {e}", file=sys.stderr)

    end_to_end = {
        "audio_s_per_s": (len(times) * workload.audio_per_op / sum(times), "s/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    shown = layer_metrics if tracer else end_to_end
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(), "measured_s": measured_s,
        "op_times_s": times, "errors": errors, "checks": facts,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()}, "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [{"name": n, "start": s, "dur": d, "parent": p} for n, s, d, p in tracer.spans]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
