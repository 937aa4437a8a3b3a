"""qkdkit benchmark: one workload, one closed-loop caller, oracle-checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 20 --trace 0

Drives ``qkdkit.cli.main`` in-process from one thread: each call starts when
the previous one returns.  BLAS pools are capped at one thread.  With
``--trace 0`` the run prints the end-to-end metrics, with call and set-up
times normalized by the host's speed as measured by a fixed reference task
run between calls (``hostref.py``); with ``--trace 1`` it
runs half its time untraced and half with spans recorded around every public
call into each layer, and prints the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details, files
written and reference figures: perfbench/README.md.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP pools before NumPy is imported, here and in child processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 12
SETUP_CHILD = """
import contextlib, io, json, sys, time
start = time.perf_counter()
import qkdkit.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = qkdkit.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "seconds": time.perf_counter() - start}))
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(argv: list[str], count: int) -> tuple[list[float], list[float]]:
    """Fresh-interpreter import of qkdkit plus one warm-up call, ``count`` times.

    Returns the raw samples and the samples normalized by reference blocks
    run in this process around each child (interpreted and small-array
    parts: set-up is import and interpreter work on every workload).
    """
    import hostref

    clock = hostref.HostClock(("interpreted", "small_arrays"))
    clock.block()
    samples, before = [], []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(argv)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=120)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        if result.get("rc") != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        samples.append(result["seconds"])
        before.append(len(clock.blocks) - 1)
        clock.block()
    return samples, hostref.normalize(samples, before, clock)


def invoke(cli, argv: list[str]) -> tuple[int, str, float]:
    """One CLI call with its output captured: ``(exit code, stdout, seconds)``.

    ``cli.main`` is looked up on every call so an installed tracer sees it.
    An escaping exception counts as exit code -1.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the program raised instead of exiting: a failed call
            rc = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
    if rc != 0:
        print(f"call {argv} exited {rc}: {err.getvalue().strip()[-500:]}", file=sys.stderr)
    return rc, out.getvalue(), seconds


def closed_loop(cli, workload, seconds: float, failures: Counter, clock=None):
    """Whole rounds of calls until ``seconds`` have passed.

    Returns the calls' latencies and, for each call, the index of the last
    reference block of ``clock`` run before it (with no ``clock``, no blocks
    run and the indices are empty).  Each failed call's reason is counted in
    ``failures``.  Outputs are checked as they arrive and then dropped, so the
    loop's memory does not grow with the number of calls.
    """
    latencies, before = array("d"), array("l")
    start = time.perf_counter()
    if clock is not None:
        clock.block()
    while True:
        for call in workload.next_round():
            rc, stdout, elapsed = invoke(cli, call.argv)
            latencies.append(elapsed)
            reason = workload.collect(call, rc, stdout)
            if reason is not None:
                failures[reason] += 1
            if clock is not None:
                before.append(len(clock.blocks) - 1)
                if clock.due():
                    clock.block()
        if time.perf_counter() - start >= seconds:
            if clock is not None and before[-1] == len(clock.blocks) - 1:
                clock.block()
            return latencies, before


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "git_sha": git_sha(), "loop": "closed, 1 caller, 1 thread",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, latencies, normalized, setup, setup_norm, rss_mib) -> tuple[dict, dict]:
    """BENCHMARK.json end-to-end metrics, and informational extras."""
    busy = sum(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "norm_calls_per_s": (len(normalized) / sum(normalized), "calls/s"),
        "norm_call_p50_ms": (statistics.median(normalized) * 1e3, "ms"),
    }
    extras = {"calls": (len(latencies), "count"),
              "setup_raw_s": (statistics.median(setup), "s"),
              "calls_per_s": (len(latencies) / busy, "calls/s"),
              "call_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
              "host_slowdown": (busy / sum(normalized), "x")}
    if workload.unit_name == "point":
        extras["sweep_points_per_s"] = (len(latencies) * workload.units_per_call / busy, "points/s")
    if workload.pulses_per_call:
        extras["pulses_per_s"] = (len(latencies) * workload.pulses_per_call / busy, "pulses/s")
    if len(latencies) >= 1000:  # at least ten calls beyond the 99th percentile
        extras["call_p99_ms"] = (percentile(latencies, 99) * 1e3, "ms")
        extras["norm_call_p99_ms"] = (percentile(normalized, 99) * 1e3, "ms")
    return metrics, extras


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")


def run(args: argparse.Namespace, workdir: Path, outdir: Path) -> dict:
    import hostref
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    meta = metadata(args)
    print("metadata: " + json.dumps(meta))
    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    workload.prepare()

    # set-up is sampled before and after the timed loop, so that its median
    # spans the same stretch of time as the loop's figures
    setup, setup_norm = (measure_setup(workload.warmup_argv(), SETUP_SAMPLES // 2)
                         if args.trace == 0 else ([], []))
    import qkdkit.cli as cli

    rc, _, _ = invoke(cli, workload.warmup_argv())  # untimed warm-up in this interpreter
    if rc != 0:
        raise RuntimeError(f"warm-up call exited {rc}")

    report = {"metadata": meta}
    failures = Counter()
    if args.trace == 0:
        clock = hostref.HostClock(workload.reference)
        latencies, before = closed_loop(cli, workload, args.seconds, failures, clock)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw, norm = measure_setup(workload.warmup_argv(), SETUP_SAMPLES - len(setup))
        setup, setup_norm = setup + raw, setup_norm + norm
        normalized = hostref.normalize(latencies, before, clock)
        metrics, extras = end_to_end(workload, latencies, normalized, setup, setup_norm, rss_mib)
        attempted = len(latencies)
        report["setup_samples_s"] = setup
        report["setup_normalized_s"] = setup_norm
        report["reference_slowdowns"] = clock.blocks
        print_table("end-to-end (untraced):", {**metrics, **extras})
    else:
        plain, _ = closed_loop(cli, workload, args.seconds / 2.0, failures)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = closed_loop(cli, workload, args.seconds / 2.0, failures)
        finally:
            tracer.uninstall()
        attempted = len(plain) + len(traced)
        summary = tracer.summary()
        units = len(traced) * workload.units_per_call
        metrics = tracing.layer_metrics(summary, len(traced), units,
                                        len(traced) * workload.pulses_per_call)
        overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1.0
        layers = tracing.layer_table(summary, len(traced))
        spans_path = outdir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(str(spans_path))
        report.update(layer_table=layers, spans=summary["spans"], spans_file=str(spans_path.relative_to(ROOT)),
                      tracing_overhead={"untraced_mean_s": statistics.fmean(plain), "untraced_calls": len(plain),
                                        "traced_mean_s": statistics.fmean(traced), "traced_calls": len(traced),
                                        "overhead": overhead})
        print_table("per layer (traced):", metrics)
        print(f"layers ({workload.unit_name} units: {units}, traced calls: {len(traced)}):")
        for row in layers:
            print(f"  {row['layer']:11s} boundary calls/call {row['boundary_calls_per_call']:>11.1f}"
                  f"  self {row['self_ms_per_call']:>10.3f} ms/call  share {row['self_share']:6.1%}"
                  f"  svd/call {row['svd_calls_per_call']:.1f}")
        print(f"tracing overhead: {overhead:+.1%} per call ({len(traced)} traced vs {len(plain)} untraced calls)")

    def rerun(call):
        rc, stdout, _ = invoke(cli, call.argv)
        return rc, stdout

    # attempted counts the timed calls; the warm-up call and a check's rerun
    # are not operations of the workload
    run_failures = workload.finish(rerun)
    for reason, count in sorted(failures.items()):
        print(f"FAILED {count} call(s): {reason}", file=sys.stderr)
    for failure in run_failures:
        print(f"FAILED check: {failure}", file=sys.stderr)
    report.update(correct=not run_failures, attempted=attempted, failed=sum(failures.values()),
                  failures=dict(failures), run_failures=run_failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    if args.trace == 0:
        report["extras"] = {k: {"value": v, "unit": u} for k, (v, u) in extras.items()}
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qkdkit" / "cli.py").is_file():
        print(f"error: no qkdkit sources under {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    outdir = HERE / "out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    try:
        report = run(args, workdir, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
