"""Benchmark of fock_toeplitz: three workloads, end-to-end or per-layer metrics.

Run from the root of a checkout (the directory holding ``src/``):

    python3 bench/run.py --workload quad-certify --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client.  The run repeats whole
rounds of seeded jobs until the timed rounds add up to ``--seconds`` and at
least the workload's ``min_rounds`` have run, so that its tail percentile
always has ten samples beyond it.  The worst error is taken over the first
``min_rounds`` rounds, which every run completes.  The clock runs only while
a round's jobs run.  Before it starts, garbage is collected and the survivors are frozen;
after it stops, the round's outputs are checked against independent
references.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics of a run with the span tracer
installed with ``--trace 1``.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads here and inherited by children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("quad-certify", "closed-calculus", "cli-oneshot")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3


def tail(latencies: list[float], percentile: float) -> float:
    """The workload's tail percentile (nearest rank); ``min_rounds`` leaves
    at least ten samples beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    assert len(ordered) - rank >= 10, "too few samples beyond the tail percentile"
    return ordered[rank - 1]


def setup_samples(workload: str, env: dict) -> list[float]:
    """Set-up cost measured in fresh interpreters, SETUP_SAMPLES times.

    In-process workloads: import of fock_toeplitz plus the warm-up call,
    timed inside the child.  cli-oneshot: the wall time of the cheapest
    CLI call, from spawn to exit, which is what a user waits for the first
    result.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        if workload == "cli-oneshot":
            cmd = [sys.executable, "-m", "fock_toeplitz.cli", "classify", "--theta", "1+1i"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, env=env, timeout=150)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
            samples.append(elapsed)
        else:
            cmd = [sys.executable, os.path.join(BENCH, "child.py"), "setup", workload]
            proc = subprocess.run(cmd, capture_output=True, env=env, timeout=150, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
            samples.append(float(proc.stdout.split()[-1]))
    return samples


def import_times(env: dict) -> list[dict]:
    """Cumulative import times from ``python -X importtime``, IMPORT_SAMPLES runs."""
    from spans import parse_importtime

    runs = []
    for _ in range(IMPORT_SAMPLES):
        cmd = [sys.executable, "-X", "importtime", "-c", "import fock_toeplitz.cli"]
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=150, text=True)
        runs.append(parse_importtime(proc.stderr)[0])
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fock_toeplitz", "__init__.py")):
        print(f"error: no fock_toeplitz package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ, PYTHONPATH=SRC)

    setup = [] if args.trace else setup_samples(args.workload, env)

    import workloads as wl  # numpy, mpmath and the package load here
    from spans import Tracer, median_imports, merge, per_layer_metrics

    if not os.path.samefile(os.path.dirname(wl.ft.__file__), os.path.join(SRC, "fock_toeplitz")):
        print(f"error: fock_toeplitz was imported from {wl.ft.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "cli-oneshot":
        workload = wl.CliOneshot(args.seed, SRC, BENCH, traced=bool(args.trace))
    else:
        workload = (wl.QuadCertify if args.workload == "quad-certify" else wl.ClosedCalculus)(args.seed)
        from child import warm_up

        warm_up(args.workload)

    tracer = None
    if args.trace and args.workload != "cli-oneshot":
        tracer = Tracer()
        tracer.install()
    agg = {"calls": {}, "total_s": {}, "self_s": {}, "counts": {}}
    child_spans: list = []
    cli_imports: list[dict] = []
    stdout_bytes = 0

    latencies: list[float] = []
    attempted = failed = 0
    busy = 0.0
    worst = 0.0  # worst mixed error over the first min_rounds rounds
    k = 0
    while busy < args.seconds or k < workload.min_rounds:
        jobs = workload.round(k)
        outputs = []
        # Collect, then freeze what survives (modules, references, past rounds)
        # so that collections the round triggers walk only the round's objects.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            try:
                out = job.call()
            except Exception as exc:  # a failed operation is counted, the run goes on
                out = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        busy += time.perf_counter() - start
        gc.unfreeze()

        for job, out in zip(jobs, outputs):
            attempted += 1
            try:
                if isinstance(out, Exception):
                    raise out
                error = workload.check(job, out, outputs)
                if k < workload.min_rounds:
                    worst = max(worst, error)
            except Exception as exc:  # the program raised, or a check failed
                failed += 1
                if failed <= 5:
                    print(f"FAILED round {k} {job.kind}: {exc!r}", file=sys.stderr)
                    if not isinstance(exc, wl.CheckFailed):
                        traceback.print_exception(exc, file=sys.stderr)
            if isinstance(out, wl.CliResult):
                stdout_bytes += len(out.stdout)
                if out.trace is not None:
                    spans = out.trace.pop("spans")
                    merge(agg, out.trace)
                    if k == 0:
                        child_spans.append({"call": job.spec["argv"], "spans": spans})
                if out.imports is not None:
                    cli_imports.append(out.imports)
        k += 1

    completed = attempted - failed
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}.jsonl")
        if tracer is not None:
            tracer.uninstall()
            merge(agg, tracer.aggregates())
            tracer.write_spans(trace_path)
            cli_imports = import_times(env)
        else:
            with open(trace_path, "w", encoding="utf-8") as fh:
                for entry in child_spans:
                    fh.write(json.dumps(entry) + "\n")
        imports = median_imports(cli_imports)
        metrics = per_layer_metrics(agg, completed, imports, {"stdout_bytes": stdout_bytes})
    else:
        if args.workload == "cli-oneshot":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tail_s = tail(latencies, workload.tail_percentile)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "jobs_per_s": {"value": completed / busy, "unit": "1/s"},
            "job_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "job_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "worst_err_digits": {"value": min(16.0, -math.log10(max(worst, 1e-16))), "unit": "digits"},
        }
        print(
            f"{args.workload}: {k} rounds, {attempted} jobs in {busy:.2f} s timed, "
            f"tail = p{workload.tail_percentile:g} of {len(latencies)} samples, worst error {worst:.3e}",
            file=sys.stderr,
        )
    if args.trace:
        print(f"{args.workload} traced: {completed / busy:.4f} jobs/s over {k} rounds", file=sys.stderr)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
