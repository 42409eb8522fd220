"""Run one benchmark workload against the embreg library in ``src/``.

    python3 bench/run.py --workload sweep_train [--seed 0] [--seconds 35] [--trace 0]

With ``--trace 0`` the run measures the end-to-end metrics with no tracing:
it repeats whole passes of the workload until another pass would overrun
``--seconds`` (at least one pass), reports the median throughput over the
passes, and times set-up in fresh processes before and after the passes.
With ``--trace 1`` it runs one traced pass and then one untraced pass, and
reports the per-layer metrics of the traced pass and the tracing overhead as
the ratio of their wall times. The first pass in a process is slower (about
7% on remote_rerun), so the ratio is an upper bound on the overhead.

Every run checks its outputs. It prints a report, then as its last line one
JSON object with the keys correct, attempted, failed and metrics. It exits 1
when a check fails and 2 when the embreg sources are missing. Scratch files,
the result file and the span log go to ``.bench_out/`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from spans import Tracer, totals_by_name
from stats import failed_frac, tail
from workloads import DEFAULT_SEED, WORKLOADS, CheckFailed, check, prepare, run_pass

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Set-up probes before the timed passes, and as many again after them, so
#: that the median spans two moments of a host whose speed drifts.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
TOP_SPANS = 6


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def machine_block() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas = {}
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    return {
        "nproc": nproc(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines,
    }


def setup_probe(args) -> int:
    """Do exactly the set-up a run does, say so, tear down and exit."""
    p = prepare(WORKLOADS[args.workload], args.seed, nproc(), OUT / f"probe-{os.getpid()}")
    print("ready", flush=True)
    p.close()
    return 0


def time_setup(args, probes: int) -> list[float]:
    """Seconds from process start to the first cell being due, per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            took = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(took)
    return times


def end_to_end(workload, passes, setup_times, attempted, frac) -> tuple[dict, dict]:
    runs = [r for ps in passes for r in ps]
    rates = [sum(len(r.cells) for r in ps) / sum(r.wall_s for r in ps) for ps in passes]
    studied = [c["elapsed_s"] for c in workload.studied_cells(runs)]
    tail_pct, tail_s = tail(studied)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cells_per_s": (statistics.median(rates), "1/s"),
        "cell_p50_s": (statistics.median(studied), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "setup_samples_s": setup_times,
        "cells": sum(len(r.cells) for r in runs),
        "pass_cells_per_s": rates,
        "studied_cells": len(studied),
        "studied_tail": {"pct": tail_pct, "value_s": tail_s},
        "failed_frac": frac,
        "failed_frac_base": attempted,
    }
    warm = [r for r in runs if r.label == "warm"]
    if warm:
        detail["warm_cells_per_s"] = sum(len(r.cells) for r in warm) / sum(r.wall_s for r in warm)
        detail["warm_cells"] = sum(len(r.cells) for r in warm)
        detail["cold_requests"] = [r.requests_ok for r in runs if r.label == "cold"]
        detail["warm_requests"] = [r.requests_ok for r in warm]
    return metrics, detail


def per_layer(tracer, traced, untraced_wall, workers) -> tuple[dict, dict]:
    wall = sum(r.wall_s for r in traced)
    metrics = layers.metrics(
        totals_by_name(tracer.spans),
        tracer.counts,
        wall,
        workers,
        requests=sum(r.requests_ok for r in traced),
        attempts=sum(r.request_attempts for r in traced),
    )
    metrics["trace.overhead_ratio"] = (wall / untraced_wall, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": wall}
    for r in traced:
        spans = layers.spans_between(tracer.spans, r.start, r.start + r.wall_s)
        top = sorted(totals_by_name(spans).items(), key=lambda kv: -kv[1][2])[:TOP_SPANS]
        detail[r.label] = {
            "wall_s": r.wall_s,
            "layer_self_share": layers.self_time_shares(spans),
            "top_self_s": {name: self_s for name, (_, _, self_s) in top},
        }
    return metrics, detail


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    setup_times = time_setup(args, SETUP_PROBES) if args.trace == 0 else []
    scratch = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    tracer, watch, clients = Tracer(), Tracer(), []
    p = None
    try:
        p = prepare(workload, args.seed, nproc(), scratch)
        if workload.remote:
            layers.watch_clients(watch, clients)
        passes = []
        if args.trace == 0:
            deadline = time.perf_counter() + args.seconds
            while True:
                start = time.perf_counter()
                passes.append(run_pass(p, len(passes), clients))
                now = time.perf_counter()
                if now + (now - start) > deadline:
                    break
        else:
            # Traced first, so the traced pass is a first pass in its process
            # like the one an untraced run measures.
            layers.install(tracer)
            passes.append(run_pass(p, 0, clients))
            tracer.restore()
            passes.append(run_pass(p, 1, clients))
        runs = [r for ps in passes for r in ps]
        attempted, failed, frac = failed_frac(
            cells=sum(len(r.cells) for r in runs),
            failed_cells=sum(c.get("status") != "ok" for r in runs for c in r.cells),
            request_attempts=sum(r.request_attempts for r in runs),
            requests_ok=sum(r.requests_ok for r in runs),
        )
        try:
            check(p, passes)
            error = None
        except CheckFailed as e:
            error = str(e)
    finally:
        tracer.restore()
        watch.restore()
        if p is not None:
            p.close()
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace == 0:
        setup_times += time_setup(args, SETUP_PROBES)
        metrics, detail = end_to_end(workload, passes, setup_times, attempted, frac)
    else:
        metrics, detail = per_layer(
            tracer, passes[0], sum(r.wall_s for r in passes[1]), workload.workers(nproc())
        )
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    detail.update(pass_wall_s=[sum(r.wall_s for r in ps) for ps in passes], shape=workload.shape)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_block(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "check": error or "ok",
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {workload.shape}")
    print("machine " + json.dumps(result["machine"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    print("detail " + json.dumps(detail))
    print(f"check: {error or 'ok'}")
    print(json.dumps({
        "correct": error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0 if error is None else 1


def main(argv=None) -> int:
    if not (SRC / "embreg" / "__init__.py").is_file():
        print(f"error: embreg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
