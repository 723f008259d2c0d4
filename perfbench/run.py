#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload profile-long --seed 1 \
        --seconds 25 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` next to this directory; nothing is installed or built.

``--trace 0`` prints the end-to-end metrics: set-up time (the median of
three set-ups, two of them in child processes), then a closed loop of
ops for ``--seconds`` seconds.  Host times are scaled to a reference
host speed by the calibration kernel of ``calibrate.py``, timed around
each set-up and between ops.  ``--trace 1`` prints the per-layer
metrics instead: blocks of ops alternate between untraced and traced
by the layer wrappers of ``spans.py``, and the spans go to one file
under ``perfbench/out/spans/``.  Either way every op's outputs are checked
after the loop, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Environment knobs that would change what is measured: the engine
#: override, the trace tier's tuning and disk code cache, and the old
#: benchmark harness's scale and fan-out.
CLEARED = ("REPRO_ENGINE",)
CLEARED_PREFIXES = ("REPRO_TRACE_", "REPRO_CODE_CACHE", "REPRO_BENCH_")

SETUP_REPEATS = 3
#: Loop time between two calibration kernels (``--trace 0``): about 70
#: kernels in a 25 s run, 10% of its time.
CALIBRATE_EVERY_S = 0.3
#: Standard tail percentiles.  Each workload fixes one of them as its
#: ``tail_percentile``: the highest with at least ``TAIL_BEYOND``
#: samples beyond it at the op count a run reaches on the reference
#: machine.  A fixed percentile keeps runs of different speed
#: comparable; a run too short for it steps down and says so.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed child)."""


def hermetic_environ() -> list:
    """Drop the knobs listed above from this process's environment."""
    removed = sorted(
        key
        for key in os.environ
        if key in CLEARED or key.startswith(CLEARED_PREFIXES)
    )
    for key in removed:
        del os.environ[key]
    return removed


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"repro was imported from {where}, not from {SRC}")
    return repro


def timed_setup(name: str, seed: int, scratch: str, recorder=None):
    """Imports, program generation, store population and warm-up."""
    start = time.perf_counter()
    import_repro()
    import workloads

    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; options: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed, scratch)
    if recorder is not None:
        import spans

        spans.install(recorder)
        recorder.op = "setup"
        recorder.enabled = True
    workload.setup()
    # The generated pool is the benchmark's input, not the profiler's
    # state: keep the collector from re-scanning it on every pass.
    gc.collect()
    gc.freeze()
    if recorder is not None:
        recorder.enabled = False
        recorder.uninstall()
        recorder.counts.clear()
        recorder.known_runs.clear()
    return workload, time.perf_counter() - start


def scaled_setup_seconds(raw_s: float, before: list) -> float:
    """A set-up time scaled by kernels timed right before and after it."""
    return raw_s * calibrate.scale(before + calibrate.setup_samples())


def child_setup_seconds(args) -> float:
    """Scaled set-up time of one fresh process (imports included)."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"set-up child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def closed_loop(workload, seconds: float, recorder=None, kernels=None):
    """Issue ops back to back until ``seconds`` have passed.

    With a ``recorder``, blocks of ``workload.block`` ops alternate
    between untraced and traced, so both halves see the same mix of
    ops and the same drift in host speed.  With a ``kernels`` list, the
    calibration kernel runs before the first op and then between ops
    every ``CALIBRATE_EVERY_S``; each run appends (index of the next
    op, kernel time) there.
    Returns the records, the latencies and which ops were traced.
    """
    records, latencies, traced = [], [], []
    i = 0
    start = time.perf_counter()
    calibrated = start - CALIBRATE_EVERY_S
    while True:
        if kernels is not None and time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            kernels.append((i, calibrate.kernel()))
            calibrated = time.perf_counter()
        tracing = recorder is not None and (i // workload.block) % 2 == 1
        began = time.perf_counter()
        try:
            if tracing:
                recorder.enabled = True
                record = recorder.run_op(i, lambda: workload.op(i))
            else:
                record = workload.op(i)
        except Exception:  # a failed op is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            record = None
        finally:
            if recorder is not None:
                recorder.enabled = False
        ended = time.perf_counter()
        latencies.append(ended - began)
        records.append(record)
        traced.append(tracing)
        i += 1
        # The loop ends on a block boundary, so every run's ops hold the
        # workload's mix of programs and modes in whole blocks.  A traced
        # run finishes at least one untraced and one traced block.
        if (
            ended - start >= seconds
            and i % workload.block == 0
            and (recorder is None or i >= 2 * workload.block)
        ):
            return records, latencies, traced


def tail_latency(latencies, percentile: float):
    """(percentile, value, samples beyond) by the nearest-rank rule.

    Steps down from ``percentile`` until ``TAIL_BEYOND`` samples lie
    beyond it (down to the median).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    candidates = [p for p in TAIL_PERCENTILES if p <= percentile]
    for p in reversed(candidates):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= TAIL_BEYOND or p == candidates[0]:
            return p, ordered[rank - 1], n - rank


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for folder, dirs, files in sorted(os.walk(base)):
            dirs[:] = sorted(d for d in dirs if d not in ("out", "__pycache__"))
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or ``None`` when it is not a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # a repository that merely encloses the checkout
    return lines[1]


def verify(workload, records, code: str) -> int:
    """Count failed ops: raised, wrong outputs, or unstable counters.

    A counter digest must repeat for every op with the same key in this
    run, and across runs of the same seed on the same code (kept under
    ``perfbench/out/digests``).
    """
    path = os.path.join(OUT, "digests", f"{workload.name}-{workload.seed}.json")
    known = {}
    if os.path.exists(path):
        with open(path) as handle:
            saved = json.load(handle)
        if saved.get("code") == code:
            known = saved["ops"]
    failed = 0
    for record in records:
        if record is None:
            failed += 1
            continue
        try:
            ok = workload.check(record)
        except Exception:  # the reference interpreter refused or failed
            traceback.print_exc(file=sys.stderr)
            ok = False
        if known.setdefault(record["key"], record["digest"]) != record["digest"]:
            print(f"counter digest changed for op key {record['key']}", file=sys.stderr)
            ok = False
        failed += not ok
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"code": code, "ops": known}, handle, sort_keys=True)
    return failed


def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, files in os.walk(root)
        for name in files
    )


def end_to_end(args, workload, setup_s):
    """The untraced run: set-up samples, then the timed loop.

    Each op latency is scaled by the calibration kernels around it, each
    set-up time by the kernels around that set-up; the raw values go to
    ``details``.
    """
    samples = [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    samples.append(setup_s)
    kernels = []
    records, latencies, _traced = closed_loop(workload, args.seconds, kernels=kernels)
    scaled = [
        t * f for t, f in zip(latencies, calibrate.local_scales(kernels, len(latencies)))
    ]
    percentile, tail, beyond = tail_latency(scaled, workload.tail_percentile)
    _p, raw_tail, _b = tail_latency(latencies, workload.tail_percentile)
    raw = {
        "ops_per_s": len(records) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": raw_tail * 1e3,
    }
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "ops_per_s": (len(records) / sum(scaled), "ops/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    sims = workload.sim_metrics(records)
    metrics.update({name: (value, "x") for name, value in sorted(sims.items())})
    details = {
        "setup_samples_s": samples,
        "op_tail": {"percentile": percentile, "samples": len(latencies), "beyond": beyond},
        "calibration": {
            "kernels": len(kernels),
            "kernel_median_s": statistics.median(t for _i, t in kernels),
            "raw": raw,
        },
    }
    return records, metrics, details


def per_layer(args, workload, recorder):
    """The traced run: alternate untraced and traced blocks of ops."""
    import spans

    spans.install(recorder)
    store = getattr(workload, "store", None)
    if store is not None:
        recorder.known_runs.update(entry["run"] for entry in store.entries())
        bytes_before = tree_bytes(workload.store_root)
    try:
        records, latencies, traced = closed_loop(workload, args.seconds, recorder)
    finally:
        recorder.uninstall()
    traced_s = sum(t for t, on in zip(latencies, traced) if on)
    plain_s = sum(t for t, on in zip(latencies, traced) if not on)
    n_traced = sum(traced)
    metrics = recorder.layer_metrics(traced_s)
    metrics.update(spans.extras(recorder))
    if store is not None:
        added = tree_bytes(workload.store_root) - bytes_before
        metrics["store.save.bytes"] = (
            added / max(1, recorder.counts["store.all_saves"]), "bytes/save"
        )
        metrics["store.index_rows"] = (len(store.entries()), "count")
    else:
        metrics["store.save.bytes"] = (0, "bytes/save")
        metrics["store.index_rows"] = (0, "count")
    metrics["trace.overhead_ratio"] = (
        ((len(records) - n_traced) / plain_s) / (n_traced / traced_s), "ratio"
    )
    details = {"untraced_ops": len(records) - n_traced, "traced_ops": n_traced}
    return records, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cleared = hermetic_environ()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(OUT, "tmp"))
    try:
        return run(args, scratch, cleared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, scratch, cleared) -> int:
    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
    before = calibrate.setup_samples()
    workload, raw_setup_s = timed_setup(args.workload, args.seed, scratch, recorder)
    setup_s = scaled_setup_seconds(raw_setup_s, before)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        records, metrics, details = per_layer(args, workload, recorder)
    else:
        records, metrics, details = end_to_end(args, workload, setup_s)
    code = source_digest()
    failed = verify(workload, records, code)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_digest": code,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "engine": workload.engine,
        "cleared_environment": cleared,
    }
    metrics_json = {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }
    summary = {
        "provenance": provenance,
        "details": details,
        "failed_ops_share": failed / len(records),
        "metrics": metrics_json,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(summary, sort_keys=True) + "\n")
    if args.trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        span_path = os.path.join(
            OUT, "spans",
            f"{args.workload}-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.jsonl",
        )
        recorder.write(span_path, summary)
        print(f"spans: {os.path.relpath(span_path, ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"{'failed_ops_share':44s} {failed / len(records):14.6g} ratio")
    print(json.dumps({"provenance": provenance, "details": details}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": metrics_json,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
