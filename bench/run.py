"""btzgeo benchmark: three workloads, timed end to end and traced per module.

Usage, from the repository root:

    python3 bench/run.py --workload build_sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all

Workloads (workloads.py says why each exists): build_sweep, cauchy_trace and
demo.  The load is a closed loop with one client in this process: the next
op starts when the previous one has finished and been checked.

--trace 0 runs ops for --seconds and reports the end-to-end metrics.  Their
times are scaled to a reference machine speed that speed.py samples during
the run, because a shared host's speed drifts by up to 2x within minutes;
the unscaled wall times are in the details.
--trace 1 runs each op twice on the same input, untraced and then with spans
around the public functions of every btzgeo module (tracing.py); it reports
per-layer metrics per op and the tracing overhead (traced / untraced op
time), requires both runs of an op to write the same bytes, and saves the
spans under .bench_out/.

Every op's output is checked, and the run exits 1 if any check fails.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the details:
provenance, tail latency, failure ratio, trace shares and line counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("build_sweep", "cauchy_trace", "demo")
# The library's arrays hold at most a few thousand 3-vectors, so BLAS threads
# only add scheduling noise; one thread (at most nproc) keeps runs comparable.
BLAS_THREADS = {v: "1" for v in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
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
    return None


def line_counts() -> dict[str, int]:
    """Lines per module of src/btzgeo; informational, not gated."""
    counts = {p.stem: len(p.read_text().splitlines())
              for p in sorted((SRC / "btzgeo").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def tail(times: list[float]) -> dict:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above it."""
    n = len(times)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)  # nearest rank
        if n - rank >= TAIL_MIN_BEYOND:
            return {"percentile": pct, "value_ms": 1e3 * sorted(times)[rank - 1],
                    "samples": n, "beyond": n - rank}
    return {"percentile": None, "samples": n,
            "omitted": f"fewer than {TAIL_MIN_BEYOND} samples beyond p{TAIL_PERCENTILES[-1]:g}"}


def run_op(wl, inp, tracer=None, op: int = -1):
    """Run, time and check one op: (start, end, output digest, error).

    Only ``wl.run`` is inside the timed interval; with a tracer, the wrappers
    are installed around it and removed before the output check.
    """
    wl.prepare(inp)
    t0 = t1 = time.perf_counter()
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.run(inp)
                else:
                    with tracer.op_span(op):
                        out = wl.run(inp)
            finally:
                t1 = time.perf_counter()
        return t0, t1, wl.check(inp, out), None
    except Exception as exc:  # a raising or wrong op is a failed op, not a crash
        return t0, t1, None, f"{type(exc).__name__}: {exc}"


def measure(wl, seconds: float, tracer=None) -> list[dict]:
    """Closed loop over groups of ``wl.group`` ops for about ``seconds``: a
    group starts only if it is expected to end less than half a group after
    the deadline.  With a tracer, each op runs untraced and then traced on
    the same input, so both see the same machine state."""
    ops = []
    stream = wl.inputs()
    start = time.perf_counter()
    while True:
        if len(ops) % wl.group == 0:
            elapsed = time.perf_counter() - start
            group_s = elapsed / (len(ops) // wl.group) if ops else 0.0
            if ops and elapsed + 0.5 * group_s >= seconds:
                break
        key, inp = next(stream)
        op = {"key": key, "inp": inp}
        op["t0"], op["t1"], op["digest"], op["error"] = run_op(wl, inp)
        op["s"] = op["t1"] - op["t0"]
        if tracer is not None:
            t0, t1, op["traced_digest"], op["traced_error"] = run_op(wl, inp, tracer, len(ops))
            op["traced_s"] = t1 - t0
        ops.append(op)
    return ops


def check_ops(wl, ops: list[dict], seed: int) -> tuple[int, list[str]]:
    """Attempted count and failures, including a byte-identical replay of a
    seeded sample of ops and, when traced, traced against untraced bytes."""
    attempted = len(ops)
    problems = [f"op {i} {op['key']}: {op['error']}" for i, op in enumerate(ops) if op["error"]]
    for i, op in enumerate(ops):
        if "traced_s" not in op:
            continue
        attempted += 1
        if op["traced_error"]:
            problems.append(f"traced op {i} {op['key']}: {op['traced_error']}")
        elif op["traced_digest"] != op["digest"]:
            problems.append(f"traced op {i} {op['key']}: output bytes differ from untraced")
    for i in sorted(random.Random(seed).sample(range(len(ops)), min(wl.replay_samples, len(ops)))):
        attempted += 1
        why = "replay output differs"
        try:
            same = ops[i]["digest"] is not None and wl.replay(ops[i]["inp"]) == ops[i]["digest"]
        except Exception as exc:
            same, why = False, f"replay raised {type(exc).__name__}: {exc}"
        if not same:
            problems.append(f"op {i} {ops[i]['key']}: {why}")
    return attempted, problems


def end_to_end_metrics(ops: list[dict], setup_s: float, probe, details: dict) -> dict:
    """Times scaled to the reference machine speed (speed.py); raw ones go to details."""
    raw = [op["s"] for op in ops]
    scaled, kernel_s = zip(*(probe.scaled(op["t0"], op["t1"]) for op in ops))
    details["raw"] = {"ops_per_s": len(raw) / sum(raw),
                      "op_p50_ms": 1e3 * statistics.median(raw)}
    details["speed_kernel_ms"] = {"reference": 1e3 * probe.reference_s,
                                  "median": 1e3 * statistics.median(kernel_s),
                                  "samples": len(probe.kernel_s)}
    details["op_tail_ms"] = tail(scaled)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def trace_metrics(tracer, ops: list[dict], name: str, seed: int, details: dict) -> dict:
    n = len(ops)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.per_op_metrics(n).items()}
    traced_s = sum(op["traced_s"] for op in ops)
    untraced_s = sum(op["s"] for op in ops)
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    self_ms = {k: 1e3 * s / n for k, s in tracer.self_s.items()}
    layer_ms = {k[len("layer."):-len(".self_ms")]: v["value"]
                for k, v in metrics.items() if k.startswith("layer.")}
    total = sum(layer_ms.values())
    span_file = OUT / f"spans-{name}-seed{seed}.npz"
    OUT.mkdir(exist_ok=True)
    tracer.save(span_file)
    details.update({
        "trace_overhead": {"traced_s": traced_s, "untraced_s": untraced_s, "ops": n},
        "spans": len(tracer.span_start),
        "span_file": str(span_file.relative_to(ROOT)),
        "top_self_ms": dict(sorted(self_ms.items(), key=lambda kv: -kv[1])[:8]),
        "layer_self_share": {k: v / total for k, v in layer_ms.items()},
        "layer_inclusive_share": tracer.inclusive_share(),
    })
    return metrics


def print_report(name, seed, n, result, details) -> None:
    print(f"{name}: {n} ops, {result['failed']} failed of {result['attempted']} "
          f"attempted, seed {seed}")
    for key, m in result["metrics"].items():
        print(f"  {key:<56} {m['value']:.6g} {m['unit']}")
    t = details.get("op_tail_ms", {"percentile": None})
    if t["percentile"] is not None:
        print(f"  {'op_tail_ms (p' + format(t['percentile'], 'g') + ')':<56} "
              f"{t['value_ms']:.6g} ms ({t['beyond']} of {t['samples']} ops beyond)")
    if "top_self_ms" in details:
        top = next(iter(details["top_self_ms"]))
        print(f"  largest self time: {top}")
        for kind in ("self", "inclusive"):
            shares = details[f"layer_{kind}_share"]
            print(f"  layer {kind} share: " + ", ".join(
                f"{k} {v:.1%}" for k, v in shares.items() if v >= 0.001))
    for p in details["problems"]:
        print(f"  FAILED {p}")
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))


def run_workload(args) -> int:
    if not (SRC / "btzgeo" / "__init__.py").is_file():
        print(f"btzgeo sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import btzgeo
    import speed
    import tracing
    import workloads
    import_s = time.perf_counter() - t0
    import_kernel_s = speed.kernel()
    if Path(btzgeo.__file__).resolve().parent != (SRC / "btzgeo").resolve():
        print(f"imported btzgeo from {btzgeo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Spans would count the probe's samples as library time, so a traced
    # run reports unscaled times only.
    tracer = tracing.Tracer() if args.trace else None
    probe = speed.SpeedProbe()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        with contextlib.nullcontext() if tracer else probe:
            setup_runs = []
            for _ in range(SETUP_REPEATS):
                wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
                t0 = time.perf_counter()
                wl.setup()
                setup_runs.append((t0, time.perf_counter()))
            gc.collect()
            ops = measure(wl, args.seconds, tracer)
        attempted, problems = check_ops(wl, ops, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "workload": args.workload,
        "provenance": {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "load": "closed loop, 1 client, 1 process",
        },
        "samples": {"setup_s": SETUP_REPEATS, "ops_per_s": len(ops), "op_p50_ms": len(ops)},
        "import_s": import_s,
        "setup_runs_raw_s": [t1 - t0 for t0, t1 in setup_runs],
        "failed_op_ratio": {"failed": len(problems), "attempted": attempted,
                            "value": len(problems) / attempted},
        "problems": problems[:20],
        "src_btzgeo_lines": line_counts(),
    }
    if tracer is None:
        setup_s = (import_s * speed.REFERENCE_S / import_kernel_s
                   + statistics.median(probe.scaled(*run)[0] for run in setup_runs))
        metrics = end_to_end_metrics(ops, setup_s, probe, details)
    else:
        metrics = trace_metrics(tracer, ops, args.workload, args.seed, details)
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems),
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=2, default=str) + "\n")
    print_report(args.workload, args.seed, len(ops), result, details)
    return 0 if not problems else 1


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
