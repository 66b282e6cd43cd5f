"""riskprop benchmark: one workload per run, closed loop, one thread.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs the workload's fixed operations back to back, pass after
pass, until ``S`` seconds of passes have elapsed (always whole passes).
The outputs of the first pass are checked against the benchmark's own
reference computations; every later pass must reproduce them exactly.

With ``--trace 0`` the run reports the end-to-end metrics (see
``bench/README.md``); with ``--trace 1`` it wraps the package's layer
functions (``bench/tracer.py``) and reports per-layer calls and self time
instead, and writes its spans to ``bench/out/``.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

The package is imported from ``src/`` of the current directory and
nowhere else; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

SETUP_PROBES = 7
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10  # op_tail_ms leaves this many operations beyond it ...
TAIL_MIN_SAMPLES = 40  # ... in passes of at least this many operations
OUT_DIR = os.path.join("bench", "out")


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def import_package(root: str):
    """Import ``riskprop`` from ``<root>/src`` only."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        import riskprop
    except ImportError as exc:
        sys.exit(fail(f"cannot import riskprop from {src}: {exc}"))
    where = os.path.dirname(os.path.abspath(riskprop.__file__))
    if where != os.path.join(os.path.abspath(src), "riskprop"):
        sys.exit(fail(f"riskprop was imported from {where}, not from {src}"))
    import riskprop.cli  # noqa: F401  (the CLI workloads call it)

    return riskprop


def setup(workload: str, seed: int):
    """Everything a run does before its first timed operation, once the package is imported."""
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    wl.operations[0]()  # warm-up call
    return wl


def probe_setup(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter to the end of its set-up.

    The child prints ``time.perf_counter()`` when its warm-up call returns;
    the clock is system-wide, so the difference is the child's set-up time.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    child = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120)
    return float(child.stdout.split()[-1]) - start


def run_passes(wl, seconds: float, min_passes: int, tracer=None, between=None):
    """Run whole passes until they add up to ``seconds``; return timings, snapshots and problems.

    ``between`` runs after every pass, outside the timing.
    """
    passes, op_times, snapshots = [], [], []
    first = None
    problems: list[str] = []
    failed = 0
    while len(passes) < min_passes or sum(passes) < seconds:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        outputs, times = [], []
        pass_start = time.perf_counter()
        for i, op in enumerate(wl.operations):
            if tracer is not None:
                tracer.operation = len(passes) * len(wl.operations) + i
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # an operation that fails is counted, not fatal
                out = exc
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        passes.append(time.perf_counter() - pass_start)
        op_times.append(times)
        if tracer is not None:
            snapshots.append(tracer.snapshot())
        errors = [o for o in outputs if isinstance(o, Exception)]
        failed += len(errors)
        if first is None:
            first = outputs
            problems += [f"operation raised {e!r}" for e in errors[:5]]
            if not errors:
                try:
                    problems += wl.check(outputs)
                except Exception as exc:  # malformed output: report it, keep the result line
                    problems.append(f"checking the outputs raised {exc!r}")
        elif outputs != first:
            problems.append(f"pass {len(passes)} did not reproduce the first pass's outputs")
        if between is not None:
            between()
    return passes, op_times, snapshots, first, problems, failed


def tail(values: list[float]) -> float:
    """The highest order statistic with ten samples beyond it; the maximum below forty samples."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND] if n >= TAIL_MIN_SAMPLES else ordered[-1]


def op_medians(op_times: list[list[float]]) -> list[float]:
    """Each operation's median time over the passes.

    Slow stretches of a shared machine hit a few passes; taking every
    operation at its median keeps them out of the pass-level figures.
    """
    return [statistics.median(ts) for ts in zip(*op_times)]


def end_to_end(wl, op_times, setup_times) -> dict:
    per_op = op_medians(op_times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail(per_op) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(wl, snapshots, first_outputs) -> tuple[dict, list[str]]:
    import tracer as T

    steady = snapshots[1:]
    problems = []
    calls = [{k: v for k, v in s.items() if not k.endswith(".self_ms")} for s in steady]
    if any(c != calls[0] for c in calls):
        problems.append("call counts differ between traced passes")
    metrics = {}
    for name in T.metric_names():
        if name.endswith(".self_ms"):
            metrics[name] = (statistics.median(s[name] for s in steady), "ms")
        else:
            metrics[name] = (calls[-1][name], "count")
    metrics["certify._shrink.witness_states"] = (wl.witness_states(first_outputs), "count")
    return metrics, problems


def machine_facts() -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD commit of the current directory; ``none`` outside a repository or without git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        import_package(os.getcwd())
        setup(args.workload, args.seed)
        print(time.perf_counter(), flush=True)
        os._exit(0)  # skip interpreter teardown: set-up ends at the warm-up call

    root = os.getcwd()
    import_package(root)
    setup_times: list[float] = []

    def probe() -> None:
        # spread over the run, so that set-up is timed in the same machine state as the passes
        if not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup(args.workload, args.seed))

    probe()
    wl = setup(args.workload, args.seed)

    tracer = None
    if args.trace:
        import tracer as T

        tracer = T.Tracer()
        tracer.install()
    min_passes = MIN_TRACED_PASSES if args.trace else 1
    passes, op_times, snapshots, first, problems, failed = run_passes(
        wl, args.seconds, min_passes, tracer, probe
    )
    for _ in range(SETUP_PROBES):
        probe()

    if args.trace:
        metrics, more = per_layer(wl, snapshots, first)
        problems += more
        # untraced wall_s minus this is the tracing overhead
        print(f"# traced pass, operations at their medians: {sum(op_medians(op_times)):.4f} s")
    else:
        metrics = end_to_end(wl, op_times, setup_times)

    attempted = len(passes) * len(wl.operations)
    facts = machine_facts()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + ".trace.json", {"workload": args.workload, "seed": args.seed, **facts})

    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(wl.operations)} operations")
    for problem in problems[:20]:
        print(f"# PROBLEM {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(stem + ".result.json", "w") as fh:
        json.dump({**result, "machine": facts, "passes_s": passes,
                   "op_median_s": op_medians(op_times)}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
