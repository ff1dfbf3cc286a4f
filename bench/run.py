#!/usr/bin/env python3
"""homalg benchmark: one command, three workloads.

    python3 bench/run.py --workload decide-dense --seed 1 --seconds 20 --trace 0

Run from the root of a homalg checkout; the program is imported from
``src/``.  Every workload is a closed loop with one caller: a fixed list of
operations, made from ``--seed``, runs one after another.  ``--seconds``
sets the length of that list through each workload's nominal operation
time, but a run always makes at least 100 operations (so the 90th
percentile has ten samples beyond it) in whole rounds of the workload's
operation mix.  Outputs are checked after the timed phase.

Times are reported at a fixed reference machine speed.  The machines this
runs on change speed by up to 1.8x for tens of seconds at a time (CPU time
follows wall time), which moved raw figures of identical code by a third
between runs.  So a fixed calibration task, which no change to homalg can
touch, is timed before and after every operation, and each latency is
scaled by the task's reference time over the mean of the two calibration
times around it.  The in-process workloads calibrate with a stdlib
Fraction loop; cli-mix, whose operations are mostly process start-up,
with a bare `python3 -I -c pass`.  Raw figures are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_OPS = 100
SETUP_PROBES = 4   # half before the timed phase, half after it
WORKLOAD_NAMES = ("decide-dense", "solve-extension", "cli-mix")


def _fraction_pass():
    a, s = Fraction(1, 3), Fraction(0)
    for i in range(400):
        s += a * Fraction(i, 7)
    return s


def calibrate() -> float:
    """Seconds a fixed stdlib Fraction loop takes right now (best of three)."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        _fraction_pass()
        best = min(best, time.perf_counter() - t)
    return best


def calibrate_interpreter() -> float:
    """Seconds a bare isolated interpreter takes to start and exit right now."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)
    return time.perf_counter() - t


# calibration name -> (function, its seconds at the reference speed, about
# this machine's slower state)
CALIBRATIONS = {
    "fraction": (calibrate, 0.0024),
    "interpreter": (calibrate_interpreter, 0.065),
}
REF_CALIBRATION_S = CALIBRATIONS["fraction"][1]


def scaled_call(fn):
    """fn's result and its duration in seconds at the reference speed."""
    before = calibrate()
    t = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t
    return result, elapsed * 2 * REF_CALIBRATION_S / (before + calibrate())


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    return args


def op_count(workload, seconds: int) -> int:
    """Whole rounds, at least MIN_OPS operations, about `seconds` long."""
    wanted = max(MIN_OPS, math.ceil(seconds / workload.nominal_op_s))
    return workload.round_size * math.ceil(wanted / workload.round_size)


def setup(workload, seed: int, n_ops: int, workdir: Path):
    """Input generation and one warm-up operation."""
    ops = workload.make_ops(seed, n_ops, workdir)
    workload.run(ops[0])
    return ops


def measure_setup(args) -> float:
    """Seconds from starting a fresh interpreter until it is ready to time
    its first operation (import, input generation, warm-up), scaled to the
    reference speed by interpreter start-ups timed just before and after:
    set-up is mostly start-up, import and plain Python, which the machine's
    slow state slows about as much as a bare start-up and less than a
    Fraction loop."""
    before = calibrate_interpreter()
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed * 2 * CALIBRATIONS["interpreter"][1] / (before + calibrate_interpreter())


def verify(workload, ops, outputs):
    """(kind, reason) for every operation whose output is rejected."""
    failures = []
    for op, out in zip(ops, outputs):
        kind = op[0] if isinstance(op[0], str) else workload.name
        if isinstance(out, BaseException):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            reason = workload.check(op, out)
        if reason:
            failures.append((kind, reason))
    return failures


def summarize(workload, failures):
    """Print failures; the run is correct when only known faults failed."""
    known = getattr(workload, "KNOWN_FAULTS", ())
    for kind, reason in failures[:20]:
        tag = "known fault" if kind in known else "FAILED"
        print(f"  {tag}: {kind}: {reason}")
    return all(kind in known for kind, _ in failures)


def timed_run(workload, args, workdir: Path):
    # set-up is timed in fresh interpreters, some before and some after the
    # timed phase, so that its median spans more than one phase of the machine
    setups = [measure_setup(args) for _ in range(SETUP_PROBES // 2)]
    ops = setup(workload, args.seed, op_count(workload, args.seconds), workdir)

    calibrate_now, ref = CALIBRATIONS[workload.calibration]
    latencies, outputs, cal = [], [], [calibrate_now()]
    for op in ops:
        t = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:  # a raising operation is a failed operation
            out = exc
        latencies.append(time.perf_counter() - t)
        outputs.append(out)
        cal.append(calibrate_now())

    if workload.name == "cli-mix":
        peak_kb = max(o.maxrss_kb for o in outputs if not isinstance(o, BaseException))
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures = verify(workload, ops, outputs)
    correct = summarize(workload, failures)
    setups += [measure_setup(args) for _ in range(SETUP_PROBES - len(setups))]

    raw_ms = [x * 1000 for x in latencies]
    ms = [x * ref / ((c0 + c1) / 2) for x, c0, c1 in zip(raw_ms, cal, cal[1:])]
    raw = {
        "ops_per_s": len(ops) / sum(latencies),
        "op_p50_ms": statistics.median(raw_ms),
        "op_p90_ms": statistics.quantiles(raw_ms, n=10)[8],
    }
    metrics = {
        "ops_per_s": {"value": len(ops) * 1000 / sum(ms), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }
    print(f"{workload.name}: seed {args.seed}, {len(ops)} operations, "
          f"{len(failures)} failed; calibration median {statistics.median(cal) * 1000:.2f} ms "
          f"(reference {ref * 1000:.2f} ms); raw "
          + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    return {"correct": correct, "attempted": len(ops), "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "homalg" / "__init__.py").is_file():
        print(f"error: no homalg package under {SRC}; run from a homalg checkout",
              file=sys.stderr)
        return 1
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup(workload, args.seed, op_count(workload, args.seconds), workdir)
            print("ready", flush=True)
            return 0
        if args.trace:
            import tracing

            result = tracing.traced_run(workload, args, workdir)
        else:
            result = timed_run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
