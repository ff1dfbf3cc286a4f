"""The traced run: per-layer metrics, recorded from outside the program.

Spans are recorded by wrapping public functions and methods of homalg's
modules; every module's binding of a wrapped name is patched, because the
modules import each other's functions by name.  A span is (name, operation,
parent span, start, end), kept in memory and written to
``.bench_out/trace-<workload>-seed<seed>.json`` at the end.

The traced run makes its own passes over the first operations of the
workload's list (whole rounds, at least ten operations):

1. untimed warm-up, then an untraced pass, timed;
2. the same operations with spans on: layer times and counts;
3. the same operations under cProfile: self time in ``fractions.py``;

plus a checker-by-dimension table (n = 2..6) and interpreter and import
start-up probes.  The tracing overhead is pass 2 against pass 1.  The
cli-mix passes call ``homalg.cli.cli_main`` in-process so that the spans
see inside each command; process start-up is measured separately.

Times are inclusive (a span's time contains its callees) and are reported
per operation; a span nested in a span of the same name is not counted
twice.  Like the end-to-end figures, every time is scaled to the reference
machine speed by the Fraction-loop calibration timed around its operation
(see run.py); every pass here runs in-process, cli-mix's too.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import io
import json
import math
import os
import pstats
import random
import statistics
import subprocess
import sys
import time
import traceback

import homalg as H
import homalg.cli
from homalg import sampling

import run

TRACE_OPS = 10
SCALING_DIMS = (2, 3, 4, 5, 6)
SCALING_REPEATS = 3
STARTUP_PROBES = 5

# (module, attribute, span name): functions patched wherever they are bound
FUNCTIONS = (
    ("homalg.tensors", "phi_apply", "tensors.phi_apply"),
    ("homalg.coalgebra", "expand_outer_beta", "coalgebra.expand"),
    ("homalg.coalgebra", "expand_beta_outer", "coalgebra.expand"),
    ("homalg.coalgebra", "check_hom_coassociative", "coalgebra.coassoc"),
    ("homalg.coalgebra", "check_G_hom_coalgebra", "coalgebra.g_check"),
    ("homalg.coalgebra", "check_hom_lie_admissible", "coalgebra.lie_admissible"),
    ("homalg.coalgebra", "check_comodule", "coalgebra.comodule"),
    ("homalg.algebra", "check_hom_associative", "algebra.assoc"),
    ("homalg.algebra", "check_G_hom_associative", "algebra.g_check"),
    ("homalg.algebra", "check_module", "algebra.module"),
    ("homalg.bialgebra", "check_bialgebra_weak", "bialgebra.weak"),
    ("homalg.bialgebra", "check_bialgebra_strict", "bialgebra.strict"),
    ("homalg.bialgebra", "solve_antipode", "bialgebra.antipode"),
    ("homalg.bialgebra", "primitive_subspace", "bialgebra.primitives"),
    ("homalg.bialgebra", "generalized_primitive_subspace", "bialgebra.gprimitives"),
    ("homalg.linsolve", "linear_solve", "linsolve.solve"),
    ("homalg.polysolve", "buchberger", "polysolve.buchberger"),
    ("homalg.polysolve", "enumerate_rational_points", "polysolve.enumerate"),
    ("homalg.polysolve", "rational_roots", "polysolve.roots"),
    ("homalg.structio", "parse_structure_file", "structio.parse"),
    ("homalg.structio", "serialize_structure", "structio.serialize"),
)
# (class, method, span name)
METHODS = (
    (H.MulTensor, "apply", "tensors.mul_apply"),
    (H.ComulTensor, "apply", "tensors.comul_apply"),
    (H.DefectReport, "render", "reports.render"),
)

# metric name -> (span name, "ms" for inclusive time or "calls")
SPAN_METRICS = {
    "tensors.phi_apply_ms": ("tensors.phi_apply", "ms"),
    "tensors.phi_apply_calls": ("tensors.phi_apply", "calls"),
    "tensors.mul_apply_ms": ("tensors.mul_apply", "ms"),
    "tensors.comul_apply_ms": ("tensors.comul_apply", "ms"),
    "coalgebra.expand_ms": ("coalgebra.expand", "ms"),
    "coalgebra.coassoc_ms": ("coalgebra.coassoc", "ms"),
    "coalgebra.g_check_ms": ("coalgebra.g_check", "ms"),
    "coalgebra.lie_admissible_ms": ("coalgebra.lie_admissible", "ms"),
    "coalgebra.comodule_ms": ("coalgebra.comodule", "ms"),
    "algebra.assoc_ms": ("algebra.assoc", "ms"),
    "algebra.g_check_ms": ("algebra.g_check", "ms"),
    "algebra.module_ms": ("algebra.module", "ms"),
    "bialgebra.weak_ms": ("bialgebra.weak", "ms"),
    "bialgebra.strict_ms": ("bialgebra.strict", "ms"),
    "bialgebra.antipode_ms": ("bialgebra.antipode", "ms"),
    "bialgebra.primitives_ms": ("bialgebra.primitives", "ms"),
    "bialgebra.gprimitives_ms": ("bialgebra.gprimitives", "ms"),
    "linsolve.solve_ms": ("linsolve.solve", "ms"),
    "linsolve.calls": ("linsolve.solve", "calls"),
    "polysolve.buchberger_ms": ("polysolve.buchberger", "ms"),
    "polysolve.enumerate_ms": ("polysolve.enumerate", "ms"),
    "polysolve.roots_ms": ("polysolve.roots", "ms"),
    "reports.render_ms": ("reports.render", "ms"),
    "structio.parse_ms": ("structio.parse", "ms"),
    "structio.serialize_ms": ("structio.serialize", "ms"),
}
COUNTERS = ("polysolve.pairs_processed", "polysolve.basis_size",
            "reports.witnesses", "structio.bytes")
CHECKERS = ("hom_associative", "hom_coassociative", "hom_lie_admissible")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, op, parent, start, end]
        self.stack = []          # indices of open spans
        self.open_names = {}     # name -> how many spans of that name are open
        self.outermost = []      # per span: no open span of the same name around it
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = -1

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.outermost.append(not self.open_names.get(name))
        self.open_names[name] = self.open_names.get(name, 0) + 1
        self.stack.append(idx)
        span = [name, self.op, parent, time.perf_counter(), None]
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self.stack.pop()
            self.open_names[name] -= 1
        self._count(name, args, result)
        return result

    def _count(self, name, args, result):
        if name == "polysolve.buchberger":
            self.counts["polysolve.pairs_processed"] += result.pairs_processed
            self.counts["polysolve.basis_size"] += len(result.basis)
        elif name == "structio.parse":
            self.counts["structio.bytes"] += len(args[0].encode())
        elif name == "structio.serialize":
            self.counts["structio.bytes"] += len(result.encode())

    def totals(self, factors):
        """Inclusive ms per span name, each span scaled by its operation's
        speed factor, and call counts."""
        ms, calls = {}, {}
        for (name, op, _parent, t0, t1), outer in zip(self.spans, self.outermost):
            calls[name] = calls.get(name, 0) + 1
            if outer:
                ms[name] = ms.get(name, 0.0) + (t1 - t0) * 1000 * factors[op]
        return ms, calls

    def dump(self, path):
        spans = [{"name": n, "op": op, "parent": parent, "start": t0, "end": t1}
                 for n, op, parent, t0, t1 in self.spans]
        path.write_text(json.dumps({"spans": spans, "counts": self.counts}),
                        encoding="utf-8")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every wrapped name in every homalg module (and the benchmark's
    workloads module); restore all bindings on exit."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "homalg" or name.startswith("homalg.")
                                     or name == "workloads")]
    undo = []

    def wrapper(fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return traced

    try:
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            traced = wrapper(original, span)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, traced)
        for cls, attr, span in METHODS:
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, wrapper(original, span))

        original_init = H.DefectReport.__init__

        def init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            tracer.counts["reports.witnesses"] += len(self.witnesses)

        undo.append((H.DefectReport, "__init__", original_init))
        H.DefectReport.__init__ = init
        yield
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)


class InProcessCli:
    """cli-mix operations through cli_main in this process, so spans see
    inside each command.  An uncaught exception becomes exit code 1 with the
    traceback on stderr, as the interpreter would report it."""

    @staticmethod
    def run(op):
        from workloads import CliResult

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = homalg.cli.cli_main(list(op[1]))
            except Exception:
                traceback.print_exc(file=err)
                code = 1
        return CliResult(code, out.getvalue(), err.getvalue(), 0)


def _pass(runner, ops, tracer=None, profiler=None):
    """Outputs, per-operation speed factors (reference over current speed)
    and the pass's scaled seconds.  The calibration runs outside the
    profiler, whose fractions.py figure it would otherwise inflate."""
    outputs, factors, cal = [], [], [run.calibrate()]
    scaled = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if profiler is not None:
            profiler.enable()
        t = time.perf_counter()
        try:
            outputs.append(runner.run(op))
        except Exception as exc:
            outputs.append(exc)
        elapsed = time.perf_counter() - t
        if profiler is not None:
            profiler.disable()
        cal.append(run.calibrate())
        factors.append(2 * run.REF_CALIBRATION_S / (cal[-2] + cal[-1]))
        scaled += elapsed * factors[-1]
    return outputs, factors, scaled


def fraction_self_ms(runner, ops) -> float:
    prof = cProfile.Profile()
    _outputs, factors, _ = _pass(runner, ops, profiler=prof)
    stats = pstats.Stats(prof).stats
    tottime = sum(entry[2] for (filename, _line, _fn), entry in stats.items()
                  if filename.endswith("fractions.py"))
    return tottime * 1000 * statistics.mean(factors) / len(ops)


def scaling_table(seed: int):
    """checker -> {n: median ms} on one random structure per dimension."""
    out = {c: {} for c in CHECKERS}
    for n in SCALING_DIMS:
        rng = random.Random(seed * 100 + n)
        alg = H.HomAlgebra(sampling.random_mul_tensor(n, rng),
                           sampling.random_linear_map(n, rng))
        coalg = H.HomCoalgebra(sampling.random_comul_tensor(n, rng),
                               sampling.random_linear_map(n, rng))
        calls = {
            "hom_associative": lambda: H.check_hom_associative(alg),
            "hom_coassociative": lambda: H.check_hom_coassociative(coalg),
            "hom_lie_admissible": lambda: H.check_hom_lie_admissible(coalg),
        }
        for checker, call in calls.items():
            times = [run.scaled_call(call)[1] * 1000 for _ in range(SCALING_REPEATS)]
            out[checker][n] = statistics.median(times)
    return out


def _startup_ms(code: str, root) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    times = [run.scaled_call(lambda: subprocess.run([sys.executable, "-c", code], cwd=root,
                                                     env=env, check=True))[1] * 1000
             for _ in range(STARTUP_PROBES)]
    return statistics.median(times)


def traced_run(workload, args, workdir):
    root = run.ROOT
    n_ops = run.op_count(workload, args.seconds)
    k = workload.round_size * math.ceil(TRACE_OPS / workload.round_size)
    ops = workload.make_ops(args.seed, n_ops, workdir)[:k]
    runner = InProcessCli() if workload.name == "cli-mix" else workload

    runner.run(ops[0])
    _, _, untraced_s = _pass(runner, ops)
    tracer = Tracer()
    with installed(tracer):
        outputs, factors, traced_s = _pass(runner, ops, tracer)
    fraction_ms = fraction_self_ms(runner, ops)
    failures = run.verify(workload, ops, outputs)
    correct = run.summarize(workload, failures)
    scaling = scaling_table(args.seed)
    interp_ms = _startup_ms("pass", root)
    import_ms = _startup_ms("import homalg", root) - interp_ms
    tracer.dump(run.OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json")

    ms, calls = tracer.totals(factors)
    per_op = len(ops)
    values = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        source = ms if kind == "ms" else calls
        values[metric] = (source.get(span, 0), "ms" if kind == "ms" else "count")
    metrics = {name: {"value": v / per_op, "unit": unit} for name, (v, unit) in values.items()}
    for name in COUNTERS:
        metrics[name] = {"value": tracer.counts[name] / per_op,
                         "unit": "bytes" if name == "structio.bytes" else "count"}
    metrics["rational.fraction_self_ms"] = {"value": fraction_ms, "unit": "ms"}
    metrics["cli.interp_ms"] = {"value": interp_ms, "unit": "ms"}
    metrics["cli.import_ms"] = {"value": import_ms, "unit": "ms"}
    for checker, row in scaling.items():
        for n, v in row.items():
            metrics[f"checker.{checker}.n{n}_ms"] = {"value": v, "unit": "ms"}
    metrics["trace.untraced_ms_per_op"] = {"value": untraced_s * 1000 / per_op, "unit": "ms"}
    metrics["trace.traced_ms_per_op"] = {"value": traced_s * 1000 / per_op, "unit": "ms"}
    metrics["trace.overhead_pct"] = {"value": (traced_s / untraced_s - 1) * 100, "unit": "%"}

    print(f"{workload.name}: traced {per_op} operations, seed {args.seed}; "
          f"tracing overhead {metrics['trace.overhead_pct']['value']:.1f} %")
    print("\nchecker time by dimension, one random structure, median of "
          f"{SCALING_REPEATS} (ms):\n")
    print("| checker | " + " | ".join(f"n={n}" for n in SCALING_DIMS) + " |")
    print("|---" * (len(SCALING_DIMS) + 1) + "|")
    for checker, row in scaling.items():
        print(f"| `check_{checker}` | " + " | ".join(f"{row[n]:.1f}" for n in SCALING_DIMS)
              + " |")
    print()
    return {"correct": correct, "attempted": len(ops), "failed": len(failures),
            "metrics": metrics}
