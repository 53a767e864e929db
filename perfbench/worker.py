"""One benchmark process: set-up, then a timed window or a traced run.

Started by run.py in a fresh interpreter with the checkout's src/ on
PYTHONPATH.  It prints one JSON object as its last stdout line.

Modes:
  --setup-only   import, generate, warm up, report setup_s, exit
  (default)      the above, then the timed closed loop for --seconds
  --trace        an untraced pass over the first cycle, then untraced and
                 traced passes in turn over the same inputs until --seconds
                 have passed
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback


# The tail percentile is fixed: chosen per run, it would rise as ops get
# faster, so a faster program could report a worse tail.  At the seed commit
# every workload has at least 10 ops beyond p75 in a run.
TAIL_PERCENTILE = 75


def percentile(values, pct: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def digest(objs) -> str:
    text = json.dumps(objs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Generation:
    """Times the benchmark's own input generation, which set-up excludes."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, make, *args):
        start = time.monotonic()
        try:
            return make(*args)
        finally:
            self.seconds += time.monotonic() - start


def run_ops(inputs, run, tracer=None):
    """Runs the ops one after another; returns (latencies, outputs).

    An op that raises is recorded with the exception as its output.
    """
    latencies, outputs = [], []
    for op, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = op
        start = time.perf_counter()
        try:
            out = run(inp)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            out = exc
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
    return latencies, outputs


def check_all(workload, inputs, outputs) -> list:
    """One error string per failed op (raised, or failed its exact check)."""
    errors = []
    for inp, out in zip(inputs, outputs):
        if isinstance(out, Exception):
            errors.append(f"{workload.kind(inp)}: raised {out!r}")
            continue
        try:
            ok = workload.check(inp, out)
        except Exception as exc:  # noqa: BLE001
            errors.append(f"{workload.kind(inp)}: check raised {exc!r}")
            continue
        if not ok:
            errors.append(f"{workload.kind(inp)}: output failed its exact check")
    return errors


def output_digest(workload, inputs, outputs) -> str:
    if any(isinstance(out, Exception) for out in outputs):
        return "error"
    return digest([workload.canonical(inp, out) for inp, out in zip(inputs, outputs)])


def h_bits(eq) -> int:
    """Largest bit length of a numerator or denominator in the equation's h."""
    return max(
        (
            max(part.numerator.bit_length(), part.denominator.bit_length())
            for c in eq.h.coeffs
            for part in (c.re, c.im)
        ),
        default=0,
    )


def h_coeff_bits(workload, inputs, outputs) -> int:
    """h_bits over every output that carries an equation."""
    equations = (
        workload.equation(inp, out)
        for inp, out in zip(inputs, outputs)
        if not isinstance(out, Exception)
    )
    return max((h_bits(eq) for eq in equations if eq is not None), default=0)


def timed(workload, first_inputs, seconds: float) -> dict:
    """Whole cycles until `seconds` of op time have passed.

    Input generation and the checks run outside the window.  Each cycle's
    outputs are dropped once checked, so memory does not grow with the
    number of ops.
    """
    latencies, errors = [], []
    batch, k = first_inputs, 0
    start, excluded = time.monotonic(), 0.0
    while True:
        lat, outputs = run_ops(batch, workload.run)
        latencies += lat
        pause = time.monotonic()
        if k == 0:
            first_digest = output_digest(workload, batch, outputs)
        errors += check_all(workload, batch, outputs)
        excluded += time.monotonic() - pause
        window = time.monotonic() - start - excluded
        if window >= seconds:
            break
        k += 1
        pause = time.monotonic()
        batch = workload.cycle_inputs(k)
        excluded += time.monotonic() - pause
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail = percentile(latencies, TAIL_PERCENTILE)
    return {
        "ops": len(latencies),
        "cycles": k + 1,
        "window_s": window,
        "ops_per_s": len(latencies) / window,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": tail * 1000,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_beyond": sum(1 for x in latencies if x > tail),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(latencies),
        "failed": len(errors),
        "errors": errors[:5],
        "output_sha256": first_digest,
    }


def import_ms(env: dict) -> float:
    """Fresh `import fuchsian` minus bare interpreter start, in ms.

    The two are run in alternation, so both see the same machine load; the
    result is the median of the per-round differences.
    """

    def wall(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        return time.perf_counter() - start

    return statistics.median(wall("import fuchsian") - wall("pass") for _ in range(7)) * 1000


def traced(workload_cls, args, env, workdir) -> dict:
    from tracer import Tracer

    in_process = hasattr(workload_cls, "run_in_process")

    def fresh(traced_op: bool):
        """A new stream, warmed up untraced, its first cycle and the op to trace.

        On cli_small the traced op is fuchsian.cli.main in this process on
        the same argv as the CLI processes.
        """
        workload = workload_cls(args.seed, workdir, env)
        run = workload.run_in_process if in_process and traced_op else workload.run
        run_ops(workload.warmup_inputs(), run)
        return workload, workload.cycle_inputs(0), run

    workload, inputs, run = fresh(False)
    lat, outputs = run_ops(inputs, run)
    errors = check_all(workload, inputs, outputs)
    untraced_digest = output_digest(workload, inputs, outputs)
    process_s = sum(lat)

    tracers, traced_s, untraced_s, traced_ops = [], 0.0, 0.0, 0
    started = time.perf_counter()
    while not tracers or time.perf_counter() - started < args.seconds:
        # An untraced pass, for the overhead, and a traced one in turn, so
        # that both see the same machine load.
        _, inputs, run = fresh(True)
        untraced_s += sum(run_ops(inputs, run)[0])
        workload, inputs, run = fresh(True)
        tracer = Tracer()
        tracer.install()
        try:
            lat, outputs = run_ops(inputs, run, tracer)
        finally:
            tracer.uninstall()
        traced_s += sum(lat)
        traced_ops += len(inputs)
        errors += check_all(workload, inputs, outputs)
        if not tracers:
            first_inputs, first_outputs, first_workload = inputs, outputs, workload
            traced_digest = output_digest(workload, inputs, outputs)
        tracers.append(tracer)

    first = tracers[0]
    ops = len(first_inputs)
    metrics = {}
    for name in TIMED_SPANS:
        metrics[f"{name}.ms"] = sum(t.inclusive_s[name] for t in tracers) / traced_ops * 1000
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = first.calls[name] / ops
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_ms"] = sum(t.self_s[layer] for t in tracers) / traced_ops * 1000
    metrics["scalars.ops"] = first.scalar_ops / ops
    metrics["linalg.eliminate.max_cells"] = first.max_size("linalg.eliminate")
    metrics["builder.h_coeff_bits_max"] = h_coeff_bits(first_workload, first_inputs, first_outputs)
    metrics["cli.process_ms"] = process_s / ops * 1000 if in_process else 0.0
    metrics["cli.import_ms"] = import_ms(env)
    metrics["trace.ops_per_s"] = traced_ops / traced_s
    metrics["trace.overhead_x"] = traced_s / untraced_s

    by_kind = {}
    for name in ("linalg.eliminate", "builder.solve_g", "frobenius.verify"):
        per_op = first.calls_by_op(name)
        for op, inp in enumerate(first_inputs):
            by_kind.setdefault(first_workload.kind(inp), {}).setdefault(name, set()).add(per_op[op])
    return {
        "ops": ops,
        "passes": len(tracers),
        "attempted": ops * (len(tracers) + 1),
        "failed": len(errors),
        "errors": errors[:5],
        "untraced_sha256": untraced_digest,
        "traced_sha256": traced_digest,
        "metrics": metrics,
        "calls_by_kind": {
            kind: {name: sorted(v) for name, v in names.items()} for kind, names in by_kind.items()
        },
        "spans": sum(len(t.spans) for t in tracers),
    }


# Inclusive times reported per op, as "<name>.ms".
TIMED_SPANS = (
    "frobenius.verify", "frobenius.local_expansion", "frobenius.frobenius_obstruction",
    "frobenius.series_residual", "frobenius.report_to_json_obj",
    "polynomials.laurent_expand", "polynomials.shift",
    "linalg.eliminate",
    "builder.construct", "builder.solve_g", "builder.build_h_system",
    "dimension.solve_under", "dimension.pinned_columns",
    "model.instance_from_json_obj", "model.equation_to_json_obj",
    "model.equation_from_json_obj",
    "cli.main",
)
# Exact call counts reported per op, as "<name>.calls".
COUNTED_SPANS = (
    "frobenius.local_expansion", "polynomials.laurent_expand", "polynomials.shift",
    "linalg.eliminate", "builder.solve_g", "model.validate",
)
SELF_LAYERS = (
    "frobenius", "polynomials", "linalg", "builder", "dimension", "scalars", "model", "cli",
)


def baseline_table(seed: int) -> list:
    """solve_g, h assembly, h eliminate, verify and h bits at n = 5, 7, 9.

    Mean of three square instances per n, timed untraced.  Returns rows of
    (n, solve_g ms, h assembly ms, h eliminate ms, verify ms, max bits) and
    raises if any result is wrong.
    """
    import random

    import fuchsian

    rng = random.Random(f"baseline:{seed}")
    rows = []
    for n in (5, 7, 9):
        sums = [0.0] * 4
        bits = 0
        for _ in range(3):
            inst = fuchsian.random_instance(n, seed=rng.randrange(2**32))
            t0 = time.perf_counter()
            g = fuchsian.solve_g(inst)
            t1 = time.perf_counter()
            matrix, rhs = fuchsian.build_h_system(inst, g)
            t2 = time.perf_counter()
            outcome = fuchsian.eliminate(matrix, rhs)
            t3 = time.perf_counter()
            eq = fuchsian.FuchsianEquation(g, fuchsian.Polynomial(outcome.particular), inst)
            report = fuchsian.verify(eq)
            t4 = time.perf_counter()
            if outcome.kind != "unique" or not report.overall:
                raise RuntimeError(f"baseline instance at n={n} failed its check")
            for i, dt in enumerate((t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                sums[i] += dt
            bits = max(bits, h_bits(eq))
        rows.append([n] + [s / 3 * 1000 for s in sums] + [bits])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import workloads  # imports fuchsian: part of set-up

    env = dict(os.environ)
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        result = traced(cls, args, env, args.workdir)
        if args.workload == "square_roundtrip":
            result["baseline"] = baseline_table(args.seed)
        print(json.dumps(result))
        return 0

    gen = Generation()
    workload = gen(cls, args.seed, args.workdir, env)
    warm = gen(workload.warmup_inputs)
    _, warm_outputs = run_ops(warm, workload.run)
    first = gen(workload.cycle_inputs, 0)
    setup_s = time.monotonic() - args.launched - gen.seconds
    warm_errors = check_all(workload, warm, warm_outputs)
    result = {"setup_s": setup_s, "warmup_errors": warm_errors}
    if not args.setup_only:
        result.update(timed(workload, first, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        sys.exit(1)
