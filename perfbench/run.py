"""Benchmark of the fuchsian package: three closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload square_roundtrip --seed 1 --seconds 25 --trace 0

Workloads: square_roundtrip, under_family, cli_small (see
workloads.py and BENCHMARK.json for why each exists).  Each run is one
client in one process; the next op starts only after the previous one
returned.  Inputs are generated from --seed and handed to the package's
public API (and its CLI); every output is checked exactly.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms, op_tail_ms,
setup_s and peak_rss_mb, plus fail_ratio and the output digest.  set-up is
measured in five fresh interpreters, before and after the timed window,
and reported as their median.
--trace 1 prints the per-layer metrics from spans around the package's
public functions, the tracing overhead, and on square_roundtrip the
solve_g / h assembly / h eliminate / verify table at n = 5, 7, 9.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when the run completed, even if an
output was wrong (then "correct" is false); it is 2 when the package
source is missing and 1 when a benchmark process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("square_roundtrip", "under_family", "cli_small")
# Set-up is timed in fresh interpreters before and after the timed one, and
# setup_s is the median of all of them (the timed one's included): the host's
# speed drifts over seconds, and samples on both sides of the window see more
# of that drift than samples taken back to back.
SETUP_BEFORE = 2
SETUP_AFTER = 2
DEADLINE_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    pass


def per_layer_units() -> dict:
    """Unit of every per-layer metric, by name (the BENCHMARK.json list)."""
    from worker import COUNTED_SPANS, SELF_LAYERS, TIMED_SPANS

    units = {f"{name}.ms": "ms" for name in TIMED_SPANS}
    units.update({f"{name}.calls": "count" for name in COUNTED_SPANS})
    units.update({f"{layer}.self_ms": "ms" for layer in SELF_LAYERS})
    units.update(
        {
            "scalars.ops": "count",
            "linalg.eliminate.max_cells": "count",
            "builder.h_coeff_bits_max": "bits",
            "cli.process_ms": "ms",
            "cli.import_ms": "ms",
            "trace.ops_per_s": "1/s",
            "trace.overhead_x": "x",
        }
    )
    units.update({f"{name}.src_lines": "lines" for name in source_lines()})
    return units


def source_lines() -> dict:
    """Line count of every module of src/fuchsian, and their total."""
    from tracer import LAYERS

    def lines(path: Path) -> int:
        return len(path.read_text(encoding="utf-8").splitlines()) if path.is_file() else 0

    package = SRC / "fuchsian"
    counts = {layer: lines(package / f"{layer}.py") for layer in LAYERS}
    counts["fuchsian"] = sum(lines(path) for path in package.glob("*.py"))
    return counts


class Runner:
    def __init__(self, args, workdir: str):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def worker(self, *extra) -> dict:
        """One fresh worker interpreter; returns its JSON result."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("time budget used up")
        launched = time.monotonic()
        # A session of its own, so that a timeout also ends the CLI processes
        # the worker may have started.
        proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", self.args.workload,
                "--seed", str(self.args.seed),
                "--seconds", str(self.args.seconds),
                "--workdir", self.workdir,
                "--launched", repr(launched),
                *extra,
            ],
            env=self.env,
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError("worker exceeded the time budget") from exc
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode:
            raise BenchmarkError(f"worker exited with code {proc.returncode}")
        return json.loads(stdout.decode("utf-8").strip().splitlines()[-1])

    def end_to_end(self) -> dict:
        before = [self.worker("--setup-only") for _ in range(SETUP_BEFORE)]
        result = self.worker()
        after = [self.worker("--setup-only") for _ in range(SETUP_AFTER)]
        setups = before + [result] + after
        samples = [s["setup_s"] for s in setups]
        warm_errors = [e for s in setups for e in s["warmup_errors"]]
        metrics = {name: result[name] for name in END_TO_END_UNITS if name != "setup_s"}
        metrics["setup_s"] = statistics.median(samples)

        print(
            f"workload {self.args.workload}, seed {self.args.seed}: closed loop, 1 client, "
            f"{result['ops']} ops in {result['cycles']} cycles, {result['window_s']:.2f} s window"
        )
        for name, unit in END_TO_END_UNITS.items():
            line = f"  {name:<12} {metrics[name]:12.4f} {unit}"
            if name == "op_tail_ms":
                line += (
                    f"  (p{result['tail_percentile']}, {result['tail_beyond']} of "
                    f"{result['ops']} ops beyond it)"
                )
            if name == "setup_s":
                line += "  (median of " + ", ".join(f"{s:.3f}" for s in samples) + ")"
            print(line)
        print(
            f"  {'fail_ratio':<12} {result['failed'] / result['attempted']:12.4f} "
            f"({result['failed']} of {result['attempted']} ops)"
        )
        print(f"  output_sha256 {result['output_sha256']} (first cycle)")
        for error in result["errors"] + warm_errors:
            print(f"  FAILED {error}")
        return {
            "correct": result["failed"] == 0 and not warm_errors,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        }

    def per_layer(self) -> dict:
        result = self.worker("--trace")
        metrics = dict(result["metrics"])
        metrics.update({f"{k}.src_lines": v for k, v in source_lines().items()})
        units = per_layer_units()
        same = result["untraced_sha256"] == result["traced_sha256"]

        print(
            f"workload {self.args.workload}, seed {self.args.seed}: traced, "
            f"{result['ops']} ops per pass, {result['passes']} traced passes, "
            f"{result['spans']} spans; values are per op"
        )
        for name in sorted(units):
            print(f"  {name:<40} {metrics[name]:14.4f} {units[name]}")
        print(
            f"  tracing overhead: traced {metrics['trace.ops_per_s']:.3f} ops/s is "
            f"{metrics['trace.overhead_x']:.2f}x slower than untraced on the same ops"
        )
        print(f"  untraced output_sha256 {result['untraced_sha256']}")
        print(f"  traced   output_sha256 {result['traced_sha256']} ({'same' if same else 'DIFFERENT'})")
        print("  calls per op, by op kind (first traced pass):")
        for kind, names in result["calls_by_kind"].items():
            counts = ", ".join(f"{name} {values}" for name, values in names.items())
            print(f"    {kind}: {counts}")
        if "baseline" in result:
            print("  | n | solve_g | h assemble | h eliminate | verify | max h-coeff bits |")
            print("  |---|---------|------------|-------------|--------|------------------|")
            for n, g_ms, a_ms, e_ms, v_ms, bits in result["baseline"]:
                print(
                    f"  | {n} | {g_ms:.1f} ms | {a_ms:.1f} ms | {e_ms:.1f} ms "
                    f"| {v_ms:.0f} ms | {bits} |"
                )
        for error in result["errors"]:
            print(f"  FAILED {error}")
        return {
            "correct": result["failed"] == 0 and same,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in sorted(units.items())},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fuchsian" / "__init__.py").is_file():
        print(f"perfbench: package source not found at {SRC / 'fuchsian'}", file=sys.stderr)
        return 2
    # Byte-compile first, so that no set-up sample pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "fuchsian"), str(HERE)],
        check=True,
        timeout=120,
    )
    # On SIGTERM, unwind through the finally blocks: they end the worker and
    # remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(args, workdir)
        summary = runner.per_layer() if args.trace else runner.end_to_end()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
