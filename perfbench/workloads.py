"""The three benchmark workloads: seeded inputs, one op per input, exact checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned.  Inputs come in *cycles*, a fixed mix
of shapes, so that every timed window holds the same proportions whatever
the seed; the seed only picks the instances and the free values.
The warm-up inputs do not depend on the seed: they are drawn from a fixed
generator, so set-up time does the same work in every run.

A workload object exposes

    warmup_inputs()   inputs of the untimed warm-up ops
    cycle_inputs(k)   inputs of the k-th cycle (0-based), deterministic
    run(inp)          one op through the public API; returns its output
    check(inp, out)   exact correctness of one output
    canonical(inp, out)  JSON-ready form of the output, for the digest
    equation(inp, out)   the FuchsianEquation inside the output, or None
    kind(inp)         a label that groups ops in the traced report

The same (workload, seed) always yields the same inputs, in the same order.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import fuchsian
import fuchsian.frobenius
from fuchsian import GaussianRational


def _small_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if value or not nonzero:
            return value


def _fixed_rng(name: str) -> random.Random:
    """The generator of a workload's seed-independent inputs."""
    return random.Random(f"{name}:fixed")


def _small_gaussian(rng: random.Random) -> GaussianRational:
    return GaussianRational(_small_fraction(rng), _small_fraction(rng))


class SquareRoundtrip:
    """construct + verify on a fresh square instance (N = n - 2) per op.

    Half of each cycle is shifted by a Gaussian-rational c with Im c != 0;
    no two ops (warm-up included) share their positions.
    """

    name = "square_roundtrip"
    # (n, Gaussian positions?) per op of one cycle: six real, six Gaussian.
    # Latency groups, cheapest first: n = 5 real (3 ops), n = 5 Gaussian (4),
    # n = 6 Gaussian and n = 7 real (4, of similar cost), n = 8 real (1).
    # So the median falls inside the n = 5 Gaussian group and p75 in the
    # middle of the next one, not on the gap between two groups, where it
    # would jump from run to run.
    SHAPES = (
        (5, False), (5, True), (6, True), (5, False), (5, True), (7, False),
        (5, False), (5, True), (6, True), (5, True), (7, False), (8, False),
    )

    def __init__(self, seed: int, workdir: str, env: dict):
        self._rng = random.Random(f"{self.name}:{seed}")
        self._seen = set()

    def _instance(self, n: int, gaussian: bool, rng=None):
        rng = rng or self._rng
        while True:
            inst = fuchsian.random_instance(n, seed=rng.randrange(2**32))
            if gaussian:
                shift = GaussianRational(_small_fraction(rng), _small_fraction(rng, nonzero=True))
                inst = inst.shifted(shift)
            key = inst.finite_positions + inst.apparent_positions
            if key not in self._seen:
                self._seen.add(key)
                return inst

    def warmup_inputs(self) -> list:
        rng = _fixed_rng(self.name)
        return [self._instance(5, False, rng), self._instance(5, True, rng)]

    def cycle_inputs(self, k: int) -> list:
        return [self._instance(n, gaussian) for n, gaussian in self.SHAPES]

    def run(self, inst):
        eq = fuchsian.construct(inst)
        return eq, fuchsian.verify(eq)

    def check(self, inst, out) -> bool:
        return out[1].overall is True

    def canonical(self, inst, out):
        return {
            "equation": fuchsian.equation_to_json_obj(out[0]),
            "report": fuchsian.frobenius.report_to_json_obj(out[1]),
        }

    def equation(self, inst, out):
        return out[0]

    def kind(self, inst) -> str:
        gaussian = any(q.im for q in inst.finite_positions)
        return f"n={inst.n} {'gaussian' if gaussian else 'real'}"


class UnderFamily:
    """solve_under on a few fixed position sets, each with fresh free values.

    The same instance objects serve every op of a run, so whatever the
    package caches on an instance is reused across ops.  The position sets
    are the same in every run; the seed picks the free values.  So the
    warm-up (one op per set, fixed free values) fills the same caches at the
    same cost whatever the seed.
    """

    name = "under_family"
    SETS = ((7, 1), (7, 2), (8, 1), (8, 3))  # (n, N); n - 2 - N free values
    # Set per op.  (7, 1), the cheapest, runs twice, so that the median and
    # p75 ops fall inside a set's cluster of latencies, not between two.
    CYCLE = (0, 2, 0, 1, 3)

    def __init__(self, seed: int, workdir: str, env: dict):
        self._rng = random.Random(f"{self.name}:{seed}")
        fixed = _fixed_rng(self.name)
        self.sets = [
            fuchsian.random_instance(n, num, seed=fixed.randrange(2**32)) for n, num in self.SETS
        ]
        self._fixed = fixed
        self._seen = set()

    def _free_values(self, index: int, rng=None) -> tuple:
        rng = rng or self._rng
        inst = self.sets[index]
        while True:
            values = tuple(_small_gaussian(rng) for _ in range(inst.n - 2 - inst.num_apparent))
            if (index, values) not in self._seen:
                self._seen.add((index, values))
                return index, values

    def warmup_inputs(self) -> list:
        return [self._free_values(i, self._fixed) for i in range(len(self.sets))]

    def cycle_inputs(self, k: int) -> list:
        return [self._free_values(i) for i in self.CYCLE]

    def run(self, inp):
        index, values = inp
        return fuchsian.solve_under(self.sets[index], values)

    def check(self, inp, eq) -> bool:
        return fuchsian.verify(eq).overall is True

    def canonical(self, inp, eq):
        return fuchsian.equation_to_json_obj(eq)

    def equation(self, inp, eq):
        return eq

    def kind(self, inp) -> str:
        n, num = self.SETS[inp[0]]
        return f"n={n} N={num}"


class CliSmall:
    """`python -m fuchsian.cli construct`, then `verify`, on small square
    instances (n = 3-4) read from JSON files: two processes per op."""

    name = "cli_small"
    SIZES = (3, 4, 3, 4)

    def __init__(self, seed: int, workdir: str, env: dict):
        self._rng = random.Random(f"{self.name}:{seed}")
        self._workdir = workdir
        self._env = env
        self._count = 0

    def _write(self, n: int, rng=None) -> tuple:
        rng = rng or self._rng
        inst = fuchsian.random_instance(n, seed=rng.randrange(2**32))
        stem = os.path.join(self._workdir, f"op{self._count:06d}")
        self._count += 1
        with open(stem + "-instance.json", "w", encoding="utf-8") as handle:
            json.dump(fuchsian.instance_to_json_obj(inst), handle)
        return stem + "-instance.json", stem + "-equation.json"

    def warmup_inputs(self) -> list:
        return [self._write(3, _fixed_rng(self.name))]

    def cycle_inputs(self, k: int) -> list:
        return [self._write(n) for n in self.SIZES]

    @staticmethod
    def argvs(inp) -> tuple:
        instance_path, equation_path = inp
        return (
            ["construct", "-i", instance_path, "-o", equation_path],
            ["verify", "-i", instance_path, "-e", equation_path],
        )

    def run(self, inp):
        """Both CLI processes; returns (exit codes, equation text, report text)."""
        codes = []
        stdout = b""
        for argv in self.argvs(inp):
            proc = subprocess.run(
                [sys.executable, "-m", "fuchsian.cli", *argv],
                env=self._env,
                capture_output=True,
                timeout=120,
                check=False,
            )
            codes.append(proc.returncode)
            stdout = proc.stdout
            if proc.returncode:
                break
        return tuple(codes), self._read(inp[1]), stdout.decode("utf-8")

    def run_in_process(self, inp):
        """The same two argvs through fuchsian.cli.main in this process."""
        import fuchsian.cli  # only the traced run needs it; set-up stays `import fuchsian`

        codes = []
        buffer = io.StringIO()
        for argv in self.argvs(inp):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                codes.append(fuchsian.cli.main(argv))
            if codes[-1]:
                break
        return tuple(codes), self._read(inp[1]), buffer.getvalue()

    @staticmethod
    def _read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as handle:
                return handle.read()
        except FileNotFoundError:
            return ""

    def check(self, inp, out) -> bool:
        codes, equation_text, report_text = out
        if codes != (0, 0):
            return False
        try:
            json.loads(equation_text)
            return json.loads(report_text)["overall"] is True
        except (ValueError, KeyError, TypeError):
            return False

    def canonical(self, inp, out):
        codes, equation_text, report_text = out
        return {
            "codes": list(codes),
            "equation": json.loads(equation_text),
            "report": json.loads(report_text),
        }

    def equation(self, inp, out):
        instance_path, _ = inp
        with open(instance_path, encoding="utf-8") as handle:
            inst = fuchsian.instance_from_json_obj(json.load(handle))
        return fuchsian.equation_from_json_obj(json.loads(out[1]), inst)

    def kind(self, inp) -> str:
        return "cli"


WORKLOADS = {w.name: w for w in (SquareRoundtrip, UnderFamily, CliSmall)}
