"""Self-tests of the benchmark (not of the package).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

They take about a minute: they run real ops and traced passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import fuchsian  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fuchsian import FuchsianInstance, GaussianRational  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))


def plain(value):
    """Inputs as plain JSON data, so that two streams can be compared."""
    if isinstance(value, FuchsianInstance):
        return fuchsian.instance_to_json_obj(value)
    if isinstance(value, GaussianRational):
        return value.to_pair()
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, str) and value.endswith("-instance.json"):
        return Path(value).read_text(encoding="utf-8")
    if isinstance(value, str) and value.endswith("-equation.json"):
        return Path(value).name
    return value


def first_inputs(name: str, seed: int, workdir: Path):
    stream = workloads.WORKLOADS[name](seed, str(workdir), ENV)
    return stream, stream.warmup_inputs() + stream.cycle_inputs(0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_digest(name, tmp_path):
    digests = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        stream, inputs = first_inputs(name, 7, workdir)
        _, outputs = worker.run_ops(inputs, stream.run)
        assert worker.check_all(stream, inputs, outputs) == []
        digests.append((plain(inputs), worker.output_digest(stream, inputs, outputs)))
    assert digests[0] == digests[1]
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    _, other = first_inputs(name, 8, other_dir)
    assert plain(other) != digests[0][0]


def traced_run(name: str, workdir: Path) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "3",
            "--seconds", "0", "--workdir", str(workdir), "--launched", repr(time.monotonic()),
            "--trace",
        ],
        env=ENV, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact(result: dict) -> dict:
    return {
        k: v for k, v in result["metrics"].items()
        if k.endswith((".calls", ".max_cells", "_bits_max")) or k == "scalars.ops"
    }


@pytest.mark.parametrize("name", ["under_family", "cli_small"])
def test_exact_counts_repeat_across_traced_runs(name, tmp_path):
    runs = [traced_run(name, tmp_path) for _ in range(2)]
    assert exact(runs[0]) == exact(runs[1])
    assert len(exact(runs[0])) == 9
    for run in runs:
        assert run["failed"] == 0
        assert run["untraced_sha256"] == run["traced_sha256"]


def test_warmup_does_not_depend_on_seed(tmp_path):
    for name in workloads.WORKLOADS:
        warm = []
        for seed in (1, 2):
            workdir = tmp_path / f"{name}-{seed}"
            workdir.mkdir()
            warm.append(plain(workloads.WORKLOADS[name](seed, str(workdir), ENV).warmup_inputs()))
        assert warm[0] == warm[1], name


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_listed_ones(trace, key):
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))[key]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli_small", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    printed = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {name: m["unit"] for name, m in printed.items()} == {m["name"]: m["unit"] for m in listed}


def test_tracer_restores_every_binding():
    from tracer import Tracer

    before = (fuchsian.builder.eliminate, fuchsian.Polynomial.shift, GaussianRational.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert fuchsian.builder.eliminate is not before[0]
        eq = fuchsian.construct(fuchsian.random_instance(3, seed=1))
    finally:
        tracer.uninstall()
    assert (fuchsian.builder.eliminate, fuchsian.Polynomial.shift, GaussianRational.__mul__) == before
    assert tracer.calls["builder.construct"] == 1
    assert tracer.calls["linalg.eliminate"] == 2
    assert tracer.scalar_ops > 0
    assert eq.h.degree >= 0


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
