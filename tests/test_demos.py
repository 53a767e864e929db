"""Demos: each narrated walkthrough runs to completion and prints its key results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Lines each demo must print, whole and in this order.
KEY_LINES = {
    "01_hypergeometric.py": [
        "G = -4 + 4*z",
        "H = -2*z + 2*z^2",
        "verification passes: True",
        "tampered H detected: True",
    ],
    "02_apparent_singularity.py": [
        "momentum p = 0:",
        "  full verification:            True",
        "momentum p = 5/2:",
        "  recovered momentum:           5/2",
        "  full verification:            True",
        "local constants at q = 3:",
        "  delta = -72  epsilon = 264",
    ],
    "03_dimension_count.py": [
        "  free value 0: H = 6*z + -7*z^2 + z^4",
        "  constraint on p_1: (-8)*p^2 + (12)*p + (-4) = 0",
        "  exact roots: ['1/2', '1']",
        "  p = 1/2: consistent=True, verified=True",
        "  p = 1: consistent=True, verified=True",
    ],
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("name", sorted(KEY_LINES))
def test_demo_runs(name):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    remaining = iter(proc.stdout.splitlines())
    for line in KEY_LINES[name]:
        assert line in remaining, line  # consumes up to the match: order is checked
