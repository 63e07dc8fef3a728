"""The tour scripts in demos/ run cleanly and print the same text every time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOURS = sorted((ROOT / "demos").glob("tour_*.py"))


def _run(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120,
    )


def test_the_tours_are_found():
    assert TOURS


@pytest.mark.parametrize("script", TOURS, ids=lambda p: p.stem)
def test_tour_runs_cleanly_and_deterministically(script):
    first = _run(script)
    assert first.returncode == 0, first.stderr
    assert first.stderr == ""
    assert first.stdout
    assert _run(script).stdout == first.stdout
