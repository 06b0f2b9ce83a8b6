"""The example scripts run end to end at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitforge.partitions import admissible_partitions

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_orbit_atlas_has_one_row_per_admissible_partition():
    proc = run_script("orbit_atlas.py", "6")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    want = [(f"{'so' if eps == 1 else 'sp'}_{n}", str(lam))
            for n in range(2, 7) for eps in (1, -1) if not (eps == -1 and n % 2)
            for lam in admissible_partitions(n, eps)]
    assert [(row[0], row[1]) for row in rows] == want
    assert all(len(row) == 8 for row in rows)


def test_wgen_demo_prints_every_generator_and_the_character():
    proc = run_script("wgen_demo.py", "2,1,1", "-1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("Theta(x") for line in lines) == 6
    assert lines[-1] == "augmentation character: {'x5': '-1/2'}"


@pytest.mark.parametrize("partition, eps", [("2,1,1", "-1"), ("2,2,1", "1")])
def test_wgen_demo_output_is_unchanged(partition, eps):
    # recorded from the Fraction-arithmetic enveloping layer; guards the
    # value and the order of every printed theta term and character value
    proc = run_script("wgen_demo.py", partition, eps)
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "golden" / f"wgen_demo_{partition}_{eps}.txt"
    assert proc.stdout.encode() == golden.read_bytes()
