"""Tier-1's bit-for-bit gate: two full-preset training steps hash to tests/data/gate.sha256."""

import os
import subprocess
import sys
from pathlib import Path

from gate_bits import MANIFEST, versions


def test_training_bits_match_the_manifest():
    # A subprocess, since BLAS reads its thread count when numpy is imported.
    pinned = MANIFEST.read_text().splitlines()
    head = [line for line in pinned if line.startswith("#")]
    assert head == versions(), (
        f"{MANIFEST.name} was made with {', '.join(h[2:] for h in head)}; this run has "
        f"{', '.join(h[2:] for h in versions())}, which may give other bits")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, str(Path(__file__).with_name("gate_bits.py"))],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == pinned
