"""Each script in scripts/ runs to completion on small arguments.

Every script runs in a fresh interpreter, as it would from a shell, and
must exit 0 and print its header line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperdense

SCRIPTS = Path(__file__).parents[1] / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("host_density_experiment.py", ["12", "3"], "n=12, seeds=3, triples per host=220"),
    ("subset_floor_audit.py", ["1000"], f"{'r':>2} {'n':>2} {'eta':>8} {'size':>6} {'edges':>8} {'ratio':>10}"),
    ("sweep_patterns.py", ["4"], f"{'f':>2} {'patterns':>9} {'both':>6} {'orderable only':>15} {'neither':>8}  time"),
], ids=["host_density_experiment", "subset_floor_audit", "sweep_patterns"])
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(Path(hyperdense.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()
