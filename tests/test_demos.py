"""Every demo script runs to completion; the volume-curve demo writes its CSV."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import conevol

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
SRC = pathlib.Path(conevol.__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    # run a copy, so that output files land in tmp_path and not in the tree
    shutil.copy(DEMOS / script, tmp_path / script)
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "05_volume_curves.py":
        written = (tmp_path / "fig8_volumes.csv").read_bytes()
        assert written == (DEMOS / "fig8_volumes.csv").read_bytes()
