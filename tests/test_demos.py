import os
import subprocess
import sys
from pathlib import Path

import pytest

import hodgewalk

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(hodgewalk.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
