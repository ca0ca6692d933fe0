"""The demos run to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_autodiff_and_gradients.py", "02_synthetic_dataset.py",
                                  "03_train_and_evaluate.py"])
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ, OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
