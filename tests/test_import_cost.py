"""What importing the CLI pulls in.

scipy is installed, but `import scipy.sparse` after `dynaperc.cli` added
about 0.17 s and 16 MB of peak memory (a 2-vCPU VM), so the module that runs
experiments must not load it, as a `scipy.sparse` operator would.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_scipy_out():
    code = ("import sys, dynaperc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
