import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    # a fresh interpreter with this checkout first on the import path, so the
    # demos exercise the package's public API as a user script would
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
