import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "demo_clearing.py": "free placement of 3 ploughs on n=5: NO",
    "demo_detection.py": "nonzero evaluations at z^3: 0/",
    "demo_hardness.py": "budget-1 gadget: NO",
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[script] in proc.stdout
