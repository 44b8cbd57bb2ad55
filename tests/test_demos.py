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


def test_readme_library_snippet_runs(capsys):
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True 0.0\n"
