"""Each narrative demo runs to completion against the source tree."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) == 5


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    _run(str(demo))


def test_readme_library_tour():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    level, v1, v2, m_omega = (
        float(x) for x in re.findall(r"[-+]?\d+\.\d*(?:e[-+]?\d+)?", _run("-c", block))
    )
    assert level == pytest.approx(math.e**2, rel=1e-10)
    assert v1 == pytest.approx(-v2, rel=1e-7)
    assert abs(v1) == pytest.approx(math.e, rel=1e-7)
    assert m_omega == pytest.approx(math.e**3, rel=1e-10)
