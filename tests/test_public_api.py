import os
import re
import subprocess
import sys
from pathlib import Path

import bfmfusion

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_once():
    assert len(set(bfmfusion.__all__)) == len(bfmfusion.__all__)
    missing = [name for name in bfmfusion.__all__ if not hasattr(bfmfusion, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from bfmfusion import *", namespace)
    assert set(bfmfusion.__all__) <= set(namespace)


def test_readme_quickstart_runs():
    # the first python block of the README, run as a user would, with every warning an error
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    antichain = re.search(r"^# (\{'source_count'.*\})$", code, re.M).group(1)
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr
    assert antichain in run.stdout.splitlines()
