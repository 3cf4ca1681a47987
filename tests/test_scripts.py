import os
import subprocess
import sys
from pathlib import Path

import gbcbound

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    # the child imports the same package as this suite, installed or not
    package_root = str(Path(gbcbound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True, text=True, cwd=REPO, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )


def test_region_shrinkage_csvs_smoke(tmp_path):
    proc = run_script("region_shrinkage_csvs.py", "--samples", "64", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
