import csv
import os
import subprocess
import sys
from pathlib import Path

import gbcbound
from gbcbound.bound import bound_rhs
from gbcbound.core import load_scenario
from gbcbound.membership import DEFAULT_REL_TOL, TRACE_WIDTH

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    # the child imports the same package as this suite, installed or not
    package_root = str(Path(gbcbound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True, text=True, cwd=REPO, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )


def test_boundary_gap_sweep_smoke(tmp_path):
    proc = run_script(
        "boundary_gap_sweep.py", "--scenario", "scenarios/matched_k2.json",
        "--points", "3", "--bandwidths", "0.5,2", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    with (tmp_path / "gaps_b0.5.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    # b <= 1: the boundary is the point-to-point floor D_2*, which the
    # verdict's relative tolerance moves down to ``lowest``; the gap over
    # D_2* is that shift, up to the trace width
    sc = load_scenario(REPO / "scenarios" / "matched_k2.json")
    n2 = sc.noises[1]
    lowest = sc.source_var * (n2 / (sc.power + n2 + DEFAULT_REL_TOL * bound_rhs(sc))) ** 0.5
    shift = lowest - float(rows[0]["D2_trivial"])
    assert len(rows) == 3
    for row in rows:
        assert shift - 1e-15 <= float(row["gap"]) <= shift + TRACE_WIDTH
    assert (tmp_path / "gaps_b2.0.csv").exists()


def test_region_shrinkage_csvs_smoke(tmp_path):
    proc = run_script("region_shrinkage_csvs.py", "--samples", "64", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
