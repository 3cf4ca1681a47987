import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import gbcbound
from gbcbound.cli import main

REPO = Path(__file__).resolve().parents[1]
SCHEMA_DIR = REPO / "docs" / "schemas"
SCENARIOS = REPO / "scenarios"


def _registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        contents = json.loads(path.read_text())
        resources.append((contents["$id"], Resource.from_contents(contents)))
        resources.append((path.name, Resource.from_contents(contents)))
    return Registry().with_resources(resources)


REGISTRY = _registry()


def validate_payload(payload, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    Draft202012Validator(schema, registry=REGISTRY).validate(payload)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


@pytest.fixture()
def matched(tmp_path):
    path = tmp_path / "matched.json"
    path.write_text(json.dumps({"power": 3, "noises": [3, 1], "bandwidth": 1, "source_var": 1}))
    return str(path)


@pytest.fixture()
def expansion(tmp_path):
    path = tmp_path / "expansion.json"
    path.write_text(json.dumps({"power": 3, "noises": [3, 1], "bandwidth": 2, "source_var": 1}))
    return str(path)


def test_shipped_scenarios_validate_against_schema():
    files = list(SCENARIOS.glob("*.json"))
    assert files
    for path in files:
        validate_payload(json.loads(path.read_text()), "scenario.schema.json")


def test_eval_hand_value(capsys, matched):
    code, payload = run_cli(
        capsys, "eval", "--scenario", matched, "--distortions", "0.5,0.25", "--tau", "1,0"
    )
    assert code == 0
    validate_payload(payload, "eval.schema.json")
    assert payload["lhs"] == pytest.approx(6.0, rel=1e-12)
    assert payload["satisfied"] is True
    assert payload["extended"] is False


def test_eval_accepts_inf_literal(capsys, matched):
    code, payload = run_cli(
        capsys, "eval", "--scenario", matched, "--distortions", "0.5,0.25", "--tau", "inf,0"
    )
    assert code == 0
    validate_payload(payload, "eval.schema.json")
    assert payload["extended"] is True
    assert payload["tau"] == ["inf", 0.0]
    assert payload["lhs"] == pytest.approx(2 + 1 / 0.25, rel=1e-12)


def test_eval_rejects_nonmonotone_tau(capsys, matched):
    code, payload = run_cli(
        capsys, "eval", "--scenario", matched, "--distortions", "0.5,0.25", "--tau", "0,1"
    )
    assert code == 2
    assert payload["error"] == "NonMonotoneTau"


def test_eval_exit_zero_even_when_violated(capsys, expansion):
    code, payload = run_cli(
        capsys, "eval", "--scenario", expansion, "--distortions", "0.25,0.0625", "--tau", "1,0"
    )
    assert code == 0
    assert payload["satisfied"] is False


def test_eval_rejects_infinity_spelled_otherwise(capsys, matched):
    code, payload = run_cli(
        capsys, "eval", "--scenario", matched, "--distortions", "0.5,0.25", "--tau", "Infinity,0"
    )
    assert code == 2


def test_missing_scenario_file(capsys):
    code, payload = run_cli(
        capsys, "eval", "--scenario", "/nonexistent.json", "--distortions", "0.5", "--tau", "0"
    )
    assert code == 2
    assert "not found" in payload["message"]


def test_membership_payload(capsys, expansion):
    code, payload = run_cli(
        capsys, "membership", "--scenario", expansion, "--distortions", "0.25,0.0625"
    )
    assert code == 0
    validate_payload(payload, "membership.schema.json")
    assert payload["member"] is False
    assert payload["margin"] < 0
    assert len(payload["argmax_tau"]) == 2
    assert len(payload["argmax_t"]) == 1


def test_membership_payload_past_float_range(capsys, tmp_path):
    """At b = 0.0009 the supremum is +inf: sup_value and margin are spelled
    "inf" and "-inf", and certified_gap stays a number."""
    path = tmp_path / "small_b.json"
    path.write_text(json.dumps({"power": 3, "noises": [3, 1], "bandwidth": 0.0009}))
    d2 = 0.5 * (1 / 4) ** 0.0009
    code, payload = run_cli(
        capsys, "membership", "--scenario", str(path), "--distortions", f"0.99995,{d2!r}"
    )
    assert code == 0
    validate_payload(payload, "membership.schema.json")
    assert payload["member"] is False
    assert (payload["sup_value"], payload["margin"]) == ("inf", "-inf")
    assert math.isfinite(payload["certified_gap"])


def test_membership_single_user(capsys, tmp_path):
    path = tmp_path / "k1.json"
    path.write_text(json.dumps({"power": 1, "noises": [1], "bandwidth": 2}))
    code, payload = run_cli(
        capsys, "membership", "--scenario", str(path), "--distortions", "0.5"
    )
    assert code == 0
    assert payload["member"] is True


def test_trace_writes_csv_and_manifest(capsys, expansion, tmp_path):
    out = tmp_path / "out"
    code, payload = run_cli(
        capsys,
        "trace", "--scenario", expansion, "--d1-grid", "0.25:0.37:4", "--out", str(out),
    )
    assert code == 0
    csv_path = out / "trace.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "D1,D2_min,D2_trivial,gap"
    assert len(lines) == 5
    for line in lines[1:]:
        d1, d2_min, d2_triv, gap = (float(v) for v in line.split(","))
        assert gap == pytest.approx(d2_min - d2_triv, abs=1e-12)
        assert gap > 0  # strict tightening inside the binding regime
    manifest = json.loads((out / "trace_manifest.json").read_text())
    validate_payload(manifest, "manifest.schema.json")
    assert manifest["outputs"] == ["trace.csv"]


def test_trace_byte_reproducible(capsys, expansion, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "trace", "--scenario", expansion, "--d1-grid", "0.25:0.3:3", "--out", str(out_a))
    run_cli(capsys, "trace", "--scenario", expansion, "--d1-grid", "0.25:0.3:3", "--out", str(out_b))
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "trace_manifest.json").read_bytes() == (out_b / "trace_manifest.json").read_bytes()
    # the README's membership example
    argv = ["membership", "--scenario", str(SCENARIOS / "expansion_k2.json"), "--distortions", "0.25,0.0625"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_trace_invalid_grid(capsys, expansion, tmp_path):
    code, payload = run_cli(
        capsys,
        "trace", "--scenario", expansion, "--d1-grid", "0.5:0.2:3", "--out", str(tmp_path / "x"),
    )
    assert code == 2


def test_trace_requires_two_receivers(capsys, tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps({"power": 2, "noises": [4, 2, 1], "bandwidth": 1}))
    code, _ = run_cli(
        capsys, "trace", "--scenario", str(path), "--d1-grid", "0.5:0.9:2", "--out", str(tmp_path / "y"),
    )
    assert code == 2


def test_verify_theorems_passes(capsys):
    code, payload = run_cli(capsys, "verify-theorems", "--trials", "40", "--seed", "42")
    assert code == 0
    validate_payload(payload, "verify.schema.json")
    assert payload["all_passed"] is True
    assert {c["name"] for c in payload["checks"]} >= {
        "matched-equality",
        "expansion-strict-violation",
        "minkowski-direction",
        "capacity-equivalence",
    }


def test_verify_theorems_zero_trials_warns(capsys):
    code, payload = run_cli(capsys, "verify-theorems", "--trials", "0")
    assert code == 0
    validate_payload(payload, "verify.schema.json")
    assert "warning" in payload


def test_figure1_outputs(capsys, tmp_path):
    out = tmp_path / "fig"
    code, payload = run_cli(
        capsys,
        "figure1", "--c1", "1", "--c2", "5", "--b", "0.5,1,2", "--samples", "128",
        "--out", str(out),
    )
    assert code == 0
    assert payload["all_nested"] is True
    summary = json.loads((out / "figure1_summary.json").read_text())
    validate_payload(summary, "figure1_summary.schema.json")
    for corner in summary["corners"].values():
        assert corner["R1_corner"] == pytest.approx(1.0, abs=1e-9)
        assert corner["R2_corner"] == pytest.approx(5.0, abs=1e-9)
    for b in (0.5, 1.0, 2.0):
        csv_path = out / f"region_b{b!r}.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "alpha,R1,R2"
        assert len(lines) == 129
    manifest = json.loads((out / "figure1_manifest.json").read_text())
    validate_payload(manifest, "manifest.schema.json")


def test_figure1_caption_literal_column(capsys, tmp_path):
    out = tmp_path / "fig_lit"
    code, _ = run_cli(
        capsys,
        "figure1", "--c1", "1", "--c2", "5", "--b", "1", "--samples", "16",
        "--out", str(out), "--caption-literal",
    )
    assert code == 0
    lines = (out / "region_b1.0.csv").read_text().strip().splitlines()
    assert lines[0] == "alpha,R1,R2,R2_literal"
    # the literal printed form is dimensionally broken and goes negative
    literals = [float(line.split(",")[3]) for line in lines[1:]]
    assert min(literals) < 0


def test_figure1_rejects_bad_capacities(capsys, tmp_path):
    code, _ = run_cli(
        capsys, "figure1", "--c1", "5", "--c2", "1", "--b", "1", "--out", str(tmp_path / "z")
    )
    assert code == 2


def test_simulate_payload(capsys, matched):
    code, payload = run_cli(
        capsys, "simulate", "--scenario", matched, "--samples", "50000", "--seed", "7"
    )
    assert code == 0
    validate_payload(payload, "simulate.schema.json")
    assert payload["generator"] == "philox"
    assert payload["theoretical"] == pytest.approx([0.5, 0.25])
    for emp, theo, se in zip(payload["empirical"], payload["theoretical"], payload["std_err"]):
        assert abs(emp - theo) <= max(3 * se, 0.01 * theo)


def test_simulate_writes_report_when_out_given(capsys, matched, tmp_path):
    out = tmp_path / "sim"
    code, payload = run_cli(
        capsys,
        "simulate", "--scenario", matched, "--samples", "1000", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "simulate_report.json").read_text())
    validate_payload(report, "simulate.schema.json")
    manifest = json.loads((out / "simulate_manifest.json").read_text())
    validate_payload(manifest, "manifest.schema.json")
    assert manifest["parameters"]["seed"] == 3


def test_simulate_rejects_bandwidth_mismatch(capsys, expansion):
    code, payload = run_cli(
        capsys, "simulate", "--scenario", expansion, "--samples", "100", "--seed", "7"
    )
    assert code == 2
    assert payload["error"] == "BandwidthNotOne"


def test_console_entry_point():
    # the child imports the same package as this suite, installed or not
    package_root = str(Path(gbcbound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "gbcbound", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "gbcbound" in proc.stdout
