import argparse
import csv
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import gbcbound
from gbcbound.bound import DEFAULT_REL_TOL, bound_rhs
from gbcbound.cli import build_parser, main
from gbcbound.core import load_scenario, trivial_distortion
from gbcbound.membership import TRACE_WIDTH

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
    payload = json.loads(out[-1])
    if code == 2:
        validate_payload(payload, "error.schema.json")
    return code, payload


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


def _run_input_error(capsys, argv):
    """Run ``argv`` in process; check it is one input error: exit 2, exactly
    one stdout line, a payload valid against error.schema.json, no stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    validate_payload(payload, "error.schema.json")
    return payload


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_scenario_path(capsys, tmp_path, kind):
    """A scenario path that cannot be read as text is an input error, not a crash."""
    if kind == "directory":
        path = SCENARIOS
    else:
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
    payload = _run_input_error(capsys, ["membership", "--scenario", str(path), "--distortions", "0.5,0.25"])
    assert payload["error"] == "InputError"
    assert "cannot read scenario file" in payload["message"]


def test_scenario_value_not_a_number(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"power": "abc", "noises": [3, 1], "bandwidth": 1}))
    code, payload = run_cli(capsys, "eval", "--scenario", str(path), "--distortions", "0.5,0.25",
                            "--tau", "1,0")
    assert code == 2
    assert payload["error"] == "InputError"


def test_membership_payload(capsys, expansion):
    code, payload = run_cli(
        capsys, "membership", "--scenario", expansion, "--distortions", "0.25,0.0625"
    )
    assert code == 0
    validate_payload(payload, "membership.schema.json")
    assert payload["member"] is False and payload["certified"] is True
    assert payload["margin"] < 0
    assert len(payload["argmax_tau"]) == 2
    assert len(payload["argmax_t"]) == 1


def test_membership_payload_past_float_range(capsys, tmp_path):
    """At b = 0.0009 the supremum is +inf: sup_value and margin are spelled
    "inf" and "-inf", and so is sup_upper."""
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
    assert float(payload["sup_value"]) <= float(payload["sup_upper"])


def test_membership_at_tolerance_0_certifies_no_rounding_noise(capsys, tmp_path):
    """At b = 1 this D lies within the evaluator's rounding of the bound: the
    exact supremum, max_k (N_1 - N_k) + N_k N_S / D_k, is P + N_1 - 6.9e-18,
    so D is a member, while the evaluator puts its witness 4.4e-16 above
    P + N_1.  At --tolerance 0 that is the tolerant verdict "not a member",
    and it must not be certified."""
    path = tmp_path / "b1.json"
    path.write_text(json.dumps({"power": 2.0886268427041093, "bandwidth": 1,
                                "noises": [1.562146897937667, 0.4579745822910527, 0.011112964972015565]}))
    code, payload = run_cli(
        capsys, "membership", "--scenario", str(path), "--tolerance", "0",
        "--distortions", "0.427894744762532,0.17983755832223441,0.0052925438339499675",
    )
    assert code == 0
    validate_payload(payload, "membership.schema.json")
    assert payload["member"] is False and payload["certified"] is False
    assert payload["margin"] == -4.440892098500626e-16


def test_membership_single_user(capsys, tmp_path):
    path = tmp_path / "k1.json"
    path.write_text(json.dumps({"power": 1, "noises": [1], "bandwidth": 2}))
    code, payload = run_cli(
        capsys, "membership", "--scenario", str(path), "--distortions", "0.5"
    )
    assert code == 0
    assert payload["member"] is True


MEMBERSHIP_STDOUT = {
    ("matched_k2.json", "0.6,0.3"):
        '{"argmax_t": [1.0], "argmax_tau": ["inf", 0.0], "certified": true, "command": "membership", '
        '"distortions": [0.6, 0.3], "iterations": 2, "margin": 0.6666666666666661, "member": true, '
        '"rhs": 6.0, "sup_upper": 5.333333333333349, "sup_value": 5.333333333333334, "tolerance": 1e-09}\n',
    ("compression_k2.json", "0.75,0.5"):
        '{"argmax_t": [1.0], "argmax_tau": ["inf", 0.0], "certified": true, "command": "membership", '
        '"distortions": [0.75, 0.5], "iterations": 2, "margin": 0.0, "member": true, '
        '"rhs": 6.0, "sup_upper": 6.000000000000019, "sup_value": 6.0, "tolerance": 1e-09}\n',
    ("expansion_k2.json", "0.25,0.0625"):
        '{"argmax_t": [0.19999999999999993], "argmax_tau": [0.24999999999999992, 0.0], "certified": true, '
        '"command": "membership", "distortions": [0.25, 0.0625], "iterations": 1, '
        '"margin": -0.32455532033675816, "member": false, "rhs": 6.0, "sup_upper": 6.32455532033681, '
        '"sup_value": 6.324555320336758, "tolerance": 1e-09}\n',
}


@pytest.mark.parametrize("name, distortions", sorted(MEMBERSHIP_STDOUT))
def test_membership_stdout_is_pinned(capsys, name, distortions):
    """The payload's bytes.  At b <= 1 the supremum is the largest of the
    K = 2 closed-form step values (iterations 2, no grid), and sup_upper is
    that value times 1 + rho.  At the README's b = 2 point it is the K = 2
    closed form (iterations 1, the one schedule evaluated): its witness,
    the stationary point tau_1 = 0.25, violates the bound, and sup_upper
    adds the rounding allowance and the most the functional can rise
    beside the witness."""
    assert main(["membership", "--scenario", str(SCENARIOS / name), "--distortions", distortions]) == 0
    assert capsys.readouterr().out == MEMBERSHIP_STDOUT[name, distortions]


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


B_LE_1_TRACE_CSV = {
    "compression_k2": (
        'D1,D2_min,D2_trivial,gap\r\n'
        '0.7071067811865476,0.49999999964999997,0.5,-3.5000002895912985e-10\r\n'
        '0.8535533905932737,0.49999999964999997,0.5,-3.5000002895912985e-10\r\n'
        '1.0,0.49999999964999997,0.5,-3.5000002895912985e-10\r\n'
    ),
    "matched_k2": (
        'D1,D2_min,D2_trivial,gap\r\n'
        '0.5,0.24999999964999997,0.25,-3.5000002895912985e-10\r\n'
        '0.75,0.24999999964999997,0.25,-3.5000002895912985e-10\r\n'
        '1.0,0.24999999964999997,0.25,-3.5000002895912985e-10\r\n'
    ),
}


def test_trace_gap_at_unit_or_lower_bandwidth(capsys, tmp_path):
    """b <= 1: the boundary is the point-to-point floor D_2*, which the
    verdict's relative tolerance moves down to ``lowest``; the gap over
    D_2* is that shift, up to the trace width.  The bytes are pinned as
    for the README trace."""
    out = tmp_path / "out"
    for name in ("compression_k2", "matched_k2"):
        path = SCENARIOS / f"{name}.json"
        sc = load_scenario(path)
        grid = f"{trivial_distortion(sc, 1)!r}:1:3"
        code, _ = run_cli(
            capsys, "trace", "--scenario", str(path), "--d1-grid", grid, "--out", str(out / name),
        )
        assert code == 0
        assert (out / name / "trace.csv").read_bytes() == B_LE_1_TRACE_CSV[name].encode()
        with (out / name / "trace.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        n2 = sc.noises[1]
        floor = n2 / (sc.power + n2 + DEFAULT_REL_TOL * bound_rhs(sc))
        lowest = sc.source_var * floor ** sc.bandwidth
        shift = lowest - trivial_distortion(sc, 2)
        assert len(rows) == 3
        for row in rows:
            assert shift - 1e-15 <= float(row["gap"]) <= shift + TRACE_WIDTH


def test_trace_infeasible_row(capsys, tmp_path):
    """A D_1 below the point-to-point floor D_1* = 0.5 leaves no feasible D_2:
    its row reads nan, and the other rows are the b <= 1 floor rows."""
    out = tmp_path / "out"
    code, payload = run_cli(
        capsys, "trace", "--scenario", str(SCENARIOS / "matched_k2.json"),
        "--d1-grid", "0.3:1:4", "--out", str(out),
    )
    assert code == 0
    assert payload["rows"] == 4
    floor_row = "0.24999999964999997,0.25,-3.5000002895912985e-10\r\n"
    assert (out / "trace.csv").read_bytes() == (
        "D1,D2_min,D2_trivial,gap\r\n"
        "0.3,nan,0.25,nan\r\n"
        f"0.5333333333333333,{floor_row}"
        f"0.7666666666666666,{floor_row}"
        f"1.0,{floor_row}"
    ).encode()


def test_trace_last_row_is_hi(capsys, tmp_path):
    """lo + (hi - lo) i / (count - 1) rounds above hi = N_S in the last row
    of this grid; that row is hi itself, so the grid is valid and traced."""
    out = tmp_path / "out"
    code, payload = run_cli(
        capsys, "trace", "--scenario", str(SCENARIOS / "compression_k2.json"),
        "--d1-grid", "0.0048679065618006155:1:73", "--out", str(out),
    )
    assert code == 0 and payload["rows"] == 73
    with (out / "trace.csv").open() as handle:
        d1 = [float(row["D1"]) for row in csv.DictReader(handle)]
    assert d1[0] == 0.0048679065618006155 and d1[-1] == 1.0 and d1 == sorted(d1)


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


README_TRACE_CSV = (
    'D1,D2_min,D2_trivial,gap\r\n'
    '0.25,0.09999430797878349,0.0625,0.03749430797878349\r\n'
    '0.255,0.08474433181122373,0.0625,0.022244331811223733\r\n'
    '0.26,0.07987506612604552,0.0625,0.017375066126045516\r\n'
    '0.265,0.0766418070280816,0.0625,0.014141807028081599\r\n'
    '0.27,0.07422943925518787,0.0625,0.011729439255187865\r\n'
    '0.275,0.07232663402765592,0.0625,0.00982663402765592\r\n'
    '0.28,0.07077594837419728,0.0625,0.008275948374197276\r\n'
    '0.285,0.06948518358293636,0.0625,0.006985183582936358\r\n'
    '0.29,0.06839514157400602,0.0625,0.005895141574006016\r\n'
    '0.295,0.06746531642347305,0.0625,0.004965316423473046\r\n'
    '0.3,0.066666666425,0.0625,0.004166666425000007\r\n'
    '0.305,0.06597761021440395,0.0625,0.003477610214403945\r\n'
    '0.31,0.06538164954937432,0.0625,0.002881649549374324\r\n'
    '0.315,0.06486587921218619,0.0625,0.0023658792121861866\r\n'
    '0.32,0.06442001135194063,0.0625,0.0019200113519406287\r\n'
    '0.325,0.0640357131727911,0.0625,0.001535713172791095\r\n'
    '0.33,0.0637061437737182,0.0625,0.0012061437737181935\r\n'
    '0.335,0.06342562168604327,0.0625,0.0009256216860432653\r\n'
    '0.34,0.06318938099331295,0.0625,0.0006893809933129491\r\n'
    '0.345,0.06299338899134603,0.0625,0.0004933889913460304\r\n'
    '0.35,0.06283420740236782,0.0625,0.00033420740236782265\r\n'
    '0.355,0.0627088853669931,0.0625,0.00020888536699309457\r\n'
    '0.36,0.06261487565452563,0.0625,0.00011487565452562853\r\n'
    '0.365,0.0625499683563487,0.0625,4.9968356348698006e-05\r\n'
    '0.37,0.06251223783057486,0.0625,1.2237830574857167e-05\r\n'
)


def test_readme_trace_csv_is_pinned(capsys, tmp_path):
    """The README's trace command writes exactly these bytes: each row's
    D_2,min is a float result of trace_boundary, so any change in the probes
    that moves a boundary shows here."""
    out = tmp_path / "trace"
    code, _ = run_cli(
        capsys, "trace", "--scenario", str(SCENARIOS / "expansion_k2.json"),
        "--d1-grid", "0.25:0.37:25", "--out", str(out),
    )
    assert code == 0
    assert (out / "trace.csv").read_bytes() == README_TRACE_CSV.encode()


# The README's other commands: argv, stdout, and the sha256 of each file written.
README_RUNS = {
    "eval": (
        ("eval", "--scenario", str(SCENARIOS / "matched_k2.json"), "--distortions", "0.5,0.25",
         "--tau", "1,0"),
        '{"command": "eval", "distortions": [0.5, 0.25], "extended": false, "lhs": 6.0, '
        '"rhs": 6.0, "satisfied": true, "slack": 0.0, "tau": [1.0, 0.0], "tolerance": 1e-09}\n',
        {},
    ),
    "eval-inf": (
        ("eval", "--scenario", str(SCENARIOS / "matched_k2.json"), "--distortions", "0.5,0.25",
         "--tau", "inf,0"),
        '{"command": "eval", "distortions": [0.5, 0.25], "extended": true, "lhs": 6.0, '
        '"rhs": 6.0, "satisfied": true, "slack": 0.0, "tau": ["inf", 0.0], "tolerance": 1e-09}\n',
        {},
    ),
    "figure1": (
        ("figure1", "--c1", "1", "--c2", "5", "--b", "0.5,1,2", "--samples", "512", "--out", "out/fig"),
        '{"all_nested": true, "command": "figure1", "outputs": ["out/fig/region_b0.5.csv", '
        '"out/fig/region_b1.0.csv", "out/fig/region_b2.0.csv", "out/fig/figure1_summary.json", '
        '"out/fig/figure1_manifest.json"]}\n',
        {
            "out/fig/figure1_manifest.json": "8773b467b373b7915f1449d7a65a8139a55e41110d3388462544448eb7c4855f",
            "out/fig/figure1_summary.json": "30cc78fec54a1493c48ee40dfd702bb5cb9dac56c7c00c396acf273175406612",
            "out/fig/region_b0.5.csv": "b96c65b12ded0941cd7aa216c494684952449f9886d0cfbd06ac09bfce6252f2",
            "out/fig/region_b1.0.csv": "bb7181060f91de80f926b589986c3300dd0337779e1e36541a41c4e7f9d765dc",
            "out/fig/region_b2.0.csv": "6d21a786421f47360ac12f360f558fe72eb2d632f51a0970068c4d14eb3c695a",
        },
    ),
    "simulate": (
        ("simulate", "--scenario", str(SCENARIOS / "matched_k2.json"), "--samples", "1000000",
         "--seed", "7"),
        '{"command": "simulate", "empirical": [0.49935400738738406, 0.2498875900439319], '
        '"empirical_power": 2.989948226760451, "generator": "philox", '
        '"power_std_err": 0.004219137177411445, "samples": 1000000, "seed": 7, '
        '"std_err": [0.0007055644300482037, 0.0003538551620734568], "theoretical": [0.5, 0.25]}\n',
        {},
    ),
}


@pytest.mark.parametrize("name", sorted(README_RUNS))
def test_readme_commands_are_pinned(capsys, tmp_path, monkeypatch, name):
    """The README's eval, figure1 and simulate commands, run from an empty
    working directory with a relative --out: the bytes of their stdout and
    the sha256 of every file they write.  With ``MEMBERSHIP_STDOUT`` and
    ``README_TRACE_CSV`` these pin every README command but verify-theorems."""
    argv, stdout, files = README_RUNS[name]
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == stdout
    written = (p for p in tmp_path.rglob("*") if p.is_file())
    assert {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in written} == files


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
    """The README example passes every self-check."""
    code, payload = run_cli(capsys, "verify-theorems", "--trials", "1000", "--seed", "42")
    assert code == 0
    validate_payload(payload, "verify.schema.json")
    assert payload["all_passed"] is True
    assert {c["name"] for c in payload["checks"]} >= {
        "matched-equality",
        "expansion-strict-violation",
        "minkowski-direction",
        "capacity-equivalence",
    }


def test_verify_theorems_failure_payload(capsys, monkeypatch):
    """A failing check exits 1 and reports its first witnesses in the schema."""
    import gbcbound.bound as bound_mod

    real = bound_mod.eval_lhs
    monkeypatch.setattr(bound_mod, "eval_lhs", lambda sc, d, tau: real(sc, d, tau) * 1.001)
    code, payload = run_cli(capsys, "verify-theorems", "--trials", "30", "--seed", "42")
    assert code == 1
    validate_payload(payload, "verify.schema.json")
    failed = {c["name"]: c for c in payload["checks"] if not c["passed"]}
    examples = failed["matched-equality"]["examples"]
    assert 0 < len(examples) <= 3
    assert {"draw", "scenario", "d", "tau", "margin"} <= set(examples[0])


def test_verify_theorems_zero_trials_warns(capsys):
    code, payload = run_cli(capsys, "verify-theorems", "--trials", "0")
    assert code == 0
    validate_payload(payload, "verify.schema.json")
    assert "warning" in payload


def test_verify_theorems_negative_trials_is_an_input_error(capsys, monkeypatch):
    """--trials -1 exits 2 with InputError, from the parser, before the
    self-checks are imported; it used to pass vacuously with exit 0."""
    monkeypatch.setitem(sys.modules, "gbcbound.verify", None)  # importing it would raise
    payload = _run_input_error(capsys, ["verify-theorems", "--trials", "-1"])
    assert payload["error"] == "InputError" and "--trials" in payload["message"]


FIGURE1_SHA256 = {
    "narrow/figure1_manifest.json": "9349da2f65e46de210b8d6b773b76ab6b381e6f0334271cfa2fb29c29fb5879e",
    "narrow/figure1_summary.json": "2150794acc3c628c3633e7c94595e355608fffe3ed27eb114e1fd666db604e5c",
    "narrow/region_b0.344.csv": "c2ef09e26a5e639c729bbdc3c72566cdc1cc25ec7b5f6540a67ad0ede48713f9",
    "narrow/region_b0.471.csv": "cc578f8bc48f4409cd98650ac54f58b0416b83fa81cd74f3e4c10a4cb5c0c79f",
    "fig/figure1_manifest.json": "25e66e5634beb9c1dcbed7370f7f5cbe040ce990ec2274f934a05272f0451ef0",
    "fig/figure1_summary.json": "a4e23977530257489c76bb53513e730c8232c6f69be472c36b89902b05c12332",
    "fig/region_b0.5.csv": "36ea837fcbbf91558496406421a174b5f385e35ab581626376fb509cbba07613",
    "fig/region_b1.0.csv": "482845b1abeb8a1e9c865e545d41190fa717194cb52dd85a1e1e5cea0a0a8081",
    "fig/region_b2.0.csv": "5fc86bdf03251c454ff996a601f4cbdba1729904577a437150cddd90cf252097",
}


def test_figure1_outputs(capsys, tmp_path):
    """Every output file is pinned by its sha256 (``FIGURE1_SHA256``)."""
    # the b = 0.344 region pokes out of the b = 0.471 one only between the 128
    # sampled splits, at a share of receiver 2 near 2e-8
    code, payload = run_cli(
        capsys,
        "figure1", "--c1", "2.92", "--c2", "5.37", "--b", "0.344,0.471", "--samples", "128",
        "--out", str(tmp_path / "narrow"),
    )
    assert code == 0
    assert payload["all_nested"] is True
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
    files = (p for p in tmp_path.rglob("*") if p.is_file())
    sha256s = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert sha256s == FIGURE1_SHA256


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
    code, payload = run_cli(
        capsys, "figure1", "--c1", "5", "--c2", "1", "--b", "1", "--out", str(tmp_path / "z")
    )
    assert code == 2
    assert payload["error"] == "InvalidCapacities"
    assert not (tmp_path / "z").exists()


@pytest.mark.parametrize(
    "b, error",
    [("0", "NonPositiveParameter"), ("inf", "NonPositiveParameter"),
     ("0.001", "NonPositiveParameter"), ("1,1", "InputError")],
)
def test_figure1_rejects_bad_bandwidths(capsys, tmp_path, b, error):
    out = tmp_path / "z"
    code, payload = run_cli(capsys, "figure1", "--c1", "1", "--c2", "5", "--b", b, "--out", str(out))
    assert code == 2
    assert payload["error"] == error and payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--distortions", "0.5,0.25", "--tau", "1,0"),
        ("membership", "--distortions", "0.5,0.25"),
        ("trace", "--d1-grid", "0.5:0.9:2"),
    ],
)
def test_tolerance_must_be_finite(capsys, matched, tmp_path, argv, tolerance):
    """--tolerance must be finite and >= 0: at -1, eval reported
    ``satisfied: false`` at lhs = rhs."""
    out = tmp_path / "t"
    out_arg = ("--out", str(out)) if argv[0] == "trace" else ()
    code, payload = run_cli(capsys, *argv, "--scenario", matched, "--tolerance", tolerance, *out_arg)
    assert code == 2
    assert payload["error"] == "InputError" and "tolerance" in payload["message"]
    assert not out.exists()


def test_tolerance_is_applied(capsys):
    """A valid --tolerance reaches the verdict: lhs exceeds rhs = 6 by 3.6%,
    which 0.05 allows and the default does not."""
    argv = ("eval", "--scenario", str(SCENARIOS / "expansion_k2.json"),
            "--distortions", "0.25,0.0625", "--tau", "1,0")
    code, payload = run_cli(capsys, *argv, "--tolerance", "0.05")
    assert code == 0 and payload["satisfied"] is True and payload["tolerance"] == 0.05
    code, payload = run_cli(capsys, *argv)
    assert code == 0 and payload["satisfied"] is False and payload["tolerance"] == DEFAULT_REL_TOL


@pytest.mark.parametrize(
    "argv",
    [
        ("figure1", "--c1", "1", "--c2", "5", "--b", "1,x", "--out", "D"),
        ("figure1", "--c1", "1", "--c2", "5", "--b", ",", "--out", "D"),
        ("trace", "--scenario", "{expansion}", "--d1-grid", "0.25:0.3", "--out", "D"),
        ("trace", "--scenario", "{expansion}", "--d1-grid", "0.25:0.3:x", "--out", "D"),
        ("trace", "--scenario", "{expansion}", "--d1-grid", "0.25:2:4", "--out", "D"),
        ("trace", "--scenario", "{expansion}", "--d1-grid", "0:0.3:4", "--out", "D"),
        ("trace", "--d1-grid", "0.25:0.3:3", "--out", "D"),
        ("trace", "--scenario", "not_json.json", "--d1-grid", "0.25:0.3:3", "--out", "D"),
        ("trace", "--scenario", "{expansion}", "--d1-grid", "0.25:0.3:3"),
        ("figure1", "--c1", "1", "--c2", "5", "--b", "1"),
        ("verify-theorems", "--trials", "-1"),
    ],
    ids=["list-entry", "list-empty", "grid-parts", "grid-count", "grid-above-ns",
         "grid-at-zero", "no-scenario", "scenario-not-json", "trace-no-out", "figure1-no-out",
         "negative-trials"],
)
def test_input_errors_write_nothing(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("not_json.json").write_text("{")
    before = sorted(tmp_path.iterdir())
    expansion = str(SCENARIOS / "expansion_k2.json")
    code, payload = run_cli(capsys, *(a.format(expansion=expansion) for a in argv))
    assert code == 2
    assert payload["error"] == "InputError" and payload["message"]
    assert sorted(tmp_path.iterdir()) == before


MATCHED = str(SCENARIOS / "matched_k2.json")
EVAL_ARGV = ("eval", "--scenario", MATCHED, "--distortions", "0.5,0.25", "--tau", "1,0")
FIGURE1_ARGV = ("figure1", "--c1", "1", "--c2", "5", "--b", "1")


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("eval", "--scenario", MATCHED, "--distortions", "0.5,0.25"),
        (*FIGURE1_ARGV, "--samples", "x", "--out", "D"),
        (*EVAL_ARGV, "--tolerance", "x"),
        (*EVAL_ARGV, "--out", "D"),
        ("membership", "--scenario", MATCHED, "--distortions", "0.5,0.25", "--out", "D"),
        ("verify-theorems", "--trials", "1", "--scenario", MATCHED),
        ("verify-theorems", "--trials", "1", "--tolerance", "1e-9"),
        ("verify-theorems", "--trials", "1", "--out", "D"),
        ("verify-theorems", "--trials", "-1"),
        (*FIGURE1_ARGV, "--out", "D", "--scenario", MATCHED),
        (*FIGURE1_ARGV, "--out", "D", "--tolerance", "1e-9"),
        ("simulate", "--scenario", MATCHED, "--samples", "8", "--tolerance", "1e-9", "--out", "D"),
        ("trace", "--scenario", MATCHED, "--d1-grid", "0.5:0.6:2", "--out", ""),
        (*FIGURE1_ARGV, "--out", ""),
        ("simulate", "--scenario", MATCHED, "--samples", "8", "--out", ""),
    ],
    ids=["no-subcommand", "eval-no-tau", "samples-not-int", "tolerance-not-number", "eval-out",
         "membership-out", "verify-scenario", "verify-tolerance", "verify-out", "verify-negative-trials",
         "figure1-scenario",
         "figure1-tolerance", "simulate-tolerance", "trace-out-empty", "figure1-out-empty",
         "simulate-out-empty"],
)
def test_usage_errors_are_input_errors(capsys, tmp_path, monkeypatch, argv):
    """A usage error, an option a subcommand does not take included, prints
    the InputError payload on stdout, nothing on stderr, and writes nothing."""
    monkeypatch.chdir(tmp_path)
    payload = _run_input_error(capsys, argv)
    assert payload["error"] == "InputError" and payload["message"]
    assert list(tmp_path.iterdir()) == []


def test_perfbench_cli_argv_exit_zero(capsys, tmp_path, monkeypatch):
    """The benchmark's cli-readme commands, which pass --seed to every
    subcommand, all run in process with exit 0."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(REPO)  # the argv name scenario files relative to the repository
    readme = workloads.CliReadme(7, workloads.Context(root=REPO, tmp=str(tmp_path)))
    assert len(readme.argv) == 5
    for argv in readme.argv.values():
        assert "--seed" in argv
        assert main(list(argv)) == 0, argv
    capsys.readouterr()


def test_perfbench_restates_the_package_tolerances(monkeypatch):
    """The benchmark's checks allow exactly the verdict's tolerance and the
    trace width, which it restates rather than imports."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert workloads.REL_TOL == DEFAULT_REL_TOL
    assert workloads.TRACE_WIDTH == TRACE_WIDTH


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--scenario", str(SCENARIOS / "expansion_k2.json"), "--d1-grid", "0.25:0.37:3"),
        ("figure1", "--c1", "1", "--c2", "5", "--b", "0.5,1", "--samples", "8"),
        ("figure1", "--c1", "1", "--c2", "5", "--b", "1", "--samples", "8", "--caption-literal"),
        ("simulate", "--scenario", str(SCENARIOS / "matched_k2.json"), "--samples", "100"),
    ],
    ids=["trace", "figure1", "figure1-literal", "simulate"],
)
def test_outputs_are_the_files_written(capsys, tmp_path, argv):
    """--out holds exactly the manifest's outputs and the manifest, and the
    payload lists their paths with the manifest last."""
    out = tmp_path / "out"
    code, payload = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0
    manifest_path = out / f"{argv[0]}_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    validate_payload(manifest, "manifest.schema.json")
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["outputs"], manifest_path.name])
    assert payload["outputs"] == [str(out / name) for name in manifest["outputs"]] + [str(manifest_path)]


def test_figure1_zero_samples_writes_nothing(capsys, tmp_path):
    out = tmp_path / "D"
    code, payload = run_cli(
        capsys, "figure1", "--c1", "1", "--c2", "5", "--b", "1", "--samples", "0", "--out", str(out)
    )
    assert code == 2
    assert payload["error"] == "InvalidSplit"
    assert not out.exists()


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


def _child_env() -> dict:
    """The environment of a child that imports the same package as this suite, installed or not."""
    package_root = str(Path(gbcbound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gbcbound", "--version"], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0
    assert "gbcbound" in proc.stdout


# Runs main(argv) in a fresh interpreter, then writes whether numpy and the grid search were loaded to stderr.
_NUMPY_PROBE = """
import sys
from gbcbound.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
sys.stderr.write(str(["numpy" in sys.modules, "gbcbound._search" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (EVAL_ARGV, False),
        (("figure1", "--c1", "1", "--c2", "5", "--b", "0.5,1,2", "--samples", "512", "--out", "fig"), False),
        (("membership", "--scenario", MATCHED, "--distortions", "0.6,0.3"), False),
        (("trace", "--scenario", MATCHED, "--d1-grid", "0.5:1:5", "--out", "trace"), False),
        (("--version",), False),
        (("verify-theorems", "--trials", "-1"), False),
        (("membership", "--scenario", "k1.json", "--distortions", "0.0625"), False),
        (("membership", "--scenario", str(SCENARIOS / "expansion_k2.json"), "--distortions", "0.25,0.0625"),
         False),
        (("trace", "--scenario", str(SCENARIOS / "expansion_k2.json"), "--d1-grid", "0.25:0.37:25",
          "--out", "trace"), False),
        (("membership", "--scenario", str(SCENARIOS / "expansion_k3.json"), "--distortions", "0.5,0.3,0.2"),
         True),
    ],
    ids=["eval", "figure1", "membership-b-le-1", "trace-b-le-1", "version", "input-error",
         "membership-k1-b-gt-1", "membership-b-gt-1", "trace-b-gt-1", "membership-k3-b-gt-1"],
)
def test_commands_load_numpy_only_for_a_grid(tmp_path, argv, loads_numpy):
    """Each command imports only what it runs: eval, figure1, a b <= 1
    membership or trace, a K = 1 or K = 2 membership and the README trace
    at b = 2, --version and an input error run in a process that loads
    neither numpy nor the grid search (``gbcbound._search``); a supremum at
    b > 1 and K >= 3 loads both."""
    (tmp_path / "k1.json").write_text(json.dumps(
        {"power": 3.0, "noises": [1.0], "bandwidth": 2.0, "source_var": 1.0}))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv], capture_output=True, text=True,
                          cwd=tmp_path, env=_child_env())
    assert proc.stderr == str([loads_numpy, loads_numpy]), proc.stderr


# The options each subcommand takes (dests), as README's CLI table lists them.
OPTIONS = {
    "eval": {"scenario", "tolerance", "seed", "distortions", "tau"},
    "membership": {"scenario", "tolerance", "seed", "distortions"},
    "trace": {"scenario", "tolerance", "out", "seed", "d1_grid"},
    "verify-theorems": {"seed", "trials"},
    "figure1": {"out", "seed", "c1", "c2", "b", "samples", "caption_literal"},
    "simulate": {"scenario", "seed", "out", "samples"},
}
IGNORES_SEED = {"eval", "membership", "trace", "figure1"}


@pytest.mark.parametrize(
    "argv",
    [
        EVAL_ARGV,
        ("membership", "--scenario", MATCHED, "--distortions", "0.5,0.25"),
        ("trace", "--scenario", str(SCENARIOS / "expansion_k2.json"), "--d1-grid", "0.25:0.3:2", "--out", "D"),
        ("verify-theorems", "--trials", "1"),
        ("figure1", "--c1", "1", "--c2", "5", "--b", "1,2", "--samples", "8", "--out", "D"),
        ("simulate", "--scenario", MATCHED, "--samples", "8", "--out", "D"),
    ],
    ids=lambda argv: argv[0],
)
def test_each_subcommand_reads_its_options(capsys, tmp_path, monkeypatch, argv):
    """Every option a subcommand declares is read by its handler, apart from
    --seed where it is accepted only for a uniform command line."""
    monkeypatch.chdir(tmp_path)
    parsed = build_parser().parse_args(list(argv))
    name = parsed.command
    assert set(vars(parsed)) - {"func", "command"} == OPTIONS[name]
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, attr):
            reads.add(attr)
            return super().__getattribute__(attr)

    recording = Recording(**vars(parsed))
    reads.clear()
    assert parsed.func(recording) == 0
    capsys.readouterr()
    ignored = {"seed"} if name in IGNORES_SEED else set()
    assert OPTIONS[name] - ignored - reads == set()
