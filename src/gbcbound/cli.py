"""Command-line surface: eval, membership, trace, verify-theorems, figure1, simulate.

Output is machine-first: one JSON payload on stdout per command, CSV
files for anything tabular, and a JSON manifest next to every file the
run produces.  Payloads are deterministic given the arguments and seed
(no timestamps, sorted keys, shortest round-trip float formatting), so
reruns are byte-for-byte reproducible.

+infinity is spelled ``inf`` everywhere: in schedule arguments and in
JSON payloads (as the string "inf", keeping the output strict JSON).

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__
from .bound import check_inequality
from .capacity import (
    GaussianBC,
    boundary_rates,
    containment,
    scenario_from_capacities,
    split_grid,
)
from .core import (
    BroadcastScenario,
    load_scenario,
    scenario_to_dict,
    trivial_distortion,
)
from .errors import (
    InfeasibleEverywhere,
    InputError,
    VerificationFailure,
)
from .membership import in_outer_region, trace_boundary
from .simulate import SimConfig, run_analog
from .verify import run_all_checks

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _json_safe(value):
    """Map +-inf to the strings "inf"/"-inf" so payloads stay strict JSON."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(payload: dict) -> None:
    print(json.dumps(_json_safe(payload), sort_keys=True))


def _parse_float(token: str, what: str) -> float:
    token = token.strip()
    if token == "inf":
        return math.inf
    try:
        value = float(token)
    except ValueError as exc:
        raise InputError(f"cannot parse {what} entry {token!r}") from exc
    if math.isinf(value) or math.isnan(value):
        raise InputError(f"{what} entry {token!r} not accepted; spell infinity as 'inf'")
    return value


def _parse_list(text: str, what: str) -> tuple[float, ...]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise InputError(f"{what} list is empty")
    return tuple(_parse_float(t, what) for t in items)


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid must be lo:hi:count, got {text!r}")
    lo = _parse_float(parts[0], "grid")
    hi = _parse_float(parts[1], "grid")
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise InputError(f"grid count must be an integer, got {parts[2]!r}") from exc
    if count < 1 or not lo <= hi:
        raise InputError(f"grid needs lo <= hi and count >= 1, got {text!r}")
    return lo, hi, count


def _load_scenario_arg(args) -> BroadcastScenario:
    if args.scenario is None:
        raise InputError("--scenario FILE is required for this command")
    try:
        return load_scenario(args.scenario)
    except FileNotFoundError as exc:
        raise InputError(f"scenario file not found: {args.scenario}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario file is not valid JSON: {exc}") from exc


def _write_manifest(
    outdir: Path, command: str, scenario, parameters: dict, outputs: list[str]
) -> Path:
    manifest = {
        "command": command,
        "scenario": scenario_to_dict(scenario) if scenario is not None else None,
        "parameters": parameters,
        "outputs": outputs,
        "tool_version": __version__,
    }
    path = outdir / f"{command}_manifest.json"
    path.write_text(json.dumps(_json_safe(manifest), sort_keys=True, indent=2) + "\n")
    return path


def _ensure_outdir(args) -> Path:
    if args.out is None:
        raise InputError("--out DIR is required for this command")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_eval(args) -> int:
    scenario = _load_scenario_arg(args)
    distortions = _parse_list(args.distortions, "distortions")
    taus = _parse_list(args.tau, "tau")
    result = check_inequality(scenario, distortions, taus, rel_tol=args.tolerance)
    _emit(
        {
            "command": "eval",
            "lhs": result.lhs,
            "rhs": result.rhs,
            "slack": result.slack,
            "satisfied": result.satisfied,
            "tolerance": result.tolerance,
            "distortions": list(distortions),
            "tau": list(taus),
            "extended": any(math.isinf(t) for t in taus),
        }
    )
    return EXIT_OK


def cmd_membership(args) -> int:
    scenario = _load_scenario_arg(args)
    distortions = _parse_list(args.distortions, "distortions")
    verdict = in_outer_region(scenario, distortions, rel_tol=args.tolerance)
    _emit(
        {
            "command": "membership",
            "member": verdict.member,
            "margin": verdict.margin,
            "rhs": verdict.rhs,
            "tolerance": verdict.tolerance,
            "sup_value": verdict.sup.sup_value,
            "argmax_tau": list(verdict.sup.argmax_tau.taus),
            "argmax_t": list(verdict.sup.argmax_t),
            "iterations": verdict.sup.iterations,
            "certified_gap": verdict.sup.certified_gap,
            "distortions": list(distortions),
        }
    )
    return EXIT_OK


def cmd_trace(args) -> int:
    scenario = _load_scenario_arg(args)
    if scenario.num_receivers != 2:
        raise InputError("trace's default mode expects a two-receiver scenario")
    lo, hi, count = _parse_grid(args.d1_grid)
    ns = scenario.source_var
    if not (0.0 < lo and hi <= ns):
        raise InputError(f"D_1 grid ({lo}, {hi}) outside (0, N_S = {ns}]")
    outdir = _ensure_outdir(args)
    d2_trivial = trivial_distortion(scenario, 2)
    rows = []
    for i in range(count):
        d1 = lo if count == 1 else lo + (hi - lo) * i / (count - 1)
        try:
            d2_min = trace_boundary(scenario, (d1,), rel_tol=args.tolerance)
            gap = d2_min - d2_trivial
        except InfeasibleEverywhere:
            d2_min, gap = math.nan, math.nan
        rows.append((d1, d2_min, d2_trivial, gap))
    csv_path = outdir / "trace.csv"
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["D1", "D2_min", "D2_trivial", "gap"])
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    manifest = _write_manifest(
        outdir,
        "trace",
        scenario,
        {"d1_grid": args.d1_grid, "tolerance": args.tolerance},
        [csv_path.name],
    )
    _emit(
        {
            "command": "trace",
            "rows": len(rows),
            "outputs": [str(csv_path), str(manifest)],
        }
    )
    return EXIT_OK


def cmd_verify_theorems(args) -> int:
    results = run_all_checks(trials=args.trials, seed=args.seed)
    payload = {
        "command": "verify-theorems",
        "trials": args.trials,
        "seed": args.seed,
        "checks": [
            {
                "name": r.name,
                "trials": r.trials,
                "failures": r.failures,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    if args.trials <= 0:
        payload["warning"] = "zero trials requested: every check passed vacuously"
    _emit(payload)
    return EXIT_OK if payload["all_passed"] else EXIT_VERIFICATION


def cmd_figure1(args) -> int:
    if not args.c1 < args.c2:
        raise InputError(f"need C1 < C2, got {args.c1} >= {args.c2}")
    bandwidths = _parse_list(args.b, "b")
    if any(b <= 0 or math.isinf(b) for b in bandwidths):
        raise InputError("bandwidth values must be finite and > 0")
    outdir = _ensure_outdir(args)
    outputs = []
    channels = {}
    for b in bandwidths:
        scenario = scenario_from_capacities(args.c1, args.c2, b)
        ch = GaussianBC(scenario.power, scenario.noises)
        channels[b] = ch
        csv_path = outdir / f"region_b{_fmt(b)}.csv"
        with csv_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            header = ["alpha", "R1", "R2"]
            if args.caption_literal:
                header.append("R2_literal")
            writer.writerow(header)
            for split in split_grid(2, args.samples):
                alpha = split[1]  # share of the better user, as in the region definition
                point = boundary_rates(ch, split, b)
                row = [_fmt(alpha), _fmt(point.rates[0]), _fmt(point.rates[1])]
                if args.caption_literal:
                    # literal form with the stronger user's bound printed over N_1
                    literal = 0.5 * b * math.log2(
                        (alpha * ch.power + ch.noises[1]) / ch.noises[0]
                    )
                    row.append(_fmt(literal))
                writer.writerow(row)
        outputs.append(csv_path.name)
        corner1 = boundary_rates(ch, (1.0, 0.0), b).rates[0]
        corner2 = boundary_rates(ch, (0.0, 1.0), b).rates[1]
        channels[b] = (ch, corner1, corner2)
    ordered = sorted(bandwidths)
    nesting = []
    for b_lo, b_hi in zip(ordered, ordered[1:]):
        ch_lo, ch_hi = channels[b_lo][0], channels[b_hi][0]
        inside = containment(ch_hi, ch_lo, b_hi, b_lo, samples=args.samples)
        reverse = containment(ch_lo, ch_hi, b_lo, b_hi, samples=args.samples)
        nesting.append(
            {
                "b_inner": b_hi,
                "b_outer": b_lo,
                "contained": inside.contained,
                "strict": not reverse.contained,
                "strict_witness": list(reverse.witness.rates) if reverse.witness else None,
            }
        )
    summary = {
        "command": "figure1",
        "c1": args.c1,
        "c2": args.c2,
        "bandwidths": list(bandwidths),
        "corners": {
            _fmt(b): {"R1_corner": channels[b][1], "R2_corner": channels[b][2]}
            for b in bandwidths
        },
        "nesting": nesting,
        "all_nested": all(n["contained"] and n["strict"] for n in nesting),
        "outputs": outputs,
    }
    summary_path = outdir / "figure1_summary.json"
    summary_path.write_text(json.dumps(_json_safe(summary), sort_keys=True, indent=2) + "\n")
    outputs.append(summary_path.name)
    manifest = _write_manifest(
        outdir,
        "figure1",
        None,
        {
            "c1": args.c1,
            "c2": args.c2,
            "b": args.b,
            "samples": args.samples,
            "caption_literal": bool(args.caption_literal),
        },
        outputs,
    )
    _emit(
        {
            "command": "figure1",
            "all_nested": summary["all_nested"],
            "outputs": [str(outdir / name) for name in outputs] + [str(manifest)],
        }
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load_scenario_arg(args)
    cfg = SimConfig(scenario=scenario, samples=args.samples, seed=args.seed)
    report = run_analog(cfg)
    payload = {"command": "simulate", **report.to_dict()}
    if args.out is not None:
        outdir = _ensure_outdir(args)
        report_path = outdir / "simulate_report.json"
        report_path.write_text(json.dumps(_json_safe(payload), sort_keys=True, indent=2) + "\n")
        manifest = _write_manifest(
            outdir,
            "simulate",
            scenario,
            {"samples": args.samples, "seed": args.seed},
            [report_path.name],
        )
        payload["outputs"] = [str(report_path), str(manifest)]
    _emit(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbcbound",
        description="Outer bounds on the distortion region of Gaussian broadcast, "
        "with membership search, capacity cross-checks, and analog simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help="JSON scenario file (power, noises, bandwidth, source_var)")
    common.add_argument("--tolerance", type=float, default=1e-9, help="relative comparison tolerance")
    common.add_argument("--seed", type=int, default=42, help="random seed")
    common.add_argument("--out", help="output directory for files and manifests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate one inequality of the family")
    p.add_argument("--distortions", required=True, help="comma list, e.g. 0.5,0.25")
    p.add_argument("--tau", required=True, help="comma list, nonincreasing, last 0; 'inf' allowed")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("membership", parents=[common], help="decide region membership via the schedule supremum")
    p.add_argument("--distortions", required=True, help="comma list, e.g. 0.5,0.25")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("trace", parents=[common], help="trace the minimal D_2 over a D_1 grid (K = 2)")
    p.add_argument("--d1-grid", dest="d1_grid", required=True, help="lo:hi:count")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify-theorems", parents=[common], help="run the randomized self-check suites")
    p.add_argument("--trials", type=int, default=1000, help="sample-count scale for the suites")
    p.set_defaults(func=cmd_verify_theorems)

    p = sub.add_parser("figure1", parents=[common], help="capacity regions at fixed point-to-point capacities")
    p.add_argument("--c1", type=float, required=True, help="point-to-point capacity of user 1 [bits]")
    p.add_argument("--c2", type=float, required=True, help="point-to-point capacity of user 2 [bits]")
    p.add_argument("--b", required=True, help="comma list of bandwidth factors, e.g. 0.5,1,2")
    p.add_argument("--samples", type=int, default=512, help="boundary samples per region")
    p.add_argument("--caption-literal", action="store_true", help="also emit the literal printed R2 form")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo analog transmission at b = 1")
    p.add_argument("--samples", type=int, default=10**6, help="number of source samples")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_INPUT
    except VerificationFailure as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
