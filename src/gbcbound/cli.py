"""Command-line surface: eval, membership, trace, verify-theorems, figure1, simulate.

Output is machine-first: one JSON payload on stdout per command, CSV
files for anything tabular, and a JSON manifest next to every file the
run produces.  Payloads are deterministic given the arguments and seed
(no timestamps, sorted keys, shortest round-trip float formatting), so
reruns are byte-for-byte reproducible.

Each subcommand declares only the options it reads, plus ``--seed``,
which every subcommand accepts.  Every input error, a usage error of the
parser included, prints one payload ``{"error", "message"}`` on stdout and
exits 2.  A command checks every input and computes all of its output
before it writes anything: an input error leaves no ``--out`` directory
behind.  One writer, ``_write_outputs``, creates ``--out`` and writes the
files and their manifest.

Each ``cmd_*`` handler imports the modules that only it runs, so a
process loads what its command needs: numpy only with ``simulate`` or a
b > 1, K >= 2 supremum (``membership``, ``trace``, ``verify-theorems``).

+infinity is spelled ``inf`` everywhere: in schedule arguments and in
JSON payloads (as the string "inf", keeping the output strict JSON).

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__
from .bound import DEFAULT_REL_TOL, check_inequality
from .core import json_safe, load_scenario, trivial_distortion
from .errors import InfeasibleEverywhere, InputError

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _emit(payload: dict) -> None:
    print(json.dumps(json_safe(payload), sort_keys=True))


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


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(json_safe(payload), sort_keys=True, indent=2) + "\n")


def _write_outputs(outdir: Path, command: str, scenario, parameters: dict, files: dict) -> list[str]:
    """Create ``outdir`` and write ``files`` in order, then the manifest
    ``<command>_manifest.json`` that lists them; return the paths written,
    the manifest last.

    ``files`` maps a file name to CSV rows (``.csv``) or a dict (``.json``).
    ``csv`` writes a Python float as its ``repr``, so rows hold plain floats.
    This is the only code that creates a directory or writes a file.
    """
    manifest = {"command": command, "scenario": scenario, "parameters": parameters,
                "outputs": list(files), "tool_version": __version__}
    files = {**files, f"{command}_manifest.json": manifest}
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if name.endswith(".csv"):
            with (outdir / name).open("w", newline="") as handle:
                csv.writer(handle).writerows(content)
        else:
            _write_json(outdir / name, content)
    return [str(outdir / name) for name in files]


def cmd_eval(args) -> int:
    scenario = load_scenario(args.scenario)
    distortions = _parse_list(args.distortions, "distortions")
    taus = _parse_list(args.tau, "tau")
    result = check_inequality(scenario, distortions, taus, rel_tol=args.tolerance)
    _emit(
        {
            "command": "eval",
            **dataclasses.asdict(result),
            "distortions": list(distortions),
            "tau": list(taus),
            "extended": any(math.isinf(t) for t in taus),
        }
    )
    return EXIT_OK


def cmd_membership(args) -> int:
    from .membership import in_outer_region

    scenario = load_scenario(args.scenario)
    distortions = _parse_list(args.distortions, "distortions")
    verdict = in_outer_region(scenario, distortions, rel_tol=args.tolerance)
    _emit(
        {
            "command": "membership",
            "member": verdict.member,
            "certified": verdict.certified,
            "margin": verdict.margin,
            "rhs": verdict.rhs,
            "tolerance": verdict.tolerance,
            "sup_value": verdict.sup.sup_value,
            "argmax_tau": list(verdict.sup.argmax_tau.taus),
            "argmax_t": list(verdict.sup.argmax_t),
            "iterations": verdict.sup.iterations,
            "sup_upper": verdict.sup.sup_upper,
            "distortions": list(distortions),
        }
    )
    return EXIT_OK


def cmd_trace(args) -> int:
    from .membership import trace_boundary

    scenario = load_scenario(args.scenario)
    if scenario.num_receivers != 2:
        raise InputError(f"trace needs K = 2 receivers, got K = {scenario.num_receivers}")
    lo, hi, count = _parse_grid(args.d1_grid)
    ns = scenario.source_var
    if not (0.0 < lo and hi <= ns):
        raise InputError(f"D_1 grid ({lo}, {hi}) outside (0, N_S = {ns}]")
    d2_trivial = trivial_distortion(scenario, 2)
    rows = [("D1", "D2_min", "D2_trivial", "gap")]
    for i in range(count):
        # the last row is hi itself: the formula can round past it, even past N_S
        d1 = lo if count == 1 else hi if i == count - 1 else lo + (hi - lo) * i / (count - 1)
        try:
            d2_min = trace_boundary(scenario, (d1,), rel_tol=args.tolerance)
            gap = d2_min - d2_trivial
        except InfeasibleEverywhere:
            d2_min, gap = math.nan, math.nan
        rows.append((d1, d2_min, d2_trivial, gap))
    parameters = {"d1_grid": args.d1_grid, "tolerance": args.tolerance}
    outputs = _write_outputs(args.out, "trace", scenario, parameters, {"trace.csv": rows})
    _emit(
        {
            "command": "trace",
            "rows": count,
            "outputs": outputs,
        }
    )
    return EXIT_OK


def cmd_verify_theorems(args) -> int:
    from .verify import run_all_checks

    results = run_all_checks(trials=args.trials, seed=args.seed)
    payload = {
        "command": "verify-theorems",
        "trials": args.trials,
        "seed": args.seed,
        "checks": [{**dataclasses.asdict(r), "passed": r.passed} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if args.trials == 0:
        payload["warning"] = "zero trials requested: every check passed vacuously"
    _emit(payload)
    return EXIT_OK if payload["all_passed"] else EXIT_VERIFICATION


def cmd_figure1(args) -> int:
    from .capacity import boundary_rates, nesting, scenario_from_capacities, split_grid

    bandwidths = _parse_list(args.b, "b")
    scenarios = {b: scenario_from_capacities(args.c1, args.c2, b) for b in bandwidths}
    if len(scenarios) < len(bandwidths):
        raise InputError(f"--b lists a bandwidth more than once: {args.b}")
    splits = split_grid(2, args.samples)
    header = ["alpha", "R1", "R2"]
    if args.caption_literal:
        header.append("R2_literal")
    files = {}
    corners = {}
    for b, sc in scenarios.items():
        rows = [header]
        for split in splits:
            alpha = split[1]  # share of the better user, as in the region definition
            point = boundary_rates(sc, split)
            row = [alpha, point.rates[0], point.rates[1]]
            if args.caption_literal:
                # literal form with the stronger user's bound printed over N_1
                row.append(0.5 * b * math.log2((alpha * sc.power + sc.noises[1]) / sc.noises[0]))
            rows.append(row)
        files[f"region_b{b!r}.csv"] = rows
        corners[repr(b)] = {
            "R1_corner": boundary_rates(sc, (1.0, 0.0)).rates[0],
            "R2_corner": boundary_rates(sc, (0.0, 1.0)).rates[1],
        }
    ordered = sorted(bandwidths)
    pairs = []
    for b_lo, b_hi in zip(ordered, ordered[1:]):
        nest = nesting(scenarios[b_lo], scenarios[b_hi], args.samples)
        witness = list(nest.witness.rates) if nest.strict else None
        pairs.append({"b_inner": b_hi, "b_outer": b_lo, "contained": nest.contained,
                      "strict": nest.strict, "strict_witness": witness})
    summary = {
        "command": "figure1",
        "c1": args.c1,
        "c2": args.c2,
        "bandwidths": list(bandwidths),
        "corners": corners,
        "nesting": pairs,
        "all_nested": all(n["contained"] and n["strict"] for n in pairs),
        "outputs": list(files),
    }
    files["figure1_summary.json"] = summary
    outputs = _write_outputs(
        args.out,
        "figure1",
        None,
        {
            "c1": args.c1,
            "c2": args.c2,
            "b": args.b,
            "samples": args.samples,
            "caption_literal": bool(args.caption_literal),
        },
        files,
    )
    _emit(
        {
            "command": "figure1",
            "all_nested": summary["all_nested"],
            "outputs": outputs,
        }
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulate import SimConfig, run_analog

    scenario = load_scenario(args.scenario)
    cfg = SimConfig(scenario=scenario, samples=args.samples, seed=args.seed)
    report = run_analog(cfg)
    payload = {"command": "simulate", **dataclasses.asdict(report)}
    if args.out is not None:
        parameters = {"samples": args.samples, "seed": args.seed}
        files = {"simulate_report.json": payload}  # written before "outputs" is added
        payload["outputs"] = _write_outputs(args.out, "simulate", scenario, parameters, files)
    _emit(payload)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ``InputError``, so that they take
    the one input-error path in ``main``.  Subparsers share the class."""

    def error(self, message):
        raise InputError(message)


def _tolerance(text: str) -> float:
    """``--tolerance``: a relative tolerance, finite and >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _trials(text: str) -> int:
    """``--trials``: a count, an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _outdir(text: str) -> Path:
    """``--out``: a directory path; an empty one would mean the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("must be a nonempty path")
    return Path(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gbcbound",
        description="Outer bounds on the distortion region of Gaussian broadcast, "
        "with membership search, capacity cross-checks, and analog simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", required=True,
                          help="JSON scenario file (power, noises, bandwidth, source_var)")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=_tolerance, default=DEFAULT_REL_TOL,
                           help="relative comparison tolerance, finite and >= 0")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=_outdir, required=True, help="output directory for files and manifests")
    seed = argparse.ArgumentParser(add_help=False)
    # Every subcommand accepts --seed, though only verify-theorems and simulate
    # read it: perfbench's cli-readme workload passes it to all of them.
    seed.add_argument("--seed", type=int, default=42, help="random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[scenario, tolerance, seed], help="evaluate one inequality of the family")
    p.add_argument("--distortions", required=True, help="comma list, e.g. 0.5,0.25")
    p.add_argument("--tau", required=True, help="comma list, nonincreasing, last 0; 'inf' allowed")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("membership", parents=[scenario, tolerance, seed],
                       help="decide region membership via the schedule supremum")
    p.add_argument("--distortions", required=True, help="comma list, e.g. 0.5,0.25")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("trace", parents=[scenario, tolerance, out, seed],
                       help="trace the minimal D_2 over a D_1 grid (K = 2)")
    p.add_argument("--d1-grid", dest="d1_grid", required=True, help="lo:hi:count")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify-theorems", parents=[seed], help="run the randomized self-check suites")
    p.add_argument("--trials", type=_trials, default=1000, help="sample-count scale for the suites, >= 0")
    p.set_defaults(func=cmd_verify_theorems)

    p = sub.add_parser("figure1", parents=[out, seed], help="capacity regions at fixed point-to-point capacities")
    p.add_argument("--c1", type=float, required=True, help="point-to-point capacity of user 1 [bits]")
    p.add_argument("--c2", type=float, required=True, help="point-to-point capacity of user 2 [bits]")
    p.add_argument("--b", required=True, help="comma list of bandwidth factors, e.g. 0.5,1,2")
    p.add_argument("--samples", type=int, default=512, help="boundary samples per region")
    p.add_argument("--caption-literal", action="store_true", help="also emit the literal printed R2 form")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("simulate", parents=[scenario, seed], help="Monte Carlo analog transmission at b = 1")
    p.add_argument("--out", type=_outdir, help="output directory for the report and its manifest")
    p.add_argument("--samples", type=int, default=10**6, help="number of source samples")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
