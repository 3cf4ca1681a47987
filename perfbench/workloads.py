"""The three benchmark workloads: inputs drawn from a seed, the operations, and their checks.

Every workload is a closed loop with one client: the next operation is
issued when the previous one has returned.  Operations come in rounds of
fixed composition, so runs at different seeds measure the same mix.

Each check uses facts that do not come from the code under test: the
point-to-point floor D_k* = N_S (N_k / (P + N_k))^b, the functional written
out from its definition, the analytic regime rules, an achievable scheme,
the payload schemas in docs/schemas, and schedules probed through
``bound.check_inequality``.  A check that fails counts the operation as
failed; no check is ever skipped.  The known defects of the code are
reproduced once per traced run by ``known_defects``, outside the workloads.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from gbcbound import bound, cli, membership
from gbcbound.core import BroadcastScenario
from speed import reference_lhs

# Restated from the package: membership's relative comparison tolerance and
# trace_boundary's bisection width.  The checks allow exactly these.
REL_TOL = 1e-9
TRACE_WIDTH = 1e-10
ULP_SLACK = 1e-12


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    meta: dict = field(default_factory=dict)


@dataclass
class Context:
    root: Path
    tmp: str  # directory for CLI output files, relative to root


def floor(sc: BroadcastScenario, k: int, rel_tol: float = 0.0) -> float:
    """Smallest D_k passing the step-schedule inequality for receiver k (0-based).

    With rel_tol = 0 this is the point-to-point optimum D_k*.  With the
    membership tolerance it is the smallest D_k any member can have.
    """
    nk = sc.noises[k]
    extra = rel_tol * (sc.power + sc.noises[0])
    return sc.source_var * (nk / (sc.power + nk + extra)) ** sc.bandwidth


def _log_scale(u: float, lo: float, hi: float) -> float:
    """Map u in [0, 1) to [lo, hi), uniformly in log scale."""
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


class RowChecker:
    """Checks boundary rows D_K,min against the floor, the b <= 1 identity and monotonicity."""

    def __init__(self) -> None:
        self._last: dict = {}

    def check(self, sc: BroadcastScenario, prefix, dk: float, seq, index: int) -> str | None:
        k = sc.num_receivers
        lowest = floor(sc, k - 1, REL_TOL)
        where = f"row {prefix} (K={k}, b={sc.bandwidth})"
        last = self._last.get(seq) if index else None
        self._last[seq] = dk
        if not dk >= lowest * (1.0 - ULP_SLACK):
            return f"{where}: D_K,min {dk!r} below the floor {lowest!r}"
        if k == 2 and sc.bandwidth <= 1.0 and dk - lowest > TRACE_WIDTH + ULP_SLACK:
            return f"{where}: D_2,min {dk!r} above the floor {lowest!r} by more than the bisection width"
        if last is not None and dk > last + TRACE_WIDTH + ULP_SLACK:
            return f"{where}: D_K,min {dk!r} rose from {last!r} as D_1 increased"
        return None


# --------------------------------------------------------------------------
# membership-stream

KS = (2, 3, 5, 8, 16)
REGIMES = {"compression": (0.25, 0.9), "matched": (1.0, 1.0), "expansion": (1.1, 4.0)}
# Share of queries drawn as non-members.  It is a choice, not taken from
# any traffic: enough that every block of rounds checks both verdicts at
# every (K, regime) pair.  The exhaustive grid costs the same either way; a
# supremum that stops at the first violation would make non-members cheap.
NONMEMBER_SHARE = 0.25
# A round is one query for each (K, regime) pair.  Within each block of
# STRATA rounds, the draws of one pair form a Latin hypercube: each input's
# range is cut into STRATA equal parts, and every part is used once.  The
# inputs keep their distribution, but every run covers each range evenly,
# so the costly, widely spread K = 8 and 16 queries vary less from seed to
# seed.  The first block is built in set-up; it is also the fixed set the
# exact counts of the traced run are taken over.
STRATA = 16
ROUNDS_BUILT = STRATA
# Schedule probe: the two-level family tau_1 = ... = tau_m = s, rest 0, for
# s from 1e-6 to 1e6 (two per decade) and s = inf, plus seeded random
# schedules and the reported argmax scaled down and up.
PROBE_LEVELS = tuple(10.0 ** (e / 2) for e in range(-12, 13)) + (math.inf,)
PROBE_RANDOM = 8
PROBE_SCALES = (0.5, 2.0)


def separation(sc: BroadcastScenario, weights) -> list[float]:
    """Distortions reached by digital separation, an achievable scheme.

    A superposition code gives layer j the power share weights[j] / sum and
    is decoded by receivers j..K-1, with the layers above it as noise; the
    source is successively refined over the layers.  So
    D_k = N_S prod_{j<=k} ((A_j + N_j) / (A_j + P_j + N_j))^b, where P_j is
    layer j's power and A_j the power of the layers above it.
    """
    total = sum(weights)
    power = [sc.power * w / total for w in weights]
    d, level = [], sc.source_var
    for j, nj in enumerate(sc.noises):
        above = sum(power[j + 1:])
        level *= ((above + nj) / (above + power[j] + nj)) ** sc.bandwidth
        d.append(level)
    return d


class MembershipStream:
    """Independent ``in_outer_region`` queries near the point-to-point floors, with known verdicts."""

    name = "membership-stream"
    exact_rounds = ROUNDS_BUILT  # rounds the traced run takes its exact counts over

    def __init__(self, seed: int, ctx: Context) -> None:
        self.seed = seed
        self._rng = random.Random(f"membership-stream:{seed}")
        self._blocks: dict[tuple, list] = {}
        self._count = 0
        self._pool = [self._round() for _ in range(ROUNDS_BUILT)]
        self._shortfall: dict[int, float] = {}

    def _op(self, sc: BroadcastScenario, d: tuple, member: bool) -> Op:
        self._count += 1
        meta = {"sc": sc, "d": d, "member": member, "index": self._count}
        return Op(f"K{sc.num_receivers}", partial(self._query, sc, d), meta)

    @staticmethod
    def _query(sc, d):
        return membership.in_outer_region(sc, d)

    def _round(self) -> list[Op]:
        ops = []
        for k in KS:
            for lo, hi in REGIMES.values():
                ops.append(self._op(*self._draw(k, lo, hi)))
        return ops

    def _uniforms(self, pair: tuple, dims: int) -> Iterator[float]:
        """The next point of ``pair``'s Latin hypercube: one uniform per input."""
        block = self._blocks.get(pair)
        if not block:
            strata = [self._rng.sample(range(STRATA), STRATA) for _ in range(dims)]
            block = self._blocks[pair] = [list(point) for point in zip(*strata)]
        return iter([(s + self._rng.random()) / STRATA for s in block.pop()])

    def _draw(self, k: int, b_lo: float, b_hi: float) -> tuple:
        """A K-receiver scenario with b in [b_lo, b_hi], a D near the floors, and its verdict.

        The verdict follows from the paper's regime rules and from
        achievability, not from the code.  A member lies above a point the
        outer region must contain: the floors D_k* where b <= 1, since the
        region is then the trivial box, and an achievable separation point
        where b > 1.  A non-member has one D_j below its floor D_j*, which
        the step schedule excludes.
        """
        u = self._uniforms((k, b_lo), 3 * k + 4)
        b = _log_scale(next(u), b_lo, b_hi)
        noises = [_log_scale(next(u), 0.1, 10.0)]
        for _ in range(k - 1):
            noises.append(noises[-1] / _log_scale(next(u), 1.2, 3.0))
        sc = BroadcastScenario(_log_scale(next(u), 0.1, 10.0), tuple(noises), b)
        weights = [0.05 + next(u) for _ in range(k)]
        base = separation(sc, weights) if b > 1.0 else [floor(sc, i) for i in range(k)]
        shifts = [next(u) for _ in range(k)]
        d = [x * (sc.source_var / x) ** (0.15 * s) for x, s in zip(base, shifts)]
        member = next(u) >= NONMEMBER_SHARE
        j = min(int(next(u) * k), k - 1)
        if not member:
            fj = floor(sc, j)
            d[j] = fj * (fj / sc.source_var) ** (0.01 + 0.14 * shifts[j])
        return sc, tuple(d), member

    def rounds(self, in_process: bool = True) -> Iterator[list[Op]]:
        yield from self._pool
        while True:
            yield self._round()

    def _probe(self, sc, d, argmax, index):
        """Largest lhs over the probe schedules, and the schedule giving it."""
        k = sc.num_receivers
        rng = random.Random(f"{self.seed}:probe:{index}")
        schedules = [(s,) * m + (0.0,) * (k - m) for m in range(1, k) for s in PROBE_LEVELS]
        for _ in range(PROBE_RANDOM):
            free = sorted((10.0 ** rng.uniform(-6, 6) for _ in range(k - 1)), reverse=True)
            schedules.append(tuple(free) + (0.0,))
        schedules += [tuple(t * f for t in argmax) for f in PROBE_SCALES]
        best, best_tau = -math.inf, None
        for tau in schedules:
            lhs = bound.check_inequality(sc, d, tau).lhs
            if lhs > best:
                best, best_tau = lhs, tau
        return best, best_tau

    def check(self, op: Op, verdict) -> str | None:
        sc, d = op.meta["sc"], op.meta["d"]
        rhs = sc.power + sc.noises[0]
        argmax = verdict.sup.argmax_tau.taus
        where = f"query {op.meta['index']} (K={len(d)}, b={sc.bandwidth!r})"
        if verdict.member != op.meta["member"]:
            return f"{where}: verdict member={verdict.member}, but D is known to be member={op.meta['member']}"
        if not verdict.member and bound.check_inequality(sc, d, argmax).satisfied:
            return f"{where}: non-member verdict, but its argmax {argmax} satisfies the bound"
        best, tau = self._probe(sc, d, argmax, op.meta["index"])
        self._shortfall[op.meta["index"]] = (best - verdict.sup.sup_value) / rhs
        if verdict.member and best > rhs * (1.0 + REL_TOL):
            return f"{where}: member verdict, but schedule {tau} gives lhs {best!r} > rhs {rhs!r}"
        return None

    def counters(self, ops: list[Op]) -> dict:
        """Largest probe shortfall over ``ops``, floored at 0."""
        return {"sup_shortfall_rel": max([0.0] + [self._shortfall[op.meta["index"]] for op in ops])}


# --------------------------------------------------------------------------
# boundary-trace

# expansion_k2's channel at its own b = 2 and at b = 0.5 and 1.
K2_CHANNEL = (3.0, (3.0, 1.0))
K2_BANDWIDTHS = (2.0, 0.5, 1.0)
K2_ROWS = 25
# The D_1 grid runs from D_1* to D_1* (N_S / D_1*)^K2_SPAN: the README's
# 0.25:0.37 grid at b = 2, and a grid of the same shape at the other b.
K2_SPAN = math.log(0.37 / 0.25) / math.log(4.0)
# matched_k3's channel at b = 2: rows over increasing D_1 at a fixed D_2,
# as many as the README's trace grid has.  A quarter of the rows are then
# K = 3 rows, and op_p90_ms falls among them.  With only a few, it fell at
# the edge of the K = 2 rows, which a change in the machine's speed during
# a row moves most.
K3_SCENARIO = BroadcastScenario(2.0, (4.0, 2.0, 1.0), 2.0)
K3_ROWS = 25
K3_D2_EXPONENT = 0.15  # D_2 = D_2* (N_S / D_2*)^0.15: in every round, so rounds cost alike


class BoundaryTrace:
    """``trace_boundary`` rows in increasing D_1 order, as ``cmd_trace`` issues them."""

    name = "boundary-trace"
    exact_rounds = 1  # rounds the traced run takes its exact counts over

    def __init__(self, seed: int, ctx: Context) -> None:
        self._rng = random.Random(f"boundary-trace:{seed}")
        self._k2 = [BroadcastScenario(K2_CHANNEL[0], K2_CHANNEL[1], b) for b in K2_BANDWIDTHS]
        self._count = 0
        self._first = self._round()
        self._rows = RowChecker()

    @staticmethod
    def _row(sc, prefix):
        return membership.trace_boundary(sc, prefix)

    def _round(self) -> list[Op]:
        rng = self._rng
        self._count += 1
        ops = []
        for sc in self._k2:
            d1_star = floor(sc, 0)
            step = d1_star * ((sc.source_var / d1_star) ** K2_SPAN - 1.0) / (K2_ROWS - 1)
            shift = rng.random()
            for i in range(K2_ROWS):
                prefix = (d1_star + step * (i + shift),)
                meta = {"sc": sc, "prefix": prefix, "seq": (self._count, sc.bandwidth), "index": i}
                ops.append(Op("row.K2", partial(self._row, sc, prefix), meta))
        f1, f2 = floor(K3_SCENARIO, 0), floor(K3_SCENARIO, 1)
        d2 = f2 * (K3_SCENARIO.source_var / f2) ** K3_D2_EXPONENT
        shift = rng.random()
        for i in range(K3_ROWS):
            u = 0.05 + 0.3 * (i + shift) / K3_ROWS
            prefix = (f1 * (K3_SCENARIO.source_var / f1) ** u, d2)
            meta = {"sc": K3_SCENARIO, "prefix": prefix, "seq": (self._count, "K3"), "index": i}
            ops.append(Op("row.K3", partial(self._row, K3_SCENARIO, prefix), meta))
        return ops

    def rounds(self, in_process: bool = True) -> Iterator[list[Op]]:
        yield self._first
        while True:
            yield self._round()

    def check(self, op: Op, dk) -> str | None:
        m = op.meta
        return self._rows.check(m["sc"], m["prefix"], dk, m["seq"], m["index"])

    def counters(self, ops: list[Op]) -> dict:
        return {}


# --------------------------------------------------------------------------
# cli-readme

CLI_COMMANDS = ("import", "eval", "membership", "trace", "figure1", "simulate")
MATCHED_K2 = "scenarios/matched_k2.json"
EXPANSION_K2 = "scenarios/expansion_k2.json"
CLI_TIMEOUT_S = 120
SCHEMA_OF = {
    "eval": "eval.schema.json",
    "membership": "membership.schema.json",
    "simulate": "simulate.schema.json",
}
SIM_SIGMAS = 6.0


class _Schemas:
    """The payload schemas in docs/schemas."""

    def __init__(self, root: Path) -> None:
        from jsonschema import Draft202012Validator
        from referencing import Registry, Resource

        schemas = {path.name: json.loads(path.read_text())
                   for path in sorted((root / "docs" / "schemas").glob("*.schema.json"))}
        resources = []
        for name, contents in schemas.items():
            resource = Resource.from_contents(contents)
            resources += [(contents["$id"], resource), (name, resource)]
        registry = Registry().with_resources(resources)
        self._validators = {name: Draft202012Validator(contents, registry=registry)
                            for name, contents in schemas.items()}

    def errors(self, payload, name: str) -> list[str]:
        return [f"{name}: {e.message}" for e in self._validators[name].iter_errors(payload)]


class CliReadme:
    """Six README commands, each a fresh interpreter with its import included.

    The seventh, ``verify-theorems``, fails a self-check at many seeds
    (ROADMAP item 3); it runs at a fixed seed in ``known_defects`` instead.
    """

    name = "cli-readme"
    exact_rounds = 1  # rounds the traced run takes its exact counts over

    def __init__(self, seed: int, ctx: Context) -> None:
        self.root = ctx.root
        self.out = {name: f"{ctx.tmp}/{name}" for name in ("trace", "figure1")}
        s = str(seed)
        self.argv = {
            "eval": ["eval", "--scenario", MATCHED_K2,
                     "--distortions", "0.5,0.25", "--tau", "1,0", "--seed", s],
            "membership": ["membership", "--scenario", EXPANSION_K2,
                           "--distortions", "0.25,0.0625", "--seed", s],
            "trace": ["trace", "--scenario", EXPANSION_K2,
                      "--d1-grid", "0.25:0.37:25", "--out", self.out["trace"], "--seed", s],
            "figure1": ["figure1", "--c1", "1", "--c2", "5", "--b", "0.5,1,2",
                        "--samples", "512", "--out", self.out["figure1"], "--seed", s],
            "simulate": ["simulate", "--scenario", MATCHED_K2,
                         "--samples", "1000000", "--seed", s],
        }
        self._schemas: _Schemas | None = None
        self._first_stdout: dict[str, bytes] = {}

    def _subprocess(self, name: str):
        if name == "import":
            argv = [sys.executable, "-c", "import gbcbound"]
        else:
            argv = [sys.executable, "-m", "gbcbound", *self.argv[name]]
        proc = subprocess.run(argv, cwd=self.root, capture_output=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def _in_process(self, name: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(self.argv[name]))
        return code, buf.getvalue().encode()

    def rounds(self, in_process: bool = False) -> Iterator[list[Op]]:
        self._schemas = _Schemas(self.root)
        if in_process:
            ops = [Op(f"cli.{n}", partial(self._in_process, n), {"name": n})
                   for n in CLI_COMMANDS if n != "import"]
        else:
            ops = [Op(f"cli.{n}", partial(self._subprocess, n), {"name": n}) for n in CLI_COMMANDS]
        while True:
            yield ops

    def _scenario(self, rel: str) -> BroadcastScenario:
        raw = json.loads((self.root / rel).read_text())
        return BroadcastScenario(raw["power"], tuple(raw["noises"]), raw["bandwidth"],
                                 raw.get("source_var", 1.0))

    def _file(self, rel: str):
        return json.loads((self.root / rel).read_text())

    def check(self, op: Op, output) -> str | None:
        name = op.meta["name"]
        code, stdout = output
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        first = self._first_stdout.setdefault(name, stdout)
        if stdout != first:
            problems.append("stdout differs from the first pass")
        if name == "import":
            if stdout:
                problems.append("import printed to stdout")
        else:
            payload = json.loads(stdout.decode().strip().splitlines()[-1])
            if name in SCHEMA_OF:
                problems += self._schemas.errors(payload, SCHEMA_OF[name])
            problems += getattr(self, f"_check_{name}")(payload)
        return f"cli {name}: " + "; ".join(problems) if problems else None

    def _check_eval(self, payload) -> list[str]:
        sc = self._scenario(MATCHED_K2)
        want = reference_lhs(sc, payload["distortions"], payload["tau"])
        rhs = sc.power + sc.noises[0]
        problems = []
        if abs(payload["lhs"] - want) > 1e-12 * abs(want):
            problems.append(f"lhs {payload['lhs']!r}, definition gives {want!r}")
        if payload["rhs"] != rhs:
            problems.append(f"rhs {payload['rhs']!r}, expected P + N_1 = {rhs!r}")
        if payload["satisfied"] != (want <= rhs * (1.0 + REL_TOL)):
            problems.append("satisfied flag disagrees with lhs <= rhs")
        return problems

    def _check_membership(self, payload) -> list[str]:
        # The README point is the trivial point of a b > 1, K = 2 scenario,
        # which every schedule-indexed bound of that kind excludes.
        sc = self._scenario(EXPANSION_K2)
        rhs = sc.power + sc.noises[0]
        problems = []
        if payload["member"]:
            problems.append("trivial point at b > 1 reported as member")
        at_argmax = reference_lhs(sc, payload["distortions"], payload["argmax_tau"])
        if not at_argmax > rhs * (1.0 + REL_TOL):
            problems.append(f"argmax schedule gives lhs {at_argmax!r}, not above rhs {rhs!r}")
        return problems

    def _check_trace(self, payload) -> list[str]:
        out, sc = self.out["trace"], self._scenario(EXPANSION_K2)
        with (self.root / out / "trace.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        problems = [] if payload.get("rows") == len(rows) == 25 else ["expected 25 rows"]
        problems += self._schemas.errors(self._file(f"{out}/trace_manifest.json"), "manifest.schema.json")
        rows_checker, d2_star = RowChecker(), floor(sc, 1)
        for i, row in enumerate(rows):
            d1, d2_min, d2_trivial, gap = (float(v) for v in row)
            problem = rows_checker.check(sc, (d1,), d2_min, "cli", i)
            if problem:
                problems.append(problem)
            if abs(d2_trivial - d2_star) > ULP_SLACK * d2_star or gap != d2_min - d2_trivial:
                problems.append(f"trace.csv row {i}: D2_trivial or gap column wrong")
        return problems

    def _check_figure1(self, payload) -> list[str]:
        # At fixed point-to-point capacities the region shrinks strictly as b grows.
        out = self.out["figure1"]
        problems = [] if payload["all_nested"] else ["regions not strictly nested in b"]
        problems += self._schemas.errors(self._file(f"{out}/figure1_summary.json"),
                                         "figure1_summary.schema.json")
        problems += self._schemas.errors(self._file(f"{out}/figure1_manifest.json"),
                                         "manifest.schema.json")
        return problems

    def _check_simulate(self, payload) -> list[str]:
        # Uncoded transmission at b = 1 attains every receiver's floor D_k*.
        sc = self._scenario(MATCHED_K2)
        problems = []
        for k, (emp, se) in enumerate(zip(payload["empirical"], payload["std_err"])):
            if abs(emp - floor(sc, k)) > SIM_SIGMAS * float(se):
                problems.append(f"receiver {k + 1}: empirical {emp!r} vs D* {floor(sc, k)!r}")
        if abs(payload["empirical_power"] - sc.power) > SIM_SIGMAS * float(payload["power_std_err"]):
            problems.append(f"empirical power {payload['empirical_power']!r} vs P {sc.power!r}")
        return problems

    def counters(self, ops: list[Op]) -> dict:
        return {}


# --------------------------------------------------------------------------
# known defects

# ROADMAP item 1: the grid search reports member=True although the schedule
# REPRODUCER_TAU violates the bound.
REPRODUCER = (
    BroadcastScenario(
        10.408299403129902,
        (1.5319987010856546, 0.42284007000578716, 0.14230776211069576,
         0.09410284722975634, 0.022458921322477083),
        1.4480871282058703,
    ),
    (0.05134967501451325, 0.08934536726890427, 0.004013983515728514,
     0.13523201232033158, 0.024135166043304252),
)
REPRODUCER_TAU = (0.004783661954555212, 0.004783661954555212, 0.0, 0.0, 0.0)
# ROADMAP item 3: self-checks fail on correct code; this command exits 1.
VERIFY_ARGV = ("verify-theorems", "--trials", "1000", "--seed", "42")


def known_defects(span) -> dict:
    """Reproduce the known defects once, outside the measured operations.

    The workloads are drawn where the code answers correctly, so the
    defects are counted here instead: ``known_defects`` is how many of the
    two still reproduce, and ``verify.failed_checks`` how many self-checks
    ``verify-theorems --seed 42`` fails.  ``span(name)`` opens a traced
    operation around each call.
    """
    sc, d = REPRODUCER
    with span("known.reproducer"):
        verdict = membership.in_outer_region(sc, d)
    lhs = bound.check_inequality(sc, d, REPRODUCER_TAU).lhs
    wrong_member = verdict.member and lhs > (sc.power + sc.noises[0]) * (1.0 + REL_TOL)
    buf = io.StringIO()
    with span("cli.verify"), contextlib.redirect_stdout(buf):
        code = cli.main(list(VERIFY_ARGV))
    payload = json.loads(buf.getvalue().strip().splitlines()[-1])
    failing = sum(not check["passed"] for check in payload["checks"])
    if (code != 0) != (failing > 0):
        raise RuntimeError(f"verify-theorems exited {code} with {failing} failed self-checks")
    return {"known_defects": int(wrong_member) + int(code != 0), "verify.failed_checks": failing}


WORKLOADS = {w.name: w for w in (MembershipStream, BoundaryTrace, CliReadme)}
