"""gbcbound benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload membership-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workloads are described in ``perfbench/METRICS.md`` and BENCHMARK.json.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up is
timed in fresh interpreters started between operations, spread over the run.
Its times are given at a reference machine speed (``perfbench/speed.py``);
the times as measured are in the line before the result.
``--trace 1`` runs the workload untraced for half the time, and at least the
workload's fixed set of rounds, then replays the same operations with spans
recorded around calls into the package's public functions.  It reports the
per-layer metrics and the tracing overhead; the exact counts are taken over
the fixed set only, so they do not depend on how fast the code runs.
``--seconds 0`` plays one round end to end, and only the fixed set traced.
Each result records the machine.  The benchmark pins numpy/BLAS to one
thread, and itself and every process it starts to one CPU; it can neither
keep other work off that CPU nor control its frequency.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
IMPORTTIME_PROBES = 5
PROBE_TIMEOUT_S = 60
FAILURES_SHOWN = 10

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
os.environ["PYTHONPATH"] = str(SRC)
# Fresh interpreters (set-up probes, CLI commands) load bytecode from a cache
# kept in the checkout, as an installed package would, whatever the caller's
# environment says about writing bytecode.  The first of them fills it.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
os.environ["PYTHONPYCACHEPREFIX"] = str(ROOT / ".perfbench_tmp" / "pycache")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def setup_probe(args) -> None:
    """Time importing gbcbound and building the workload's inputs, in this fresh interpreter.

    The speed kernel runs just before and just after, in this interpreter
    too, so that the time can be scaled to the reference speed.
    """
    import speed

    machine_speed = speed.Speed()
    machine_speed.sample()
    start = time.perf_counter()
    import gbcbound
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, workloads.Context(ROOT, ".perfbench_tmp/probe"))
    end = time.perf_counter()
    machine_speed.sample()
    print(json.dumps({"setup_s": end - start, "scale": machine_speed.scale(start, end),
                      "package": gbcbound.__file__}))


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)


class SetupProbes:
    """Set-up timed in fresh interpreters, one at each of SETUP_PROBES even steps of the run.

    Probes run between operations, outside their latencies, so that a
    passing change in the machine's state moves few of them.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.samples: list[float] = []
        self.scales: list[float] = []

    def __call__(self, elapsed: float) -> None:
        due = len(self.samples) * self.args.seconds / SETUP_PROBES
        if len(self.samples) < SETUP_PROBES and elapsed >= due:
            self._probe()

    def median(self, scaled: bool) -> float:
        """Median set-up time, at the reference speed if ``scaled``."""
        while len(self.samples) < SETUP_PROBES:
            self._probe()
        if not scaled:
            return statistics.median(self.samples)
        return statistics.median(v * f for v, f in zip(self.samples, self.scales))

    def _probe(self) -> None:
        args = self.args
        proc = _child([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                       "--seed", str(args.seed), "--seconds", "0", "--setup-probe"])
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(probe["package"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"gbcbound imported from {probe['package']}, not from {SRC}")
        self.samples.append(probe["setup_s"])
        self.scales.append(probe["scale"])


def measure_imports() -> dict:
    """Import times from ``-X importtime``: gbcbound in total, its own modules, and numpy."""
    total, own, numpy = [], [], []
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")
    for _ in range(IMPORTTIME_PROBES):
        proc = _child([sys.executable, "-X", "importtime", "-c", "import gbcbound"])
        self_us, cumulative = {}, {}
        for match in line.finditer(proc.stderr):
            name = match.group(4)
            self_us[name] = int(match.group(1))
            cumulative[name] = int(match.group(2))
        total.append(cumulative["gbcbound"] / 1e3)
        own.append(sum(v for k, v in self_us.items() if k.split(".")[0] == "gbcbound") / 1e3)
        numpy.append(cumulative.get("numpy", 0) / 1e3)
    return {
        "cli.import_ms": statistics.median(total),
        "setup.import_self_ms": statistics.median(own),
        "setup.import_numpy_ms": statistics.median(numpy),
    }


def machine(allowed: set[int]) -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for text in handle:
                if text.startswith("model name"):
                    model = text.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(allowed),
        "pinned_to_cpu": min(allowed),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "cpu_isolation": False,
        "frequency_control": False,
    }


class Run:
    """Closed loop, one client: rounds of operations until the time is up."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.failed = 0
        self.failures: list[str] = []
        self.rounds: list = []

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def play(self, workload, rounds, seconds: float, min_rounds: int = 1, tracer=None,
             between=None, speed=None) -> "Run":
        """Play whole rounds until ``seconds`` have passed and ``min_rounds`` are done.

        ``between(elapsed)``, if given, is called before each operation, and
        ``speed``, if given, is sampled before each operation and after the last.
        """
        start = time.perf_counter()
        for count, ops in enumerate(rounds, 1):
            self.rounds.append(ops)
            for op in ops:
                if between is not None:
                    between(time.perf_counter() - start)
                if speed is not None:
                    speed.sample()
                self._one(workload, op, tracer)
            if count >= min_rounds and time.perf_counter() - start >= seconds:
                break
        if speed is not None:
            speed.sample()
        return self

    def scaled(self, speed) -> list[float]:
        """Latencies at the reference speed."""
        return [t * speed.scale(*w) for t, w in zip(self.latencies, self.windows)]

    def _one(self, workload, op, tracer) -> None:
        problem = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = op.run()
            else:
                with tracer.op(op.label):
                    output = op.run()
        except Exception as exc:  # the operation failed; count it and go on
            problem = f"{op.label}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        self.windows.append((t0, t1))
        if problem is None:
            try:
                problem = workload.check(op, output)
            except Exception:  # an output the check cannot read is a wrong output
                problem = f"{op.label}: unreadable output\n{traceback.format_exc()}"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(problem)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timings(latencies: list[float], setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
    }


def end_to_end(args, workload) -> tuple[list[Run], dict, dict]:
    """Metrics at the reference speed, and the same metrics as measured."""
    import speed as speed_module

    setup, speed = SetupProbes(args), speed_module.Speed()
    run = Run().play(workload, workload.rounds(in_process=False), args.seconds,
                     between=setup, speed=speed)
    values = timings(run.scaled(speed), setup.median(scaled=True))
    values["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli-readme")
    raw = timings(run.latencies, setup.median(scaled=False))
    raw["kernel_ms_median"] = 1e3 * statistics.median(speed.durations)
    return [run], values, raw


def traced(args, workload) -> tuple[list[Run], dict, dict]:
    import tracing
    from workloads import CLI_COMMANDS, KS, known_defects

    fixed = workload.exact_rounds
    untraced = Run().play(workload, workload.rounds(in_process=True), args.seconds / 2, fixed)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        exact = Run().play(workload, iter(untraced.rounds[:fixed]), math.inf, tracer=tracer)
        exact_spans = len(tracer.spans)
        rest = Run().play(workload, iter(untraced.rounds[fixed:]), math.inf, tracer=tracer)
    values = tracing.layer_metrics(tracer.spans, exact_spans, KS,
                                   tuple(c for c in CLI_COMMANDS if c != "import"))
    defects = tracing.Tracer()
    with tracing.instrument(defects):
        values.update(known_defects(defects.op))
    values.update(tracing.verify_metrics(defects.spans))
    values.update(measure_imports())
    values.update({"sup_shortfall_rel": 0.0},
                  **workload.counters([op for ops in exact.rounds for op in ops]))
    values["fail_share"] = exact.failed / len(exact.latencies)
    values["trace.overhead_share"] = (exact.busy + rest.busy) / untraced.busy - 1.0
    return [untraced, exact, rest], values, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gbcbound" / "__init__.py").is_file():
        print(f"gbcbound sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    # One CPU for the benchmark and every process it starts, so that the
    # speed kernel runs where the operations run.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    if args.setup_probe:
        setup_probe(args)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tmp = Path(".perfbench_tmp") / f"{args.workload}-{os.getpid()}"
    (ROOT / tmp).mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workloads.Context(ROOT, str(tmp)))
        if args.trace:
            runs, values, raw = traced(args, workload)
        else:
            runs, values, raw = end_to_end(args, workload)
    finally:
        shutil.rmtree(ROOT / tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / tmp).parent.rmdir()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(allowed),
        "rounds": [len(run.rounds) for run in runs],
        "failures": [text for run in runs for text in run.failures][:FAILURES_SHOWN],
        "as_measured": raw,
    }
    failed = sum(run.failed for run in runs)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(run.latencies) for run in runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
