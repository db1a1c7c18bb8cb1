"""Benchmark runner for reflowsim.

    python3 perfbench/run.py --workload joint-sweep --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34 --trace 0

Runs one workload in rounds until ``--seconds`` have passed, checks every
output outside the timed region, and prints two JSON lines: the run context,
then the result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (``E2E``); with
``--trace 1`` rounds alternate untraced and traced, and the metrics are the
per-layer ones.  ``--workload all`` runs every workload in its own process
and ends with one combined result line.  The program is imported from the
``src`` directory of the checkout this file sits in; without it the runner
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("joint-sweep", "speed-sweep", "cli")
# fresh set-up processes per untraced run, interleaved with the rounds
SETUP_PROBES = 9
# Time of ``reference_kernel`` on the baseline machine (2 vCPUs, quiet host).
REFERENCE_S = 0.015
# Operation time after which the runner samples the reference kernel again.
PACE_S = 0.1
# Time of ``python_kernel`` on the baseline machine, and the source it compiles.
PYTHON_REFERENCE_S = 0.012
PYTHON_KERNEL_SOURCE = "".join(
    f"class C{i}:\n    def f(self, x):\n        return [x * {i} for _ in range(3)]\n"
    f"    def g(self):\n        return dict(a={i}, b=str({i}))\n" for i in range(40))
E2E = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
CLI_LATENCIES = {"simulate": (50, 90), "check": (50, 90), "calibrate": (50, 90), "field": (50,)}


def per_layer_units() -> dict[str, str]:
    from spans import COUNTERS, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "B" if name.endswith(".bytes") else "count"
    units.update({"optimize.feasible_ratio": "ratio", "optimize.parallel_efficiency": "ratio",
                  "optimize.wall_s_w2": "s", "trace.overhead_s": "s"})
    for kind, pcts in CLI_LATENCIES.items():
        for pct in pcts:
            units[f"cli.{kind}.ms_p{pct}"] = "ms"
    return units


def setup() -> None:
    """Everything a run does before its first timed operation, minus inputs."""
    import reflowsim.cli  # noqa: F401  (pulls in config, yaml, numpy, scipy)
    from reflowsim import ParameterRanges, default_layout
    from reflowsim.config import RunConfig

    default_layout()
    RunConfig()
    ParameterRanges()


def reference_kernel() -> float:
    """Seconds taken by a fixed numpy workload that does not use reflowsim.

    On a shared host the speed of a vCPU drifts by up to 1.8x, over times
    from a tenth of a second to minutes.  The kernel mixes the two kinds of
    work that dominate reflowsim (whole-array numpy on furnace-sized arrays,
    and per-call numpy overhead on scalars) and slows down with them.  Run
    in the same process right before and after an operation, it tracks the
    operation's slowdown (correlation about 0.9 on 0.1 s operations), so a
    timing scaled by it (``speed_factor``) keeps the program's own changes and
    drops most of the host's drift.  It takes about 20 ms.
    """
    import numpy as np

    x = np.arange(4000) * 0.1
    edges = np.linspace(0.0, 400.0, 24)
    start = perf_counter()
    for _ in range(60):
        idx = np.searchsorted(edges, x, side="right") - 1
        out = np.empty_like(x)
        for k in range(0, 24, 3):
            mask = idx == k
            out[mask] = np.exp(-(x[mask] - k))
    for _ in range(800):
        a = np.asarray(1.5)
        np.any(a < 0.0)
        np.searchsorted(edges, a)
    return perf_counter() - start


def speed_factor(kernel_before: float, kernel_after: float) -> float:
    """Factor that expresses a timing at the baseline machine's speed."""
    return REFERENCE_S / (0.5 * (kernel_before + kernel_after))


def run_paced(tasks) -> tuple[list, list[float]]:
    """Run a round's operations with reference-kernel samples between them.

    Returns the operations and, for each, the factor that scales its time to
    the baseline machine's speed, from the kernel samples around it.
    """
    ops, factors, pending = [], [], 0
    before, since = reference_kernel(), 0.0
    for i, task in enumerate(tasks):
        ops.append(task())
        pending += 1
        since += ops[-1].seconds
        if since >= PACE_S or i == len(tasks) - 1:
            after = reference_kernel()
            factors += [speed_factor(before, after)] * pending
            before, since, pending = after, 0.0, 0
    return ops, factors


def python_kernel() -> float:
    """Seconds taken by a fixed pure-Python workload (compile, exec, marshal).

    The set-up is mostly module loading, which ``reference_kernel`` (numpy,
    in the parent process) does not track.  This kernel needs no import, so
    a setup probe runs it right before and after its set-up, on the same
    vCPU.  Over four minutes in which the set-up time drifted by 2x, the
    kernel's time tracked it with correlation 0.88, and set-up time divided
    by it kept block medians within 5%.  It takes about 15 ms.
    """
    start = perf_counter()
    for _ in range(4):
        code = compile(PYTHON_KERNEL_SOURCE, "<kernel>", "exec")
        exec(code, {})
        marshal.loads(marshal.dumps(code))
    return perf_counter() - start


def setup_probe() -> tuple[float, float]:
    """Wall time of a fresh process that only sets up, from spawn to exit,
    less its two ``python_kernel`` samples: scaled by them to the baseline
    machine's speed, and unscaled."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, __file__, "--setup-probe"], check=True,
                          stdout=subprocess.PIPE, text=True)
    seconds = perf_counter() - start
    before, after = map(float, proc.stdout.split())
    seconds -= before + after
    return seconds * PYTHON_REFERENCE_S / (0.5 * (before + after)), seconds


def peak_rss_mb() -> float:
    """High-water RSS of this process or its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_commit() -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def make_workload(name: str, seed: int, workdir: Path):
    from reflowsim import default_layout
    from workloads import Cli, JointSweep, SpeedSweep

    layout = default_layout()
    if name == "cli":
        return Cli(seed, layout, workdir)
    return {"joint-sweep": JointSweep, "speed-sweep": SpeedSweep}[name](seed, layout)


def measure(args, workdir: Path):
    import numpy as np

    import spans

    workload = make_workload(args.workload, args.seed, workdir)
    untraced, traced, recorders = [], [], []
    scaled_walls = []
    reference: dict = {}
    attempted = failed = 0
    failures: list[str] = []
    setup_samples: list[tuple[float, float]] = []  # (scaled, unscaled)
    probes = 0 if args.trace else SETUP_PROBES
    start = perf_counter()
    deadline = start + args.seconds
    round_no = 0
    while True:
        # setup probes spread evenly over the run, so that their median
        # covers the same stretch of the host's speed drift as the rounds
        while len(setup_samples) < probes * min(1.0, (perf_counter() - start) / args.seconds):
            setup_samples.append(setup_probe())
        tracing = bool(args.trace) and round_no % 2 == 1
        if tracing:
            rec = spans.Recorder()
            with spans.installed(rec):
                ops = workload.run(round_no, span=rec.span)
            recorders.append(rec)
            traced.append(ops)
        else:
            # workers=2 joins every untraced round of a traced run, and the
            # first round of an untraced run for the workers=1/2 identity check
            ops, factors = run_paced(
                workload.tasks(round_no, parallel=bool(args.trace) or round_no == 0))
            untraced.append(ops)
            scaled_walls.append(sum(op.seconds * f for op, f in zip(ops, factors)
                                    if op.kind in workload.wall_kinds))
        errors = workload.check(ops, reference)
        attempted += len(ops)
        failed += len(errors)
        failures += [f"round {round_no} {key}: {why}" for key, why in sorted(errors.items())]
        for op in ops:  # keep timings only, so memory does not grow with the rounds
            op.value = None
        round_no += 1
        if (perf_counter() >= deadline and len(untraced) >= workload.min_rounds
                and (traced or not args.trace)):
            break
    while len(setup_samples) < probes:
        setup_samples.append(setup_probe())

    def wall(ops):
        return sum(op.seconds for op in ops if op.kind in workload.wall_kinds)

    def op_seconds(rounds, kind):
        return [op.seconds for ops in rounds for op in ops if op.kind == kind]

    raw_walls = [wall(ops) for ops in untraced]
    samples = {"wall_s": len(untraced)}
    if not args.trace:
        samples["setup_s"] = len(setup_samples)
        metrics = {"setup_s": statistics.median(scaled for scaled, _ in setup_samples),
                   "wall_s": statistics.median(scaled_walls),
                   "peak_rss_mb": peak_rss_mb()}
        units = E2E
    else:
        units = per_layer_units()
        metrics = dict.fromkeys(units, 0.0)
        first = recorders[0]
        for rec in recorders[1:]:
            if rec.calls != first.calls or rec.counts != first.counts:
                failed += 1
                failures.append("exact counters differ between traced rounds of one seed")
        for name in spans.SPAN_NAMES:
            metrics[f"{name}.calls"] = first.calls[name]
            metrics[f"{name}.self_s"] = statistics.median(rec.self_s[name] for rec in recorders)
        for name in spans.COUNTERS:
            metrics[name] = first.counts[name]
        if first.calls["limits.check_limits"]:
            metrics["optimize.feasible_ratio"] = (first.counts["limits.feasible"]
                                                  / first.calls["limits.check_limits"])
        # the same minimize_area work per round at workers=1 and workers=2
        w1 = [sum(op_seconds([ops], "minimize_area")) for ops in untraced]
        w2 = [sum(op_seconds([ops], "minimize_area_w2")) for ops in untraced]
        if all(w2):
            metrics["optimize.wall_s_w2"] = statistics.median(w2)
            metrics["optimize.parallel_efficiency"] = statistics.median(
                a / (2 * b) for a, b in zip(w1, w2))
        metrics["trace.overhead_s"] = (statistics.median(wall(ops) for ops in traced)
                                       - statistics.median(raw_walls))
        for kind, pcts in CLI_LATENCIES.items():
            latencies = op_seconds(untraced, kind)
            if latencies:
                samples[f"cli.{kind}.ms"] = len(latencies)
                for pct in pcts:
                    metrics[f"cli.{kind}.ms_p{pct}"] = 1000.0 * float(np.percentile(latencies, pct))
        samples["traced_rounds"] = len(traced)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "rounds": round_no, "samples": samples,
               "unscaled_wall_s": statistics.median(raw_walls),
               "untraced_round_walls": [round(w, 4) for w in raw_walls],
               "failed_frac": failed / attempted, "failures": failures[:20],
               "grid": workload.context()}
    if setup_samples:
        context["unscaled_setup_s"] = statistics.median(raw for _, raw in setup_samples)
    return result, context


def run_context() -> dict:
    import numpy
    import scipy
    import yaml

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "pyyaml": yaml.__version__,
            "git_commit": git_commit()}


def run_all(args) -> int:
    """Each workload in its own fresh process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not ((SRC / "reflowsim" / "__init__.py").is_file()
            and (ROOT / "tests" / "helpers.py").is_file()):
        print(f"perfbench: no reflowsim sources and test oracles under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        before = python_kernel()
        setup()
        print(before, python_kernel())
        return 0
    if args.workload == "all":
        return run_all(args)

    setup()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result, context = measure(args, workdir)
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"context": {**run_context(), **context}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
