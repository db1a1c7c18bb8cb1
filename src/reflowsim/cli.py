"""Command-line front end.

Subcommands: field, simulate, check, calibrate, optimize-speed,
optimize-area, optimize-symmetry.  Keys of the YAML configuration can be
overridden one-for-one with flags.  All output is deterministic: no
timestamps, fixed numeric formatting (temperatures 4 decimals, positions 1
decimal in reports; trace CSVs carry 6 decimals so they reload losslessly).

Exit status is 0 whenever the requested computation completes, including
sweeps that find nothing feasible; bad configuration, unreadable files and
malformed traces exit non-zero with a message on stderr (the sweeps print
only once they have run, so a refused sweep leaves stdout empty).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .ambient import build_profile
from .calibrate import calibrate_coefficient, check_trace_speed, fit_blend_weight
from .config import RunConfig, load_config, merge_config
from .limits import LimitVerdict, check_limits, compute_metrics
from .optimize import (
    OptimizationResult,
    _grid_size,
    feasible_speed_interval,
    inclusive_grid,
    minimize_area,
    most_symmetric,
)
from .thermal import WeldingModel, simulate
from .traceio import load_trace_csv, write_trace_csv


def _fmt(value, decimals=4) -> str:
    return "" if value is None else f"{value:.{decimals}f}"


def _common_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, as a parent parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML configuration file")
    common.add_argument("--tt1", type=float, help="zones 1-5 setpoint, degC")
    common.add_argument("--tt2", type=float, help="zone 6 setpoint, degC")
    common.add_argument("--tt3", type=float, help="zone 7 setpoint, degC")
    common.add_argument("--tt4", type=float, help="zones 8-9 setpoint, degC")
    common.add_argument("--belt-speed", type=float, help="conveyor speed, cm/min")
    common.add_argument("--coefficient", type=float, help="welding coefficient, 1/s")
    common.add_argument("--blend-weight", type=float, help="cooling blend weight in [0,1]")
    common.add_argument("--dt", type=float, help="integration step, s")
    common.add_argument("--dt-out", type=float, help="output sample interval, s")
    common.add_argument("--workers", type=int,
                        help="sweep worker processes (0 = all cores; at most the core count)")
    common.add_argument("--area-domain", choices=("position", "time"),
                        help="reflow-area integration variable")
    return common


# Flag destination -> the (section, key) of the configuration it overrides.
FLAG_KEYS = {
    **{name: ("params", name) for name in ("tt1", "tt2", "tt3", "tt4", "belt_speed")},
    "coefficient": ("model", "coefficient"),
    "blend_weight": ("model", "blend_weight"),
    "dt": ("grid", "dt"),
    "dt_out": ("grid", "dt_out"),
    "speed_step": ("sweep", "speed_step"),
    "workers": ("sweep", "workers"),
    "area_domain": ("sweep", "area_domain"),
    "refine_rounds": ("calibration", "refine_rounds"),
    "dx": ("output", "field_dx"),
    "field_csv": ("output", "field_csv"),  # field --out
    "trace_csv": ("output", "trace_csv"),  # simulate --out
    "verdict_csv": ("output", "verdict_csv"),
    "candidates_csv": ("output", "candidates_csv"),
}


def _resolve_config(args) -> RunConfig:
    overrides: dict[str, dict] = {}
    for dest, (section, key) in FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides.setdefault(section, {})[key] = value
    cfg = merge_config(load_config(args.config), overrides)
    cfg.validate()
    return cfg


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _print_verdict(verdict: LimitVerdict) -> None:
    print(f"{'limit':<20}{'measured':>12}{'lo':>10}{'hi':>10}  pass")
    for c in verdict.checks:
        print(
            f"{c.name:<20}{_fmt(c.measured):>12}{_fmt(c.lower):>10}"
            f"{_fmt(c.upper):>10}  {'yes' if c.passed else 'no'}"
        )
    print(f"overall: {'pass' if verdict.passed else 'fail'}")


def _verdict_csv_lines(verdict: LimitVerdict) -> list[str]:
    lines = ["limit,measured,lo,hi,pass"]
    for c in verdict.checks:
        lines.append(
            f"{c.name},{_fmt(c.measured)},{_fmt(c.lower)},{_fmt(c.upper)},"
            f"{'true' if c.passed else 'false'}"
        )
    return lines


def _print_metrics(metrics) -> None:
    print(f"max_slope_c_per_s:    {_fmt(metrics.max_slope)}")
    print(f"min_slope_c_per_s:    {_fmt(metrics.min_slope)}")
    print(f"rise_150_190_s:       {_fmt(metrics.rise_time_150_190) or 'absent'}")
    print(f"time_above_217_s:     {_fmt(metrics.duration_above_217)}")
    print(f"peak_temp_c:          {_fmt(metrics.peak_temp)}")
    print(f"peak_time_s:          {_fmt(metrics.peak_time)}")


def _report_limits(cfg: RunConfig, trace, header: str) -> int:
    metrics = compute_metrics(trace)
    verdict = check_limits(metrics, cfg.limits)
    print(header)
    _print_metrics(metrics)
    _print_verdict(verdict)
    if cfg.verdict_csv:
        _write_lines(cfg.verdict_csv, _verdict_csv_lines(verdict))
    return 0


def cmd_field(args) -> int:
    cfg = _resolve_config(args)
    # only this command builds the grid, so only it refuses a furnace too long for it
    _grid_size(0.0, cfg.layout.total_length_cm, cfg.field_dx, "output.field_dx")
    profile = build_profile(cfg.layout, cfg.params, cfg.blend_weight)
    xs = inclusive_grid(0.0, profile.total_length_cm, cfg.field_dx)
    temps = profile(np.array(xs)).tolist()
    lines = ["position_cm,temp_c"]
    lines += [f"{x:.1f},{temp:.4f}" for x, temp in zip(xs, temps)]
    _write_lines(cfg.field_csv, lines)
    return 0


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    profile = build_profile(cfg.layout, cfg.params, cfg.blend_weight)
    trace = simulate(profile, cfg.params, WeldingModel(cfg.coefficient), cfg.grid)
    write_trace_csv(trace, cfg.trace_csv)
    return _report_limits(
        cfg, trace, f"trace written to {cfg.trace_csv} ({len(trace)} samples, dt={trace.dt:g} s)"
    )


def cmd_check(args) -> int:
    cfg = _resolve_config(args)
    trace = load_trace_csv(args.trace, belt_speed=args.trace_belt_speed)
    return _report_limits(cfg, trace, f"checked {args.trace} ({len(trace)} samples)")


def cmd_calibrate(args) -> int:
    cfg = _resolve_config(args)
    measured = load_trace_csv(args.measured, belt_speed=args.trace_belt_speed)
    check_trace_speed(measured, cfg.params.belt_speed, "the run's belt speed (--belt-speed)")
    result = calibrate_coefficient(
        measured,
        cfg.layout,
        cfg.params,
        cfg.blend_weight,
        cfg.coefficient_candidates,
        grid=cfg.grid,
        refine_rounds=cfg.calibration_refine_rounds,
    )
    # refinement adds only values unlike every given one, so these are the base grid's
    base = sum(s.coefficient in cfg.coefficient_candidates for s in result.scores)
    print(f"coefficient candidates: {len(result.scores)} evaluated ({base} on the base grid, "
          f"refine_rounds={cfg.calibration_refine_rounds})")
    print(f"{'coefficient':>12}{'discrepancy':>16}{'pearson':>12}")
    for s in result.scores:
        print(f"{s.coefficient:>12.6f}{s.discrepancy:>16.6f}{s.pearson:>12.6f}")
    print(f"best coefficient: {result.best_coefficient:.6f}")
    if args.fit_blend:
        fit = fit_blend_weight(
            measured,
            cfg.layout,
            cfg.params,
            result.best_coefficient,
            cfg.weight_candidates,
            grid=cfg.grid,
        )
        print(f"{'blend_weight':>12}{'discrepancy':>16}")
        for s in fit.scores:
            print(f"{s.weight:>12.4f}{s.discrepancy:>16.6f}")
        print(f"best blend weight: {fit.best_weight:.4f}")
    return 0


def _sweep_header(cfg: RunConfig, objective: str) -> None:
    r = cfg.ranges
    print(f"objective: {objective}")
    print("tie-break: lexicographically smallest (tt1, tt2, tt3, tt4, belt_speed)")
    print(
        "grid: "
        f"tt1 [{r.tt1[0]:g},{r.tt1[1]:g}] step {r.temp_step:g}; "
        f"tt2 [{r.tt2[0]:g},{r.tt2[1]:g}] step {r.temp_step:g}; "
        f"tt3 [{r.tt3[0]:g},{r.tt3[1]:g}] step {r.temp_step:g}; "
        f"tt4 [{r.tt4[0]:g},{r.tt4[1]:g}] step {r.temp_step:g}; "
        f"belt_speed [{r.belt_speed[0]:g},{r.belt_speed[1]:g}] step {r.speed_step:g}"
    )
    print(f"area domain: {cfg.area_domain}; refine rounds: {cfg.sweep_refine_rounds}")


def _candidates_csv_lines(result: OptimizationResult) -> list[str]:
    lines = ["tt1,tt2,tt3,tt4,v,feasible,peak,area,symmetry"]
    for c in result.candidates:
        p = c.params
        lines.append(
            f"{p.tt1:.4f},{p.tt2:.4f},{p.tt3:.4f},{p.tt4:.4f},{p.belt_speed:.4f},"
            f"{'true' if c.feasible else 'false'},{c.metrics.peak_temp:.4f},"
            f"{c.area:.4f},{_fmt(c.symmetry)}"
        )
    return lines


def _report_joint(cfg: RunConfig, result: OptimizationResult) -> int:
    print(f"candidates evaluated: {result.candidates_evaluated}")
    print(f"feasible candidates:  {result.candidates_feasible}")
    if result.objective == "symmetry" and result.rejected_from_objective:
        print(
            f"feasible but excluded (disconnected above-217 pass): "
            f"{result.rejected_from_objective}"
        )
    if result.best is None:
        print("best: none")
    else:
        b = result.best
        p = b.params
        print(
            f"best: tt1={p.tt1:.4f} tt2={p.tt2:.4f} tt3={p.tt3:.4f} "
            f"tt4={p.tt4:.4f} belt_speed={p.belt_speed:.4f}"
        )
        print(f"  reflow area:     {b.area:.4f}")
        print(f"  symmetry score:  {_fmt(b.symmetry) or 'undefined'}")
        print(f"  peak temp:       {b.metrics.peak_temp:.4f}")
    if cfg.candidates_csv:
        _write_lines(cfg.candidates_csv, _candidates_csv_lines(result))
    return 0


def cmd_optimize_speed(args) -> int:
    cfg = _resolve_config(args)
    sweep = feasible_speed_interval(
        cfg.layout,
        cfg.params,
        cfg.blend_weight,
        cfg.coefficient,
        speed_range=cfg.ranges.belt_speed,
        speed_step=cfg.speed_sweep_step,
        grid=cfg.grid,
        limits=cfg.limits,
    )
    print("objective: largest belt speed satisfying all process limits")
    print(
        f"grid: belt_speed [{cfg.ranges.belt_speed[0]:g},"
        f"{cfg.ranges.belt_speed[1]:g}] step {cfg.speed_sweep_step:g}"
    )
    print(f"speeds checked:  {len(sweep.per_speed)}")
    print(f"feasible speeds: {len(sweep.feasible_speeds)}")
    if sweep.max_feasible is None:
        print("max feasible: none")
    else:
        print(f"max feasible: {sweep.max_feasible:.4f}")
    if cfg.candidates_csv:
        lines = ["v,feasible,max_slope,min_slope,rise_150_190,time_above_217,peak"]
        for c in sweep.per_speed:
            m = c.metrics
            lines.append(
                f"{c.speed:.4f},{'true' if c.verdict.passed else 'false'},"
                f"{m.max_slope:.4f},{m.min_slope:.4f},{_fmt(m.rise_time_150_190)},"
                f"{m.duration_above_217:.4f},{m.peak_temp:.4f}"
            )
        _write_lines(cfg.candidates_csv, lines)
    return 0


def _run_joint(args, sweep, objective: str) -> int:
    cfg = _resolve_config(args)
    result = sweep(
        cfg.layout, cfg.ranges, cfg.blend_weight, cfg.coefficient,
        grid=cfg.grid, limits=cfg.limits, area_domain=cfg.area_domain,
        refine_rounds=cfg.sweep_refine_rounds, workers=cfg.resolved_workers(),
    )
    _sweep_header(cfg, objective)
    return _report_joint(cfg, result)


def cmd_optimize_area(args) -> int:
    return _run_joint(args, minimize_area, "minimal reflow area among feasible candidates")


def cmd_optimize_symmetry(args) -> int:
    return _run_joint(args, most_symmetric,
                      "lexicographic (symmetry score, reflow area) among feasible candidates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflowsim",
        description="Reflow-oven thermal profile simulation and optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()

    p = sub.add_parser("field", parents=[common],
                       help="dump the ambient temperature field as CSV")
    p.add_argument("--dx", type=float, help="sampling step along the furnace, cm")
    p.add_argument("--out", dest="field_csv", metavar="OUT", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("simulate", parents=[common],
                       help="simulate a trace, report metrics and verdict")
    p.add_argument("--out", dest="trace_csv", metavar="OUT",
                   help="trace CSV path (default trace.csv)")
    p.add_argument("--verdict-csv", help="also write the verdict table as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", parents=[common],
                       help="check a trace CSV against the process limits")
    p.add_argument("trace", help="trace CSV to check")
    p.add_argument("--trace-belt-speed", type=float,
                   help="belt speed for two-column trace files, cm/min")
    p.add_argument("--verdict-csv", help="also write the verdict table as CSV")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("calibrate", parents=[common],
                       help="grid-search the welding coefficient")
    p.add_argument("measured", help="measured trace CSV")
    p.add_argument("--trace-belt-speed", type=float,
                   help="belt speed for two-column trace files, cm/min")
    p.add_argument("--refine-rounds", type=int,
                   help="refinement rounds around the incumbent")
    p.add_argument("--fit-blend", action="store_true",
                   help="also grid-search the cooling blend weight")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("optimize-speed", parents=[common],
                       help="find feasible belt speeds at fixed setpoints")
    p.add_argument("--speed-step", type=float, help="speed grid step, cm/min")
    p.add_argument("--candidates-csv", help="write the per-speed table as CSV")
    p.set_defaults(func=cmd_optimize_speed)

    p = sub.add_parser("optimize-area", parents=[common],
                       help="joint sweep minimizing reflow area")
    p.add_argument("--candidates-csv", help="write all evaluated candidates as CSV")
    p.set_defaults(func=cmd_optimize_area)

    p = sub.add_parser("optimize-symmetry", parents=[common],
                       help="joint sweep minimizing the above-217 asymmetry")
    p.add_argument("--candidates-csv", help="write all evaluated candidates as CSV")
    p.set_defaults(func=cmd_optimize_symmetry)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use: parsing leaves a parser
    unchanged, so every ``main`` call can share one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
