"""Jointly optimize setpoints and belt speed by exhaustive enumeration.

Two objectives over the feasible candidates:

* smallest reflow area (the area between the trace and the 217 degC line
  while molten) -- less thermal stress on the joints,
* most symmetric melt pass, with area as the tie-breaker -- balanced
  heating and cooling around the peak.

A full default sweep enumerates 22 500 candidates in well under a minute;
this demo narrows the grids around the known feasible pocket to stay quick.
"""

import time

from reflowsim import ParameterRanges, default_layout, minimize_area, most_symmetric

layout = default_layout()
ranges = ParameterRanges(
    tt1=(165.0, 170.0),
    tt2=(185.0, 195.0),
    tt3=(225.0, 235.0),
    tt4=(255.0, 265.0),
    belt_speed=(75.0, 95.0),
    temp_step=5.0,
    speed_step=1.0,
)


def report(result):
    print(f"  evaluated {result.candidates_evaluated} candidates, "
          f"{result.candidates_feasible} feasible")
    if result.best is None:
        print("  nothing feasible on this grid")
        return
    p = result.best.params
    print(f"  best: tt1={p.tt1:g} tt2={p.tt2:g} tt3={p.tt3:g} tt4={p.tt4:g} "
          f"belt_speed={p.belt_speed:g}")
    print(f"  reflow area {result.best.area:9.2f} degC*cm, "
          f"symmetry {result.best.symmetry:9.2f} degC^2, "
          f"peak {result.best.metrics.peak_temp:6.2f} degC")


t0 = time.perf_counter()
print("minimize reflow area:")
report(minimize_area(layout, ranges, weight=0.8, coefficient=0.021))

print("\nmost symmetric melt pass (area as tie-breaker):")
report(most_symmetric(layout, ranges, weight=0.8, coefficient=0.021))
print(f"\ntotal sweep time: {time.perf_counter() - t0:.1f} s")
