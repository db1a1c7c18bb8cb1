"""Recover the welding coefficient from a (synthetic) sensor trace.

A real workflow loads a measured CSV; here the "measurement" is a
simulation at a hidden coefficient plus sensor noise.  The grid search
scores each candidate by mean squared error at the measured timestamps and
reports Pearson correlation alongside; one refinement round then narrows
the grid tenfold around the incumbent.
"""

import numpy as np

from reflowsim import (
    ProcessParameters,
    ThermalTrace,
    WeldingModel,
    build_profile,
    calibrate_coefficient,
    default_layout,
    fit_blend_weight,
    simulate,
)

layout = default_layout()
params = ProcessParameters()
profile = build_profile(layout, params, weight=0.8)

hidden = 0.021
rng = np.random.default_rng(11)
clean = simulate(profile, params, WeldingModel(hidden))
measured = ThermalTrace(
    clean.dt, clean.belt_speed, clean.temps + rng.normal(0.0, 1.0, len(clean))
)
print(f"synthetic measurement: coefficient {hidden}, noise sigma = 1 degC")

candidates = [0.0200, 0.0205, 0.0210, 0.0215, 0.0220]
result = calibrate_coefficient(measured, layout, params, 0.8, candidates,
                               refine_rounds=1)
print(f"\n{'coefficient':>12} {'mse (degC^2)':>14} {'pearson':>10}")
for s in sorted(result.scores, key=lambda s: s.coefficient):
    marker = "  <- best" if s.coefficient == result.best_coefficient else ""
    print(f"{s.coefficient:12.5f} {s.discrepancy:14.4f} {s.pearson:10.6f}{marker}")
print(f"\nbest coefficient: {result.best_coefficient:.5f} (true value {hidden})")

# The cooling-blend weight can be fitted the same way.
fit = fit_blend_weight(measured, layout, params, result.best_coefficient,
                       [0.6, 0.7, 0.8, 0.9, 1.0])
print(f"best cooling blend weight: {fit.best_weight:.2f} (profile built with 0.8)")
