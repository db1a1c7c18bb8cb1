"""Simulate the weld-center temperature through the furnace.

The board relaxes toward the local ambient temperature at a single rate
(the welding coefficient, here 0.021 per second).  The trace is integrated
with fixed-step RK4 and sampled every 0.5 s; a fine-step forward-Euler run
of the same model shows how close the two integrators stay.
"""

import numpy as np

from reflowsim import (
    ProcessParameters,
    SimulationGrid,
    WeldingModel,
    build_profile,
    default_layout,
    position_at_time,
    simulate,
    write_trace_csv,
)

layout = default_layout()
params = ProcessParameters()
profile = build_profile(layout, params, weight=0.8)
model = WeldingModel(coefficient=0.021)

trace = simulate(profile, params, model, SimulationGrid(dt=0.1, dt_out=0.5))
print(f"simulated {len(trace)} samples over {trace.duration:.1f} s "
      f"({trace.positions[-1]:.1f} cm of track)")

peak_idx = int(np.argmax(trace.temps))
print(f"start temperature: {trace.temps[0]:.1f} degC")
print(f"peak temperature:  {trace.temps[peak_idx]:.2f} degC "
      f"at t = {trace.times[peak_idx]:.1f} s, x = {trace.positions[peak_idx]:.1f} cm")
print(f"exit temperature:  {trace.temps[-1]:.2f} degC")

print("\ntrace every 30 s:")
for i in range(0, len(trace), 60):
    t, x, temp = trace.times[i], trace.positions[i], trace.temps[i]
    print(f"  t = {t:6.1f} s  x = {x:6.1f} cm  T = {temp:7.2f} degC  {'#' * int(temp / 5)}")

# forward Euler of the same ODE in 1 ms steps, on the field at every node
dt = 0.001
euler_times = np.arange(round(trace.duration / dt) + 1) * dt
y, euler = params.tt5, [params.tt5]
for ambient in profile(position_at_time(params.belt_speed, euler_times[:-1])).tolist():
    y += dt * model.coefficient * (ambient - y)
    euler.append(y)
on_grid = np.interp(trace.times, euler_times, euler)
print(f"\nmax |RK4 - Euler(1 ms)| = {np.max(np.abs(trace.temps - on_grid)):.4f} degC")

write_trace_csv(trace, "demo_trace.csv")
print("trace written to demo_trace.csv")
