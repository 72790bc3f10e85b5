"""Conditional entangling in one cavity: efficiency vs measured quadrature.

Reproduces the three-amplitude efficiency curves (kappa = 1, measurement at
scaled time pi): the most probable outcome x = 0 is the least entangling,
and the achievable yield grows with the driving amplitude.  Writes a CSV
with one efficiency column per amplitude plus an SVG rendering.
"""

import os

import numpy as np

from cavmotion import efficiency_profile
from cavmotion.cli import format_csv
from cavmotion.svgplot import render_plot

AMPLITUDES = (0.1, 0.4, 0.8)
x_grid = np.linspace(-4.0, 4.0, 161)

curves = [efficiency_profile(zeta, 1.0, np.pi, x_grid=x_grid).efficiency for zeta in AMPLITUDES]
for zeta, curve in zip(AMPLITUDES, curves):
    print(f"zeta={zeta}: peak efficiency {curve.max():.5f} at x={x_grid[np.argmax(curve)]:+.2f}, "
          f"origin value {curve[80]:.5f}")

names = [f"efficiency_zeta_{str(z).replace('.', 'p')}" for z in AMPLITUDES]
csv_text = format_csv("x," + ",".join(names), (x_grid, *curves))

os.makedirs("demo_output", exist_ok=True)
with open("demo_output/conditional_efficiency.csv", "w") as fh:
    fh.write(csv_text)
with open("demo_output/conditional_efficiency.svg", "w") as fh:
    fh.write(render_plot(csv_text, "x", names, title="entanglement yield per outcome"))
print("wrote demo_output/conditional_efficiency.{csv,svg}")
