"""Optical bistability of the intensity-pulled cavities.

Sweeps the drive through the three-root window and shows the hysteresis:
continuing adiabatically upward keeps the cavity on the dim branch until
that branch folds away, at which point the intensity jumps by orders of
magnitude.
"""

import numpy as np

from cavmotion import PhysParams, bistable_window, root_grid, steady_grid
from cavmotion.cascade import BRANCH_NAMES

params = PhysParams(chi=1.0, Omega=10.0, Gamma=1e-3, gamma=1.0, Delta1=1e4, Delta2=1e4)

window = bistable_window(params, params.Delta1)
print(f"three-root drive-power window: [{window[0]:.4g}, {window[1]:.4g}]")
print(f"(drive amplitudes [{np.sqrt(window[0]):.4g}, {np.sqrt(window[1]):.4g}])\n")

mid_power = np.sqrt(window[0] * window[1])
roots = root_grid(params, params.Delta1, [mid_power])[0]
print(f"intensity roots at the window midpoint: {[f'{r:.5g}' for r in roots]}\n")

jump_drive = np.sqrt(window[1] / params.gamma)
drives = np.geomspace(0.2 * jump_drive, 3.0 * jump_drive, 25)
sweep = steady_grid(params, drives, selection="follow")
print(f"{'drive':>12} {'I1':>12} {'branch1':>8} {'jump?':>6}")
for drive, intensity, branch, jumped in zip(drives, sweep.intensity1, sweep.branch1,
                                            sweep.jumped1):
    mark = "<==" if jumped else ""
    print(f"{drive:12.4g} {intensity:12.5g} {BRANCH_NAMES[branch]:>8} {mark:>6}")
