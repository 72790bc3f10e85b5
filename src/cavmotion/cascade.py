"""Classical working point of the cascaded two-cavity chain.

Each cavity obeys the same steady-state condition
    zeta_j { gamma/2 + a I_j + i (Delta_j - b I_j) } = sqrt(gamma) zeta_j_in,
with I_j = |zeta_j|^2 and the intensity-pulling coefficients
    a = chi^2 Gamma / (Gamma^2/4 + Omega^2),
    b = 2 chi^2 Omega / (Gamma^2/4 + Omega^2).
Taking the squared modulus turns this into a real cubic in I_j whose one-to-
three positive roots are the familiar bistable S-curve.  The first cavity's
output feeds the second: zeta2_in = sqrt(gamma) zeta1 - zeta1_in.
"""

from dataclasses import dataclass

import numpy as np

BRANCH_LOWER = "lower"
BRANCH_MIDDLE = "middle"
BRANCH_UPPER = "upper"


@dataclass(frozen=True)
class PhysParams:
    """Rates and frequencies of the cascaded setup, all in units of gamma."""

    chi: float
    Omega: float
    Gamma: float = 0.0
    gamma: float = 1.0
    Delta1: float = 0.0
    Delta2: float = 0.0

    def __post_init__(self):
        for name in ("chi", "Omega", "Gamma", "gamma", "Delta1", "Delta2"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.Omega <= 0:
            raise ValueError(f"Omega must be > 0, got {self.Omega}")
        if self.chi < 0:
            raise ValueError(f"chi must be >= 0, got {self.chi}")
        if self.Gamma < 0:
            raise ValueError(f"Gamma must be >= 0, got {self.Gamma}")


@dataclass
class SteadyBranch:
    """One self-consistent steady state of the full chain."""

    zeta1: complex
    zeta2: complex
    zeta1_in: complex
    zeta2_in: complex
    alpha: complex
    beta: complex
    intensity1: float
    intensity2: float
    branch1: str
    branch2: str
    jumped1: bool = False
    jumped2: bool = False


def pulling_coefficients(params):
    """(a, b) of the braced steady-state factor."""
    den = params.Gamma**2 / 4.0 + params.Omega**2
    return params.chi**2 * params.Gamma / den, 2.0 * params.chi**2 * params.Omega / den


def cavity_bracket(params, delta, intensity):
    """The braced factor gamma/2 + a I + i (delta - b I) at intensity I."""
    a, b = pulling_coefficients(params)
    return params.gamma / 2.0 + a * intensity + 1j * (delta - b * intensity)


def _cubic_real_roots(c3, c2, c1, c0):
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0 by Cardano (trig branch
    for three real roots); coefficients are real, c3 != 0."""
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    shift = -b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        s = np.sqrt(disc)
        return [shift + np.cbrt(-q / 2.0 + s) + np.cbrt(-q / 2.0 - s)]
    if p == 0.0:
        return [shift]
    m = 2.0 * np.sqrt(-p / 3.0)
    theta = np.arccos(np.clip(3.0 * q / (p * m), -1.0, 1.0)) / 3.0
    return [shift + m * np.cos(theta - 2.0 * np.pi * k / 3.0) for k in range(3)]


def intensity_roots(params, delta, drive_power):
    """All nonnegative intensities solving the steady-state modulus cubic.

    drive_power is gamma |zeta_in|^2.  Roots get one Newton polish and come
    back sorted ascending; the count is 1, 2 (degenerate) or 3.
    """
    if drive_power < 0:
        raise ValueError(f"drive_power must be >= 0, got {drive_power}")
    if drive_power == 0.0:
        return [0.0]
    a, b = pulling_coefficients(params)
    g = params.gamma
    c3 = a * a + b * b
    c2 = g * a - 2.0 * delta * b
    c1 = g * g / 4.0 + delta * delta
    c0 = -drive_power
    if c3 == 0.0:
        roots = [drive_power / c1]
    else:
        roots = _cubic_real_roots(c3, c2, c1, c0)

    def f(i):
        return i * ((g / 2.0 + a * i) ** 2 + (delta - b * i) ** 2) - drive_power

    def df(i):
        return ((g / 2.0 + a * i) ** 2 + (delta - b * i) ** 2
                + i * (2.0 * a * (g / 2.0 + a * i) - 2.0 * b * (delta - b * i)))

    polished = []
    for root in roots:
        slope = df(root)
        if slope != 0.0 and np.isfinite(slope):
            step = f(root) / slope
            if np.isfinite(step):
                root = root - step
        if np.isfinite(root) and root >= 0.0:
            polished.append(float(root))
    return sorted(polished)


def _turning_points(params, delta):
    """Intensities (lo, hi) where the S-curve turns, or None if it is monotone."""
    a, b = pulling_coefficients(params)
    g = params.gamma
    c2 = 3.0 * (a * a + b * b)
    c1 = 2.0 * (g * a - 2.0 * delta * b)
    c0 = g * g / 4.0 + delta * delta
    if c2 == 0.0:
        return None
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc <= 0.0:
        return None
    lo = (-c1 - np.sqrt(disc)) / (2.0 * c2)
    hi = (-c1 + np.sqrt(disc)) / (2.0 * c2)
    if hi <= 0.0:
        return None
    return lo, hi


def branch_label(params, delta, intensity):
    """Classify an intensity as lower/middle/upper on the S-curve.

    The middle segment is where the drive power decreases with intensity;
    its edges are the positive turning points of the modulus cubic.  A
    monotone curve is all "lower".
    """
    turns = _turning_points(params, delta)
    if turns is None:
        return BRANCH_LOWER
    lo, hi = turns
    if intensity < lo:
        return BRANCH_LOWER
    if intensity <= hi:
        return BRANCH_MIDDLE
    return BRANCH_UPPER


def _select_root(roots, selection, previous):
    if selection == "lowest":
        return roots[0]
    if selection == "highest":
        return roots[-1]
    if selection == "follow":
        if previous is None:
            return roots[0]
        return min(roots, key=lambda i: abs(i - previous))
    raise ValueError(f"unknown branch selection {selection!r}")


def steady_state(params, zeta1_in, selection="lowest", previous=None):
    """Solve both cavities at drive zeta1_in and the atoms riding them.

    selection is "lowest", "highest" or "follow"; "follow" continues each
    cavity from the intensities of the previous SteadyBranch (adiabatic
    sweep continuation) and reports a branch jump through jumped1/jumped2
    when the branch it was riding has vanished.  Whether the working point
    is stable is decided by the drift-matrix eigenvalues in the fluctuation
    module.
    """
    zeta1_in = complex(zeta1_in)
    g = params.gamma
    sqg = np.sqrt(g)

    prev1 = previous.intensity1 if previous is not None else None
    prev2 = previous.intensity2 if previous is not None else None

    roots1 = intensity_roots(params, params.Delta1, g * abs(zeta1_in) ** 2)
    i1 = _select_root(roots1, selection, prev1)
    zeta1 = sqg * zeta1_in / cavity_bracket(params, params.Delta1, i1)
    intensity1 = abs(zeta1) ** 2

    zeta2_in = sqg * zeta1 - zeta1_in
    roots2 = intensity_roots(params, params.Delta2, g * abs(zeta2_in) ** 2)
    i2 = _select_root(roots2, selection, prev2)
    zeta2 = sqg * zeta2_in / cavity_bracket(params, params.Delta2, i2)
    intensity2 = abs(zeta2) ** 2

    branch1 = branch_label(params, params.Delta1, i1)
    branch2 = branch_label(params, params.Delta2, i2)
    jumped1 = jumped2 = False
    if selection == "follow" and previous is not None:
        # a jump means the branch being ridden vanished: no root remains
        # near the previous intensity and the branch class changed
        def vanished(prev_i, new_i, prev_branch, new_branch):
            return (abs(new_i - prev_i) > max(prev_i, 1e-12)
                    and new_branch != prev_branch)

        jumped1 = vanished(previous.intensity1, i1, previous.branch1, branch1)
        jumped2 = vanished(previous.intensity2, i2, previous.branch2, branch2)

    motional_pole = params.Gamma / 2.0 + 1j * params.Omega
    alpha = -1j * params.chi * intensity1 / motional_pole
    beta = -1j * params.chi * intensity2 / motional_pole

    return SteadyBranch(
        zeta1=zeta1, zeta2=zeta2,
        zeta1_in=zeta1_in, zeta2_in=zeta2_in,
        alpha=alpha, beta=beta,
        intensity1=intensity1, intensity2=intensity2,
        branch1=branch1, branch2=branch2,
        jumped1=jumped1, jumped2=jumped2,
    )


def residual(params, candidate):
    """Worst-cavity defect of the steady-state condition at the candidate.

    max_j | zeta_j * bracket(|zeta_j|^2) - sqrt(gamma) zeta_j_in |
    with the braced factor re-evaluated at the candidate's own intensity.
    """
    sqg = np.sqrt(params.gamma)
    cavities = ((candidate.zeta1, candidate.zeta1_in, params.Delta1),
                (candidate.zeta2, candidate.zeta2_in, params.Delta2))
    return float(max(abs(z * cavity_bracket(params, delta, abs(z) ** 2) - sqg * z_in)
                     for z, z_in, delta in cavities))


def bistable_window(params, delta):
    """Drive-power interval with three intensity roots, or None if monotone.

    Returned as (power_low, power_high): the drive powers of the upper and
    lower turning points of the S-curve.
    """
    turns = _turning_points(params, delta)
    if turns is None:
        return None
    lo, hi = turns
    a, b = pulling_coefficients(params)
    g = params.gamma

    def power(i):
        return i * ((g / 2.0 + a * i) ** 2 + (delta - b * i) ** 2)

    return (power(hi), power(lo))
