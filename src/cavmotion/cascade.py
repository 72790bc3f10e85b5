"""Classical working point of the cascaded two-cavity chain.

Each cavity obeys the same steady-state condition
    zeta_j { gamma/2 + a I_j + i (Delta_j - b I_j) } = sqrt(gamma) zeta_j_in,
with I_j = |zeta_j|^2 and the intensity-pulling coefficients
    a = chi^2 Gamma / (Gamma^2/4 + Omega^2),
    b = 2 chi^2 Omega / (Gamma^2/4 + Omega^2).
Taking the squared modulus turns this into a real cubic in I_j whose one-to-
three positive roots are the familiar bistable S-curve.  The first cavity's
output feeds the second: zeta2_in = sqrt(gamma) zeta1 - zeta1_in.
root_grid, steady_grid and residual each compute under one floating-point boundary.
"""

from dataclasses import dataclass, fields

import numpy as np

# branch codes on the S-curve, named by BRANCH_NAMES[code]; NONE: a nan intensity, no working point
BRANCH_LOWER, BRANCH_MIDDLE, BRANCH_UPPER, BRANCH_NONE = range(4)
BRANCH_NAMES = ("lower", "middle", "upper", "none")
SELECTIONS = ("lowest", "highest", "follow")

# largest miss of the modulus cubic, relative to the drive power, that a
# Cardano root may keep before its row is solved again by bisection
ROOT_TOLERANCE = 1e-12
EPS = np.finfo(float).eps


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
        for field in fields(self):
            v = getattr(self, field.name)
            if not np.isfinite(v):
                raise ValueError(f"{field.name} must be finite, got {v}")
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
    """One self-consistent steady state of the full chain: numbers at one
    drive, or arrays over a grid of drives."""

    zeta1: complex
    zeta2: complex
    zeta1_in: complex
    zeta2_in: complex
    alpha: complex
    beta: complex
    intensity1: float
    intensity2: float
    branch1: int  # BRANCH_* codes
    branch2: int
    jumped1: bool = False
    jumped2: bool = False

    def __getitem__(self, index):
        """The same fields at `index` of every array, e.g. a block of drives."""
        return SteadyBranch(**{name: value[index] for name, value in vars(self).items()})


def pulling_coefficients(params):
    """(a, b) of the braced steady-state factor; OverflowError where either overflows."""
    chi, den = params.chi, params.Gamma * params.Gamma / 4.0 + params.Omega * params.Omega
    a, b = chi * chi * params.Gamma / den, 2.0 * chi * chi * params.Omega / den
    if not (np.isfinite(a) and np.isfinite(b)):
        raise OverflowError(f"intensity-pulling coefficients overflow: a = {a}, b = {b}")
    return a, b


def cavity_bracket(params, delta, intensity):
    """The braced factor gamma/2 + a I + i (delta - b I) at intensity I."""
    a, b = pulling_coefficients(params)
    return params.gamma / 2.0 + a * intensity + 1j * (delta - b * intensity)


def _cubic_coefficients(params, delta):
    """(c3, c2, c1) of the modulus cubic I |bracket(I)|^2 = c3 I^3 + c2 I^2 + c1 I."""
    a, b = pulling_coefficients(params)
    g = params.gamma
    return a * a + b * b, g * a - 2.0 * delta * b, g * g / 4.0 + delta * delta


def _modulus_cubic(params, delta, intensity, drive_power):
    """(I |bracket(I)|^2 - P, its derivative in I) at every intensity;
    drive_power broadcasts against intensity."""
    a, b = pulling_coefficients(params)
    u, v = params.gamma / 2.0 + a * intensity, delta - b * intensity
    modulus = u * u + v * v
    return intensity * modulus - drive_power, modulus + intensity * (2.0 * a * u - 2.0 * b * v)


def _misses_cubic(params, delta, roots, drive_power):
    """Rows of a root grid that hold no root at a positive drive, or whose
    roots miss the modulus cubic by more than ROOT_TOLERANCE relative to
    the drive power, beyond the rounding floor of the check: the
    cancellation in delta - b I where the detuning is pulled near
    resonance.  The miss cannot overflow at a root."""
    b = pulling_coefficients(params)[1]
    power = drive_power[:, None]
    miss = np.abs(_modulus_cubic(params, delta, roots, power)[0])
    floor = 8.0 * EPS * roots * np.abs(delta - b * roots) * (abs(delta) + b * roots)
    missed = np.any(np.isinf(miss) | (miss > ROOT_TOLERANCE * power + floor), axis=1)
    return (missed | np.isnan(roots[:, 0])) & (drive_power > 0.0)


def _bracketed_roots(params, delta, drive_power):
    """Rows of root_grid by bisection, for positive drive powers.

    The turning points split [0, 4 P / gamma^2] (every root lies below it,
    since |bracket|^2 >= gamma^2/4; the largest float caps it, as no root
    lies beyond) into up to three monotone pieces; each piece whose ends
    straddle a sign change holds one root.  Floats from +0.0 to +inf order
    like their int64 bit patterns, which span less than 2^63, so 63
    halvings of a piece's bit interval leave two adjacent floats across
    the sign change: the root is the one where the cubic misses less.
    """
    g, (a, b) = params.gamma, pulling_coefficients(params)

    def cubic(intensity, power):  # the value of `_modulus_cubic`, in its arithmetic
        u, v = g / 2.0 + a * intensity, delta - b * intensity
        return intensity * (u * u + v * v) - power
    top = np.minimum(4.0 * drive_power / (g * g), np.finfo(float).max)
    cuts = np.zeros(drive_power.shape + (4,))
    cuts[:, 1:] = top[:, None]
    turns = _turning_points(params, delta)
    if turns is not None:
        # a turning point at -0.0, whose bits are negative, cuts at +0.0
        turns = np.array(turns)
        cuts[:, 1:3] = np.where(turns > 0.0, np.minimum(turns, top[:, None]), 0.0)
    sign = np.sign(cubic(cuts, drive_power[:, None]))
    has_root = (sign[:, :-1] != 0.0) & (sign[:, :-1] * sign[:, 1:] <= 0.0)
    rows, pieces = np.nonzero(has_root)
    power, lower_sign = drive_power[rows], sign[rows, pieces]
    lower, upper = cuts[rows, pieces].view(np.int64), cuts[rows, pieces + 1].view(np.int64)
    for _ in range(63):
        middle = lower + (upper - lower) // 2
        left = np.sign(cubic(middle.view(float), power)) == lower_sign
        lower, upper = np.where(left, middle, lower), np.where(left, upper, middle)
    lower, upper = lower.view(float), upper.view(float)
    miss_lower, miss_upper = np.abs(cubic(lower, power)), np.abs(cubic(upper, power))
    roots = np.full(has_root.shape, np.nan)
    roots[rows, pieces] = np.where(miss_lower <= miss_upper, lower, upper)
    return np.sort(roots, axis=1)


def root_grid(params, delta, drive_power):
    """Every nonnegative intensity solving the steady-state modulus cubic,
    for a 1-d array of drive powers gamma |zeta_in|^2.

    Returns an (n, 3) array: row k holds the 1, 2 (degenerate) or 3 roots
    at drive_power[k] in ascending order, padded with nan.  Cardano (trig
    branch for three real roots) and one Newton polish run on the whole
    array.  Cardano cancels catastrophically once the cubic term is small
    (weak coupling, or weak drive), so a row whose roots miss the cubic by
    more than ROOT_TOLERANCE relative to the drive power (beyond the
    rounding floor of the check itself), or that finds no root, is solved
    again by bisection (`_bracketed_roots`), which never gives an inf root.
    """
    drive_power = np.asarray(drive_power, dtype=float)
    negative = drive_power < 0
    if negative.any():
        raise ValueError(f"drive_power must be >= 0, got {drive_power[negative][0]}")
    c3, c2, c1 = _cubic_coefficients(params, delta)
    roots = np.full(drive_power.shape + (3,), np.nan)
    with np.errstate(all="ignore"):  # nan, inf and overflowing rows are judged below
        if c3 == 0.0:  # a c1 that underflows to 0 gives an inf root, dropped below
            roots[:, 0] = drive_power / c1
        else:
            # at weak coupling the normalized coefficients overflow: the rows
            # come back nan and are solved again below
            b2, b1, b0 = c2 / c3, c1 / c3, -drive_power / c3
            shift = -b2 / 3.0
            p = b1 - b2 * b2 / 3.0
            q = 2.0 * b2 * b2 * b2 / 27.0 - b2 * b1 / 3.0 + b0
            disc = (q / 2.0) * (q / 2.0) + (p / 3.0) * (p / 3.0) * (p / 3.0)
            one = disc > 0.0
            # the cube root without cancellation, and its partner from their product -p/3
            u = np.cbrt(-q[one] / 2.0 - np.copysign(np.sqrt(disc[one]), q[one]))
            v = -p / (3.0 * u)
            root = shift + u + v
            # a root far below |shift| cancels there: take it as the product
            # of all three roots, -b0, over the complex pair's modulus squared
            real, imag = shift - 0.5 * (u + v), u - v
            pair = real * real + 0.75 * imag * imag
            roots[one, 0] = np.where(np.abs(root) < np.abs(shift), -b0[one] / pair, root)
            three = ~one
            if three.any():
                m = 2.0 * np.sqrt(-p / 3.0)
                theta = np.arccos(np.clip(3.0 * q[three] / (p * m), -1.0, 1.0)) / 3.0
                roots[three] = shift + m * np.cos(theta[:, None] - 2.0 * np.pi * np.arange(3) / 3.0)
        value, slope = _modulus_cubic(params, delta, roots, drive_power[:, None])
        step = value / slope
        polish = (slope != 0.0) & np.isfinite(slope) & np.isfinite(step)
        roots = np.where(polish, roots - step, roots)
        roots = np.sort(np.where(np.isfinite(roots) & (roots >= 0.0), roots, np.nan), axis=1)
        missed = _misses_cubic(params, delta, roots, drive_power)
        if missed.any():
            roots[missed] = _bracketed_roots(params, delta, drive_power[missed])
    roots[drive_power == 0.0] = (0.0, np.nan, np.nan)
    return roots


def _turning_points(params, delta):
    """Intensities (lo, hi) where the S-curve turns, or None if it is monotone."""
    c3, c2, c1 = _cubic_coefficients(params, delta)
    if c3 == 0.0:
        return None
    # the roots of the cubic's derivative 3 c3 I^2 + 2 c2 I + c1
    disc = c2 * c2 - 3.0 * c3 * c1
    if disc <= 0.0:
        return None
    lo = (-c2 - np.sqrt(disc)) / (3.0 * c3)
    hi = (-c2 + np.sqrt(disc)) / (3.0 * c3)
    if hi <= 0.0:
        return None
    return lo, hi


def branch_labels(params, delta, intensity):
    """The branch code (BRANCH_LOWER, _MIDDLE or _UPPER) of every intensity
    of an array on the S-curve, with one turning-point computation.

    The middle segment is where the drive power decreases with intensity;
    its edges are the turning points of the modulus cubic, both middle.  A
    monotone curve is all BRANCH_LOWER; a nan intensity is BRANCH_NONE.
    """
    turns = _turning_points(params, delta)
    intensity = np.asarray(intensity, dtype=float)
    if turns is None:
        labels = np.full(intensity.shape, BRANCH_LOWER)
    else:  # integer addition: on bools `+` is a logical or
        lo, hi = turns
        labels = np.add(intensity >= lo, intensity > hi, dtype=int)
    return np.where(np.isnan(intensity), BRANCH_NONE, labels)


def _select(roots, selection):
    """Column of the selected root in every row of a root grid.  "follow" takes
    the root nearest the one picked at the drive before (the lowest at the
    first drive, in a tie or where all are nan) from one table for every
    drive: a step that sends every column to one sets the pick, one that sends each
    to itself keeps it, and only the others run drive by drive before a forward fill."""
    if selection == "lowest":
        return np.zeros(len(roots), dtype=np.intp)
    if selection == "highest":
        return np.count_nonzero(~np.isnan(roots), axis=1) - 1
    # nearest[k - 1, j]: the column picked at drive k after column j at drive k - 1; padding
    # reads +inf at k and -inf at k - 1: its distances are inf, and a row with none finite picks 0
    current, previous = (np.where(np.isnan(roots), pad, roots) for pad in (np.inf, -np.inf))
    nearest = np.argmin(np.abs(current[1:, None, :] - previous[:-1, :, None]), axis=2)
    kept = np.zeros(len(roots), dtype=bool)
    kept[1:] = np.all(nearest == np.arange(3), axis=1)
    source = np.maximum.accumulate(np.where(kept, 0, np.arange(len(roots))))  # last not kept
    picks = np.zeros(len(roots), dtype=np.intp)
    picks[1:] = nearest[:, 0]  # the pick of a step that sets it
    for k in np.flatnonzero(~kept[1:] & np.any(nearest != nearest[:, :1], axis=1)).tolist():
        picks[k + 1] = nearest[k, picks[source[k]]]
    return picks[source]


def _cavity(params, delta, drive_in, selection):
    """One cavity at every drive of `drive_in`: the selected working point's
    amplitude, intensity, branch and jump flag, formed at the selected root
    alone.  Near resonance the bracket u + i v cancels in v = delta - b I, by
    eps (|delta| + b I) at a float root I, where |v| = (P / I - u^2)^(1/2) from
    the cubic errs by eps P / (I |v|): the latter, with the float v's sign, is
    taken where 4 times smaller."""
    g, (a, b) = params.gamma, pulling_coefficients(params)
    power = g * (drive_in.real**2 + drive_in.imag**2)  # inf past the float range: nan rows
    roots = root_grid(params, delta, power)
    root = roots[np.arange(len(roots)), _select(roots, selection)]
    u, v, modulus = g / 2.0 + a * root, delta - b * root, power / root
    pulled = np.sqrt(modulus - u * u)
    v = np.where(pulled * (abs(delta) + b * root) > 4.0 * modulus, np.copysign(pulled, v), v)
    zeta = np.sqrt(g) * drive_in / (u + 1j * v)
    branch = branch_labels(params, delta, root)
    jumped = np.zeros(root.shape, dtype=bool)
    if selection == "follow":
        # a jump means the branch being ridden vanished: the root moved, up or
        # down, by more than the smaller of the two, and the branch code changed
        moved = np.abs(root[1:] - root[:-1]) > np.minimum(root[1:], root[:-1])
        jumped[1:] = moved & (branch[1:] != branch[:-1])
    return zeta, zeta.real**2 + zeta.imag**2, branch, jumped


def steady_grid(params, zeta1_in, selection="lowest"):
    """Solve both cavities and the atoms riding them at every drive of a
    1-d array zeta1_in.

    selection is "lowest", "highest" or "follow"; "follow" continues each
    cavity from the intensities at the drive before (adiabatic sweep
    continuation; the lowest roots at the first drive), and reports a
    branch jump through jumped1/jumped2 when the branch it was riding has
    vanished.  Whether a working point is stable is decided by
    `spectra.stability_grid`.
    """
    if selection not in SELECTIONS:
        raise ValueError(f"unknown branch selection {selection!r}")
    zeta1_in = np.asarray(zeta1_in, dtype=complex)
    with np.errstate(all="ignore"):  # a nan, zero or overflowing root gives BRANCH_NONE
        zeta1, intensity1, branch1, jumped1 = _cavity(params, params.Delta1, zeta1_in, selection)
        zeta2_in = np.sqrt(params.gamma) * zeta1 - zeta1_in
        zeta2, intensity2, branch2, jumped2 = _cavity(params, params.Delta2, zeta2_in, selection)

        motional_pole = params.Gamma / 2.0 + 1j * params.Omega
        return SteadyBranch(
            zeta1=zeta1, zeta2=zeta2,
            zeta1_in=zeta1_in, zeta2_in=zeta2_in,
            alpha=-1j * params.chi * intensity1 / motional_pole,
            beta=-1j * params.chi * intensity2 / motional_pole,
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
    with np.errstate(over="ignore", invalid="ignore"):  # a working point past the float range
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
    return tuple(float(_modulus_cubic(params, delta, turn, 0.0)[0]) for turn in (hi, lo))
