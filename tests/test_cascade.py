"""Cascaded steady-state checks."""

import functools
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavmotion import cascade
from cavmotion.cascade import (
    BRANCH_LOWER,
    BRANCH_MIDDLE,
    BRANCH_NONE,
    BRANCH_UPPER,
    SELECTIONS,
    PhysParams,
    SteadyBranch,
    bistable_window,
    branch_labels,
    cavity_bracket,
    pulling_coefficients,
    residual,
    root_grid,
    steady_grid,
)

CANONICAL_RATES = dict(Gamma=1e-3, gamma=1.0, Delta1=1e4, Delta2=1e4)


def cubic_discriminant(c3, c2, c1, c0):
    """Sign oracle: > 0 means three distinct real roots."""
    return (18 * c3 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2
            - 4 * c3 * c1**3 - 27 * c3**2 * c0**2)


def found(row):
    """The roots of one row of a root grid, without its nan padding."""
    return row[~np.isnan(row)].tolist()


def modulus_cubic_coeffs(params, delta, power):
    a, b = pulling_coefficients(params)
    g = params.gamma
    return a * a + b * b, g * a - 2 * delta * b, g * g / 4 + delta * delta, -power


class TestIntensityRoots:
    def test_linear_cavity(self):
        params = PhysParams(chi=0.0, Omega=5.0, Gamma=0.1, gamma=1.0, Delta1=2.0)
        roots = found(root_grid(params, 2.0, [3.0])[0])
        assert roots == pytest.approx([3.0 / (0.25 + 4.0)], rel=1e-12)

    def test_zero_drive(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        assert found(root_grid(params, params.Delta1, [0.0])[0]) == [0.0]

    def test_negative_drive_rejected(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        with pytest.raises(ValueError):
            root_grid(params, params.Delta1, [-1.0])

    @pytest.mark.parametrize("Omega", [1.0, 10.0, 100.0])
    def test_three_root_window_matches_discriminant_oracle(self, Omega):
        params = PhysParams(chi=1.0, Omega=Omega, **CANONICAL_RATES)
        window = bistable_window(params, params.Delta1)
        assert window is not None
        p_lo, p_hi = window
        assert 0 < p_lo < p_hi
        inside = np.sqrt(p_lo * p_hi)
        cases = [(0.5 * p_lo, 1), (inside, 3), (2.0 * p_hi, 1)]
        rows = root_grid(params, params.Delta1, [power for power, _ in cases])
        for (power, want), row in zip(cases, rows):
            assert len(found(row)) == want
            disc = cubic_discriminant(*modulus_cubic_coeffs(params, params.Delta1, power))
            assert (disc > 0) == (want == 3)

    def test_roots_satisfy_modulus_equation(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        a, b = pulling_coefficients(params)
        window = bistable_window(params, params.Delta1)
        power = np.sqrt(window[0] * window[1])
        for i in found(root_grid(params, params.Delta1, [power])[0]):
            lhs = i * ((params.gamma / 2 + a * i) ** 2 + (params.Delta1 - b * i) ** 2)
            assert lhs == pytest.approx(power, rel=1e-10)

    def test_root_count_bounds_and_sorting(self):
        rng = np.random.default_rng(17)
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        for row in root_grid(params, params.Delta1, 10.0 ** rng.uniform(0, 14, 40)):
            roots = found(row)
            assert 1 <= len(roots) <= 3
            assert roots == sorted(roots)
            assert all(r >= 0 for r in roots)

    def test_lowest_root_monotone_in_drive(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        powers = np.geomspace(1.0, 1e13, 80)
        lows = root_grid(params, params.Delta1, powers)[:, 0].tolist()
        assert all(x <= y + 1e-12 * max(1, y) for x, y in zip(lows, lows[1:]))

    @pytest.mark.parametrize("Omega", [10.0, 1000.0])
    def test_bisection_cuts_at_the_turning_points(self, Omega):
        # inside the window each monotone piece between the turning points
        # holds one of the three roots; uncut, the bisection finds one
        params = PhysParams(chi=1.0, Omega=Omega, **CANONICAL_RATES)
        lo, hi = bistable_window(params, params.Delta1)
        powers = np.geomspace(lo, hi, 9)[1:-1]
        want = root_grid(params, params.Delta1, powers)
        assert not np.isnan(want).any()
        got = cascade._bracketed_roots(params, params.Delta1, powers)
        np.testing.assert_allclose(got, want, rtol=4.0 * np.finfo(float).eps, atol=0.0)

    def test_overflowing_pulling_coefficients_raise(self):
        params = PhysParams(chi=1e160, Omega=1000.0, **CANONICAL_RATES)
        with pytest.raises(OverflowError, match="intensity-pulling coefficients overflow"):
            pulling_coefficients(params)

    def test_underflowing_cubic_term_has_no_window(self):
        # at chi = 1e-80, c3 = a^2 + b^2 underflows to 0: the S-curve is the
        # linear cavity's, not a window at infinite drive
        params = PhysParams(chi=1e-80, Omega=1000.0, **CANONICAL_RATES)
        assert cascade._cubic_coefficients(params, params.Delta1)[0] == 0.0
        assert bistable_window(params, params.Delta1) is None


class TestBranchLabel:
    def test_monostable_is_lower(self):
        params = PhysParams(chi=0.0, Omega=5.0, Gamma=0.1, gamma=1.0, Delta1=1.0)
        assert branch_labels(params, 1.0, 123.0) == BRANCH_LOWER

    def test_three_roots_classify_in_order(self):
        # the second curve, strongly coupled at a small detuning, turns at
        # intensities of order 1e-4: any positive upper turning point, however
        # small, makes a curve bistable
        for params in (PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES),
                       PhysParams(chi=300.0, Omega=10.0, Gamma=1e-3, gamma=1.0, Delta1=10.0)):
            window = bistable_window(params, params.Delta1)
            power = np.sqrt(window[0] * window[1])
            roots = found(root_grid(params, params.Delta1, [power])[0])
            labels = branch_labels(params, params.Delta1, roots).tolist()
            assert labels == [BRANCH_LOWER, BRANCH_MIDDLE, BRANCH_UPPER]
            # both turning points are middle, the floats beside them are not
            lo, hi = cascade._turning_points(params, params.Delta1)
            edges = [np.nextafter(lo, -np.inf), lo, hi, np.nextafter(hi, np.inf)]
            labels = branch_labels(params, params.Delta1, edges).tolist()
            assert labels == [BRANCH_LOWER, BRANCH_MIDDLE, BRANCH_MIDDLE, BRANCH_UPPER]

    def test_nan_intensity_is_none(self):
        # a drive whose power overflowed has no working point, on either curve
        for chi in (0.0, 1.0):
            params = PhysParams(chi=chi, Omega=10.0, **CANONICAL_RATES)
            far = BRANCH_LOWER if chi == 0.0 else BRANCH_UPPER  # a monotone curve is all lower
            labels = branch_labels(params, params.Delta1, [np.nan, 1e30, 0.0, np.inf]).tolist()
            assert labels == [BRANCH_NONE, far, BRANCH_LOWER, far]
        grid = steady_grid(params, np.array([1e5, 1e200]), "follow")
        assert grid.branch1.tolist() == grid.branch2.tolist() == [BRANCH_LOWER, BRANCH_NONE]
        assert grid.branch1.dtype.kind == grid.branch2.dtype.kind == "i"
        assert not grid.jumped1.any() and not grid.jumped2.any()


class TestSteadyState:
    def test_decoupled_cavities(self):
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        branch = steady_grid(params, np.array([2.0]))[0]
        want = np.sqrt(params.gamma) * 2.0 / (params.gamma / 2 + 1j * params.Delta1)
        assert branch.zeta1 == pytest.approx(want, rel=1e-12)
        assert branch.alpha == 0.0
        assert branch.beta == 0.0

    def test_boundary_condition_exact(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        branch = steady_grid(params, np.array([3.0e5]), selection="lowest")[0]
        assert branch.zeta2_in == np.sqrt(params.gamma) * branch.zeta1 - branch.zeta1_in

    def test_intensity_fields_match_amplitudes(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        grid = steady_grid(params, np.geomspace(1e2, 1e7, 41), selection="highest")
        assert np.array_equal(grid.intensity1, grid.zeta1.real**2 + grid.zeta1.imag**2)
        assert np.array_equal(grid.intensity2, grid.zeta2.real**2 + grid.zeta2.imag**2)

    @pytest.mark.parametrize("selection", ["lowest", "highest"])
    def test_residual_invariant(self, selection):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        grid = steady_grid(params, np.array([1e2, 1e4, 3e5, 1e7]), selection=selection)
        for k in range(4):
            branch = grid[k]
            scale = max(1.0, np.sqrt(params.gamma) * abs(branch.zeta1_in))
            assert residual(params, branch) < 1e-9 * scale

    def test_residual_detects_corruption(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        branch = steady_grid(params, np.array([3.0e5]))[0]
        scale = max(1.0, np.sqrt(params.gamma) * abs(branch.zeta1_in))
        assert residual(params, branch) < 1e-9 * scale
        corrupted = SteadyBranch(**{**branch.__dict__, "zeta1": branch.zeta1 * (1 + 1e-3)})
        assert residual(params, corrupted) > 1e-9 * scale

    def test_residual_equals_direct_substitution(self):
        # independent re-implementation of the braced factor
        params = PhysParams(chi=0.7, Omega=4.0, Gamma=0.3, gamma=1.0, Delta1=2.0, Delta2=-1.0)
        rng = np.random.default_rng(23)
        z1, z2 = (complex(*rng.normal(size=2)) for _ in range(2))
        z1_in, z2_in = (complex(*rng.normal(size=2)) for _ in range(2))
        cand = SteadyBranch(zeta1=z1, zeta2=z2, zeta1_in=z1_in, zeta2_in=z2_in,
                            alpha=0.0, beta=0.0, intensity1=abs(z1) ** 2,
                            intensity2=abs(z2) ** 2,
                            branch1=BRANCH_LOWER, branch2=BRANCH_LOWER)
        den = params.Gamma**2 / 4 + params.Omega**2
        out = []
        for z, z_in, delta in ((z1, z1_in, params.Delta1), (z2, z2_in, params.Delta2)):
            i = abs(z) ** 2
            braced = (params.gamma / 2 + params.chi**2 * i * params.Gamma / den
                      + 1j * (delta - 2 * params.chi**2 * i * params.Omega / den))
            out.append(abs(z * braced - np.sqrt(params.gamma) * z_in))
        assert residual(params, cand) == pytest.approx(max(out), rel=1e-12)

    def test_global_phase_covariance(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        phase = np.exp(0.6j)
        base, rotated = steady_grid(params, 3.0e5 * np.array([1.0, phase]))
        assert rotated.zeta1 == pytest.approx(base.zeta1 * phase, rel=1e-12)
        assert rotated.zeta2_in == pytest.approx(base.zeta2_in * phase, rel=1e-12)
        assert rotated.zeta2 == pytest.approx(base.zeta2 * phase, rel=1e-12)
        assert rotated.intensity1 == pytest.approx(base.intensity1, rel=1e-12)
        assert rotated.intensity2 == pytest.approx(base.intensity2, rel=1e-12)
        assert rotated.alpha == pytest.approx(base.alpha, rel=1e-12)
        assert rotated.beta == pytest.approx(base.beta, rel=1e-12)

    def test_alpha_beta_formulas(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        branch = steady_grid(params, np.array([3.0e5]))[0]
        pole = params.Gamma / 2 + 1j * params.Omega
        assert branch.alpha == pytest.approx(-1j * params.chi * branch.intensity1 / pole, rel=1e-12)
        assert branch.beta == pytest.approx(-1j * params.chi * branch.intensity2 / pole, rel=1e-12)

    def test_middle_branch_flagged_unstable_by_convention(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        window = bistable_window(params, params.Delta1)
        drive = np.sqrt(np.sqrt(window[0] * window[1]) / params.gamma)
        roots = found(root_grid(params, params.Delta1, [params.gamma * drive**2])[0])
        assert len(roots) == 3
        mid = roots[1]
        z1 = np.sqrt(params.gamma) * drive / cavity_bracket(params, params.Delta1, mid)
        assert branch_labels(params, params.Delta1, abs(z1) ** 2) == BRANCH_MIDDLE

    def test_follow_sweep_jump_recorded_once(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        window = bistable_window(params, params.Delta1)
        jump_drive = np.sqrt(window[1] / params.gamma)
        drives = np.geomspace(0.2 * jump_drive, 3.0 * jump_drive, 60)
        jumps = drives[steady_grid(params, drives, selection="follow").jumped1]
        assert len(jumps) == 1
        assert jump_drive / 1.2 <= jumps[0] <= jump_drive * 1.2

    def test_follow_sweep_flags_a_fall_off_the_upper_branch(self):
        # below the window's lower turning point the upper branch is gone:
        # cavity 1 falls from 5.0e6 to 6.4e-3 at the last drive, and the
        # same drives reversed jump up at the last drive
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        lo, hi = bistable_window(params, params.Delta1)
        drives = np.sqrt(np.geomspace(2.0 * hi, lo / 2.0, 14) / params.gamma)
        down = steady_grid(params, drives, selection="follow")
        assert 5e6 < down.intensity1[-2] < 5.01e6 and 6e-3 < down.intensity1[-1] < 7e-3
        assert np.flatnonzero(down.jumped1).tolist() == [13]
        up = steady_grid(params, drives[::-1], selection="follow")
        assert np.flatnonzero(up.jumped1).tolist() == [13]

    def test_descending_follow_stays_on_the_upper_branch(self):
        # drives falling through the bistable window from above it: "follow"
        # rides the upper branch down to its turning point near 5e6, where
        # "lowest" takes the lower branch, 4.2e5 and below
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        lo, hi = bistable_window(params, params.Delta1)
        drives = np.sqrt(np.geomspace(2.0 * hi, 1.001 * lo, 14) / params.gamma)
        follow = steady_grid(params, drives, selection="follow")
        lowest = steady_grid(params, drives, selection="lowest")
        assert np.all(follow.branch1 == BRANCH_UPPER)
        assert np.all((4.99e6 < follow.intensity1) & (follow.intensity1 < 7.3e6))
        assert np.all(lowest.branch1[1:] == BRANCH_LOWER)
        assert np.all(lowest.intensity1[1:] < 5e5)

    def test_unknown_selection_rejected(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        with pytest.raises(ValueError, match="selection"):
            steady_grid(params, np.array([1.0]), selection="median")


class TestPhysParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhysParams(chi=1.0, Omega=0.0)
        with pytest.raises(ValueError):
            PhysParams(chi=1.0, Omega=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            PhysParams(chi=-1.0, Omega=1.0)
        with pytest.raises(ValueError):
            PhysParams(chi=1.0, Omega=1.0, Gamma=-0.5)
        with pytest.raises(ValueError):
            PhysParams(chi=1.0, Omega=np.inf)


# relative error of the working point against the 40-digit reference away
# from window edges, on top of the rounding floor of the bracket (see
# `assert_matches_reference`)
ACCURACY = 1e-14
EPS = np.finfo(float).eps
# where the cubic has a double root its roots move by sqrt(eps) in relative terms
SQRT_EPS = math.sqrt(EPS)
# Cardano loses as many digits as |shift| exceeds a root (up to 27 in these
# tests, at chi = 1e-3 and a power of 1e-6): 80 keep at least 40
ORACLE_DPS = 80


@functools.lru_cache(maxsize=None)
def depressed_cubic(params, delta):
    """(c3, (shift, p, q at zero power, (p/3)^3, 2 sqrt(-p/3))) of the monic
    modulus cubic in I - shift at ORACLE_DPS digits, or (c1, None) for a
    linear cavity."""
    with mpmath.workdps(ORACLE_DPS):
        a, b = (mpmath.mpf(x) for x in pulling_coefficients(params))
        g, d = mpmath.mpf(params.gamma), mpmath.mpf(delta)
        c3, c2, c1 = a * a + b * b, g * a - 2 * d * b, g * g / 4 + d * d
        if c3 == 0:
            return c1, None
        b2, b1 = c2 / c3, c1 / c3
        p = b1 - b2 * b2 / 3
        m = 2 * mpmath.sqrt(-p / 3) if p < 0 else None
        return c3, (-b2 / 3, p, 2 * b2**3 / 27 - b2 * b1 / 3, (p / 3) ** 3, m)


@functools.lru_cache(maxsize=None)
def oracle_roots(params, delta, power):
    """(real roots ascending, complex roots) of the modulus cubic
    c3 I^3 + c2 I^2 + c1 I = P at 40 digits, with the float a, b, gamma,
    delta and power taken exact: Cardano (trig branch for three real roots)
    at ORACLE_DPS digits.  test_oracle_matches_polyroots checks it against
    mpmath.polyroots, which takes 1-9 ms a cubic: too slow for thousands."""
    with mpmath.workdps(ORACLE_DPS):
        if power == 0:
            return (mpmath.mpf(0),), ()
        c, cubic = depressed_cubic(params, delta)
        if cubic is None:
            return (power / c,), ()
        shift, p, q0, p_cubed, m = cubic
        q = q0 - power / c
        disc = q * q / 4 + p_cubed
        if disc > 0:
            u = -mpmath.sign(q) * mpmath.cbrt(abs(q) / 2 + mpmath.sqrt(disc))
            v = -p / (3 * u)
            pair = mpmath.mpc(shift - (u + v) / 2, (u - v) * mpmath.sqrt(3) / 2)
            return (shift + u + v,), (pair, pair.conjugate())
        cos = mpmath.cos(mpmath.acos(3 * q / (p * m)) / 3)
        sin = mpmath.sqrt(3 * (1 - cos * cos))  # sqrt(3) sin, the angle in [0, pi/3]
        return (shift - m * (cos + sin) / 2, shift - m * (cos - sin) / 2, shift + m * cos), ()


def kernel_power(params, zeta_in):
    """gamma |zeta_in|^2 rounded as the kernel rounds it."""
    return params.gamma * (zeta_in.real * zeta_in.real + zeta_in.imag * zeta_in.imag)


def reference_turns(params, delta):
    """Turning points (lo, hi) of the S-curve in floats, or None."""
    a, b = pulling_coefficients(params)
    g = params.gamma
    c2, c1 = 3.0 * (a * a + b * b), 2.0 * (g * a - 2.0 * delta * b)
    disc = c1 * c1 - 4.0 * c2 * (g * g / 4.0 + delta * delta)
    if c2 == 0.0 or disc <= 0.0 or (-c1 + math.sqrt(disc)) / (2.0 * c2) <= 0.0:
        return None
    return (-c1 - math.sqrt(disc)) / (2.0 * c2), (-c1 + math.sqrt(disc)) / (2.0 * c2)


def reference_label(params, delta, intensity):
    turns = reference_turns(params, delta)
    if turns is None or intensity < turns[0]:
        return BRANCH_LOWER
    return BRANCH_MIDDLE if intensity <= turns[1] else BRANCH_UPPER


def reference_chain(params, delta, zeta_in, selection):
    """One cavity along a drive sequence, from its inputs `zeta_in` as the
    kernel computed them: per drive the amplitude and intensity at 40 digits
    (rounded to floats), the branch label and the jump flag, one scalar
    solve per drive from `oracle_roots`; "follow" continues from the
    intensity this reference selected at the drive before."""
    out, before = [], None
    with mpmath.workdps(ORACLE_DPS):
        a, b = (mpmath.mpf(x) for x in pulling_coefficients(params))
        half_gamma, d = mpmath.mpf(params.gamma) / 2, mpmath.mpf(delta)
        sqg = mpmath.sqrt(params.gamma)
        for drive_in in zeta_in.tolist():
            roots = oracle_roots(params, delta, kernel_power(params, drive_in))[0]
            if selection == "lowest" or (selection == "follow" and before is None):
                root = roots[0]
            elif selection == "highest":
                root = roots[-1]
            else:
                root = min(roots, key=lambda i: abs(i - before[0]))
            zeta = sqg * mpmath.mpc(drive_in) / mpmath.mpc(half_gamma + a * root, d - b * root)
            intensity = mpmath.mpf(float(zeta.real**2 + zeta.imag**2))
            branch = reference_label(params, delta, float(root))
            jumped = (selection == "follow" and before is not None
                      and abs(root - before[0]) > max(before[0], 1e-12) and branch != before[1])
            out.append((complex(zeta), float(intensity), branch, jumped))
            before = intensity, branch
    return out


def assert_matches_reference(params, grid, selection, undecided):
    """Every row of a steady grid but the `undecided` ones against
    `reference_chain`, cavity by cavity: labels and jump flags equal, and
    the amplitude, intensity and atomic displacement within ACCURACY
    relative, also near resonance on the upper branch, where delta - b I
    cancels at a float intensity."""
    pole = params.Gamma / 2.0 + 1j * params.Omega
    decided = grid[~undecided]
    for j, delta, atom in ((1, params.Delta1, decided.alpha), (2, params.Delta2, decided.beta)):
        zeta_in = getattr(grid, f"zeta{j}_in")
        zeta, intensity, branch, jumped = (np.array(column)[~undecided] for column in
                                           zip(*reference_chain(params, delta, zeta_in, selection)))
        assert np.array_equal(getattr(decided, f"branch{j}"), branch)
        assert np.array_equal(getattr(decided, f"jumped{j}"), jumped)
        got = np.stack((getattr(decided, f"zeta{j}"), getattr(decided, f"intensity{j}"), atom))
        want = np.stack((zeta, intensity, -1j * params.chi * intensity / pole))
        assert np.all(np.abs(got - want) <= ACCURACY * np.abs(want)), f"cavity {j}"


def assert_root_rows(params, delta, powers, undecided):
    """The rows of `root_grid` at float drive powers against the oracle's:
    `assert_decidable_at_edge` on the `undecided` ones, else
    `assert_roots_match_oracle`."""
    for power, row, odd in zip(powers.tolist(), root_grid(params, delta, powers), undecided):
        check = assert_decidable_at_edge if odd else assert_roots_match_oracle
        check(params, delta, power, row[~np.isnan(row)].tolist())


def assert_roots_match_oracle(params, delta, power, got):
    """A root row at a float drive power: the oracle's count of real roots,
    each within ACCURACY of its oracle root, and the same labels."""
    want = [float(root) for root in oracle_roots(params, delta, power)[0]]
    assert len(got) == len(want)
    assert np.all(np.abs(np.subtract(got, want)) <= ACCURACY * np.array(want))
    assert branch_labels(params, delta, got).tolist() == [
        reference_label(params, delta, root) for root in want]


def edge_labels(params, delta, root):
    """The labels a root may carry at a window edge: both branches that meet
    at a turning point within SQRT_EPS of it, else its reference label."""
    lo, hi = reference_turns(params, delta) or (math.nan, math.nan)
    if abs(root - lo) <= SQRT_EPS * lo:
        return {BRANCH_LOWER, BRANCH_MIDDLE}
    if abs(root - hi) <= SQRT_EPS * hi:
        return {BRANCH_MIDDLE, BRANCH_UPPER}
    return {reference_label(params, delta, root)}


def assert_decidable_at_edge(params, delta, power, got):
    """What a drive at a window edge decides: there the cubic has a double
    root, so rounding decides the root count.  Every root meets the cubic
    within ROOT_TOLERANCE beyond the rounding floor of the kernel's own
    check, lies within 4 SQRT_EPS of a 40-digit root (the worst measured is
    1.4 SQRT_EPS) and carries one of its `edge_labels`."""
    real, pair = oracle_roots(params, delta, power)
    a, b = pulling_coefficients(params)
    for root, label in zip(got, branch_labels(params, delta, got).tolist()):
        floor = 8.0 * EPS * root * abs(delta - b * root) * (abs(delta) + b * root)
        with mpmath.workdps(ORACLE_DPS):
            x = mpmath.mpf(root)
            miss = x * ((params.gamma / 2 + a * x) ** 2 + (delta - b * x) ** 2) - power
            assert abs(miss) <= cascade.ROOT_TOLERANCE * power + floor
            assert min(abs(x - want) for want in real + pair) <= 4 * SQRT_EPS * x
        assert label in edge_labels(params, delta, root)


def drive_grid(params, magnitudes, phase):
    """(drives, edge) at one phase: drives at the given magnitudes, plus
    zero, a sweep across the first cavity's bistable window and both its
    edges (double roots), which `edge` marks."""
    extra = edges = []
    window = bistable_window(params, params.Delta1)
    if window is not None:
        edges = [math.sqrt(power / params.gamma) for power in window]
        extra = [*edges, *np.geomspace(0.5 * edges[0], 2.0 * edges[1], 24)]
    drives = np.sort(np.concatenate(([0.0], magnitudes, extra)))
    return drives * np.exp(1j * phase), np.isin(drives, edges)


def undecided_rows(edge, selection):
    """Rows at a window edge, and for "follow" the drive after each too:
    its choice depends on the root count at the edge."""
    if selection != "follow":
        return edge
    return edge | np.concatenate(([False], edge[:-1]))


def follow_scan(roots):
    """The "follow" picks drive by drive on floats: the first root nearest
    the root picked at the drive before, where a row holds several."""
    picks, previous = [], None
    for row in roots.tolist():
        pick = 0
        if previous is not None and row[1] == row[1]:  # several roots
            distances = [abs(root - previous) for root in row if root == root]
            pick = distances.index(min(distances))
        picks.append(pick)
        previous = row[pick]
    return picks


class TestRootGridWeakCoupling:
    """Cardano cancels once the cubic term (~ chi^4) is small; the rows it
    misses are solved again and must meet the cubic."""

    @pytest.mark.parametrize("delta", [0.0, 1e4])
    @pytest.mark.parametrize("chi", [1e-5, 1e-7, 1e-10, 1e-20, 1e-40])
    def test_every_positive_drive_meets_the_cubic(self, chi, delta):
        params = PhysParams(chi=chi, Omega=1000.0, Gamma=1e-3, gamma=1.0)
        powers = np.geomspace(1e-2, 1e12, 701)
        roots = root_grid(params, delta, powers)
        assert np.all(np.isfinite(roots[:, 0]) & (roots[:, 0] > 0.0))
        a, b = pulling_coefficients(params)
        found = ~np.isnan(roots)
        intensity = np.where(found, roots, 0.0)
        lhs = intensity * ((params.gamma / 2 + a * intensity) ** 2 + (delta - b * intensity) ** 2)
        miss = np.abs(lhs - powers[:, None]) / powers[:, None]
        assert miss[found].max() <= 1e-12

    @pytest.mark.parametrize("delta", [0.0, 1e4])
    @pytest.mark.parametrize("chi", [1.0, 1e-10, 1e-40])
    def test_huge_drives_meet_the_cubic(self, chi, delta):
        # the roots lie far below the bracket top 4 P / gamma^2 (6e51 against
        # 4e150 at chi = 1, P = 1e150), or the top overflows.  At weak
        # coupling Cardano's wrong roots overflow the miss check itself,
        # which must send them to be solved again
        params = PhysParams(chi=chi, Omega=1000.0, Gamma=1e-3, gamma=1.0)
        powers = np.geomspace(1e100, 1e306, 207)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = root_grid(params, delta, powers)
        assert np.all(np.isfinite(roots[:, 0]))
        a, b = pulling_coefficients(params)
        u, v = params.gamma / 2 + a * roots, delta - b * roots
        miss = np.abs(roots * (u * u + v * v) - powers[:, None]) / powers[:, None]
        assert np.nanmax(miss) <= 1e-12

    def test_rounding_floor_accepts_roots_near_resonance(self):
        # the middle and upper roots of a benchmark sweep lie near the pulled
        # resonance delta = b I, where the check's own rounding, not the
        # roots, puts some misses above ROOT_TOLERANCE P: within the rounding
        # floor no row is missed
        params = PhysParams(chi=0.3, Omega=1000.0, **CANONICAL_RATES)
        powers = np.geomspace(1e8, 1e16, 4001)
        roots = root_grid(params, params.Delta1, powers)
        miss = np.abs(cascade._modulus_cubic(params, params.Delta1, roots, powers[:, None])[0])
        assert np.any(miss > cascade.ROOT_TOLERANCE * powers[:, None])
        assert not cascade._misses_cubic(params, params.Delta1, roots, powers).any()

    @pytest.mark.parametrize("delta", [0.0, 1e4])
    @pytest.mark.parametrize("chi, grid", [
        *((chi, (1e-2, 1e12, 701)) for chi in (1e-5, 1e-7, 1e-10, 1e-20, 1e-40)),
        *((chi, (1e100, 1e306, 207)) for chi in (1.0, 1e-10, 1e-40))])
    def test_roots_and_their_neighbours_bracket_a_sign_change(self, chi, grid, delta):
        # the two tests' grids above, solved by bisection alone: every root
        # and one of the floats next to it straddle a sign change of the cubic
        params = PhysParams(chi=chi, Omega=1000.0, Gamma=1e-3, gamma=1.0)
        powers = np.geomspace(*grid)[:, None]
        with np.errstate(all="ignore"):  # the boundary root_grid gives it
            roots = cascade._bracketed_roots(params, delta, powers[:, 0])
            sign = [np.sign(cascade._modulus_cubic(params, delta, x, powers)[0])
                    for x in (roots, np.nextafter(roots, 0.0), np.nextafter(roots, np.inf))]
        assert np.all(np.isfinite(roots[:, 0])) and not np.isinf(roots).any()
        found = ~np.isnan(roots)
        straddle = (sign[0] * sign[1] <= 0.0) | (sign[0] * sign[2] <= 0.0)
        assert np.all(straddle[found])

    @pytest.mark.parametrize("chi, gamma, delta, power, want", [
        (1e-10, 1.0, 0.0, 8.486917881295e153**2, "5.646942118620e+117"),
        (1.0, 1e-300, 1e-300, 1e-290, "1.357208808298e-95")])
    def test_overflowing_bracket_top_keeps_the_root(self, chi, gamma, delta, power, want):
        # both the linear solution P / (gamma^2/4 + delta^2) and the bracket
        # top 4 P / gamma^2 overflow, yet the root is a modest float
        params = PhysParams(chi=chi, Omega=1000.0, Gamma=1e-3, gamma=gamma, Delta1=delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = root_grid(params, delta, np.array([power]))[0]
        assert "%.12e" % row[0] == want
        assert_roots_match_oracle(params, delta, power, found(row))

    @pytest.mark.parametrize("chi", [0.3, 1.0, 3.0])
    def test_benchmark_sweeps_take_no_bracketed_solve(self, chi, monkeypatch):
        # the bracketed solve is the slow path: no drive of the benchmark's
        # 2401-drive sweeps, in either cavity, should need it
        rows, solve = [], cascade._bracketed_roots

        def spy(params, delta, drive_power):
            rows.append(len(drive_power))
            return solve(params, delta, drive_power)

        monkeypatch.setattr(cascade, "_bracketed_roots", spy)
        params = PhysParams(chi=chi, Omega=1000.0, **CANONICAL_RATES)
        steady_grid(params, np.geomspace(1e5, 1e9, 2401), "follow")
        assert sum(rows) == 0


class TestSteadyGrid:
    """The grid kernel against the 40-digit reference.

    Rule at window edges: there the cubic has a double root and rounding
    decides the root count, so on drives at an edge of the first cavity's
    window, and for "follow" on the drive just after one, only what can be
    decided is checked (`assert_decidable_at_edge`).  Everywhere else the
    labels, jump flags and root counts equal the reference's, and the
    roots, intensities, amplitudes, alpha and beta are accurate
    (`assert_roots_match_oracle`, `assert_matches_reference`).
    """

    @settings(max_examples=30, deadline=None, derandomize=True)
    # weak coupling, where the bracketed solve takes over, is
    # TestRootGridWeakCoupling's
    @given(chi=st.floats(0.0, 3.0).map(lambda chi: chi if chi >= 1e-3 else 0.0),
           log_omega=st.floats(0.0, 3.0), gamma_motion=st.floats(0.0, 1.0),
           gamma=st.floats(0.5, 2.0), delta1=st.floats(-1e2, 1e4), delta2=st.floats(-1e4, 1e4),
           phase=st.sampled_from([0.0, 0.6, -2.0]))
    def test_kernel_matches_40_digit_reference(self, chi, log_omega, gamma_motion, gamma,
                                               delta1, delta2, phase):
        params = PhysParams(chi=chi, Omega=10.0**log_omega, Gamma=gamma_motion, gamma=gamma,
                            Delta1=delta1, Delta2=delta2)
        drives, edge = drive_grid(params, np.geomspace(1e-2, 1e6, 12), phase)
        for selection in SELECTIONS:
            grid = steady_grid(params, drives, selection)
            undecided = undecided_rows(edge, selection)
            assert_matches_reference(params, grid, selection, undecided)
            for delta, drive_in in ((params.Delta1, grid.zeta1_in), (params.Delta2, grid.zeta2_in)):
                assert_root_rows(params, delta, kernel_power(params, drive_in), undecided)

    @pytest.mark.parametrize("params", [
        PhysParams(chi=0.6278431278533564, Omega=518.8092521640633, Gamma=0.016827284680212995,
                   gamma=0.955263389899266, Delta1=9990.161411471769, Delta2=-4757.06407620021),
        PhysParams(chi=1.9720723838982632, Omega=236.98124364162473, Gamma=0.040156699832900045,
                   gamma=0.5230410807801849, Delta1=8908.103906568183, Delta2=7908.472786937276)])
    def test_upper_branch_near_resonance(self, params):
        # delta - b I cancels to 1e-4 of delta on the upper branch: the
        # bracket at a float root was off by 1.3e-12 there
        drives, edge = drive_grid(params, np.geomspace(1e-2, 1e6, 12), 0.0)
        grid = steady_grid(params, drives, "highest")
        assert_matches_reference(params, grid, "highest", edge)

    def test_canonical_sweep_and_window_edges(self):
        # the benchmark's drive grid, where both cavities cross the window
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        drives, edge = drive_grid(params, np.geomspace(1e5, 1e9, 2401), 0.0)
        grid = steady_grid(params, drives, "follow")
        assert grid.jumped1.any() and grid.jumped2.any()
        assert_matches_reference(params, grid, "follow", undecided_rows(edge, "follow"))
        assert_root_rows(params, params.Delta1, np.array(bistable_window(params, params.Delta1)),
                         [True, True])

    @pytest.mark.parametrize("chi, omega, gamma_motion, gamma, delta",
                             [(1.0, 1000.0, 1e-3, 1.0, 1e4), (1.8, 230.0, 0.02, 0.5, 6e3)])
    def test_weak_drive_roots(self, chi, omega, gamma_motion, gamma, delta):
        # roots far below the shift of the depressed cubic, where Cardano's
        # sum of the shift and two cube roots cancels
        params = PhysParams(chi=chi, Omega=omega, Gamma=gamma_motion, gamma=gamma, Delta1=delta)
        powers = np.geomspace(1e-6, 1e4, 41)
        assert_root_rows(params, delta, powers, np.zeros(powers.shape, dtype=bool))

    def test_oracle_matches_polyroots(self):
        # mpmath.polyroots at 60 digits, which needs up to 400 steps for the
        # double roots at the window edges: the oracle agrees to 40 digits
        for chi, omega, delta in ((1.0, 1000.0, 1e4), (3.0, 10.0, 1e4), (1e-3, 1.0, -1e2)):
            params = PhysParams(chi=chi, Omega=omega, **{**CANONICAL_RATES, "Delta1": delta})
            powers = [1e-4, 1.0, 1e8, 1e14]
            window = bistable_window(params, delta)
            if window is not None:
                powers += [*window, math.sqrt(window[0] * window[1])]
            for power in powers:
                real, pair = oracle_roots(params, delta, power)
                with mpmath.workdps(60):
                    a, b = (mpmath.mpf(x) for x in pulling_coefficients(params))
                    want = mpmath.polyroots([a * a + b * b, a - 2 * delta * b, 0.25 + delta**2,
                                             -mpmath.mpf(power)], maxsteps=400, extraprec=300)
                    assert len(real + pair) == len(want)
                    for got in real + pair:
                        assert min(abs(got - w) for w in want) <= 1e-40 * abs(got)

    def test_root_grid_rows(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        p_lo, p_hi = bistable_window(params, params.Delta1)
        powers = np.array([0.0, 0.5 * p_lo, np.sqrt(p_lo * p_hi), 2.0 * p_hi])
        roots = root_grid(params, params.Delta1, powers)
        assert roots.shape == (4, 3)
        assert np.array_equal(np.sum(~np.isnan(roots), axis=1), [1, 1, 3, 1])
        with pytest.raises(ValueError, match="drive_power"):
            root_grid(params, params.Delta1, np.array([1.0, -2.0]))

    @pytest.mark.parametrize("chi", [1.0, 1e-10])
    def test_one_element_grid_equals_grid_rows(self, chi):
        # across the window, its edges, and (at weak coupling) the bracketed solve
        params = PhysParams(chi=chi, Omega=10.0, **CANONICAL_RATES)
        powers = np.concatenate((np.geomspace(1e-2, 1e16, 121),
                                 bistable_window(params, params.Delta1) or ()))
        rows = root_grid(params, params.Delta1, powers)
        for k, row in enumerate(rows):
            alone = root_grid(params, params.Delta1, powers[k:k + 1])[0]
            assert np.array_equal(alone, row, equal_nan=True)

    def test_follow_scan_over_padded_rows(self):
        # rows of 2 roots (degenerate) and a tie, which resolves to the lower root
        roots = np.array([[1.0, 5.0, np.nan], [1.0, 5.0, 9.0], [8.0, np.nan, np.nan],
                          [1.0, 7.0, np.nan], [5.0, 9.0, np.nan]])
        assert cascade._select(roots, "follow").tolist() == [0, 0, 0, 1, 0]
        # continuing from 4.0
        seeded = np.concatenate(([[4.0, np.nan, np.nan]], roots))
        assert cascade._select(seeded, "follow").tolist() == [0, 1, 1, 0, 1, 0]
        # a row without a root (an overflowed drive) restarts the scan at the lowest root
        gap = np.concatenate((seeded[:2], [[np.nan] * 3], seeded[2:]))
        assert cascade._select(gap, "follow").tolist() == [0, 1, 0, 0, 0, 1, 0]

    def test_follow_table_equals_drive_by_drive_scan(self):
        # random nan-padded root grids on a coarse lattice (ties), with
        # single-root stretches, 1 -> 3 and 3 -> 1 root counts and all-nan
        # rows (no working point): steps that set, keep and move the pick
        rng = np.random.default_rng(83)
        for n in (0, 1, 2, 3, 7, 400):
            for _ in range(40):
                roots = np.sort(rng.integers(0, 12, (n, 3)).astype(float), axis=1)
                counts = rng.choice([0, 1, 2, 3], size=n, p=[0.1, 0.35, 0.3, 0.25])
                roots[np.arange(3) >= counts[:, None]] = np.nan
                picks = cascade._select(roots, "follow")
                assert picks.tolist() == follow_scan(roots)
                assert np.all(picks < np.maximum(counts, 1))
        for chi, delta in itertools.product((0.3, 1.0, 3.0), (1e4, -1e4)):
            params = PhysParams(chi=chi, Omega=1000.0, **dict(CANONICAL_RATES, Delta1=delta))
            roots = root_grid(params, delta, np.geomspace(1e5, 1e9, 2401) ** 2)
            assert cascade._select(roots, "follow").tolist() == follow_scan(roots)

    def test_unknown_selection_rejected(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        with pytest.raises(ValueError, match="selection"):
            steady_grid(params, np.array([1.0, 2.0]), selection="median")
