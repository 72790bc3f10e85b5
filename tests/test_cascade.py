"""Cascaded steady-state checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavmotion import cascade
from cavmotion.cascade import (
    BRANCH_LOWER,
    BRANCH_MIDDLE,
    BRANCH_UPPER,
    SELECTIONS,
    PhysParams,
    SteadyBranch,
    bistable_window,
    branch_label,
    cavity_bracket,
    intensity_roots,
    pulling_coefficients,
    residual,
    root_grid,
    steady_grid,
    steady_state,
)

CANONICAL_RATES = dict(Gamma=1e-3, gamma=1.0, Delta1=1e4, Delta2=1e4)


def cubic_discriminant(c3, c2, c1, c0):
    """Sign oracle: > 0 means three distinct real roots."""
    return (18 * c3 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2
            - 4 * c3 * c1**3 - 27 * c3**2 * c0**2)


def modulus_cubic_coeffs(params, delta, power):
    a, b = pulling_coefficients(params)
    g = params.gamma
    return a * a + b * b, g * a - 2 * delta * b, g * g / 4 + delta * delta, -power


class TestIntensityRoots:
    def test_linear_cavity(self):
        params = PhysParams(chi=0.0, Omega=5.0, Gamma=0.1, gamma=1.0, Delta1=2.0)
        roots = intensity_roots(params, 2.0, 3.0)
        assert roots == pytest.approx([3.0 / (0.25 + 4.0)], rel=1e-12)

    def test_zero_drive(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        assert intensity_roots(params, params.Delta1, 0.0) == [0.0]

    def test_negative_drive_rejected(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        with pytest.raises(ValueError):
            intensity_roots(params, params.Delta1, -1.0)

    @pytest.mark.parametrize("Omega", [1.0, 10.0, 100.0])
    def test_three_root_window_matches_discriminant_oracle(self, Omega):
        params = PhysParams(chi=1.0, Omega=Omega, **CANONICAL_RATES)
        window = bistable_window(params, params.Delta1)
        assert window is not None
        p_lo, p_hi = window
        assert 0 < p_lo < p_hi
        inside = np.sqrt(p_lo * p_hi)
        for power, want in [(0.5 * p_lo, 1), (inside, 3), (2.0 * p_hi, 1)]:
            roots = intensity_roots(params, params.Delta1, power)
            assert len(roots) == want
            disc = cubic_discriminant(*modulus_cubic_coeffs(params, params.Delta1, power))
            assert (disc > 0) == (want == 3)

    def test_roots_satisfy_modulus_equation(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        a, b = pulling_coefficients(params)
        window = bistable_window(params, params.Delta1)
        power = np.sqrt(window[0] * window[1])
        for i in intensity_roots(params, params.Delta1, power):
            lhs = i * ((params.gamma / 2 + a * i) ** 2 + (params.Delta1 - b * i) ** 2)
            assert lhs == pytest.approx(power, rel=1e-10)

    def test_root_count_bounds_and_sorting(self):
        rng = np.random.default_rng(17)
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        for _ in range(40):
            power = 10.0 ** rng.uniform(0, 14)
            roots = intensity_roots(params, params.Delta1, power)
            assert 1 <= len(roots) <= 3
            assert roots == sorted(roots)
            assert all(r >= 0 for r in roots)

    def test_lowest_root_monotone_in_drive(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        powers = np.geomspace(1.0, 1e13, 80)
        lows = [intensity_roots(params, params.Delta1, p)[0] for p in powers]
        assert all(x <= y + 1e-12 * max(1, y) for x, y in zip(lows, lows[1:]))


class TestBranchLabel:
    def test_monostable_is_lower(self):
        params = PhysParams(chi=0.0, Omega=5.0, Gamma=0.1, gamma=1.0, Delta1=1.0)
        assert branch_label(params, 1.0, 123.0) == BRANCH_LOWER

    def test_three_roots_classify_in_order(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        window = bistable_window(params, params.Delta1)
        power = np.sqrt(window[0] * window[1])
        roots = intensity_roots(params, params.Delta1, power)
        labels = [branch_label(params, params.Delta1, r) for r in roots]
        assert labels == [BRANCH_LOWER, BRANCH_MIDDLE, BRANCH_UPPER]


class TestSteadyState:
    def test_decoupled_cavities(self):
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        branch = steady_state(params, 2.0)
        want = np.sqrt(params.gamma) * 2.0 / (params.gamma / 2 + 1j * params.Delta1)
        assert branch.zeta1 == pytest.approx(want, rel=1e-12)
        assert branch.alpha == 0.0
        assert branch.beta == 0.0

    def test_boundary_condition_exact(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        branch = steady_state(params, 3.0e5, selection="lowest")
        assert branch.zeta2_in == np.sqrt(params.gamma) * branch.zeta1 - branch.zeta1_in

    def test_intensity_fields_match_amplitudes(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        branch = steady_state(params, 5.0e4, selection="highest")
        assert branch.intensity1 == abs(branch.zeta1) ** 2
        assert branch.intensity2 == abs(branch.zeta2) ** 2

    @pytest.mark.parametrize("selection", ["lowest", "highest"])
    def test_residual_invariant(self, selection):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        for drive in (1e2, 1e4, 3e5, 1e7):
            branch = steady_state(params, drive, selection=selection)
            scale = max(1.0, np.sqrt(params.gamma) * abs(branch.zeta1_in))
            assert residual(params, branch) < 1e-9 * scale

    def test_residual_detects_corruption(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        branch = steady_state(params, 3.0e5)
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
        base = steady_state(params, 3.0e5)
        phase = np.exp(0.6j)
        rotated = steady_state(params, 3.0e5 * phase)
        assert rotated.zeta1 == pytest.approx(base.zeta1 * phase, rel=1e-12)
        assert rotated.zeta2_in == pytest.approx(base.zeta2_in * phase, rel=1e-12)
        assert rotated.zeta2 == pytest.approx(base.zeta2 * phase, rel=1e-12)
        assert rotated.intensity1 == pytest.approx(base.intensity1, rel=1e-12)
        assert rotated.intensity2 == pytest.approx(base.intensity2, rel=1e-12)
        assert rotated.alpha == pytest.approx(base.alpha, rel=1e-12)
        assert rotated.beta == pytest.approx(base.beta, rel=1e-12)

    def test_alpha_beta_formulas(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        branch = steady_state(params, 3.0e5)
        pole = params.Gamma / 2 + 1j * params.Omega
        assert branch.alpha == pytest.approx(-1j * params.chi * branch.intensity1 / pole, rel=1e-12)
        assert branch.beta == pytest.approx(-1j * params.chi * branch.intensity2 / pole, rel=1e-12)

    def test_middle_branch_flagged_unstable_by_convention(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        window = bistable_window(params, params.Delta1)
        drive = np.sqrt(np.sqrt(window[0] * window[1]) / params.gamma)
        roots = intensity_roots(params, params.Delta1, params.gamma * drive**2)
        assert len(roots) == 3
        mid = roots[1]
        z1 = np.sqrt(params.gamma) * drive / cavity_bracket(params, params.Delta1, mid)
        assert branch_label(params, params.Delta1, abs(z1) ** 2) == BRANCH_MIDDLE

    def test_follow_sweep_jump_recorded_once(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        window = bistable_window(params, params.Delta1)
        jump_drive = np.sqrt(window[1] / params.gamma)
        drives = np.geomspace(0.2 * jump_drive, 3.0 * jump_drive, 60)
        previous = None
        jumps = []
        for drive in drives:
            previous = steady_state(params, drive, selection="follow", previous=previous)
            if previous.jumped1:
                jumps.append(drive)
        assert len(jumps) == 1
        assert jump_drive / 1.2 <= jumps[0] <= jump_drive * 1.2

    def test_unknown_selection_rejected(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        with pytest.raises(ValueError, match="selection"):
            steady_state(params, 1.0, selection="median")


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


def reference_roots(params, delta, drive_power):
    """Drive-by-drive reference for the root kernel: scalar Cardano (trig
    branch for three real roots) and one Newton polish; a drive whose roots
    miss the cubic (or that finds none) takes the kernel's bracketed Newton
    row, whose accuracy TestRootGridWeakCoupling checks."""
    if drive_power == 0.0:
        return [0.0]
    polished = reference_cardano(params, delta, drive_power)
    a, b = pulling_coefficients(params)
    eps = np.finfo(float).eps
    for root in polished:
        u, v = params.gamma / 2.0 + a * root, delta - b * root
        miss = abs(root * (u * u + v * v) - drive_power)
        if miss > 1e-12 * drive_power + 8.0 * eps * root * abs(v) * (abs(delta) + b * root):
            break
    else:
        if polished:
            return polished
    row = cascade._bracketed_roots(params, delta, np.array([drive_power]))[0]
    return row[~np.isnan(row)].tolist()


def reference_cardano(params, delta, drive_power):
    a, b = pulling_coefficients(params)
    g = params.gamma
    c3, c2, c1 = a * a + b * b, g * a - 2.0 * delta * b, g * g / 4.0 + delta * delta
    if c3 == 0.0:
        roots = [drive_power / c1]
    else:
        b2, b1, b0 = c2 / c3, c1 / c3, -drive_power / c3
        shift = -b2 / 3.0
        p = b1 - b2 * b2 / 3.0
        q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
        if disc > 0.0:
            s = math.sqrt(disc)
            roots = [shift + np.cbrt(-q / 2.0 + s) + np.cbrt(-q / 2.0 - s)]
        elif p == 0.0:
            roots = [shift]
        else:
            m = 2.0 * math.sqrt(-p / 3.0)
            theta = np.arccos(np.clip(3.0 * q / (p * m), -1.0, 1.0)) / 3.0
            roots = [shift + m * np.cos(theta - 2.0 * np.pi * k / 3.0) for k in range(3)]
    polished = []
    for root in roots:
        u, v = g / 2.0 + a * root, delta - b * root
        slope = u**2 + v**2 + root * (2.0 * a * u - 2.0 * b * v)
        if slope != 0.0 and np.isfinite(slope):
            step = (root * (u**2 + v**2) - drive_power) / slope
            if np.isfinite(step):
                root = root - step
        if np.isfinite(root) and root >= 0.0:
            polished.append(float(root))
    return sorted(polished)


def reference_label(params, delta, intensity):
    a, b = pulling_coefficients(params)
    g = params.gamma
    c2, c1 = 3.0 * (a * a + b * b), 2.0 * (g * a - 2.0 * delta * b)
    disc = c1 * c1 - 4.0 * c2 * (g * g / 4.0 + delta * delta)
    if c2 == 0.0 or disc <= 0.0 or (-c1 + math.sqrt(disc)) / (2.0 * c2) <= 0.0:
        return BRANCH_LOWER
    if intensity < (-c1 - math.sqrt(disc)) / (2.0 * c2):
        return BRANCH_LOWER
    return BRANCH_MIDDLE if intensity <= (-c1 + math.sqrt(disc)) / (2.0 * c2) else BRANCH_UPPER


def reference_chain(params, drives, selection):
    """The working points of a drive sequence, one scalar solve per drive;
    "follow" continues from the drive before."""
    g, sqg = params.gamma, math.sqrt(params.gamma)
    pole = params.Gamma / 2.0 + 1j * params.Omega
    out, before = [], None
    for drive in drives:
        zeta_in, point = complex(drive), {}
        for j, delta in ((1, params.Delta1), (2, params.Delta2)):
            roots = reference_roots(params, delta, g * abs(zeta_in) ** 2)
            if selection == "lowest" or (selection == "follow" and before is None):
                root = roots[0]
            elif selection == "highest":
                root = roots[-1]
            else:
                root = min(roots, key=lambda i: abs(i - before[f"intensity{j}"]))
            zeta = np.float64(sqg) * zeta_in / cavity_bracket(params, delta, root)
            branch = reference_label(params, delta, root)
            jumped = False
            if selection == "follow" and before is not None:
                prev = before[f"intensity{j}"]
                jumped = bool(abs(root - prev) > max(prev, 1e-12)
                              and branch != before[f"branch{j}"])
            point.update({f"zeta{j}": complex(zeta), f"zeta{j}_in": complex(zeta_in),
                          f"intensity{j}": float(abs(zeta) ** 2), f"branch{j}": branch,
                          f"jumped{j}": jumped})
            zeta_in = np.float64(sqg) * zeta - zeta_in
        point["alpha"] = -1j * params.chi * point["intensity1"] / pole
        point["beta"] = -1j * params.chi * point["intensity2"] / pole
        out.append(SteadyBranch(**point))
        before = point
    return out


def assert_bits_equal(got, want):
    """Equal floats with equal bits (nan equal to nan), equal strings."""
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, str):
            assert other == value, name
        else:
            assert np.array_equal(np.asarray(other), np.asarray(value), equal_nan=True), name


def drive_grid(params, magnitudes, phase):
    """Drives at the given magnitudes, plus zero, a sweep across the first
    cavity's bistable window and both its edges (double roots), at one
    phase."""
    extra = []
    window = bistable_window(params, params.Delta1)
    if window is not None:
        edges = [math.sqrt(power / params.gamma) for power in window]
        extra = [*edges, *np.geomspace(0.5 * edges[0], 2.0 * edges[1], 24)]
    return np.sort(np.concatenate(([0.0], magnitudes, extra))) * np.exp(1j * phase)


class TestSteadyGrid:
    """The grid kernel equals the drive-by-drive scalar chain bit for bit."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    # the scalar reference's Cardano overflows below chi ~ 1e-35 (a Python
    # float power); TestRootGridWeakCoupling covers weak coupling
    @given(chi=st.floats(0.0, 3.0).map(lambda chi: chi if chi >= 1e-3 else 0.0),
           log_omega=st.floats(0.0, 3.0), gamma_motion=st.floats(0.0, 1.0),
           gamma=st.floats(0.5, 2.0), delta1=st.floats(-1e2, 1e4), delta2=st.floats(-1e4, 1e4),
           phase=st.sampled_from([0.0, 0.6, -2.0]))
    def test_kernel_equals_scalar_chain(self, chi, log_omega, gamma_motion, gamma,
                                        delta1, delta2, phase):
        params = PhysParams(chi=chi, Omega=10.0**log_omega, Gamma=gamma_motion, gamma=gamma,
                            Delta1=delta1, Delta2=delta2)
        drives = drive_grid(params, np.geomspace(1e-2, 1e6, 12), phase)
        for selection in SELECTIONS:
            want = reference_chain(params, drives, selection)
            grid = steady_grid(params, drives, selection)
            previous = None
            for k, ref in enumerate(want):
                assert_bits_equal(grid[k], ref)
                point = steady_state(params, drives[k], selection,
                                     previous if selection == "follow" else None)
                assert_bits_equal(point, ref)
                previous = point
        for ref in want:
            for delta, drive_in in ((params.Delta1, ref.zeta1_in), (params.Delta2, ref.zeta2_in)):
                power = params.gamma * abs(drive_in) ** 2
                roots = reference_roots(params, delta, power)
                assert np.array_equal(intensity_roots(params, delta, power), roots)
                assert [branch_label(params, delta, r) for r in roots] == [
                    reference_label(params, delta, r) for r in roots]

    def test_canonical_sweep_and_window_edges(self):
        # the benchmark's drive grid, where both cavities cross the window
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        drives = drive_grid(params, np.geomspace(1e5, 1e9, 2401), 0.0)
        grid = steady_grid(params, drives, "follow")
        want = reference_chain(params, drives, "follow")
        assert any(ref.jumped1 for ref in want) and any(ref.jumped2 for ref in want)
        for k, ref in enumerate(want):
            assert_bits_equal(grid[k], ref)
        for power in bistable_window(params, params.Delta1):
            want_roots = reference_roots(params, params.Delta1, power)
            assert np.array_equal(intensity_roots(params, params.Delta1, power), want_roots)

    def test_root_grid_rows(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        p_lo, p_hi = bistable_window(params, params.Delta1)
        powers = np.array([0.0, 0.5 * p_lo, np.sqrt(p_lo * p_hi), 2.0 * p_hi])
        roots = root_grid(params, params.Delta1, powers)
        assert roots.shape == (4, 3)
        assert np.array_equal(np.sum(~np.isnan(roots), axis=1), [1, 1, 3, 1])
        with pytest.raises(ValueError, match="drive_power"):
            root_grid(params, params.Delta1, np.array([1.0, -2.0]))

    def test_follow_scan_over_padded_rows(self):
        # rows of 2 roots (degenerate) and a tie, which resolves to the lower root
        roots = np.array([[1.0, 5.0, np.nan], [1.0, 5.0, 9.0], [8.0, np.nan, np.nan],
                          [1.0, 7.0, np.nan], [5.0, 9.0, np.nan]])
        assert cascade._select(roots, roots, "follow", 4.0).tolist() == [1, 1, 0, 1, 0]
        assert cascade._select(roots, roots, "follow", None).tolist() == [0, 0, 0, 1, 0]

    def test_unknown_selection_rejected(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        with pytest.raises(ValueError, match="selection"):
            steady_grid(params, np.array([1.0, 2.0]), selection="median")


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
        # 4e150 at chi = 1, P = 1e150): bisection must halve the exponent to
        # get there.  At weak coupling Cardano's wrong roots overflow the
        # miss check itself, which must send them to be solved again
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

    def test_unsettled_row_is_no_root(self, monkeypatch):
        monkeypatch.setattr(cascade, "BRACKET_ITERATIONS", 3)
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        row = cascade._bracketed_roots(params, params.Delta1, np.array([1e150]))[0]
        assert np.all(np.isnan(row))

    def test_passing_rows_keep_their_cardano_bits(self):
        # the benchmark's strong-coupling drives: no row is solved again
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        powers = np.geomspace(1e5, 1e9, 241) ** 2
        roots = root_grid(params, params.Delta1, powers)
        for power, row in zip(powers, roots):
            assert row[~np.isnan(row)].tolist() == reference_cardano(params, params.Delta1, power)
