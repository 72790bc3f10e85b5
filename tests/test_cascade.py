"""Cascaded steady-state checks."""

import numpy as np
import pytest

from cavmotion.cascade import (
    BRANCH_LOWER,
    BRANCH_MIDDLE,
    BRANCH_UPPER,
    PhysParams,
    SteadyBranch,
    bistable_window,
    branch_label,
    cavity_bracket,
    intensity_roots,
    pulling_coefficients,
    residual,
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
