"""Fluctuation-dynamics checks: drift, noise, transfer, EPR measure."""

import numpy as np
import pytest
import scipy.linalg

from cavmotion import spectra
from cavmotion.cascade import (
    PhysParams,
    bistable_window,
    cavity_bracket,
    intensity_roots,
    steady_grid,
    steady_state,
)
from cavmotion.spectra import (
    GRID_BLOCK,
    NoiseModel,
    SingularTransferError,
    amplitude_sweep,
    build_drift,
    build_noise,
    classify_stability,
    correlation_matrix,
    epr_grid,
    epr_spectra,
    stability_stack,
    transfer,
)

CANONICAL_RATES = dict(Gamma=1e-3, gamma=1.0, Delta1=1e4, Delta2=1e4)


def nonlinear_rhs(params, zeta1_in, v):
    """Deterministic part of the coupled equations of motion with the
    (a, a+, b, b+, c1, c1+, c2, c2+) components treated as independent
    complex coordinates; the finite-difference Jacobian of this map is the
    independent oracle for the drift matrix."""
    chi, g = params.chi, params.gamma
    pole = params.Gamma / 2 + 1j * params.Omega
    sqg = np.sqrt(g)
    a, ad, b, bd, c1, c1d, c2, c2d = v
    return np.array([
        -pole * a - 1j * chi * c1d * c1,
        -np.conj(pole) * ad + 1j * chi * c1d * c1,
        -pole * b - 1j * chi * c2d * c2,
        -np.conj(pole) * bd + 1j * chi * c2d * c2,
        -(g / 2 + 1j * params.Delta1) * c1 - 1j * chi * c1 * (a + ad) + sqg * zeta1_in,
        -(g / 2 - 1j * params.Delta1) * c1d + 1j * chi * c1d * (a + ad) + sqg * np.conj(zeta1_in),
        -(g / 2 + 1j * params.Delta2) * c2 - 1j * chi * c2 * (b + bd) + g * c1 - sqg * zeta1_in,
        -(g / 2 - 1j * params.Delta2) * c2d + 1j * chi * c2d * (b + bd) + g * c1d - sqg * np.conj(zeta1_in),
    ])


def fd_jacobian(params, zeta1_in, v0):
    jac = np.zeros((8, 8), dtype=complex)
    for j in range(8):
        h = 1e-6 * max(1.0, abs(v0[j]))
        step = np.zeros(8, dtype=complex)
        step[j] = h
        jac[:, j] = (nonlinear_rhs(params, zeta1_in, v0 + step)
                     - nonlinear_rhs(params, zeta1_in, v0 - step)) / (2 * h)
    return jac


def steady_vector(branch):
    return np.array([
        branch.alpha, np.conj(branch.alpha),
        branch.beta, np.conj(branch.beta),
        branch.zeta1, np.conj(branch.zeta1),
        branch.zeta2, np.conj(branch.zeta2),
    ])


def random_stable_point(rng):
    """Random parameter set + drive whose working point is stable."""
    while True:
        params = PhysParams(
            chi=rng.uniform(0.0, 0.4),
            Omega=rng.uniform(0.5, 20.0),
            Gamma=rng.uniform(1e-3, 1.0),
            gamma=1.0,
            Delta1=rng.uniform(-5.0, 5.0),
            Delta2=rng.uniform(-5.0, 5.0),
        )
        branch = steady_state(params, rng.uniform(0.0, 3.0))
        drift = build_drift(params, branch)
        stable, _ = classify_stability(drift)
        if stable:
            return params, branch, drift


class TestBuildDrift:
    def test_decoupled_structure(self):
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        drift = build_drift(params, steady_state(params, 1.0))
        want = np.zeros((8, 8), dtype=complex)
        pole = 0.1 + 3j
        want[0, 0] = want[2, 2] = -pole
        want[1, 1] = want[3, 3] = -np.conj(pole)
        want[4, 4] = -0.5 - 1.5j
        want[5, 5] = -0.5 + 1.5j
        want[6, 6] = -0.5 - 0.7j * -1
        want[6, 6] = -0.5 + 0.7j
        want[7, 7] = -0.5 - 0.7j
        want[6, 4] = want[7, 5] = 1.0
        assert np.allclose(drift, want, atol=1e-14)

    def test_conjugation_symmetry(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        drift = build_drift(params, steady_state(params, 3.0e5 * np.exp(0.3j)))
        for k in range(4):
            for l in range(4):
                assert drift[2 * k + 1, 2 * l + 1] == pytest.approx(
                    np.conj(drift[2 * k, 2 * l]), abs=1e-12)
                assert drift[2 * k + 1, 2 * l] == pytest.approx(
                    np.conj(drift[2 * k, 2 * l + 1]), abs=1e-12)

    @pytest.mark.parametrize("drive,selection", [(3.0e5, "lowest"), (3.0e5, "highest"),
                                                 (1.0e3, "lowest")])
    def test_matches_finite_difference_linearization(self, drive, selection):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        branch = steady_state(params, drive, selection=selection)
        drift = build_drift(params, branch)
        jac = fd_jacobian(params, branch.zeta1_in, steady_vector(branch))
        scale = np.abs(drift).max()
        assert np.allclose(drift, jac, atol=1e-5 * scale)

    def test_effective_detuning_value(self):
        # the shifted detuning must reproduce the imaginary part of the
        # steady-state braced factor
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        branch = steady_state(params, 3.0e5)
        drift = build_drift(params, branch)
        den = params.Gamma**2 / 4 + params.Omega**2
        d_eff = params.Delta1 - 2 * params.chi**2 * params.Omega * branch.intensity1 / den
        assert drift[4, 4] == pytest.approx(-params.gamma / 2 - 1j * d_eff, rel=1e-12)
        braced = cavity_bracket(params, params.Delta1, branch.intensity1)
        assert d_eff == pytest.approx(braced.imag, rel=1e-12)

    def test_stack_equals_points_bitwise(self):
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        drives = np.geomspace(1e5, 1e9, 97) * np.exp(0.4j)
        stack = build_drift(params, steady_grid(params, drives, "follow"))
        assert stack.shape == (97, 8, 8)
        previous = None
        for drive, drift in zip(drives, stack):
            previous = steady_state(params, drive, "follow", previous)
            assert np.array_equal(drift, build_drift(params, previous))


class TestBuildNoise:
    def test_entry_pattern(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        noise = build_noise(params)
        want = np.zeros((8, 8))
        want[0, 1] = want[2, 3] = params.Gamma
        want[4, 5] = want[6, 7] = params.gamma
        # the same vacuum re-enters cavity 2 with a sign flip
        want[4, 7] = want[6, 5] = -params.gamma
        assert np.array_equal(noise.d, want)

    def test_no_motional_damping_no_atom_noise(self):
        params = PhysParams(chi=1.0, Omega=10.0, Gamma=0.0, gamma=1.0, Delta1=1.0, Delta2=1.0)
        noise = build_noise(params)
        assert noise.d[0, 1] == 0.0 and noise.d[2, 3] == 0.0
        assert noise.d[4, 5] == 1.0

    def test_commutator_matrix_antisymmetric(self):
        params = PhysParams(chi=0.3, Omega=2.0, Gamma=0.4, gamma=1.0)
        noise = build_noise(params)
        assert np.array_equal(noise.k, -noise.k.T)
        assert np.array_equal(noise.k, noise.d - noise.d.T)


class TestTransfer:
    def test_decoupled_diagonal(self):
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        drift = build_drift(params, steady_state(params, 1.0))
        t = transfer(drift, 0.9)
        assert t[0, 0] == pytest.approx(1.0 / (0.9j + 0.1 + 3.0j), rel=1e-12)
        assert t[1, 1] == pytest.approx(1.0 / (0.9j + 0.1 - 3.0j), rel=1e-12)

    def test_cascade_propagation_element(self):
        # hand inversion of the lower-triangular cavity block
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        drift = build_drift(params, steady_state(params, 1.0))
        for omega in (0.0, 0.9, -2.2):
            t = transfer(drift, omega)
            want = params.gamma / ((1j * omega + 0.5 + 1.5j) * (1j * omega + 0.5 - 0.7j))
            assert t[6, 4] == pytest.approx(want, rel=1e-12)

    def test_identity_residual_on_random_points(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            _, _, drift = random_stable_point(rng)
            omega = rng.uniform(-30, 30)
            t = transfer(drift, omega)
            lhs = 1j * omega * np.eye(8) - drift
            defect = np.abs(lhs @ t - np.eye(8))
            rows = np.maximum(np.abs(lhs).sum(axis=1), 1.0)
            assert np.all(defect <= 1e-10 * rows[:, None])

    def test_singularity_reported_with_frequency(self):
        drift = np.diag([1j, -1j, 1j, -1j, 1j, -1j, 1j, -1j]).astype(complex)
        with pytest.raises(SingularTransferError, match="omega=1.0"):
            transfer(drift, 1.0)

    def test_nan_frequency_fails_the_defect_check(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        drift = build_drift(params, steady_state(params, 1e3))
        with pytest.raises(SingularTransferError, match="omega=nan"):
            transfer(drift, np.array([1.0, float("nan")]))
        with pytest.raises(SingularTransferError, match="omega=nan"):
            epr_spectra(drift, build_noise(params), float("nan"))


class TestCorrelationMatrix:
    def test_decoupled_atom_block(self):
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        drift = build_drift(params, steady_state(params, 1.0))
        noise = build_noise(params)
        for omega in (0.0, 1.7, -3.0):
            c = correlation_matrix(drift, noise, omega)
            want = params.Gamma / (params.Gamma**2 / 4 + (omega + params.Omega) ** 2)
            assert c[0, 1] == pytest.approx(want, rel=1e-12)
            assert abs(c[1, 0]) < 1e-14

    def test_zero_noise_zero_correlations(self):
        params = PhysParams(chi=0.4, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        drift = build_drift(params, steady_state(params, 1.0))
        silent = NoiseModel(d=np.zeros((8, 8)), k=np.zeros((8, 8)))
        assert np.array_equal(correlation_matrix(drift, silent, 1.0), np.zeros((8, 8)))

    def test_conjugation_pairing_relation(self):
        # C(w)[2a, 2b+1]* == C(w)[2b, 2a+1] from the pair-swap symmetry of
        # the drift and the transposition pattern of the input moments
        rng = np.random.default_rng(37)
        params, _, drift = random_stable_point(rng)
        noise = build_noise(params)
        for omega in (0.4, -2.0, 7.3):
            c = correlation_matrix(drift, noise, omega)
            for a in range(4):
                for b in range(4):
                    assert np.conj(c[2 * a, 2 * b + 1]) == pytest.approx(
                        c[2 * b, 2 * a + 1], abs=1e-12 * (1 + abs(c[2 * a, 2 * b + 1])))


class TestEprSpectra:
    def test_decoupled_degree_is_four(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            params = PhysParams(chi=0.0, Omega=rng.uniform(0.5, 20), Gamma=rng.uniform(1e-3, 2),
                                gamma=1.0, Delta1=rng.uniform(-5, 5), Delta2=rng.uniform(-5, 5))
            drift = build_drift(params, steady_state(params, rng.uniform(0, 4)))
            noise = build_noise(params)
            for omega in (0.1, 1.0, params.Omega, 10 * params.Omega):
                point = epr_spectra(drift, noise, omega)
                assert point.e_degree == pytest.approx(4.0, abs=1e-10)

    def test_variances_nonnegative_commutator_imaginary(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            params, _, drift = random_stable_point(rng)
            noise = build_noise(params)
            point = epr_spectra(drift, noise, rng.uniform(0.05, 3) * params.Omega)
            assert point.s_qplus >= -1e-12
            assert point.s_pminus >= -1e-12
            if abs(point.commutator) > 1e-20:
                assert abs(point.commutator.real) / abs(point.commutator) < 1e-10
            assert point.e_degree == point.s_qplus * point.s_pminus / (0.25 * abs(point.commutator) ** 2)
            assert point.variance_product == point.s_qplus * point.s_pminus

    def test_nan_commutator_is_degenerate(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        drift = build_drift(params, steady_state(params, 1e3))
        noise = NoiseModel(d=build_noise(params).d, k=np.full((8, 8), np.nan))
        with pytest.raises(ArithmeticError, match="degenerate commutator"):
            epr_spectra(drift, noise, params.Omega)

    def test_canonical_regime_dips_below_one(self):
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        p_hi = bistable_window(params, params.Delta1)[1]
        drive = 0.999 * np.sqrt(p_hi / params.gamma)
        branch = steady_state(params, drive, selection="lowest")
        drift = build_drift(params, branch)
        assert classify_stability(drift)[0]
        point = epr_spectra(drift, build_noise(params), params.Omega)
        assert point.e_degree < 1.0


def loop_reference_point(drift, noise, omega):
    """(s_qplus, s_pminus, commutator, e_degree) at one frequency from two
    4x4 row solves per sign of w, one point at a time, in the grid kernel's
    evaluation order."""
    first, second = [0, 1, 4, 5], [2, 3, 6, 7]
    u = spectra.EPR_ROWS

    def rows(w):
        lhs = 1j * w * np.eye(8) - drift
        y2 = np.linalg.solve(lhs[np.ix_(second, second)].T, u[:, second].T).T
        b1 = u[:, first] + y2 @ drift[np.ix_(second, first)]
        y1 = np.linalg.solve(lhs[np.ix_(first, first)].T, b1.T).T
        y = np.empty((4, 8), dtype=complex)
        y[:, first], y[:, second] = y1, y2
        return y

    plus, minus = rows(omega), rows(-omega)
    d_plus, d_minus = np.split(np.concatenate((plus, minus)) @ noise.d, 2)
    k_plus, k_minus = np.stack((plus[2], minus[2])) @ noise.k
    s_q, s_p = 0.25 * (d_plus * minus + d_minus * plus).sum(axis=-1).real[:2]
    comm = 0.25 * (k_plus * minus[3] + k_minus * plus[3]).sum()
    return s_q, s_p, comm, s_q * s_p / (0.25 * np.square(abs(comm)))


class TestGridKernel:
    """epr_grid and correlation_matrix against one-point evaluations."""

    def test_frequency_grid_equals_points_bitwise(self):
        rng = np.random.default_rng(53)
        for _ in range(6):
            params, _, drift = random_stable_point(rng)
            noise = build_noise(params)
            omegas = np.concatenate([[0.0, params.Omega, -params.Omega],
                                     rng.uniform(-3, 3, 40) * params.Omega])
            grid = epr_grid(drift, noise, omegas)
            points = [epr_spectra(drift, noise, w) for w in omegas]
            for field in ("omega", "s_qplus", "s_pminus", "commutator", "e_degree"):
                assert np.array_equal(getattr(grid, field),
                                      [getattr(p, field) for p in points]), field
            assert np.array_equal(grid.variance_product, [p.variance_product for p in points])
            reference = np.array([loop_reference_point(drift, noise, w) for w in omegas]).T
            for field, want in zip(("s_qplus", "s_pminus", "commutator", "e_degree"), reference):
                assert np.array_equal(getattr(grid, field), want), field

    def test_drift_stack_equals_points_bitwise(self):
        # the sweep's shape: one frequency, a stack of drifts
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        noise = build_noise(params)
        drifts = np.array([build_drift(params, steady_state(params, drive))
                           for drive in np.geomspace(1e5, 1e7, 30)])
        stable, _ = stability_stack(drifts)
        drifts = drifts[stable]
        grid = epr_grid(drifts, noise, params.Omega)
        want = [epr_spectra(d, noise, params.Omega).e_degree for d in drifts]
        assert np.array_equal(grid.e_degree, want)

    def test_moments_match_40_digit_reference(self):
        # the full 8x8 T(+-w) inverted at 40 digits, against the stage rows
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        for chi in np.geomspace(0.3, 3.0, 5):
            params = PhysParams(chi=chi, Omega=1000.0, **CANONICAL_RATES)
            drift = build_drift(params, steady_state(params, 3e5))
            assert classify_stability(drift)[0]
            noise = build_noise(params)
            omegas = params.Omega * np.array([0.1, 0.5, 1.0, 1.5, 8.0])
            grid = epr_grid(drift, noise, omegas)
            with mpmath.workdps(40):
                m, eye = mpmath.matrix(drift.tolist()), mpmath.eye(8)
                d, k = mpmath.matrix(noise.d.tolist()), mpmath.matrix(noise.k.tolist())
                q_plus, p_minus, q_a, p_a = (mpmath.matrix([u.tolist()]) for u in spectra.EPR_ROWS)
                for i, w in enumerate(omegas):
                    plus = (mpmath.mpc(0, w) * eye - m) ** -1
                    minus = (mpmath.mpc(0, -w) * eye - m) ** -1
                    d_pair = plus * d * minus.T + minus * d * plus.T
                    k_pair = plus * k * minus.T + minus * k * plus.T
                    s_q = 0.25 * (q_plus * d_pair * q_plus.T)[0].real
                    s_p = 0.25 * (p_minus * d_pair * p_minus.T)[0].real
                    comm = 0.25 * (q_a * k_pair * p_a.T)[0]
                    want = (s_q, s_p, comm, s_q * s_p / (0.25 * abs(comm) ** 2))
                    got = (grid.s_qplus[i], grid.s_pminus[i], grid.commutator[i], grid.e_degree[i])
                    for g, ref in zip(got, want):
                        worst = max(worst, float(abs(complex(g) - ref) / abs(ref)))
        assert worst < 5e-15

    @pytest.mark.parametrize("drive", [1e6, 1e70, 1e78, 1e100, 1e151])
    def test_ok_points_match_300_digit_reference(self, drive):
        # at drives 1e73-1e76, 1e79-1e80 and beyond the rows' componentwise
        # backward error is of order 1 and the forms are off by factors: what
        # the kernel reports OK is accurate, and drives 1e100 and 1e151 fail
        # at every frequency
        mpmath = pytest.importorskip("mpmath")
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        drift = build_drift(params, steady_state(params, drive))
        noise = build_noise(params)
        omegas = np.geomspace(100.0, 1e4, 5)
        grid, status, failure = spectra._epr_kernel(drift, noise, omegas)
        assert np.all(status == spectra.OK) == (drive < 1e100)
        assert np.all(status != spectra.OK) == (drive >= 1e100)
        with mpmath.workdps(300):
            m, eye = mpmath.matrix(drift.tolist()), mpmath.eye(8)
            d, k = mpmath.matrix(noise.d.tolist()), mpmath.matrix(noise.k.tolist())
            q_plus, p_minus, q_a, p_a = (mpmath.matrix([u.tolist()]) for u in spectra.EPR_ROWS)
            for i in np.flatnonzero(status == spectra.OK):
                plus = (mpmath.mpc(0, omegas[i]) * eye - m) ** -1
                minus = (mpmath.mpc(0, -omegas[i]) * eye - m) ** -1
                d_pair = plus * d * minus.T + minus * d * plus.T
                want = (0.25 * (q_plus * d_pair * q_plus.T)[0].real,
                        0.25 * (p_minus * d_pair * p_minus.T)[0].real,
                        0.25 * (q_a * (plus * k * minus.T + minus * k * plus.T) * p_a.T)[0])
                got = (grid.s_qplus[i], grid.s_pminus[i], grid.commutator[i])
                for g, ref in zip(got, want):
                    assert float(abs(complex(g) - ref) / abs(ref)) < 1e-12
        for i in np.flatnonzero(status == spectra.ROUNDING):
            assert str(failure(i)).startswith("EPR forms dominated by rounding")

    def test_empty_grid(self):
        params, _, drift = random_stable_point(np.random.default_rng(67))
        assert transfer(drift, np.array([])).shape == (0, 8, 8)
        assert epr_grid(drift, build_noise(params), np.array([])).e_degree.shape == (0,)

    def test_correlation_matrix_is_a_grid_view(self):
        params, _, drift = random_stable_point(np.random.default_rng(59))
        noise = build_noise(params)
        omegas = np.array([-2.5, 0.0, 0.7, 4.0])
        stacked = correlation_matrix(drift, noise, omegas)
        for w, c in zip(omegas, stacked):
            assert np.array_equal(correlation_matrix(drift, noise, w), c)

    def test_stability_stack_matches_single_verdicts(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        drifts = np.array([build_drift(params, steady_state(params, drive, selection=sel))
                           for drive in (1e3, 3e5, 2e6) for sel in ("lowest", "highest")])
        stable, eigs = stability_stack(drifts)
        for drift, ok, e in zip(drifts, stable, eigs):
            single_ok, single_e = classify_stability(drift)
            assert single_ok is bool(ok)
            assert np.array_equal(single_e, e)

    def test_singular_point_inside_grid_is_named(self):
        drift = np.diag([1j, -1j, 1j, -1j, 1j, -1j, 1j, -1j]).astype(complex)
        noise = build_noise(PhysParams(chi=0.3, Omega=2.0, Gamma=0.4, gamma=1.0))
        omegas = np.array([0.25, 0.5, 1.0, 2.0])
        with pytest.raises(SingularTransferError, match=r"omega=1\.0$"):
            transfer(drift, omegas)
        with pytest.raises(SingularTransferError, match=r"omega=1\.0$"):
            epr_grid(drift, noise, omegas)

    def test_first_failure_in_grid_order(self):
        # T(+w) fails only at w = 3 and T(-w) only at w = -2, which comes
        # first in the grid: the batched +w solve alone would name 3.0.  The
        # undamped drift's variances are positive at w = 4, not at 0.5
        drift = np.diag([2j] * 4 + [3j] * 4)
        noise = build_noise(PhysParams(chi=0.3, Omega=2.0, Gamma=0.4, gamma=1.0))
        omegas = np.array([4.0, -2.0, 3.0])
        with pytest.raises(SingularTransferError, match=r"omega=3\.0$"):
            transfer(drift, omegas)
        with pytest.raises(SingularTransferError, match=r"omega=2\.0$"):
            epr_grid(drift, noise, omegas)

    def test_kernel_status_per_point(self):
        # T(+w) is singular at w = -2, 2 and 3, T(-w) at w = -3, -2 and 2:
        # where both fail, +w is reported.  The scaled damped drift leaves
        # only a commutator below the floor
        drift = np.diag([2j, -2j, 2j, -2j] + [3j] * 4)
        noise = build_noise(PhysParams(chi=0.3, Omega=2.0, Gamma=0.4, gamma=1.0))
        omegas = np.array([0.5, -2.0, 3.0, -3.0, 2.0])
        grid, status, failure = spectra._epr_kernel(drift, noise, omegas)
        assert status.tolist() == [spectra.OK, spectra.PLUS_FAILED, spectra.PLUS_FAILED,
                                   spectra.MINUS_FAILED, spectra.PLUS_FAILED]
        assert np.isfinite(grid.e_degree[0]) and np.all(np.isnan(grid.e_degree[1:]))
        for i, omega in enumerate(omegas[1:], start=1):
            with pytest.raises(ArithmeticError) as info:
                epr_spectra(drift, noise, omega)
            assert str(failure(i)) == str(info.value)
        damped = np.diag([-1.0 + 2j] * 8) * 1e20
        assert spectra._epr_kernel(damped, noise, omegas)[1].tolist() == [spectra.DEGENERATE] * 5
        # an undamped drift whose variances are negative at w = 0.5
        grid, status, failure = spectra._epr_kernel(np.diag([2j] * 4 + [3j] * 4), noise, 0.5)
        assert status == spectra.NONPOSITIVE and np.isnan(grid.e_degree)
        assert str(failure(0)) == (f"non-positive EPR variance (s_qplus {grid.s_qplus}, "
                                   f"s_pminus {grid.s_pminus}) at omega=0.5")

    def test_lyapunov_oracle(self):
        # the delta-stripped spectrum integrated over w/2pi is the equal-time
        # covariance Sigma of dv = M v dt + noise: M Sigma + Sigma M^T + d = 0
        core = np.arange(-40.0, 40.0 + 1e-9, 0.02)
        tail = np.geomspace(40.0, 2000.0, 801)[1:]
        omegas = np.concatenate([-tail[::-1], core, tail])
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 3:
            params = PhysParams(chi=rng.uniform(0.0, 0.4), Omega=rng.uniform(0.5, 20.0),
                                Gamma=rng.uniform(0.2, 1.0), gamma=1.0,
                                Delta1=rng.uniform(-5.0, 5.0), Delta2=rng.uniform(-5.0, 5.0))
            drift = build_drift(params, steady_state(params, rng.uniform(0.0, 3.0)))
            stable, eigs = classify_stability(drift)
            if not stable or eigs.real.max() > -0.1:
                continue
            noise = build_noise(params)
            blocks = [correlation_matrix(drift, noise, omegas[i:i + GRID_BLOCK])
                      for i in range(0, omegas.size, GRID_BLOCK)]
            c = np.concatenate(blocks)
            integral = np.tensordot(np.diff(omegas), c[1:] + c[:-1], axes=1) / (4 * np.pi)
            sigma = scipy.linalg.solve_sylvester(drift, drift.T, -noise.d)
            assert np.abs(integral - sigma).max() < 1e-3
            checked += 1


class TestClassifyStability:
    def test_decoupled_eigenvalues(self):
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        drift = build_drift(params, steady_state(params, 1.0))
        stable, eigs = classify_stability(drift)
        assert stable
        want = np.array([-0.1 + 3j, -0.1 - 3j, -0.1 + 3j, -0.1 - 3j,
                         -0.5 - 1.5j, -0.5 + 1.5j, -0.5 + 0.7j, -0.5 - 0.7j])
        assert np.allclose(np.sort_complex(eigs), np.sort_complex(want), atol=1e-10)

    def test_middle_branch_unstable(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        window = bistable_window(params, params.Delta1)
        power = np.sqrt(window[0] * window[1])
        drive = np.sqrt(power / params.gamma)
        roots = intensity_roots(params, params.Delta1, power)
        branch = steady_state(params, drive, selection="lowest")
        z_mid = np.sqrt(params.gamma) * drive / cavity_bracket(params, params.Delta1, roots[1])
        pole = params.Gamma / 2 + 1j * params.Omega
        from cavmotion.cascade import SteadyBranch
        mid_branch = SteadyBranch(
            zeta1=z_mid, zeta2=branch.zeta2, zeta1_in=drive + 0j,
            zeta2_in=branch.zeta2_in,
            alpha=-1j * params.chi * abs(z_mid) ** 2 / pole, beta=branch.beta,
            intensity1=abs(z_mid) ** 2, intensity2=branch.intensity2,
            branch1="middle", branch2=branch.branch2)
        stable, eigs = classify_stability(build_drift(params, mid_branch))
        assert not stable
        assert eigs.real.max() > 0

    def test_stability_invariant_under_drive_phase(self):
        from scipy.optimize import linear_sum_assignment
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        for drive in (3.0e5, 2.0e6):
            s0, e0 = classify_stability(build_drift(params, steady_state(params, drive)))
            s1, e1 = classify_stability(build_drift(params, steady_state(params, drive * np.exp(1.1j))))
            assert s0 == s1
            cost = np.abs(e0[:, None] - e1[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() <= 1e-8 * max(1, np.abs(e0).max())

    def test_refuses_coupling_back_into_first_cavity(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        drift = build_drift(params, steady_state(params, 3.0e5))
        drift[4, 6] = params.gamma  # second cavity feeding the first
        with pytest.raises(ValueError, match="one-way cascade"):
            classify_stability(drift)
        with pytest.raises(ValueError, match="one-way cascade"):
            stability_stack(np.array([build_drift(params, steady_state(params, 1e3)), drift]))

    def test_refuses_block_without_real_quadrature_form(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        drift = build_drift(params, steady_state(params, 3.0e5))
        drift[7, 7] = drift[6, 6]  # c2+ rotating like c2: no real quadrature form
        with pytest.raises(ValueError, match="real quadrature form"):
            classify_stability(drift)
        # rounding-sized asymmetry is still a cascade drift
        drift = build_drift(params, steady_state(params, 3.0e5))
        drift[5, 5] *= 1.0 + 1e-15
        assert classify_stability(drift)[0]

    def test_eigenvalues_match_40_digit_reference(self):
        # equal detunings: the two blocks' eigenvalues nearly coincide, and
        # the gamma feed between them leaves the full 8x8 problem nearly
        # defective
        mpmath = pytest.importorskip("mpmath")
        from scipy.optimize import linear_sum_assignment
        params = PhysParams(chi=0.3, Omega=1000.0, **CANONICAL_RATES)
        drift = build_drift(params, steady_state(params, 46415888.33612782, selection="highest"))
        with mpmath.workdps(40):
            want = np.array([complex(e) for e in mpmath.eig(mpmath.matrix(drift.tolist()))[0]])
        full = np.linalg.eigvals(drift)
        assert abs(full.real.max() - want.real.max()) > 1e-6
        _, eigs = classify_stability(drift)
        cost = np.abs(eigs[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-9 * np.linalg.norm(drift, 2)

    def test_verdicts_equal_full_drift_solve_on_benchmark_grid(self):
        drives = np.geomspace(1e5, 1e9, 2401)
        eps = np.finfo(float).eps
        compared = 0
        for chi in np.geomspace(0.3, 3.0, 8):
            params = PhysParams(chi=chi, Omega=1000.0, **CANONICAL_RATES)
            drifts = build_drift(params, steady_grid(params, drives, selection="follow"))
            stable, _ = stability_stack(drifts)
            full, vectors = np.linalg.eig(drifts)
            # first-order error bound of the full solve: eigenvalue condition
            # number times the rounding of the drift, with a factor n^2 to spare
            condition = (np.linalg.norm(vectors, axis=-2)
                         * np.linalg.norm(np.linalg.inv(vectors), axis=-1))
            bound = 64 * eps * np.linalg.norm(drifts, axis=(-2, -1))[:, None] * condition
            top = np.argmax(full.real, axis=-1)
            margin = np.abs(full.real[np.arange(drives.size), top])
            clear = margin > bound[np.arange(drives.size), top]
            assert np.array_equal(stable[clear], np.all(full.real < 0.0, axis=-1)[clear])
            compared += clear.sum()
        assert compared >= 0.99 * 8 * drives.size


class TestAmplitudeSweep:
    def test_empty_grid(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        sweep = amplitude_sweep(params, np.array([]), 10.0)
        assert all(np.shape(column) == (0,) for column in vars(sweep).values())

    def test_unsorted_grid_rejected(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        with pytest.raises(ValueError, match="ascending"):
            amplitude_sweep(params, np.array([2.0, 1.0]), 10.0)

    def test_decoupled_sweep_flat_four(self):
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        sweep = amplitude_sweep(params, np.linspace(0.0, 5.0, 11), 3.0)
        assert sweep.stable.all()
        assert np.allclose(sweep.e_degree, 4.0, atol=1e-10)

    def test_jump_recorded_and_unstable_rows_flagged(self):
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        p_hi = bistable_window(params, params.Delta1)[1]
        jump_drive = np.sqrt(p_hi / params.gamma)
        drives = np.geomspace(0.3 * jump_drive, 4.0 * jump_drive, 50)
        sweep = amplitude_sweep(params, drives, params.Omega)
        assert sweep.jumped.any()
        flagged = ~sweep.stable
        assert flagged.any()
        assert np.isnan(sweep.e_degree[flagged]).all()
        assert all(sweep.error[flagged])

    def test_failing_drift_keeps_other_rows(self, monkeypatch):
        # a stable drift scaled by 1e20 pushes the commutator below the
        # floor; the rest of its block must come out as without it
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        drives = np.geomspace(1e3, 1e5, 20)
        reference = amplitude_sweep(params, drives, params.Omega)
        build = spectra.build_drift

        def scaled_at_eighth(params, branch):
            # `branch` is one working point or a block of them
            scale = np.where(branch.zeta1_in == drives[7], 1e20, 1.0)
            return build(params, branch) * scale[..., None, None]

        monkeypatch.setattr(spectra, "build_drift", scaled_at_eighth)
        sweep = amplitude_sweep(params, drives, params.Omega)
        failing = scaled_at_eighth(params, steady_state(params, drives[7]))
        with pytest.raises(ArithmeticError) as info:
            epr_spectra(failing, build_noise(params), params.Omega)
        assert sweep.stable[7] and np.isnan(sweep.e_degree[7])
        assert sweep.error[7] == str(info.value)
        others = np.arange(drives.size) != 7
        for name, column in vars(sweep).items():
            assert np.array_equal(column[others], getattr(reference, name)[others]), name

    def test_stable_rows_never_ride_the_middle_branch(self):
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        p_hi = bistable_window(params, params.Delta1)[1]
        jump_drive = np.sqrt(p_hi / params.gamma)
        drives = np.geomspace(0.01 * jump_drive, 50.0 * jump_drive, 120)
        sweep = amplitude_sweep(params, drives, params.Omega)
        stable = sweep.stable
        assert not np.any(sweep.branch1[stable] == "middle")
        assert not np.any(sweep.branch2[stable] == "middle")
        assert np.isfinite(sweep.e_degree[stable]).all()
