"""Fluctuation-dynamics checks: stage blocks, noise, transfer, EPR measure."""

import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from block_oracle import (
    block_eigenvalues,
    build_drift,
    cancelling_noise,
    epr_reference,
    lapack_rows,
    real_blocks,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cavmotion import spectra
from cavmotion.cascade import (
    BRANCH_LOWER,
    BRANCH_MIDDLE,
    BRANCH_NONE,
    BRANCH_UPPER,
    SELECTIONS,
    PhysParams,
    SteadyBranch,
    bistable_window,
    cavity_bracket,
    root_grid,
    steady_grid,
)
from cavmotion.spectra import (
    GRID_BLOCK,
    SingularTransferError,
    amplitude_sweep,
    build_noise,
    epr_grid,
    stability_grid,
    stage_blocks,
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


def undamped_atoms():
    """(params, working point) of uncoupled atoms without damping: each atom
    block is singular at w = +-Omega = +-2, and with Gamma = 0 the atoms have
    no input noise, so their commutator spectrum vanishes at every w."""
    params = PhysParams(chi=0.0, Omega=2.0, Gamma=0.0, gamma=1.0)
    return params, steady_grid(params, np.array([1.0]))[0]


def unit_rows(params, steady, omega):
    """T(w) = (i w I - M)^(-1) at one working point and frequency: the rows of
    the identity through the stage row solve."""
    return spectra._row_solve(stage_blocks(params, steady), np.atleast_1d(omega), np.eye(8))[0][0]


def random_stable_point(rng):
    """Random parameter set and its working point at a drive where it is stable."""
    while True:
        params = PhysParams(
            chi=rng.uniform(0.0, 0.4),
            Omega=rng.uniform(0.5, 20.0),
            Gamma=rng.uniform(1e-3, 1.0),
            gamma=1.0,
            Delta1=rng.uniform(-5.0, 5.0),
            Delta2=rng.uniform(-5.0, 5.0),
        )
        branch = steady_grid(params, np.array([rng.uniform(0.0, 3.0)]))[0]
        if stability_grid(params, branch):
            return params, branch


class TestBuildDrift:
    def test_decoupled_structure(self):
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        drift = build_drift(params, steady_grid(params, np.array([1.0]))[0])
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
        drift = build_drift(params, steady_grid(params, np.array([3.0e5 * np.exp(0.3j)]))[0])
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
        branch = steady_grid(params, np.array([drive]), selection)[0]
        drift = build_drift(params, branch)
        jac = fd_jacobian(params, branch.zeta1_in, steady_vector(branch))
        scale = np.abs(drift).max()
        assert np.allclose(drift, jac, atol=1e-5 * scale)

    def test_effective_detuning_value(self):
        # the shifted detuning must reproduce the imaginary part of the
        # steady-state braced factor
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        branch = steady_grid(params, np.array([3.0e5]))[0]
        drift = build_drift(params, branch)
        den = params.Gamma**2 / 4 + params.Omega**2
        d_eff = params.Delta1 - 2 * params.chi**2 * params.Omega * branch.intensity1 / den
        assert drift[4, 4] == pytest.approx(-params.gamma / 2 - 1j * d_eff, rel=1e-12)
        braced = cavity_bracket(params, params.Delta1, branch.intensity1)
        assert d_eff == pytest.approx(braced.imag, rel=1e-12)

    def test_stack_equals_points_bitwise(self):
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        drives = np.geomspace(1e5, 1e9, 97) * np.exp(0.4j)
        grid = steady_grid(params, drives, "follow")
        stack, feed = stage_blocks(params, grid)
        assert stack.shape == (97, 2, 4, 4)
        assert np.array_equal(feed, np.diag([0, 0, params.gamma, params.gamma]))
        # a one-drive block, and one working point, give that row of the stack
        for k, stages in enumerate(stack):
            assert np.array_equal(stages, stage_blocks(params, grid[k:k + 1])[0][0])
            assert np.array_equal(stages, stage_blocks(params, grid[k])[0])


class TestBuildNoise:
    def test_entry_pattern(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        d = build_noise(params)
        want = np.zeros((8, 8))
        want[0, 1] = want[2, 3] = params.Gamma
        want[4, 5] = want[6, 7] = params.gamma
        # the same vacuum re-enters cavity 2 with a sign flip
        want[4, 7] = want[6, 5] = -params.gamma
        assert d.shape == (8, 8) and np.isrealobj(d)
        assert np.array_equal(d, want)

    def test_no_motional_damping_no_atom_noise(self):
        params = PhysParams(chi=1.0, Omega=10.0, Gamma=0.0, gamma=1.0, Delta1=1.0, Delta2=1.0)
        d = build_noise(params)
        assert d[0, 1] == 0.0 and d[2, 3] == 0.0
        assert d[4, 5] == 1.0

    def test_commutator_matrix_antisymmetric(self):
        # the commutator form reads d - d^T, the same for every input state:
        # thermal inputs, d + n (d + d^T), raise the variances and leave the
        # commutator spectrum
        params, branch = random_stable_point(np.random.default_rng(29))
        d = build_noise(params)
        assert np.array_equal(d - d.T, -(d - d.T).T)
        omegas = np.array([0.3, 1.0, 2.5]) * params.Omega
        blocks = stage_blocks(params, branch)
        vacuum, thermal = (spectra._epr_kernel(blocks, moments, omegas)[0]
                           for moments in (d, d + 0.7 * (d + d.T)))
        assert np.array_equal(vacuum.e_degree, epr_grid(params, branch, omegas).e_degree)
        assert np.allclose(thermal.commutator, vacuum.commutator, rtol=1e-12, atol=0)
        assert np.all(thermal.s_qplus > vacuum.s_qplus)
        assert np.all(thermal.s_pminus > vacuum.s_pminus)


class TestTransfer:
    def test_decoupled_diagonal(self):
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        t = unit_rows(params, steady_grid(params, np.array([1.0]))[0], 0.9)
        assert t[0, 0] == pytest.approx(1.0 / (0.9j + 0.1 + 3.0j), rel=1e-12)
        assert t[1, 1] == pytest.approx(1.0 / (0.9j + 0.1 - 3.0j), rel=1e-12)

    def test_cascade_propagation_element(self):
        # hand inversion of the lower-triangular cavity block
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        branch = steady_grid(params, np.array([1.0]))[0]
        for omega in (0.0, 0.9, -2.2):
            t = unit_rows(params, branch, omega)
            want = params.gamma / ((1j * omega + 0.5 + 1.5j) * (1j * omega + 0.5 - 0.7j))
            assert t[6, 4] == pytest.approx(want, rel=1e-12)

    def test_identity_residual_on_random_points(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            params, branch = random_stable_point(rng)
            drift = build_drift(params, branch)
            omega = rng.uniform(-30, 30)
            t = unit_rows(params, branch, omega)
            lhs = 1j * omega * np.eye(8) - drift
            defect = np.abs(lhs @ t - np.eye(8))
            rows = np.maximum(np.abs(lhs).sum(axis=1), 1.0)
            assert np.all(defect <= 1e-10 * rows[:, None])

    def test_singularity_reported_with_frequency(self):
        params, branch = undamped_atoms()
        with pytest.raises(SingularTransferError, match="omega=2.0"):
            epr_grid(params, branch, 2.0)

    def test_nan_frequency_fails_the_defect_check(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        branch = steady_grid(params, np.array([1e3]))[0]
        with pytest.raises(SingularTransferError, match="omega=nan"):
            epr_grid(params, branch, float("nan"))


class TestEprSpectra:
    def test_decoupled_degree_is_four(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            params = PhysParams(chi=0.0, Omega=rng.uniform(0.5, 20), Gamma=rng.uniform(1e-3, 2),
                                gamma=1.0, Delta1=rng.uniform(-5, 5), Delta2=rng.uniform(-5, 5))
            branch = steady_grid(params, np.array([rng.uniform(0, 4)]))[0]
            for omega in (0.1, 1.0, params.Omega, 10 * params.Omega):
                point = epr_grid(params, branch, omega)
                assert point.e_degree == pytest.approx(4.0, abs=1e-10)

    def test_variances_nonnegative_commutator_imaginary(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            params, branch = random_stable_point(rng)
            point = epr_grid(params, branch, rng.uniform(0.05, 3) * params.Omega)
            assert point.s_qplus >= -1e-12
            assert point.s_pminus >= -1e-12
            if abs(point.commutator) > 1e-20:
                assert abs(point.commutator.real) / abs(point.commutator) < 1e-10
            assert point.e_degree == point.s_qplus * point.s_pminus / (0.25 * abs(point.commutator) ** 2)
            assert point.variance_product == point.s_qplus * point.s_pminus

    def test_nan_commutator_is_degenerate(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        blocks = stage_blocks(params, steady_grid(params, np.array([1e3]))[0])
        grid, status, failure = spectra._epr_kernel(blocks, np.full((8, 8), np.nan), params.Omega)
        assert status == spectra.DEGENERATE and np.isnan(grid.e_degree)
        assert str(failure(0)).startswith("degenerate commutator")

    def test_canonical_regime_dips_below_one(self):
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        p_hi = bistable_window(params, params.Delta1)[1]
        drive = 0.999 * np.sqrt(p_hi / params.gamma)
        branch = steady_grid(params, np.array([drive]), "lowest")[0]
        assert stability_grid(params, branch)
        point = epr_grid(params, branch, params.Omega)
        assert point.e_degree < 1.0


def schur_row(block, shift, u):
    """y with y (shift - block) = u for one 4x4 stage block and one row u
    (4,) at one shift, a one-element array: the 2x2 Schur complement on the
    atom slots by Cramer's rule, then the cavity slots, in the grid kernel's
    evaluation order (numpy rounds complex products of scalars unlike those
    of arrays, so the shift keeps an array)."""
    a = block
    diagonal = [shift - a[j, j] for j in range(4)]
    inv_c = [1.0 / diagonal[2], 1.0 / diagonal[3]]
    w = [[a[k + 2, j] * inv_c[k] for j in (0, 1)] for k in (0, 1)]
    s = [[(diagonal[i] if i == j else -a[i, j]) - a[i, 2] * w[0][j] - a[i, 3] * w[1][j]
          for j in (0, 1)] for i in (0, 1)]
    inv_det = 1.0 / (s[0][0] * s[1][1] - s[0][1] * s[1][0])
    r0, r1 = (u[j] + u[2] * w[0][j] + u[3] * w[1][j] for j in (0, 1))
    y0 = r0 * (s[1][1] * inv_det) + r1 * (-s[1][0] * inv_det)
    y1 = r0 * (-s[0][1] * inv_det) + r1 * (s[0][0] * inv_det)
    y2, y3 = ((u[k + 2] + y0 * a[0, k + 2] + y1 * a[1, k + 2]) * inv_c[k] for k in (0, 1))
    return np.concatenate((y0, y1, y2, y3))


def grid_rows(blocks, omega):
    """(y, singular, backward) of the rows u T(w) of EPR_ROWS at every point
    of the broadcast of the `stage_blocks` and omega, in its shape: one
    `_row_solve` on the broadcast's flattened points."""
    stages, feed = blocks
    shape = np.broadcast_shapes(stages.shape[:-3], np.shape(omega))
    flat = np.broadcast_to(stages, shape + (2, 4, 4)).reshape(-1, 2, 4, 4)
    y, singular, backward = spectra._row_solve(
        (flat, feed), np.broadcast_to(omega, shape).reshape(-1), spectra.EPR_ROWS)
    return y.reshape(shape + (4, 8)), singular.reshape(shape), backward.reshape(shape)


def stage_rows(blocks, w):
    """The rows u T(w) of EPR_ROWS at one working point (its `stage_blocks`)
    and one frequency, row by row: the second stage's row, then the first
    stage's, fed by the second through the gamma feed."""
    stages, feed = blocks
    first, second = spectra.STAGES[:4], spectra.STAGES[4:]
    shift = np.array([1j * w])
    y = np.empty((4, 8), dtype=complex)
    for row, u in enumerate(spectra.EPR_ROWS):
        y2 = schur_row(stages[1], shift, u[second])
        fed = [u[slot] + sum(y2[i] * feed[i, j] for i in range(4) if feed[i, j] != 0.0)
               for j, slot in enumerate(first)]
        y[row, second], y[row, first] = y2, schur_row(stages[0], shift, fed)
    return y


def loop_reference_point(blocks, noise, omega):
    """(s_qplus, s_pminus, commutator, e_degree) at one frequency from the
    rows at +w (`stage_rows`) alone, as the hermitian forms y A y^H of the
    variances and y_q B y_p^H - y_p B y_q^H of the commutator, one point at a
    time, in the grid kernel's evaluation order."""
    y = stage_rows(blocks, omega)
    sym = (0.25 * (noise + noise.T))[:, spectra.PAIRS]
    anti = (0.25 * (noise - noise.T))[:, spectra.PAIRS]
    s_q, s_p = ((y[:2] @ sym) * y[:2].conj()).sum(axis=-1).real
    q_first, p_first = ((y[2:] @ anti) * y[[3, 2]].conj()).sum(axis=-1)
    comm = q_first - p_first
    return s_q, s_p, comm, s_q * s_p / (0.25 * np.square(abs(comm)))


class TestGridKernel:
    """epr_grid against one-point evaluations and one-element grids."""

    def test_frequency_grid_equals_points_bitwise(self):
        rng = np.random.default_rng(53)
        for _ in range(6):
            params, branch = random_stable_point(rng)
            blocks, noise = stage_blocks(params, branch), build_noise(params)
            omegas = np.concatenate([[0.0, params.Omega, -params.Omega],
                                     rng.uniform(-3, 3, 40) * params.Omega])
            grid = epr_grid(params, branch, omegas)
            points = [epr_grid(params, branch, omegas[i:i + 1]) for i in range(omegas.size)]
            for field in ("omega", "s_qplus", "s_pminus", "commutator", "e_degree"):
                assert np.array_equal(getattr(grid, field),
                                      [getattr(p, field)[0] for p in points]), field
            assert np.array_equal(grid.variance_product, [p.variance_product[0] for p in points])
            reference = np.array([loop_reference_point(blocks, noise, w) for w in omegas]).T
            for field, want in zip(("s_qplus", "s_pminus", "commutator", "e_degree"), reference):
                assert np.array_equal(getattr(grid, field), want), field

    def test_drift_stack_equals_points_bitwise(self):
        # the sweep's shape: one frequency, a grid of working points
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        steady = steady_grid(params, np.geomspace(1e5, 1e7, 30))
        stable = steady[np.flatnonzero(stability_grid(params, steady))]
        grid = epr_grid(params, stable, params.Omega)
        want = [epr_grid(params, stable[k:k + 1], params.Omega).e_degree[0]
                for k in range(len(stable.zeta1))]
        assert len(want) > 10
        assert np.array_equal(grid.e_degree, want)

    def test_moments_match_40_digit_reference(self):
        # the full 8x8 T(+-w) inverted at 40 digits, against the stage rows
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        for chi in np.geomspace(0.3, 3.0, 5):
            params = PhysParams(chi=chi, Omega=1000.0, **CANONICAL_RATES)
            branch = steady_grid(params, np.array([3e5]))[0]
            assert stability_grid(params, branch)
            drift, noise = build_drift(params, branch), build_noise(params)
            omegas = params.Omega * np.array([0.1, 0.5, 1.0, 1.5, 8.0])
            grid = epr_grid(params, branch, omegas)
            with mpmath.workdps(40):
                for i, w in enumerate(omegas):
                    s_q, s_p, comm = epr_reference(drift, noise, w, mpmath)
                    want = (s_q, s_p, comm, s_q * s_p / (0.25 * abs(comm) ** 2))
                    got = (grid.s_qplus[i], grid.s_pminus[i], grid.commutator[i], grid.e_degree[i])
                    for g, ref in zip(got, want):
                        worst = max(worst, float(abs(complex(g) - ref) / abs(ref)))
        assert worst < 5e-15

    def test_transfer_matrix_matches_40_digit_reference(self):
        # the unit rows T(+-w) of the stage row solve against (+-i w I - M)^(-1)
        # inverted at 40 digits; each entry held to its row's largest entry
        # (the worst was 4.5e-16, on the second atom's rows at w = +-Omega)
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        for chi in np.geomspace(0.3, 3.0, 5):
            params = PhysParams(chi=chi, Omega=1000.0, **CANONICAL_RATES)
            branch = steady_grid(params, np.array([3e5]))[0]
            assert stability_grid(params, branch)
            omegas = params.Omega * np.array([0.1, 0.5, 1.0, 1.5, 8.0])
            omegas = np.concatenate((omegas, -omegas))
            got = spectra._row_solve(stage_blocks(params, branch), omegas, np.eye(8))[0]
            with mpmath.workdps(40):
                m, eye = mpmath.matrix(build_drift(params, branch).tolist()), mpmath.eye(8)
                for t, w in zip(got, omegas):
                    want = (mpmath.mpc(0, w) * eye - m) ** -1
                    for i in range(8):
                        row = [want[i, j] for j in range(8)]
                        scale = max(abs(x) for x in row)
                        worst = max(worst, max(float(abs(complex(t[i, j]) - x) / scale)
                                               for j, x in enumerate(row)))
        assert worst < 2e-15

    @pytest.mark.parametrize("drive", [1e6, 1e70, 1e78, 1e100, 1e151])
    def test_ok_points_match_300_digit_reference(self, drive):
        # the stage rows keep a componentwise backward error of order eps up
        # to the largest stable drives (LAPACK's rows reached 0.19-1 at drives
        # 1e73-1e76 and from 1e79 on, which failed as rounding): every
        # frequency at every drive is OK and matches a 300-digit inversion
        mpmath = pytest.importorskip("mpmath")
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        branch = steady_grid(params, np.array([drive]))[0]
        drift, noise = build_drift(params, branch), build_noise(params)
        omegas = np.geomspace(100.0, 1e4, 5)
        grid, status, _ = spectra._epr_kernel(stage_blocks(params, branch), noise, omegas)
        assert np.all(status == spectra.OK)
        with mpmath.workdps(300):
            for i, w in enumerate(omegas):
                got = (grid.s_qplus[i], grid.s_pminus[i], grid.commutator[i])
                for g, ref in zip(got, epr_reference(drift, noise, w, mpmath)):
                    assert float(abs(complex(g) - ref) / abs(ref)) < 1e-12

    @pytest.mark.parametrize("gamma_atom,omegas,dps", [
        # the commutator falls like Gamma/w^2: from 9.8e-31 at w = 3.2e13 to
        # 2.5e-308, just above the smallest normal float, at w = 2e152
        (1e-3, np.geomspace(3.2e13, 2e152, 7), 40),
        # the decoupled limit e_degree = 4, with a commutator of 4e-200
        (1e200, np.geomspace(100.0, 1e4, 5), 300),
    ], ids=["falling-commutator", "Gamma-1e200"])
    def test_small_commutators_match_reference(self, gamma_atom, omegas, dps):
        # the degree is a scale-free ratio: a commutator far below 1 in units
        # of gamma, but a normal float, is as accurate as any other
        mpmath = pytest.importorskip("mpmath")
        params = PhysParams(chi=1.0, Omega=1000.0, **dict(CANONICAL_RATES, Gamma=gamma_atom))
        branch = steady_grid(params, np.array([1e6]))[0]
        drift, noise = build_drift(params, branch), build_noise(params)
        grid, status, _ = spectra._epr_kernel(stage_blocks(params, branch), noise, omegas)
        assert np.all(status == spectra.OK)
        assert np.all(np.abs(grid.commutator) < 1e-30)
        with mpmath.workdps(dps):
            for i, w in enumerate(omegas):
                s_q, s_p, comm = epr_reference(drift, noise, w, mpmath)
                want = (s_q, s_p, comm, s_q * s_p / (0.25 * abs(comm) ** 2))
                got = (grid.s_qplus[i], grid.s_pminus[i], grid.commutator[i], grid.e_degree[i])
                for g, ref in zip(got, want):
                    assert float(abs(complex(g) - ref) / abs(ref)) < 1e-14

    def test_ok_points_have_finite_degree_down_to_the_smallest_normal_commutator(self):
        # across w = 1e140-1e160 the commutator falls through the smallest
        # normal float (near w = 2.3e152): every point above it is OK with a
        # finite degree, every point below it degenerate; a subnormal
        # commutator would overflow the 2^-k scale of the degree's quotient
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        branch = steady_grid(params, np.array([1e6]))[0]
        omegas = np.geomspace(1e140, 1e160, 2001)
        grid, status, _ = spectra._epr_kernel(stage_blocks(params, branch),
                                              build_noise(params), omegas)
        ok = status == spectra.OK
        assert np.all(np.isfinite(grid.e_degree[ok]))
        assert np.all(np.abs(grid.commutator[ok]) >= spectra.TINY)
        assert np.all(status[~ok] == spectra.DEGENERATE)
        assert 2e152 < omegas[ok].max() < 2.5e152 and np.all(np.diff(ok.astype(int)) <= 0)

    def test_empty_grid(self):
        params, branch = random_stable_point(np.random.default_rng(67))
        assert epr_grid(params, branch, np.array([])).e_degree.shape == (0,)

    def test_grid_across_blocks_equals_points_bitwise(self):
        # the kernel solves GRID_BLOCK points at a time; a point's results
        # do not depend on its block or its place in it
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        branch = steady_grid(params, np.array([1e6]))[0]
        omegas = np.geomspace(100.0, 1e4, 2 * GRID_BLOCK + 7)
        grid = epr_grid(params, branch, omegas)
        points = [epr_grid(params, branch, omegas[i:i + 1]) for i in range(omegas.size)]
        for field in ("omega", "s_qplus", "s_pminus", "commutator", "e_degree"):
            assert np.array_equal(getattr(grid, field), [getattr(p, field)[0] for p in points])
        # working points by frequencies, with a block boundary inside a row:
        # each row is that working point's own grid
        steady, row = steady_grid(params, np.array([1e5, 3e5, 1e6])), omegas[:GRID_BLOCK // 2 + 1]
        both = epr_grid(params, steady[:, None], row[None, :])
        for k in range(3):
            alone = epr_grid(params, steady[k], row)
            for field in ("s_qplus", "s_pminus", "commutator", "e_degree"):
                assert np.array_equal(getattr(both, field)[k], getattr(alone, field))
        # a sweep's shape, more than a block of stable working points at one
        # frequency: each drive's forms are those of its one-drive evaluation
        steady = steady_grid(params, np.geomspace(1e5, 1e9, 2401), "follow")
        stable = steady[stability_grid(params, steady)][:GRID_BLOCK + 7]
        assert stable.intensity1.size == GRID_BLOCK + 7
        sweep = epr_grid(params, stable, params.Omega)
        for k in range(GRID_BLOCK + 7):
            alone = epr_grid(params, stable[k], params.Omega)
            for field in ("s_qplus", "s_pminus", "commutator", "e_degree"):
                assert np.array_equal(getattr(sweep, field)[k], getattr(alone, field))

    def test_grid_memory_is_bounded(self):
        # one full block of the kernel, in the spectrum's shape (one working
        # point by GRID_BLOCK frequencies) and the sweep's (GRID_BLOCK working
        # points at one frequency), peaks at 0.84 MiB (numpy 2.4), about 1,140
        # bytes a point: the stacked rows (512 bytes a point), the slot rows
        # they are stacked from (512) and the per-point columns, allocated
        # before the first block (49)
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        branch, noise = steady_grid(params, np.array([1e6]))[0], build_noise(params)
        drives = steady_grid(params, np.full(GRID_BLOCK, 1e6))
        shapes = ((stage_blocks(params, branch), np.geomspace(100.0, 1e4, GRID_BLOCK)),
                  (stage_blocks(params, drives), params.Omega))
        for blocks, omega in shapes:
            tracemalloc.start()
            try:
                spectra._epr_kernel(blocks, noise, omega)
                assert tracemalloc.get_traced_memory()[1] < 0.85 * 2**20
            finally:
                tracemalloc.stop()
        # one block's arrays plus the per-point results (four arrays of the
        # SpectrumPoint and the status, 48 bytes a point), each held at most
        # four times over (the blocks' parts, their concatenation and the
        # status' temporaries): not the rows of the whole grid (1.5 kB a point)
        peaks = []
        for count in (GRID_BLOCK, 20001):
            omegas = np.geomspace(100.0, 1e4, count)
            tracemalloc.start()
            try:
                epr_grid(params, branch, omegas)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 4 * 48 * 20001

    def test_stability_grid_matches_single_verdicts(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        drives = np.array([1e3, 3e5, 2e6])
        verdicts = []
        for selection in ("lowest", "highest"):
            steady = steady_grid(params, drives, selection)
            stable, terms = stability_grid(params, steady), spectra._hurwitz_terms(params, steady)
            # one working point, or a one-element grid, gives that drive's verdict and terms
            for k in range(drives.size):
                assert stability_grid(params, steady[k]) == stable[k]
                assert stability_grid(params, steady[k:k + 1]).tolist() == [stable[k]]
                for one, many in zip(spectra._hurwitz_terms(params, steady[k]), terms):
                    assert np.array_equal(one, many[k])
            verdicts.extend(stable)
        assert any(verdicts) and not all(verdicts)

    def test_singular_point_inside_grid_is_named(self, monkeypatch):
        params, branch = undamped_atoms()
        omegas = np.array([0.25, 0.5, 2.0, 3.0])
        # input noise on the atoms, as if damped, leaves the other points OK
        damped = build_noise(replace(params, Gamma=0.4))
        monkeypatch.setattr(spectra, "build_noise", lambda params: damped)
        assert np.isfinite(epr_grid(params, branch, omegas[[0, 1, 3]]).e_degree).all()
        with pytest.raises(SingularTransferError, match=r"omega=2\.0$"):
            epr_grid(params, branch, omegas)

    def test_first_failure_in_grid_order(self):
        # the undamped atoms are singular at w = +-2, and their commutator
        # vanishes everywhere: of the failing points in the grid the first
        # is named, whatever its failure
        params, branch = undamped_atoms()
        omegas = np.array([4.0, 2.0, 0.5, -2.0])
        with pytest.raises(SingularTransferError, match=r"omega=2\.0$"):
            epr_grid(params, branch, omegas[1:])
        with pytest.raises(SingularTransferError, match=r"omega=-2\.0$"):
            epr_grid(params, branch, omegas[::-1])
        with pytest.raises(ArithmeticError, match=r"^degenerate commutator .* at omega=4\.0$"):
            epr_grid(params, branch, omegas)

    def test_first_failure_named_across_blocks(self, monkeypatch):
        # the singular w = +-2 of the undamped atoms (input noise as if
        # damped) lie in later blocks than the grid's first point: the first
        # in grid order is named, and each point has the status it has alone
        params, branch = undamped_atoms()
        damped = build_noise(replace(params, Gamma=0.4))
        monkeypatch.setattr(spectra, "build_noise", lambda params: damped)
        omegas = np.concatenate([np.linspace(0.25, 1.5, GRID_BLOCK + 5), [2.0, 3.0],
                                 np.linspace(2.5, 4.0, GRID_BLOCK), [-2.0]])
        with pytest.raises(SingularTransferError, match=r"omega=2\.0$"):
            epr_grid(params, branch, omegas)
        with pytest.raises(SingularTransferError, match=r"omega=-2\.0$"):
            epr_grid(params, branch, omegas[::-1])
        blocks = stage_blocks(params, branch)
        grid, status, failure = spectra._epr_kernel(blocks, damped, omegas)
        assert np.flatnonzero(status).tolist() == [GRID_BLOCK + 5, omegas.size - 1]
        for i in np.flatnonzero(status):
            alone = spectra._epr_kernel(blocks, damped, omegas[i:i + 1])
            assert str(failure(i)) == str(alone[2](0))

    def test_kernel_status_per_point(self):
        # the undamped atoms' blocks are singular at w = +-2 (with input
        # noise on the atoms, the other points are OK); damped blocks scaled
        # by 1e160 leave only a commutator below the smallest normal float
        # (by 1e150, above it: OK); moments that cancel
        # (`cancelling_noise`) leave variances far below the rounding of
        # their terms; negated input moments make the variances negative
        undamped, branch = undamped_atoms()
        damped = replace(undamped, Gamma=0.4)
        scaled, feed = stage_blocks(damped, branch)
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        vacuum = build_noise(params)
        # at the default working point, a second stage of uncoupled atoms
        # whose pivot at w = 1000 is the subnormal 1e-310: not singular, but
        # its rows come out with a nan backward error
        default = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        lossy = stage_blocks(default, steady_grid(default, np.array([1e6]))[0])
        lossy[0][1, :2, :], lossy[0][1, 2:, :2] = 0.0, 0.0
        lossy[0][1, :2, :2] = np.diag([1j * 1e3 - 1e-310] * 2)
        cases = [
            (stage_blocks(undamped, branch), build_noise(damped), [0.5, -2.0, 2.0],
             [spectra.OK] + [spectra.SINGULAR] * 2),
            ((scaled * 1e150, feed), build_noise(damped), [0.5, -2.0], [spectra.OK] * 2),
            ((scaled * 1e160, feed), build_noise(damped), [0.5, -2.0], [spectra.DEGENERATE] * 2),
            ((scaled, feed), cancelling_noise(damped), [0.5, 2.0], [spectra.ROUNDING] * 2),
            (lossy, build_noise(default), [1e3], [spectra.SINGULAR]),
            (stage_blocks(params, steady_grid(params, np.array([1e3]))[0]), -vacuum, [1.0, 10.0],
             [spectra.NONPOSITIVE] * 2),
        ]
        for blocks, noise, omegas, want in cases:
            grid, status, failure = spectra._epr_kernel(blocks, noise, np.array(omegas))
            assert status.tolist() == want
            assert np.array_equal(np.isnan(grid.e_degree), status != spectra.OK)
            for i in np.flatnonzero(status):
                # the grid names what the point evaluated alone fails with
                alone = spectra._epr_kernel(blocks, noise, np.array(omegas[i:i + 1]))
                assert alone[1].tolist() == [want[i]]
                assert str(failure(i)) == str(alone[2](0))
        # a singular point fails so through the public kernel too
        with pytest.raises(SingularTransferError) as info:
            epr_grid(undamped, branch, -2.0)
        assert str(info.value) == "transfer matrix singular at omega=-2.0"
        lost = spectra._epr_kernel(lossy, build_noise(default), np.array([1e3]))[2](0)
        assert str(lost) == "transfer solve at omega=1000.0 lost precision (backward error nan)"
        assert str(failure(0)) == (f"non-positive EPR variance (s_qplus {grid.s_qplus[0]}, "
                                   f"s_pminus {grid.s_pminus[0]}) at omega=1.0")

    def test_minus_rows_are_conjugate_plus_rows(self):
        # T(-w) = P conj(T(w)) P and u P = conj(u) for every EPR row u.  Each
        # entry is held to the largest entry of its row: entries that cancel
        # to far below it differ by up to 3.6e-9 of themselves, while the
        # worst of any entry against its row's largest was 7.4e-16 on the
        # random draws and 1.8e-14 on the benchmark drifts
        def assert_derived(plus, direct):
            scale = np.abs(direct).max(axis=-1, keepdims=True)
            assert np.all(np.abs(plus.conj()[..., spectra.PAIRS] - direct) <= 5e-14 * scale)

        rng = np.random.default_rng(71)
        for _ in range(10):
            params, branch = random_stable_point(rng)
            blocks = stage_blocks(params, branch)
            for w in rng.uniform(-3, 3, 20) * params.Omega:
                assert_derived(stage_rows(blocks, w), stage_rows(blocks, -w))
        drives = np.geomspace(1e5, 1e9, 2401)
        for chi in np.geomspace(0.3, 3.0, 8):
            params = PhysParams(chi=chi, Omega=1000.0, **CANONICAL_RATES)
            steady = steady_grid(params, drives, selection="follow")
            blocks = stage_blocks(params, steady[np.flatnonzero(stability_grid(params, steady))])
            for w in (100.0, 1000.0, 5000.0):
                assert_derived(grid_rows(blocks, w)[0], grid_rows(blocks, -w)[0])

    def test_vacuum_variances_are_never_non_positive(self):
        # with vacuum inputs each variance is a sum of squares up to the
        # rounding of its cross terms: every stable drive up to 1e154 is OK
        # (LAPACK's rows left extreme drives to fail as rounding), and drives
        # spread over 1e70-1e154 match a 300-digit inversion
        mpmath = pytest.importorskip("mpmath")
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        steady = steady_grid(params, np.geomspace(1e5, 1e154, 400), "follow")
        stable = steady[np.flatnonzero(stability_grid(params, steady))]
        noise = build_noise(params)
        grid, status, _ = spectra._epr_kernel(stage_blocks(params, stable), noise, 1000.0)
        assert np.all(status == spectra.OK)
        assert np.all(grid.s_qplus > 0.0) and np.all(grid.s_pminus > 0.0)
        extreme = np.flatnonzero(np.abs(stable.zeta1_in) >= 1e70)
        with mpmath.workdps(300):
            for k in extreme[np.linspace(0, extreme.size - 1, 6).astype(int)]:
                want = epr_reference(build_drift(params, stable[k]), noise, 1000.0, mpmath)
                for got, ref in zip((grid.s_qplus[k], grid.s_pminus[k]), want):
                    assert float(abs(got - ref) / ref) < 1e-12

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
            branch = steady_grid(params, np.array([rng.uniform(0.0, 3.0)]))[0]
            if (not stability_grid(params, branch)
                    or block_eigenvalues(params, branch).real.max() > -0.1):
                continue
            drift, noise = build_drift(params, branch), build_noise(params)
            # C(w) = T(w) d T(-w)^T, from rows solved separately at +w and -w
            plus, minus = (spectra._row_solve(stage_blocks(params, branch), w, np.eye(8))[0]
                           for w in (omegas, -omegas))
            c = plus @ noise @ np.swapaxes(minus, -1, -2)
            integral = np.tensordot(np.diff(omegas), c[1:] + c[:-1], axes=1) / (4 * np.pi)
            sigma = scipy.linalg.solve_sylvester(drift, drift.T, -noise)
            assert np.abs(integral - sigma).max() < 1e-3
            checked += 1


class TestStageRows:
    """The closed-form stage row solve against LAPACK's and against the
    stage polynomial of the stability verdict."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(chi=st.one_of(st.just(0.0), st.floats(0.0, 3.0)), log_omega=st.floats(-1.0, 3.5),
           gamma_motion=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
           gamma=st.floats(0.1, 3.0), delta1=st.floats(-1e4, 1e4), delta2=st.floats(-1e4, 1e4),
           scale=st.floats(-3.0, 3.0))
    def test_rows_match_lapack_oracle(self, chi, log_omega, gamma_motion, gamma, delta1, delta2,
                                      scale):
        # at drive 0 and at chi = 0 the atoms decouple, and without atom
        # damping w = +-Omega is singular: both solves flag it.  A point LAPACK
        # inverts with a Skeel condition below 1/eps is flagged by neither;
        # closer to singular, a zero pivot of one elimination order may be a
        # tiny one of the other.  At well-conditioned points where LAPACK's
        # componentwise backward error is below 1e-14 the rows agree to 1e-13
        # normwise, beyond the first-order effect of both solves' backward
        # errors through the rows' condition |y| |L| |L^-1| (ill-conditioned
        # draws differ by up to 2.4e-12).  Statuses agree there too, but for
        # the forms' rounding verdict near its bound and near w = 0 without
        # atom damping, where the commutator vanishes like w: the closed form
        # gives it as 0 or below the floor (DEGENERATE), LAPACK's rows as
        # rounding
        params = PhysParams(chi=chi, Omega=10.0**log_omega, Gamma=gamma_motion, gamma=gamma,
                            Delta1=delta1, Delta2=delta2)
        omegas = params.Omega * np.array([1.0, -1.0, scale, 0.0])
        drives = np.concatenate(([0.0], np.geomspace(1e-2, 1e8, 13)))
        noise = build_noise(params)

        for selection in SELECTIONS:
            steady = steady_grid(params, drives, selection)
            stages, feed = stage_blocks(params, steady)
            blocks = (stages[:, None], feed)  # (drive, omega) points
            y, singular, backward = grid_rows(blocks, omegas)
            y_ref, singular_ref, backward_ref = lapack_rows(blocks, omegas, spectra.EPR_ROWS)
            decoupled = np.all(stages[:, :, :2, 2:] == 0.0, axis=(-3, -2, -1))
            exact = (decoupled[:, None] & (gamma_motion == 0.0)
                     & (np.abs(omegas) == params.Omega))
            assert np.all(singular[exact]) and np.all(singular_ref[exact])
            lhs = 1j * omegas[:, None, None] * np.eye(8) - build_drift(params, steady)[:, None]
            inverse = lapack_rows(blocks, omegas, np.eye(8))[0]
            with np.errstate(invalid="ignore"):  # the nan inverse of a singular point
                skeel = (np.abs(inverse) @ np.abs(lhs)).sum(axis=-1).max(axis=-1)
            well = skeel <= 1.0 / spectra.EPS
            assert not np.any(singular[well] | singular_ref[well])
            check = well & (backward_ref < 1e-14) & np.isfinite(y_ref).all(axis=(-2, -1))
            condition = np.linalg.norm(
                np.abs(y_ref[check]) @ np.abs(lhs[check]) @ np.abs(inverse[check]), axis=-1)
            bound = (1e-13 * np.linalg.norm(y_ref[check], axis=-1)
                     + (backward[check] + backward_ref[check])[:, None] * condition)
            assert np.all(np.linalg.norm(y[check] - y_ref[check], axis=-1) <= bound)
            status = spectra._epr_kernel(blocks, noise, omegas)[1]
            with mock.patch.object(spectra, "_row_solve", lapack_rows):
                status_ref = spectra._epr_kernel(blocks, noise, omegas)[1]
            same = check if gamma_motion > 0.0 else check & (np.abs(omegas) > 1e-6 * params.Omega)
            # the rounding estimate of the forms grows with the rows' backward
            # error: near FORM_TOLERANCE only the rows with the smaller one may
            # pass where the others fail
            ok, rounding = (status == spectra.OK), (status == spectra.ROUNDING)
            ok_ref, rounding_ref = (status_ref == spectra.OK), (status_ref == spectra.ROUNDING)
            apart = np.where(backward < backward_ref, ok & rounding_ref, rounding & ok_ref)
            assert np.all(((status == status_ref) | apart)[same])

    def test_pivots_give_the_stage_polynomial(self):
        # c0 c1 det S = det(i w - A) is the stage's characteristic polynomial
        # p(s) = (s^2 + Gamma s + wm^2)(s^2 + gamma s + wc^2) - K at s = i w,
        # K = wm^2 wc^2 - a0 from the a0 of `_hurwitz_terms`, to within the
        # rounding of the polynomial's summed term magnitudes
        rows = [np.ones((1, 1, 1))] * 4
        for chi in (0.3, 1.0, 3.0):
            params = PhysParams(chi=chi, Omega=1000.0, **CANONICAL_RATES)
            steady = steady_grid(params, np.geomspace(1e5, 1e9, 241), "follow")
            stages = stage_blocks(params, steady)[0]
            big, g = params.Gamma, params.gamma
            wm2 = big * big / 4 + params.Omega**2
            wc2 = g * g / 4 + spectra._detunings(params, steady) ** 2
            cycle = wm2 * wc2 - spectra._hurwitz_terms(params, steady)[0]
            for w in (0.0, 100.0, 1000.0, 5000.0, -3000.0):
                s = 1j * w
                want = (s * s + big * s + wm2) * (s * s + g * s + wc2) - cycle
                size = (w * w + big * abs(w) + wm2) * (w * w + g * abs(w) + wc2) + abs(cycle)
                pivots = spectra._solve_rows(stages, np.array([s]), rows)[3]
                got = pivots[0] * pivots[1] * pivots[2]
                assert np.all(np.abs(got - want) <= 4e-15 * size), (chi, w)


def hurwitz_reference(block, dps):
    """(a0, D3) of the characteristic polynomial s^4 + a3 s^3 + a2 s^2 + a1 s
    + a0 of a 4x4 stage block at `dps` digits (Faddeev-LeVerrier), the block
    being the complex form of the real stage map: similar to it, so with its
    polynomial."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        a, eye = mpmath.matrix(block.tolist()), mpmath.eye(4)
        coeffs, m = [mpmath.mpf(1)], mpmath.zeros(4)
        for k in range(1, 5):
            m = a * m + coeffs[-1] * eye
            am = a * m
            coeffs.append(-sum(am[i, i] for i in range(4)) / k)
        a3, a2, a1, a0 = (mpmath.re(c) for c in coeffs[1:])
        return a0, a3 * a2 * a1 - a1 * a1 - a3 * a3 * a0


class TestClassifyStability:
    def test_decoupled_eigenvalues(self):
        # chi = 0: each stage is a damped atom beside a detuned cavity, and
        # a0 and D3 are those of the polynomial with their eigenvalues
        params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.2, gamma=1.0, Delta1=1.5, Delta2=-0.7)
        branch = steady_grid(params, np.array([1.0]))[0]
        assert stability_grid(params, branch)
        want = np.array([[-0.1 + 3j, -0.1 - 3j, -0.5 - 1.5j, -0.5 + 1.5j],
                         [-0.1 + 3j, -0.1 - 3j, -0.5 + 0.7j, -0.5 - 0.7j]])
        a0, d3 = spectra._hurwitz_terms(params, branch)
        for stage, eigs in enumerate(want):
            a3, a2, a1, a0_want = np.poly(eigs)[1:].real
            assert a0[stage] == pytest.approx(a0_want, rel=1e-14)
            assert d3[stage] == pytest.approx(a3 * a2 * a1 - a1 * a1 - a3 * a3 * a0_want, rel=1e-12)
        eigs = block_eigenvalues(params, branch)
        assert np.allclose(np.sort_complex(eigs), np.sort_complex(want.ravel()), atol=1e-10)

    def test_middle_branch_unstable(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        window = bistable_window(params, params.Delta1)
        power = np.sqrt(window[0] * window[1])
        drive = np.sqrt(power / params.gamma)
        roots = root_grid(params, params.Delta1, [power])[0]
        branch = steady_grid(params, np.array([drive]), "lowest")[0]
        z_mid = np.sqrt(params.gamma) * drive / cavity_bracket(params, params.Delta1, roots[1])
        pole = params.Gamma / 2 + 1j * params.Omega
        mid_branch = SteadyBranch(
            zeta1=z_mid, zeta2=branch.zeta2, zeta1_in=drive + 0j,
            zeta2_in=branch.zeta2_in,
            alpha=-1j * params.chi * abs(z_mid) ** 2 / pole, beta=branch.beta,
            intensity1=abs(z_mid) ** 2, intensity2=branch.intensity2,
            branch1=BRANCH_MIDDLE, branch2=branch.branch2)
        assert not stability_grid(params, mid_branch)
        # the middle branch fails a0: one real eigenvalue has crossed zero
        a0, d3 = spectra._hurwitz_terms(params, mid_branch)
        assert a0[0] < 0 < d3[0]
        assert block_eigenvalues(params, mid_branch).real.max() > 0

    def test_stability_invariant_under_drive_phase(self):
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        for drive in (3.0e5, 2.0e6):
            steady = steady_grid(params, drive * np.array([1.0, np.exp(1.1j)]))
            s0, s1 = stability_grid(params, steady)
            assert s0 == s1
            for term in spectra._hurwitz_terms(params, steady):
                assert np.allclose(term[0], term[1], rtol=1e-12, atol=0.0)

    def test_nan_drift_is_unstable_without_failing(self):
        # a drive whose power overflows has a nan working point, hence nan
        # stage blocks: its verdict is False, without a warning, and the
        # other drives keep theirs
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        steady = steady_grid(params, np.array([1e5, 3e5, 1e200, 1e6, 1e7]))
        assert np.isnan(stage_blocks(params, steady[2])[0]).any()
        finite = np.array([True, True, False, True, True])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stable = stability_grid(params, steady)
            assert stable.tolist() == [True, True, False, True, False]
            assert np.array_equal(stable[finite], stability_grid(params, steady[finite]))
            assert not stability_grid(params, steady[2])
            # nor is a working point with any other part that is not finite
            for name in ("zeta1", "zeta2", "alpha", "beta"):
                for value in (np.inf, -np.inf, np.nan):
                    assert not stability_grid(params, replace(steady[1], **{name: value}))

    def test_undamped_uncoupled_atoms_are_not_stable(self):
        # Gamma = chi = 0: the atoms oscillate undamped; D3 is 0 exactly, so
        # the verdict is False at every drive and detuning
        for delta in (-3.0, 0.0, 2.5):
            params = PhysParams(chi=0.0, Omega=3.0, Gamma=0.0, gamma=1.0,
                                Delta1=delta, Delta2=-delta)
            steady = steady_grid(params, np.geomspace(1e-3, 1e6, 10))
            a0, d3 = spectra._hurwitz_terms(params, steady)
            assert np.all(a0 > 0.0) and np.all(d3 == 0.0)
            assert not stability_grid(params, steady).any()

    def test_eigenvalues_match_40_digit_reference(self):
        # the eigenvalue oracle on its hardest case: with equal detunings the
        # two blocks' eigenvalues nearly coincide, and the gamma feed between
        # them leaves the full 8x8 problem nearly defective
        mpmath = pytest.importorskip("mpmath")
        from scipy.optimize import linear_sum_assignment
        params = PhysParams(chi=0.3, Omega=1000.0, **CANONICAL_RATES)
        branch = steady_grid(params, np.array([46415888.33612782]), "highest")[0]
        drift = build_drift(params, branch)
        with mpmath.workdps(40):
            want = np.array([complex(e) for e in mpmath.eig(mpmath.matrix(drift.tolist()))[0]])
        full = np.linalg.eigvals(drift)
        assert abs(full.real.max() - want.real.max()) > 1e-6
        eigs = block_eigenvalues(params, branch)
        cost = np.abs(eigs[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-9 * np.linalg.norm(drift, 2)
        assert stability_grid(params, branch) == bool(want.real.max() < 0.0)

    def test_hurwitz_terms_match_40_digit_reference(self):
        # a0 and D3 against the 40-digit characteristic polynomial of each
        # stage block of the same drift: drives next to each change of
        # verdict on three benchmark sweeps, where D3 passes through zero,
        # and a working point with equal detunings whose margins go down
        # to 2e-7.  Each term is held to its summed term magnitude
        worst, checked = 0.0, 0
        cases = []
        for chi in (0.3, 1.0, 3.0):
            params = PhysParams(chi=chi, Omega=1000.0, **CANONICAL_RATES)
            steady = steady_grid(params, np.geomspace(1e5, 1e9, 2401), "follow")
            change = np.flatnonzero(np.diff(stability_grid(params, steady)))
            cases.append((params, steady[np.unique(np.concatenate([change, change + 1]))]))
        params = PhysParams(chi=0.3, Omega=1000.0, **CANONICAL_RATES)
        cases.append((params, steady_grid(params, np.array([46415888.33612782]), "highest")))
        for params, steady in cases:
            big, g = params.Gamma, params.gamma
            wm2, damping = big * big / 4 + params.Omega**2, big + g
            a0, d3 = spectra._hurwitz_terms(params, steady)
            stages = stage_blocks(params, steady)[0]
            for k in range(len(steady.zeta1)):
                for stage, block in enumerate(stages[k]):
                    want_a0, want_d3 = hurwitz_reference(block, 40)
                    wc2 = abs(block[2, 2]) ** 2  # |g/2 + i d|^2
                    cycle = abs(wm2 * wc2 - float(want_a0))
                    scale_a0 = wm2 * wc2 + cycle
                    scale_d3 = (big * g * ((wm2 + wc2) ** 2 + damping * (big * wc2 + g * wm2))
                                + damping**2 * cycle)
                    for got, want, scale in ((a0[k, stage], want_a0, scale_a0),
                                             (d3[k, stage], want_d3, scale_d3)):
                        error = abs(got - float(want)) / scale
                        worst = max(worst, error)
                        assert error <= 1e-14, (params.chi, k, stage)
                        checked += 1
        assert checked >= 40
        assert worst > 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(chi=st.floats(0.0, 3.0), log_omega=st.floats(-1.0, 3.5),
           gamma_motion=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
           gamma=st.floats(0.1, 3.0), delta1=st.floats(-1e4, 1e4), delta2=st.floats(-1e4, 1e4))
    def test_closed_form_matches_block_eigenvalues(self, chi, log_omega, gamma_motion, gamma,
                                                   delta1, delta2):
        # the closed-form coefficients against np.poly of the real stage
        # blocks, and each stage's verdict against the sign of its
        # eigenvalues, both where the eigenvalue solve is accurate enough to
        # tell: the first-order bound of the benchmark-grid test on each
        # eigenvalue, carried to the coefficients
        eps = np.finfo(float).eps
        params = PhysParams(chi=chi, Omega=10.0**log_omega, Gamma=gamma_motion, gamma=gamma,
                            Delta1=delta1, Delta2=delta2)
        big, g = params.Gamma, params.gamma
        wm2 = big * big / 4 + params.Omega**2
        drives = np.geomspace(1e-2, 1e8, 25)
        for selection in SELECTIONS:
            steady = steady_grid(params, drives, selection)
            stable = stability_grid(params, steady)
            a0, d3 = spectra._hurwitz_terms(params, steady)
            finite = np.all(np.isfinite(stage_blocks(params, steady)[0]), axis=(-3, -2, -1))
            assert not stable[~finite].any()
            blocks = real_blocks(params, steady[np.flatnonzero(finite)])
            eigs, vectors = np.linalg.eig(blocks)
            condition = (np.linalg.norm(vectors, axis=-2)
                         * np.linalg.norm(np.linalg.inv(vectors), axis=-1))
            bound = 64 * eps * np.linalg.norm(blocks, axis=(-2, -1))[..., None] * condition
            atoms = np.stack((steady.alpha[finite], steady.beta[finite]), axis=-1)
            detuning = np.array([delta1, delta2]) + chi * 2.0 * atoms.real
            wc2 = g * g / 4 + detuning**2
            closed = np.stack([np.full(wc2.shape, big + g), wm2 + wc2 + big * g,
                               big * wc2 + g * wm2, a0[finite]], axis=-1)
            for k in np.ndindex(wc2.shape):
                # a_j = e_j(-lambda): its derivative in lambda_i is -e_(j-1)
                # of the other eigenvalues
                spread = sum(bound[k][i] * np.poly(-np.abs(np.delete(eigs[k], i)))
                             for i in range(4))
                error = np.abs(np.poly(blocks[k])[1:] - closed[k])
                assert np.all(error <= 1e-12 * np.abs(closed[k]) + spread), (selection, k)
            top = np.argmax(eigs.real, axis=-1)
            margin = np.take_along_axis(eigs.real, top[..., None], axis=-1)[..., 0]
            clear = np.abs(margin) > np.take_along_axis(bound, top[..., None], axis=-1)[..., 0]
            verdicts = ((a0 > 0.0) & (d3 > 0.0))[finite]
            assert np.array_equal(verdicts[clear], (margin < 0.0)[clear]), selection
            assert np.array_equal(stable[finite], verdicts.all(axis=-1))

    def test_verdicts_equal_full_drift_solve_on_benchmark_grid(self):
        drives = np.geomspace(1e5, 1e9, 2401)
        eps = np.finfo(float).eps
        compared = 0
        for chi in np.geomspace(0.3, 3.0, 8):
            params = PhysParams(chi=chi, Omega=1000.0, **CANONICAL_RATES)
            steady = steady_grid(params, drives, selection="follow")
            drifts = build_drift(params, steady)
            stable = stability_grid(params, steady)
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
        # a nan compares False with anything, so it cannot vouch for the order
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        for grid in ([2.0, 1.0], [2.0, np.nan, 1.0]):
            with pytest.raises(ValueError, match="ascending"):
                amplitude_sweep(params, np.array(grid), 10.0)

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
        assert np.all(sweep.status[flagged] == spectra.UNSTABLE)

    def test_unstable_and_overflowing_drives_have_their_status(self):
        # at the default rates drive 1e7 lies past the knee, and drive 1e200's power overflows
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        sweep = amplitude_sweep(params, np.array([1e5, 1e7, 1e200]), params.Omega)
        assert list(sweep.status) == [spectra.OK, spectra.UNSTABLE, spectra.OVERFLOW]
        assert list(sweep.stable) == [True, False, False]
        # the branches are integer codes, as is every column of the sweep but its floats
        assert sweep.branch1.tolist() == sweep.branch2.tolist() == [BRANCH_LOWER, BRANCH_UPPER,
                                                                    BRANCH_NONE]
        assert {column.dtype.kind for column in vars(sweep).values()} == {"b", "f", "i"}
        assert np.array_equal(np.isnan(sweep.e_degree), [False, True, True])

    def test_degenerate_commutator_keeps_the_stable_verdict(self):
        # at Omega 1e200 every default drive is stable, and its commutator at
        # omega 100 falls below the smallest normal float: a nan with its reason
        params = PhysParams(chi=1.0, Omega=1e200, **CANONICAL_RATES)
        sweep = amplitude_sweep(params, np.geomspace(1e5, 1e9, 241), 100.0)
        assert sweep.stable.all() and np.isnan(sweep.e_degree).all()
        assert np.all(sweep.status == spectra.DEGENERATE)

    def test_rounding_dominated_forms_keep_the_stable_verdict(self, monkeypatch):
        # input moments whose terms cancel (`cancelling_noise`) on the default drives
        params = PhysParams(chi=0.0, Omega=1000.0, **CANONICAL_RATES)
        noise = cancelling_noise(params)
        monkeypatch.setattr(spectra, "build_noise", lambda params: noise)
        sweep = amplitude_sweep(params, np.geomspace(1e5, 1e9, 241), params.Omega)
        assert sweep.stable.all() and np.isnan(sweep.e_degree).all()
        assert np.all(sweep.status == spectra.ROUNDING)

    def test_failing_drift_keeps_other_rows(self, monkeypatch):
        # stable stage blocks scaled by 1e160 push the commutator below the
        # smallest normal float; the rest of its block must come out as without it
        params = PhysParams(chi=1.0, Omega=10.0, **CANONICAL_RATES)
        drives = np.geomspace(1e3, 1e5, 20)
        reference = amplitude_sweep(params, drives, params.Omega)
        build = spectra.stage_blocks

        def scaled_at_eighth(params, steady):
            # `steady` is one working point or a block of them
            stages, feed = build(params, steady)
            scale = np.where(steady.zeta1_in == drives[7], 1e160, 1.0)
            return stages * scale[..., None, None, None], feed

        monkeypatch.setattr(spectra, "stage_blocks", scaled_at_eighth)
        sweep = amplitude_sweep(params, drives, params.Omega)
        with pytest.raises(ArithmeticError) as info:
            epr_grid(params, steady_grid(params, np.array([drives[7]]))[0], params.Omega)
        assert sweep.stable[7] and np.isnan(sweep.e_degree[7])
        assert str(info.value).startswith("degenerate commutator spectrum")
        assert sweep.status[7] == spectra.DEGENERATE
        others = np.arange(drives.size) != 7
        for name, column in vars(sweep).items():
            assert np.array_equal(column[others], getattr(reference, name)[others]), name

    def test_extreme_sweep_rows_match_300_digit_reference(self):
        # every stable drive of 1e5-1e300 (up to about 3e153; beyond, the
        # drive power overflows) has an e_degree: 150 rows, of which LAPACK's
        # rows left 76 to fail as rounding; ten spread over 1e70-1e154 match
        # a 300-digit inversion
        mpmath = pytest.importorskip("mpmath")
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        drives = np.geomspace(1e5, 1e300, 301)
        sweep = amplitude_sweep(params, drives, params.Omega)
        assert sweep.stable.sum() == 150
        assert np.all(np.isfinite(sweep.e_degree[sweep.stable]))
        assert np.all(np.isin(sweep.status, (spectra.OK, spectra.UNSTABLE, spectra.OVERFLOW)))
        steady = steady_grid(params, drives, "follow")
        extreme = np.flatnonzero(sweep.stable & (drives >= 1e70))
        assert drives[extreme[-1]] > 1e153
        noise = build_noise(params)
        with mpmath.workdps(300):
            for k in extreme[np.linspace(0, extreme.size - 1, 10).astype(int)]:
                s_q, s_p, comm = epr_reference(build_drift(params, steady[k]), noise,
                                               params.Omega, mpmath)
                want = s_q * s_p / (0.25 * abs(comm) ** 2)
                assert float(abs(sweep.e_degree[k] - want) / want) < 1e-12

    def test_stable_rows_never_ride_the_middle_branch(self):
        params = PhysParams(chi=1.0, Omega=1000.0, **CANONICAL_RATES)
        p_hi = bistable_window(params, params.Delta1)[1]
        jump_drive = np.sqrt(p_hi / params.gamma)
        drives = np.geomspace(0.01 * jump_drive, 50.0 * jump_drive, 120)
        sweep = amplitude_sweep(params, drives, params.Omega)
        stable = sweep.stable
        assert not np.any(sweep.branch1[stable] == BRANCH_MIDDLE)
        assert not np.any(sweep.branch2[stable] == BRANCH_MIDDLE)
        assert np.isfinite(sweep.e_degree[stable]).all()
