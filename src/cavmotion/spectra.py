"""Linearized quantum fluctuations around the cascaded steady state.

Fluctuation operators are stacked as
    v = (a, a+, b, b+, c1, c1+, c2, c2+)
and obey i w v(w) = M v(w) + v_in(w), so v(w) = T(w) v_in(w) with
T(w) = (i w I - M)^(-1).  The cascade makes the second cavity's input the
first one's output: its drive term gamma*c1 sits inside M while the
re-entering vacuum appears as -sqrt(gamma) c1_in in slots 7-8 of v_in,
which is what produces the cross entries of the input correlation matrix.

All frequency-domain second moments are reported delta-stripped: as the
coefficient of delta(w + w'), with same-sign pairings (coefficient of
delta(2w)) dropped for w != 0.
"""

from dataclasses import dataclass

import numpy as np

from .cascade import steady_grid

# row-combination vectors of the collective atomic quadratures q_a + q_b,
# p_a - p_b, q_a and p_a: the rows every EPR form is built from
EPR_ROWS = np.array([[1, 1, 1, 1, 0, 0, 0, 0], [-1j, 1j, 1j, -1j, 0, 0, 0, 0],
                     [1, 1, 0, 0, 0, 0, 0, 0], [-1j, 1j, 0, 0, 0, 0, 0, 0]])

# slots of the first stage (a, a+, c1, c1+), then of the second (b, b+, c2,
# c2+): the order of `stage_blocks`
STAGES = np.array([0, 1, 4, 5, 2, 3, 6, 7])
# each slot's adjoint partner: the slot swap P with P conj(M) P = M
PAIRS = np.array([1, 0, 3, 2, 5, 4, 7, 6])

COMMUTATOR_FLOOR = 1e-30
TINY, EPS = np.finfo(float).tiny, np.finfo(float).eps
# largest componentwise backward error of a row solve that transfer_rows accepts
SOLVE_TOLERANCE = 1e-10
# EPR kernel point status
OK, SINGULAR, DEGENERATE, NONPOSITIVE, ROUNDING = range(5)
# largest estimated relative rounding error of an EPR form at an OK point:
# (the rows' componentwise backward error + eps) times the summed magnitude
# of the form's terms over its value.  It stays below 1e-13 (2.5e-14 at most)
# on the benchmark's sweeps (chi 0.3-3) and spectra and at the decade drives
# 1e5-1e54 (chi = 1, lowest branch); at the drives 1e100 and 1e151, whose rows
# have a backward error of order 1 and whose forms are off by factors against a
# 300-digit inversion, it is 0.27 or more at five frequencies 1e2-1e4 (0.016
# or more over 2001)
FORM_TOLERANCE = 1e-6

# points per batched solve: a block's rows, (points, 4, 8), grow with it;
# 128 keeps the benchmark's peak memory within 1.2% of the 8x8 inverses at
# 64 points, and 256 would add 4% on the cascaded sweep
GRID_BLOCK = 128


class SingularTransferError(ArithmeticError):
    """(i w I - M) could not be inverted to working precision."""


@dataclass
class SpectrumPoint:
    """Collective EPR variances and entanglement degree, as arrays over a grid."""

    omega: np.ndarray
    s_qplus: np.ndarray
    s_pminus: np.ndarray
    commutator: np.ndarray
    e_degree: np.ndarray

    @property
    def variance_product(self):
        """s_qplus * s_pminus: the degree under a fixed equal-time
        commutator normalization |<[q, p]>|^2/4 = 1 (diagnostic)."""
        return self.s_qplus * self.s_pminus


@dataclass
class SweepPoint:
    """An amplitude sweep as arrays over its drives; error: None or why a drive has no e_degree."""

    drive: np.ndarray
    branch1: np.ndarray
    branch2: np.ndarray
    intensity1: np.ndarray
    intensity2: np.ndarray
    stable: np.ndarray
    e_degree: np.ndarray
    jumped: np.ndarray
    error: np.ndarray


def stage_blocks(params, steady):
    """(stages, feed): the linearized fluctuations around the working point
    `steady` (one, or a grid, for (..., 2, 4, 4) stages in one broadcast).

    In the slots regrouped by stage (STAGES) the drift M of v is the one-way
    cascade [[A, 0], [C, D]], stages[..., j, :, :] being A and D: in the slots
    (atom, atom+, cavity, cavity+), a bare damped atom, coupling rows with
    i chi zeta_j and the pulled detuning (`_detunings`).  feed (4x4) is C,
    the constant gamma feed.  P conj(M) P = M for the slot swap P (PAIRS).
    """
    chi, g = params.chi, params.gamma
    z = np.stack((steady.zeta1, steady.zeta2), axis=-1)
    detuning = _detunings(params, steady)
    pole = params.Gamma / 2.0 + 1j * params.Omega

    stages = np.zeros(z.shape + (4, 4), dtype=complex)
    stages[..., 0, 0], stages[..., 1, 1] = -pole, -pole.conjugate()
    stages[..., 0, 2], stages[..., 0, 3] = -1j * chi * z.conjugate(), -1j * chi * z
    stages[..., 1, 2], stages[..., 1, 3] = 1j * chi * z.conjugate(), 1j * chi * z
    stages[..., 2, 0] = stages[..., 2, 1] = -1j * chi * z
    stages[..., 3, 0] = stages[..., 3, 1] = 1j * chi * z.conjugate()
    stages[..., 2, 2], stages[..., 3, 3] = -g / 2.0 - 1j * detuning, -g / 2.0 + 1j * detuning
    return stages, np.diag([0.0, 0.0, g, g]).astype(complex)


def _detunings(params, steady):
    """(..., 2): the cavities' intensity-pulled detunings Delta_j + chi (alpha_j + alpha_j*)."""
    atoms = np.stack((steady.alpha, steady.beta), axis=-1)
    return np.array([params.Delta1, params.Delta2]) + params.chi * 2.0 * atoms.real


def build_noise(params):
    """Delta-stripped input second moments d (8x8, real) for vacuum inputs;
    for any input state the commutator matrix is d - d^T.

    Nonzero entries (1-based): d12 = d34 = Gamma, d56 = d78 = gamma, and the
    shared-vacuum cascade cross terms d58 = d76 = -gamma.
    """
    d = np.zeros((8, 8))
    d[0, 1] = d[2, 3] = params.Gamma
    d[4, 5] = d[6, 7] = params.gamma
    d[4, 7] = d[6, 5] = -params.gamma
    return d


def _times(rows, matrix):
    """rows @ matrix, as one product when `matrix` is a single matrix."""
    if np.ndim(matrix) > 2:
        return rows @ matrix
    flat = np.reshape(rows, (-1, rows.shape[-1])) @ matrix
    return flat.reshape(rows.shape[:-1] + matrix.shape[-1:])


def _solve_rows(block, shift, rows):
    """(y, singular, backward) with y (shift - block) = rows for 4x4 blocks;
    backward is the componentwise backward error: the largest entry of
    |shift y - y block - rows| relative to the summed magnitude of its
    terms, |shift| |y| + |y| |block| + |rows|."""
    lhs_t = shift * np.eye(4) - np.swapaxes(block, -1, -2)
    # a full stack: numpy < 2 reads b one dimension short of a as vectors
    rows_t = np.broadcast_to(np.swapaxes(rows, -1, -2), lhs_t.shape[:-2] + (4, rows.shape[-2]))
    singular = np.zeros(lhs_t.shape[:-2], dtype=bool)
    try:
        y_t = np.linalg.solve(lhs_t, rows_t)
    except np.linalg.LinAlgError:
        # a stacked solve fails as a whole; det is 0 where LU meets a 0 pivot
        singular = np.linalg.det(lhs_t) == 0
        y_t = np.linalg.solve(np.where(singular[..., None, None], np.eye(4), lhs_t), rows_t)
        y_t = np.where(singular[..., None, None], np.nan, y_t)
    y = np.swapaxes(y_t, -1, -2)
    residual = np.abs(shift * y - _times(y, block) - rows)
    size = np.abs(y)
    terms = np.abs(shift) * size + _times(size, np.abs(block)) + np.abs(rows)
    # a zero sum of magnitudes has a zero residual
    backward = residual / np.maximum(terms, TINY)
    flat = residual.shape[:-2] + (residual.shape[-2] * residual.shape[-1],)
    return y, singular, backward.reshape(flat).max(axis=-1)


def _row_solve(blocks, omega, rows):
    """(y, singular, backward, error) of `transfer_rows` at every point, from
    the `stage_blocks` (stages, feed): has a stage gone singular there, the
    larger componentwise backward error of the two stage solves (see
    `_solve_rows`; nan where the rows are), and error(idx), the error of
    point idx."""
    stages, feed = blocks
    shift = 1j * np.asarray(omega, dtype=float)[..., None, None]
    y2, singular2, backward2 = _solve_rows(stages[..., 1, :, :], shift, rows[..., STAGES[4:]])
    y1, singular1, backward1 = _solve_rows(stages[..., 0, :, :], shift,
                                           rows[..., STAGES[:4]] + _times(y2, feed))
    singular, backward = singular1 | singular2, np.maximum(backward1, backward2)

    def error(idx):
        at = f"omega={np.broadcast_to(omega, singular.shape)[idx]}"
        return SingularTransferError(
            f"transfer matrix singular at {at}" if singular[idx]
            else f"transfer solve at {at} lost precision (backward error {backward[idx]:.3e})")

    y = np.concatenate((y1, y2), axis=-1)[..., np.argsort(STAGES)]
    return y, singular, backward, error


def transfer_rows(params, steady, omega, rows):
    """Rows y = u (i w I - M)^(-1) for every row u of `rows` (k, 8), at every
    point of the broadcast of the working points `steady` (one, or a grid)
    and `omega`: (..., k, 8).

    In the slots regrouped by stage the drift is [[A, 0], [C, D]] (see
    `stage_blocks`), so y2 = u2 (i w - D)^(-1), then
    y1 = (u1 + y2 C)(i w - A)^(-1): two batched 4x4 row solves.  Raises
    SingularTransferError naming the first failing w in grid order when a
    block is singular there or a solve's componentwise backward error
    exceeds SOLVE_TOLERANCE.
    """
    y, singular, backward, error = _row_solve(stage_blocks(params, steady), omega, rows)
    failed = singular | ~(backward <= SOLVE_TOLERANCE)  # a nan backward error fails too
    if failed.any():
        raise error(np.unravel_index(np.argmax(failed), failed.shape))
    return y


def correlation_matrix(params, steady, omega):
    """Delta-stripped second moments C(w) = T(w) d T(-w)^T of the fluctuations,
    for the input moments d of `build_noise`, at every point of the broadcast
    of the working points `steady` and `omega`, with T(w) = (i w I - M)^(-1)
    the `transfer_rows` of the unit rows.  P conj(M) P = M gives
    T(-w)^T = P T(w)^H P for the slot swap P (PAIRS), so C = (T d P T^H) P."""
    t, d = transfer_rows(params, steady, omega, np.eye(8)), build_noise(params)
    return (t @ d[:, PAIRS] @ np.swapaxes(t.conj(), -1, -2))[..., PAIRS]


def _epr_kernel(blocks, d, omega):
    """(SpectrumPoint of arrays, status, failure) at every point of the
    broadcast of the `stage_blocks` (stages, feed) and `omega`, for input
    moments d, from the rows y = u T(w) of EPR_ROWS at +w alone.

    Each form is (1/4) u_l [C(w) + C(-w)] u_r^T, C(w) = T(w) mat T(-w)^T: that
    of the hermitian [O(w) + O(-w)]/2 (same-frequency pairings carry delta(2w)
    and are dropped), with mat = d, l = r for the variances of q_a + q_b and
    p_a - p_b and mat = d - d^T for <[q_a(w), p_a(w)]>.  As T(-w)^T = P T(w)^H P
    and u P = conj(u) (P the slot swap PAIRS), a variance is y A y^H with
    A = (d + d^T) P / 4 and the commutator y_q B y_p^H - y_p B y_q^H with
    B = (d - d^T) P / 4.  status is OK or the failure a point-by-point
    evaluation meets first: SINGULAR (T(w) singular or its rows not finite),
    DEGENERATE (commutator below COMMUTATOR_FLOOR), NONPOSITIVE (a variance
    not positive), ROUNDING (a form's estimated relative rounding error above
    FORM_TOLERANCE: the rows' componentwise backward error, plus eps, times
    the summed magnitude of the form's terms over its value); there e_degree
    is nan and failure(i) is the error of flat point i."""
    shape = np.broadcast_shapes(blocks[0].shape[:-3], np.shape(omega))
    omega = np.broadcast_to(np.asarray(omega, dtype=float), shape)
    y, singular, backward, error = _row_solve(blocks, omega, EPR_ROWS)
    failed = singular | ~np.isfinite(backward)
    with np.errstate(all="ignore"):  # the rows of a failed point may be nan or huge
        # the terms of each form: (y A)_k conj(y_k), and (y B)_k conj(y'_k)
        # for the commutator's pairs (q_a, p_a) and (p_a, q_a)
        with_d = _times(y[..., :2, :], 0.25 * (d + d.T)[:, PAIRS]) * y[..., :2, :].conj()
        with_k = _times(y[..., 2:, :], 0.25 * (d - d.T)[:, PAIRS]) * y[..., [3, 2], :].conj()
        s_q, s_p = np.moveaxis(with_d.sum(axis=-1).real, -1, 0)
        comm = with_k[..., 0, :].sum(axis=-1) - with_k[..., 1, :].sum(axis=-1)
        e_degree = s_q * s_p / (0.25 * np.square(np.abs(comm)))
        # each form's terms summed in magnitude, over its value
        size_d, size_k = np.abs(with_d).sum(axis=-1), np.abs(with_k).sum(axis=(-2, -1))
        spread = np.maximum(np.maximum(size_d[..., 0] / s_q, size_d[..., 1] / s_p),
                            size_k / np.abs(comm))
        rounding = (backward + EPS) * spread
    status = np.where(failed, SINGULAR, np.where(
        np.abs(comm) >= COMMUTATOR_FLOOR, np.where(np.minimum(s_q, s_p) > 0.0, np.where(
            rounding <= FORM_TOLERANCE, OK, ROUNDING), NONPOSITIVE),
        DEGENERATE))  # a nan commutator, variance or estimate fails too

    def failure(flat):
        idx = np.unravel_index(flat, shape)
        if status[idx] == DEGENERATE:
            return ArithmeticError(
                f"degenerate commutator spectrum |{comm[idx]}| at omega={omega[idx]}")
        if status[idx] == NONPOSITIVE:
            return ArithmeticError(f"non-positive EPR variance (s_qplus {s_q[idx]}, "
                                   f"s_pminus {s_p[idx]}) at omega={omega[idx]}")
        if status[idx] == ROUNDING:
            return ArithmeticError(f"EPR forms dominated by rounding (estimated relative "
                                   f"error {rounding[idx]:.3e}) at omega={omega[idx]}")
        return error(idx)

    e_degree = np.where(status == OK, e_degree, np.nan)
    return SpectrumPoint(omega, s_q, s_p, comm, e_degree), status, failure


def epr_grid(params, steady, omega):
    """Collective EPR variances, commutator spectrum and degree on a grid.

    Evaluates every point of the broadcast of the working points `steady`
    (one, or a grid) and `omega`, for the input moments of `build_noise`,
    from four rows of `transfer_rows` (`_epr_kernel`).
    s_qplus and s_pminus are the symmetrized variances of q_a + q_b and
    p_a - p_b; the commutator is the spectral <[q_a(w), p_a(w)]> built from
    the state-independent input commutators; the degree is their ratio
    e = s_qplus s_pminus / (|commutator|^2 / 4), flagged as EPR-correlated
    when it drops below one.

    Raises what a point-by-point evaluation raises first: at the first
    failing point in grid order, a failing T(w) before a commutator below
    COMMUTATOR_FLOOR, then a variance that is not positive, then forms
    dominated by rounding (FORM_TOLERANCE).
    """
    grid, status, failure = _epr_kernel(stage_blocks(params, steady), build_noise(params), omega)
    if status.any():
        raise failure(np.argmax(status != OK))
    return grid


def stability_grid(params, steady):
    """Are the linearized fluctuations around the working point `steady` (one,
    or a grid) damped?  False where the working point is not finite.

    The one-way drift's spectrum is that of its stages (`stage_blocks`),
    each a real map on an atom's (q, p) and its cavity's quadratures (X, Y)
    with the characteristic polynomial
        p(s) = (s^2 + Gamma s + wm^2)(s^2 + gamma s + wc^2) - K,
    wm^2 = Gamma^2/4 + Omega^2, wc^2 = gamma^2/4 + d^2 with d the pulled
    detuning (`_detunings`), and K = 4 chi^2 |zeta|^2 Omega d from the one
    coupling cycle q -> Y -> X -> p -> q.  gamma > 0 makes its s^3, s^2 and
    s coefficients positive, so (Lienard-Chipart) its roots all lie in the
    left half plane iff a0 = wm^2 wc^2 - K > 0 and the Hurwitz determinant
        D3 = a3 a2 a1 - a1^2 - a3^2 a0 = Gamma gamma [(wm^2 - wc^2)^2
             + (Gamma + gamma)(Gamma wc^2 + gamma wm^2)] + (Gamma + gamma)^2 K > 0.
    """
    a0, d3 = _hurwitz_terms(params, steady)
    return np.all((a0 > 0.0) & (d3 > 0.0), axis=-1)


def _hurwitz_terms(params, steady):
    """(a0, D3) of `stability_grid`, (..., 2) over the stages; a working point
    that is not finite gives a nan or a term of the wrong sign."""
    big, g, chi = params.Gamma, params.gamma, params.chi
    wm2, damping = big * big / 4.0 + params.Omega**2, big + g
    zeta = np.stack((steady.zeta1, steady.zeta2), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed drive's terms
        d = _detunings(params, steady)
        wc2 = g * g / 4.0 + d * d
        k = 4.0 * chi * chi * np.abs(zeta) ** 2 * params.Omega * d
        return wm2 * wc2 - k, (big * g * ((wm2 - wc2) ** 2 + damping * (big * wc2 + g * wm2))
                               + damping**2 * k)


def amplitude_sweep(params, drive_grid, omega_eval):
    """E(omega_eval) along an ascending drive sweep with branch continuation,
    as one SweepPoint of arrays over the drives.

    One `steady_grid` call continues each cavity's intensity adiabatically
    from drive to drive (a vanishing branch is a recorded jump), and one
    `stability_grid` call decides every drive; then drives go in blocks of
    GRID_BLOCK: one `stage_blocks` call for its stable drives and one EPR
    kernel call.  Unstable, overflowing (nan intensity) or numerically
    degenerate drives come back with e_degree = nan and the reason in their
    error.
    """
    drive_grid = np.asarray(drive_grid, dtype=float)
    if drive_grid.size and np.any(np.diff(drive_grid) < 0):
        raise ValueError("drive_grid must be sorted ascending")
    d = build_noise(params)
    steady = steady_grid(params, drive_grid, selection="follow")
    stable = stability_grid(params, steady)
    overflow = np.isnan(steady.intensity1 + steady.intensity2)  # no working point
    error = np.where(stable, None, np.where(overflow, "overflow", "unstable working point"))
    e_degree = np.full(drive_grid.size, np.nan)
    for start in range(0, drive_grid.size, GRID_BLOCK):
        solved = start + np.flatnonzero(stable[start:start + GRID_BLOCK])
        if solved.size:
            grid, status, failure = _epr_kernel(stage_blocks(params, steady[solved]), d,
                                                omega_eval)
            e_degree[solved] = grid.e_degree
            for i in np.flatnonzero(status):
                error[solved[i]] = str(failure(i))
    return SweepPoint(drive_grid, steady.branch1, steady.branch2, steady.intensity1,
                      steady.intensity2, stable, e_degree, steady.jumped1 | steady.jumped2, error)
