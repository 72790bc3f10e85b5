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
# c2+): so regrouped, a one-way cascade drift is block lower-triangular
STAGES = np.array([0, 1, 4, 5, 2, 3, 6, 7])

COMMUTATOR_FLOOR = 1e-30
TINY, EPS = np.finfo(float).tiny, np.finfo(float).eps
# largest componentwise backward error of a row solve that transfer_rows accepts
SOLVE_TOLERANCE = 1e-10
# EPR kernel point status
OK, PLUS_FAILED, MINUS_FAILED, DEGENERATE, NONPOSITIVE, ROUNDING = range(6)
# largest estimated relative rounding error of an EPR form at an OK point:
# (the rows' componentwise backward error + eps) times the summed magnitude
# of the form's terms over its value.  The estimate stays below 1e-13 over
# the benchmark's sweeps (chi 0.3-3) and spectra and at drives up to 1e72
# (chi = 1); it is 0.1 or more at every frequency of the drives 1e73-1e76,
# 1e79, 1e80, 1e100 and 1e151, whose rows have a backward error of order 1
# and whose forms are off by factors against a 300-digit inversion
FORM_TOLERANCE = 1e-6

# points per batched solve: a block's rows at +w and -w, (2, points, 4, 8),
# grow with it; 128 keeps the benchmark's peak memory within 1.2% of the 8x8
# inverses at 64 points, and 256 would add 4% on the cascaded sweep
GRID_BLOCK = 128

# largest mismatch, relative to the largest drift entry, between an adjoint
# row of a drift and the conjugate of its operator row
QUADRATURE_TOLERANCE = 1e-12


class SingularTransferError(ArithmeticError):
    """(i w I - M) could not be inverted to working precision."""


@dataclass
class NoiseModel:
    """Delta-stripped input second moments d and commutators k = d - d^T."""

    d: np.ndarray
    k: np.ndarray


@dataclass
class SpectrumPoint:
    """Collective EPR variances and entanglement degree: numbers at one
    frequency, or arrays over a grid of points."""

    omega: float
    s_qplus: float
    s_pminus: float
    commutator: complex
    e_degree: float

    @property
    def variance_product(self):
        """s_qplus * s_pminus: the degree under a fixed equal-time
        commutator normalization |<[q, p]>|^2/4 = 1 (diagnostic)."""
        return self.s_qplus * self.s_pminus


@dataclass
class SweepPoint:
    """An amplitude sweep: numbers at one drive, or arrays over a grid of
    drives; error is None or why the drive has no e_degree."""

    drive: float
    branch1: str
    branch2: str
    intensity1: float
    intensity2: float
    stable: bool
    e_degree: float
    jumped: bool = False
    error: str | None = None


def build_drift(params, steady):
    """8x8 drift generator of the fluctuations around the steady state.

    `steady` is a SteadyBranch at one drive, or over a grid (or a block of
    one) for a stack (n, 8, 8) of drifts built in one broadcast.  Atom blocks are bare
    damped oscillators; atom-field coupling rows carry i chi zeta_j; cavity
    rows carry the intensity-shifted detunings Delta_j + chi (alpha +
    alpha*) and the one-way cascade feed gamma.
    """
    chi, g = params.chi, params.gamma
    z1, z2 = np.asarray(steady.zeta1), np.asarray(steady.zeta2)
    pole = params.Gamma / 2.0 + 1j * params.Omega
    d1 = params.Delta1 + chi * 2.0 * np.real(steady.alpha)
    d2 = params.Delta2 + chi * 2.0 * np.real(steady.beta)

    m = np.zeros(z1.shape + (8, 8), dtype=complex)
    m[..., 0, 0] = m[..., 2, 2] = -pole
    m[..., 1, 1] = m[..., 3, 3] = -pole.conjugate()

    m[..., 0, 4], m[..., 0, 5] = -1j * chi * z1.conjugate(), -1j * chi * z1
    m[..., 1, 4], m[..., 1, 5] = 1j * chi * z1.conjugate(), 1j * chi * z1
    m[..., 2, 6], m[..., 2, 7] = -1j * chi * z2.conjugate(), -1j * chi * z2
    m[..., 3, 6], m[..., 3, 7] = 1j * chi * z2.conjugate(), 1j * chi * z2

    m[..., 4, 0] = m[..., 4, 1] = -1j * chi * z1
    m[..., 5, 0] = m[..., 5, 1] = 1j * chi * z1.conjugate()
    m[..., 6, 2] = m[..., 6, 3] = -1j * chi * z2
    m[..., 7, 2] = m[..., 7, 3] = 1j * chi * z2.conjugate()

    m[..., 4, 4], m[..., 5, 5] = -g / 2.0 - 1j * d1, -g / 2.0 + 1j * d1
    m[..., 6, 6], m[..., 7, 7] = -g / 2.0 - 1j * d2, -g / 2.0 + 1j * d2
    m[..., 6, 4] = m[..., 7, 5] = g
    return m


def build_noise(params):
    """Input correlation matrix d and commutator matrix k for vacuum inputs.

    Nonzero entries (1-based): d12 = d34 = Gamma, d56 = d78 = gamma, and the
    shared-vacuum cascade cross terms d58 = d76 = -gamma.
    """
    d = np.zeros((8, 8))
    d[0, 1] = d[2, 3] = params.Gamma
    d[4, 5] = d[6, 7] = params.gamma
    d[4, 7] = d[6, 5] = -params.gamma
    return NoiseModel(d=d, k=d - d.T)


def cascade_blocks(drifts):
    """(A, C, D) of drifts (..., 8, 8) regrouped by STAGES into [[A, 0], [C, D]]:
    the 4x4 blocks of each cavity with its atom, A and D, and the gamma feed
    C.  Raises ValueError for a coupling from the second cavity back."""
    m = np.asarray(drifts)[..., STAGES[:, None], STAGES]
    if np.any(np.abs(m[..., :4, 4:]) > 0.0):
        raise ValueError("drift couples the second cavity back into the first: "
                         "not a one-way cascade")
    return m[..., :4, :4], m[..., 4:, :4], m[..., 4:, 4:]


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


def _row_solve(drift, omega, rows):
    """(y, singular, backward, error) of `transfer_rows` at every point,
    unchecked: has a block gone singular there, the larger componentwise
    backward error of the two stage solves (see `_solve_rows`; nan where the
    rows are), and error(idx), the SingularTransferError of point idx."""
    a, c, d = cascade_blocks(drift)
    shift = 1j * np.asarray(omega, dtype=float)[..., None, None]
    y2, singular2, backward2 = _solve_rows(d, shift, rows[..., STAGES[4:]])
    y1, singular1, backward1 = _solve_rows(a, shift, rows[..., STAGES[:4]] + _times(y2, c))
    singular, backward = singular1 | singular2, np.maximum(backward1, backward2)

    def error(idx):
        at = f"omega={np.broadcast_to(omega, singular.shape)[idx]}"
        return SingularTransferError(
            f"transfer matrix singular at {at}" if singular[idx]
            else f"transfer solve at {at} lost precision (backward error {backward[idx]:.3e})")

    y = np.concatenate((y1, y2), axis=-1)[..., np.argsort(STAGES)]
    return y, singular, backward, error


def transfer_rows(drift, omega, rows):
    """Rows y = u (i w I - M)^(-1) for every row u of `rows` (k, 8), at every
    point of the broadcast of `drift` (8x8 or a stack) and `omega`: (..., k, 8).

    In the slots regrouped by stage the drift is [[A, 0], [C, D]] (see
    `cascade_blocks`), so y2 = u2 (i w - D)^(-1), then
    y1 = (u1 + y2 C)(i w - A)^(-1): two batched 4x4 row solves.  Raises
    SingularTransferError naming the first failing w in grid order when a
    block is singular there or a solve's componentwise backward error
    exceeds SOLVE_TOLERANCE.
    """
    y, singular, backward, error = _row_solve(drift, omega, rows)
    failed = singular | ~(backward <= SOLVE_TOLERANCE)  # a nan backward error fails too
    if failed.any():
        raise error(np.unravel_index(np.argmax(failed), failed.shape))
    return y


def transfer(drift, omega):
    """T(w) = (i w I - M)^(-1) on a grid: `transfer_rows` of the unit rows."""
    return transfer_rows(drift, omega, np.eye(8))


def correlation_matrix(drift, noise, omega):
    """Delta-stripped second moments C(w) = T(w) d T(-w)^T of the fluctuations
    at every point of the broadcast of `drift` and `omega`."""
    t_minus = transfer(drift, -np.asarray(omega, dtype=float))
    return transfer(drift, omega) @ noise.d @ np.swapaxes(t_minus, -1, -2)


def _epr_kernel(drift, noise, omega):
    """(SpectrumPoint of arrays, status, failure) at every point of the
    broadcast of `drift` and `omega`, from the rows y = u T of EPR_ROWS at
    +w and -w.

    Each form is (1/4)[y_l(w) mat y_r(-w)^T + y_l(-w) mat y_r(w)^T], that of
    the hermitian [O(w) + O(-w)]/2 (same-frequency pairings carry delta(2w)
    and are dropped): mat = d, l = r for the variances of q_a + q_b and
    p_a - p_b; mat = k for <[q_a(w), p_a(w)]>.  status is OK or the failure
    a point-by-point evaluation meets first: PLUS_FAILED (T(+w) singular or
    its rows not finite), MINUS_FAILED (the same at -w), DEGENERATE
    (commutator below COMMUTATOR_FLOOR), NONPOSITIVE (a
    variance not positive, which rounding alone can make of the forms at
    extreme drives), ROUNDING (a form's estimated relative rounding error
    above FORM_TOLERANCE: the rows' componentwise backward error, plus eps,
    times the summed magnitude of the form's terms over its value); there
    e_degree is nan and failure(i) is the error of flat point i."""
    shape = np.broadcast_shapes(np.shape(drift)[:-2], np.shape(omega))
    omega = np.broadcast_to(np.asarray(omega, dtype=float), shape)
    y, singular, backward, error = _row_solve(drift, np.stack((omega, -omega)), EPR_ROWS)
    failed = singular | ~np.isfinite(backward)
    with np.errstate(all="ignore"):  # the rows of a failed point may be nan or huge
        flipped = y[..., :2, :][::-1]  # each sign's rows against the other sign's
        with_d = _times(y[..., :2, :], noise.d) * flipped
        with_k = _times(y[..., 2, :], noise.k) * y[::-1, ..., 3, :]
        variances = 0.25 * (with_d[0] + with_d[1]).sum(axis=-1).real
        s_q, s_p = variances[..., 0], variances[..., 1]
        comm = 0.25 * (with_k[0] + with_k[1]).sum(axis=-1)
        e_degree = s_q * s_p / (0.25 * np.square(np.abs(comm)))
        # each form's terms summed in magnitude, over its value
        size_d, size_k = np.abs(with_d), np.abs(with_k)
        size_d = 0.25 * (size_d[0] + size_d[1]).sum(axis=-1)
        size_k = 0.25 * (size_k[0] + size_k[1]).sum(axis=-1)
        spread = np.maximum(np.maximum(size_d[..., 0] / s_q, size_d[..., 1] / s_p),
                            size_k / np.abs(comm))
        rounding = (np.maximum(backward[0], backward[1]) + EPS) * spread
    status = np.where(failed[0], PLUS_FAILED, np.where(failed[1], MINUS_FAILED, np.where(
        np.abs(comm) >= COMMUTATOR_FLOOR, np.where(np.minimum(s_q, s_p) > 0.0, np.where(
            rounding <= FORM_TOLERANCE, OK, ROUNDING), NONPOSITIVE),
        DEGENERATE)))  # a nan commutator, variance or estimate fails too

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
        return error((status[idx] - PLUS_FAILED, *idx))

    e_degree = np.where(status == OK, e_degree, np.nan)
    return SpectrumPoint(omega, s_q, s_p, comm, e_degree), status, failure


def epr_grid(drift, noise, omega):
    """Collective EPR variances, commutator spectrum and degree on a grid.

    Evaluates every point of the broadcast of `drift` (8x8 or a stack) and
    `omega` from four rows of `transfer_rows` at +w and -w (`_epr_kernel`).
    s_qplus and s_pminus are the symmetrized variances of q_a + q_b and
    p_a - p_b; the commutator is the spectral <[q_a(w), p_a(w)]> built from
    the state-independent input commutators; the degree is their ratio
    e = s_qplus s_pminus / (|commutator|^2 / 4), flagged as EPR-correlated
    when it drops below one.

    Raises what a point-by-point evaluation raises first: at the first
    failing point in grid order, a failing T(w) before a failing T(-w),
    both before a commutator below COMMUTATOR_FLOOR, then a variance that
    is not positive, then forms dominated by rounding (FORM_TOLERANCE).
    """
    grid, status, failure = _epr_kernel(drift, noise, omega)
    if status.any():
        raise failure(np.argmax(status != OK))
    return grid


def epr_spectra(drift, noise, omega):
    """EPR variances, commutator spectrum and degree at one frequency
    (the one-point view of `epr_grid`)."""
    grid = epr_grid(drift, noise, float(omega))
    return SpectrumPoint(float(grid.omega), float(grid.s_qplus), float(grid.s_pminus),
                         complex(grid.commutator), float(grid.e_degree))


def stability_stack(drifts):
    """Per drift of a stack (..., 8, 8): (all eigenvalues strictly damped?,
    the eight eigenvalues), from one batched real eigenvalue call.

    The one-way drift is block lower-triangular (`cascade_blocks`), so its
    spectrum is that of A, then that of D.  Each block is the complex form
    of a real map; in the quadratures (q, p) of each mode, v = S r with
    S = [[1, i], [1, -i]]/sqrt(2) per mode, its 2x2 entry [[x, y], [y*, x*]]
    becomes [[Re x + Re y, Im y - Im x], [Im x + Im y, Re x - Re y]].
    Raises ValueError for a drift not of this form: not a one-way cascade,
    or a block whose quadrature form is not real to rounding.
    """
    a, _, d = cascade_blocks(drifts)
    # (stage, mode, w, mode, w): mode 0 atom / 1 field, w 0 operator / 1 adjoint
    blocks = np.stack((a, d), axis=-3).reshape(a.shape[:-2] + (2, 2, 2, 2, 2))
    x, y = blocks[..., 0, :, 0], blocks[..., 0, :, 1]
    defect = np.maximum(np.abs(blocks[..., 1, :, 1] - x.conj()),
                        np.abs(blocks[..., 1, :, 0] - y.conj()))
    scale = np.abs(drifts).max(axis=(-2, -1))
    if np.any(defect.max(axis=(-3, -2, -1)) > QUADRATURE_TOLERANCE * scale):
        raise ValueError("drift block has no real quadrature form: "
                         "adjoint rows are not the conjugates of operator rows")
    real = np.empty(x.shape[:-2] + (2, 2, 2, 2))  # (stage, mode, q/p, mode, q/p)
    real[..., :, 0, :, 0] = x.real + y.real
    real[..., :, 0, :, 1] = y.imag - x.imag
    real[..., :, 1, :, 0] = x.imag + y.imag
    real[..., :, 1, :, 1] = x.real - y.real
    eigs = np.linalg.eigvals(real.reshape(real.shape[:-4] + (4, 4)))
    eigs = eigs.reshape(eigs.shape[:-2] + (8,)).astype(complex)
    return np.all(eigs.real < 0.0, axis=-1), eigs


def classify_stability(drift):
    """(all eigenvalues strictly damped?, the eigenvalues themselves)."""
    stable, eigs = stability_stack(drift)
    return bool(stable), eigs


def amplitude_sweep(params, drive_grid, omega_eval):
    """E(omega_eval) along an ascending drive sweep with branch continuation,
    as one SweepPoint of arrays over the drives.

    One `steady_grid` call continues each cavity's intensity adiabatically
    from drive to drive (a vanishing branch is a recorded jump); then drives
    go in blocks of GRID_BLOCK: one stack of drifts, one batched eigenvalue
    call, one `epr_grid` over its stable ones.  Unstable, overflowing or
    numerically degenerate drives come back with e_degree = nan and the
    reason in their error.
    """
    drive_grid = np.asarray(drive_grid, dtype=float)
    if drive_grid.size and np.any(np.diff(drive_grid) < 0):
        raise ValueError("drive_grid must be sorted ascending")
    noise = build_noise(params)
    steady = steady_grid(params, drive_grid, selection="follow")
    stable = np.zeros(drive_grid.size, dtype=bool)
    e_degree = np.full(drive_grid.size, np.nan)
    error = np.full(drive_grid.size, None, dtype=object)
    for start in range(0, drive_grid.size, GRID_BLOCK):
        block = slice(start, start + GRID_BLOCK)
        drifts = build_drift(params, steady[block])
        # eigvals refuses the nan drift of a drive whose power overflowed
        finite = np.all(np.isfinite(drifts), axis=(-2, -1))
        stable[block][finite] = stability_stack(drifts[finite])[0]
        error[block] = np.where(stable[block], None,
                                np.where(finite, "unstable working point", "overflow"))
        solved = np.flatnonzero(stable[block])
        if solved.size:
            grid, status, failure = _epr_kernel(drifts[solved], noise, omega_eval)
            e_degree[start + solved] = grid.e_degree
            for i in np.flatnonzero(status):
                error[start + solved[i]] = str(failure(i))
    return SweepPoint(drive_grid, steady.branch1, steady.branch2, steady.intensity1,
                      steady.intensity2, stable, e_degree, steady.jumped1 | steady.jumped2, error)
