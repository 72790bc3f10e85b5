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

# row-combination vectors for the collective atomic quadratures
U_QA = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=complex)
U_PA = np.array([-1j, 1j, 0, 0, 0, 0, 0, 0], dtype=complex)
U_QB = np.array([0, 0, 1, 1, 0, 0, 0, 0], dtype=complex)
U_PB = np.array([0, 0, -1j, 1j, 0, 0, 0, 0], dtype=complex)
U_Q_PLUS = U_QA + U_QB
U_P_MINUS = U_PA - U_PB

COMMUTATOR_FLOOR = 1e-30

# points per batched solve: a block's (points, 8, 8) complex temporaries
# grow with it, and a whole 2001-point grid at once raised peak memory by
# 13 MiB; 64 points keep it at that of a point-by-point loop
GRID_BLOCK = 64

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
    """Collective EPR variances and entanglement degree at one frequency."""

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
class SpectrumGrid:
    """The fields of SpectrumPoint as arrays over a grid of points."""

    omega: np.ndarray
    s_qplus: np.ndarray
    s_pminus: np.ndarray
    commutator: np.ndarray
    e_degree: np.ndarray

    @property
    def variance_product(self):
        return self.s_qplus * self.s_pminus


@dataclass
class SweepPoint:
    """One drive point of an amplitude sweep."""

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

    `steady` is a SteadyBranch, or a SteadyGrid (or a block of one) for a
    stack (n, 8, 8) of drifts built in one broadcast.  Atom blocks are bare
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
    m[..., 0, 0] = -pole
    m[..., 1, 1] = -pole.conjugate()
    m[..., 2, 2] = -pole
    m[..., 3, 3] = -pole.conjugate()

    m[..., 0, 4], m[..., 0, 5] = -1j * chi * z1.conjugate(), -1j * chi * z1
    m[..., 1, 4], m[..., 1, 5] = 1j * chi * z1.conjugate(), 1j * chi * z1
    m[..., 2, 6], m[..., 2, 7] = -1j * chi * z2.conjugate(), -1j * chi * z2
    m[..., 3, 6], m[..., 3, 7] = 1j * chi * z2.conjugate(), 1j * chi * z2

    m[..., 4, 0] = m[..., 4, 1] = -1j * chi * z1
    m[..., 5, 0] = m[..., 5, 1] = 1j * chi * z1.conjugate()
    m[..., 6, 2] = m[..., 6, 3] = -1j * chi * z2
    m[..., 7, 2] = m[..., 7, 3] = 1j * chi * z2.conjugate()

    m[..., 4, 4] = -g / 2.0 - 1j * d1
    m[..., 5, 5] = -g / 2.0 + 1j * d1
    m[..., 6, 6] = -g / 2.0 - 1j * d2
    m[..., 7, 7] = -g / 2.0 + 1j * d2
    m[..., 6, 4] = g
    m[..., 7, 5] = g
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


def transfer(drift, omega):
    """T(w) = (i w I - M)^(-1) on a grid, with the inversion residual enforced.

    `drift` is one 8x8 matrix or a stack (..., 8, 8) and `omega` a number or
    an array; the two broadcast point by point and one batched inversion
    serves every point.  Raises SingularTransferError naming the first
    failing w in grid order when its matrix is singular or its identity
    defect exceeds 1e-10 relative to row norms (this can only happen at an
    instability threshold).
    """
    omega = np.asarray(omega, dtype=float)
    lhs = 1j * omega[..., None, None] * np.eye(8) - drift
    omega = np.broadcast_to(omega, lhs.shape[:-2])
    singular = np.zeros(omega.shape, dtype=bool)
    try:
        t = np.linalg.inv(lhs)
    except np.linalg.LinAlgError:
        # a stacked inversion fails as a whole: find the singular points
        t = np.full_like(lhs, np.nan)
        for idx in np.ndindex(omega.shape):
            try:
                t[idx] = np.linalg.inv(lhs[idx])
            except np.linalg.LinAlgError:
                singular[idx] = True
    defect = np.abs(lhs @ t - np.eye(8))
    row_norms = np.maximum(np.abs(lhs).sum(axis=-1), 1.0)
    # written so that a nan defect fails too
    failed = singular | np.any(~(defect <= 1e-10 * row_norms[..., None]), axis=(-2, -1))
    if failed.any():
        idx = np.unravel_index(np.argmax(failed), failed.shape)
        if singular[idx]:
            raise SingularTransferError(f"transfer matrix singular at omega={omega[idx]}")
        raise SingularTransferError(
            f"transfer inversion at omega={omega[idx]} lost precision "
            f"(defect {float(np.max(defect[idx] / row_norms[idx][:, None])):.3e})")
    return t


def spectral_moments(drift, noise, omega):
    """Delta-stripped second moments on a grid from one T(w), T(-w) pair.

    Returns (C, s_qplus, s_pminus, commutator) at every point of the
    broadcast of `drift` and `omega` (see `transfer`), where
    C(w) = T(w) d T(-w)^T.  Each scalar is the quadratic form
        (1/4)[u_l A(w) u_r + u_l A(-w) u_r],  A(v) = T(v) mat T(-v)^T,
    of the hermitian combinations [O(w) + O(-w)]/2 (the same-frequency
    pairings carry delta(2w) and are dropped): mat = d for the variances
    of q_a + q_b and p_a - p_b, which share A, and mat = k for the
    commutator <[q_a(w), p_a(w)]>.  The temporaries are a few
    (points, 8, 8) complex arrays, so callers pass at most GRID_BLOCK
    points at a time.
    """
    tp = transfer(drift, omega)
    tm = transfer(drift, -np.asarray(omega, dtype=float))
    tp_t = np.swapaxes(tp, -1, -2)
    tm_t = np.swapaxes(tm, -1, -2)

    def form(ap, am, u_left, u_right):
        return 0.25 * (u_left @ ap @ u_right + u_left @ am @ u_right)

    cd = (tp @ noise.d @ tm_t, tm @ noise.d @ tp_t)
    ck = (tp @ noise.k @ tm_t, tm @ noise.k @ tp_t)
    return (cd[0], form(*cd, U_Q_PLUS, U_Q_PLUS).real,
            form(*cd, U_P_MINUS, U_P_MINUS).real, form(*ck, U_QA, U_PA))


def correlation_matrix(drift, noise, omega):
    """Delta-stripped second moments C(w) = T(w) d T(-w)^T of the fluctuations."""
    return spectral_moments(drift, noise, omega)[0]


def _epr_block(drift, noise, omega):
    _, s_q, s_p, comm = spectral_moments(drift, noise, omega)
    omega = np.broadcast_to(np.asarray(omega, dtype=float), comm.shape)
    degenerate = ~(np.abs(comm) >= COMMUTATOR_FLOOR)  # a nan commutator too
    if degenerate.any():
        idx = np.unravel_index(np.argmax(degenerate), degenerate.shape)
        raise ArithmeticError(
            f"degenerate commutator spectrum |{comm[idx]}| at omega={omega[idx]}")
    # float_power rounds like the scalar abs(c) ** 2 (C pow); `**` on an
    # array squares by multiplication, which moves the last bit of a few
    # points
    denom = 0.25 * np.float_power(np.abs(comm), 2)
    return SpectrumGrid(omega=omega, s_qplus=s_q, s_pminus=s_p,
                        commutator=comm, e_degree=s_q * s_p / denom)


def epr_grid(drift, noise, omega):
    """Collective EPR variances, commutator spectrum and degree on a grid.

    Evaluates every point of the broadcast of `drift` (8x8 or a stack) and
    `omega` with one pair of batched transfer solves (see
    `spectral_moments`).  s_qplus and s_pminus are the symmetrized
    variances of q_a + q_b and p_a - p_b; the commutator is the spectral
    <[q_a(w), p_a(w)]> built from the state-independent input commutators;
    the degree is their ratio
        e = s_qplus s_pminus / (|commutator|^2 / 4),
    flagged as EPR-correlated when it drops below one.

    Raises what a point-by-point evaluation raises first: at the first
    failing point in grid order, a failing T(w) before a failing T(-w),
    both before a commutator below COMMUTATOR_FLOOR.
    """
    try:
        return _epr_block(drift, noise, omega)
    except ArithmeticError as exc:
        failure = exc
    # the batched solves report the first failure of each sign: re-solve
    # point by point to raise the first failure in grid order
    shape = np.broadcast_shapes(np.shape(drift)[:-2], np.shape(omega))
    drifts = np.broadcast_to(drift, shape + (8, 8))
    omegas = np.broadcast_to(omega, shape)
    for idx in np.ndindex(shape):
        _epr_block(drifts[idx], noise, omegas[idx])
    raise failure


def epr_spectra(drift, noise, omega):
    """EPR variances, commutator spectrum and degree at one frequency
    (the one-point view of `epr_grid`)."""
    grid = epr_grid(drift, noise, float(omega))
    return SpectrumPoint(
        omega=float(grid.omega),
        s_qplus=float(grid.s_qplus),
        s_pminus=float(grid.s_pminus),
        commutator=complex(grid.commutator),
        e_degree=float(grid.e_degree),
    )


def stability_stack(drifts):
    """Per drift of a stack (..., 8, 8): (all eigenvalues strictly damped?,
    the eight eigenvalues), from one batched real eigenvalue call.

    The cascade is one-way, so with the slots regrouped as (a, a+, c1, c1+)
    and (b, b+, c2, c2+) the drift is block lower-triangular and its
    spectrum is that of the two 4x4 diagonal blocks: the first cavity's
    eigenvalues, then the second's.  Each block is the complex form of a
    real map; in the quadratures (q, p) of each mode, v = S r with
    S = [[1, i], [1, -i]]/sqrt(2) per mode, its 2x2 entry [[x, y], [y*, x*]]
    becomes [[Re x + Re y, Im y - Im x], [Im x + Im y, Re x - Re y]].
    Raises ValueError for a drift not of this form: a nonzero coupling from
    the second cavity back into the first, or a block whose quadrature form
    is not real to rounding.
    """
    # slot i = 4 mode + 2 stage + w: mode 0 atom / 1 field, stage 0 first
    # cavity / 1 second, w 0 operator / 1 adjoint
    m = np.reshape(drifts, np.shape(drifts)[:-2] + (2, 2, 2, 2, 2, 2))
    size = np.abs(m)
    if np.any(size[..., :, 0, :, :, 1, :] > 0.0):
        raise ValueError("drift couples the second cavity back into the first: "
                         "not a one-way cascade")
    blocks = np.stack((m[..., :, 0, :, :, 0, :], m[..., :, 1, :, :, 1, :]), axis=-5)
    x, y = blocks[..., 0, :, 0], blocks[..., 0, :, 1]
    defect = np.maximum(np.abs(blocks[..., 1, :, 1] - x.conj()),
                        np.abs(blocks[..., 1, :, 0] - y.conj()))
    scale = size.max(axis=(-6, -5, -4, -3, -2, -1))
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


def amplitude_sweep(params, drive_grid, omega_eval, noise=None):
    """E(omega_eval) along an ascending drive sweep with branch continuation.

    Each cavity's intensity is continued adiabatically from the previous
    drive point; vanishing branches produce recorded jump events.  Points
    whose working branch is unstable (or numerically degenerate) come back
    flagged with e_degree = nan rather than aborting the sweep.  One
    `steady_grid` call solves every drive; then drives go in blocks of
    GRID_BLOCK: one stack of drifts, one batched eigenvalue call for it,
    then one `epr_grid` over its stable ones.
    """
    drive_grid = np.asarray(drive_grid, dtype=float)
    if drive_grid.size and np.any(np.diff(drive_grid) < 0):
        raise ValueError("drive_grid must be sorted ascending")
    if noise is None:
        noise = build_noise(params)
    steady = steady_grid(params, drive_grid, selection="follow")
    jumped = steady.jumped1 | steady.jumped2
    rows = []
    for start in range(0, drive_grid.size, GRID_BLOCK):
        block = slice(start, start + GRID_BLOCK)
        drifts = build_drift(params, steady[block])
        stable, _ = stability_stack(drifts)
        e_degree = np.full(len(drifts), np.nan)
        errors = [None if ok else "unstable working point" for ok in stable]
        solved = np.flatnonzero(stable)
        if solved.size:
            try:
                e_degree[solved] = epr_grid(drifts[solved], noise, omega_eval).e_degree
            except ArithmeticError:
                # one failing drift fails the batch: evaluate drift by drift
                for i in solved:
                    try:
                        e_degree[i] = epr_spectra(drifts[i], noise, omega_eval).e_degree
                    except ArithmeticError as exc:
                        errors[i] = str(exc)
        rows.extend(
            SweepPoint(drive=drive, branch1=branch1, branch2=branch2,
                       intensity1=intensity1, intensity2=intensity2,
                       stable=ok, e_degree=degree, jumped=jump, error=error)
            for drive, branch1, branch2, intensity1, intensity2, ok, degree, jump, error in zip(
                drive_grid[block].tolist(), steady.branch1[block].tolist(),
                steady.branch2[block].tolist(), steady.intensity1[block].tolist(),
                steady.intensity2[block].tolist(), stable.tolist(), e_degree.tolist(),
                jumped[block].tolist(), errors))
    return rows
