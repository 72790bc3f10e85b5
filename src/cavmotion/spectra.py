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

TINY, EPS = np.finfo(float).tiny, np.finfo(float).eps
# point status: the EPR kernel's, then a sweep's drive with no stable working point
OK, SINGULAR, DEGENERATE, NONPOSITIVE, ROUNDING, UNSTABLE, OVERFLOW = range(7)
# largest estimated relative rounding error of an EPR form at an OK point:
# (the rows' componentwise backward error + eps) times the summed magnitude
# of the form's terms over its value.  It stays below 5e-14 on the benchmark's
# sweeps and spectra, and below 2.1e-15 at every stable drive up to 3e153
FORM_TOLERANCE = 1e-6

# points per block of `_epr_kernel`, which pays numpy's per-call cost once per block; a block
# traces about 1,090 bytes a point beside the grid's 49 of results: 768 keep a 2001-omega
# spectrum at 0.898 MiB and the 2401-drive sweep at 0.870 (0.900 and 1.065 at 384 when the forms
# copied the rows, which broke the one-point-vs-grid-row identity at 1024; it holds to 2048 now)
GRID_BLOCK = 768


class SingularTransferError(ArithmeticError):
    """(i w I - M) could not be inverted to working precision."""


@dataclass
class SpectrumPoint:
    """Collective EPR variances and entanglement degree, as arrays over a grid, all
    formed under `_epr_kernel`'s floating-point boundary."""

    omega: np.ndarray
    s_qplus: np.ndarray
    s_pminus: np.ndarray
    commutator: np.ndarray
    e_degree: np.ndarray
    variance_product: np.ndarray  # s_qplus s_pminus: the degree at |<[q, p]>|^2/4 = 1


@dataclass
class SweepPoint:
    """An amplitude sweep as arrays over its drives; status: OK or why a drive has no e_degree."""

    drive: np.ndarray
    branch1: np.ndarray  # cascade.BRANCH_* codes
    branch2: np.ndarray
    intensity1: np.ndarray
    intensity2: np.ndarray
    stable: np.ndarray
    e_degree: np.ndarray
    jumped: np.ndarray
    status: np.ndarray


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


def _solve_rows(block, shift, u):
    """(y, backward, singular, pivots) with y L = u, L = shift - block, at every
    point of the broadcast of 4x4 blocks (..., 4, 4) whose cavity part (slots
    2, 3) is diagonal and shifts (...); u and y hold one (k, ...) array per slot.

    The atom slots solve the 2x2 Schur complement S = L_mm - L_mc C^-1 L_cm,
    C = diag(c0, c1) the cavity part of L, by Cramer's rule on S 2^-k; then
    y_c = (u_c - y_m L_mc) C^-1.  pivots is (c0, c1, det S), whose product is
    det L; singular where c0, c1 or det(S 2^-k) is zero or not finite.  backward
    is the componentwise backward error: the largest entry of |y L - u| over
    |shift| |y| + |y| |block| + |u|, from the block's nonzero entries."""
    a = [[block[..., i, j] for j in range(4)] for i in range(4)]
    with np.errstate(all="ignore"):  # a singular point's nan and inf
        diagonal = [shift - a[j][j] for j in range(4)]
        inv_c = [1.0 / diagonal[2], 1.0 / diagonal[3]]
        # w[k][j] = a[k+2][j] / c_k: (L_mc diag(1/c) L_cm)[i, j] = sum_k a[i][k+2] w[k][j]
        w = [[a[k + 2][j] * inv_c[k] for j in (0, 1)] for k in (0, 1)]
        s = [[(diagonal[i] if i == j else -a[i][j]) - a[i][2] * w[0][j] - a[i][3] * w[1][j]
              for j in (0, 1)] for i in (0, 1)]
        # S 2^-k, 2^k about its largest entry, is exact, and its det is at most 2 in magnitude
        scale = np.ldexp(1.0, -np.clip(np.frexp(np.abs(s).max(axis=(0, 1)))[1], -1021, 1021))
        s = [[entry * scale for entry in row] for row in s]
        det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
        inv_det = scale / det
        # y_m = r S^-1: cramer[j][i] is the coefficient of r_j in y_i
        cramer = [[s[1][1] * inv_det, -s[0][1] * inv_det], [-s[1][0] * inv_det, s[0][0] * inv_det]]
        r = [u[j] + u[2] * w[0][j] + u[3] * w[1][j] for j in (0, 1)]
        del s, inv_det, w  # temporaries go once used: with the rows they set a block's peak
        y = [r[0] * cramer[0][i] + r[1] * cramer[1][i] for i in (0, 1)]
        del r, cramer
        y += [(u[k + 2] + y[0] * a[0][k + 2] + y[1] * a[1][k + 2]) * inv_c[k] for k in (0, 1)]
        backward = 0.0
        for j in range(4):
            residual = y[j] * diagonal[j] - u[j]
            terms = np.abs(y[j]) * (np.abs(shift) + np.abs(a[j][j])) + np.abs(u[j])
            for i in (i for i in range(4) if i != j and np.any(a[i][j])):
                residual -= y[i] * a[i][j]
                terms += np.abs(y[i]) * np.abs(a[i][j])
            # a zero sum of magnitudes has a zero residual
            backward = np.maximum(backward, np.abs(residual) / np.maximum(terms, TINY))
            del residual, terms
        singular = ~np.all([np.isfinite(p) & (p != 0.0) for p in (*diagonal[2:], det)], axis=0)
        return y, backward.max(axis=0), singular, (*diagonal[2:], det / scale / scale)


def _row_solve(blocks, omega, rows):
    """(y, singular, backward): the rows y = u (i w I - M)^(-1) of `rows` (k, 8)
    at n flat points, a block of `_epr_kernel`'s, (n, k, 8) viewing their row-major
    (k, n, 8) stack, for stages (n, 2, 4, 4) or one working point's (`stage_blocks`)
    and omega (n,); either stage singular (`_solve_rows`), the larger backward error.

    In the slots regrouped by stage the drift is [[A, 0], [C, D]], so
    y2 = u2 (i w - D)^(-1), then y1 = (u1 + y2 C)(i w - A)^(-1)."""
    stages, feed = blocks
    shift = 1j * np.asarray(omega, dtype=float)
    # one (k, 1) array per slot: the rows on the leading axis, the points behind
    u = np.transpose(rows)[..., None]
    y2, backward2, singular2 = _solve_rows(stages[..., 1, :, :], shift, u[STAGES[4:]])[:3]
    # the first stage's rows u1 + y2 C, from the feed's nonzero entries
    y1, backward1, singular1 = _solve_rows(stages[..., 0, :, :], shift, [
        u[slot] + sum(y2[i] * feed[i, j] for i in range(4) if feed[i, j] != 0.0)
        for j, slot in enumerate(STAGES[:4])])[:3]
    y = np.moveaxis(np.stack(y1[:2] + y2[:2] + y1[2:] + y2[2:], axis=-1), 0, -2)
    return y, singular1 | singular2, np.maximum(backward1, backward2)


def _epr_kernel(blocks, d, omega):
    """(SpectrumPoint of arrays, status, failure) at every point of the
    broadcast of the `stage_blocks` (stages, feed) and `omega`, for input
    moments d, from the rows y = u T(w) of EPR_ROWS at +w alone (`_row_solve`)
    of GRID_BLOCK flattened points at a time: memory for the results and a block.

    Each form is (1/4) u_l [C(w) + C(-w)] u_r^T, C(w) = T(w) mat T(-w)^T: that
    of the hermitian [O(w) + O(-w)]/2 (same-frequency pairings carry delta(2w)
    and are dropped), with mat = d, l = r for the variances of q_a + q_b and
    p_a - p_b and mat = d - d^T for <[q_a(w), p_a(w)]>.  As T(-w)^T = P T(w)^H P
    and u P = conj(u) (P the slot swap PAIRS), a variance is y A y^H with
    A = (d + d^T) P / 4 and the commutator y_q B y_p^H - y_p B y_q^H with
    B = (d - d^T) P / 4.
    status is OK or the failure a point-by-point evaluation meets first:
    SINGULAR (T(w) singular or its rows not finite), DEGENERATE (commutator
    not finite or below TINY, where underflow drops digits), NONPOSITIVE (a
    variance not positive), ROUNDING (a form's estimated relative rounding
    error above FORM_TOLERANCE); there e_degree is nan and failure(i) is the
    error of flat point i."""
    stages, feed = blocks
    omega = np.asarray(omega, dtype=float)
    omega = np.broadcast_to(omega, np.broadcast_shapes(stages.shape[:-3], omega.shape))
    # the grid's points on at least one axis (numpy's scalar arithmetic rounds complex
    # products unlike its array loops, and a point must not depend on its grid), to index
    # a block's points by; one working point's stages serve every block as they are (stages[()])
    points = omega.reshape(omega.shape or (1,))
    # working points flatten uncopied, and a block of them is a slice, unless omega broadcasts them
    sliced = stages.shape[:-3] == points.shape
    if stages.ndim > 3:
        stages = (stages.reshape(-1, 2, 4, 4) if sliced
                  else np.broadcast_to(stages, points.shape + (2, 4, 4)))
    form_a, form_b = 0.25 * (d + d.T)[:, PAIRS], 0.25 * (d - d.T)[:, PAIRS]
    singular, comm = np.empty(omega.size, bool), np.empty(omega.size, complex)
    backward, s_q, s_p, spread = np.empty((4, omega.size))
    with np.errstate(all="ignore"):  # the rows of a failed point may be nan or huge
        for start in range(0, omega.size, GRID_BLOCK):
            at = np.unravel_index(np.arange(start, min(start + GRID_BLOCK, omega.size)),
                                  points.shape)
            block = stages[start:start + GRID_BLOCK] if sliced else stages[at[:stages.ndim - 3]]
            part = slice(start, start + GRID_BLOCK)
            y, singular[part], backward[part] = _row_solve((block, feed), points[at], EPR_ROWS)
            # each form's terms, (y A)_k conj(y_k) and (y B)_k conj(y'_k) for the commutator's
            # pairs (q_a, p_a), (p_a, q_a), on the rows' (4, n, 8) stack: GEMMs read it, conj
            # overwrites it
            y = np.moveaxis(y, -2, 0)
            terms = (y[:2].reshape(-1, 8) @ form_a).reshape(2, -1, 8)
            terms *= np.conjugate(y[:2], out=y[:2])
            (s_q[part], s_p[part]), size_d = terms.sum(axis=-1).real, np.abs(terms).sum(axis=-1)
            terms = (y[2:].reshape(-1, 8) @ form_b).reshape(2, -1, 8)
            terms *= np.conjugate(y[3:1:-1], out=y[3:1:-1])
            comm[part] = terms[0].sum(axis=-1) - terms[1].sum(axis=-1)
            # each form's terms summed in magnitude, over its value
            size_k = np.abs(terms).sum(axis=0).sum(axis=-1)
            spread[part] = np.maximum.reduce(
                [size_d[0] / s_q[part], size_d[1] / s_p[part], size_k / np.abs(comm[part])])
            del y, terms, size_d, size_k  # gone before the next block's rows come
        singular, backward, s_q, s_p, comm, spread = (
            column.reshape(omega.shape) for column in (singular, backward, s_q, s_p, comm, spread))
        rounding = (backward + EPS) * spread
        status = np.where(singular | ~np.isfinite(backward), SINGULAR, np.where(
            np.isfinite(comm) & (np.abs(comm) >= TINY), np.where(np.minimum(s_q, s_p) > 0.0,
                np.where(rounding <= FORM_TOLERANCE, OK, ROUNDING), NONPOSITIVE),
            DEGENERATE))  # a nan variance or estimate fails too
        # each form times 2^-k, |comm| 2^-k in [0.5, 1): exact, and the products stay finite
        scale = np.ldexp(1.0, -np.frexp(np.abs(comm))[1])
        e_degree = np.where(status == OK, (s_q * scale) * (s_p * scale)
                            / (0.25 * np.square(np.abs(comm) * scale)), np.nan)
        grid = SpectrumPoint(omega, s_q, s_p, comm, e_degree, s_q * s_p)

    def failure(i):
        if status.flat[i] == SINGULAR:
            return SingularTransferError(
                f"transfer matrix singular at omega={omega.flat[i]}" if singular.flat[i] else
                f"transfer solve at omega={omega.flat[i]} lost precision "
                f"(backward error {backward.flat[i]:.3e})")
        return ArithmeticError((
            f"degenerate commutator spectrum |{comm.flat[i]}|",
            f"non-positive EPR variance (s_qplus {s_q.flat[i]}, s_pminus {s_p.flat[i]})",
            f"EPR forms dominated by rounding (estimated relative error {rounding.flat[i]:.3e})",
        )[status.flat[i] - DEGENERATE] + f" at omega={omega.flat[i]}")

    return grid, status, failure


def epr_grid(params, steady, omega):
    """Collective EPR variances, commutator spectrum and degree on a grid.

    Evaluates every point of the broadcast of the working points `steady`
    (one, or a grid) and `omega`, for the input moments of `build_noise`,
    from the rows u (i w I - M)^(-1) of EPR_ROWS (`_epr_kernel`).
    s_qplus and s_pminus are the symmetrized variances of q_a + q_b and
    p_a - p_b; the commutator is the spectral <[q_a(w), p_a(w)]> built from
    the state-independent input commutators; the degree is their ratio
    e = s_qplus s_pminus / (|commutator|^2 / 4), reported as a value: nothing
    marks or names the points where it drops below one.

    Raises the failure of the first failing point in grid order, as a
    point-by-point evaluation would (the statuses of `_epr_kernel`).
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
    wm2, damping = big * big / 4.0 + params.Omega * params.Omega, big + g
    zeta = np.stack((steady.zeta1, steady.zeta2), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed drive's terms
        d = _detunings(params, steady)
        wc2 = g * g / 4.0 + d * d
        k = 4.0 * chi * chi * np.abs(zeta) ** 2 * params.Omega * d
        return wm2 * wc2 - k, (big * g * ((wm2 - wc2) ** 2 + damping * (big * wc2 + g * wm2))
                               + damping * damping * k)


def amplitude_sweep(params, drive_grid, omega_eval):
    """E(omega_eval) along an ascending drive sweep with branch continuation,
    as one SweepPoint of arrays over the drives.

    One `steady_grid` call continues each cavity's intensity adiabatically
    from drive to drive (a vanishing branch is a recorded jump), and one
    `stability_grid` call decides every drive; then the stable drives take
    one `stage_blocks` and one `_epr_kernel` call.  Unstable, overflowing
    (nan intensity) or numerically failing drives come back with
    e_degree = nan and the reason in their status: UNSTABLE, OVERFLOW or
    the kernel's.
    """
    drive_grid = np.asarray(drive_grid, dtype=float)
    if not np.all(np.diff(drive_grid) >= 0):
        raise ValueError("drive_grid must be sorted ascending")
    steady = steady_grid(params, drive_grid, selection="follow")
    stable = stability_grid(params, steady)
    # a nan intensity: no working point; the stable drives take the kernel's status
    status = np.where(np.isnan(steady.intensity1 + steady.intensity2), OVERFLOW, UNSTABLE)
    e_degree, solved = np.full(drive_grid.size, np.nan), np.flatnonzero(stable)
    grid, status[solved], _ = _epr_kernel(stage_blocks(params, steady[solved]),
                                          build_noise(params), omega_eval)
    e_degree[solved] = grid.e_degree
    return SweepPoint(drive_grid, steady.branch1, steady.branch2, steady.intensity1,
                      steady.intensity2, stable, e_degree, steady.jumped1 | steady.jumped2, status)
