"""Oracles assembled from the stage blocks of the linearized dynamics
(`spectra.stage_blocks`): the full 8x8 drift, for the finite-difference,
high-precision and Lyapunov checks; the real 4x4 map of each stage, whose
eigenvalues check the stability verdict; the stage rows by LAPACK, which
check the closed-form row solve; the EPR forms from the drift inverted at
high precision; and input moments whose EPR forms cancel."""

import numpy as np

from cavmotion import spectra


def build_drift(params, steady):
    """(..., 8, 8): the drift M of v = (a, a+, b, b+, c1, c1+, c2, c2+) at the
    working points `steady`.  In the slots regrouped by stage (`spectra.STAGES`)
    it is [[A, 0], [C, D]]: the two stage blocks and the gamma feed."""
    stages, feed = spectra.stage_blocks(params, steady)
    first, second = spectra.STAGES[:4, None], spectra.STAGES[4:]
    m = np.zeros(stages.shape[:-3] + (8, 8), dtype=complex)
    m[..., first, first.T] = stages[..., 0, :, :]
    m[..., second[:, None], second] = stages[..., 1, :, :]
    m[..., second[:, None], first.T] = feed
    return m


def real_blocks(params, steady):
    """(..., 2, 4, 4): the first stage's real map, then the second's, at the
    working points `steady`.

    The one-way drift is block lower-triangular, so its spectrum is that of
    its stage blocks.  Each block is the complex form of a real map; in the
    quadratures (q, p) of each mode, v = S r with S = [[1, i], [1, -i]]/sqrt(2)
    per mode, its 2x2 entry [[x, y], [y*, x*]] becomes
    [[Re x + Re y, Im y - Im x], [Im x + Im y, Re x - Re y]].
    """
    stages = spectra.stage_blocks(params, steady)[0]
    # (stage, mode, w, mode, w): mode 0 atom / 1 field, w 0 operator / 1 adjoint
    blocks = stages.reshape(stages.shape[:-2] + (2, 2, 2, 2))
    x, y = blocks[..., 0, :, 0], blocks[..., 0, :, 1]
    real = np.empty(x.shape[:-2] + (2, 2, 2, 2))  # (stage, mode, q/p, mode, q/p)
    real[..., :, 0, :, 0] = x.real + y.real
    real[..., :, 0, :, 1] = y.imag - x.imag
    real[..., :, 1, :, 0] = x.imag + y.imag
    real[..., :, 1, :, 1] = x.real - y.real
    return real.reshape(real.shape[:-4] + (4, 4))


def block_eigenvalues(params, steady):
    """(..., 8): the eigenvalues of both stages at finite working points."""
    eigs = np.linalg.eigvals(real_blocks(params, steady))
    return eigs.reshape(eigs.shape[:-2] + (8,))


def lapack_rows(blocks, omega, rows):
    """(y, singular, backward) of `spectra._row_solve` by two batched LAPACK
    4x4 solves per point, second stage first: the rows y = u (i w I - M)^(-1)
    of `rows` (k, 8) at every point of the broadcast of the stage blocks
    (stages, feed) and omega, (..., k, 8); singular where LU meets a zero
    pivot in a stage (y is nan there); and the larger componentwise backward
    error of the two stage solves."""
    stages, feed = blocks
    shift = 1j * np.asarray(omega, dtype=float)[..., None, None]
    with np.errstate(all="ignore"):  # rows that overflow next to a singular point
        y2, singular2, backward2 = _lapack_stage(stages[..., 1, :, :], shift,
                                                 rows[..., spectra.STAGES[4:]])
        y1, singular1, backward1 = _lapack_stage(stages[..., 0, :, :], shift,
                                                 rows[..., spectra.STAGES[:4]] + y2 @ feed)
    y = np.concatenate((y1, y2), axis=-1)[..., np.argsort(spectra.STAGES)]
    return y, singular1 | singular2, np.maximum(backward1, backward2)


def _lapack_stage(block, shift, rows):
    """(y, singular, backward) with y (shift - block) = rows for 4x4 blocks."""
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
    residual = np.abs(shift * y - y @ block - rows)
    terms = np.abs(shift) * np.abs(y) + np.abs(y) @ np.abs(block) + np.abs(rows)
    backward = residual / np.maximum(terms, np.finfo(float).tiny)
    return y, singular, backward.max(axis=(-2, -1))


def epr_reference(drift, noise, omega, mpmath):
    """(s_qplus, s_pminus, commutator) at one frequency from the full
    T(+-w) = (+-i w I - M)^(-1) inverted at mpmath's working precision."""
    m, eye = mpmath.matrix(drift.tolist()), mpmath.eye(8)
    d, k = mpmath.matrix(noise.tolist()), mpmath.matrix((noise - noise.T).tolist())
    q_plus, p_minus, q_a, p_a = (mpmath.matrix([u.tolist()]) for u in spectra.EPR_ROWS)
    plus = (mpmath.mpc(0, omega) * eye - m) ** -1
    minus = (mpmath.mpc(0, -omega) * eye - m) ** -1
    d_pair = plus * d * minus.T + minus * d * plus.T
    return (0.25 * (q_plus * d_pair * q_plus.T)[0].real,
            0.25 * (p_minus * d_pair * p_minus.T)[0].real,
            0.25 * (q_a * (plus * k * minus.T + minus * k * plus.T) * p_a.T)[0])


def cancelling_noise(params):
    """The vacuum input moments of `spectra.build_noise` with 1e12 Gamma more noise
    on the first atom and as much less on the second: where both atoms'
    rows are equal (chi = 0), the variances keep their vacuum values, while
    their terms grow 1e12-fold and cancel."""
    d = spectra.build_noise(params)
    d[0, 1] += 1e12 * params.Gamma
    d[2, 3] -= 1e12 * params.Gamma
    return d
