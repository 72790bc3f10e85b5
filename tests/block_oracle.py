"""Oracles assembled from the stage blocks of the linearized dynamics
(`spectra.stage_blocks`): the full 8x8 drift, for the finite-difference,
high-precision and Lyapunov checks, and the real 4x4 map of each stage,
whose eigenvalues check the stability verdict."""

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
