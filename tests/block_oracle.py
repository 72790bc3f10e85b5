"""Eigenvalue oracle for the stability verdict: the real 4x4 map of each
stage of a cascade drift, and its eigenvalues."""

import numpy as np

from cavmotion import spectra


def real_blocks(drifts):
    """(..., 2, 4, 4): the first stage's real map, then the second's, of
    cascade drifts (..., 8, 8).

    The one-way drift is block lower-triangular (`spectra.cascade_blocks`),
    so its spectrum is that of A, then that of D.  Each block is the complex
    form of a real map; in the quadratures (q, p) of each mode, v = S r with
    S = [[1, i], [1, -i]]/sqrt(2) per mode, its 2x2 entry [[x, y], [y*, x*]]
    becomes [[Re x + Re y, Im y - Im x], [Im x + Im y, Re x - Re y]].
    """
    a, _, d = spectra.cascade_blocks(drifts)
    # (stage, mode, w, mode, w): mode 0 atom / 1 field, w 0 operator / 1 adjoint
    blocks = np.stack((a, d), axis=-3).reshape(a.shape[:-2] + (2, 2, 2, 2, 2))
    x, y = blocks[..., 0, :, 0], blocks[..., 0, :, 1]
    real = np.empty(x.shape[:-2] + (2, 2, 2, 2))  # (stage, mode, q/p, mode, q/p)
    real[..., :, 0, :, 0] = x.real + y.real
    real[..., :, 0, :, 1] = y.imag - x.imag
    real[..., :, 1, :, 0] = x.imag + y.imag
    real[..., :, 1, :, 1] = x.real - y.real
    return real.reshape(real.shape[:-4] + (4, 4))


def block_eigenvalues(drifts):
    """(..., 8): the eigenvalues of both stages of finite cascade drifts."""
    eigs = np.linalg.eigvals(real_blocks(drifts))
    return eigs.reshape(eigs.shape[:-2] + (8,))
