"""One cascade stage against a Lindblad master equation that shares no code
with `spectra.stage_blocks` or `spectra.build_noise`.

Cavity 1 and atom a evolve under H = Omega a+a + Delta c+c + chi c+c (a + a+)
+ i sqrt(gamma) (zeta_in c+ - zeta_in* c), with jumps sqrt(gamma) c and
sqrt(Gamma) a, written in the frame displaced by the program's working point:
c = zeta + dc, a = alpha + da, each fluctuation mode on a number basis of
CUTOFF states.  The displacement is exact; only the truncation of dc and da
approximates.  The program's linearization drops chi dc+dc (da + da+), so its
second moments err by O(chi) at fixed chi |zeta|: the gap must fall as chi
does.  A working point off the Hamiltonian's mean field leaves a force on dc
that no chi removes, and the gap levels off instead.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from cavmotion.cascade import PhysParams, steady_grid
from cavmotion.spectra import STAGES, build_noise, stage_blocks

CUTOFF = 8  # per fluctuation mode: 64 states, 4096 unknowns in the density matrix
COUPLING = 0.19  # chi |zeta|, held fixed as chi falls


def steady_density(h, jumps):
    """The steady state of d rho/dt = -i[h, rho] + sum_L D[L] rho, by one sparse
    solve with the trace in place of the first equation (row-major vec:
    vec(A rho B) = (A kron B^T) vec(rho))."""
    dim = h.shape[0]
    eye = scipy.sparse.identity(dim, format="csr")
    sparse = [scipy.sparse.csr_matrix(m) for m in (h, *jumps)]
    liouvillian = -1j * (scipy.sparse.kron(sparse[0], eye) - scipy.sparse.kron(eye, sparse[0].T))
    for jump in sparse[1:]:
        decay = jump.conj().T @ jump
        liouvillian += (scipy.sparse.kron(jump, jump.conj()) - 0.5 * scipy.sparse.kron(decay, eye)
                        - 0.5 * scipy.sparse.kron(eye, decay.T))
    liouvillian = scipy.sparse.lil_matrix(liouvillian)
    liouvillian[0, :] = np.eye(dim).reshape(1, -1)  # Tr rho = 1
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    rho = scipy.sparse.linalg.spsolve(liouvillian.tocsc(), rhs).reshape(dim, dim)
    return 0.5 * (rho + rho.conj().T)


def moment_gap(chi):
    """Worst entry of |sigma_me - sigma_lin| over the largest entry of sigma_lin,
    sigma the symmetrized covariance of (a, a+, c1, c1+) about its mean."""
    params = PhysParams(chi=chi, Omega=1.0, Gamma=0.2, gamma=1.0, Delta1=1.0, Delta2=1.0)
    zeta = COUPLING / chi
    pull = 2.0 * chi * chi * params.Omega / (params.Gamma**2 / 4 + params.Omega**2) * zeta**2
    drive = zeta * (params.gamma / 2 + 1j * (params.Delta1 - pull)) / np.sqrt(params.gamma)
    point = steady_grid(params, np.array([drive]))
    one = np.eye(CUTOFF)
    low = np.diag(np.sqrt(np.arange(1.0, CUTOFF)), 1)
    a = point.alpha[0] * np.eye(CUTOFF * CUTOFF) + np.kron(low, one)
    c = point.zeta1[0] * np.eye(CUTOFF * CUTOFF) + np.kron(one, low)
    ad, cd = a.conj().T, c.conj().T
    h = (params.Omega * ad @ a + params.Delta1 * cd @ c + chi * cd @ c @ (a + ad)
         + 1j * np.sqrt(params.gamma) * (drive * cd - np.conj(drive) * c))
    rho = steady_density(h, [np.sqrt(params.gamma) * c, np.sqrt(params.Gamma) * a])
    fluctuations = [np.kron(low, one), np.kron(low.T, one), np.kron(one, low), np.kron(one, low.T)]
    mean = [np.trace(rho @ v) for v in fluctuations]
    sigma_me = np.array([[0.5 * np.trace(rho @ (v @ w + w @ v)) - m * n
                          for w, n in zip(fluctuations, mean)] for v, m in zip(fluctuations, mean)])

    drift = stage_blocks(params, point)[0][0, 0]
    noise = build_noise(params)[np.ix_(STAGES[:4], STAGES[:4])]
    sigma_lin = scipy.linalg.solve_sylvester(drift, drift.T, -0.5 * (noise + noise.T))
    return np.abs(sigma_me - sigma_lin).max() / np.abs(sigma_lin).max()


def test_one_stage_gap_falls_with_chi():
    # measured: 1.59e-4 and 3.97e-5, a fall of 4.0x; a working point with a
    # real term a I = chi^2 Gamma I / (Gamma^2/4 + Omega^2) in its bracket
    # levels off at 1.3e-3 (1.01x)
    assert moment_gap(0.025) >= 3.0 * moment_gap(0.0125)
