"""Conditional entangling of two trapped atoms sharing one cavity mode.

The joint state after the intensity-dependent displacement interaction is a
photon-number sum of products of atomic coherent states.  Measuring the
field quadrature X = (c + c^dag)/sqrt(2) with outcome x projects the atoms
onto an entangled superposition; the degree of entanglement is quantified
by the linear entropy of either reduced atom, and the expected yield per
measurement by entropy times outcome density.

The atomic coherent labels are not orthogonal, so every outcome quantity
comes from one factor B of their Gram matrix (B^H B = G) per state: the
atoms' state is the matrix M_x = B diag(coeffs psi(x)) B^T, with P(x) =
||M_x||_F^2 and purity ||M_x M_x^H||_F^2 / P(x)^2 (brute-force check below).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import (
    DEFAULT_POLICY,
    TruncationPolicy,
    coherent_coefficient,
    coherent_in_fock,
    coherent_overlap,
    oscillator_wavefunctions,
    truncation_order,
)

# conditioning divides by the outcome density, which amplifies roundoff
# garbage once the density is this far into the denormal range
PROBABILITY_FLOOR = 1e-300

# label_factor expands labels in at most this many number states, to the
# policy's Poisson tail; the bound also keeps the QR's transient memory small
FOCK_FACTOR_DIM = 256
FOCK_FACTOR_POLICY = TruncationPolicy(tail_epsilon=1e-16, hard_cap=2 * FOCK_FACTOR_DIM)
# label_factor's pivoted Cholesky of G stops once no pivot exceeds PIVOT_CUT
# and zeroes entries below FACTOR_FLOOR, which are negligible but would put
# products of four entries in the subnormal range, where BLAS is very slow
PIVOT_CUT = 1e-15
FACTOR_FLOOR = 1e-60

DEFAULT_X_GRID = np.linspace(-4.0, 4.0, 161)


class UnresolvableOutcomeError(ValueError):
    """Raised when an outcome's probability density underflows to nothing."""


@dataclass
class JointState:
    """Evolved field+atoms state in photon-number-indexed form.

    coeffs[n] carries the coherent weight of |n> times the accumulated
    self-Kerr phase; labels[n] is the coherent amplitude shared by both
    atoms when the field holds n photons.
    """

    kappa: float
    zeta: complex
    time: float
    n_max: int
    coeffs: np.ndarray
    labels: np.ndarray

    @cached_property
    def factor(self):
        """label_factor(labels), kept after first use: replace labels, never mutate them."""
        return label_factor(self.labels)


@dataclass
class ConditionalResult:
    """Joint atomic state conditioned on quadrature outcome x: numbers at one
    outcome, or arrays over a grid of outcomes (cond_coeffs one row each);
    error is None or why the outcome is unresolvable, its values nan."""

    x: float
    cond_coeffs: np.ndarray
    prob_density: float
    lin_entropy: float
    efficiency: float
    error: str | None = None


def evolve(zeta, kappa, time, policy=DEFAULT_POLICY):
    """Propagate the ground-state atoms + coherent field to scaled time t.

    coeffs[n] = e^(-|zeta|^2/2) zeta^n/sqrt(n!) * exp(2i kappa^2 n^2 (t - sin t))
    labels[n] = n kappa (1 - e^(-it))
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    zeta = complex(zeta)
    n_max = truncation_order(zeta, policy)
    ns = np.arange(n_max + 1)
    kerr = np.exp(2j * kappa**2 * ns.astype(float) ** 2 * (time - np.sin(time)))
    coeffs = np.atleast_1d(coherent_coefficient(zeta, ns)) * kerr
    labels = ns * (kappa * (1.0 - np.exp(-1j * time)))
    return JointState(kappa=kappa, zeta=zeta, time=time, n_max=n_max,
                      coeffs=coeffs, labels=labels)


def label_factor(labels):
    """B with B^H B = G, the Gram matrix of the coherent labels.

    Column n holds |labels[n]> in an orthonormal basis of the labels' span.
    Labels near their centroid c are expanded in the number basis displaced
    to c, |mu> = e^(-i Im(c conj(mu))) D(c)|mu - c>, by the stable recurrence
    <j|nu> = <j-1|nu> nu/sqrt(j), and reduced by QR: exact where close labels
    leave G too ill-conditioned to factor.  Wider spreads use G's pivoted
    Cholesky factor."""
    labels = np.asarray(labels, dtype=complex)
    center = labels.mean()
    shifted = labels - center
    radius = float(np.max(np.abs(shifted)))
    if radius**2 < FOCK_FACTOR_DIM and (
            dim := truncation_order(radius, FOCK_FACTOR_POLICY) + 1) <= FOCK_FACTOR_DIM:
        coords = np.empty((dim, labels.size), dtype=complex)
        coords[0] = np.exp(-0.5 * np.abs(shifted) ** 2 - 1j * np.imag(center * np.conj(labels)))
        np.divide(shifted, np.sqrt(np.arange(1.0, dim))[:, None], out=coords[1:])
        np.cumprod(coords, axis=0, out=coords)
        return np.linalg.qr(coords, mode="r")
    g = gram_matrix(labels)
    b = np.empty_like(g)
    residual = np.ones(labels.size)  # diagonal of G minus B^H B
    for k in range(labels.size + 1):
        p = int(np.argmax(residual))
        if k == labels.size or residual[p] <= PIVOT_CUT:
            return b[:k]
        row = (g[p] - b[:k, p].conj() @ b[:k]) / np.sqrt(residual[p])
        b[k] = np.where(np.abs(row) < FACTOR_FLOOR, 0.0, row)
        residual -= np.abs(b[k]) ** 2


def gram_matrix(labels):
    """Pairwise coherent overlaps G[m, n] = <labels[m] | labels[n]>."""
    labels = np.asarray(labels, dtype=complex)
    return np.atleast_2d(coherent_overlap(labels[:, None], labels[None, :]))


def _joint_amplitudes(factor, amplitudes):
    """M = B diag(amplitudes) B^T and its squared norm ||M||_F^2."""
    m = (factor * amplitudes) @ factor.T
    return m, float(np.vdot(m, m).real)


def _purity(m, norm_sq):
    """Tr[rho_a^2] with rho_a = M M^H / ||M||_F^2; in (0, 1] by construction."""
    rho = (m @ m.conj().T) / norm_sq
    return float(np.vdot(rho, rho).real)


def joint_moments(coeffs, labels):
    """(norm^2, reduced purity) of the nonzero state sum_n coeffs[n] |labels[n]>|labels[n]>."""
    m, norm_sq = _joint_amplitudes(label_factor(labels), np.asarray(coeffs, dtype=complex))
    return norm_sq, _purity(m, norm_sq)


def purity_bruteforce(cond_coeffs, labels, dim):
    """Independent purity check via explicit partial trace in the number basis.

    Expands both atoms in a dim-dimensional number basis, forms the reduced
    density matrix of atom a and returns the trace of its square.  dim must
    hold every coherent label to 1e-10 in norm.
    """
    c = np.asarray(cond_coeffs, dtype=complex)
    labels = np.asarray(labels, dtype=complex)
    vecs = np.array([coherent_in_fock(mu, dim) for mu in labels])
    norms = np.sum(np.abs(vecs) ** 2, axis=1)
    if np.any(norms < 1.0 - 1e-10):
        worst = float(norms.min())
        raise ValueError(f"dim={dim} too small: coherent norm {worst:.12f} < 1 - 1e-10")
    # joint amplitude matrix M[i, j] = <i|_a <j|_b Psi
    m = np.einsum("n,ni,nj->ij", c, vecs, vecs)
    rho_a = m @ m.conj().T
    return float(np.real(np.trace(rho_a @ rho_a)))


def _condition(state, x, psi):
    """Conditional result at outcome x given the wavefunctions psi_n(x)."""
    raw = state.coeffs * psi
    m, norm_sq = _joint_amplitudes(state.factor, raw)
    if not norm_sq > PROBABILITY_FLOOR:
        raise UnresolvableOutcomeError(
            f"outcome x={x} has probability density below {PROBABILITY_FLOOR}")
    lin_entropy = 1.0 - _purity(m, norm_sq)
    return ConditionalResult(x=x, cond_coeffs=raw / np.sqrt(norm_sq), prob_density=norm_sq,
                             lin_entropy=lin_entropy, efficiency=lin_entropy * norm_sq)


def condition_on_quadrature(state, x):
    """Project the field on quadrature outcome x and renormalize the atoms.

    prob_density is the squared norm of the projected atomic state (the
    inverse square of the normalization constant), so efficiency =
    lin_entropy * prob_density holds exactly.
    """
    x = float(x)
    return _condition(state, x, oscillator_wavefunctions(state.n_max, x)[:, 0])


def probability_density(state, x):
    """Outcome density P(x) = ||M_x||_F^2, in the shape of x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    psis = oscillator_wavefunctions(state.n_max, x.ravel())
    dens = np.array([_joint_amplitudes(state.factor, state.coeffs * psi)[1] for psi in psis.T])
    return float(dens[0]) if x.ndim == 0 else dens.reshape(x.shape)


def efficiency_profile(zeta, kappa, time, x_grid=None, policy=DEFAULT_POLICY):
    """Conditional results over a grid of quadrature outcomes: one
    ConditionalResult of arrays.

    Unresolvable outcomes keep nan values and their message in error
    instead of aborting the profile.  Cost: one label factor, then two
    matmuls per outcome.
    """
    if x_grid is None:
        x_grid = DEFAULT_X_GRID
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.size and np.any(np.diff(x_grid) < 0):
        raise ValueError("x_grid must be sorted ascending")
    state = evolve(zeta, kappa, time, policy)
    cond_coeffs = np.full((x_grid.size, state.n_max + 1), np.nan, dtype=complex)
    prob_density, lin_entropy = np.full(x_grid.size, np.nan), np.full(x_grid.size, np.nan)
    error = np.full(x_grid.size, None, dtype=object)
    for i, psi in enumerate(oscillator_wavefunctions(state.n_max, x_grid).T):
        try:
            point = _condition(state, x_grid[i], psi)
        except UnresolvableOutcomeError as exc:
            error[i] = str(exc)
            continue
        cond_coeffs[i], prob_density[i], lin_entropy[i] = (
            point.cond_coeffs, point.prob_density, point.lin_entropy)
    return ConditionalResult(x_grid, cond_coeffs, prob_density, lin_entropy,
                             lin_entropy * prob_density, error)
