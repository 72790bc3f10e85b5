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
||M_x||_F^2 and purity ||M_x M_x^H||_F^2 / P(x)^2 (brute-force check below),
both from one kernel over a grid of outcomes (`outcome_moments`).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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
# label_factor takes G's unpivoted Cholesky factor R where every pivot
# R[n, n]^2 is at least BAND_PIVOT_FLOOR, which keeps cond(G) below about
# 3e3 (1.1e3 at pivot 0.25) and R away from the rank-deficient G the pivoted
# factor is for.  Down to pivots of 5e-5 the moments from R stay within
# 5e-14 (P, relative) and 7e-15 (purity) of the pivoted factor's (zeta 6-8,
# t = 1.2, 2 and pi)
BAND_PIVOT_FLOOR = 0.2
# R is kept in diagonal storage (a BandFactor) where one outcome costs the
# band kernel less than two dense products: BAND_COST (N+1)(2b+1)^2 +
# BAND_OVERHEAD < (N+1)^3, in dense multiply-adds.  Measured with numpy's
# OpenBLAS: the band kernel's batched per-row products run about 8 times
# slower per multiply-add than a dense product, and a call costs about
# 0.1 ms beyond them, so point requests at small N stay dense
BAND_COST = 8
BAND_OVERHEAD = 2e5
# outcomes per band-kernel chunk: as many as keep its arrays within this
BAND_CHUNK_BYTES = 256 * 1024

DEFAULT_X_GRID = np.linspace(-4.0, 4.0, 161)


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
    """Joint atomic state conditioned on quadrature outcome x, as arrays over
    a grid of outcomes (cond_coeffs one row each); error holds None or why
    the outcome is unresolvable, its values nan."""

    x: np.ndarray
    cond_coeffs: np.ndarray
    prob_density: np.ndarray
    lin_entropy: np.ndarray
    efficiency: np.ndarray
    error: np.ndarray


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


@dataclass(frozen=True)
class BandFactor:
    """Upper-triangular factor R of G (R^H R = G) of bandwidth b in diagonal
    storage: diagonals[k, i] = R[i, i + k], shape (b + 1, N + 1), 0 for i + k > N."""

    diagonals: np.ndarray

    @classmethod
    def from_upper(cls, r):
        """The diagonals of an upper-triangular r up to its last nonzero one."""
        rows, cols = np.nonzero(r)
        reach = int(np.max(cols - rows, initial=0))
        rows = np.arange(r.shape[0])
        cols = rows + np.arange(reach + 1)[:, None]
        return cls(np.where(cols < r.shape[0], r[rows, np.minimum(cols, r.shape[0] - 1)], 0.0))


def label_factor(labels):
    """A factor of G, the Gram matrix of the coherent labels: B with
    B^H B = G, or a BandFactor R.

    Column n holds |labels[n]> in an orthonormal basis of the labels' span.
    Labels near their centroid c are expanded in the number basis displaced
    to c, |mu> = e^(-i Im(c conj(mu))) D(c)|mu - c>, by the stable recurrence
    <j|nu> = <j-1|nu> nu/sqrt(j), and reduced by QR: exact where close labels
    leave G too ill-conditioned to factor.  Wider spreads take G's unpivoted
    Cholesky factor R where every pivot is at least BAND_PIVOT_FLOOR; R keeps
    the labels' order, so well-separated labels give it a narrow band, and it
    comes as a BandFactor where the band kernel does less work than the dense
    one (BAND_COST, BAND_OVERHEAD).  Otherwise G's pivoted Cholesky factor.
    Entries below FACTOR_FLOOR are zeroed."""
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
    try:
        r = np.linalg.cholesky(g).conj().T
    except np.linalg.LinAlgError:
        r = None
    if r is not None and np.min(np.abs(np.diagonal(r))) ** 2 >= BAND_PIVOT_FLOOR:
        r[np.abs(r) < FACTOR_FLOOR] = 0.0
        band = BandFactor.from_upper(r)
        size, width = labels.size, 2 * band.diagonals.shape[0] - 1
        return band if BAND_COST * size * width**2 + BAND_OVERHEAD < size**3 else r
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


def outcome_moments(factor, amplitudes):
    """(P, purity) of M_x = B diag(amplitudes[x]) B^T for every row x of
    amplitudes (X, N+1), B = label_factor(labels): P = ||M_x||_F^2 and purity
    ||M_x M_x^H||_F^2 / P^2, in (0, 1] by construction.  Purity is nan where
    P <= PROBABILITY_FLOOR.  For the nonzero state sum_n c[n] |mu_n>|mu_n>,
    outcome_moments(label_factor(mu), c[None]) is (norm^2, reduced purity).

    A dense B costs two products per outcome; a BandFactor
    O(N b^2) per outcome (`_band_moments`).  Each outcome's values do not
    depend on the other rows."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if isinstance(factor, BandFactor):
        return _band_moments(factor.diagonals, amplitudes)
    prob, pure = np.empty(len(amplitudes)), np.full(len(amplitudes), np.nan)
    for x, row in enumerate(amplitudes):
        m = (factor * row) @ factor.T
        prob[x] = np.vdot(m, m).real
        if prob[x] > PROBABILITY_FLOOR:
            rho = (m @ m.conj().T) / prob[x]
            pure[x] = np.vdot(rho, rho).real
    return prob, pure


def _band_moments(diagonals, amplitudes):
    """outcome_moments for R of bandwidth b in diagonal storage.

    M = R diag(a) R^T is symmetric with bandwidth b:
    M[i, i+d] = sum_k a[i+k] R[i, i+k] R[i+d, i+k], k = d..b, one batched
    (b+1)-vector-matrix product per row i.  Each row's band goes into a
    window rows[i, t] = M[i, i - 3b + t], t = 0..4b; then
    (M M^H)[i+e, i] / P = rows[i+e, 2b+t'-e] . conj(rows[i, 2b+t']) / P over
    t' = 0..2b for e = 0..2b is one (2b+1)-square matrix-vector product per
    row, on a strided view whose entries outside the band read zeros of the
    window.  ||M M^H||_F^2 counts e > 0 twice.  Every product has the same
    shape for every outcome, so values do not depend on chunking."""
    reach = diagonals.shape[0] - 1
    x_count, size = amplitudes.shape
    padded = np.zeros((reach + 1, size + reach), dtype=complex)
    padded[:, :size] = diagonals
    weights = np.zeros((size, reach + 1, reach + 1), dtype=complex)
    for d in range(reach + 1):  # weights[i, k, d] = R[i, i+k] R[i+d, i+k]
        weights[:, d:, d] = (padded[d:, :size] * padded[:reach + 1 - d, d:d + size]).T

    width, span = 4 * reach + 1, 2 * reach + 1
    per_outcome = 16 * ((size + 2 * reach) * width + 2 * size * span + size + reach)
    step = max(1, min(x_count, BAND_CHUNK_BYTES // per_outcome))
    amps = np.zeros((step, size + reach), dtype=complex)
    windows = sliding_window_view(amps, reach + 1, axis=1)[:, :size, None]  # a[i+k]
    rows = np.zeros((step, size + 2 * reach, width), dtype=complex)
    sx, si, st = rows.strides
    upper = rows[:, :size, None, 3 * reach:]  # M[i, i+d]
    lower = as_strided(rows[:, :, 3 * reach:], (step, size, 1, reach + 1), (sx, si, 0, si - st))
    band = rows[:, :, 2 * reach:].view(float)
    later = as_strided(rows[:, :, 2 * reach:], (step, size, span, span), (sx, si, si - st, st))
    row_conj = np.empty((step, size, span, 1), dtype=complex)
    twice = np.full(2 * span, 2.0)
    twice[:2] = 1.0
    prob, pure = np.empty(x_count), np.empty(x_count)
    for start in range(0, x_count, step):
        n = min(step, x_count - start)
        amps[:n, :size] = amplitudes[start:start + n]
        np.matmul(windows[:n], weights, out=upper[:n])
        lower[:n] = upper[:n]  # M[i+d, i] = M[i, i+d]
        prob[start:start + n] = p = np.einsum("xij,xij->x", band[:n], band[:n])
        scale = np.divide(1.0, p, out=np.zeros(n), where=p > PROBABILITY_FLOOR)
        np.conjugate(rows[:n, :size, 2 * reach:, None], out=row_conj[:n])
        row_conj[:n].view(float)[...] *= scale[:, None, None, None]
        h = np.matmul(later[:n], row_conj[:n]).view(float).reshape(n, size, 2 * span)
        pure[start:start + n] = np.where(p > PROBABILITY_FLOOR,
                                         np.einsum("xij,xij,j->x", h, h, twice), np.nan)
    return prob, pure


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


def condition_on_quadrature(state, x_grid):
    """Project the field on every quadrature outcome of x_grid and
    renormalize the atoms: one ConditionalResult of arrays, from one
    outcome_moments call.

    prob_density is the squared norm of the projected atomic state (the
    inverse square of the normalization constant), so efficiency =
    lin_entropy * prob_density holds exactly.  Unresolvable outcomes keep
    nan values and their message in error.  x holds a copy of the grid (a
    scalar is a one-element grid).
    """
    x_grid = np.array(x_grid, dtype=float, ndmin=1)
    raw = state.coeffs * oscillator_wavefunctions(state.n_max, x_grid).T
    prob, purity = outcome_moments(state.factor, raw)
    resolved = prob > PROBABILITY_FLOOR
    error = np.full(x_grid.size, None, dtype=object)
    for i in np.flatnonzero(~resolved):
        error[i] = f"outcome x={x_grid[i]} has probability density below {PROBABILITY_FLOOR}"
    prob = np.where(resolved, prob, np.nan)
    cond_coeffs = np.divide(raw, np.sqrt(prob)[:, None], where=resolved[:, None],
                            out=np.full(raw.shape, np.nan, dtype=complex))
    lin_entropy = 1.0 - purity
    return ConditionalResult(x_grid, cond_coeffs, prob, lin_entropy, lin_entropy * prob, error)


def efficiency_profile(zeta, kappa, time, x_grid=None, policy=DEFAULT_POLICY):
    """Conditional results over a grid of quadrature outcomes: one
    ConditionalResult of arrays.

    Unresolvable outcomes keep nan values and their message in error
    instead of aborting the profile.  Cost: one label factor, then one
    outcome_moments call over the grid (`condition_on_quadrature`).
    """
    x_grid = np.asarray(DEFAULT_X_GRID if x_grid is None else x_grid, dtype=float)
    if x_grid.size and np.any(np.diff(x_grid) < 0):
        raise ValueError("x_grid must be sorted ascending")
    return condition_on_quadrature(evolve(zeta, kappa, time, policy), x_grid)
