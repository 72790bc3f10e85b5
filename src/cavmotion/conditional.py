"""Conditional entangling of two trapped atoms sharing one cavity mode.

The joint state after the intensity-dependent displacement interaction is a
photon-number sum of products of atomic coherent states.  Measuring the
field quadrature X = (c + c^dag)/sqrt(2) with outcome x projects the atoms
onto an entangled superposition; the degree of entanglement is quantified
by the linear entropy of either reduced atom, and the expected yield per
measurement by entropy times outcome density.

The atomic coherent labels are not orthogonal.  In any orthonormal basis
of their span the atoms' state is a matrix M_x, with P(x) = ||M_x||_F^2 and
purity ||M_x M_x^H||_F^2 / P(x)^2 (brute-force check below).  Each outcome
takes one of three routes, chosen from the state alone (README, cost model):
lattice_moments, O(N^2) per outcome from two closed-form factors, for
evolved states, whose labels n lambda lie on a line, of spacing |lambda|^2
>= 0.01 and N+1 >= 48 labels; window_moments, a Hankel M_x from 2 dim - 1
moments of the amplitudes, 2 dim (N+1) + dim^3 per outcome, where the
labels fit a displaced number basis of dim <= N+1 states; else
outcome_moments over a factor B of their Gram matrix (B^H B = G, M_x = B
diag(coeffs psi(x)) B^T), two (N+1)^3 products per outcome.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
# outcome status: resolved, density at most PROBABILITY_FLOOR, or a state that is not
# finite (its Kerr phase overflowed)
OK, BELOW_FLOOR, NONFINITE_STATE = range(3)

# label_factor expands labels in at most this many number states, to the
# policy's Poisson tail; the bound also keeps the QR's transient memory small
FOCK_FACTOR_DIM = 256
FOCK_FACTOR_POLICY = TruncationPolicy(tail_epsilon=1e-16, hard_cap=2 * FOCK_FACTOR_DIM)
# label_factor's pivoted Cholesky of G stops once no pivot exceeds PIVOT_CUT
# and zeroes entries below FACTOR_FLOOR, which are negligible but would put
# products of four entries in the subnormal range, where BLAS is very slow
PIVOT_CUT = 1e-15
FACTOR_FLOOR = 1e-60
# label_factor takes lattice_factor for spread lattice labels whose smallest
# pivot (z; z)_N is at least LATTICE_PIVOT_FLOOR (cond(G) below about 3e3)
LATTICE_PIVOT_FLOOR = 0.2
# states with at least LATTICE_MIN_ORDER lattice labels n lambda, |lambda|^2 at
# least LATTICE_MIN_SPACING, take lattice_moments; below that order one
# outcome costs less through the label factor, which also takes the rows
# whose estimated relative error exceeds LATTICE_TOLERANCE
LATTICE_MIN_SPACING = 0.01
LATTICE_MIN_ORDER = 48
LATTICE_TOLERANCE = 1e-11
EPS = np.finfo(float).eps
# lattice_moments drops pair weights e^(-s d^2 / 2) below LATTICE_WEIGHT_CUT,
# far below the rounding of the kept terms, and takes LATTICE_CHUNK outcomes
# at a time, which bounds its memory below the label factor's
LATTICE_WEIGHT_CUT = EPS**2
LATTICE_CHUNK = 16

DEFAULT_X_GRID = np.linspace(-4.0, 4.0, 161)


@dataclass(frozen=True)
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
    def window(self):
        """fock_window(labels), kept after first use."""
        return fock_window(self.labels)

    @cached_property
    def factor(self):
        """label_factor(labels), kept after first use: frozen, so new labels make a new state."""
        return label_factor(self.labels, self.window)


@dataclass
class ConditionalResult:
    """Joint atomic state conditioned on quadrature outcome x, as arrays over
    a grid of outcomes (cond_coeffs one row each); status is OK, or why the
    outcome is unresolvable (BELOW_FLOOR, NONFINITE_STATE), its values nan."""

    x: np.ndarray
    cond_coeffs: np.ndarray
    prob_density: np.ndarray
    lin_entropy: np.ndarray
    efficiency: np.ndarray
    status: np.ndarray


def evolve(zeta, kappa, time, policy=DEFAULT_POLICY):
    """Propagate the ground-state atoms + coherent field to scaled time t.

    coeffs[n] = e^(-|zeta|^2/2) zeta^n/sqrt(n!) * exp(2i kappa^2 n^2 (t - sin t))
    labels[n] = n kappa (1 - e^(-it))
    A Kerr phase that overflows leaves its coefficients nan, and kappa past
    the float range its labels, without a warning."""
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    zeta = complex(zeta)
    n_max = truncation_order(zeta, policy)
    ns = np.arange(n_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing phase: nan coeffs
        kerr = np.exp(2j * (kappa * kappa) * ns.astype(float) ** 2 * (time - np.sin(time)))
        labels = ns * (kappa * (1.0 - np.exp(-1j * time)))
    coeffs = np.atleast_1d(coherent_coefficient(zeta, ns)) * kerr
    return JointState(kappa=kappa, zeta=zeta, time=time, n_max=n_max,
                      coeffs=coeffs, labels=labels)


def fock_window(labels):
    """(labels, spacing, dim) of label_factor: the labels it factors (a lattice
    n lambda as n |lambda|: same G, no rounded phases), spacing |lambda|^2 or
    None (lattice_spacing), and dim, the size of the number basis displaced to
    their centroid that holds them to FOCK_FACTOR_POLICY's tail, or None past
    FOCK_FACTOR_DIM."""
    labels = np.asarray(labels, dtype=complex)
    if (spacing := lattice_spacing(labels)) is not None:
        labels = np.arange(labels.size) * complex(math.sqrt(spacing))
    radius = float(np.max(np.abs(labels - labels.mean())))
    if radius**2 < FOCK_FACTOR_DIM and (
            dim := truncation_order(radius, FOCK_FACTOR_POLICY) + 1) <= FOCK_FACTOR_DIM:
        return labels, spacing, dim
    return labels, spacing, None


def label_factor(labels, window=None):
    """A factor of G, the Gram matrix of the coherent labels: B with B^H B = G.

    Column n holds |labels[n]> in an orthonormal basis of the labels' span.
    Labels in a Fock window (window = fock_window(labels), if at hand) are
    expanded in the number basis displaced to their centroid c, |mu> =
    e^(-i Im(c conj(mu))) D(c)|mu - c>, by the stable recurrence <j|nu> =
    <j-1|nu> nu/sqrt(j), and reduced by QR: exact where close labels leave G
    too ill-conditioned to factor.  Wider spreads of lattice labels take the
    closed-form factor where its pivots are at least LATTICE_PIVOT_FLOOR;
    otherwise G's pivoted Cholesky factor, with entries below FACTOR_FLOOR
    zeroed."""
    labels, spacing, dim = fock_window(labels) if window is None else window
    if dim is not None:
        center = labels.mean()
        shifted = labels - center
        coords = np.empty((dim, labels.size), dtype=complex)
        coords[0] = np.exp(-0.5 * np.abs(shifted) ** 2 - 1j * np.imag(center * np.conj(labels)))
        np.divide(shifted, np.sqrt(np.arange(1.0, dim))[:, None], out=coords[1:])
        np.cumprod(coords, axis=0, out=coords)
        return np.linalg.qr(coords, mode="r")
    r = None if spacing is None else lattice_factor(spacing, labels.size)
    if r is not None and r[-1, -1] ** 2 >= LATTICE_PIVOT_FLOOR:  # R[N, N]^2 = (z; z)_N
        return r
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


def lattice_spacing(labels):
    """|labels[1]|^2 where labels are exactly n labels[1], n = 0..N, as evolve
    makes them, so G[m, n] = exp(-|labels[1]|^2 (m - n)^2 / 2); else None."""
    if labels.size < 2 or not np.array_equal(labels, np.arange(labels.size) * labels[1]):
        return None
    return abs(labels[1]) ** 2


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

    Two products per outcome, which do not depend on the other rows."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    prob, pure = np.empty(len(amplitudes)), np.full(len(amplitudes), np.nan)
    for x, row in enumerate(amplitudes):
        m = (factor * row) @ factor.T
        prob[x] = np.vdot(m, m).real
        if prob[x] > PROBABILITY_FLOOR:
            rho = (m @ m.conj().T) / prob[x]
            pure[x] = np.vdot(rho, rho).real
    return prob, pure


def window_moments(window, amplitudes):
    """(P, purity) as outcome_moments(label_factor(labels), amplitudes) gives
    them, with no factor, for window = fock_window(labels) = (labels, _, dim)
    with dim <= labels.size.  In the number basis displaced to the labels'
    centroid c, with sh_n = labels[n] - c and r = max |sh_n|, the atoms'
    matrix is a scaled Hankel matrix, M'[j, k] = s_j s_k h[j + k]: s_j =
    e^(-r^2/2) r^j / sqrt(j!), a Poisson amplitude, and h[m] = sum_n a[n]
    T[n, m], m < 2 dim - 1, over the moment table T[n, m] = e^(r^2 - |sh_n|^2
    - 2i Im(c conj labels[n])) (sh_n / r)^m.  As s_j <= 1, the table entries
    below FACTOR_FLOOR, which are zeroed, drop terms below FACTOR_FLOOR
    |a[n]|.  M' = Q M Q^T with Q unitary (label_factor's QR), so P and purity
    are M's.  Per outcome, a product of (N+1)(2 dim - 1) terms and a gather
    replace outcome_moments' dim^2 (N+1); rows do not depend on each other."""
    labels, _, dim = window
    center = labels.mean()
    shifted = labels - center
    radius = float(np.max(np.abs(shifted)))
    table = np.empty((labels.size, 2 * dim - 1), dtype=complex)
    table[:, 0] = np.exp(radius**2 - np.abs(shifted) ** 2
                         - 2j * np.imag(center * np.conj(labels)))
    table[:, 1:] = (shifted / (radius or 1.0))[:, None]
    np.cumprod(table, axis=1, out=table)
    table[np.abs(table) < FACTOR_FLOOR] = 0.0
    scale = np.empty(dim)
    scale[0], scale[1:] = math.exp(-0.5 * radius**2), radius / np.sqrt(np.arange(1.0, dim))
    np.cumprod(scale, out=scale)
    scale = np.outer(scale, scale).astype(complex)  # complex: the product casts nothing
    hankel = np.add.outer(np.arange(dim), np.arange(dim))
    m, conj, rho = np.empty((3, dim, dim), dtype=complex)  # reused by every row
    amplitudes = np.asarray(amplitudes, dtype=complex)
    prob, pure = np.empty(len(amplitudes)), np.full(len(amplitudes), np.nan)
    for x, row in enumerate(amplitudes):
        np.take(row @ table, hankel, out=m, mode="clip")  # in range: "clip" writes m directly
        m *= scale
        prob[x] = np.vdot(m, m).real
        if prob[x] > PROBABILITY_FLOOR:  # as in outcome_moments
            np.matmul(m, np.conjugate(m, out=conj).T, out=rho)
            rho /= prob[x]
            pure[x] = np.vdot(rho, rho).real
    return prob, pure


def lattice_factor(spacing, size):
    """R with R^T R = G for the labels n lambda, n < size, |lambda|^2 = s = spacing:
    R[k, m] = e^(-s (m-k)^2 / 2) sqrt((z; z)_k) [m choose k]_z, z = e^-s (the
    q-Vandermonde factorization), upper triangular and non-negative, built in
    one array from one log table; entries below FACTOR_FLOOR are zeroed."""
    logs = np.zeros(size)  # L[j] = log (z; z)_j = sum_{i <= j} log(1 - z^i)
    np.cumsum(np.log(-np.expm1(-spacing * np.arange(1.0, size))), out=logs[1:])
    d = np.arange(size)
    by_distance = np.full(2 * size - 1, np.inf)  # s d^2 / 2 + L[d] at d = m - k, inf below 0
    by_distance[size - 1:] = 0.5 * spacing * d * d + logs
    r = np.add.outer(-0.5 * logs, logs)
    r -= sliding_window_view(by_distance, size)[::-1]  # entry [k, m] reads d = m - k
    r[r < math.log(FACTOR_FLOOR)] = -np.inf
    return np.exp(r, out=r)


def lattice_moments(spacing, amplitudes):
    """(P, purity, estimate) of sum_n amplitudes[x, n] |n lambda>|n lambda> for
    every row x, |lambda|^2 = s = spacing, in O(N^2) per outcome: P =
    ||R_2s a||^2 and purity P^2 = ||R_s F||^2 over the 2N+1 sums F[S] =
    sum_{m+p=S} a[m] a[p] e^(-s (m-p)^2 / 2).  Each row is scaled by a power
    of two, or purity P^2 would underflow, and takes its products alone.
    estimate bounds the relative rounding error of P and of the purity,
    4 u ||R_2s |a| || / ||R_2s a|| + 2 u' ||R_s||_2 ||F(|a|)|| / ||R_s F||
    (README, cost model); nan where P = 0."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    x_count, size = amplitudes.shape
    wide = 2 * size - 1
    near, far = lattice_factor(2.0 * spacing, size), lattice_factor(spacing, wide)
    weights = np.exp(-0.5 * spacing * np.arange(size) ** 2.0)
    weights = weights[weights >= LATTICE_WEIGHT_CUT]
    weights[1:] *= 2.0  # the pairs (m, p) and (p, m)
    far_norm_sq = weights.sum()  # G's row sum, >= ||R_s||_2^2 and ||F(|a|)|| / ||a||_4^2
    # u: the sums' lengths, and 4 |log (z; z)_N| = 8 |log R[N, N]| for the table, whose
    # error grows with it; R[N, N] is about e^(-pi^2 / (12 s)) > FACTOR_FLOOR at s >= 0.01
    u_near = EPS * (size - 8.0 * np.log(near[-1, -1]))
    u_far = EPS * (wide + weights.size - 8.0 * np.log(far[-1, -1]))

    # a column per outcome; f's rows F[0], F[2], .., F[2N], F[1], .. keep each pair
    # distance's writes one run of rows (natural order, strided rows, measured slower)
    step = LATTICE_CHUNK
    a, pair, f = (np.empty((rows, step), dtype=complex) for rows in (size, size, wide))
    planes_a, planes_f = np.empty((step, 3, size)), np.empty((step, 2, wide))
    prob, purity, estimate = np.empty(x_count), np.empty(x_count), np.empty(x_count)
    for start in range(0, x_count, step):
        block = amplitudes[start:start + step]
        n = len(block)
        exponent = np.maximum(np.frexp(np.abs(block).max(axis=1))[1], -1000)
        np.multiply(block.T, np.ldexp(1.0, -exponent), out=a[:, :n])
        f[:, :n] = 0.0
        for d, w in enumerate(weights):  # F[2m - d] += w a[m] a[m - d], m = d..N
            m, row = size - d, d % 2 * size + d // 2
            product = np.multiply(a[d:, :n], a[:m, :n], out=pair[:m, :n])
            product *= w
            f[row:row + m, :n] += product
        for plane, source in enumerate((a[:, :n].real, a[:, :n].imag, np.abs(a[:, :n]))):
            planes_a[:n, plane] = source.T
        for plane, sums in enumerate((f[:, :n].real, f[:, :n].imag)):
            planes_f[:n, plane, 0::2], planes_f[:n, plane, 1::2] = sums[:size].T, sums[size:].T
        y_a, y_f = np.matmul(planes_a[:n], near.T), np.matmul(planes_f[:n], far.T)
        sq_a, sq_f = np.einsum("xjk,xjk->xj", y_a, y_a), np.einsum("xjk,xjk->xj", y_f, y_f)
        p, q = sq_a[:, 0] + sq_a[:, 1], sq_f[:, 0] + sq_f[:, 1]
        quartic = np.einsum("xk,xk->x", planes_a[:n, 2] ** 2, planes_a[:n, 2] ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            purity[start:start + n] = q / (p * p)
            estimate[start:start + n] = 2.0 * (u_far * far_norm_sq ** 1.5 * np.sqrt(quartic / q)
                                               + 2.0 * u_near * np.sqrt(sq_a[:, 2] / p))
        prob[start:start + n] = np.ldexp(p, 2 * exponent)
    return prob, purity, estimate


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
    renormalize the atoms: one ConditionalResult of arrays.  The moments
    come from lattice_moments where the state's labels route there; the
    other rows take one window_moments call where the labels' Fock window
    holds at most as many states as there are labels, else one
    outcome_moments call.  Every route's purities are clipped to 1, so
    lin_entropy lies in [0, 1], and each row's values do not depend on the
    grid.  A state that is not finite (its Kerr phase overflowed in
    `evolve`) resolves no outcome.  prob_density is the squared norm of the
    projected atomic state, so efficiency = lin_entropy * prob_density
    holds exactly.
    Unresolvable outcomes keep nan values and their reason in status.  x
    holds a copy of the grid (a scalar is a one-element grid)."""
    x_grid = np.array(x_grid, dtype=float, ndmin=1)
    raw = state.coeffs * oscillator_wavefunctions(state.n_max, x_grid).T
    finite = np.isfinite(state.coeffs).all()
    nonzero = finite & raw.any(axis=1)  # a zero row (every psi_n(x) underflowed) resolves nowhere
    (prob, purity), redo = np.full((2, x_grid.size), np.nan), nonzero
    routed = finite and state.labels.size >= LATTICE_MIN_ORDER
    spacing = lattice_spacing(state.labels) if routed else None
    if spacing is not None and spacing >= LATTICE_MIN_SPACING:  # README, cost model
        prob, purity, estimate = lattice_moments(spacing, raw)
        redo = nonzero & ~((estimate <= LATTICE_TOLERANCE) & (prob > PROBABILITY_FLOOR))
    if redo.any():  # README, cost model
        labels, _, dim = state.window
        prob[redo], purity[redo] = (
            window_moments(state.window, raw[redo]) if dim is not None and dim <= labels.size
            else outcome_moments(state.factor, raw[redo]))
    np.minimum(purity, 1.0, out=purity)
    resolved = prob > PROBABILITY_FLOOR
    status = np.where(resolved, OK, BELOW_FLOOR if finite else NONFINITE_STATE)
    prob = np.where(resolved, prob, np.nan)
    cond_coeffs = np.divide(raw, np.sqrt(prob)[:, None], where=resolved[:, None],
                            out=np.full(raw.shape, np.nan, dtype=complex))
    lin_entropy = 1.0 - purity
    return ConditionalResult(x_grid, cond_coeffs, prob, lin_entropy, lin_entropy * prob, status)


def efficiency_profile(zeta, kappa, time, x_grid=None, policy=DEFAULT_POLICY):
    """Conditional results over a grid of quadrature outcomes: one
    ConditionalResult of arrays.

    Unresolvable outcomes keep nan values and their reason in status
    instead of aborting the profile (`condition_on_quadrature`).
    """
    x_grid = np.asarray(DEFAULT_X_GRID if x_grid is None else x_grid, dtype=float)
    if not np.all(np.diff(x_grid) >= 0):
        raise ValueError("x_grid must be sorted ascending")
    return condition_on_quadrature(evolve(zeta, kappa, time, policy), x_grid)
