"""Conditional-measurement scenario checks."""

import contextlib
import math
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from cavmotion import conditional
from cavmotion.conditional import (
    BELOW_FLOOR,
    FOCK_FACTOR_DIM,
    FOCK_TAIL,
    LATTICE_MIN_ORDER,
    LATTICE_MIN_SPACING,
    LATTICE_PIVOT_FLOOR,
    LATTICE_TOLERANCE,
    PROBABILITY_FLOOR,
    JointState,
    condition_on_quadrature,
    efficiency_profile,
    evolve,
    fock_window,
    gram_matrix,
    label_factor,
    lattice_factor,
    lattice_moments,
    lattice_spacing,
    outcome_moments,
    purity_bruteforce,
    window_moments,
)
from cavmotion.fock import (
    TruncationPolicy,
    coherent_coefficient,
    coherent_in_fock,
    oscillator_wavefunctions,
    poisson_order,
    poisson_tails,
    truncation_order,
)


def random_instance(rng, n_max=6, label_scale=8.0):
    """Random conditional-style state: coefficients + coherent labels."""
    size = rng.integers(2, n_max + 2)
    coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
    angles = rng.uniform(0, 2 * np.pi, size=size)
    radii = rng.uniform(0, label_scale, size=size)
    labels = radii * np.exp(1j * angles)
    coeffs = coeffs / np.sqrt(outcome_moments(label_factor(labels), coeffs[None])[0][0])
    return coeffs, labels


def expanded_moments(state, x, dim):
    """(P, E) at outcome x with the labels expanded in a dim-term number basis.

    coherent_coefficient works in the log domain, so dim may exceed the
    MAX_ORDER of coherent_in_fock; a QR reduces the expansion to the
    labels' span before the moments are taken.
    """
    vecs = np.array([coherent_coefficient(mu, np.arange(dim)) for mu in state.labels]).T
    r = np.linalg.qr(vecs, mode="r")
    raw = state.coeffs * oscillator_wavefunctions(state.n_max, x)[:, 0]
    m = (r * raw) @ r.T
    prob = float(np.vdot(m, m).real)
    rho = m @ m.conj().T / prob
    return prob, 1.0 - float(np.vdot(rho, rho).real)


@pytest.fixture
def factor_calls(monkeypatch):
    """The label_factor calls condition_on_quadrature makes, one list entry each."""
    calls = []
    monkeypatch.setattr(conditional, "label_factor",
                        lambda *args: calls.append(args) or label_factor(*args))
    return calls


def oracle_dim(labels, tail_epsilon=1e-13):
    largest = float(np.max(np.abs(labels)))
    return poisson_order(largest * largest, tail_epsilon, 4096) + 10


class TestEvolve:
    def test_vacuum_field(self):
        state = evolve(0.0, 1.3, 2.1)
        assert state.coeffs[0] == 1.0
        assert np.all(state.labels == 0.0)

    def test_zero_coupling_keeps_atoms_still(self):
        state = evolve(0.9, 0.0, 2.5)
        assert np.all(state.labels == 0.0)

    def test_labels_at_odd_pi(self):
        # eta(pi) = 1 - e^{-i pi} = 2, so labels are 2 kappa n
        state = evolve(0.8, 1.0, np.pi)
        ns = np.arange(state.n_max + 1)
        assert np.allclose(state.labels, 2.0 * ns, rtol=0, atol=1e-12)

    def test_poisson_normalization_up_to_tail(self):
        for zeta in (0.5, 2.0, 6.0):
            state = evolve(zeta, 1.0, np.pi)
            total = float(np.sum(np.abs(state.coeffs) ** 2))
            assert 1.0 - 1e-12 <= total <= 1.0 + 1e-12

    def test_labels_linear_in_n(self):
        state = evolve(1.5, 0.7, 1.9)
        assert state.labels[0] == 0.0
        ns = np.arange(state.n_max + 1)
        assert np.array_equal(state.labels, ns * state.labels[1])

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            evolve(0.5, -1.0, np.pi)

    @pytest.mark.parametrize("kappa,zeta,t", [
        (1.0, 6.0, np.pi), (1.0, 6.0, 3 * np.pi),
        (2.0, 2.0, np.pi), (2.0, 2.0, 3 * np.pi),
    ])
    def test_kerr_phase_disappears_at_odd_pi_integer_kappa(self, kappa, zeta, t):
        state = evolve(zeta, kappa, t)
        weights = np.abs(coherent_in_fock(zeta, state.n_max + 1))
        phases = np.where(weights > 0, state.coeffs / np.where(weights > 0, weights, 1.0), 1.0)
        assert np.max(np.abs(phases - 1.0)) < 1e-10

    def test_sign_flip_of_zeta_flips_odd_coefficients_exactly(self):
        plus = evolve(0.8, 1.0, 2.2)
        minus = evolve(-0.8, 1.0, 2.2)
        signs = (-1.0) ** np.arange(plus.n_max + 1)
        assert np.array_equal(minus.coeffs, plus.coeffs * signs)
        assert np.array_equal(minus.labels, plus.labels)


class TestProbabilityDensity:
    def test_vacuum_is_gaussian(self):
        state = evolve(0.0, 1.0, np.pi)
        x = np.linspace(-3, 3, 31)
        want = np.pi**-0.5 * np.exp(-x * x)
        assert np.allclose(condition_on_quadrature(state, x).prob_density, want, rtol=1e-13)

    @pytest.mark.parametrize("zeta,kappa,t", [
        (0.4, 1.0, np.pi), (0.8, 2.0, 3 * np.pi),
        (2.0, 2.0, np.pi), (6.0, 1.0, np.pi), (6.0, 2.0, 3 * np.pi),
    ])
    def test_normalization(self, zeta, kappa, t):
        state = evolve(zeta, kappa, t)
        x = np.linspace(-12.0, 12.0, 4801)
        integral = simpson(condition_on_quadrature(state, x).prob_density, x=x)
        assert integral == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(zeta=st.floats(0.0, 3.0), log_kappa=st.floats(math.log(1e-4), math.log(2.0)),
           t=st.floats(0.0, 2.0 * np.pi))
    def test_normalization_property(self, zeta, log_kappa, t):
        state = evolve(zeta, math.exp(log_kappa), t)
        x = np.linspace(-10.0, 10.0, 801)
        integral = simpson(condition_on_quadrature(state, x).prob_density, x=x)
        assert integral == pytest.approx(1.0, abs=1e-9)

    def test_matches_conditioning_and_fock_oracle(self):
        state = evolve(1.7, 1.0, 2.0)
        x = np.linspace(-3.0, 3.0, 13)
        dens = condition_on_quadrature(state, x).prob_density
        dim = oracle_dim(state.labels)
        for i, (xi, di) in enumerate(zip(x, dens)):
            assert di == condition_on_quadrature(state, x[i:i + 1]).prob_density[0]
            assert di == pytest.approx(expanded_moments(state, xi, dim)[0], rel=1e-10)
        assert condition_on_quadrature(state, 0.5).prob_density[0] == dens[7]


class TestConditioning:
    def test_vacuum_outcome_is_product(self):
        state = evolve(0.0, 1.0, np.pi)
        res = condition_on_quadrature(state, [0.0])
        assert res.lin_entropy[0] == pytest.approx(0.0, abs=1e-12)
        assert res.efficiency[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_coupling_never_entangles(self):
        state = evolve(1.4, 0.0, np.pi)
        res = condition_on_quadrature(state, [-1.0, 0.0, 0.7])
        assert np.all(np.abs(res.lin_entropy) < 1e-12)

    def test_normalization_in_gram_metric(self):
        state = evolve(0.8, 1.0, np.pi)
        res = condition_on_quadrature(state, [0.3])
        norm_sq = outcome_moments(label_factor(state.labels), res.cond_coeffs)[0]
        assert norm_sq[0] == pytest.approx(1.0, abs=1e-10)

    def test_efficiency_identity(self):
        state = evolve(0.6, 1.0, np.pi)
        res = condition_on_quadrature(state, [-0.9])
        assert np.array_equal(res.efficiency, res.lin_entropy * res.prob_density)

    def test_entropy_range(self):
        state = evolve(2.0, 1.0, np.pi)
        cap = 1.0 - 1.0 / (state.n_max + 1)
        res = condition_on_quadrature(state, np.linspace(-3, 3, 13))
        assert np.all((-1e-12 <= res.lin_entropy) & (res.lin_entropy <= cap + 1e-9))

    def test_efficiency_minimum_at_origin(self):
        # most probable outcome, least entangling
        state = evolve(0.8, 1.0, np.pi)
        eff = condition_on_quadrature(state, [-0.5, 0.0, 0.5]).efficiency
        assert eff[1] < eff[2]
        assert eff[1] < eff[0]


class TestPurity:
    def test_single_term_is_pure(self):
        coeffs = np.array([1.0 + 0.0j])
        labels = np.array([2.0 + 1.0j])
        purity = outcome_moments(label_factor(labels), coeffs[None])[1]
        assert purity[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_far_terms_half_purity(self):
        coeffs = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        labels = np.array([0.0, 12.0], dtype=complex)   # overlap ~ e^{-72}
        purity = outcome_moments(label_factor(labels), coeffs[None])[1]
        assert purity[0] == pytest.approx(0.5, abs=1e-5)

    def test_generic_point_matches_bruteforce(self):
        state = evolve(0.4, 1.0, np.pi)
        res = condition_on_quadrature(state, [0.7])
        dim = truncation_order(float(np.max(np.abs(state.labels))),
                               TruncationPolicy(tail_epsilon=1e-13)) + 10
        brute = purity_bruteforce(res.cond_coeffs[0], state.labels, dim)
        purity = outcome_moments(label_factor(state.labels), res.cond_coeffs)[1]
        assert purity[0] == pytest.approx(brute, abs=1e-8)

    def test_bruteforce_vacuum_product(self):
        assert purity_bruteforce(np.array([1.0 + 0j]), np.array([0.0j]), 4) == pytest.approx(1.0, abs=1e-12)

    def test_bruteforce_reduced_trace_is_one(self):
        rng = np.random.default_rng(3)
        coeffs, labels = random_instance(rng, n_max=4, label_scale=3.0)
        dim = truncation_order(float(np.max(np.abs(labels))),
                               TruncationPolicy(tail_epsilon=1e-13)) + 10
        vecs = np.array([coherent_in_fock(mu, dim) for mu in labels])
        m = np.einsum("n,ni,nj->ij", coeffs, vecs, vecs)
        assert np.trace(m @ m.conj().T).real == pytest.approx(1.0, abs=1e-8)

    def test_bruteforce_dim_guard(self):
        with pytest.raises(ValueError, match="too small"):
            purity_bruteforce(np.array([1.0 + 0j]), np.array([8.0 + 0j]), 10)

    def test_gram_vs_bruteforce_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            coeffs, labels = random_instance(rng)
            dim = min(truncation_order(float(np.max(np.abs(labels))),
                                       TruncationPolicy(tail_epsilon=1e-13)) + 12, 512)
            gram = outcome_moments(label_factor(labels), coeffs[None])[1][0]
            brute = purity_bruteforce(coeffs, labels, dim)
            assert abs(gram - brute) < 1e-8


class TestFactoredKernel:
    def test_overlapping_labels_match_bruteforce(self):
        # a quartic Gram-matrix purity cancels to 1378 here
        state = evolve(2.0, 0.01, np.pi)
        res = condition_on_quadrature(state, [-3.0])
        dim = oracle_dim(state.labels)
        assert 1.0 - res.lin_entropy[0] == pytest.approx(
            purity_bruteforce(res.cond_coeffs[0], state.labels, dim), abs=1e-6)
        want = expanded_moments(state, -3.0, dim)[0]
        assert res.prob_density[0] == pytest.approx(want, rel=1e-6)

    def test_cholesky_factor_matches_long_expansion(self):
        state = evolve(5.0, 0.2, np.pi)
        assert np.max(np.abs(state.labels)) > 20.0
        # too widely spread for the number-basis factor: label_factor uses
        # the pivoted Cholesky factor of G
        radius = float(np.max(np.abs(state.labels - state.labels.mean())))
        assert poisson_tails(radius**2, FOCK_FACTOR_DIM - 1)[-1] >= FOCK_TAIL
        dim = oracle_dim(state.labels, tail_epsilon=1e-17)
        assert dim > 900
        x_grid = [-3.0, -1.0, 0.5, 2.5]
        res = condition_on_quadrature(state, x_grid)
        for i, x in enumerate(x_grid):
            prob, entropy = expanded_moments(state, x, dim)
            assert res.prob_density[i] == pytest.approx(prob, rel=1e-12)
            assert res.lin_entropy[i] == pytest.approx(entropy, abs=1e-12)

    def test_factor_reproduces_gram(self):
        rng = np.random.default_rng(11)
        for labels in (np.arange(9) * 0.05, np.arange(9) * 3.0 * np.exp(0.4j),
                       rng.normal(size=7) * 12 + 1j * rng.normal(size=7) * 12):
            b = label_factor(labels)
            assert np.allclose(b.conj().T @ b, gram_matrix(labels), rtol=0, atol=1e-13)

    def test_replaced_labels_get_a_fresh_factor(self):
        # assigning labels is refused, and a state built with new labels factors those
        state = evolve(3.0, 1.0, np.pi)
        other = evolve(3.0, 0.3, np.pi).labels
        with pytest.raises(FrozenInstanceError):
            state.labels = other
        fresh = label_factor(replace(state, labels=other).labels)
        assert np.allclose(fresh.conj().T @ fresh, gram_matrix(other), rtol=0, atol=1e-13)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(zeta=st.floats(0.0, 8.0), log_kappa=st.floats(math.log(1e-4), math.log(2.0)),
           x=st.floats(-4.0, 4.0))
    def test_bounds_and_small_label_oracle(self, zeta, log_kappa, x):
        state = evolve(zeta, math.exp(log_kappa), np.pi)
        res = condition_on_quadrature(state, [x])
        assert res.prob_density[0] >= 0.0
        assert -1e-12 <= res.lin_entropy[0] <= 1.0 + 1e-12
        if np.max(np.abs(state.labels)) <= 4.0:
            brute = purity_bruteforce(res.cond_coeffs[0], state.labels, oracle_dim(state.labels))
            assert res.lin_entropy[0] == pytest.approx(1.0 - brute, abs=1e-6)


def independent_factor(labels):
    """A factor of the labels' Gram matrix that is not the closed form: label_factor's
    QR or pivoted Cholesky factor, or G's LAPACK Cholesky factor where label_factor
    takes the closed form (real)."""
    factor = label_factor(labels)
    if np.isrealobj(factor):
        factor = np.linalg.cholesky(gram_matrix(labels)).conj().T
    return factor


def lattice_rows(state, x):
    """The kernels' input: one row of coefficients times psi_n(x) per outcome."""
    return state.coeffs * oscillator_wavefunctions(state.n_max, np.asarray(x, dtype=float)).T


def reference_moments(spacing, amplitudes, dps=40):
    """(P, purity) of sum_n a[n] |n lambda>|n lambda>, |lambda|^2 = spacing, at dps
    digits from the double amplitudes: P = sum conj(a_m) a_n e^(-s (m-n)^2) and
    purity P^2 = sum conj(F_S) F_T e^(-s (S-T)^2 / 2), F_S = sum_{m+p=S} a_m a_p
    e^(-s (m-p)^2 / 2); pairs whose weight is below 10^-(dps+10) are left out."""
    with mpmath.workdps(dps):
        s = mpmath.mpf(spacing)
        reach = int(math.sqrt(2.0 * (dps + 10) * math.log(10.0) / spacing)) + 1
        w = [mpmath.exp(-s * d * d / 2) for d in range(2 * reach + 1)]
        a = [mpmath.mpc(complex(v)) for v in amplitudes]
        size = len(a)
        prob = mpmath.re(sum(mpmath.conj(a[m]) * a[n] * w[abs(m - n)] ** 2
                             for m in range(size)
                             for n in range(max(0, m - reach), min(size, m + reach + 1))))
        sums = [sum(a[m] * a[big - m] * w[abs(2 * m - big)]
                    for m in range(max(0, big - size + 1), min(size, big + 1))
                    if abs(2 * m - big) <= 2 * reach) for big in range(2 * size - 1)]
        quartic = mpmath.re(sum(mpmath.conj(sums[i]) * sums[j] * w[abs(i - j)]
                                for i in range(len(sums))
                                for j in range(max(0, i - reach), min(len(sums), i + reach + 1))))
        return float(prob), float(quartic / prob**2)


class TestBandFactor:
    """The closed-form lattice factor R and the states that take it.  R is
    upper triangular and banded: its entries fall off as e^(-s (m-k)^2 / 2)
    and are zeroed below FACTOR_FLOOR."""

    @pytest.mark.parametrize("t", [np.pi, 2.0])
    def test_factor_reproduces_gram(self, t):
        # complex labels up to |mu| = 400 at t = 2: R^T R is the lattice's real
        # Toeplitz G, which at t = pi is gram_matrix of the (real) labels
        state = evolve(12.0, 1.0, t)
        spacing, n = lattice_spacing(state.labels), np.arange(state.labels.size)
        r = lattice_factor(spacing, n.size)
        assert np.array_equal(r, np.triu(r)) and np.all(r >= 0.0)
        gram = np.exp(-0.5 * spacing * np.subtract.outer(n, n) ** 2.0)
        assert np.allclose(r.T @ r, gram, rtol=0, atol=1e-15)
        if t == np.pi:
            assert np.allclose(gram, gram_matrix(state.labels), rtol=0, atol=1e-15)

    def test_complex_lattice_factor_matches_30_digit_reference(self):
        # complex labels n lambda at t = 2 with an ill-conditioned G: the
        # pivoted Cholesky factors the real lattice n |lambda|, whose overlaps
        # carry no rounded phases
        state = evolve(12.0, 0.3, 2.0)
        spacing = lattice_spacing(state.labels)
        raw = lattice_rows(state, [-4.0, 0.0, 4.0])
        prob, purity = outcome_moments(label_factor(state.labels), raw)
        for i, row in enumerate(raw):
            want_prob, want_purity = reference_moments(spacing, row, dps=30)
            assert abs(prob[i] / want_prob - 1.0) <= 2e-14
            assert abs(purity[i] - want_purity) <= 1e-14

    def test_window_row_at_small_spacing_holds_its_error(self, factor_calls):
        # at N+1 = 87 and s = 4.5e-4 the profile takes the Fock-window kernel
        # (17 states), whose rows carry no error estimate; against 60 digits
        # P is off by 8.3e-11 (relative) and the purity by 8.2e-12, where the
        # label factor (17 x 87) it replaced was off by 3.4e-9 and 4.6e-11
        state = evolve(6.037, 0.01058, np.pi)
        spacing = lattice_spacing(state.labels)
        assert state.labels.size == 87 and spacing < LATTICE_MIN_SPACING
        assert fock_window(state.labels)[2] == 17 and label_factor(state.labels).shape == (17, 87)
        res = condition_on_quadrature(state, [0.05])
        assert factor_calls == []
        want_prob, want_purity = reference_moments(spacing, lattice_rows(state, [0.05])[0],
                                                   dps=60)
        assert abs(res.prob_density[0] / want_prob - 1.0) <= 2e-10
        assert abs(1.0 - res.lin_entropy[0] - want_purity) <= 2e-11

    @pytest.mark.parametrize("zeta,kappa", [(5.0, 0.2), (8.0, 0.3), (12.0, 0.05), (6.0, 0.36)])
    def test_ill_conditioned_gram_is_never_banded(self, zeta, kappa):
        # the closed-form factor's smallest pivot (z; z)_N is below the floor:
        # label_factor takes the QR or the pivoted Cholesky factor
        state = evolve(zeta, kappa, np.pi)
        assert np.linalg.cond(gram_matrix(state.labels)) > 5e3
        r = lattice_factor(lattice_spacing(state.labels), state.labels.size)
        assert r[-1, -1] ** 2 < LATTICE_PIVOT_FLOOR
        assert not np.isrealobj(label_factor(state.labels))

    def test_wide_well_separated_labels_are_banded(self):
        factor = label_factor(evolve(12.0, 1.0, np.pi).labels)
        assert np.array_equal(factor, lattice_factor(4.0, 237))
        rows, cols = np.nonzero(factor)
        assert set(cols - rows) == set(range(9))

    def test_small_orders_stay_dense(self, factor_calls):
        # below LATTICE_MIN_ORDER labels a one-outcome request costs less
        # through two dense products with the factor, here the closed form
        state = evolve(3.0, 2.0, np.pi)
        assert state.labels.size == 38 < LATTICE_MIN_ORDER
        factor = label_factor(state.labels)
        assert np.isrealobj(factor) and factor.shape == (38, 38)
        x = np.linspace(-4.0, 4.0, 9)
        res = condition_on_quadrature(state, x)
        assert len(factor_calls) == 1
        prob, purity = outcome_moments(factor, lattice_rows(state, x))
        assert np.array_equal(res.prob_density, prob)
        assert np.array_equal(res.lin_entropy, 1.0 - purity)


class TestLatticeMoments:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(zeta=st.floats(0.5, 12.0), reach=st.floats(0.0, 1.0),
           t=st.floats(0.3, 2.0 * np.pi - 0.3),
           x=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=5))
    def test_lattice_kernel_matches_factor_kernel(self, zeta, reach, t, x):
        # kappa log-uniform from the smallest routed spacing to 2, complex
        # labels away from t = pi; certified rows only
        low = math.sqrt(LATTICE_MIN_SPACING) / abs(1.0 - np.exp(-1j * t))
        state = evolve(zeta, low * (2.0 / low) ** reach, t)
        spacing = lattice_spacing(state.labels)
        assert spacing >= LATTICE_MIN_SPACING * (1.0 - 1e-12)
        raw = lattice_rows(state, x)
        prob, purity, estimate = lattice_moments(spacing, raw)
        certified = (estimate <= LATTICE_TOLERANCE) & (prob > PROBABILITY_FLOOR)
        assume(certified.any())
        want_prob, want_purity = outcome_moments(independent_factor(state.labels), raw[certified])
        assert np.all(np.abs(prob[certified] / want_prob - 1.0) <= 1e-12)
        assert np.all(np.abs(purity[certified] - want_purity) <= 1e-12)

    def test_lattice_kernel_matches_40_digit_reference(self):
        # labels up to |mu| = 400 at t = 2, where G's phases carry rounding
        state = evolve(12.0, 1.0, 2.0)
        spacing = lattice_spacing(state.labels)
        raw = lattice_rows(state, [-3.0, -1.0, 0.2, 1.5, 3.5])
        prob, purity, estimate = lattice_moments(spacing, raw)
        assert np.all(estimate <= LATTICE_TOLERANCE)
        for i, row in enumerate(raw):
            want_prob, want_purity = reference_moments(spacing, row)
            assert prob[i] == pytest.approx(want_prob, rel=2e-15)
            assert purity[i] == pytest.approx(want_purity, rel=2e-15)

    def test_lattice_kernel_matches_bruteforce(self):
        # labels n lambda up to 14 with |lambda| 1-2.5 and random coefficients,
        # against the explicit partial trace and the number-basis factor
        rng = np.random.default_rng(77)
        for _ in range(8):
            step = rng.uniform(1.0, 2.5)
            size = int(rng.integers(3, int(14.0 / step) + 2))
            labels = np.arange(size) * (step * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
            prob, purity, estimate = lattice_moments(lattice_spacing(labels), coeffs[None])
            assert estimate[0] <= LATTICE_TOLERANCE
            brute = purity_bruteforce(coeffs / np.sqrt(prob[0]), labels, oracle_dim(labels))
            assert purity[0] == pytest.approx(brute, abs=1e-10)
            expanded = outcome_moments(label_factor(labels), coeffs[None])[0]
            assert prob[0] == pytest.approx(expanded[0], rel=1e-12)

    def test_far_outcome_with_tiny_density(self):
        # P ~ 1e-157 at x = +-30: purity P^2 underflows unless each row is
        # scaled before the products
        state = evolve(10.0, 1.0, np.pi)
        raw = lattice_rows(state, [-30.0, 30.0])
        prob, purity, estimate = lattice_moments(lattice_spacing(state.labels), raw)
        assert np.all((1e-160 < prob) & (prob < 1e-155))
        assert np.all(estimate <= LATTICE_TOLERANCE)
        want_prob, want_purity = outcome_moments(independent_factor(state.labels), raw)
        assert np.allclose(prob / want_prob, 1.0, rtol=0, atol=1e-12)
        assert np.allclose(purity, want_purity, rtol=0, atol=1e-12)
        res = condition_on_quadrature(state, [-30.0, 30.0])
        assert np.array_equal(res.prob_density, prob)

    def test_uncertified_rows_are_the_factor_kernels(self, factor_calls):
        # s = 0.01: most rows fail the estimate and take the Fock-window
        # kernel (window 50 states <= N + 1 = 69), which builds no factor
        state = evolve(5.0, 0.05, np.pi)
        x = np.linspace(-4.0, 4.0, 33)
        raw = lattice_rows(state, x)
        prob, purity, estimate = lattice_moments(lattice_spacing(state.labels), raw)
        redo = estimate > LATTICE_TOLERANCE
        assert 0 < redo.sum() < x.size
        res = condition_on_quadrature(state, x)
        window = fock_window(state.labels)
        assert window[2] == 50 and factor_calls == []
        want_prob, want_purity = window_moments(window, raw[redo])
        assert np.array_equal(res.prob_density[redo], want_prob)
        assert np.array_equal(res.lin_entropy[redo], 1.0 - want_purity)
        assert np.array_equal(res.prob_density[~redo], prob[~redo])
        assert np.array_equal(res.lin_entropy[~redo], 1.0 - np.minimum(purity[~redo], 1.0))

    @pytest.mark.parametrize("zeta,kappa,t,x,refused,route", [
        # s = 0.01: most rows fail the estimate, and the Fock window (50) holds N + 1 = 69
        (5.0, 0.05, np.pi, (-4.0, 4.0, 161), 142, "window"),
        (8.0, 0.1, np.pi, (-4.0, 4.0, 161), 0, None),  # every row certified
        # N + 1 = 13 < LATTICE_MIN_ORDER: no row routed, and the window (254) is wider
        (0.8, 1.0, np.pi, (-4.0, 4.0, 161), 161, "factor"),
        (0.8, 1.0, -1e308, (-4.0, 4.0, 161), None, None),  # the Kerr phase overflows: none resolvable
        # outcomes beyond the oscillator's reach: every psi_n(x) underflows to 0
        (12.0, 1.0, np.pi, (100.0, 1000.0, 9), None, None),
    ], ids=["5.0-0.05-3.141592653589793-142", "8.0-0.1-3.141592653589793-0",
            "0.8-1.0-3.141592653589793-161", "0.8-1.0--1e+308-None", "12.0-1.0-beyond-reach"])
    def test_one_label_factor_call_per_grid(self, zeta, kappa, t, x, refused, route,
                                            monkeypatch, factor_calls):
        # the rows the lattice kernel does not certify, or all of a state it
        # does not take, go in one call to the Fock-window kernel or to the
        # label factor's, and only the latter builds a factor; rows of zero
        # amplitudes, unresolvable on any route, reach neither
        calls = []

        def spy(name, kernel):
            def counted(first, amplitudes):
                calls.append((name, len(amplitudes)))
                return kernel(first, amplitudes)
            return counted

        monkeypatch.setattr(conditional, "outcome_moments", spy("factor", outcome_moments))
        monkeypatch.setattr(conditional, "window_moments", spy("window", window_moments))
        state = evolve(zeta, kappa, t)
        res = condition_on_quadrature(state, np.linspace(*x))
        assert calls == ([] if not refused else [(route, refused)])
        assert len(factor_calls) == (route == "factor")
        assert np.all(np.isnan(res.prob_density)) == (refused is None)
        if zeta == 12.0:
            assert np.all(res.status == BELOW_FLOOR)

    def test_certified_rows_below_the_floor_take_no_other_route(self, monkeypatch):
        # the far tails of this profile hold certified lattice rows whose P is
        # at most PROBABILITY_FLOOR: unresolvable on any route, they go to no
        # other kernel, and the floor leaves each of them nan values
        calls = []

        def spy(name, kernel):
            return lambda *args: calls.append(name) or kernel(*args)

        monkeypatch.setattr(conditional, "outcome_moments", spy("factor", outcome_moments))
        monkeypatch.setattr(conditional, "window_moments", spy("window", window_moments))
        res = condition_on_quadrature(evolve(8.0, 1.0, np.pi), np.linspace(-40.0, 40.0, 801))
        assert calls == []
        unresolved = res.status != conditional.OK
        assert unresolved.any() and not unresolved.all()
        assert np.isnan(res.lin_entropy[unresolved]).all()
        assert np.isnan(res.efficiency[unresolved]).all()

    def test_clip_moves_no_value_beyond_its_estimate(self):
        # nearly product states: one coefficient and 1e-9 noise, purity
        # 1 - O(1e-18), which rounds above 1 on some rows
        rng = np.random.default_rng(3)
        size, x = LATTICE_MIN_ORDER + 12, np.linspace(-3.0, 3.0, 25)
        over = 0
        for spacing in (0.05, 0.5, 2.0):
            for k in range(0, size, 6):
                coeffs = 1e-9 * (rng.normal(size=size) + 1j * rng.normal(size=size))
                coeffs[k] = 1.0
                state = JointState(kappa=0.0, zeta=0.0, time=0.0, n_max=size - 1, coeffs=coeffs,
                                   labels=np.arange(size) * complex(math.sqrt(spacing)))
                _, purity, estimate = lattice_moments(spacing, lattice_rows(state, x))
                assert np.all(estimate <= LATTICE_TOLERANCE)
                clipped = 1.0 - condition_on_quadrature(state, x).lin_entropy
                assert np.all(clipped <= 1.0)
                assert np.all(np.abs(clipped - purity) <= estimate * purity)
                over += np.count_nonzero(purity > 1.0)
        assert over > 0

    @pytest.mark.parametrize("zeta,kappa,t",
                             [(12.0, 1.0, np.pi), (8.0, 2.0, 2.5), (5.0, 0.05, np.pi)])
    def test_views_give_the_same_bits(self, zeta, kappa, t):
        # a one-outcome grid equals that row of a larger one, over more rows
        # than one chunk of the kernel; at (5, 0.05) most rows take the
        # Fock-window kernel
        x = np.linspace(-4.0, 4.0, 41)
        state = evolve(zeta, kappa, t)
        assert state.labels.size >= LATTICE_MIN_ORDER
        assert lattice_spacing(state.labels) >= LATTICE_MIN_SPACING
        profile = efficiency_profile(zeta, kappa, t, x_grid=x)
        for i in range(x.size):
            point = condition_on_quadrature(state, x[i:i + 1])
            assert point.prob_density[0] == profile.prob_density[i]
            assert point.lin_entropy[0] == profile.lin_entropy[i]
            assert np.array_equal(point.cond_coeffs[0], profile.cond_coeffs[i])

    def test_kernel_memory_is_bounded(self):
        # 161 outcomes at N + 1 = 129: the two factors (0.65 MiB) and one
        # chunk's arrays take no more than the label factor and its kernel
        state = evolve(8.0, 0.3, np.pi)
        raw = lattice_rows(state, np.linspace(-4.0, 4.0, 161))
        peaks = []
        for kernel in (lambda: lattice_moments(lattice_spacing(state.labels), raw),
                       lambda: outcome_moments(label_factor(state.labels), raw)):
            tracemalloc.start()
            try:
                kernel()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1] < 1.5 * 2**20


class TestWindowMoments:
    """window_moments: the Hankel moments of labels whose Fock window holds at
    most as many states as there are labels, in place of the label factor."""

    @pytest.mark.parametrize("zeta,kappa,x,prob_bound,purity_bound", [
        (7.75, 0.0291, -2.0, 5e-12, 2e-12),  # s = 3.4e-3: every row, P = 1.6e-14
        (6.67, 0.0599, 3.1, 1e-14, 1e-14),  # s = 0.014: a lattice row refused
        (5.0, 0.05, -2.6, 2e-14, 1e-14),  # s = 0.01: a lattice row refused
    ])
    def test_rows_match_60_digit_reference(self, zeta, kappa, x, prob_bound, purity_bound,
                                           factor_calls):
        # measured: 1.3e-12 and 4.3e-13 (the label factor: 2.7e-12, 1.3e-12),
        # 0 and 1.3e-15, 4.9e-15 and 1.4e-15
        state = evolve(zeta, kappa, np.pi)
        spacing = lattice_spacing(state.labels)
        row = lattice_rows(state, [x])
        if spacing >= LATTICE_MIN_SPACING:
            assert lattice_moments(spacing, row)[2][0] > LATTICE_TOLERANCE
        assert fock_window(state.labels)[2] <= state.labels.size
        res = condition_on_quadrature(state, [x])
        assert factor_calls == []
        want_prob, want_purity = reference_moments(spacing, row[0], dps=60)
        assert abs(res.prob_density[0] / want_prob - 1.0) <= prob_bound
        assert abs(1.0 - res.lin_entropy[0] - want_purity) <= purity_bound

    def test_wide_window_matches_factor_kernel(self):
        # a window of 253 states at radius^2 = 143, where e^(-radius^2) is
        # below FACTOR_FLOOR: the table carries e^(radius^2), so no term the
        # scale would lift above the floor is zeroed (measured 7.1e-15, 6.1e-15)
        state = evolve(13.5, 0.042, np.pi)
        labels, _, dim = window = fock_window(state.labels)
        assert dim == 253 < state.labels.size
        assert np.exp(-np.max(np.abs(labels - labels.mean())) ** 2) < conditional.FACTOR_FLOOR
        raw = lattice_rows(state, np.linspace(-4.0, 4.0, 9))
        prob, purity = window_moments(window, raw)
        want_prob, want_purity = outcome_moments(label_factor(state.labels), raw)
        assert np.all(np.abs(prob / want_prob - 1.0) <= 5e-14)
        assert np.all(np.abs(purity - want_purity) <= 5e-14)

    @pytest.mark.parametrize("zeta,kappa", [(6.037, 0.01058), (7.75, 0.0291), (6.67, 0.0599)])
    def test_views_give_the_same_bits(self, zeta, kappa, factor_calls):
        # a one-outcome grid equals that row of a 41-row one: every row of a
        # state below the lattice spacing, or the lattice's refused rows
        x = np.linspace(-4.0, 4.0, 41)
        state = evolve(zeta, kappa, np.pi)
        profile = condition_on_quadrature(state, x)
        assert factor_calls == []
        for i in range(x.size):
            point = condition_on_quadrature(state, x[i:i + 1])
            assert point.prob_density[0] == profile.prob_density[i]
            assert point.lin_entropy[0] == profile.lin_entropy[i]
            assert np.array_equal(point.cond_coeffs[0], profile.cond_coeffs[i])

    def test_window_holds_at_most_256_states(self, monkeypatch, factor_calls):
        # FOCK_FACTOR_DIM caps the window of window_moments as of the QR
        # factor: labels whose window takes 257 states, fewer than their
        # count (303), take the label factor's kernel
        calls = []
        monkeypatch.setattr(conditional, "window_moments",
                            lambda *args: calls.append(args) or window_moments(*args))
        state = evolve(14.0, 0.04002, np.pi)
        radius = float(np.max(np.abs(state.labels - state.labels.mean())))
        tails = poisson_tails(radius**2, FOCK_FACTOR_DIM)
        assert np.flatnonzero(tails < FOCK_TAIL)[0] + 1 == 257 < state.labels.size
        assert fock_window(state.labels)[2] is None
        res = condition_on_quadrature(state, [0.3])
        assert calls == [] and len(factor_calls) == 1 and res.status[0] == conditional.OK
        narrower = evolve(14.0, 0.0399, np.pi)
        assert fock_window(narrower.labels)[2] == FOCK_FACTOR_DIM == 256
        condition_on_quadrature(narrower, [0.3])
        assert len(calls) == 1 and len(factor_calls) == 1

    def test_kernel_memory_is_bounded(self):
        # 161 outcomes at N + 1 = 100 and a window of 95 states: the complex
        # moment table, the Hankel index, the complex scale and three complex
        # 95 x 95 matrices (M', its conjugate and M' M'^H), 0.91 MiB; measured
        # 0.925 MiB
        state = evolve(6.67, 0.0599, np.pi)
        labels, _, dim = window = fock_window(state.labels)
        raw = lattice_rows(state, np.linspace(-4.0, 4.0, 161))
        table, index, matrix = labels.size * (2 * dim - 1) * 16, dim * dim * 8, dim * dim * 16
        tracemalloc.start()
        try:
            window_moments(window, raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * (table + index + 4 * matrix)


def poisson_tail(lam, n):
    """P(X > n), X ~ Poisson(lam), to 30 digits: the regularized lower
    incomplete gamma function P(n + 1, lam)."""
    with mpmath.workdps(30):
        return mpmath.gammainc(n + 1, 0, lam, regularized=True)


class TestFockWindow:
    """fock_window: the labels label_factor factors, their lattice spacing, and
    the first number-basis size whose Poisson tail is below FOCK_TAIL."""

    def test_complex_lattice_factors_real_labels(self):
        # n lambda at t = 2 becomes n |lambda|, the same G with no rounded phases
        state = evolve(12.0, 0.3, 2.0)
        labels, spacing, dim = fock_window(state.labels)
        assert spacing == abs(state.labels[1]) ** 2
        assert np.array_equal(labels, np.arange(state.labels.size) * complex(math.sqrt(spacing)))
        assert np.allclose(labels.real, np.abs(state.labels), rtol=1e-15, atol=0)
        assert dim is None  # radius 60

    def test_scattered_labels_are_kept(self):
        labels = np.array([0.5, -1.0 + 2.0j, 3.0j])
        window = fock_window(labels)
        assert np.array_equal(window[0], labels) and window[1] is None

    def test_coincident_labels_take_one_state(self):
        labels, spacing, dim = fock_window(evolve(3.0, 0.0, np.pi).labels)
        assert not labels.any() and spacing == 0.0 and dim == 1

    @pytest.mark.parametrize("radius", [0.01, 0.3, 1.0, 2.5, 6.0, 9.0, 12.0])
    def test_dim_is_the_first_tail_below_fock_tail(self, radius):
        # against 30-digit tails, around the centroid 0.5 - 1j
        labels = 0.5 - 1j + radius * np.array([1.0, -1.0, 0.6 + 0.8j, -0.6 - 0.8j])
        dim = fock_window(labels)[2]
        lam = float(np.max(np.abs(labels - labels.mean()))) ** 2
        assert poisson_tail(lam, dim - 1) < FOCK_TAIL <= poisson_tail(lam, dim - 2)

    def test_window_grows_past_256_states_at_the_30_digit_crossing(self):
        # P(X > 255) = FOCK_TAIL at lam = 145.71: just below, 256 states hold
        # the labels; just above, 257 would, and there is no window
        with mpmath.workdps(30):
            crossing = float(mpmath.findroot(
                lambda lam: poisson_tail(lam, FOCK_FACTOR_DIM - 1) - FOCK_TAIL, 150))
        for scale, dim in ((1.0 - 1e-9, FOCK_FACTOR_DIM), (1.0 + 1e-9, None)):
            radius = math.sqrt(crossing * scale)
            assert fock_window(np.array([-radius, radius]))[2] == dim

    @pytest.mark.parametrize("radius", [16.0, 16.5, 1e100, 1e200])
    def test_no_window_at_radius_squared_256(self, radius):
        assert fock_window(np.array([-radius, radius]))[2] is None

    def test_labels_whose_distance_squared_overflows_are_orthogonal(self):
        # |mu - nu|^2 overflows to inf past about 1.3e154, and exp(-inf) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = label_factor(np.array([-1e200, 1e200]))
        assert np.array_equal(factor, np.eye(2))


class TestEfficiencyProfile:
    def test_vacuum_profile_is_flat_zero(self):
        profile = efficiency_profile(0.0, 1.0, np.pi)
        assert profile.efficiency.shape == (161,)
        assert np.array_equal(profile.status, np.full(161, conditional.OK))
        assert np.all(np.abs(profile.efficiency) <= 1e-12)

    def test_peak_efficiency_grows_with_amplitude(self):
        peaks = []
        for zeta in (0.1, 0.4, 0.8):
            peaks.append(efficiency_profile(zeta, 1.0, np.pi).efficiency.max())
        assert peaks[0] < peaks[1] < peaks[2]

    def test_each_status_has_a_known_input(self):
        # at the default zeta 0.8 and t = pi, outcomes at +-40 have densities
        # below the floor, and kappa 1e160 overflows the Kerr phase
        x = np.array([-40.0, 0.0, 40.0])
        profile = efficiency_profile(0.8, 1.0, np.pi, x_grid=x)
        assert list(profile.status) == [BELOW_FLOOR, conditional.OK, BELOW_FLOOR]
        profile = efficiency_profile(0.8, 1e160, np.pi, x_grid=x)
        assert list(profile.status) == [conditional.NONFINITE_STATE] * 3
        assert np.isnan(profile.prob_density).all() and np.isnan(profile.efficiency).all()

    def test_unresolvable_points_are_flagged_not_fatal(self):
        profile = efficiency_profile(0.0, 1.0, np.pi, x_grid=np.array([-40.0, 0.0, 40.0]))
        assert list(profile.status) == [BELOW_FLOOR, conditional.OK, BELOW_FLOOR]
        for values in (profile.prob_density, profile.lin_entropy, profile.efficiency):
            assert np.array_equal(np.isnan(values), [True, False, True])
        assert np.array_equal(np.isnan(profile.cond_coeffs).all(axis=1), [True, False, True])
        one = condition_on_quadrature(evolve(0.0, 1.0, np.pi), [0.0])
        assert profile.prob_density[1] == one.prob_density[0]
        assert np.array_equal(profile.cond_coeffs[1], one.cond_coeffs[0])

    def test_unsorted_grid_rejected(self):
        # a nan compares False with anything, so it cannot vouch for the order
        for grid in ([1.0, 0.0], [0.0, np.nan, -1.0]):
            with pytest.raises(ValueError, match="sorted"):
                efficiency_profile(0.5, 1.0, np.pi, x_grid=np.array(grid))

    def test_default_grid_survives_a_write_through_a_result(self):
        profile = efficiency_profile(0.8, 1.0, np.pi)
        with contextlib.suppress(ValueError):  # a read-only grid refuses the write
            profile.x[0] = 99.0
        assert efficiency_profile(0.8, 1.0, np.pi).x[0] == -4.0

    def test_a_state_past_512_photons_is_refused(self):
        assert evolve(12.0, 1.0, np.pi).n_max == 236
        profile = efficiency_profile(12.0, 1.0, np.pi, x_grid=np.array([-0.5, 0.0, 0.5]))
        assert np.all((0.0 <= profile.lin_entropy) & (profile.lin_entropy <= 1.0))
        with pytest.raises(ValueError, match="needs more than 512 photons"):
            evolve(30.0, 1.0, np.pi)

    def test_label_spacing_can_be_widened(self):
        # the doubled-label reading of the same state entangles at least as hard
        state = evolve(0.8, 1.0, np.pi)
        wide = replace(state, labels=2.0 * state.labels)
        e_narrow = condition_on_quadrature(state, [1.0]).lin_entropy[0]
        e_wide = condition_on_quadrature(wide, [1.0]).lin_entropy[0]
        assert e_wide >= e_narrow - 1e-12


class TestGramHelpers:
    def test_gram_matrix_is_hermitian_unit_diagonal(self):
        rng = np.random.default_rng(5)
        labels = rng.normal(size=6) + 1j * rng.normal(size=6)
        g = gram_matrix(labels)
        assert np.allclose(g, g.conj().T, rtol=0, atol=1e-14)
        assert np.allclose(np.diag(g), 1.0, rtol=0, atol=1e-14)

    def test_gram_matrix_of_large_complex_labels_is_exactly_hermitian(self):
        # labels up to |mu| = 400 with phases Im(conj(mu) nu) up to 1e5 rad
        g = gram_matrix(evolve(12.0, 1.0, 2.0).labels)
        assert np.array_equal(g, g.conj().T)
        assert np.array_equal(np.diag(g), np.ones(g.shape[0]))
