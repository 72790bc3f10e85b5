"""Conditional-measurement scenario checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from cavmotion.conditional import (
    BAND_PIVOT_FLOOR,
    FOCK_FACTOR_DIM,
    FOCK_FACTOR_POLICY,
    BandFactor,
    UnresolvableOutcomeError,
    condition_on_quadrature,
    efficiency_profile,
    evolve,
    gram_matrix,
    joint_moments,
    label_factor,
    outcome_moments,
    probability_density,
    purity_bruteforce,
)
from cavmotion.fock import (
    TruncationPolicy,
    coherent_coefficient,
    coherent_in_fock,
    oscillator_wavefunctions,
    truncation_order,
)


def random_instance(rng, n_max=6, label_scale=8.0):
    """Random conditional-style state: coefficients + coherent labels."""
    size = rng.integers(2, n_max + 2)
    coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
    angles = rng.uniform(0, 2 * np.pi, size=size)
    radii = rng.uniform(0, label_scale, size=size)
    labels = radii * np.exp(1j * angles)
    coeffs = coeffs / np.sqrt(joint_moments(coeffs, labels)[0])
    return coeffs, labels


def expanded_moments(state, x, dim):
    """(P, E) at outcome x with the labels expanded in a dim-term number basis.

    coherent_coefficient works in the log domain, so dim may exceed the
    hard cap of coherent_in_fock; a QR reduces the expansion to the
    labels' span before the moments are taken.
    """
    vecs = np.array([coherent_coefficient(mu, np.arange(dim)) for mu in state.labels]).T
    r = np.linalg.qr(vecs, mode="r")
    raw = state.coeffs * oscillator_wavefunctions(state.n_max, x)[:, 0]
    m = (r * raw) @ r.T
    prob = float(np.vdot(m, m).real)
    rho = m @ m.conj().T / prob
    return prob, 1.0 - float(np.vdot(rho, rho).real)


def oracle_dim(labels, tail_epsilon=1e-13):
    largest = float(np.max(np.abs(labels)))
    return truncation_order(largest, TruncationPolicy(tail_epsilon, hard_cap=4096)) + 10


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
        assert np.allclose(probability_density(state, x), want, rtol=1e-13)

    @pytest.mark.parametrize("zeta,kappa,t", [
        (0.4, 1.0, np.pi), (0.8, 2.0, 3 * np.pi),
        (2.0, 2.0, np.pi), (6.0, 1.0, np.pi), (6.0, 2.0, 3 * np.pi),
    ])
    def test_normalization(self, zeta, kappa, t):
        state = evolve(zeta, kappa, t)
        x = np.linspace(-12.0, 12.0, 4801)
        integral = simpson(probability_density(state, x), x=x)
        assert integral == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(zeta=st.floats(0.0, 3.0), log_kappa=st.floats(math.log(1e-4), math.log(2.0)),
           t=st.floats(0.0, 2.0 * np.pi))
    def test_normalization_property(self, zeta, log_kappa, t):
        state = evolve(zeta, math.exp(log_kappa), t)
        x = np.linspace(-10.0, 10.0, 801)
        integral = simpson(probability_density(state, x), x=x)
        assert integral == pytest.approx(1.0, abs=1e-9)

    def test_matches_conditioning_and_fock_oracle(self):
        state = evolve(1.7, 1.0, 2.0)
        x = np.linspace(-3.0, 3.0, 13)
        dens = probability_density(state, x)
        dim = oracle_dim(state.labels)
        for xi, di in zip(x, dens):
            assert di == condition_on_quadrature(state, xi).prob_density
            assert di == pytest.approx(expanded_moments(state, xi, dim)[0], rel=1e-10)
        assert probability_density(state, 0.5) == dens[7]


class TestConditioning:
    def test_vacuum_outcome_is_product(self):
        state = evolve(0.0, 1.0, np.pi)
        res = condition_on_quadrature(state, 0.0)
        assert res.lin_entropy == pytest.approx(0.0, abs=1e-12)
        assert res.efficiency == pytest.approx(0.0, abs=1e-12)

    def test_zero_coupling_never_entangles(self):
        state = evolve(1.4, 0.0, np.pi)
        for x in (-1.0, 0.0, 0.7):
            res = condition_on_quadrature(state, x)
            assert abs(res.lin_entropy) < 1e-12

    def test_normalization_in_gram_metric(self):
        state = evolve(0.8, 1.0, np.pi)
        res = condition_on_quadrature(state, 0.3)
        assert joint_moments(res.cond_coeffs, state.labels)[0] == pytest.approx(1.0, abs=1e-10)

    def test_efficiency_identity(self):
        state = evolve(0.6, 1.0, np.pi)
        res = condition_on_quadrature(state, -0.9)
        assert res.efficiency == res.lin_entropy * res.prob_density

    def test_entropy_range(self):
        state = evolve(2.0, 1.0, np.pi)
        cap = 1.0 - 1.0 / (state.n_max + 1)
        for x in np.linspace(-3, 3, 13):
            res = condition_on_quadrature(state, x)
            assert -1e-12 <= res.lin_entropy <= cap + 1e-9

    def test_unresolvable_outcome_raises(self):
        state = evolve(0.0, 1.0, np.pi)
        with pytest.raises(UnresolvableOutcomeError):
            condition_on_quadrature(state, 40.0)

    def test_efficiency_minimum_at_origin(self):
        # most probable outcome, least entangling
        state = evolve(0.8, 1.0, np.pi)
        eff = {x: condition_on_quadrature(state, x).efficiency for x in (-0.5, 0.0, 0.5)}
        assert eff[0.0] < eff[0.5]
        assert eff[0.0] < eff[-0.5]


class TestPurity:
    def test_single_term_is_pure(self):
        coeffs = np.array([1.0 + 0.0j])
        labels = np.array([2.0 + 1.0j])
        assert joint_moments(coeffs, labels)[1] == pytest.approx(1.0, abs=1e-12)

    def test_two_far_terms_half_purity(self):
        coeffs = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        labels = np.array([0.0, 12.0], dtype=complex)   # overlap ~ e^{-72}
        assert joint_moments(coeffs, labels)[1] == pytest.approx(0.5, abs=1e-5)

    def test_generic_point_matches_bruteforce(self):
        state = evolve(0.4, 1.0, np.pi)
        res = condition_on_quadrature(state, 0.7)
        dim = truncation_order(float(np.max(np.abs(state.labels))),
                               TruncationPolicy(tail_epsilon=1e-13)) + 10
        brute = purity_bruteforce(res.cond_coeffs, state.labels, dim)
        assert joint_moments(res.cond_coeffs, state.labels)[1] == pytest.approx(brute, abs=1e-8)

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
            gram = joint_moments(coeffs, labels)[1]
            brute = purity_bruteforce(coeffs, labels, dim)
            assert abs(gram - brute) < 1e-8


class TestFactoredKernel:
    def test_overlapping_labels_match_bruteforce(self):
        # a quartic Gram-matrix purity cancels to 1378 here
        state = evolve(2.0, 0.01, np.pi)
        res = condition_on_quadrature(state, -3.0)
        dim = oracle_dim(state.labels)
        assert 1.0 - res.lin_entropy == pytest.approx(
            purity_bruteforce(res.cond_coeffs, state.labels, dim), abs=1e-6)
        assert res.prob_density == pytest.approx(expanded_moments(state, -3.0, dim)[0], rel=1e-6)

    def test_cholesky_factor_matches_long_expansion(self):
        state = evolve(5.0, 0.2, np.pi)
        assert np.max(np.abs(state.labels)) > 20.0
        # too widely spread for the number-basis factor: label_factor uses
        # the pivoted Cholesky factor of G
        radius = float(np.max(np.abs(state.labels - state.labels.mean())))
        assert truncation_order(radius, FOCK_FACTOR_POLICY) + 1 > FOCK_FACTOR_DIM
        dim = oracle_dim(state.labels, tail_epsilon=1e-17)
        assert dim > 900
        for x in (-3.0, -1.0, 0.5, 2.5):
            prob, entropy = expanded_moments(state, x, dim)
            res = condition_on_quadrature(state, x)
            assert res.prob_density == pytest.approx(prob, rel=1e-12)
            assert res.lin_entropy == pytest.approx(entropy, abs=1e-12)

    def test_factor_reproduces_gram(self):
        rng = np.random.default_rng(11)
        for labels in (np.arange(9) * 0.05, np.arange(9) * 3.0 * np.exp(0.4j),
                       rng.normal(size=7) * 12 + 1j * rng.normal(size=7) * 12):
            b = label_factor(labels)
            assert np.allclose(b.conj().T @ b, gram_matrix(labels), rtol=0, atol=1e-13)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(zeta=st.floats(0.0, 8.0), log_kappa=st.floats(math.log(1e-4), math.log(2.0)),
           x=st.floats(-4.0, 4.0))
    def test_bounds_and_small_label_oracle(self, zeta, log_kappa, x):
        state = evolve(zeta, math.exp(log_kappa), np.pi)
        res = condition_on_quadrature(state, x)
        assert res.prob_density >= 0.0
        assert -1e-12 <= res.lin_entropy <= 1.0 + 1e-12
        if np.max(np.abs(state.labels)) <= 4.0:
            brute = purity_bruteforce(res.cond_coeffs, state.labels, oracle_dim(state.labels))
            assert res.lin_entropy == pytest.approx(1.0 - brute, abs=1e-6)


def band_to_dense(band):
    """The upper-triangular R of a BandFactor as a full matrix."""
    reach, size = band.diagonals.shape[0] - 1, band.diagonals.shape[1]
    r = np.zeros((size, size), dtype=complex)
    for k in range(reach + 1):
        r[np.arange(size - k), np.arange(k, size)] = band.diagonals[k, :size - k]
    return r


def unpivoted_band(labels):
    """BandFactor of the labels' Gram matrix from its unpivoted Cholesky factor."""
    return BandFactor.from_upper(np.linalg.cholesky(gram_matrix(labels)).conj().T)


class TestBandFactor:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(zeta=st.floats(5.0, 12.0), log_kappa=st.floats(math.log(0.3), math.log(2.0)),
           t=st.floats(0.3, 2.0 * np.pi - 0.3),
           x=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5))
    def test_band_kernel_matches_dense_kernel(self, zeta, log_kappa, t, x):
        # the same factor R, stored by diagonals and as a full matrix; complex
        # labels away from t = pi
        state = evolve(zeta, math.exp(log_kappa), t)
        assume(isinstance(state.factor, BandFactor))
        raw = state.coeffs * oscillator_wavefunctions(state.n_max, np.array(x)).T
        prob, purity = outcome_moments(state.factor, raw)
        dense_prob, dense_purity = outcome_moments(band_to_dense(state.factor), raw)
        assert np.all(np.abs(prob / dense_prob - 1.0) <= 1e-13)
        assert np.all(np.abs(purity - dense_purity) <= 1e-13)

    @pytest.mark.parametrize("t", [np.pi, 2.0])
    def test_factor_reproduces_gram(self, t):
        # Cholesky reads G's strict lower triangle and the real part of its
        # diagonal: at t = 2 the rounding of phases Im(conj(mu) nu) up to 1e5
        # leaves G off hermitian, and its diagonal off 1, by ~1e-11
        state = evolve(12.0, 1.0, t)
        r = band_to_dense(state.factor)
        product, gram = r.conj().T @ r, gram_matrix(state.labels)
        assert np.allclose(np.tril(product, -1), np.tril(gram, -1), rtol=0, atol=1e-13)
        assert np.allclose(np.diag(product), np.diag(gram).real, rtol=0, atol=1e-13)

    def test_band_kernel_matches_bruteforce(self):
        # labels up to 14 on a line, 1-2.5 apart: the band kernel called
        # directly (label_factor would expand such labels in the number
        # basis), against the explicit partial trace
        rng = np.random.default_rng(77)
        for _ in range(8):
            steps = rng.uniform(1.0, 2.5, size=rng.integers(3, 10))
            direction = np.exp(1j * rng.uniform(0, 2 * np.pi))
            labels = np.concatenate(([0.0], np.cumsum(steps))) * direction
            labels = labels * min(1.0, 14.0 / np.max(np.abs(labels)))
            band = unpivoted_band(labels)
            coeffs = rng.normal(size=labels.size) + 1j * rng.normal(size=labels.size)
            prob, purity = outcome_moments(band, coeffs[None])
            brute = purity_bruteforce(coeffs / np.sqrt(prob[0]), labels, oracle_dim(labels))
            assert purity[0] == pytest.approx(brute, abs=1e-10)
            assert prob[0] == pytest.approx(joint_moments(coeffs, labels)[0], rel=1e-12)

    @pytest.mark.parametrize("zeta,kappa", [(5.0, 0.2), (8.0, 0.3), (12.0, 0.05), (6.0, 0.36)])
    def test_ill_conditioned_gram_is_never_banded(self, zeta, kappa):
        # unpivoted Cholesky fails at (12, 0.05) and leaves a pivot below the
        # floor at the others
        state = evolve(zeta, kappa, np.pi)
        gram = gram_matrix(state.labels)
        assert np.linalg.cond(gram) > 5e3
        try:
            assert np.min(np.abs(np.diag(np.linalg.cholesky(gram))) ** 2) < BAND_PIVOT_FLOOR
        except np.linalg.LinAlgError:
            pass
        assert not isinstance(state.factor, BandFactor)

    def test_wide_well_separated_labels_are_banded(self):
        factor = evolve(12.0, 1.0, np.pi).factor
        assert isinstance(factor, BandFactor)
        assert factor.diagonals.shape == (9, 237)

    def test_small_orders_stay_dense(self):
        # a band kernel call costs more than two small dense products
        factor = evolve(3.0, 2.0, np.pi).factor
        assert isinstance(factor, np.ndarray) and factor.shape == (38, 38)

    @pytest.mark.parametrize("zeta,kappa,t", [(12.0, 1.0, np.pi), (8.0, 2.0, 2.5)])
    def test_views_give_the_same_bits(self, zeta, kappa, t):
        # several outcomes per band chunk at (8, 2): values do not depend on chunking
        x = np.linspace(-4.0, 4.0, 17)
        state = evolve(zeta, kappa, t)
        assert isinstance(state.factor, BandFactor)
        profile = efficiency_profile(zeta, kappa, t, x_grid=x)
        dens = probability_density(state, x)
        for i, xi in enumerate(x):
            point = condition_on_quadrature(state, xi)
            assert point.prob_density == profile.prob_density[i] == dens[i]
            assert point.lin_entropy == profile.lin_entropy[i]
            assert np.array_equal(point.cond_coeffs, profile.cond_coeffs[i])


class TestEfficiencyProfile:
    def test_vacuum_profile_is_flat_zero(self):
        profile = efficiency_profile(0.0, 1.0, np.pi)
        assert profile.efficiency.shape == (161,)
        assert list(profile.error) == [None] * 161
        assert np.all(np.abs(profile.efficiency) <= 1e-12)

    def test_peak_efficiency_grows_with_amplitude(self):
        peaks = []
        for zeta in (0.1, 0.4, 0.8):
            peaks.append(efficiency_profile(zeta, 1.0, np.pi).efficiency.max())
        assert peaks[0] < peaks[1] < peaks[2]

    def test_unresolvable_points_are_flagged_not_fatal(self):
        profile = efficiency_profile(0.0, 1.0, np.pi, x_grid=np.array([-40.0, 0.0, 40.0]))
        assert profile.error[0] == "outcome x=-40.0 has probability density below 1e-300"
        assert profile.error[1] is None and profile.error[2] is not None
        for values in (profile.prob_density, profile.lin_entropy, profile.efficiency):
            assert np.array_equal(np.isnan(values), [True, False, True])
        assert np.array_equal(np.isnan(profile.cond_coeffs).all(axis=1), [True, False, True])
        one = condition_on_quadrature(evolve(0.0, 1.0, np.pi), 0.0)
        assert profile.prob_density[1] == one.prob_density
        assert np.array_equal(profile.cond_coeffs[1], one.cond_coeffs)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            efficiency_profile(0.5, 1.0, np.pi, x_grid=np.array([1.0, 0.0]))

    def test_hard_cap_is_the_only_order_limit(self):
        assert evolve(12.0, 1.0, np.pi).n_max == 236
        profile = efficiency_profile(12.0, 1.0, np.pi, x_grid=np.array([-0.5, 0.0, 0.5]))
        assert np.all((0.0 <= profile.lin_entropy) & (profile.lin_entropy <= 1.0))
        with pytest.warns(UserWarning, match="hard_cap=40"):
            state = evolve(12.0, 1.0, np.pi, TruncationPolicy(hard_cap=40))
        assert state.n_max == 40

    def test_label_spacing_can_be_widened(self):
        # the doubled-label reading of the same state entangles at least as hard
        state = evolve(0.8, 1.0, np.pi)
        wide = replace(state, labels=2.0 * state.labels)
        e_narrow = condition_on_quadrature(state, 1.0).lin_entropy
        e_wide = condition_on_quadrature(wide, 1.0).lin_entropy
        assert e_wide >= e_narrow - 1e-12


class TestGramHelpers:
    def test_gram_matrix_is_hermitian_unit_diagonal(self):
        rng = np.random.default_rng(5)
        labels = rng.normal(size=6) + 1j * rng.normal(size=6)
        g = gram_matrix(labels)
        assert np.allclose(g, g.conj().T, rtol=0, atol=1e-14)
        assert np.allclose(np.diag(g), 1.0, rtol=0, atol=1e-14)
