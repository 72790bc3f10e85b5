"""Number-basis and coherent-state primitive checks."""

import math
import warnings

import numpy as np
import pytest

from cavmotion.fock import (
    TruncationPolicy,
    coherent_coefficient,
    coherent_in_fock,
    coherent_overlap,
    oscillator_wavefunctions,
    poisson_order,
    poisson_tails,
    truncation_order,
)

# the relative accuracy poisson_tails states for tops up to 512
TAIL_ACCURACY = 1e-12

# explicit physicists' Hermite polynomials, the closed-form oracle
HERMITE = [
    lambda x: np.ones_like(x),
    lambda x: 2 * x,
    lambda x: 4 * x**2 - 2,
    lambda x: 8 * x**3 - 12 * x,
    lambda x: 16 * x**4 - 48 * x**2 + 12,
    lambda x: 32 * x**5 - 160 * x**3 + 120 * x,
    lambda x: 64 * x**6 - 480 * x**4 + 720 * x**2 - 120,
]


def psi_closed_form(n, x):
    x = np.asarray(x, dtype=float)
    norm = math.sqrt(2.0**n * math.factorial(n)) * math.pi**0.25
    return HERMITE[n](x) * np.exp(-0.5 * x * x) / norm


def poisson_tail(lam, n):
    """Direct-summation oracle for P(X > n), X ~ Poisson(lam)."""
    pmf = math.exp(-lam)
    total = pmf
    for k in range(1, n + 1):
        pmf *= lam / k
        total += pmf
    return 1.0 - total


class TestOscillatorWavefunction:
    def test_ground_state_at_origin(self):
        assert oscillator_wavefunctions(0, 0.0)[0, 0] == pytest.approx(math.pi**-0.25, rel=1e-14)

    def test_first_excited_node_at_origin(self):
        assert oscillator_wavefunctions(1, 0.0)[1, 0] == 0.0

    def test_n3_against_explicit_hermite(self):
        # direct closed-form evaluation with H3(x) = 8x^3 - 12x
        expected = psi_closed_form(3, 1.2)
        assert oscillator_wavefunctions(3, 1.2)[3, 0] == pytest.approx(float(expected), rel=1e-12)
        assert float(expected) == pytest.approx(-0.0304, abs=5e-5)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_recurrence_matches_closed_form(self, n):
        x = np.linspace(-6, 6, 241)
        got = oscillator_wavefunctions(n, x)[n]
        want = psi_closed_form(n, x)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-250)

    def test_parity(self):
        x = np.linspace(0.0, 8.0, 401)
        psis_pos = oscillator_wavefunctions(60, x)
        psis_neg = oscillator_wavefunctions(60, -x)
        signs = (-1.0) ** np.arange(61)
        assert np.allclose(psis_neg, signs[:, None] * psis_pos, rtol=1e-12, atol=0.0)

    def test_orthonormality_by_quadrature(self):
        from scipy.integrate import simpson
        x = np.linspace(-12.0, 12.0, 6001)
        psis = oscillator_wavefunctions(30, x)
        gram = simpson(psis[:, None, :] * psis[None, :, :], x=x, axis=-1)
        assert np.allclose(gram, np.eye(31), atol=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            oscillator_wavefunctions(-1, 0.0)
        with pytest.raises(ValueError):
            oscillator_wavefunctions(513, 0.0)

    def test_finite_far_out(self):
        vals = oscillator_wavefunctions(200, np.array([-30.0, 0.0, 30.0]))
        assert np.all(np.isfinite(vals))

    def test_zero_where_the_square_overflows(self):
        # x^2 overflows past |x| ~ 1.3e154; exp(-inf) = 0, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = oscillator_wavefunctions(5, np.array([-1e300, 1e300]))
        assert np.array_equal(vals, np.zeros((6, 2)))


class TestCoherentCoefficient:
    def test_vacuum(self):
        assert coherent_coefficient(0.0, 0) == 1.0
        assert coherent_coefficient(0.0, 3) == 0.0

    def test_small_n_formula(self):
        # e^{-2} * 2^4 / sqrt(4!)
        expected = math.exp(-2.0) * 16.0 / math.sqrt(24.0)
        assert coherent_coefficient(2.0, 4) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.442, abs=5e-4)

    def test_large_amplitude_stays_finite(self):
        vals = coherent_coefficient(6.0, np.arange(512))
        assert np.all(np.isfinite(vals))
        vals = coherent_coefficient(10.0 + 2.0j, np.arange(512))
        assert np.all(np.isfinite(vals))

    def test_real_negative_parity_exact(self):
        n = np.arange(40)
        plus = coherent_coefficient(0.8, n)
        minus = coherent_coefficient(-0.8, n)
        assert np.array_equal(minus, plus * (-1.0) ** n)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            coherent_coefficient(1.0, -1)


class TestCoherentOverlap:
    def test_identical_states(self):
        assert coherent_overlap(0.0, 0.0) == 1.0
        rng = np.random.default_rng(7)
        for mu in rng.normal(size=5) + 1j * rng.normal(size=5):
            assert coherent_overlap(mu, mu) == pytest.approx(1.0, abs=1e-14)

    def test_vacuum_coherent(self):
        assert coherent_overlap(0.0, 4.0) == pytest.approx(math.exp(-8.0), rel=1e-13)

    def test_magnitude_bounded(self):
        rng = np.random.default_rng(11)
        mu = rng.normal(scale=4, size=50) + 1j * rng.normal(scale=4, size=50)
        nu = rng.normal(scale=4, size=50) + 1j * rng.normal(scale=4, size=50)
        assert np.all(np.abs(coherent_overlap(mu, nu)) <= 1.0 + 1e-12)

    def test_matches_fock_inner_product(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            mu = complex(rng.normal(), rng.normal())
            nu = complex(rng.normal(), rng.normal())
            dim = max(truncation_order(3 * max(abs(mu), abs(nu))), 24)
            lhs = coherent_overlap(mu, nu)
            rhs = np.vdot(coherent_in_fock(mu, dim), coherent_in_fock(nu, dim))
            assert abs(lhs - rhs) < 1e-9


class TestTruncationOrder:
    def test_vacuum(self):
        assert truncation_order(0.0) <= 1

    def test_against_direct_tail_sum(self):
        for zeta in (0.8, 1.5, 3.0):
            n = truncation_order(zeta)
            lam = zeta * zeta
            assert poisson_tail(lam, n) < 1e-12
            if n > 0:
                assert poisson_tail(lam, n - 1) >= 1e-12

    def test_moderate_amplitude(self):
        assert truncation_order(0.8) <= 20

    def test_large_amplitude_range(self):
        assert 80 <= truncation_order(6.0) <= 120

    def test_monotone_in_amplitude(self):
        orders = [truncation_order(z) for z in np.linspace(0.0, 6.0, 25)]
        assert all(a <= b for a, b in zip(orders, orders[1:]))

    def test_refuses_a_sum_past_512_photons(self):
        # zeta 19.2 needs 512 photons for a tail below 1e-12, and a looser
        # tail reaches further; past that the sum is refused, not cut
        assert truncation_order(19.2) == 512
        assert truncation_order(20.0, TruncationPolicy(tail_epsilon=1e-7)) == 508
        with pytest.raises(ValueError, match=r"\|zeta\| = 20.0 needs more than 512 photons: "
                                             r"its Poisson tail past 512 is 3\.4\d\de-08, "
                                             r"not below tail_epsilon = 1\.000e-12"):
            truncation_order(20.0)
        with pytest.raises(ValueError, match="is 1.000e[+]00"):
            truncation_order(30.0, TruncationPolicy(tail_epsilon=0.5))

    def test_overflowing_mean_photon_number_raises(self):
        with pytest.raises(OverflowError, match="mean photon number"):
            truncation_order(1e200)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tail_epsilon=0.0)
        with pytest.raises(TypeError):  # the tail is the one truncation setting
            TruncationPolicy(hard_cap=512)


class TestCoherentInFock:
    def test_vacuum_vector(self):
        assert np.array_equal(coherent_in_fock(0.0, 4), [1, 0, 0, 0])

    def test_unit_amplitude_two_components(self):
        v = coherent_in_fock(1.0, 2)
        assert v == pytest.approx([math.exp(-0.5), math.exp(-0.5)], rel=1e-13)

    def test_norm_completeness(self):
        dim = truncation_order(2.0)
        norm_sq = float(np.sum(np.abs(coherent_in_fock(2.0, dim + 1)) ** 2))
        assert 1.0 - 1e-12 <= norm_sq <= 1.0 + 1e-12

    def test_dim_errors(self):
        with pytest.raises(ValueError):
            coherent_in_fock(1.0, 0)
        with pytest.raises(ValueError):
            coherent_in_fock(1.0, 1000)


class TestAgainstSpecialFunctions:
    """The numpy-only tail and log-factorials against scipy.special and
    mpmath, which only the tests use."""

    ZETAS = np.linspace(0.0, 25.0, 4001)

    @pytest.fixture(scope="class")
    def reference_tails(self):
        special = pytest.importorskip("scipy.special")
        # regularized lower incomplete gamma P(N+1, lam) = P(X > N)
        return special.gammainc(np.arange(513.0)[None, :] + 1.0, self.ZETAS[:, None] ** 2)

    @pytest.mark.parametrize("top", [1, 64, 512])
    @pytest.mark.parametrize("tail_epsilon", [1e-16, 1e-12, 1e-6, 0.5])
    def test_order_equals_gammainc_order(self, tail_epsilon, top, reference_tails):
        # lam = zeta^2 runs to 625, past top + 2, so every top is met both by
        # the summed tail and by 1 - CDF, and the misses (None) are checked
        misses = 0
        for zeta, tails in zip(self.ZETAS, reference_tails[:, :top + 1]):
            hits = np.flatnonzero(tails < tail_epsilon)
            got = poisson_order(zeta * zeta, tail_epsilon, top)
            assert (got is None) == (hits.size == 0), f"zeta={zeta}: order {got}"
            if got is None:
                misses += 1
            elif got != hits[0]:
                # allowed only where the reference tails in between lie
                # within the stated accuracy of tail_epsilon
                between = tails[min(got, hits[0]):max(got, hits[0])]
                assert np.all(np.abs(between - tail_epsilon) <= TAIL_ACCURACY * tail_epsilon), (
                    f"zeta={zeta}: order {got}, gammainc order {hits[0]}")
        assert misses > 0

    def test_order_of_a_non_finite_mean_is_none(self):
        for lam in (math.inf, math.nan):
            assert poisson_order(lam, 0.5, 512) is None

    def test_tail_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        lams = np.concatenate([[1e-6, 0.3, 1.0, 63.0, 66.0, 100.0, 510.0, 514.0, 625.0],
                               rng.uniform(0.0, 625.0, 15)])
        worst = 0.0
        for lam, top in ((lam, top) for lam in lams for top in (64, 512)):
            tails = poisson_tails(lam, top)
            for n in sorted({0, 1, top // 2, top - 1, top, *rng.integers(0, top + 1, 4)}):
                with mpmath.workdps(30):
                    want = float(mpmath.gammainc(n + 1, 0, lam, regularized=True))
                if want > 1e-290:
                    worst = max(worst, abs(tails[n] - want) / want)
        assert worst <= TAIL_ACCURACY

    def test_vacuum_tail_is_zero(self):
        assert np.array_equal(poisson_tails(0.0, 3), np.zeros(4))

    def test_coefficient_against_gammaln_form(self):
        special = pytest.importorskip("scipy.special")
        n = np.arange(601)
        for zeta in (1e-3, 0.8, -2.0, 6.0, 15.0, 10.0 + 2.0j, -3.0 - 4.0j):
            r = abs(zeta)
            want = np.exp(-0.5 * r * r + n * np.log(r) - 0.5 * special.gammaln(n + 1.0)
                          + 1j * n * np.angle(zeta))
            got = coherent_coefficient(zeta, n)
            normal = np.abs(want) > 1e-290
            assert np.all(np.abs(got - want)[normal] <= 1e-12 * np.abs(want)[normal])
            assert np.all(np.abs(got[~normal]) <= 1e-289)
