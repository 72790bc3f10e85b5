"""Number-basis and coherent-state primitives.

Everything here is a pure function. Weights like zeta^n / sqrt(n!) are
evaluated in the log domain, so they stay finite in double precision at
every photon number up to MAX_ORDER.  A photon-number sum is cut where its
Poisson tail falls below tail_epsilon, and refused if that needs more.
"""

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TAIL_EPSILON = 1e-12
MAX_ORDER = 512  # the largest photon number any sum or basis here runs to
LOG_TINY = math.log(np.finfo(float).tiny)  # exp underflows below it, and slowly


@dataclass(frozen=True)
class TruncationPolicy:
    """Poisson-tail criterion used to cut off photon-number sums.

    The retained order N is the smallest one whose Poisson tail
    sum_{n>N} e^{-|zeta|^2} |zeta|^{2n} / n!  falls below tail_epsilon;
    truncation_order refuses a sum that needs more than MAX_ORDER photons.
    """

    tail_epsilon: float = DEFAULT_TAIL_EPSILON

    def __post_init__(self):
        if not (0.0 < self.tail_epsilon < 1.0):
            raise ValueError(f"tail_epsilon must be in (0, 1), got {self.tail_epsilon}")


DEFAULT_POLICY = TruncationPolicy()

_LOG_FACTORIALS = np.zeros(0)  # log k! = math.lgamma(k + 1), grown on demand


def _log_factorials(top):
    """log k! for k = 0..top, from one table per process."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS  # another thread may replace it with a shorter one
    if top >= table.size:
        table = _LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(2 * top + 2)])
    return table[:top + 1]


def oscillator_wavefunctions(n_max, x):
    """All psi_n(x) for n = 0..n_max at once; shape (n_max+1,) + x.shape.

    psi_n(x) = pi^(-1/4) (2^n n!)^(-1/2) H_n(x) exp(-x^2/2), evaluated with
    the normalized three-term recurrence
        psi_n = x sqrt(2/n) psi_{n-1} - sqrt((n-1)/n) psi_{n-2},
    which stays bounded where the raw Hermite polynomials overflow.
    """
    if n_max < 0 or n_max > MAX_ORDER:
        raise ValueError(f"order n_max={n_max} outside [0, {MAX_ORDER}]")
    # past |x| = 1e300 every psi_n(x) is 0, as at 1e300, but sqrt(2) x would overflow
    x = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), -1e300, 1e300)
    out = np.empty((n_max + 1,) + x.shape)
    with np.errstate(over="ignore"):  # x^2 overflows past |x| ~ 1.3e154, and exp(-inf) = 0
        out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(2, n_max + 1):
        out[k] = x * np.sqrt(2.0 / k) * out[k - 1] - np.sqrt((k - 1) / k) * out[k - 2]
    return out


def coherent_coefficient(zeta, n):
    """Number-basis weight e^(-|zeta|^2/2) zeta^n / sqrt(n!) of |zeta>.

    n may be an integer or an integer array.  Real zeta keeps its parity
    signs (-1)^n exactly; complex zeta accumulates the phase n*arg(zeta).
    """
    zeta = complex(zeta)
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("photon number n must be >= 0")
    r = abs(zeta)
    if r == 0.0:
        out = np.where(n == 0, 1.0 + 0.0j, 0.0j)
        return out if out.ndim else complex(out)
    logmag = -0.5 * r * r + n * np.log(r) - 0.5 * _log_factorials(np.max(n, initial=0))[n]
    if zeta.imag == 0.0:
        sign = np.where((zeta.real > 0) | (n % 2 == 0), 1.0, -1.0)
        out = np.exp(logmag) * sign + 0.0j
    else:
        out = np.exp(logmag + 1j * n * np.angle(zeta))
    return out if out.ndim else complex(out)


def coherent_overlap(mu, nu):
    """Overlap <mu|nu> = exp(-|mu|^2/2 - |nu|^2/2 + conj(mu) nu).

    Evaluated through the identity exponent = -|mu-nu|^2/2 + i Im(conj(mu) nu)
    whose real part is never positive, so far-apart labels underflow to 0
    instead of overflowing.  The phase is taken as Re mu Im nu - Im mu Re nu,
    antisymmetric in (mu, nu) to the bit, so a Gram matrix of overlaps is
    exactly hermitian with a unit diagonal.  Broadcasts over array arguments.
    """
    mu = np.asarray(mu, dtype=complex)
    nu = np.asarray(nu, dtype=complex)
    phase = mu.real * nu.imag - mu.imag * nu.real
    with np.errstate(over="ignore"):  # |mu - nu|^2 overflows to inf, and exp(-inf) = 0
        out = np.exp(-0.5 * np.abs(mu - nu) ** 2 + 1j * phase)
    return out if out.ndim else complex(out)


def poisson_tails(lam, top):
    """P(X > N), X ~ Poisson(lam), for N = 0..top: 1e-12 relative for top <= 512.

    Below lam = top + 2 each tail sums its log-domain terms exp(k log lam -
    lam - log k!), smallest first, for k up to top + 41 + 12 sqrt(lam); the
    rest is under 1e-28 of it.  Beyond, each tail exceeds 1/2 and 1 - CDF is
    exact to rounding.  Terms below the smallest normal float count as 0."""
    if lam == 0.0:
        return np.zeros(top + 1)
    last = top + 41 + math.ceil(12.0 * math.sqrt(lam)) if lam < top + 2 else top
    exponent = np.arange(last + 1.0) * math.log(lam) - lam - _log_factorials(last)
    pmf = np.exp(exponent, out=np.zeros(last + 1), where=exponent > LOG_TINY)
    return np.cumsum(pmf[::-1])[::-1][1:top + 2] if last > top else 1.0 - np.cumsum(pmf)


def poisson_order(lam, tail, top):
    """Smallest N <= top with P(X > N) < tail, X ~ Poisson(lam), or None
    (also for a non-finite lam)."""
    if not math.isfinite(lam):
        return None
    hits = np.flatnonzero(poisson_tails(lam, top) < tail)
    return int(hits[0]) if hits.size else None


def truncation_order(zeta, policy=DEFAULT_POLICY):
    """Smallest N whose Poisson tail beats policy.tail_epsilon.

    Monotone nondecreasing in |zeta|.  Raises OverflowError where the mean
    photon number |zeta|^2 overflows, and ValueError where N would exceed
    MAX_ORDER.
    """
    r = abs(complex(zeta))
    if not math.isfinite(r * r):
        raise OverflowError(f"mean photon number |zeta|^2 overflows at |zeta| = {r}")
    order = poisson_order(r * r, policy.tail_epsilon, MAX_ORDER)
    if order is None:
        raise ValueError(f"|zeta| = {r} needs more than {MAX_ORDER} photons: its Poisson tail "
                         f"past {MAX_ORDER} is {poisson_tails(r * r, MAX_ORDER)[-1]:.3e}, "
                         f"not below tail_epsilon = {policy.tail_epsilon:.3e}")
    return order


def coherent_in_fock(mu, dim):
    """|mu> expanded in the truncated number basis: component n for n < dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim > MAX_ORDER:
        raise ValueError(f"dim={dim} exceeds MAX_ORDER={MAX_ORDER}")
    return np.atleast_1d(coherent_coefficient(mu, np.arange(dim)))
