"""Symmetric alpha-stable variates and LePage series machinery.

The elementary sampler is the Chambers-Mallows-Stuck construction in the
symmetric parameterization, so a variate X has characteristic function
exp(-|u|^alpha); alpha = 2 is Gaussian with variance 2, alpha = 1 Cauchy.

A LePage draw freezes the three independent ingredient sequences
(Poisson arrival times T_n, measure-distributed sites xi_n, Gaussian
weights g_n) behind one master seed with split sub-streams, so every
stochastic integral evaluated on the same draw shares its noise.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn, gammaln

from . import geometry
from .errors import DomainError

# replicates drawn per block by `lepage_replicates`; the block size fixes
# the order in which its stream is consumed
_CHUNK = 500


def standard_stable(rng, alpha, size=None):
    """Symmetric alpha-stable variate(s) with CF exp(-|u|^alpha).

    Chambers-Mallows-Stuck: U uniform on (-pi/2, pi/2), W standard
    exponential,
        X = sin(alpha U) / cos(U)^(1/alpha)
            * (cos((1-alpha) U) / W)^((1-alpha)/alpha)
    with the Cauchy branch X = tan(U) at alpha = 1.
    """
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha {alpha} outside (0, 2]")
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    if alpha == 1.0:
        return np.tan(u)
    w = rng.exponential(1.0, size=size)
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))


def gaussian_abs_moment(alpha):
    """E|g|^alpha for a standard normal: 2^(alpha/2) Gamma((alpha+1)/2) / sqrt(pi)."""
    return 2.0 ** (alpha / 2.0) * gamma_fn((alpha + 1.0) / 2.0) / np.sqrt(np.pi)


def sine_integral(alpha):
    """integral_0^inf x^-alpha sin(x) dx for alpha in (0, 2).

    Equals Gamma(1-alpha) cos(pi alpha / 2) with the alpha = 1 limit
    pi/2; evaluated through the reflection formula as
    pi / (2 Gamma(alpha) sin(pi alpha / 2)), which is pole-free on (0,2).
    """
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha {alpha} outside (0, 2)")
    return np.pi / (2.0 * gamma_fn(alpha) * np.sin(np.pi * alpha / 2.0))


def d_alpha(alpha):
    """Series normalization D_alpha = (E|g|^alpha * sine integral)^(-1/alpha)."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha {alpha} outside (0, 2)")
    return (gaussian_abs_moment(alpha) * sine_integral(alpha)) ** (-1.0 / alpha)


def d_alpha_quadrature(alpha):
    """Oracle for d_alpha with both closed-form factors replaced by
    adaptive numerical quadrature."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha {alpha} outside (0, 2)")
    moment, _ = integrate.quad(
        lambda x: 2.0 * x ** alpha * np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi),
        0.0, np.inf)
    head, _ = integrate.quad(lambda x: x ** -alpha * np.sin(x), 0.0, 40.0 * np.pi,
                             limit=800, points=[0.0])
    tail, _ = integrate.quad(lambda x: x ** -alpha, 40.0 * np.pi, np.inf,
                             weight="sin", wvar=1.0)
    return (moment * (head + tail)) ** (-1.0 / alpha)


def arrival_tail_sum(alpha, n_terms):
    """Exact sum_{n > N} E[T_n^(-2/alpha)] = Gamma(N+1-c) / ((c-1) Gamma(N)),
    c = 2/alpha; governs the conditional variance lost to truncation."""
    c = 2.0 / alpha
    return float(np.exp(gammaln(n_terms + 1.0 - c) - gammaln(n_terms)) / (c - 1.0))


@dataclass(frozen=True)
class LePageDraw:
    """Frozen LePage ingredients shared across all evaluation points.

    Sites are kept as integer measure words (`geometry.draw_sites`):
    `words[n]` carries the digits d_0..d_MAX_LEVEL of site xi_n, enough to
    place it on any mesh level (see `GasketMesh.site_vertices`).
    """
    alpha: float
    n_terms: int
    arrivals: np.ndarray
    words: np.ndarray
    gaussians: np.ndarray
    d_alpha: float
    seed: int
    tail_estimate: float


def make_draw(seed, n_terms, alpha):
    """Draw the frozen triple (T, xi, g) from one master seed.

    The three sequences come from split, non-overlapping sub-streams so
    each is independently reproducible.  Also records D_alpha and the
    truncation tail estimate N^(1-2/alpha) / (2/alpha - 1).
    """
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"LePage representation requires alpha in (0, 2), got {alpha}")
    s_t, s_xi, s_g = np.random.SeedSequence(seed).spawn(3)
    arrivals = np.random.default_rng(s_t).exponential(1.0, n_terms).cumsum()
    words = geometry.draw_sites(np.random.default_rng(s_xi), n_terms)
    gaussians = np.random.default_rng(s_g).standard_normal(n_terms)
    tail = n_terms ** (1.0 - 2.0 / alpha) / (2.0 / alpha - 1.0)
    return LePageDraw(alpha, n_terms, arrivals, words, gaussians,
                      d_alpha(alpha), seed, tail)


def direct_replicates(values, mesh, alpha, n_replicates, seed):
    """Independent copies of the stable integral of vertex values, exact in law.

    The stochastic integral of f is symmetric alpha-stable with scale
    ||f||_alpha, so standard variates scaled by the quadrature norm
    realize it.
    """
    values = np.asarray(values, dtype=float)
    scale = geometry.quadrature(np.abs(values) ** alpha, mesh) ** (1.0 / alpha)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return scale * standard_stable(rng, alpha, size=n_replicates)


def lepage_replicates(values, mesh, alpha, n_terms, n_replicates, seed,
                      tail_compensation=False):
    """Independent LePage partial sums D_alpha sum_n T_n^(-1/alpha) f(xi_n) g_n
    of a mesh function, vectorized.

    Sites are drawn as measure words and placed on their nearest vertices
    (`geometry.draw_sites`, `GasketMesh.site_vertices`), as in `make_draw`,
    so each replicate has the law of the series over a `make_draw` draw.
    `tail_compensation` adds the Gaussian surrogate of the discarded small
    jumps (variance D^2 * arrival_tail_sum * mean f(xi)^2), which matters
    for alpha close to 2 where the raw series converges slowly.
    """
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"LePage representation requires alpha in (0, 2), got {alpha}")
    values = np.asarray(values, dtype=float)
    d_a = d_alpha(alpha)
    tail = arrival_tail_sum(alpha, n_terms) if tail_compensation else 0.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = np.empty(n_replicates)
    for start in range(0, n_replicates, _CHUNK):
        r = min(_CHUNK, n_replicates - start)
        arr = rng.exponential(1.0, (r, n_terms)).cumsum(axis=1)
        fx = values[mesh.site_vertices(geometry.draw_sites(rng, (r, n_terms)))]
        g = rng.standard_normal((r, n_terms))
        if tail_compensation:
            var = d_a ** 2 * tail * np.einsum("ij,ij->i", fx, fx) / n_terms
        # the products in place, so they add no (r, n_terms) temporaries
        arr **= -1.0 / alpha
        arr *= fx
        arr *= g
        out[start:start + r] = d_a * arr.sum(axis=1)
        if tail_compensation:
            out[start:start + r] += np.sqrt(var) * rng.standard_normal(r)
        # free this block before the next one is drawn
        del arr, fx, g
    return out
