"""Symmetric alpha-stable variates and LePage series machinery.

The elementary sampler is the Chambers-Mallows-Stuck construction in the
symmetric parameterization, so a variate X has characteristic function
exp(-|u|^alpha); alpha = 2 is Gaussian with variance 2, alpha = 1 Cauchy.

A LePage draw freezes the three independent ingredient sequences
(Poisson arrival times T_n, measure-distributed sites xi_n, Gaussian
weights g_n) behind one master seed with split sub-streams, so every
stochastic integral evaluated on the same draw shares its noise.  None
of the three depends on alpha, so one draw serves every alpha: only the
weights D_alpha T_n^(-1/alpha) g_n, formed by `lepage_replicates`, do.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, gammaln

from . import geometry, shards
from .constants import check_alpha
from .errors import ContractError, DomainError, check_memory

# the fewest replicates a forked shard of `lepage_replicates` draws: at
# level 6 and N = 10^4, 16 replicates a shard only pay for the fork
MIN_REPLICATES_PER_SHARD = 32


def standard_stable(rng, alpha, size=None):
    """Symmetric alpha-stable variate(s) with CF exp(-|u|^alpha).

    Chambers-Mallows-Stuck: U uniform on (-pi/2, pi/2), W standard
    exponential,
        X = sin(alpha U) / cos(U)^(1/alpha)
            * (cos((1-alpha) U) / W)^((1-alpha)/alpha)
    with the Cauchy branch X = tan(U) at alpha = 1.
    """
    check_alpha(alpha)
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
    check_alpha(alpha, series=True)
    return np.pi / (2.0 * gamma_fn(alpha) * np.sin(np.pi * alpha / 2.0))


def d_alpha(alpha):
    """Series normalization D_alpha = (E|g|^alpha * sine integral)^(-1/alpha)."""
    check_alpha(alpha, series=True)
    return (gaussian_abs_moment(alpha) * sine_integral(alpha)) ** (-1.0 / alpha)


def d_alpha_quadrature(alpha):
    """Oracle for d_alpha with both closed-form factors replaced by fixed
    numerical rules, none using the Gamma function or a reflection formula
    (within 1e-13 of `d_alpha` for alpha in 0.05..1.99):

    - E|g|^alpha = sqrt(2/pi) int_0^inf x^alpha e^(-x^2/2) dx by the
      exp-sinh rule x = exp(pi/2 sinh t), trapezoidal in t on [-4.5, 2.5]
      with step 1/32;
    - int_0^1 x^-alpha sin x dx by the term-wise sine series
      sum_k (-1)^k / ((2k+1)! (2k+2-alpha)), 14 terms;
    - int_1^A x^-alpha sin x dx, A = 40 pi, by 24-point Gauss-Legendre on
      [1, pi] and on each half-period [k pi, (k+1) pi];
    - int_A^inf x^-alpha sin x dx as the imaginary part of the integration
      by parts series i e^(iA) A^-alpha sum_k (alpha)_k (-i/A)^k, 24 terms.
    """
    check_alpha(alpha, series=True)
    t = np.arange(-144, 81) / 32.0
    x = np.exp(np.pi / 2.0 * np.sinh(t))
    # dx = x pi/2 cosh(t) dt
    moment = np.sqrt(2.0 / np.pi) * np.sum(
        x ** (alpha + 1.0) * np.exp(-x * x / 2.0) * np.pi / 2.0 * np.cosh(t)) / 32.0
    k = np.arange(14)
    odd_factorials = np.cumprod(np.arange(1.0, 28.0))[2 * k]
    head = np.sum((-1.0) ** k / (odd_factorials * (2 * k + 2.0 - alpha)))
    nodes, weights = np.polynomial.legendre.leggauss(24)
    ends = np.concatenate([[1.0], np.pi * np.arange(1.0, 41.0)])
    half = np.diff(ends)[:, None] / 2.0
    xs = ends[:-1, None] + half * (nodes + 1.0)
    middle = np.sum(half * weights * xs ** -alpha * np.sin(xs))
    a, k = ends[-1], np.arange(24)
    pochhammer = np.cumprod(np.concatenate([[1.0], alpha + k[:-1]]))
    tail = (1j * np.exp(1j * a) * a ** -alpha * np.sum(pochhammer * (-1j / a) ** k)).imag
    return (moment * (head + middle + tail)) ** (-1.0 / alpha)


def arrival_tail_sum(alpha, n_terms):
    """Exact sum_{n > N} E[T_n^(-2/alpha)] = Gamma(N+1-c) / ((c-1) Gamma(N)),
    c = 2/alpha; it scales the variance lost to truncation, finite iff N + 1 > c."""
    c = 2.0 / alpha
    if not n_terms + 1 > c:
        raise DomainError(f"the tail sum over n > N diverges at alpha {alpha}: "
                          f"n_terms must exceed 2/alpha - 1 = {c - 1.0:g}")
    return float(np.exp(gammaln(n_terms + 1.0 - c) - gammaln(n_terms)) / (c - 1.0))


@dataclass(frozen=True)
class LePageDraw:
    """Frozen LePage ingredients shared across all evaluation points and
    every alpha: none of them depends on alpha, only the weights formed
    from them by `lepage_replicates` do.

    Sites are kept as integer measure words (`geometry.draw_sites`):
    `words[n]` carries the digits d_0..d_MAX_LEVEL of site xi_n, enough to
    place it on any mesh level (see `GasketMesh.site_vertices`).
    """
    n_terms: int
    arrivals: np.ndarray
    words: np.ndarray
    gaussians: np.ndarray


def make_draw(seed, n_terms):
    """Draw the frozen triple (T, xi, g) from one master seed, an integer or
    a `np.random.SeedSequence`.

    The three sequences come from split, non-overlapping sub-streams so
    each is independently reproducible.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    if isinstance(seed, np.random.SeedSequence):
        # spawn from a fresh copy: spawning advances the caller's object, and
        # one seed must give one draw however often it is passed
        seed = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)
    else:
        seed = np.random.SeedSequence(seed)
    s_t, s_xi, s_g = seed.spawn(3)
    arrivals = np.random.default_rng(s_t).exponential(1.0, n_terms).cumsum()
    words = geometry.draw_sites(np.random.default_rng(s_xi), n_terms)
    gaussians = np.random.default_rng(s_g).standard_normal(n_terms)
    return LePageDraw(n_terms, arrivals, words, gaussians)


def direct_replicates(values, mesh, alpha, n_replicates, seed):
    """Independent copies of the stable integral of vertex values, exact in law.

    The stochastic integral of f is symmetric alpha-stable with scale
    ||f||_alpha, so standard variates scaled by the quadrature norm
    realize it.
    """
    check_alpha(alpha)
    scale = geometry.alpha_norm(values, alpha, mesh)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return scale * standard_stable(rng, alpha, size=n_replicates)


def lepage_replicates(values, mesh, alpha, n_terms, n_replicates, seed,
                      tail_compensation=False):
    """Independent LePage partial sums D_alpha sum_n w_n f(xi_n) g_n of mesh
    functions, one `make_draw` per replicate.

    `values` holds one function per column, shape (n_vertices, k), and the
    result has shape (n_replicates, k); a 1-D `values` gives a 1-D result.
    A sequence `alpha` adds a leading axis, one entry per alpha.
    Replicate k is the draw of `np.random.SeedSequence(seed, spawn_key=(k,))`,
    the k-th spawned child of the seed, integrated against every column
    and for every alpha, so the columns and the alphas share their noise,
    the result is linear in `values` on each draw, and replicate k does not
    depend on `n_replicates` or on the other alphas.  Its sites are placed
    once on their nearest vertices (`GasketMesh.site_vertices`); each alpha
    sums its weights D_alpha w_n g_n per vertex and integrates `values`
    against those point masses.

    The raw series has w_n = T_n^(-1/alpha).  `tail_compensation` adds the
    Gaussian surrogate of the discarded small jumps, which matters for
    alpha close to 2 where the raw series converges slowly; it is folded
    into the weights, w_n = sqrt(T_n^(-2/alpha) + tau / N),
    tau = `arrival_tail_sum`: given T and xi, sum_n w_n g_n f(xi_n) is
    Gaussian with the series variance plus the surrogate's D^2 tau mean
    f(xi)^2.

    The replicates are drawn in contiguous shards (`shards.cuts`, at least
    `MIN_REPLICATES_PER_SHARD` each), each writing its rows straight into
    one shared array, so the values do not depend on the shard count.
    CapacityError if that array and its private copy exceed physical memory.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim > 1:
        raise ContractError(f"alpha must be a float or a sequence, got shape {alphas.shape}")
    # each alpha with D_alpha, which checks it, and the per-term surrogate
    # variance tau / N
    series = [(a, d_alpha(a), arrival_tail_sum(a, n_terms) / n_terms)
              for a in alphas.reshape(-1).tolist()]
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or len(values) != mesh.n_vertices:
        raise ContractError(f"values of shape {values.shape} are not (n_vertices, k) "
                            f"or (n_vertices,) with n_vertices = {mesh.n_vertices}")
    shape = (len(series), n_replicates) + values.shape[1:]
    check_memory(16 * np.prod(shape, dtype=float), f"{n_replicates} LePage replicates x "
                 f"{len(series)} alpha(s) x {values[0].size} function(s)",
                 "the shared replicate set and its private copy")
    out = shards.shared_array(shape)

    def integrate(_, lo, hi):
        for k in range(lo, hi):
            draw = make_draw(np.random.SeedSequence(seed, spawn_key=(k,)), n_terms)
            sites = mesh.site_vertices(draw.words)
            for i, (a, d_a, tail) in enumerate(series):
                if tail_compensation:
                    w = np.sqrt(draw.arrivals ** (-2.0 / a) + tail)
                else:
                    w = draw.arrivals ** (-1.0 / a)
                out[i, k] = np.bincount(sites, weights=d_a * w * draw.gaussians,
                                        minlength=mesh.n_vertices) @ values

    shards.run(shards.cuts(n_replicates, MIN_REPLICATES_PER_SHARD), integrate,
               "replicates")
    # a private copy, so the shared mapping is freed on return
    out = np.array(out)
    return out if np.ndim(alpha) else out[0]
