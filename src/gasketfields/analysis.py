"""Statistics of field batches and samples: path regularity, divergence,
goodness of fit, two-sample and one-sample tests.

The regularity estimator works on the dyadic increment ladder: at scale
2^-j the statistic is the maximum absolute increment over all level-j
cell-mate pairs, matching the modulus-of-continuity form of the sample
path law.  The known logarithmic modulus factor is slowly varying over
the desk-scale ladder and is absorbed into the regression intercept.
Every function returns a statistic; `verify` decides each verdict.
"""

import numpy as np
from scipy.special import gamma as gamma_fn, ndtr, smirnov

from .constants import D_H, D_W, check_alpha
from .errors import ContractError, DomainError


def _batch(values):
    """`values` as an (R, n) float array, R >= 1, one field realization a row."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or len(values) == 0:
        raise ContractError(f"expected a batch of shape (R, n), R >= 1, one field "
                            f"realization a row, got shape {values.shape}")
    return values


def max_increments_by_scale(values, mesh):
    """Max |f(x) - f(y)| over the level-j cell mates, at distance 2^-j, for
    j = 1 .. m, for each row f of `values`, one value per vertex of `mesh`:
    one column per scale."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != mesh.n_vertices:
        raise ContractError(
            f"expected {mesh.n_vertices} vertex values, got {values.shape[-1]}")
    pairs = [mesh.level_edges(j) for j in range(1, mesh.level + 1)]
    return np.stack([np.abs(values[..., p[:, 0]] - values[..., p[:, 1]]).max(axis=-1)
                     for p in pairs], axis=-1)


def holder_exponent_estimate(values, s, mesh):
    """Path Hoelder exponent of a batch of order-s fields on `mesh`, one row
    each: the slope of the realization-mean log max-increment per dyadic
    scale against log scale.  Divergent-regime orders are refused.
    """
    values = _batch(values)
    if s <= D_H / D_W:
        raise ContractError(
            "divergent-regime sample: s <= d_h/d_w has unbounded paths, "
            "use divergence_diagnostic instead")
    if mesh.level < 3:
        raise ContractError("regression needs at least 2 dyadic scales")
    rows = max_increments_by_scale(values, mesh)[:, :-1]   # j < m: no mesh edges
    scales = np.array([2.0 ** -j for j in range(1, mesh.level)])
    slope, _ = np.polyfit(np.log(scales), np.log(rows).mean(axis=0), 1)
    return float(slope)


def divergence_diagnostic(batches):
    """Median mesh supremum of |field| per level, for one batch of field
    values per mesh level, coarsest first."""
    medians = [float(np.median(np.max(np.abs(_batch(values)), axis=1, initial=0.0)))
               for values in batches]
    if not medians:
        raise ContractError("no level batches")
    return medians


def cf_gof(samples, alpha, scale):
    """Characteristic-function goodness of fit against exp(-|u*scale|^alpha).

    The statistic is the worst deviation of the empirical cosine CF from
    the target at u = 0.5, 1, 2.
    """
    samples = _finite_sample(samples, "samples")
    if len(samples) < 1000:
        raise ContractError("cf_gof needs at least 1000 replicates")
    u = np.array([0.5, 1.0, 2.0])
    emp = np.cos(np.outer(u, samples)).mean(axis=1)
    target = np.exp(-np.abs(u * scale) ** alpha)
    return float(np.max(np.abs(emp - target)))


def _finite_sample(x, name):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ContractError(f"{name} holds non-finite values")
    return x


def two_sample(a, b):
    """Exact two-sided two-sample Kolmogorov-Smirnov test for equal sizes:
    scipy's `ks_2samp` with its exact p-value at every size."""
    # imported at its one use: no suite or export calls it, and scipy.stats
    # adds megabytes to a process's peak RSS
    from scipy.stats import ks_2samp

    a, b = _finite_sample(a, "a"), _finite_sample(b, "b")
    if len(a) != len(b):
        raise ContractError(f"samples must have equal sizes, got {len(a)} and {len(b)}")
    if len(a) < 500:
        raise ContractError("both samples must have >= 500 points")
    result = ks_2samp(a, b, method="exact")
    return {"stat": float(result.statistic), "p_value": float(result.pvalue)}


def _check_stable_law(alpha, scale):
    check_alpha(alpha)
    if not (np.isfinite(scale) and scale > 0.0):
        raise DomainError(f"scale {scale} must be positive and finite")


# Nolan's integral is summed on a uniform grid in t = logit(2 theta / pi)
# over |t| <= _NOLAN_T (beyond it lies theta-mass (pi/2) e^-T on each
# side); the step is _NOLAN_STEP over the steepest slope of log V in t,
# max(alpha, 1) / |alpha - 1|, with at most _NOLAN_MAX_NODES nodes.
_NOLAN_T, _NOLAN_STEP, _NOLAN_MAX_NODES = 36.0, 0.3, 1 << 17


def _nolan_tail(z, alpha):
    """P(X > z) for z >= 0, X standard SaS with CF exp(-|u|^alpha), alpha != 1.

    Nolan (1997), Theorem 1 at beta = 0: with p = alpha / (alpha - 1) and
        V(theta) = cos(theta)^(p - 1) sin(alpha theta)^(-p) cos((alpha - 1) theta),
    g = z^p V, the tail is (1/pi) int_0^(pi/2) e^-g dtheta for alpha > 1
    and (1/pi) int_0^(pi/2) (1 - e^-g) dtheta for alpha < 1.  On the grid
    in t the integrand is analytic and decays exponentially at both ends,
    so the trapezoid sum converges geometrically: its error is about
    1e-15 for alpha in [0.3, 1.99] at z in [1e-4, 1e4], and grows once
    the node cap binds.  The nodes do not depend on z, so every point
    shares one evaluation of V.
    """
    rate = max(alpha, 1.0) / abs(alpha - 1.0)
    n_nodes = min(int(2.0 * _NOLAN_T * rate / _NOLAN_STEP) + 1, _NOLAN_MAX_NODES)
    t, dt = np.linspace(-_NOLAN_T, _NOLAN_T, n_nodes, retstep=True)
    theta = 0.5 * np.pi / (1.0 + np.exp(-t))
    rest = 0.5 * np.pi / (1.0 + np.exp(t))     # pi/2 - theta, to full precision
    weight = theta * rest * (2.0 * dt / np.pi ** 2)
    p = alpha / (alpha - 1.0)
    log_v = ((p - 1.0) * np.log(np.sin(rest)) - p * np.log(np.sin(alpha * theta))
             + np.log(np.cos((alpha - 1.0) * theta)))
    with np.errstate(divide="ignore"):
        log_zp = p * np.log(z)
    out = np.empty(len(z))
    rows = max(1, (1 << 16) // n_nodes)        # 512 KB blocks stay in cache
    with np.errstate(over="ignore"):
        for i in range(0, len(z), rows):
            g = np.exp(np.add.outer(log_zp[i:i + rows], log_v))
            out[i:i + rows] = (np.exp(-g) if alpha > 1.0 else -np.expm1(-g)) @ weight
    return out


def stable_cdf(x, alpha, scale):
    """CDF at x of the symmetric alpha-stable law with CF exp(-|u scale|^alpha).

    alpha = 2 and alpha = 1 take the normal and Cauchy closed forms with
    the operations of scipy's `norm` and `cauchy`; other alpha sum Nolan's
    integral for all points at once on one grid, whose node count grows
    like 1/|alpha - 1| up to a cap of 2^17: past it, near |alpha - 1| =
    0.002, accuracy is lost.  F(x) = 1 - Q and F(-x) = Q share one tail
    value Q, so F(x) + F(-x) = 1 to rounding.
    """
    _check_stable_law(alpha, scale)
    x = np.asarray(x, dtype=float)
    if alpha == 2.0:
        return ndtr(x / (np.sqrt(2.0) * scale))
    z = x / scale
    if alpha == 1.0:
        return np.arctan2(1.0, -z) / np.pi
    q = _nolan_tail(np.abs(z).ravel(), alpha).reshape(z.shape)
    return np.where(z > 0.0, 1.0 - q, q)


def _kolmogorov_cdf(n, d):
    """P(D_n < d) for 1/(2n) < d < 1/2: the Durbin matrix, k-th diagonal
    entry of (n!/n^n) H^n (Marsaglia, Tsang & Wang 2003), with the powers
    rescaled by exact powers of two."""
    k = int(np.ceil(n * d))
    h, m = k - n * d, 2 * k - 1
    idx = np.arange(m)
    steps = idx[:, None] - idx[None, :] + 1          # i - j + 1
    H = (steps >= 0).astype(float)
    H[:, 0] -= h ** (idx + 1)
    H[-1, :] -= h ** (m - idx)
    H[-1, 0] += max(2.0 * h - 1.0, 0.0) ** m
    H /= gamma_fn(np.maximum(steps, 0) + 1.0)

    def rescaled(M):
        e = int(np.frexp(np.max(np.abs(M)))[1])
        return np.ldexp(M, -e), e

    power, power_exp, base_exp = None, 0, 0
    rest = n
    while rest:
        if rest & 1:
            power, e = rescaled(H if power is None else power @ H)
            power_exp += base_exp + e
        rest >>= 1
        if rest:
            H, e = rescaled(H @ H)
            base_exp = 2 * base_exp + e
    p = float(power[k - 1, k - 1])
    for i in range(1, n + 1):                        # times n!/n^n
        p = i * p / n
        if p < 2.0 ** -512:
            p, power_exp = p * 2.0 ** 512, power_exp - 512
    return np.ldexp(p, power_exp)


def kolmogorov_sf(n, d):
    """P(D_n >= d) of the two-sided one-sample KS statistic, exactly.

    For d >= 1/2 the two one-sided events exclude each other, so the
    p-value is 2 P(D_n^+ >= d), Smirnov's exact one-sided law.  So it is
    for n d^2 >= 4.5 too, up to their overlap, about 2 exp(-8 n d^2)
    < 5e-16 (Kolmogorov's series), which is below the rounding of the
    matrix route.  Otherwise it is 1 - P(D_n < d) by the Durbin matrix,
    whose order 2 ceil(n d) - 1 stays below 4.3 sqrt(n) + 1 there.
    """
    if n * d <= 0.5:
        return 1.0
    if d >= 1.0:
        return 0.0
    if d >= 0.5 or n * d * d >= 4.5:
        return float(min(2.0 * smirnov(n, d), 1.0))
    return float(np.clip(1.0 - _kolmogorov_cdf(n, d), 0.0, 1.0))


def one_sample_ks(samples, alpha, scale):
    """Two-sided one-sample KS test of replicates against the SaS law with
    CF exp(-|u scale|^alpha), with the exact Kolmogorov p-value."""
    x = np.sort(_finite_sample(samples, "samples"))
    n = len(x)
    if n == 0:
        raise ContractError("at least one sample required")
    cdf = stable_cdf(x, alpha, scale)
    stat = float(max(np.max(np.arange(1.0, n + 1) / n - cdf),
                     np.max(cdf - np.arange(0.0, n) / n)))
    return {"stat": stat, "p_value": kolmogorov_sf(n, stat)}


def ahlfors_regression(ball_measures, radii):
    """Log-log slope of empirical ball measures against radii."""
    radii = np.asarray(radii, dtype=float)
    mu = np.asarray(ball_measures, dtype=float)
    if len(radii) < 2:
        raise ContractError("regression needs at least 2 radii")
    if np.any(mu <= 0):
        raise DomainError("ball measures must be positive for the log fit")
    slope, _ = np.polyfit(np.log(radii), np.log(mu), 1)
    return float(slope)
