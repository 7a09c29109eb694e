"""Statistical verification: path regularity, goodness of fit, two-sample tests.

The regularity estimator works on the dyadic increment ladder: at scale
2^-j the statistic is the maximum absolute increment over all level-j
cell-mate pairs, matching the modulus-of-continuity form of the sample
path law.  The known logarithmic modulus factor is divided out before
the log-log slope fit (a plain fit would leak the extreme-value log
growth into the slope at desk scale), and the power used is recorded in
the report.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, ndtr, smirnov

from .constants import D_H, D_W, check_alpha
from .errors import ContractError, DomainError


def holder_exponent_target(s):
    """Path regularity exponent eta_s = min(s,1)*d_w - d_h."""
    return min(s, 1.0) * D_W - D_H


def log_correction_power(s, alpha):
    """Modulus log power: beta_s (+1/2 unless alpha < 1), beta_s = 1{s >= 1}."""
    beta = 1.0 if s >= 1.0 else 0.0
    return beta + (0.0 if alpha < 1.0 else 0.5)


@dataclass(frozen=True)
class RegularityReport:
    estimate: float
    target: float
    log_power: float
    tolerance: float
    passed: bool


def max_increments_by_scale(values, mesh):
    """Max |f(x) - f(y)| over the cell-mate pairs at each dyadic scale 2^-j,
    j = 1 .. m-1, for each row f of `values`: one column per scale."""
    out = []
    for j in range(1, mesh.level):
        pairs = mesh.level_edges(j)
        diff = values[..., pairs[:, 0]] - values[..., pairs[:, 1]]
        out.append(np.max(np.abs(diff), axis=-1))
    return np.stack(out, axis=-1)


def holder_exponent_estimate(sample, mesh):
    """Estimate the path Hoelder exponent from a batch of field realizations.

    Averages log max-increments per dyadic scale over the realizations and
    fits the slope against log scale.  The modulus log factor is slowly
    varying over the desk-scale ladder and is absorbed into the
    regression intercept; its theoretical power is recorded in the
    report.  Divergent-regime samples are refused.
    """
    if len(sample.values) == 0:
        raise ContractError("at least one field realization required")
    meta = sample.meta
    if meta["regime"] == "divergent":
        raise ContractError(
            "divergent-regime sample: s <= d_h/d_w has unbounded paths, "
            "use divergence_diagnostic instead")
    if mesh.level < 3:
        raise ContractError("regression needs at least 2 dyadic scales")

    s, alpha = meta["s"], meta["alpha"]
    rows = max_increments_by_scale(sample.values, mesh)
    scales = np.array([2.0 ** -j for j in range(1, mesh.level)])
    slope, _ = np.polyfit(np.log(scales), np.log(rows).mean(axis=0), 1)
    target, tolerance = holder_exponent_target(s), 0.15
    return RegularityReport(
        estimate=float(slope), target=target,
        log_power=log_correction_power(s, alpha),
        tolerance=tolerance, passed=bool(abs(slope - target) <= tolerance))


def divergence_diagnostic(batches):
    """Median mesh supremum of |field| per level; verdict on growth.

    `batches` holds one batch of realizations (a FieldSample) per mesh
    level, coarsest first.  Strict increase of the medians across levels
    is the finite-mesh signature of unbounded sample paths.
    """
    medians = [float(np.median(batch.meta["mesh_sup"])) for batch in batches]
    if not medians:
        raise ContractError("no level batches")
    increasing = all(b > a for a, b in zip(medians, medians[1:]))
    return {
        "median_sup": medians,
        "verdict": "consistent with unboundedness" if increasing else "no growth",
        "increasing": increasing,
    }


def cf_gof(samples, alpha, scale):
    """Characteristic-function goodness of fit against exp(-|u*scale|^alpha).

    Compares the empirical cosine CF at u = 0.5, 1, 2 to the target; the
    statistic is the worst deviation, the threshold three CLT half-widths.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 1000:
        raise ContractError("cf_gof needs at least 1000 replicates")
    u = np.array([0.5, 1.0, 2.0])
    emp = np.cos(np.outer(u, samples)).mean(axis=1)
    target = np.exp(-np.abs(u * scale) ** alpha)
    stat = float(np.max(np.abs(emp - target)))
    threshold = 3.0 / np.sqrt(n)
    return {"stat": stat, "threshold": threshold, "passed": bool(stat <= threshold),
            "u_grid": list(map(float, u)), "empirical": emp.tolist(),
            "target": target.tolist()}


def _finite_sample(x, name):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ContractError(f"{name} holds non-finite values")
    return x


def two_sample(a, b):
    """Exact two-sided two-sample Kolmogorov-Smirnov test for equal sizes.

    The statistic is D = h/n with h the largest gap between the two
    empirical counts.  P(D >= h/n) counts the lattice paths that leave
    the band |x - y| < h (Hodges 1958), summed with the alternating
    Horner scheme of scipy's `ks_2samp` exact path, operation for
    operation, so statistic and p-value equal scipy's bit for bit where
    scipy takes that path (n <= 10^4; above it scipy reads an asymptotic
    law).
    """
    a, b = _finite_sample(a, "a"), _finite_sample(b, "b")
    n = len(a)
    if len(b) != n:
        raise ContractError(f"samples must have equal sizes, got {n} and {len(b)}")
    if n < 500:
        raise ContractError("both samples must have >= 500 points")
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gap = np.searchsorted(a, both, side="right") - np.searchsorted(b, both, side="right")
    h = int(np.max(np.abs(gap)))
    if h == 0:
        return {"stat": 0.0, "p_value": 1.0}
    prob = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        prob = term * (1.0 - prob)
    # rounding lifts the sum a few ulp above 1 only where P(D >= h/n) is
    # within 1e-15 of 1 (h <= 25 in a scan of n <= 10^4); scipy then
    # leaves its exact path and may read 1 - 2e-15
    return {"stat": h * 1.0 / n, "p_value": min(2 * prob, 1.0)}


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
