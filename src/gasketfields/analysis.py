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

from .constants import D_H, D_W
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
    s: float
    alpha: float
    bc: str
    estimate: float
    target: float
    log_power: float
    scales: np.ndarray
    max_increments: np.ndarray
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


def holder_exponent_estimate(sample, mesh, tolerance=0.15):
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
    if mesh.level < 2:
        raise ContractError("regression needs at least 2 dyadic scales")

    s, alpha = meta["s"], meta["alpha"]
    rows = max_increments_by_scale(sample.values, mesh)
    scales = np.array([2.0 ** -j for j in range(1, mesh.level)])
    slope, _ = np.polyfit(np.log(scales), np.log(rows).mean(axis=0), 1)
    target = holder_exponent_target(s)
    return RegularityReport(
        s=s, alpha=alpha, bc=meta["bc"],
        estimate=float(slope), target=target,
        log_power=log_correction_power(s, alpha),
        scales=scales, max_increments=rows.mean(axis=0),
        tolerance=tolerance, passed=bool(abs(slope - target) <= tolerance))


def divergence_diagnostic(field_maker, levels):
    """Median mesh supremum of |field| per level; verdict on growth.

    `field_maker(level)` must return a batch of realizations (a
    FieldSample) on the level-m mesh.  Strict increase of the medians
    across levels is the finite-mesh signature of unbounded sample paths.
    """
    levels = list(levels)
    if not levels:
        raise ContractError("empty level list")
    medians = [float(np.median(field_maker(m).meta["mesh_sup"])) for m in levels]
    increasing = all(b > a for a, b in zip(medians, medians[1:]))
    return {
        "levels": levels,
        "median_sup": medians,
        "verdict": "consistent with unboundedness" if increasing else "no growth",
        "increasing": increasing,
    }


def cf_gof(samples, alpha, scale, u_grid=(0.5, 1.0, 2.0)):
    """Characteristic-function goodness of fit against exp(-|u*scale|^alpha).

    Compares the empirical cosine CF on the grid to the target; the
    statistic is the worst deviation, the threshold three CLT half-widths.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 1000:
        raise ContractError("cf_gof needs at least 1000 replicates")
    u = np.asarray(u_grid, dtype=float)
    emp = np.cos(np.outer(u, samples)).mean(axis=1)
    target = np.exp(-np.abs(u * scale) ** alpha)
    stat = float(np.max(np.abs(emp - target)))
    threshold = 3.0 / np.sqrt(n)
    return {"stat": stat, "threshold": threshold, "passed": bool(stat <= threshold),
            "u_grid": list(map(float, u)), "empirical": emp.tolist(),
            "target": target.tolist()}


def two_sample(a, b, min_size=500):
    """Two-sample Kolmogorov-Smirnov statistic and p-value."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < min_size or len(b) < min_size:
        raise ContractError(f"both samples must have >= {min_size} points")
    from scipy import stats

    res = stats.ks_2samp(a, b)
    return {"stat": float(res.statistic), "p_value": float(res.pvalue)}


def stable_cdf(alpha, scale):
    """CDF callable of the symmetric alpha-stable law with the library's
    CF convention exp(-|u*scale|^alpha)."""
    from scipy import stats

    if alpha == 2.0:
        dist = stats.norm(scale=np.sqrt(2.0) * scale)
    elif alpha == 1.0:
        dist = stats.cauchy(scale=scale)
    else:
        dist = stats.levy_stable(alpha, 0.0, scale=scale)
    return dist.cdf


def one_sample_ks(samples, alpha, scale):
    """One-sample KS of replicates against the exact stable CDF."""
    from scipy import stats

    samples = np.asarray(samples, dtype=float)
    res = stats.kstest(samples, stable_cdf(alpha, scale))
    return {"stat": float(res.statistic), "p_value": float(res.pvalue)}


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
