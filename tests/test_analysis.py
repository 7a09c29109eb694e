import numpy as np
import pytest
from scipy import special, stats

from gasketfields import analysis, fields, geometry, spectral, stable, verify
from gasketfields.constants import D_H, D_W
from gasketfields.errors import ContractError, DomainError


def test_holder_targets():
    # the targets of `holder-paths` are set in verify, beside its tolerance
    assert verify.holder_exponent_target(1.0) == pytest.approx(D_W - D_H)
    assert verify.holder_exponent_target(0.8) == pytest.approx(0.8 * D_W - D_H)
    assert verify.holder_exponent_target(1.3) == pytest.approx(D_W - D_H)
    assert verify.holder_exponent_target(1.0) == pytest.approx(0.73697, abs=1e-5)


def test_log_correction_power():
    assert verify.log_correction_power(0.8, 1.5) == 0.5
    assert verify.log_correction_power(1.3, 1.5) == 1.5
    assert verify.log_correction_power(0.9, 0.7) == 0.0
    assert verify.log_correction_power(1.2, 0.7) == 1.0


def test_two_sample_identical_data():
    x = np.linspace(0, 1, 600)
    assert analysis.two_sample(x, x)["stat"] == 0.0


def test_two_sample_size_contract():
    with pytest.raises(ContractError):
        analysis.two_sample(np.ones(10), np.ones(600))
    # the exact test is for equal sizes
    with pytest.raises(ContractError):
        analysis.two_sample(np.ones(600), np.ones(700))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_two_sample_rejects_non_finite(bad):
    a = np.linspace(0.0, 1.0, 600)
    b = a.copy()
    b[7] = bad
    with pytest.raises(ContractError):
        analysis.two_sample(a, b)
    with pytest.raises(ContractError):
        analysis.two_sample(b, a)


def _ks_2samp(a, b):
    res = stats.ks_2samp(a, b)
    return {"stat": float(res.statistic), "p_value": float(res.pvalue)}


@pytest.mark.parametrize("n", [500, 1000, 3000, 10_000])
def test_two_sample_equals_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = stable.standard_stable(rng, 1.5, size=n)
    for b in (stable.standard_stable(rng, 1.5, size=n),        # same law
              1.1 * stable.standard_stable(rng, 1.5, size=n),  # near miss
              rng.standard_normal(n)):                          # far off
        assert analysis.two_sample(a, b) == _ks_2samp(a, b)


def test_two_sample_equals_scipy_on_ties_and_extremes():
    rng = np.random.default_rng(35)
    tied_a = np.round(rng.standard_normal(1000), 1)
    tied_b = np.round(rng.standard_normal(1000) + 0.1, 1)
    x = rng.random(800)
    for a, b in ((tied_a, tied_b), (x, x), (x, x + 2.0), (x, x[::-1])):
        assert analysis.two_sample(a, b) == _ks_2samp(a, b)
    assert analysis.two_sample(x, x) == {"stat": 0.0, "p_value": 1.0}
    assert analysis.two_sample(x, x + 2.0)["stat"] == 1.0


def test_two_sample_calibration():
    # same-law samples pass at the 0.01 level in >= 95% of trials
    rng = np.random.default_rng(30)
    passed = 0
    trials = 200
    for _ in range(trials):
        a = stable.standard_stable(rng, 1.5, size=600)
        b = stable.standard_stable(rng, 1.5, size=600)
        if analysis.two_sample(a, b)["p_value"] > 0.01:
            passed += 1
    assert passed / trials >= 0.95


def test_two_sample_power():
    rng = np.random.default_rng(31)
    a = stable.standard_stable(rng, 1.5, size=10_000)
    b = rng.standard_normal(10_000) * np.sqrt(2.0)
    assert analysis.two_sample(a, b)["p_value"] < 0.01


def test_cf_gof_pass_and_power():
    rng = np.random.default_rng(32)
    x = 0.7 * stable.standard_stable(rng, 1.5, size=20_000)
    # the statistic alone; `stable-cf` judges it against 3/sqrt(n)
    ok = analysis.cf_gof(x, 1.5, 0.7)
    assert type(ok) is float
    assert ok <= 3.0 / np.sqrt(20_000)
    bad = analysis.cf_gof(x, 1.5, 0.7 * 1.5)
    assert bad > 3.0 / np.sqrt(20_000)


def test_cf_gof_gaussian_case():
    rng = np.random.default_rng(33)
    sigma = 0.4
    x = np.sqrt(2.0) * sigma * rng.standard_normal(20_000)
    assert analysis.cf_gof(x, 2.0, sigma) <= 3.0 / np.sqrt(20_000)


def test_cf_gof_size_contract():
    with pytest.raises(ContractError):
        analysis.cf_gof(np.ones(100), 1.5, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cf_gof_rejects_non_finite(bad):
    # a non-finite sample made the statistic nan
    with pytest.raises(ContractError, match="non-finite"):
        analysis.cf_gof(np.r_[bad, np.zeros(999)], 1.5, 1.0)


def test_one_sample_ks_consistency():
    rng = np.random.default_rng(34)
    x = 0.3 * stable.standard_stable(rng, 1.2, size=800)
    assert analysis.one_sample_ks(x, 1.2, 0.3)["p_value"] > 0.01
    assert analysis.one_sample_ks(x, 1.2, 0.6)["p_value"] < 0.01


@pytest.mark.parametrize("alpha,scale", [(1.5, 0.0), (1.5, -1.0), (2.5, 1.0),
                                         (0.0, 1.0), (1.5, np.nan), (np.nan, 1.0)])
def test_one_sample_ks_rejects_invalid_laws(alpha, scale):
    x = np.linspace(-1.0, 1.0, 100)
    with pytest.raises(DomainError):
        analysis.one_sample_ks(x, alpha, scale)
    with pytest.raises(DomainError):
        analysis.stable_cdf(x, alpha, scale)


def test_one_sample_ks_rejects_bad_samples():
    with pytest.raises(ContractError):
        analysis.one_sample_ks(np.array([0.1, np.nan, 0.3]), 1.5, 1.0)
    with pytest.raises(ContractError):
        analysis.one_sample_ks(np.array([]), 1.5, 1.0)


def _series_cdf(x, alpha):
    """F(x), x > 0, of the standard SaS law from its power series: the
    small-x series (convergent for alpha > 1, asymptotic for alpha < 1)
    below the window of `_series_window`, the large-x tail series
    (convergent for alpha < 1, asymptotic for alpha > 1) above it, each
    summed to its smallest term within 40."""
    def summed(signs, log_sizes):
        # up to the smallest term size, whatever the signs
        last = np.argmin(log_sizes) + 1
        return float(np.sum(signs[:last] * np.exp(log_sizes[:last])))

    k = np.arange(40)
    if x <= _series_window(alpha)[0]:
        odd = 2 * k + 1
        sizes = special.gammaln(odd / alpha) - special.gammaln(odd + 1.0) + odd * np.log(x)
        return 0.5 + summed((-1.0) ** k, sizes) / (np.pi * alpha)
    k = k + 1
    sizes = special.gammaln(alpha * k) - special.gammaln(k + 1.0) - alpha * k * np.log(x)
    return 1.0 - summed((-1.0) ** (k + 1) * np.sin(k * np.pi * alpha / 2.0), sizes) / np.pi


def _series_window(alpha):
    """The |x| between which neither series reads the CDF to double precision."""
    return (1.0, 10.0) if alpha > 1.0 else (1e-3, 1.0)


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.2, 1.5, 1.9])
def test_stable_cdf_matches_the_exact_cdf(alpha, monkeypatch):
    # scipy's piecewise levy_stable reads |x| < 0.005 alpha^(1/alpha) as 0;
    # without that it is the oracle inside the window, and the power series
    # are outside it, where levy_stable misreads some points (F = 1 from
    # x = 10^2.6 at alpha = 1.2 and 1.5, and from 10^2.4 at 1.9; F = 1/2 at
    # x = 1e-4 for alpha = 0.7 and 1.2)
    monkeypatch.setattr(stats.levy_stable, "piecewise_x_tol_near_zeta", 0.0)
    scale = 0.7
    z = np.geomspace(1e-4, 1e4, 41)
    lo, hi = _series_window(alpha)
    inside = (z > lo) & (z < hi)
    exact = np.array([_series_cdf(v, alpha) for v in z])
    exact[inside] = stats.levy_stable.cdf(z[inside], alpha, 0.0)
    x = np.concatenate([-z[::-1], [0.0], z]) * scale
    want = np.concatenate([1.0 - exact[::-1], [0.5], exact])
    got = analysis.stable_cdf(x, alpha, scale)
    assert np.max(np.abs(got - want)) <= 1e-10
    assert np.max(np.abs(got + got[::-1] - 1.0)) <= 1e-15


def test_stable_cdf_closed_forms_equal_scipy():
    x = np.concatenate([-np.geomspace(1e-4, 1e4, 41), [0.0], np.geomspace(1e-4, 1e4, 41)])
    np.testing.assert_array_equal(analysis.stable_cdf(x, 2.0, 0.7),
                                  stats.norm(scale=np.sqrt(2.0) * 0.7).cdf(x))
    np.testing.assert_array_equal(analysis.stable_cdf(x, 1.0, 0.7),
                                  stats.cauchy(scale=0.7).cdf(x))


def test_kolmogorov_sf_matches_scipy():
    # scipy's kstwo.sf is exact for n <= 140 (Durbin matrix, Pomeranz) where
    # p >= 1e-3; beyond n = 140 it reads the Pelz-Good and Miller
    # approximations, within 3e-6 of the exact law
    worst = 0.0
    for n in list(range(1, 141, 3)) + [140]:
        for d in np.linspace(0.5 / n, 1.0, 60):
            want = stats.kstwo.sf(d, n)
            if want >= 1e-3:
                worst = max(worst, abs(analysis.kolmogorov_sf(n, d) - want))
    assert worst <= 1e-12
    for n in (141, 500, 1000, 3000):
        for z in np.linspace(0.3, 2.5, 12):
            d = z / np.sqrt(n)
            assert abs(analysis.kolmogorov_sf(n, d) - stats.kstwo.sf(d, n)) <= 3e-6


def test_kolmogorov_sf_routes_meet():
    # at n d^2 = 4.5 the Durbin matrix and Smirnov's one-sided law agree
    for n in (10, 100, 1000, 5000):
        d = np.sqrt(4.5 / n)
        two_sided = 1.0 - analysis._kolmogorov_cdf(n, d)
        assert abs(two_sided - 2.0 * special.smirnov(n, d)) <= 1e-13
    assert analysis.kolmogorov_sf(100, 0.004) == 1.0
    assert analysis.kolmogorov_sf(100, 1.0) == 0.0


def test_one_sample_ks_equals_kstest():
    rng = np.random.default_rng(36)
    x = 0.4 * stable.standard_stable(rng, 1.9, size=100)
    got = analysis.one_sample_ks(x, 1.9, 0.4)
    want = stats.kstest(x, stats.levy_stable(1.9, 0.0, scale=0.4).cdf)
    assert abs(got["stat"] - want.statistic) <= 1e-10
    assert abs(got["p_value"] - want.pvalue) <= 1e-9


def test_ahlfors_regression_contracts():
    with pytest.raises(ContractError):
        analysis.ahlfors_regression([0.5], [0.5])
    with pytest.raises(DomainError):
        analysis.ahlfors_regression([0.5, -0.1], [0.5, 0.25])
    slope = analysis.ahlfors_regression([0.25, 0.0625], [0.5, 0.25])
    assert slope == pytest.approx(2.0)


def _replicates(s, alpha, n, level=6, seed0=1000):
    spec = spectral.build_spectrum(level, "neumann")
    return spec.mesh, fields.simulate_field(s, alpha, spec, range(seed0, seed0 + n))


@pytest.mark.parametrize("alpha,s", [(2.0, 1.0), (2.0, 1.3), (1.5, 0.8)])
def test_holder_estimator_calibration(alpha, s):
    # the path-law exponent min(s,1) d_w - d_h applies to the stable regime
    # and, for s >= 1, matches the Gaussian case as well
    mesh, reps = _replicates(s, alpha, 50)
    estimate = analysis.holder_exponent_estimate(reps, s, mesh)
    assert abs(estimate - verify.holder_exponent_target(s)) <= 0.15


def test_holder_estimator_refuses_divergent():
    mesh, reps = _replicates(0.5, 1.2, 2)
    with pytest.raises(ContractError, match="divergent"):
        analysis.holder_exponent_estimate(reps, 0.5, mesh)


def test_holder_estimator_needs_scales():
    # the scales 2^-j, j = 1..m-1, are one scale at level 2: no line to fit
    for level in (1, 2):
        mesh, reps = _replicates(0.9, 1.5, 2, level=level)
        with pytest.raises(ContractError):
            analysis.holder_exponent_estimate(reps, 0.9, mesh)


def test_holder_estimator_empty():
    mesh, empty = _replicates(0.9, 1.5, 0, level=2)
    with pytest.raises(ContractError):
        analysis.holder_exponent_estimate(empty, 0.9, mesh)


def test_holder_estimator_refuses_one_realization_unbatched():
    # one 1-D realization failed inside numpy's polyfit with a TypeError
    mesh, reps = _replicates(0.9, 1.5, 2, level=3)
    with pytest.raises(ContractError, match=r"shape \(R, n\).*got shape \(42,\)"):
        analysis.holder_exponent_estimate(reps[0], 0.9, mesh)


def test_holder_estimator_refuses_another_mesh():
    # the ladder reads vertex ids of `mesh`: a level-6 batch given the
    # level-5 mesh would be read at the wrong vertices, not refused
    mesh, reps = _replicates(0.9, 1.5, 5)
    with pytest.raises(ContractError, match="expected 366 vertex values, got 1095"):
        analysis.holder_exponent_estimate(reps, 0.9, geometry.build_mesh(5))
    with pytest.raises(ContractError):
        analysis.max_increments_by_scale(reps[:, :-1], mesh)


def test_max_increments_by_scale(mesh6):
    ramp = mesh6.vertices[:, 0]  # linear ramp: increments halve per level
    # the scales 2^-j, j = 1..m, the last that of the mesh edges
    scales = 2.0 ** -np.arange(1, mesh6.level + 1)
    assert analysis.max_increments_by_scale(ramp, mesh6) == pytest.approx(scales)
    # one row per realization
    rows = analysis.max_increments_by_scale(np.stack([ramp, -3.0 * ramp]), mesh6)
    assert rows == pytest.approx(np.stack([scales, 3.0 * scales]))


def test_divergence_diagnostic_contract():
    with pytest.raises(ContractError):
        analysis.divergence_diagnostic([])
    # a level's batch is (R, n): one row alone raised numpy's AxisError
    row = np.ones(15)
    with pytest.raises(ContractError, match=r"shape \(R, n\).*got shape \(15,\)"):
        analysis.divergence_diagnostic([row])
    # and holds one realization at least: an empty batch gave a nan median
    with pytest.raises(ContractError, match=r"got shape \(0, 15\)"):
        analysis.divergence_diagnostic([np.ones((0, 15))])


def test_divergence_diagnostic_shapes():
    batches = [fields.simulate_field(0.5, 1.2, spectral.build_spectrum(level, "neumann"),
                                     range(5)) for level in (4, 5)]
    out = analysis.divergence_diagnostic(batches)
    assert out == [float(np.median(np.max(np.abs(b), axis=1))) for b in batches]
