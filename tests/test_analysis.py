import numpy as np
import pytest

from gasketfields import analysis, fields, spectral, stable
from gasketfields.constants import D_H, D_W
from gasketfields.errors import ContractError, DomainError


def test_holder_targets():
    assert analysis.holder_exponent_target(1.0) == pytest.approx(D_W - D_H)
    assert analysis.holder_exponent_target(0.8) == pytest.approx(0.8 * D_W - D_H)
    assert analysis.holder_exponent_target(1.3) == pytest.approx(D_W - D_H)
    assert analysis.holder_exponent_target(1.0) == pytest.approx(0.73697, abs=1e-5)


def test_log_correction_power():
    assert analysis.log_correction_power(0.8, 1.5) == 0.5
    assert analysis.log_correction_power(1.3, 1.5) == 1.5
    assert analysis.log_correction_power(0.9, 0.7) == 0.0
    assert analysis.log_correction_power(1.2, 0.7) == 1.0


def test_two_sample_identical_data():
    x = np.linspace(0, 1, 600)
    assert analysis.two_sample(x, x)["stat"] == 0.0


def test_two_sample_size_contract():
    with pytest.raises(ContractError):
        analysis.two_sample(np.ones(10), np.ones(600))


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
    ok = analysis.cf_gof(x, 1.5, 0.7)
    assert ok["passed"]
    bad = analysis.cf_gof(x, 1.5, 0.7 * 1.5)
    assert not bad["passed"]


def test_cf_gof_gaussian_case():
    rng = np.random.default_rng(33)
    sigma = 0.4
    x = np.sqrt(2.0) * sigma * rng.standard_normal(20_000)
    assert analysis.cf_gof(x, 2.0, sigma)["passed"]


def test_cf_gof_size_contract():
    with pytest.raises(ContractError):
        analysis.cf_gof(np.ones(100), 1.5, 1.0)


def test_one_sample_ks_consistency():
    rng = np.random.default_rng(34)
    x = 0.3 * stable.standard_stable(rng, 1.2, size=800)
    assert analysis.one_sample_ks(x, 1.2, 0.3)["p_value"] > 0.01
    assert analysis.one_sample_ks(x, 1.2, 0.6)["p_value"] < 0.01


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
    rep = analysis.holder_exponent_estimate(reps, mesh)
    assert abs(rep.estimate - rep.target) <= 0.15
    assert rep.passed


def test_holder_estimator_refuses_divergent():
    mesh, reps = _replicates(0.5, 1.2, 2)
    with pytest.raises(ContractError):
        analysis.holder_exponent_estimate(reps, mesh)


def test_holder_estimator_needs_scales():
    mesh, reps = _replicates(0.9, 1.5, 2, level=1)
    with pytest.raises(ContractError):
        analysis.holder_exponent_estimate(reps, mesh)


def test_holder_estimator_empty():
    mesh, empty = _replicates(0.9, 1.5, 0, level=2)
    with pytest.raises(ContractError):
        analysis.holder_exponent_estimate(empty, mesh)


def test_max_increments_by_scale(mesh6):
    ramp = mesh6.vertices[:, 0]  # linear ramp: increments halve per level
    scales = 2.0 ** -np.arange(1, mesh6.level)
    assert analysis.max_increments_by_scale(ramp, mesh6) == pytest.approx(scales)
    # one row per realization
    rows = analysis.max_increments_by_scale(np.stack([ramp, -3.0 * ramp]), mesh6)
    assert rows == pytest.approx(np.stack([scales, 3.0 * scales]))


def test_divergence_diagnostic_contract():
    with pytest.raises(ContractError):
        analysis.divergence_diagnostic(lambda level: None, [])


def test_divergence_diagnostic_shapes():
    def maker(level):
        spec = spectral.build_spectrum(level, "neumann")
        return fields.simulate_field(0.5, 1.2, spec, range(5))

    out = analysis.divergence_diagnostic(maker, [4, 5])
    assert out["levels"] == [4, 5]
    assert len(out["median_sup"]) == 2
    assert out["verdict"] in ("consistent with unboundedness", "no growth")
