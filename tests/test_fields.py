from dataclasses import replace

import numpy as np
import pytest

from gasketfields import analysis, fields, geometry, riesz, stable
from gasketfields.constants import D_H, D_W, integrability_threshold
from gasketfields.errors import ContractError, DomainError


def _field(s, alpha, bc, mesh, spec, seed):
    return fields.field_replicates(s, alpha, bc, mesh, spec, [seed], 10_000)[0]


def test_hurst_index_consistency():
    for s, alpha in ((0.9, 1.5), (1.2, 0.7), (1.0, 2.0)):
        h = fields.hurst_index(s, alpha)
        assert abs(h - (s * D_W - (alpha - 1.0) * D_H / alpha)) <= 1e-12


def test_threshold_enforced(mesh6, spec_n):
    with pytest.raises(DomainError, match="threshold"):
        _field(0.2, 1.5, "neumann", mesh6, spec_n, 0)
    # equality also rejected
    with pytest.raises(DomainError):
        _field(integrability_threshold(1.5), 1.5, "neumann", mesh6, spec_n, 0)


def test_mismatched_spectrum_rejected(mesh6, spec_d):
    with pytest.raises(ContractError):
        _field(0.9, 1.5, "neumann", mesh6, spec_d, 0)


def test_draw_alpha_must_match(mesh6, spec_n):
    draw = stable.make_draw(0, 100, 1.2)
    with pytest.raises(ContractError):
        fields.simulate_field(0.9, 1.5, "neumann", mesh6, spec_n, draw=draw)


def test_neumann_mean_zero_per_realization(mesh6, spec_n):
    for seed in range(5):
        smp = _field(0.9, 1.5, "neumann", mesh6, spec_n, seed)
        scale = np.max(np.abs(smp.values))
        assert abs(fields.field_mean(smp, mesh6)) <= 1e-4 * scale


def test_dirichlet_vanishes_at_corners(mesh6, spec_d):
    smp = _field(0.9, 1.5, "dirichlet", mesh6, spec_d, 3)
    assert np.all(fields.field_boundary_values(smp, mesh6) == 0.0)


def test_divergent_regime_tagged(mesh6, spec_n):
    smp = _field(0.5, 1.2, "neumann", mesh6, spec_n, 1)
    assert smp.meta["regime"] == "divergent"
    assert smp.meta["mesh_sup"] > 0
    smp2 = _field(0.9, 1.2, "neumann", mesh6, spec_n, 1)
    assert smp2.meta["regime"] == "continuous"


def test_marginal_law_matches_stable(mesh6, spec_n):
    s, alpha, xi = 0.9, 1.5, 140
    vals = np.array([_field(s, alpha, "neumann", mesh6, spec_n, k).values[xi]
                     for k in range(300)])
    scale = fields.marginal_scale(xi, s, alpha, spec_n)
    r = analysis.one_sample_ks(vals, alpha, scale)
    assert r["p_value"] > 0.01


def test_alpha2_marginal_variance(mesh6, spec_n):
    s, xi = 1.0, 140
    vals = np.array([_field(s, 2.0, "neumann", mesh6, spec_n, k).values[xi]
                     for k in range(3000)])
    target = 2.0 * fields.marginal_scale(xi, s, 2.0, spec_n) ** 2
    # sample variance of a Gaussian: relative sd sqrt(2/n)
    assert abs(vals.var() / target - 1.0) <= 4 * np.sqrt(2.0 / len(vals))


def test_conditional_increment_scale_zero_at_equal_points(spec_n):
    draw = stable.make_draw(11, 2000, 1.5)
    assert fields.conditional_increment_scale(5, 5, 0.9, draw, spec_n) == 0.0


def test_conditional_increment_resampling(mesh6, spec_n):
    # freeze (T, xi), resample g: increment std matches the formula
    draw = stable.make_draw(42, 10_000, 1.5)
    target = fields.conditional_increment_scale(100, 400, 0.9, draw, spec_n)
    rng = np.random.default_rng(25)
    reps = np.empty(400)
    for k in range(400):
        d2 = replace(draw, gaussians=rng.standard_normal(draw.n_terms))
        f2 = fields.simulate_field(0.9, 1.5, "neumann", mesh6, spec_n, draw=d2)
        reps[k] = f2.values[100] - f2.values[400]
    assert abs(reps.std() / target - 1.0) <= 0.15


def test_conditional_increment_modulus_bounded(mesh6, spec_n):
    # s_alpha(x, y) / (d^eta max(|ln d|^beta, 1)) bounded over dyadic pairs
    draw = stable.make_draw(7, 5000, 1.5)
    s = 0.9
    ratios = []
    for dist, pairs in riesz.dyadic_pair_bins(mesh6, np.random.default_rng(0),
                                              max_pairs_per_bin=30):
        mod = riesz.holder_modulus(dist, s)
        for a, b in pairs[:10]:
            sc = fields.conditional_increment_scale(a, b, s, draw, spec_n)
            ratios.append(sc / mod)
    assert np.isfinite(ratios).all()
    assert max(ratios) <= 10.0 * np.median(ratios)


def test_subcell_field_matched_draw_identity(mesh6, spec_n):
    # with a shared draw the 2^(nH)-scaled subcell construction collapses
    # to the base field exactly: the kernel, measure-mass and Hurst
    # factors cancel by construction
    draw = stable.make_draw(8, 2000, 1.5)
    base = fields.simulate_field(0.9, 1.5, "neumann", mesh6, spec_n, draw=draw)
    for word in ((0,), (1, 2)):
        sub = fields.scaled_subcell_field(word, 0.9, 1.5, mesh6, spec_n, draw=draw)
        assert np.allclose(sub.values, base.values, rtol=1e-10, atol=1e-14)


def test_subcell_field_matched_seed_identity_gaussian(mesh6, spec_n):
    base = fields.simulate_field(0.9, 2.0, "neumann", mesh6, spec_n, seed=77)
    sub = fields.scaled_subcell_field((2,), 0.9, 2.0, mesh6, spec_n, seed=77)
    assert np.allclose(sub.values, base.values, rtol=1e-10, atol=1e-14)


def test_subcell_word_validation(mesh6, spec_n):
    with pytest.raises(ContractError):
        fields.scaled_subcell_field((), 0.9, 1.5, mesh6, spec_n,
                                    draw=stable.make_draw(0, 10, 1.5))
    with pytest.raises(DomainError):
        fields.scaled_subcell_field((4,), 0.9, 1.5, mesh6, spec_n,
                                    draw=stable.make_draw(0, 10, 1.5))


def test_distributional_field_eigenfunction_scale(spec_n):
    phi1 = spec_n.eigenvectors[:, 0]
    lam1 = spec_n.eigenvalues[0]
    alpha = 1.5
    norm_alpha = (np.abs(phi1) ** alpha @ spec_n.weights) ** (1.0 / alpha)
    got = fields.functional_scale(phi1, 0.9, alpha, spec_n)
    assert got == pytest.approx(lam1 ** -0.9 * norm_alpha, rel=1e-10)


def test_distributional_field_zero_function(spec_n):
    rng = np.random.default_rng(26)
    assert fields.distributional_field(np.zeros(1095), 0.9, 1.5, spec_n, rng) == 0.0


def test_duality_cf(mesh6, spec_n):
    # <f, field> against the distributional route, CF agreement at 3 MC sigma
    s, alpha, n = 0.9, 1.5, 1200
    f = spec_n.eigenvectors[:, 0] + 0.5 * spec_n.eigenvectors[:, 3]
    inner = np.empty(n)
    for k in range(n):
        smp = _field(s, alpha, "neumann", mesh6, spec_n, 40_000 + k)
        inner[k] = geometry.quadrature(f * smp.values, mesh6)
    rng = np.random.default_rng(27)
    distr = np.array([fields.distributional_field(f, s, alpha, spec_n, rng)
                      for _ in range(n)])
    for u in (0.5, 1.0, 2.0):
        ca, cb = np.cos(u * inner), np.cos(u * distr)
        half = 3.0 * np.sqrt(ca.var() / n + cb.var() / n)
        assert abs(ca.mean() - cb.mean()) <= half


def test_reflection_fdd_gaussian(mesh6, spec_n):
    # alpha = 2 white-noise route: field at reflected vertices over fresh
    # seeds matches the base law (two-sample KS on a marginal and the sum)
    s = 0.9
    x1, x2 = 140, 600
    perm = geometry.reflection_permutation(mesh6, 1)
    A = np.array([[v.values[x1], v.values[x2]] for v in
                  (_field(s, 2.0, "neumann", mesh6, spec_n, k) for k in range(600))])
    B = np.array([[v.values[perm[x1]], v.values[perm[x2]]] for v in
                  (_field(s, 2.0, "neumann", mesh6, spec_n, 10_000 + k) for k in range(600))])
    assert analysis.two_sample(A[:, 0], B[:, 0])["p_value"] > 0.01
    assert analysis.two_sample(A.sum(1), B.sum(1))["p_value"] > 0.01


def test_spectral_band_additivity_on_shared_draw(mesh6, spec_n_full):
    # same driving noise, kernel split into spectral bands: the field is
    # additive across the bands
    draw = stable.make_draw(13, 3000, 1.5)
    j1 = spec_n_full.truncation(60)
    j2 = spec_n_full.truncation(240)
    low = fields.simulate_field(0.9, 1.5, "neumann", mesh6, spec_n_full,
                                draw=draw, j_terms=j1)
    full = fields.simulate_field(0.9, 1.5, "neumann", mesh6, spec_n_full,
                                 draw=draw, j_terms=j2)
    # independent evaluation of the band j1+1..j2 contribution
    idx = mesh6.site_vertices(draw.words)
    c = draw.d_alpha * draw.arrivals ** (-1.0 / 1.5) * draw.gaussians
    coeff = np.bincount(idx, weights=c, minlength=mesh6.n_vertices)
    phi = spec_n_full.eigenvectors[:, j1:j2]
    lam = spec_n_full.eigenvalues[j1:j2] ** -0.9
    band = phi @ (lam * (phi.T @ coeff))
    assert np.allclose(low.values + band, full.values, rtol=1e-10, atol=1e-13)


def test_field_metadata_complete(mesh6, spec_n):
    smp = _field(0.9, 1.5, "neumann", mesh6, spec_n, 9)
    for key in ("s", "alpha", "bc", "level", "j_terms", "n_terms", "seed",
                "regime", "snap_scale", "tail_estimate", "mesh_sup"):
        assert key in smp.meta
