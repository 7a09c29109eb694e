import numpy as np
import pytest

from gasketfields import analysis, geometry, stable
from gasketfields.errors import DomainError


def test_alpha2_is_gaussian_variance_two():
    rng = np.random.default_rng(20)
    x = stable.standard_stable(rng, 2.0, size=100_000)
    assert x.var() == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("alpha,u", [(1.5, 1.0), (0.8, 0.5), (1.0, 1.0)])
def test_empirical_cf_matches_target(alpha, u):
    rng = np.random.default_rng(21)
    x = stable.standard_stable(rng, alpha, size=100_000)
    c = np.cos(u * x)
    mc_sigma = c.std() / np.sqrt(len(x))
    assert abs(c.mean() - np.exp(-abs(u) ** alpha)) <= 3 * mc_sigma


def test_stable_domain_errors():
    rng = np.random.default_rng(22)
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(DomainError):
            stable.standard_stable(rng, bad)


def test_d_alpha_hand_value_at_one():
    # E|g| = sqrt(2/pi), sine integral = pi/2
    expected = 1.0 / (np.sqrt(2.0 / np.pi) * np.pi / 2.0)
    assert stable.d_alpha(1.0) == pytest.approx(expected, abs=1e-12)
    assert stable.d_alpha(1.0) == pytest.approx(0.79788, abs=1e-5)


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 1.3, 1.5, 1.9])
def test_d_alpha_against_quadrature_oracle(alpha):
    assert abs(stable.d_alpha(alpha) - stable.d_alpha_quadrature(alpha)) <= 1e-8


def test_d_alpha_continuous_near_two():
    # finite and continuous approaching the Gaussian endpoint
    a, b = stable.d_alpha(1.9), stable.d_alpha(1.99)
    assert np.isfinite(a) and np.isfinite(b)
    assert abs(stable.d_alpha_quadrature(1.99) - b) <= 1e-8


def test_d_alpha_domain():
    for bad in (0.0, 2.0):
        with pytest.raises(DomainError):
            stable.d_alpha(bad)


def test_make_draw_deterministic():
    a = stable.make_draw(123, 500, 1.5)
    b = stable.make_draw(123, 500, 1.5)
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.words, b.words)
    assert a.words.dtype == np.int64
    assert a.words.shape == (500,)
    assert np.array_equal(a.gaussians, b.gaussians)


def test_make_draw_streams_are_split():
    # changing n_terms must not change the leading arrivals
    a = stable.make_draw(9, 100, 1.5)
    b = stable.make_draw(9, 200, 1.5)
    assert np.array_equal(a.arrivals, b.arrivals[:100])


def test_arrivals_strictly_increasing():
    d = stable.make_draw(1, 1000, 1.2)
    assert np.all(np.diff(d.arrivals) > 0)
    assert d.arrivals[0] > 0
    assert d.arrivals[4] > d.arrivals[3]


def test_arrival_times_match_gamma_mean():
    # mean of T_n - n over n <= 1e4, averaged over 100 seeds; the statistic
    # has std ~ sqrt(N/3)/sqrt(seeds)
    n, seeds = 10_000, 100
    tot = 0.0
    for seed in range(seeds):
        d = stable.make_draw(seed, n, 1.5)
        tot += (d.arrivals - np.arange(1, n + 1)).mean()
    grand = tot / seeds
    assert abs(grand) <= 3 * np.sqrt(n / 3.0) / np.sqrt(seeds)


def test_make_draw_rejects_alpha_two():
    with pytest.raises(DomainError):
        stable.make_draw(0, 10, 2.0)


def test_direct_integral_constant_scale(mesh6):
    # homogeneity: scaling f scales the integral exactly (same seed stream)
    ones = np.ones(mesh6.n_vertices)
    a = stable.direct_replicates(ones, mesh6, 1.5, 100, seed=6)
    b = stable.direct_replicates(3.0 * ones, mesh6, 1.5, 100, seed=6)
    assert np.allclose(b, 3.0 * a)


def test_lepage_vs_direct_ks(mesh6):
    ones = np.ones(mesh6.n_vertices)
    lp = stable.lepage_replicates(ones, mesh6, 1.5, 10_000, 2000, seed=7)
    dr = stable.direct_replicates(ones, mesh6, 1.5, 2000, seed=8)
    assert analysis.two_sample(lp, dr)["p_value"] > 0.01


def test_lepage_replicates_match_series_reference(mesh6):
    # the in-place route, in blocks of 500 replicates, against the series
    # written out over the same stream: arrivals, site words, gaussians,
    # then the tail normals
    values = np.random.default_rng(5).standard_normal(mesh6.n_vertices)
    alpha, n_terms, n_rep = 1.9, 300, 700
    got = stable.lepage_replicates(values, mesh6, alpha, n_terms, n_rep, seed=12,
                                   tail_compensation=True)
    rng = np.random.default_rng(np.random.SeedSequence(12))
    d_a, tail = stable.d_alpha(alpha), stable.arrival_tail_sum(alpha, n_terms)
    want = []
    for r in (500, 200):
        arr = rng.exponential(1.0, (r, n_terms)).cumsum(axis=1)
        fx = values[mesh6.site_vertices(geometry.draw_sites(rng, (r, n_terms)))]
        g = rng.standard_normal((r, n_terms))
        series = d_a * (arr ** (-1.0 / alpha) * fx * g).sum(axis=1)
        var = d_a ** 2 * tail * (fx * fx).mean(axis=1)
        want.append(series + np.sqrt(var) * rng.standard_normal(r))
    assert np.allclose(got, np.concatenate(want), rtol=1e-12, atol=1e-12)


def test_tail_compensation_needed_near_two(mesh6):
    # at alpha = 1.9 the raw partial sum is visibly under-dispersed at
    # N = 1e4; the Gaussian small-jump surrogate restores the law
    ones = np.ones(mesh6.n_vertices)
    raw = stable.lepage_replicates(ones, mesh6, 1.9, 10_000, 3000, seed=9)
    comp = stable.lepage_replicates(ones, mesh6, 1.9, 10_000, 3000, seed=9,
                                    tail_compensation=True)
    dr = stable.direct_replicates(ones, mesh6, 1.9, 3000, seed=10)
    assert analysis.two_sample(raw, dr)["p_value"] < 0.01
    assert analysis.two_sample(comp, dr)["p_value"] > 0.01


def test_arrival_tail_sum_matches_emitted_estimate():
    # closed form vs the emitted estimate N^(1-2/alpha)/(2/alpha - 1)
    for alpha in (1.2, 1.5, 1.9):
        exact = stable.arrival_tail_sum(alpha, 10_000)
        approx = 10_000 ** (1 - 2 / alpha) / (2 / alpha - 1)
        assert exact == pytest.approx(approx, rel=1e-3)
        assert stable.make_draw(0, 10_000, alpha).tail_estimate == pytest.approx(approx)


def test_draw_sites_match_snapped_measure_points():
    # a draw's words come from its site sub-stream, and each word places its
    # site where snapping the measure point with the word's digits puts it
    for seed, level in ((0, 4), (1, 6), (2, 7)):
        draw = stable.make_draw(seed, 20_000, 1.5)
        s_xi = np.random.SeedSequence(seed).spawn(2)[1]
        assert np.array_equal(
            draw.words, geometry.draw_sites(np.random.default_rng(s_xi), 20_000))
        pts = np.tile(geometry.BARYCENTER, (20_000, 1))
        for r in range(geometry.MAX_LEVEL, -1, -1):
            digit = draw.words // 3 ** (geometry.MAX_LEVEL - r) % 3
            pts = 0.5 * (pts + geometry.CORNERS[digit])
        mesh = geometry.build_mesh(level)
        assert np.array_equal(mesh.site_vertices(draw.words), mesh.snap(pts))


def test_snapped_site_law_matches_vertex_weights(mesh6):
    # nearest-vertex snapping of measure samples lands on each vertex with
    # probability equal to its lumped weight
    rng = np.random.default_rng(24)
    pts = geometry.sample_mu(rng, 40, size=200_000)
    idx = mesh6.snap(pts)
    freq = np.bincount(idx, minlength=mesh6.n_vertices) / len(idx)
    w = mesh6.mu_weights
    sigma = np.sqrt(w * (1 - w) / len(idx))
    assert np.all(np.abs(freq - w) <= 5 * sigma + 1e-12)
