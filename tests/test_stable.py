import copy
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gasketfields
from gasketfields import analysis, fields, geometry, shards, spectral, stable, verify
from gasketfields.errors import ContractError, DomainError, InvariantError


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


def test_alpha_domain_has_one_message(mesh6):
    # every public entry that takes alpha refuses it outside (0, 2], the
    # LePage series and its constants also at 2, all through `check_alpha`
    ones = np.ones(mesh6.n_vertices)
    rng = np.random.default_rng(0)
    entries = {
        False: (lambda a: stable.standard_stable(rng, a),
                lambda a: stable.direct_replicates(ones, mesh6, a, 10, seed=0),
                lambda a: fields.check_integrable(0.9, a),
                lambda a: analysis.stable_cdf(0.5, a, 1.0),
                lambda a: analysis.one_sample_ks([0.1, 0.2], a, 1.0)),
        True: (lambda a: stable.lepage_replicates(ones, mesh6, a, 10, 10, seed=0),
               stable.sine_integral, stable.d_alpha, stable.d_alpha_quadrature),
    }
    for series, calls in entries.items():
        bad = (0.0, -1.0, 2.5, np.nan) + ((2.0,) if series else ())
        for call in calls:
            for a in bad:
                message = f"alpha {a} outside (0, 2{')' if series else ']'}"
                with pytest.raises(DomainError) as err:
                    call(a)
                assert str(err.value) == message


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


_ORACLE_ALPHAS = [0.05, 0.3, 0.5, 0.7, 1.0, 1.3, 1.5, 1.9, 1.99]


@pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
def test_d_alpha_quadrature_is_exact_to_rounding(alpha):
    assert abs(stable.d_alpha(alpha) - stable.d_alpha_quadrature(alpha)) <= 1e-12


@pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
def test_d_alpha_quadrature_matches_adaptive_quadrature(alpha):
    # the reference: scipy's adaptive rules on (0, inf), on (0, 40 pi] and,
    # with the sine weight, beyond
    from scipy import integrate

    moment = integrate.quad(lambda x: np.sqrt(2.0 / np.pi) * x ** alpha
                            * np.exp(-x * x / 2.0), 0.0, np.inf, epsabs=1e-14)[0]
    head = integrate.quad(lambda x: x ** -alpha * np.sin(x), 0.0, 40.0 * np.pi,
                          limit=800, points=[0.0], epsabs=1e-14)[0]
    tail = integrate.quad(lambda x: x ** -alpha, 40.0 * np.pi, np.inf,
                          weight="sin", wvar=1.0, epsabs=1e-13)[0]
    reference = (moment * (head + tail)) ** (-1.0 / alpha)
    assert abs(stable.d_alpha_quadrature(alpha) - reference) <= 1e-11


def test_make_draw_deterministic():
    a = stable.make_draw(123, 500)
    b = stable.make_draw(123, 500)
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.words, b.words)
    assert a.words.dtype == np.int64
    assert a.words.shape == (500,)
    assert np.array_equal(a.gaussians, b.gaussians)


def test_make_draw_reuses_a_seed_sequence():
    # spawning must not advance the caller's SeedSequence: two calls on one
    # object give one draw, that of a fresh equal seed
    ss = np.random.SeedSequence(42, spawn_key=(3,))
    a, b = stable.make_draw(ss, 300), stable.make_draw(ss, 300)
    c = stable.make_draw(np.random.SeedSequence(42, spawn_key=(3,)), 300)
    for d in (b, c):
        assert np.array_equal(a.arrivals, d.arrivals)
        assert np.array_equal(a.words, d.words)
        assert np.array_equal(a.gaussians, d.gaussians)
    assert ss.n_children_spawned == 0


def test_make_draw_streams_are_split():
    # changing n_terms must not change the leading arrivals
    a = stable.make_draw(9, 100)
    b = stable.make_draw(9, 200)
    assert np.array_equal(a.arrivals, b.arrivals[:100])


def test_arrivals_strictly_increasing():
    d = stable.make_draw(1, 1000)
    assert np.all(np.diff(d.arrivals) > 0)
    assert d.arrivals[0] > 0
    assert d.arrivals[4] > d.arrivals[3]


def test_arrival_times_match_gamma_mean():
    # mean of T_n - n over n <= 1e4, averaged over 100 seeds; the statistic
    # has std ~ sqrt(N/3)/sqrt(seeds)
    n, seeds = 10_000, 100
    tot = 0.0
    for seed in range(seeds):
        d = stable.make_draw(seed, n)
        tot += (d.arrivals - np.arange(1, n + 1)).mean()
    grand = tot / seeds
    assert abs(grand) <= 3 * np.sqrt(n / 3.0) / np.sqrt(seeds)


def test_lepage_builders_validate_before_drawing(monkeypatch, mesh6):
    # the draw has no alpha; the route that forms its weights refuses
    # alpha = 2, in any position of an alpha sequence, and n_terms < 1
    # before drawing, even when zero replicates would draw nothing
    ones = np.ones(mesh6.n_vertices)
    monkeypatch.setattr(stable, "make_draw", None)
    for alpha, n_terms in ((2.0, 0), (2.0, 10), (1.5, 0), ((0.7, 1.0, 1.5, 2.0), 10)):
        with pytest.raises(DomainError):
            stable.lepage_replicates(ones, mesh6, alpha, n_terms, 0, seed=0)


@pytest.mark.parametrize("n_terms", [0, -5])
def test_lepage_replicates_rejects_no_terms(mesh6, n_terms):
    # as make_draw does: no term would give all-zero replicates
    with pytest.raises(DomainError):
        stable.make_draw(0, n_terms)
    with pytest.raises(DomainError):
        stable.lepage_replicates(np.ones(mesh6.n_vertices), mesh6, 1.5, n_terms,
                                 10, seed=0)


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


def _series_terms(values, mesh, alpha, n_terms, seeds):
    # each replicate's series ingredients, written out from its own draw
    # make_draw(seed): arrivals, f at the placed sites, gaussians
    for seed in seeds:
        draw = stable.make_draw(seed, n_terms)
        yield draw.arrivals, values[mesh.site_vertices(draw.words)], draw.gaussians


def test_lepage_replicates_match_series_reference(mesh6):
    # compensated: the merged-weight series D sqrt(T^(-2/alpha) + tau/N) g f
    # over replicate k's draw from SeedSequence(seed, spawn_key=(k,)), for a
    # non-constant f
    values = np.random.default_rng(5).standard_normal(mesh6.n_vertices)
    alpha, n_terms = 1.9, 300
    got = stable.lepage_replicates(values, mesh6, alpha, n_terms, 700, seed=12,
                                   tail_compensation=True)
    d_a, tail = stable.d_alpha(alpha), stable.arrival_tail_sum(alpha, n_terms)
    seeds = (np.random.SeedSequence(12, spawn_key=(k,)) for k in range(700))
    want = np.array([
        d_a * (np.sqrt(arr ** (-2.0 / alpha) + tail / n_terms) * g * fx).sum()
        for arr, fx, g in _series_terms(values, mesh6, alpha, n_terms, seeds)])
    assert got.shape == (700,)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lepage_replicates_raw_keep_series_stream(mesh6):
    # uncompensated one-column calls are the plain series
    # D sum_n T_n^(-1/alpha) f(xi_n) g_n over the draws of the seed's
    # spawned children, one per replicate
    values = np.random.default_rng(6).standard_normal(mesh6.n_vertices)
    alpha, n_terms = 1.5, 400
    got = stable.lepage_replicates(values, mesh6, alpha, n_terms, 600, seed=13)
    seeds = np.random.SeedSequence(13).spawn(600)
    want = np.array([
        stable.d_alpha(alpha) * (arr ** (-1.0 / alpha) * fx * g).sum()
        for arr, fx, g in _series_terms(values, mesh6, alpha, n_terms, seeds)])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lepage_replicate_independent_of_batch(mesh6):
    # replicate k does not depend on n_replicates: a longer call extends a
    # shorter one row for row
    F = np.random.default_rng(9).standard_normal((mesh6.n_vertices, 3))
    kw = dict(mesh=mesh6, alpha=1.5, n_terms=300, seed=17, tail_compensation=True)
    long = stable.lepage_replicates(F, n_replicates=300, **kw)
    assert np.array_equal(long[:100], stable.lepage_replicates(F, n_replicates=100, **kw))


@pytest.mark.parametrize("tail_compensation", [False, True])
def test_lepage_replicates_columns_share_one_draw(mesh6, tail_compensation):
    # column j of a batched call is the one-column call on the same seed
    F = np.random.default_rng(7).standard_normal((mesh6.n_vertices, 3))
    kw = dict(mesh=mesh6, alpha=1.2, n_terms=300, n_replicates=600, seed=14,
              tail_compensation=tail_compensation)
    batch = stable.lepage_replicates(F, **kw)
    assert batch.shape == (600, 3)
    for j in range(3):
        one = stable.lepage_replicates(F[:, j], **kw)
        assert np.max(np.abs(batch[:, j] - one)) <= 1e-12 * np.max(np.abs(one))


@pytest.mark.parametrize("tail_compensation", [False, True])
@pytest.mark.parametrize("columns", [None, 3])
def test_lepage_replicates_alphas_share_one_draw(mesh6, tail_compensation, columns):
    # row i of a call over several alphas is the one-alpha call on the same
    # seed, bit for bit, for 1-D and 2-D values
    shape = (mesh6.n_vertices,) if columns is None else (mesh6.n_vertices, columns)
    F = np.random.default_rng(10).standard_normal(shape)
    alphas = (0.7, 1.0, 1.5, 1.9)
    kw = dict(mesh=mesh6, n_terms=300, n_replicates=200, seed=18,
              tail_compensation=tail_compensation)
    batch = stable.lepage_replicates(F, alpha=alphas, **kw)
    assert batch.shape == (len(alphas), 200) + shape[1:]
    for i, alpha in enumerate(alphas):
        assert np.array_equal(batch[i], stable.lepage_replicates(F, alpha=alpha, **kw))


def test_lepage_vs_direct_draws_once_per_replicate(monkeypatch):
    # the four alphas share each replicate's draw: n draws, not 4 n (n is
    # the smallest sample two_sample accepts); the report names the shared
    # draw seed in its params and each cell's direct-sample seed; the calls
    # are counted in this process, so one shard makes them all
    calls = []
    make_draw = stable.make_draw
    monkeypatch.setattr(stable, "make_draw",
                        lambda *args: calls.append(args) or make_draw(*args))
    with shards.limit(1):
        rep = verify.run_suite("lepage-vs-direct", n=500, n_terms=100, seed0=4)
    assert len(rep["checks"]) == 12
    assert len(calls) == 500
    assert rep["params"]["seed0"] == 4
    assert rep["params"]["alphas"] == [0.7, 1.0, 1.5, 1.9]
    assert "SeedSequence(seed0, spawn_key=(k,))" in rep["params"]["lepage_draws"]
    seeds = [c["direct_seed"] for c in rep["checks"]]
    assert seeds == [4 + 1000 * ai + fi + 500_000 for ai in range(4) for fi in range(3)]


def test_lepage_replicates_rejects_misshaped_values(mesh6):
    n = mesh6.n_vertices
    for bad in (np.ones(n - 1), np.ones((n + 1, 2)), np.ones((n, 2, 2))):
        with pytest.raises(ContractError):
            stable.lepage_replicates(bad, mesh6, 1.5, 10, 10, seed=0)


def test_lepage_replicates_linear_on_each_draw(mesh6):
    # with the surrogate in the weights, the result is linear in the
    # integrand draw by draw
    rng = np.random.default_rng(8)
    F = rng.standard_normal((mesh6.n_vertices, 3))
    c = rng.standard_normal(3)
    kw = dict(mesh=mesh6, alpha=1.9, n_terms=300, n_replicates=600, seed=15,
              tail_compensation=True)
    lhs = stable.lepage_replicates(F @ c, **kw)
    rhs = stable.lepage_replicates(F, **kw) @ c
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_lepage_replicates_peak_memory(mesh6):
    # one draw is held at a time: the peak of a 500 x 1e4 call is a few
    # arrays of n_terms and n_vertices entries, not a block of replicates
    # (which would be 3 x 500 x 1e4 doubles)
    ones = np.ones(mesh6.n_vertices)
    n_terms = 10_000
    tracemalloc.start()
    try:
        stable.lepage_replicates(ones, mesh6, 1.5, n_terms, 500, seed=16,
                                 tail_compensation=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * (n_terms + mesh6.n_vertices)


def test_lepage_vs_direct_independent_of_blas_threads(tmp_path):
    # the battery is built from basis-invariant quantities, so the report
    # must not depend on the eigenvector basis the BLAS thread count picks
    code = (
        "import json, sys\n"
        "from gasketfields import verify\n"
        "rep = verify.run_suite('lepage-vs-direct', n=500, n_terms=200)\n"
        "json.dump(rep, open(sys.argv[1], 'w'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(gasketfields.__file__)),
         env.get("PYTHONPATH", "")])
    reports = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        path = tmp_path / f"r{threads}.json"
        proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(path.read_text())["checks"])
    one, two = reports
    assert [c["name"] for c in one] == [c["name"] for c in two]
    assert len(one) == 12
    for a, b in zip(one, two):
        assert a["passed"] == b["passed"]
        assert a["value"]["stat"] == b["value"]["stat"]
        assert a["value"]["p_value"] == pytest.approx(b["value"]["p_value"],
                                                      rel=1e-12, abs=0.0)


def test_lepage_vs_direct_refuses_vanishing_projection(monkeypatch, mesh6, spec_n):
    # a constant x coordinate has no component in a non-constant eigenspace
    flat = copy.copy(mesh6)
    flat.vertices = np.column_stack([np.full(mesh6.n_vertices, 0.5),
                                     mesh6.vertices[:, 1]])
    monkeypatch.setattr(geometry, "build_mesh", lambda level: flat)
    with pytest.raises(InvariantError):
        verify.run_suite("lepage-vs-direct", n=500, n_terms=10)


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


def test_arrival_tail_sum_matches_emitted_estimate(tmp_path):
    # a LePage `stable` export records the exact tail sum, which sits within
    # 1e-3 of its asymptote N^(1-2/alpha)/(2/alpha - 1)
    from gasketfields.cli import main

    for alpha in (1.2, 1.5, 1.9):
        exact = stable.arrival_tail_sum(alpha, 10_000)
        approx = 10_000 ** (1 - 2 / alpha) / (2 / alpha - 1)
        assert exact == pytest.approx(approx, rel=1e-3)
        out = tmp_path / f"a{alpha}"
        assert main(["stable", "--alpha", str(alpha), "--level", "2",
                     "--out", str(out)]) == 0
        meta = json.loads((tmp_path / f"a{alpha}_meta.json").read_text())
        assert meta["tail_estimate"] == exact


@pytest.mark.parametrize("alpha,n_terms", [(0.5, 1), (0.5, 3), (0.4, 2), (0.3, 1)])
def test_diverging_arrival_tail_is_refused(mesh6, alpha, n_terms):
    # E[T_n^(-2/alpha)] = Gamma(n - 2/alpha)/Gamma(n) is infinite for
    # n <= 2/alpha, so the tail over n > N diverges unless N + 1 > 2/alpha;
    # the LePage route forms the tail before it draws, so it refuses too
    with pytest.raises(DomainError, match=f"diverges at alpha {alpha}"):
        stable.arrival_tail_sum(alpha, n_terms)
    with pytest.raises(DomainError, match="n_terms must exceed 2/alpha - 1"):
        stable.lepage_replicates(np.ones(mesh6.n_vertices), mesh6, alpha, n_terms, 3, 0)


def test_arrival_tail_is_finite_past_its_bound():
    # N + 1 = 5 > 2/alpha = 4: Gamma(1) / (3 Gamma(4)) = 1/18
    assert stable.arrival_tail_sum(0.5, 4) == pytest.approx(1.0 / 18.0, rel=1e-14)


def test_draw_sites_match_snapped_measure_points():
    # a draw's words come from its site sub-stream, and each word places its
    # site where snapping the measure point with the word's digits puts it
    for seed, level in ((0, 4), (1, 6), (2, 7)):
        draw = stable.make_draw(seed, 20_000)
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
