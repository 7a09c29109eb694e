import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import gasketfields
from gasketfields import (analysis, errors, fields, geometry, riesz, shards, spectral, stable,
                          verify)
from gasketfields.constants import D_H, D_W, integrability_threshold
from gasketfields.errors import CapacityError, ContractError, DomainError, InvariantError


def _batch(s, alpha, spec, seeds):
    return fields.simulate_field(s, alpha, spec, seeds)


def _draw_coefficients(draw, alpha, mesh):
    """Point-mass coefficients of one LePage draw on the vertex set."""
    c = stable.d_alpha(alpha) * draw.arrivals ** (-1.0 / alpha) * draw.gaussians
    return np.bincount(mesh.site_vertices(draw.words), weights=c,
                       minlength=mesh.n_vertices)


def _conditional_increment_scale(xi, yi, s, draw, alpha, spectrum):
    """Conditional Gaussian scale of an increment given frozen (T, xi):

    s_alpha(x,y)^2 = D^2 E(g^2) sum_n T_n^(-2/alpha) |G(x,xi_n)-G(y,xi_n)|^2.
    """
    ev = riesz.KernelEvaluator(spectrum, s)
    idx = spectrum.mesh.site_vertices(draw.words)
    diff = ev.row(xi)[idx] - ev.row(yi)[idx]
    total = (draw.arrivals ** (-2.0 / alpha) * diff * diff).sum()
    return float(stable.d_alpha(alpha) * np.sqrt(total))


def _cell_noise(seed, alpha, mesh, top):
    """The seed's cell noise on V_m, written out: level-(top+1) cell c has
    the SaS mass 3^(-(top+1)/alpha) X_c and lies in level-(m+1) cell
    c // 3^(top-m), which the corner table maps to its vertex."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_cells = 3 ** (top + 1)
    masses = 3.0 ** (-(top + 1) / alpha) * stable.standard_stable(rng, alpha, n_cells)
    vertex = mesh.corner_table[np.arange(n_cells) // 3 ** (top - mesh.level)]
    return np.bincount(vertex, weights=masses, minlength=mesh.n_vertices)


def _per_seed_reference(s, alpha, spec, seeds):
    """One kernel apply per seed, to the seed's cell noise at the mesh level."""
    mesh, ev = spec.mesh, riesz.KernelEvaluator(spec, s)
    return np.array([ev.apply(_cell_noise(seed, alpha, mesh, mesh.level))
                     for seed in seeds])


def test_hurst_index_consistency():
    for s, alpha in ((0.9, 1.5), (1.2, 0.7), (1.0, 2.0)):
        h = fields.hurst_index(s, alpha)
        assert abs(h - (s * D_W - (alpha - 1.0) * D_H / alpha)) <= 1e-12


def test_threshold_enforced(spec_n):
    with pytest.raises(DomainError, match="threshold"):
        _batch(0.2, 1.5, spec_n, [0])
    # equality also rejected
    with pytest.raises(DomainError):
        _batch(integrability_threshold(1.5), 1.5, spec_n, [0])


@pytest.mark.parametrize("s,alpha,message", [
    (0.9, 0.0, "alpha 0.0 outside"), (0.9, -1.0, "alpha -1.0 outside"),
    (0.9, 2.5, "alpha 2.5 outside"), (0.9, np.nan, "alpha nan outside"),
    (np.nan, 1.5, "positive and finite"), (np.inf, 1.5, "positive and finite"),
    (-np.inf, 1.5, "positive and finite")])
def test_integrability_check_rejects_alpha_and_order_first(spec_n, s, alpha, message):
    # alpha is checked before the threshold that divides by it, and a
    # non-finite order before the threshold comparison it would pass
    with pytest.raises(DomainError, match=message):
        fields.check_integrable(s, alpha)
    with pytest.raises(DomainError, match=message):
        _batch(s, alpha, spec_n, [0])


def test_field_takes_mesh_bc_and_truncation_from_spectrum(mesh6, spec_d):
    # the spectrum alone fixes the vertex set, the boundary condition and
    # the truncation of the field: a returned array of one row per seed
    smp = _batch(0.9, 1.5, spec_d, [0])
    assert isinstance(smp, np.ndarray) and smp.shape == (1, mesh6.n_vertices)
    assert np.all(smp[:, mesh6.boundary] == 0.0)
    cut = _batch(0.9, 1.5, spec_d.truncated(60), [0])
    assert np.max(np.abs(cut - smp)) > 1e-3 * np.max(np.abs(smp))


@pytest.mark.parametrize("level", [5, 6])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_batch_matches_per_seed_apply(level, bc, alpha):
    # the batch is one kernel apply to the stacked noise; each row equals the
    # apply to its own seed's noise up to the roundoff of the matrix product
    spec = spectral.build_spectrum(level, bc, j_max=200)
    seeds = range(30, 37)
    got = fields.simulate_field(0.9, alpha, spec, seeds)
    want = _per_seed_reference(0.9, alpha, spec, seeds)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_rows_do_not_depend_on_the_batch(spec_n, alpha):
    # a realization's values depend on its batch only at roundoff
    big = fields.simulate_field(0.9, alpha, spec_n, range(100, 120))
    scale = np.max(np.abs(big))
    for size in (1, 2, 7):
        seeds = range(105, 105 + size)
        got = fields.simulate_field(0.9, alpha, spec_n, seeds)
        assert np.max(np.abs(got - big[5:5 + size])) <= 1e-12 * scale


@pytest.mark.parametrize("level", [5, 6])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
def test_vertex_reads_are_the_columns_of_the_whole_field(level, bc, alpha, monkeypatch):
    # a field read at a vertex set is the whole field's columns there, bit
    # for bit, at any noise level and shard count; a shard may draw a
    # single seed, so limits 2 and 3 fork
    monkeypatch.setattr(fields, "MIN_CELLS_PER_SHARD", 1)
    spec = spectral.build_spectrum(level, bc, j_max=200)
    mesh = spec.mesh
    sets = ([140, 3, 140], np.array([mesh.n_vertices - 1, 0, 77]), mesh.boundary, 140)
    seeds = range(7)
    for top in (level, level + 2):
        whole = fields.simulate_field(0.9, alpha, spec, seeds, top)
        for cap in (1, 2, 3):
            with shards.limit(cap):
                for vertices in sets:
                    got = fields.simulate_field(0.9, alpha, spec, seeds, top,
                                                vertices=vertices)
                    assert np.array_equal(got, whole[:, vertices]), (top, cap, vertices)


def test_vertex_reads_of_an_empty_batch_and_a_subcell(spec_n):
    empty = fields.simulate_field(0.9, 1.5, spec_n, [], vertices=[4, 5, 6])
    assert empty.shape == (0, 3)
    whole = fields.scaled_subcell_field((1, 2), 0.9, 1.5, spec_n, range(5))
    got = fields.scaled_subcell_field((1, 2), 0.9, 1.5, spec_n, range(5), vertices=[140, 2])
    assert np.array_equal(got, whole[:, [140, 2]])


def test_field_batch_capacity_error(spec_n, monkeypatch):
    # the batch's peak is 8 R (5n/3 + 3k) bytes, compared with the memory
    # probe before anything is mapped
    n, seeds = spec_n.mesh.n_vertices, range(40)
    need = 8 * len(seeds) * (5 * n / 3 + 3 * 2)
    monkeypatch.setattr(errors, "_physical_memory", lambda: need)
    fields.simulate_field(0.9, 1.5, spec_n, seeds, vertices=[1, 2])
    monkeypatch.setattr(errors, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(shards, "shared_array", None)
    with pytest.raises(CapacityError) as exc:
        fields.simulate_field(0.9, 1.5, spec_n, seeds, vertices=[1, 2])
    msg = str(exc.value)
    assert "level 6" in msg and "40 seeds" in msg and f"{need / 1e9:.2f} GB" in msg
    with pytest.raises(CapacityError):
        fields.scaled_subcell_field((1,), 0.9, 1.5, spec_n, range(10 ** 12))


def test_neumann_mean_zero_per_realization(mesh6, spec_n):
    smp = _batch(0.9, 1.5, spec_n, range(5))
    scale = np.max(np.abs(smp), axis=1)
    assert np.all(np.abs(geometry.quadrature(smp, mesh6)) <= 1e-4 * scale)


def test_dirichlet_vanishes_at_corners(mesh6, spec_d):
    smp = _batch(0.9, 1.5, spec_d, [3])
    assert np.all(smp[:, mesh6.boundary] == 0.0)


def test_marginal_law_matches_stable(spec_n):
    s, alpha, xi = 0.9, 1.5, 140
    vals = _batch(s, alpha, spec_n, range(300))[:, xi]
    scale = fields.marginal_scale(xi, s, alpha, spec_n)
    r = analysis.one_sample_ks(vals, alpha, scale)
    assert r["p_value"] > 0.01


@pytest.mark.parametrize("alpha", [float("nan"), 0.0, 2.5])
def test_marginal_scale_refuses_alpha_outside_the_domain(spec_n, alpha):
    with pytest.raises(DomainError, match="outside"):
        fields.marginal_scale(140, 0.9, alpha, spec_n)


def test_alpha2_marginal_variance(spec_n):
    s, xi = 1.0, 140
    vals = _batch(s, 2.0, spec_n, range(3000))[:, xi]
    target = 2.0 * fields.marginal_scale(xi, s, 2.0, spec_n) ** 2
    # sample variance of a Gaussian: relative sd sqrt(2/n)
    assert abs(vals.var() / target - 1.0) <= 4 * np.sqrt(2.0 / len(vals))


def test_conditional_increment_scale_zero_at_equal_points(spec_n):
    draw = stable.make_draw(11, 2000)
    assert _conditional_increment_scale(5, 5, 0.9, draw, 1.5, spec_n) == 0.0


def test_conditional_increment_resampling(spec_n):
    # freeze (T, xi), resample g: increment std matches the formula
    draw = stable.make_draw(42, 10_000)
    target = _conditional_increment_scale(100, 400, 0.9, draw, 1.5, spec_n)
    ev = riesz.KernelEvaluator(spec_n, 0.9)
    rng = np.random.default_rng(25)
    reps = np.empty(400)
    for k in range(400):
        d2 = replace(draw, gaussians=rng.standard_normal(draw.n_terms))
        f2 = ev.apply(_draw_coefficients(d2, 1.5, spec_n.mesh))
        reps[k] = f2[100] - f2[400]
    assert abs(reps.std() / target - 1.0) <= 0.15


def test_conditional_increment_modulus_bounded(mesh6, spec_n):
    # s_alpha(x, y) / (d^eta max(|ln d|^beta, 1)) bounded over dyadic pairs
    draw = stable.make_draw(7, 5000)
    s = 0.9
    ratios = []
    for dist, pairs in riesz.dyadic_pair_bins(mesh6, np.random.default_rng(0)):
        mod = riesz.holder_modulus(dist, s)
        for a, b in pairs[:10]:
            sc = _conditional_increment_scale(a, b, s, draw, 1.5, spec_n)
            ratios.append(sc / mod)
    assert np.isfinite(ratios).all()
    assert max(ratios) <= 10.0 * np.median(ratios)


def test_subcell_field_matched_draw_identity(spec_n):
    # with a shared draw the 2^(nH)-scaled subcell construction collapses
    # to the base field exactly: the kernel, measure-mass and Hurst
    # factors cancel by construction
    base = fields.simulate_field(0.9, 1.5, spec_n, [8])
    for word in ((0,), (1, 2)):
        sub = fields.scaled_subcell_field(word, 0.9, 1.5, spec_n, [8])
        assert np.allclose(sub, base, rtol=1e-10, atol=1e-14)


def test_subcell_field_matched_seed_identity_gaussian(spec_n):
    base = fields.simulate_field(0.9, 2.0, spec_n, [77])
    sub = fields.scaled_subcell_field((2,), 0.9, 2.0, spec_n, [77])
    assert np.allclose(sub, base, rtol=1e-10, atol=1e-14)


def test_subcell_word_validation(spec_n):
    with pytest.raises(ContractError):
        fields.scaled_subcell_field((), 0.9, 1.5, spec_n, [0])
    with pytest.raises(DomainError):
        fields.scaled_subcell_field((4,), 0.9, 1.5, spec_n, [0])


def test_distributional_field_eigenfunction_scale(spec_n):
    phi1 = spec_n.eigenvectors()[:, 0]
    lam1 = spec_n.eigenvalues[0]
    alpha = 1.5
    norm_alpha = (np.abs(phi1) ** alpha @ spec_n.mesh.mu_weights) ** (1.0 / alpha)
    got = geometry.alpha_norm(riesz.fractional_laplacian_inv(0.9, phi1, spec_n), alpha,
                              spec_n.mesh)
    assert got == pytest.approx(lam1 ** -0.9 * norm_alpha, rel=1e-10)
    # the draws are that scale times standard variates of the seed
    want = got * stable.standard_stable(np.random.default_rng(5), alpha, 4)
    assert np.array_equal(fields.distributional_field(phi1, 0.9, alpha, spec_n, 5, 4), want)


def test_distributional_field_zero_function(spec_n):
    assert np.array_equal(
        fields.distributional_field(np.zeros(1095), 0.9, 1.5, spec_n, 26, 3), np.zeros(3))


def test_duality_cf(mesh6, spec_n):
    # <f, field> against the distributional route, CF agreement at 3 MC sigma
    # f is basis-free: eigenspace projections of the x coordinate
    s, alpha, n = 0.9, 1.5, 1200
    x = mesh6.vertices[:, 0]
    f = spec_n.project(x, 1) + 0.5 * spec_n.project(x, 3)
    smp = _batch(s, alpha, spec_n, range(40_000, 40_000 + n))
    inner = geometry.quadrature(f * smp, mesh6)
    distr = fields.distributional_field(f, s, alpha, spec_n, 27, n)
    for u in (0.5, 1.0, 2.0):
        ca, cb = np.cos(u * inner), np.cos(u * distr)
        half = 3.0 * np.sqrt(ca.var() / n + cb.var() / n)
        assert abs(ca.mean() - cb.mean()) <= half


def test_symmetry_fdd_checks_fail_off_the_reflected_vertices(spec_n, monkeypatch):
    # mutation gate: the suite draws its batch at sigma_0(x1), sigma_0(x2)
    # and tests it against the exact law at x1, x2; read one vertex past
    # each image instead, at the default 1000 seeds, and an fdd check fails
    reflection = geometry.reflection_permutation

    def off_by_one(mesh, i):
        perm = reflection(mesh, i)
        if i == 0:
            perm = perm.copy()
            perm[[140, 600]] += 1
        return perm

    monkeypatch.setattr(geometry, "reflection_permutation", off_by_one)
    rep = verify.run_suite("symmetry")
    fdd = [c for c in rep["checks"] if c["name"].startswith("fdd_")]
    assert len(fdd) == 4 and not all(c["passed"] for c in fdd)


def test_eigenspace_projection_is_basis_free(mesh6, spec_n):
    # P h is the same for any orthonormal basis of the multiplet, and it
    # refuses an eigenspace that h has no component in
    x = mesh6.vertices[:, 0]
    j = spec_n.truncation(1)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((j, j)))
    turned = spec_n.eigenvectors()[:, :j] @ q
    p = spec_n.project(x, 1)
    assert np.max(np.abs(turned @ (turned.T @ (mesh6.mu_weights * x)) - p)) <= 1e-12
    with pytest.raises(InvariantError):
        spec_n.project(x, 2)
    # k counts eigenspaces from 1: no k below it names one
    for k in (0, -3):
        with pytest.raises(ContractError, match="must be >= 1"):
            spec_n.project(x, k)


def _leaves(value, path=""):
    """(path, leaf) pairs of a nested report value."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def test_field_marginals_independent_of_blas_threads(tmp_path):
    # Inside a multiplet the eigenvector basis follows the BLAS thread
    # count, so the suite may only see basis-free quantities: kernel sums
    # and eigenspace projections.  Tolerance, from their roundoff: an
    # eigenspace projection moves by about eps * lambda_max / gap, 5e-13
    # relative at level 6 (lambda_max = 1.4e5, gap 60 around lambda_3), and
    # a kernel by <= 1e-12 relative (see the kernel-matrix thread test);
    # RTOL leaves a factor 100 for the statistics built on them.  The one-
    # sample KS statistic is continuous in the sample values, so it too is
    # compared to RTOL, not exactly.  The two checks whose value is itself
    # a roundoff residual relative to the field scale compare to ATOL.
    rtol, atol = 1e-10, 1e-12
    residuals = ("neumann_mean_zero", "dirichlet_boundary_zero")
    code = (
        "import json, sys\n"
        "from gasketfields import verify\n"
        "rep = verify.run_suite('field-marginals', n_seeds=200)\n"
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
    assert len(one) == 7
    for a, b in zip(one, two):
        assert a["passed"] == b["passed"], a["name"]
        leaves_a, leaves_b = list(_leaves(a)), list(_leaves(b))
        assert [k for k, _ in leaves_a] == [k for k, _ in leaves_b]
        for (key, x), (_, y) in zip(leaves_a, leaves_b):
            if isinstance(x, float):
                tol = ({"abs": atol} if a["name"] in residuals
                       else {"rel": rtol, "abs": 0.0})
                assert x == pytest.approx(y, **tol), (a["name"], key)
            else:
                assert x == y, (a["name"], key)


def test_reflection_fdd_gaussian(mesh6, spec_n):
    # alpha = 2, Gaussian cells: field at reflected vertices over fresh
    # seeds matches the base law (two-sample KS on a marginal and the sum)
    s = 0.9
    x1, x2 = 140, 600
    perm = geometry.reflection_permutation(mesh6, 1)
    A = _batch(s, 2.0, spec_n, range(600))[:, [x1, x2]]
    B = _batch(s, 2.0, spec_n, range(10_000, 10_600))[:, perm[[x1, x2]]]
    assert analysis.two_sample(A[:, 0], B[:, 0])["p_value"] > 0.01
    assert analysis.two_sample(A.sum(1), B.sum(1))["p_value"] > 0.01


def test_spectral_band_additivity_on_shared_draw(mesh6, spec_n_full):
    # same driving noise, kernel split into spectral bands: the field is
    # additive across the bands
    low_spec, full_spec = spec_n_full.truncated(60), spec_n_full.truncated(240)
    j1, j2 = low_spec.n_modes, full_spec.n_modes
    low = fields.simulate_field(0.9, 1.5, low_spec, [13])[0]
    full = fields.simulate_field(0.9, 1.5, full_spec, [13])[0]
    # independent evaluation of the band j1+1..j2 contribution
    coeff = _cell_noise(13, 1.5, mesh6, 6)
    phi = spec_n_full.eigenvectors()[:, j1:j2]
    lam = spec_n_full.eigenvalues[j1:j2] ** -0.9
    band = phi @ (lam * (phi.T @ coeff))
    assert np.allclose(low + band, full, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
def test_cell_noise_integral_is_exactly_stable(alpha):
    # <f, noise> sums i.i.d. SaS cell masses, so it is SaS with scale^alpha
    # sum_v |f_v|^alpha incidence_v 3^-(m+1) = ||f||_alpha^alpha: the law of
    # `direct_replicates`, exactly, at any alpha in (0, 2]
    mesh = geometry.build_mesh(5)
    f = mesh.vertices[:, 0]
    noise = fields._noise_coefficients(alpha, mesh, range(2000), 5)
    direct = stable.direct_replicates(f, mesh, alpha, 2000, seed=7)
    assert analysis.two_sample(f @ noise, direct)["p_value"] > 0.01


def test_cell_noise_couples_levels_exactly():
    # one seed drawn at level top gives every level m <= top the same cells,
    # so the total noise mass is one sum on every level
    totals = [fields._noise_coefficients(1.3, geometry.build_mesh(m), [5], 6).sum()
              for m in range(7)]
    assert np.ptp(totals) <= 1e-13 * np.max(np.abs(totals))
    # and drawn at the mesh level it is the written-out reference
    mesh = geometry.build_mesh(4)
    assert np.array_equal(fields._noise_coefficients(1.3, mesh, [5], 6)[:, 0],
                          _cell_noise(5, 1.3, mesh, 6))


def test_noise_level_out_of_range_raises(spec_n):
    for top in (5, geometry.MAX_LEVEL + 1):
        with pytest.raises(DomainError, match="noise level"):
            fields.simulate_field(0.9, 1.5, spec_n, [0], top=top)
