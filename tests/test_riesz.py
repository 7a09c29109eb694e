import copy
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.special import gamma as gamma_fn

from gasketfields import geometry, riesz, spectral, verify
from gasketfields.constants import D_H, D_W
from gasketfields.errors import ContractError, DomainError

CRIT = D_H / D_W


def test_kernel_symmetry(spec_n):
    ev = riesz.KernelEvaluator(spec_n, 0.9)
    assert ev.value(10, 800) == ev.value(800, 10)


def test_kernel_row_integrates_to_zero(mesh6, spec_n):
    ev = riesz.KernelEvaluator(spec_n, 0.7)
    for xi in (0, 123, 1000):
        assert abs(ev.row(xi) @ mesh6.mu_weights) <= 1e-7


def test_dirichlet_kernel_vanishes_at_corners(mesh6, spec_d):
    ev = riesz.KernelEvaluator(spec_d, 0.9)
    for b in mesh6.boundary:
        assert np.max(np.abs(ev.row(b))) == 0.0


def test_diagonal_policy(spec_n):
    ev_low = riesz.KernelEvaluator(spec_n, 0.5)
    with pytest.raises(DomainError):
        ev_low.value(7, 7)
    ev_high = riesz.KernelEvaluator(spec_n, 0.9)
    assert np.isfinite(ev_high.value(7, 7))


@pytest.mark.parametrize("xi,yi", [([0, 1], [0, 2]), (0, [0, 1]),
                                   (np.array([0, 1]), np.array([0, 2]))],
                         ids=["lists", "scalar-and-list", "arrays"])
def test_diagonal_policy_whatever_the_index_type(xi, yi):
    # a pair on the diagonal is refused below d_h/d_w in every index form,
    # and so is the convolution defect whose s + t lies there
    spec = spectral.build_spectrum(3, "neumann")
    with pytest.raises(DomainError):
        riesz.KernelEvaluator(spec, 0.5).value(xi, yi)
    with pytest.raises(DomainError):
        riesz.kernel_semigroup_residual(0.25, 0.25, xi, yi, spec)


def test_order_must_be_positive(spec_n):
    with pytest.raises(DomainError):
        riesz.KernelEvaluator(spec_n, 0.0)


@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
def test_order_must_be_finite(spec_n, s):
    with pytest.raises(DomainError, match="finite"):
        riesz.KernelEvaluator(spec_n, s)
    with pytest.raises(DomainError, match="finite"):
        riesz.fractional_laplacian_inv(s, np.ones(spec_n.mesh.n_vertices), spec_n)
    with pytest.raises(DomainError, match="finite"):
        riesz.subcell_kernel_value(spec_n, s, 1, 0, 1)


def test_fractional_laplacian_on_eigenfunction(spec_n):
    phi1 = spec_n.eigenvectors()[:, 0]
    lam1 = spec_n.eigenvalues[0]
    out = riesz.fractional_laplacian_inv(0.6, phi1, spec_n)
    assert np.max(np.abs(out - lam1 ** -0.6 * phi1)) <= 1e-10


def test_fractional_laplacian_s0_identity():
    # full truncation at a small level: s = 0 is the mean-zero projection
    mesh = geometry.build_mesh(4)
    spec = spectral.build_spectrum(4, "neumann")
    rng = np.random.default_rng(8)
    f = rng.standard_normal(mesh.n_vertices)
    f0 = f - f @ mesh.mu_weights
    out = riesz.fractional_laplacian_inv(0.0, f, spec)
    assert np.max(np.abs(out - f0)) <= 1e-9


def test_fractional_laplacian_composition(mesh6, spec_n):
    rng = np.random.default_rng(9)
    f = rng.standard_normal(mesh6.n_vertices)
    once = riesz.fractional_laplacian_inv(0.9, f, spec_n)
    twice = riesz.fractional_laplacian_inv(
        0.5, riesz.fractional_laplacian_inv(0.4, f, spec_n), spec_n)
    assert np.max(np.abs(once - twice)) <= 1e-9


def test_fractional_laplacian_domain(spec_n):
    with pytest.raises(DomainError):
        riesz.fractional_laplacian_inv(-0.1, np.zeros(1095), spec_n)


def test_kernel_route_matches_coefficient_route(mesh6, spec_n):
    rng = np.random.default_rng(10)
    f = rng.standard_normal(mesh6.n_vertices)
    via_coeff = riesz.fractional_laplacian_inv(0.8, f, spec_n)
    ev = riesz.KernelEvaluator(spec_n, 0.8)
    via_kernel = ev.apply(mesh6.mu_weights * (f - f @ mesh6.mu_weights))
    assert np.max(np.abs(via_coeff - via_kernel)) <= 1e-6


def _dense_inverse_laplacian(form, f):
    """A^-1 M f by a dense solve on the form's rows.  Neumann solves the
    rank-one completion (A + M1 (M1)^T) u = M f0, f0 the mass-mean-free part
    of f, whose solution is the mass-mean-zero one."""
    w = form.weights
    A = form.stiffness.toarray()
    f = f[form.index]
    if form.bc == "neumann":
        f = f - f @ w
        A += np.outer(w, w)
    u = np.zeros(form.mesh.n_vertices)
    u[form.index] = np.linalg.solve(A, w * f)
    return u


@pytest.mark.parametrize("level", [4, 5, 6])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_integer_orders_are_sparse_solves(level, bc):
    # at full truncation (-Delta)^-1 is A^-1 M and (-Delta)^-2 is
    # A^-1 M A^-1 M, Neumann on mass-mean-zero functions: an oracle that
    # shares nothing with the eigensolve
    spec = spectral.build_spectrum(level, bc)
    form = spectral.assemble_form(spec.mesh, bc)
    f = np.random.default_rng(level).standard_normal(spec.mesh.n_vertices)
    once = _dense_inverse_laplacian(form, f)
    twice = _dense_inverse_laplacian(form, once)
    for s, want in ((1.0, once), (2.0, twice)):
        got = riesz.fractional_laplacian_inv(s, f, spec)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("s,t", [(0.9, 0.9), (0.5, 0.5), (0.7, 1.1)])
def test_semigroup_residual(mesh6, spec_n, s, t):
    # the residual is the defect relative to |G_{s+t}(a, b)|
    rng = np.random.default_rng(11)
    ev_s, ev_t, ev_st = (riesz.KernelEvaluator(spec_n, o) for o in (s, t, s + t))
    for _ in range(10):
        a, b = rng.choice(mesh6.n_vertices, 2, replace=False)
        resid = riesz.kernel_semigroup_residual(s, t, a, b, spec_n)
        assert resid <= 1e-3
        direct = ev_st.value(a, b)
        conv = np.sum(ev_s.row(a) * mesh6.mu_weights * ev_t.row(b))
        assert resid == abs(direct - conv) / abs(direct)


def test_semigroup_degenerate_order_rejected(spec_n):
    with pytest.raises(DomainError):
        riesz.kernel_semigroup_residual(0.9, 0.0, 1, 2, spec_n)


@pytest.mark.parametrize("s", [0.4, 0.6])
def test_kernel_exponent_fit(mesh6, spec_n, s):
    ev = riesz.KernelEvaluator(spec_n, s)
    fit = riesz.kernel_exponent_fit(ev, np.random.default_rng(12))
    assert abs(fit - (s * D_W - D_H)) <= 0.1


def test_dirichlet_kernel_exponent_and_positivity(mesh6, spec_d):
    # lower bound carries the first eigenfunction: check exponent and sign
    # away from the corners, not the constant
    d_corner = np.min([np.hypot(*(mesh6.vertices - mesh6.vertices[b]).T)
                       for b in mesh6.boundary], axis=0)
    interior = d_corner >= 0.25
    for s in (0.4, 0.6):
        ev = riesz.KernelEvaluator(spec_d, s)
        fit = riesz.kernel_exponent_fit(ev, np.random.default_rng(15))
        assert abs(fit - (s * D_W - D_H)) <= 0.1
        assert ev.matrix(interior, interior).min() > 0.0


@pytest.mark.parametrize("j_terms", [200, None])
@pytest.mark.parametrize("level", [5, 6])
def test_kernel_exponent_fit_matches_curve_fit(level, j_terms):
    # kernel-bounds' cells on its own stream: the searched power has a sum of
    # squares no larger than curve_fit's from the same start, and lies within
    # 1e-5 of its power
    rng = np.random.default_rng(4)
    for bc in ("neumann", "dirichlet"):
        spec = spectral.build_spectrum(level, bc, j_max=j_terms)
        for s in (0.4, 0.6):
            ev = riesz.KernelEvaluator(spec, s)
            dists, means = riesz._binned_means(ev, copy.deepcopy(rng))
            fit = riesz.kernel_exponent_fit(ev, rng)
            popt, _ = optimize.curve_fit(lambda d, c, p, b: c * d ** p - b, dists, means,
                                         p0=[1.0, s * D_W - D_H, 0.5], maxfev=20000)
            design = np.column_stack([dists ** fit, -np.ones_like(dists)])
            resid = design @ np.linalg.lstsq(design, means, rcond=None)[0] - means
            ref = popt[0] * dists ** popt[1] - popt[2] - means
            assert resid @ resid <= (ref @ ref) * (1.0 + 1e-12)
            assert abs(fit - popt[1]) <= 1e-5


def test_kernel_exponent_fit_requires_subcritical(spec_n):
    with pytest.raises(DomainError):
        riesz.kernel_exponent_fit(riesz.KernelEvaluator(spec_n, 0.9))


def test_kernel_log_fit_at_critical_order(spec_n):
    ev = riesz.KernelEvaluator(spec_n, CRIT)
    slope, r2 = riesz.kernel_log_fit(ev)
    assert slope > 0.0
    assert r2 >= 0.9


def test_holder_ratio_bounded_across_levels():
    for s in (0.8, 1.0):
        ratios = []
        for m in (5, 6):
            spec = spectral.build_spectrum(m, "neumann", j_max=200)
            ev = riesz.KernelEvaluator(spec, s)
            ratios.append(riesz.kernel_holder_ratio(ev, np.random.default_rng(13)))
        assert ratios[1] <= 1.2 * ratios[0]


def test_holder_ratio_requires_supercritical(spec_n):
    with pytest.raises(DomainError):
        riesz.kernel_holder_ratio(riesz.KernelEvaluator(spec_n, 0.5),
                                  np.random.default_rng(0))


def test_kernel_holder_suite_needs_two_increasing_levels():
    # each level's ratio is judged against the first level's: one level
    # compares nothing, and an unordered list has the wrong baseline
    for levels in ((), (4,), (5, 4), (4, 4), (4, 6, 5)):
        with pytest.raises(ContractError, match="strictly increasing"):
            verify.run_suite("kernel-holder", levels=levels)


def test_reflection_invariance(spec_n):
    defects = riesz.reflection_defects(riesz.KernelEvaluator(spec_n, 0.9))
    assert len(defects) == 3
    assert max(defects) <= 1e-8


def _dense_reflection_defects(ev):
    """Reference: the defects read from the whole kernel matrix."""
    G = ev.matrix()
    defects = []
    for i in range(3):
        perm = geometry.reflection_permutation(ev.spectrum.mesh, i)
        D = G[np.ix_(perm, perm)] - G
        defects.append(float(max(D.max(), -D.min())))
    return defects


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("level", [4, 5, 6])
def test_reflection_defects_match_dense_matrix(level, bc):
    # blocks of whole D3 orbits read each entry as the whole matrix does
    for j_max in (200, None):
        ev = riesz.KernelEvaluator(spectral.build_spectrum(level, bc, j_max=j_max), 0.9)
        assert riesz.reflection_defects(ev) == _dense_reflection_defects(ev)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_kernel_is_sigma2_symmetric_bit_for_bit(level, bc):
    # every mode is sigma_2-even or sigma_2-odd, so G(sigma_2 x, sigma_2 y)
    # = G(x, y) exactly; the full `cli kernel` dump writes each mirror row
    # from its twin's strings where the bits agree
    sigma = geometry.reflection_permutation(geometry.build_mesh(level), 2)
    for j_max in (200, None):
        for s in (0.5, 0.9):
            ev = riesz.KernelEvaluator(spectral.build_spectrum(level, bc, j_max=j_max), s)
            G = ev.matrix()
            assert np.array_equal(G[sigma][:, sigma].view(np.int64), G.view(np.int64))
            assert riesz.reflection_defects(ev)[2] == 0.0


def test_subcell_scaling_identity(spec_n):
    ev = riesz.KernelEvaluator(spec_n, 0.9)
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        for _ in range(20):
            a, b = rng.choice(1095, 2, replace=False)
            lhs = riesz.subcell_kernel_value(spec_n, 0.9, n, a, b)
            rhs = 3.0 ** n * 5.0 ** (-n * 0.9) * ev.value(a, b)
            assert abs(lhs - rhs) <= 1e-9


def test_monotone_truncation_bound(spec_n_full):
    s = 0.9
    lam = spec_n_full.eigenvalues
    phi = spec_n_full.eigenvectors()
    for j in (50, 120, 300):
        spec_j = spec_n_full.truncated(j)
        spec_j1 = spec_n_full.truncated(spec_j.n_modes + 1)
        jj, j1 = spec_j.n_modes, spec_j1.n_modes
        ev_j = riesz.KernelEvaluator(spec_j, s)
        ev_j1 = riesz.KernelEvaluator(spec_j1, s)
        # the added terms are one multiplet; Cauchy-Schwarz bounds its
        # eigenprojector kernel by its largest diagonal value, whatever
        # basis eigh picks inside the multiplet, and the bound is attained
        bound = lam[jj] ** -s * np.max(np.sum(phi[:, jj:j1] ** 2, axis=1))
        diff = np.max(np.abs(ev_j1.matrix() - ev_j.matrix()))
        assert diff <= bound + 1e-12
        assert diff >= bound * (1 - 1e-6)


def riesz_kernel_time_integral(spectrum, s, xi, yi, t_max=60.0):
    """Oracle: adaptive quadrature of the Mellin time integral.

    Integrates t^(s-1) (p_t(x,y) - 1) (Neumann; Dirichlet drops the 1)
    against the same truncated heat kernel.  The substitution u = t^s
    removes the endpoint singularity, so plain adaptive quadrature
    reaches machine accuracy.
    """
    shift = 1.0 if spectrum.bc == spectral.NEUMANN else 0.0

    def integrand(u):
        return spectral.heat_kernel(u ** (1.0 / s), xi, yi, spectrum) - shift

    val, _ = integrate.quad(integrand, 0.0, t_max ** s, limit=500,
                            epsabs=1e-13, epsrel=1e-11)
    return val / (s * gamma_fn(s))


def test_time_integral_cross_check(spec_n):
    ev = riesz.KernelEvaluator(spec_n, 0.9)
    for (a, b) in ((0, 1), (100, 700)):
        quad = riesz_kernel_time_integral(spec_n, 0.9, a, b)
        assert quad == pytest.approx(ev.value(a, b), rel=1e-8)


def test_tail_bound_reported(spec_n):
    ev = riesz.KernelEvaluator(spec_n.truncated(150), 0.9)
    assert ev.tail_bound(spec_n) > 0.0
    assert riesz.KernelEvaluator(spec_n, 0.9).tail_bound(spec_n) == 0.0


# Test-local references: the kernel statistics as they read the whole
# dense matrix G = Spectrum.matrix(g) before reading only the entries used.

def _dense_binned_means(G, mesh, rng):
    dists, means = [], []
    for dist, pairs in riesz.dyadic_pair_bins(mesh, rng):
        dists.append(dist)
        means.append(G[pairs[:, 0], pairs[:, 1]].mean())
    return np.array(dists), np.array(means)


def _dense_exponent_fit(G, ev, rng):
    # run to convergence: at the default tolerances curve_fit stops up to
    # 5e-6 short of the least-squares power
    dists, means = _dense_binned_means(G, ev.spectrum.mesh, rng)
    popt, _ = optimize.curve_fit(lambda d, c, p, b: c * d ** p - b, dists, means,
                                 p0=[1.0, ev.s * D_W - D_H, 0.5], maxfev=20000,
                                 ftol=1e-14, xtol=1e-14, gtol=1e-14)
    return float(popt[1])


def _dense_log_fit(G, ev, rng):
    dists, ys = _dense_binned_means(G, ev.spectrum.mesh, rng)
    xs = -np.log(dists)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return float(slope), float(1.0 - resid @ resid / ((ys - ys.mean()) @ (ys - ys.mean())))


def _dense_holder_ratio(G, ev, rng, n_z=40):
    mesh = ev.spectrum.mesh
    zs = rng.choice(mesh.n_vertices, size=min(n_z, mesh.n_vertices), replace=False)
    worst = 0.0
    for dist, pairs in riesz.dyadic_pair_bins(mesh):
        diff = np.abs(G[np.ix_(pairs[:, 0], zs)] - G[np.ix_(pairs[:, 1], zs)])
        worst = max(worst, float(diff.max()) / riesz.holder_modulus(dist, ev.s))
    return worst


@pytest.mark.parametrize("s", [0.4, 0.6, 0.9, 1.3])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("level", [5, 6])
def test_entry_reads_match_dense_matrix(level, bc, s):
    spec = spectral.build_spectrum(level, bc, j_max=200)
    ev = riesz.KernelEvaluator(spec, s)
    G = spec.matrix(ev.lam_pow)
    tol = 1e-12 * np.max(np.abs(G))
    n = spec.mesh.n_vertices
    rng = np.random.default_rng(16)
    a, b = np.array([rng.choice(n, 2, replace=False) for _ in range(300)]).T
    # one pair, a 1-D and a 2-D array of pairs
    assert abs(ev.value(a[0], b[0]) - G[a[0], b[0]]) <= tol
    assert np.max(np.abs(ev.value(a, b) - G[a, b])) <= tol
    grid = ev.value(a.reshape(20, 15), b.reshape(20, 15))
    assert np.max(np.abs(grid - G[a, b].reshape(20, 15))) <= tol
    if s > CRIT:
        assert np.max(np.abs(ev.value(a, a) - G[a, a])) <= tol
    # blocks over index arrays and a mask; the default is the whole matrix
    assert np.max(np.abs(ev.matrix(a[:40], b[:70]) - G[np.ix_(a[:40], b[:70])])) <= tol
    assert np.max(np.abs(ev.matrix(a[:40]) - G[a[:40]])) <= tol
    mask = rng.random(n) < 0.3
    assert np.max(np.abs(ev.matrix(mask, mask) - G[np.ix_(mask, mask)])) <= tol
    assert np.array_equal(ev.matrix(), G)
    # the semigroup residual over arrays is the per-pair one; both divide
    # by the same |G_{s+0.5}(a, b)|, so the absolute defects are compared
    resid = riesz.kernel_semigroup_residual(s, 0.5, a[:30], b[:30], spec)
    single = [riesz.kernel_semigroup_residual(s, 0.5, x, y, spec)
              for x, y in zip(a[:30], b[:30])]
    scale = np.abs(riesz.KernelEvaluator(spec, s + 0.5).value(a[:30], b[:30]))
    assert np.max(np.abs(resid - single) * scale) <= tol


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("level", [5, 6])
def test_kernel_statistics_match_dense_references(level, bc):
    spec = spectral.build_spectrum(level, bc, j_max=200)
    for s in (0.4, 0.6):
        ev = riesz.KernelEvaluator(spec, s)
        G = spec.matrix(ev.lam_pow)
        fit = riesz.kernel_exponent_fit(ev, np.random.default_rng(17))
        assert abs(fit - _dense_exponent_fit(G, ev, np.random.default_rng(17))) <= 1e-6
    ev = riesz.KernelEvaluator(spec, CRIT)
    G = spec.matrix(ev.lam_pow)
    got = riesz.kernel_log_fit(ev, np.random.default_rng(18))
    ref = _dense_log_fit(G, ev, np.random.default_rng(18))
    assert np.max(np.abs(np.subtract(got, ref))) <= 1e-6
    for s in (0.9, 1.3):
        ev = riesz.KernelEvaluator(spec, s)
        G = spec.matrix(ev.lam_pow)
        ratio = riesz.kernel_holder_ratio(ev, np.random.default_rng(19))
        ref = _dense_holder_ratio(G, ev, np.random.default_rng(19))
        assert abs(ratio - ref) <= 1e-12 * ref


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_statistics_stay_below_one_dense_matrix():
    # the suites read only the kernel entries their statistics use, so
    # their traced allocation peak stays below one n x n float64 array
    n = geometry.build_mesh(6).n_vertices
    for level, bc in ((6, "neumann"), (6, "dirichlet"), (4, "neumann"), (5, "neumann")):
        spectral.build_spectrum(level, bc, j_max=200)   # solved outside the trace
    ev = riesz.KernelEvaluator(spectral.build_spectrum(6, "neumann"), 0.9)
    for run in (lambda: verify.suite_kernel_bounds(level=6), verify.suite_kernel_holder,
                lambda: riesz.reflection_defects(ev)):
        peak = _traced_peak(run)
        assert peak < 8 * n * n, f"peak {peak / (8 * n * n):.2f} n^2 doubles"


def test_field_checks_stay_below_one_batch_of_vertex_values():
    # symmetry and scaling read their fields at one or two vertices, so
    # their traced allocation peak stays below one n x n_seeds float64
    # array, the whole-field batch; the shared noise map is not traced
    n, n_seeds = geometry.build_mesh(6).n_vertices, 500
    spectral.build_spectrum(6, "neumann", j_max=200)   # solved outside the trace
    for suite in (verify.suite_symmetry, verify.suite_scaling):
        peak = _traced_peak(lambda: suite(level=6, n_seeds=n_seeds))
        assert peak < 8 * n * n_seeds, f"{suite.__name__}: peak {peak / 1e6:.2f} MB"


def test_kernel_reads_at_level_7_stay_below_a_quarter_matrix():
    # no n x n kernel array at level 7 either: kernel-bounds' positivity
    # block and the reflection defects are read 64 rows at a time
    n = geometry.build_mesh(7).n_vertices
    for bc in ("neumann", "dirichlet"):
        spectral.build_spectrum(7, bc, j_max=200)   # solved outside the trace
    ev = riesz.KernelEvaluator(spectral.build_spectrum(7, "neumann"), 0.9)
    for run in (lambda: verify.suite_kernel_bounds(level=7),
                lambda: riesz.reflection_defects(ev)):
        peak = _traced_peak(run)
        assert peak < 0.25 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n^2 doubles"


@pytest.mark.parametrize("level", [5, 6, 7])
def test_dirichlet_positivity_is_the_dense_minimum(level):
    # the check's value is the minimum of the dense interior block over the
    # rows of the interior orbit representatives that it reads, and it names
    # the order and the vertex pair where that minimum sits; the interior is
    # D3-invariant, so by symmetry it is the minimum of the whole block up
    # to roundoff
    report = verify.run_suite("kernel-bounds", level=level)
    check = next(c for c in report["checks"] if c["name"] == "dirichlet_interior_positive")
    mesh = geometry.build_mesh(level)
    interior = verify._interior(mesh)
    for i in range(3):
        assert np.array_equal(interior[geometry.reflection_permutation(mesh, i)], interior)
    reps = geometry.symmetry_orbits(mesh)[0]
    reps = reps[interior[reps]]
    spec = spectral.build_spectrum(level, "dirichlet", j_max=200)
    G = {s: riesz.KernelEvaluator(spec, s).matrix(interior, interior) for s in (0.4, 0.6)}
    at = np.searchsorted(np.flatnonzero(interior), reps)
    assert check["value"] == min(block[at].min() for block in G.values())
    assert check["x"] in reps and interior[check["y"]]
    x, y = np.searchsorted(np.flatnonzero(interior), (check["x"], check["y"]))
    assert G[check["s"]][x, y] == check["value"]
    assert check["value"] == pytest.approx(min(block.min() for block in G.values()),
                                           rel=1e-14)


def test_binned_means_one_read_is_the_per_bin_reads(spec_n, spec_d, spec_n_full):
    # every bin read in one value call gives each bin's mean as its own
    # read does, bit for bit: the four exponent fits and the critical log fit
    # of kernel-bounds on one generator, and the full level-6 spectrum
    # without sampling, whose 3276 pairs value reads in two chunks
    rng_one, rng_bins = np.random.default_rng(4), np.random.default_rng(4)
    cases = [(spec, s, True) for spec in (spec_n, spec_d) for s in (0.4, 0.6)]
    for spec, s, sampled in cases + [(spec_n, CRIT, True), (spec_n_full, CRIT, False)]:
        ev = riesz.KernelEvaluator(spec, s)
        dists, means = riesz._binned_means(ev, rng_one if sampled else None)
        bins = riesz.dyadic_pair_bins(spec.mesh, rng_bins if sampled else None)
        assert np.array_equal(dists, [d for d, _ in bins])
        assert np.array_equal(means, [ev.value(p[:, 0], p[:, 1]).mean() for _, p in bins])


def test_spectral_and_fits_read_in_few_passes(monkeypatch):
    # suite_spectral reads its heat-kernel rows in 10 block passes: the
    # three mass rows, the three corner rows together and, per time of the
    # semigroup check, the rows of its 10 vertices together; an exponent fit
    # reads all of its bins in one value call
    calls = []
    row_blocks, value = spectral.Spectrum.row_blocks, spectral.Spectrum.value
    monkeypatch.setattr(spectral.Spectrum, "row_blocks",
                        lambda self, *a: calls.append("row_blocks") or row_blocks(self, *a))
    monkeypatch.setattr(spectral.Spectrum, "value",
                        lambda self, *a: calls.append("value") or value(self, *a))
    verify.suite_spectral(level=6)
    assert calls.count("row_blocks") == 10
    calls.clear()
    ev = riesz.KernelEvaluator(spectral.build_spectrum(6, "neumann", j_max=200), 0.4)
    riesz.kernel_exponent_fit(ev, np.random.default_rng(4))
    assert calls == ["value"]
