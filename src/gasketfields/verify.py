"""Named verification suites binding the quantitative laws to pass/fail reports.

Every suite returns `(checks, fixed)`: one entry per check (name, measured
statistic, declared tolerance and verdict) and the values it fixes that
are not parameters.  `run_suite` alone builds the JSON-serializable
report, whose `params` holds every parameter of the suite at the value
it ran with, defaults included, and the fixed values.  Every verdict,
target, tolerance and significance level is set here; `analysis` returns
only statistics.  Verdicts are deterministic functions of (parameters,
seeds, tolerances) only, so any report is reproducible from its own
metadata.

Suites (see the CLI `verify` subcommand): spectral, ahlfors,
kernel-bounds, kernel-holder, semigroup, stable-cf, lepage-vs-direct,
field-marginals, symmetry, scaling, holder-paths, divergence.
"""

import inspect

import numpy as np

from . import analysis, fields, geometry, riesz, spectral, stable
from .constants import D_H, D_W
from .errors import ContractError, ResolutionError


def _check(name, value, passed, **extra):
    return {"name": name, "value": value, "passed": bool(passed), **extra}


def _near(name, value, target, tolerance, **extra):
    """Target rule: |value - target| <= tolerance."""
    return _check(name, value, abs(value - target) <= tolerance,
                  target=target, tolerance=tolerance, **extra)


def _bounded(name, value, bound, key="tolerance", **extra):
    """Bound rule: value <= bound, recorded under `key`."""
    return _check(name, value, value <= bound, **{key: bound}, **extra)


def _exact_law(name, samples, alpha, scale):
    """Exact-law rule: the one-sample KS test of `samples` against SaS of
    `scale` passes when its p-value exceeds the significance level."""
    significance = 0.01
    r = analysis.one_sample_ks(samples, alpha, scale)
    return _check(name, r, r["p_value"] > significance,
                  scale=scale, significance=significance)


def _require_level(suite, level, lowest, why):
    if level < lowest:
        raise ResolutionError(f"{suite} needs level >= {lowest} ({why}), got {level}")


def _inverse_laplacian(form, f):
    """(-Delta)^-1 f on the form's rows by the sparse solve A u = M f.  Neumann
    takes the mass-mean-free part of f, pins row 0 and shifts the solution
    to mass mean zero."""
    # imported at its one use: loading it adds 2 MB to any process peak RSS
    import scipy.sparse.linalg

    A, w, f = form.stiffness.tocsc(), form.weights, f[form.index]
    if form.bc == spectral.DIRICHLET:
        return scipy.sparse.linalg.spsolve(A, w * f)
    u = np.zeros(len(f))
    u[1:] = scipy.sparse.linalg.spsolve(A[1:, 1:], (w * (f - f @ w))[1:])
    return u - u @ w


def suite_ahlfors(level=6):
    """Ball-measure regularity: log-log slope = d_h over the radii
    2^-1..2^-(m-2), at least four (level >= 6), and two-sided bounds."""
    _require_level("ahlfors", level, 6, "four radii")
    radii = [2.0 ** -j for j in range(1, level - 1)]
    mesh = geometry.build_mesh(level)
    # the three corners, then the vertices (0.5, 0) and (0.25, sqrt(3)/8)
    inner = mesh.vertex_index([[2 ** level, 0], [2 ** (level - 1), 2 ** (level - 2)]])
    anchors = [mesh.vertices[i] for i in (*mesh.boundary, *inner)]
    checks = []
    for ai, x in enumerate(anchors):
        mus = [geometry.ball_measure_estimate(x, r, mesh) for r in radii]
        slope = analysis.ahlfors_regression(mus, radii)
        checks.append(_near(f"slope_anchor_{ai}", slope, D_H, 0.05))
        in_bounds = all((1.0 / 3.0) * r ** D_H <= mu <= 18.0 * r ** D_H
                        for mu, r in zip(mus, radii))
        checks.append(_check(f"bounds_anchor_{ai}", mus, in_bounds,
                             bounds="[(1/3) r^dh, 18 r^dh]", radii=radii))
    return checks, {"radii": radii}


def suite_spectral(level=6):
    """Heat-kernel mass conservation, Dirichlet vanishing, eigenvalue growth
    over modes 10..200 (level >= 5)."""
    _require_level("spectral", level, 5, "200 modes")
    mesh = geometry.build_mesh(level)
    spec_n = spectral.build_spectrum(level, spectral.NEUMANN)
    spec_d = spectral.build_spectrum(level, spectral.DIRICHLET)
    checks, slope_tol = [], 0.08
    xi = mesh.n_vertices // 2
    for t in (0.01, 0.1, 1.0):
        defect = abs(spectral.heat_kernel_row(t, xi, spec_n) @ mesh.mu_weights - 1.0)
        checks.append(_bounded(f"neumann_mass_t={t}", defect, 1e-6))
    corner_sup = np.max(np.abs(spectral.heat_kernel_row(0.1, mesh.boundary, spec_d)))
    checks.append(_check("dirichlet_corner_rows", corner_sup, corner_sup <= 1e-12,
                         tolerance="truncation (exact zero by construction)"))
    big_t = abs(spectral.heat_kernel(50.0, 3, xi, spec_n) - 1.0)
    checks.append(_bounded("neumann_large_time", big_t, 1e-8))
    j = np.arange(10, 201)
    for name, spec in (("neumann", spec_n), ("dirichlet", spec_d)):
        slope, _ = np.polyfit(np.log(j), np.log(spec.eigenvalues[j - 1]), 1)
        checks.append(_near(f"eigenvalue_slope_{name}", float(slope), D_W / D_H,
                            slope_tol))
    # semigroup property of the heat kernel itself, on 10 pairs (a, b): per
    # (t, s), the rows p_t(a, .) and p_s(b, .) are two 10-row blocks
    a, b = geometry.vertex_pairs(np.random.default_rng(2), mesh.n_vertices, 10)
    worst = 0.0
    for (t, s) in ((0.05, 0.05), (0.3, 0.7), (1.0, 0.2)):
        conv = np.sum(spectral.heat_kernel_row(t, a, spec_n) * mesh.mu_weights
                      * spectral.heat_kernel_row(s, b, spec_n), axis=1)
        worst = max(worst, float(np.max(np.abs(
            conv - spectral.heat_kernel(t + s, a, b, spec_n)))))
    checks.append(_bounded("heat_semigroup", worst, 1e-5))
    # sub-Gaussian sanity: binned off-diagonal decay is monotone, and the
    # fitted on-diagonal constants share the t^(-dh/dw) scaling (qualitative)
    consts = []
    diag = np.arange(0, mesh.n_vertices, 7)
    bins = [pairs[:120] for _, pairs in riesz.dyadic_pair_bins(mesh)]
    for t in (0.01, 0.05):
        consts.append(spectral.heat_kernel(t, diag, diag, spec_n).max()
                      * t ** (D_H / D_W))
        means = riesz.binned_means(
            bins, lambda a, b: spectral.heat_kernel(t, a, b, spec_n))
        monotone = all(means[k] < means[k + 1] for k in range(len(means) - 1))
        checks.append(_check(f"subgaussian_decay_t={t}", means, monotone,
                             note="binned kernel increases as distance shrinks"))
    ratio = max(consts) / min(consts)
    checks.append(_check("on_diagonal_scaling", consts, ratio <= 2.0,
                         note="fitted constants within factor 2 across t"))
    return checks, {}


def suite_semigroup(level=6, j_terms=200, seed=10):
    """Riesz operator identities: kernel convolution, route agreement,
    composition."""
    mesh = geometry.build_mesh(level)
    rng = np.random.default_rng(seed)
    checks, n_pairs, rel_tol = [], 100, 1e-3
    for bc in (spectral.NEUMANN, spectral.DIRICHLET):
        spec = spectral.build_spectrum(level, bc, j_max=j_terms)
        for (s, t) in ((0.5, 0.5), (0.9, 0.9), (0.7, 1.1)):
            a, b = geometry.vertex_pairs(rng, mesh.n_vertices, n_pairs)
            worst = float(np.max(riesz.kernel_semigroup_residual(s, t, a, b, spec)))
            checks.append(_bounded(f"conv_residual_{bc}_s={s}_t={t}", worst, rel_tol))
        f = rng.standard_normal(mesh.n_vertices)
        # a route that shares nothing with the eigensolve: at s = 1 the sum
        # over the full spectrum is the sparse solve A u = M f (Dirichlet
        # rows exclude V_0, where both routes are zero by construction)
        form = spectral.assemble_form(mesh, bc)
        via_spectrum = riesz.fractional_laplacian_inv(
            1.0, f, spectral.build_spectrum(level, bc))[form.index]
        agree = float(np.max(np.abs(via_spectrum - _inverse_laplacian(form, f))))
        checks.append(_bounded(f"spectral_vs_kernel_{bc}", agree, 1e-6))
        comp = float(np.max(np.abs(
            riesz.fractional_laplacian_inv(
                0.4, riesz.fractional_laplacian_inv(0.3, f, spec), spec)
            - riesz.fractional_laplacian_inv(0.7, f, spec))))
        checks.append(_bounded(f"composition_{bc}", comp, 1e-9))
    return checks, {"n_pairs": n_pairs}


def _interior(mesh):
    """Mask of the vertices at distance >= 1/4 from every corner, decided on
    the exact coordinates: |(da, db)|^2 = (da^2 + 3 db^2) / 4^(m+1), so the
    set is D3-invariant as the distance is (float distances at exactly 1/4
    round to either side)."""
    diff = mesh.coords_ab[:, None, :] - mesh.coords_ab[mesh.boundary]
    return np.all(4 * (diff[..., 0] ** 2 + 3 * diff[..., 1] ** 2) >= 4 ** mesh.level,
                  axis=1)


def suite_kernel_bounds(level=6, j_terms=200, seed=4):
    """Kernel growth exponents s*d_w - d_h and the critical log profile.

    The Dirichlet kernel is additionally checked for positivity away from
    the corner set (its lower bound carries the first eigenfunction as an
    envelope, so only the exponent and the sign are asserted); the kernel
    and that set are D3-invariant, so the sign is read on the rows of the
    set's orbit representatives only.
    """
    mesh = geometry.build_mesh(level)
    rng = np.random.default_rng(seed)
    checks, tol = [], 0.1
    spec_n, spec_d = (spectral.build_spectrum(level, bc, j_max=j_terms)
                      for bc in (spectral.NEUMANN, spectral.DIRICHLET))
    for spec in (spec_n, spec_d):
        for s in (0.4, 0.6):
            ev = riesz.KernelEvaluator(spec, s)
            fit = riesz.kernel_exponent_fit(ev, rng)
            checks.append(_near(f"exponent_{spec.bc}_s={s}", fit, s * D_W - D_H, tol))
    ev_c = riesz.KernelEvaluator(spec_n, D_H / D_W)
    slope, r2 = riesz.kernel_log_fit(ev_c, rng)
    checks.append(_check("critical_log_slope", slope, slope > 0.0))
    checks.append(_check("critical_log_r2", r2, r2 >= 0.9, tolerance=0.9))
    # Dirichlet positivity away from the corners.  G(g x, y) = G(x, g^-1 y)
    # for g in D3 and the interior is a union of orbits, so the rows of its
    # orbit representatives hold every value of the interior block
    inside = _interior(mesh)
    interior = np.flatnonzero(inside)
    reps = geometry.symmetry_orbits(mesh)[0]
    reps = reps[inside[reps]]
    # the minimum of each row block, and where it sits
    minima = []
    for s in (0.4, 0.6):
        for x, block in riesz.KernelEvaluator(spec_d, s).row_blocks(reps, interior):
            r, c = np.unravel_index(np.argmin(block), block.shape)
            minima.append((float(block[r, c]), s, int(x[r]), int(interior[c])))
    value, s, x, y = min(minima)
    checks.append(_check("dirichlet_interior_positive", value, value > 0.0,
                         note="interior = distance >= 1/4 from every corner",
                         s=s, x=x, y=y))
    return checks, {}


def suite_kernel_holder(levels=(4, 5, 6), j_terms=200, seed=5):
    """Kernel increment-ratio boundedness across refinement levels: each
    level's ratio against the first's, so at least two levels, increasing."""
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ContractError(f"kernel-holder needs two or more strictly increasing "
                            f"levels, got {tuple(levels)}")
    checks, growth = [], 1.2
    for s in (0.8, 1.0, 1.3):
        ratios = []
        for m in levels:
            spec = spectral.build_spectrum(m, spectral.NEUMANN, j_max=j_terms)
            ev = riesz.KernelEvaluator(spec, s)
            ratios.append(riesz.kernel_holder_ratio(ev, np.random.default_rng(seed)))
        ok = all(r <= growth * ratios[0] for r in ratios[1:])
        checks.append(_check(f"holder_ratio_s={s}", ratios, ok,
                             tolerance=f"<= {growth}x level-{levels[0]} ratio"))
    return checks, {}


def suite_symmetry(level=6, j_terms=200, n_seeds=1000, seed0=0):
    """Reflection invariance: exact kernel identity plus field fdd tests.

    The field at the reflected vertices sigma_0(x1), sigma_0(x2) is tested
    against the law computed at x1, x2: a field is G N with independent SaS
    masses N_v of scale mu_v^(1/alpha), so u . X(x1, x2) is SaS of scale
    ||u . G(x_j, .)||_alpha (Samorodnitsky & Taqqu 1994, ch. 3).
    """
    x1, x2 = 140, 600
    _require_level("symmetry", level, 6, f"vertices {x1} and {x2}")
    s, alpha, kernel_tol = 0.9, 1.5, 1e-8
    mesh = geometry.build_mesh(level)
    spec = spectral.build_spectrum(level, spectral.NEUMANN, j_max=j_terms)
    checks = []
    ev = riesz.KernelEvaluator(spec, s)
    for i, defect in enumerate(riesz.reflection_defects(ev)):
        checks.append(_bounded(f"kernel_reflection_sigma{i}", defect, kernel_tol))
    G = ev.matrix([x1, x2])
    perm = geometry.reflection_permutation(mesh, 0)
    B = fields.simulate_field(s, alpha, spec,
                              range(seed0 + 50_000, seed0 + 50_000 + n_seeds),
                              vertices=perm[[x1, x2]])
    for name, u in (("marginal_x1", (1.0, 0.0)), ("marginal_x2", (0.0, 1.0)),
                    ("pair_sum", (1.0, 1.0)), ("pair_diff", (1.0, -1.0))):
        checks.append(_exact_law(f"fdd_{name}", B @ u, alpha,
                                 geometry.alpha_norm(np.dot(u, G), alpha, mesh)))
    return checks, {"s": s, "alpha": alpha, "vertices": [x1, x2]}


def suite_scaling(level=6, j_terms=200, n_seeds=1000, seed0=0):
    """Subcell self-similarity: exact kernel relation and 2^(nH) fdd tests,
    each a KS test of the rescaled subcell field at x against the exact
    SaS law of the base field there, of scale ||G_s(x, .)||_alpha."""
    xi = 140
    _require_level("scaling", level, 5, f"vertex {xi}")
    s, alphas, identity_tol = 0.9, (1.5, 2.0), 1e-9
    spec = spectral.build_spectrum(level, spectral.NEUMANN, j_max=j_terms)
    checks = []
    ev = riesz.KernelEvaluator(spec, s)
    rng = np.random.default_rng(8)
    worst = 0.0
    for n in (1, 2):
        a, b = geometry.vertex_pairs(rng, spec.mesh.n_vertices, 50)
        lhs = riesz.subcell_kernel_value(spec, s, n, a, b)
        rhs = 3.0 ** n * 5.0 ** (-n * s) * ev.value(a, b)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append(_bounded("subcell_kernel_identity", worst, identity_tol))
    for alpha in alphas:
        sub = fields.scaled_subcell_field(
            (1,), s, alpha, spec, range(seed0 + 70_000, seed0 + 70_000 + n_seeds),
            vertices=xi)
        checks.append(_exact_law(f"fdd_scaling_alpha={alpha}", sub, alpha,
                                 fields.marginal_scale(xi, s, alpha, spec)))
    return checks, {"s": s, "alphas": list(alphas), "vertex": xi}


def suite_stable_cf(n=100_000, seed=11):
    """Elementary sampler CF fit and the D_alpha closed-form/quadrature match."""
    checks, d_alpha_tol = [], 1e-8
    rng = np.random.default_rng(seed)
    for alpha in (0.7, 1.0, 1.5, 1.9):
        x = stable.standard_stable(rng, alpha, size=n)
        # three CLT half-widths of a cosine mean
        checks.append(_bounded(f"cf_alpha={alpha}", analysis.cf_gof(x, alpha, 1.0),
                               3.0 / np.sqrt(n), key="threshold"))
    var = float(stable.standard_stable(rng, 2.0, size=n).var())
    checks.append(_near("alpha2_variance", var, 2.0, 0.05))
    for alpha in (0.5, 0.7, 1.0, 1.5, 1.9):
        diff = abs(stable.d_alpha(alpha) - stable.d_alpha_quadrature(alpha))
        checks.append(_bounded(f"d_alpha={alpha}", diff, d_alpha_tol))
    return checks, {}


def suite_lepage_vs_direct(level=6, n_terms=10_000, n=10_000, seed0=1):
    """Route equality: LePage partial sums (with Gaussian tail surrogate) of
    each test function f, per alpha, tested against the exact law of the
    stable integral of f, SaS of scale ||f||_alpha (Samorodnitsky & Taqqu
    1994, ch. 3).  The battery reads the full level-m Neumann spectrum.

    One LePage call integrates the whole battery for every alpha on shared
    draws, so the cells of different alphas are dependent; each check
    keeps its own level.
    """
    _require_level("lepage-vs-direct", level, 5, "kernel row 123")
    alphas = (0.7, 1.0, 1.5, 1.9)
    mesh = geometry.build_mesh(level)
    spec = spectral.build_spectrum(level, spectral.NEUMANN)
    battery = {
        "constant": np.ones(mesh.n_vertices),
        "eigenspace_1_x": spec.project(mesh.vertices[:, 0], 1),
        "kernel_slice_s0.9": riesz.KernelEvaluator(spec, 0.9).matrix(123),
    }
    columns = np.column_stack(list(battery.values()))
    lp = stable.lepage_replicates(columns, mesh, alphas, n_terms, n, seed=seed0,
                                  tail_compensation=True)
    checks = []
    for ai, alpha in enumerate(alphas):
        for fi, (name, fv) in enumerate(battery.items()):
            checks.append(_exact_law(f"ks_alpha={alpha}_f={name}", lp[ai, :, fi],
                                     alpha, geometry.alpha_norm(fv, alpha, mesh)))
    return checks, {"alphas": list(alphas), "tail_compensation": True,
                    "lepage_draws": "replicate k of every alpha is the draw of "
                                    "SeedSequence(seed0, spawn_key=(k,))"}


def suite_field_marginals(level=6, j_terms=200, n_seeds=1000, seed0=0):
    """Pointwise field laws: boundary/mean constraints, stable marginals,
    and duality: the field tested against f has the CF of the stable
    integral of (-Delta)^-s f, exp(-|u ||(-Delta)^-s f||_alpha|^alpha)."""
    xi = 140
    _require_level("field-marginals", level, 5, f"vertex {xi}")
    s, alpha = 0.9, 1.5
    checks = []
    spec_n = spectral.build_spectrum(level, spectral.NEUMANN, j_max=j_terms)
    mesh = spec_n.mesh
    values = fields.simulate_field(s, alpha, spec_n, range(seed0, seed0 + n_seeds))
    # realization-wise Neumann mean zero, relative to the field scale
    worst = float(np.max(np.abs(geometry.quadrature(values, mesh)) /
                         np.maximum(np.max(np.abs(values), axis=1), 1e-300)))
    checks.append(_check("neumann_mean_zero", worst, worst <= 1e-4,
                         tolerance="1e-4 x field scale"))
    spec_d = spectral.build_spectrum(level, spectral.DIRICHLET, j_max=j_terms)
    boundary = fields.simulate_field(s, alpha, spec_d, range(seed0, seed0 + 20),
                                     vertices=mesh.boundary)
    worst_b = float(np.max(np.abs(boundary)))
    checks.append(_check("dirichlet_boundary_zero", worst_b, worst_b <= 1e-12,
                         tolerance="truncation (exact zero by construction)"))
    vals_d = fields.simulate_field(s, alpha, spec_d,
                                   range(seed0 + 5000, seed0 + 5000 + n_seeds),
                                   vertices=xi)
    for bc, spec, vals in (("neumann", spec_n, values[:, xi]),
                           ("dirichlet", spec_d, vals_d)):
        checks.append(_exact_law(f"marginal_ks_{bc}", vals, alpha,
                                 fields.marginal_scale(xi, s, alpha, spec)))
    # duality: the empirical CF of <f, field> against the exact one; f is
    # built from eigenspace projections of x, so it is basis-free (the
    # second eigenspace is skipped: x and y have no component there)
    x = mesh.vertices[:, 0]
    f = spec_n.project(x, 1) + 0.5 * spec_n.project(x, 3)
    inner = geometry.quadrature(f * values, mesh)
    scale = geometry.alpha_norm(riesz.fractional_laplacian_inv(s, f, spec_n), alpha, mesh)
    for u in (0.5, 1.0, 2.0):
        # the exact CF at u and 2u; under that law cos(u <f, field>) has
        # variance (1 + CF(2u)) / 2 - CF(u)^2.  The sample variance would
        # miss the rare large values that carry it at this small scale
        cf, cf2 = (float(np.exp(-abs(v * scale) ** alpha)) for v in (u, 2 * u))
        diff = abs(np.cos(u * inner).mean() - cf)
        half = 3.0 * np.sqrt(((1.0 + cf2) / 2.0 - cf ** 2) / len(inner))
        checks.append(_bounded(f"duality_cf_u={u}", diff, half, key="threshold",
                               target=cf, scale=scale))
    return checks, {"s": s, "alpha": alpha}


def holder_exponent_target(s):
    """Path regularity exponent eta_s = min(s,1)*d_w - d_h."""
    return min(s, 1.0) * D_W - D_H


def log_correction_power(s, alpha):
    """Modulus log power: beta_s (+1/2 unless alpha < 1), beta_s = 1{s >= 1}."""
    return (1.0 if s >= 1.0 else 0.0) + (0.0 if alpha < 1.0 else 0.5)


def suite_holder_paths(level=6, n_reps=60, seed0=1000):
    """Empirical path regularity exponents against min(s,1) d_w - d_h.

    Uses the full spectral truncation: path increments at the finest
    dyadic scales need the whole desk-scale spectrum (a truncated kernel
    is artificially smooth below its resolution scale).
    """
    spec = spectral.build_spectrum(level, spectral.NEUMANN)
    checks, tolerance = [], 0.15
    for alpha, s in ((2.0, 1.0), (1.5, 0.8), (1.2, 1.3)):
        values = fields.simulate_field(s, alpha, spec, range(seed0, seed0 + n_reps))
        estimate = analysis.holder_exponent_estimate(values, s, spec.mesh)
        checks.append(_near(f"holder_alpha={alpha}_s={s}", estimate,
                            holder_exponent_target(s), tolerance,
                            log_power=log_correction_power(s, alpha)))
    return checks, {}


def suite_divergence(n_seeds=30):
    """Unbounded-regime growth of the mesh supremum across levels, with a
    continuous-regime control that must stay flat.

    Each level runs at its full spectral resolution: the supremum growth
    is carried by the spectral content a finer level adds, so capping the
    truncation across levels would freeze the statistic.  The noise is
    drawn at the top level, so each seed couples its levels exactly.
    """
    levels, s, alpha = (4, 5, 6), 0.5, 1.2
    control, control_spread = (1.2, 1.5), 0.2

    # the median mesh sup per level of the divergent order, then of the
    # control; strict growth is the finite-mesh signature of unbounded paths
    diverging, meds = (analysis.divergence_diagnostic(
        fields.simulate_field(s_, alpha_, spectral.build_spectrum(m, spectral.NEUMANN),
                              range(n_seeds), max(levels)) for m in levels)
        for s_, alpha_ in ((s, alpha), control))
    increasing = all(b > a for a, b in zip(diverging, diverging[1:]))
    checks = [_check("divergent_growth", diverging, increasing,
                     verdict="consistent with unboundedness" if increasing else "no growth")]
    spread = (max(meds) - min(meds)) / min(meds)
    checks.append(_check("control_stability", meds, spread <= control_spread,
                         spread=spread, tolerance=control_spread))
    return checks, {"levels": list(levels), "noise_level": max(levels), "s": s,
                    "alpha": alpha, "control": list(control)}


SUITES = {
    "ahlfors": suite_ahlfors,
    "spectral": suite_spectral,
    "semigroup": suite_semigroup,
    "kernel-bounds": suite_kernel_bounds,
    "kernel-holder": suite_kernel_holder,
    "symmetry": suite_symmetry,
    "scaling": suite_scaling,
    "stable-cf": suite_stable_cf,
    "lepage-vs-direct": suite_lepage_vs_direct,
    "field-marginals": suite_field_marginals,
    "holder-paths": suite_holder_paths,
    "divergence": suite_divergence,
}


# the field suites, whose noise has no LePage truncation: they ignore `n_terms`
_RETIRED_N_TERMS = {"symmetry", "scaling", "field-marginals", "holder-paths",
                    "divergence"}


def run_suite(name, **overrides):
    """The report of suite `name` run with `overrides` of its parameters."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if name in _RETIRED_N_TERMS:
        overrides.pop("n_terms", None)
    params = inspect.signature(SUITES[name]).bind(**overrides)
    params.apply_defaults()
    checks, fixed = SUITES[name](**params.arguments)
    return {"suite": name, "params": {**params.arguments, **fixed}, "checks": checks,
            "passed": all(c["passed"] for c in checks)}
