"""Fractional Riesz kernels and the negative fractional Laplacian power.

The kernel of the order -s operator is evaluated as the truncated
spectral sum  sum_j lambda_j^-s phi_j(x) phi_j(y)  (term-wise Mellin
integral of the centered heat kernel, exact via the Gamma integral), the
Spectrum sums with weights lambda_j^-s.  The tests cross-check it against
adaptive quadrature of the time integral.

Diagonal policy: the kernel diagonal diverges with the truncation for
s <= d_h/d_w, where pair reads refuse it (`KernelEvaluator.value`, and
`kernel_semigroup_residual` for s + t); `row_blocks`, `matrix` and `apply`
return the level-m diagonal at any s (`fields.marginal_scale` needs it),
which grows with the level below d_h/d_w.
"""

import numpy as np

from .analysis import max_increments_by_scale
from .constants import D_H, D_W
from .errors import ContractError, DomainError
from .geometry import reflection_permutation, symmetry_orbits
from .spectral import NEUMANN, ROW_BLOCK


def check_order(s):
    """Raise DomainError unless the kernel order s is positive and finite."""
    if not 0 < s < np.inf:
        raise DomainError(f"kernel order s must be positive and finite, got {s}")


class KernelEvaluator:
    """Spectral evaluator of one Riesz kernel G_s.

    Symmetric in its arguments and deterministic given (spectrum, s); the
    sum runs over every mode of the spectrum, at the entries asked for.
    """

    def __init__(self, spectrum, s):
        check_order(s)
        self.spectrum = spectrum
        self.s = float(s)
        self.lam_pow = spectrum.eigenvalues ** (-self.s)

    def value(self, xi, yi):
        """G_s(x, y) at a vertex pair or elementwise at index arrays."""
        xi, yi = np.asarray(xi), np.asarray(yi)
        if self.s <= D_H / D_W and np.any(xi == yi):
            raise DomainError(
                f"diagonal kernel values require s > d_h/d_w = {D_H / D_W:.5f}")
        return self.spectrum.value(self.lam_pow, xi, yi)

    def row_blocks(self, rows=slice(None), cols=slice(None)):
        """Kernel block G_s(rows, cols) by row blocks, as (x, G_s(x, cols))."""
        return self.spectrum.row_blocks(self.lam_pow, rows, cols)

    def matrix(self, rows=slice(None), cols=slice(None)):
        """Kernel block G_s(rows, cols), V_m x V_m by default; rows may be a vertex."""
        return self.spectrum.matrix(self.lam_pow, rows, cols)

    # an alias kept only because benchmarks/tracer.py wraps it by name (ROADMAP item 2)
    row = matrix

    def apply(self, coeffs, rows=slice(None)):
        """Kernel action on point masses, sum_v G(x, v) c_v, at the vertices
        x of `rows` (an index set, V_m by default), as `Spectrum.apply`."""
        return self.spectrum.apply(self.lam_pow, coeffs, rows)

    def tail_bound(self, full):
        """Heuristic error bound of this kernel's sum against that over
        `full`, a spectrum whose leading modes this one keeps."""
        j = self.spectrum.n_modes
        if j >= full.n_modes:
            return 0.0
        return float(full.eigenvalues[j] ** (-self.s) * j *
                     self.spectrum.sup_norm() ** 2)


def fractional_laplacian_inv(s, f, spectrum):
    """Apply the order -s operator to vertex values in coefficient space.

    Neumann input is first projected to quadrature mean zero; s = 0 is
    then the identity on the projected values (at full truncation).
    """
    if not 0 <= s < np.inf:
        raise DomainError(f"order s must be >= 0 and finite, got {s}")
    f = np.asarray(f, dtype=float)
    w = spectrum.mesh.mu_weights
    if spectrum.bc == NEUMANN:
        f = f - (f @ w)
    return spectrum.apply(spectrum.eigenvalues ** (-s), w * f)


def kernel_semigroup_residual(s, t, xi, yi, spectrum):
    """Relative convolution defect at vertex pairs,
    |G_{s+t}(x,y) - quad_u G_s(x,u) G_t(u,y)| / |G_{s+t}(x,y)|
    (the denominator floored at 1e-30), with G_{s+t} read once.

    At matched truncation this is pure quadrature/orthonormality error.
    """
    conv = np.sum(KernelEvaluator(spectrum, s).matrix(xi) * spectrum.mesh.mu_weights
                  * KernelEvaluator(spectrum, t).matrix(yi), axis=-1)
    direct = KernelEvaluator(spectrum, s + t).value(xi, yi)
    return np.abs(direct - conv) / np.maximum(np.abs(direct), 1e-30)


def dyadic_pair_bins(mesh, rng=None):
    """Vertex pairs grouped by dyadic distance 2^-j, j = 1..m; given `rng`,
    each bin keeps at most 400 of its pairs, drawn without replacement.

    Pairs at scale j are the level-j cell mates embedded in V_m, so all
    pairs in a bin are at exactly the bin distance.
    """
    bins = []
    for j in range(1, mesh.level + 1):
        pairs = mesh.level_edges(j)
        if rng is not None and len(pairs) > 400:
            sel = rng.choice(len(pairs), size=400, replace=False)
            pairs = pairs[sel]
        bins.append((2.0 ** -j, pairs))
    return bins


def binned_means(bins, read):
    """The mean of read(a, b) over each bin of vertex pairs (a, b), all bins
    read in one call: a pair's value does not depend on the pairs read with it."""
    pairs = np.concatenate(bins)
    values = read(pairs[:, 0], pairs[:, 1])
    return [v.mean() for v in np.split(values, np.cumsum([len(p) for p in bins])[:-1])]


def _binned_means(ev, rng):
    """Distances and mean kernel values of the dyadic pair bins."""
    dists, bins = zip(*dyadic_pair_bins(ev.spectrum.mesh, rng))
    return np.array(dists), np.array(binned_means(bins, ev.value))


def kernel_exponent_fit(ev, rng=None):
    """Fitted growth exponent of the kernel against distance.

    Valid for s < d_h/d_w where the kernel behaves like
    C d^(s*d_w - d_h) - B between two-sided power bounds.  The binned
    means are fitted to that affine-power form and the power is
    returned: an additive offset is intrinsic (the Neumann kernel
    integrates to zero; the Dirichlet one carries the ground-state
    envelope), and ignoring it leaks into the slope at desk scale.

    The least squares are separable: for each power p, (C, B) is the
    2-column linear solve, so only p is searched, by golden section on
    [p0 - 2, p0 + 2] around p0 = s*d_w - d_h down to a width of 1e-10.  A
    power outside that window is returned as its nearer end, which fails
    any exponent tolerance below 2.
    """
    if ev.s >= D_H / D_W:
        raise DomainError("power-law fit requires s < d_h/d_w")
    dists, means = _binned_means(ev, rng)
    if len(dists) < 3:
        raise ContractError("fewer than 3 dyadic scales for the fit")

    def sse(p):
        design = np.column_stack([dists ** p, -np.ones_like(dists)])
        coef = np.linalg.lstsq(design, means, rcond=None)[0]
        resid = design @ coef - means
        return resid @ resid

    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    p0 = ev.s * D_W - D_H
    lo, hi = p0 - 2.0, p0 + 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = sse(x1), sse(x2)
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = sse(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = sse(x2)
    return float((lo + hi) / 2.0)


def kernel_log_fit(ev, rng=None):
    """At the critical order s = d_h/d_w: fit G against -log d.

    Returns (slope, r_squared); the profile should be linear with
    positive slope.
    """
    dists, ys = _binned_means(ev, rng)
    xs = -np.log(dists)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    r2 = 1.0 - resid @ resid / ((ys - ys.mean()) @ (ys - ys.mean()))
    return float(slope), float(r2)


def holder_modulus(d, s):
    """Increment modulus of the kernel: d^(s*d_w-d_h) for s in (d_h/d_w, 1),
    d^(d_w-d_h) * max(|ln d|, 1) for s >= 1."""
    d = np.asarray(d, dtype=float)
    if s < 1.0:
        return d ** (s * D_W - D_H)
    return d ** (D_W - D_H) * np.maximum(np.abs(np.log(d)), 1.0)


def kernel_holder_ratio(ev, rng):
    """Max over triples of |G(x,z) - G(y,z)| / modulus(d(x,y)).

    (x, y) runs over the level-j cell mates, j = 1..m, and z over 40 random
    vertices (all of V_m if it has fewer): the kernel rows G(z, .), the only
    entries read, are a batch of `analysis.max_increments_by_scale`.  Their
    boundedness across levels is the empirical kernel Hoelder property.
    """
    if ev.s <= D_H / D_W:
        raise DomainError("Hoelder ratio requires s > d_h/d_w")
    mesh = ev.spectrum.mesh
    zs = rng.choice(mesh.n_vertices, size=min(40, mesh.n_vertices), replace=False)
    increments = max_increments_by_scale(ev.matrix(zs), mesh).max(axis=0)
    scales = 2.0 ** -np.arange(1, mesh.level + 1)
    return float(np.max(increments / holder_modulus(scales, ev.s)))


def reflection_defects(ev):
    """Max |G(sigma_i x, sigma_i y) - G(x, y)| over all vertex pairs for
    i = 0, 1, 2, read on row blocks of whole D3 orbits: such a block holds
    the sigma_i images of its rows, so every entry is evaluated once."""
    mesh = ev.spectrum.mesh
    perms = [reflection_permutation(mesh, i) for i in range(3)]
    orbits = symmetry_orbits(mesh)
    # whole orbits of at most 6 vertices a block, within the rows of one read
    local = np.empty(mesh.n_vertices, dtype=int)
    defects = [0.0] * 3
    for o in range(0, orbits.shape[1], ROW_BLOCK // 6):
        rows = np.unique(orbits[:, o:o + ROW_BLOCK // 6])
        local[rows] = np.arange(len(rows))
        G = ev.matrix(rows)
        for i, perm in enumerate(perms):
            D = G[np.ix_(local[perm[rows]], perm)]
            D -= G
            defects[i] = max(defects[i], float(np.abs(D).max()))
    return defects


def subcell_kernel_value(spectrum, s, n, xi, yi):
    """Kernel of the level-n subcell copy, evaluated through its own
    spectral data lambda_j * 5^n and 3^(n/2) phi_j o F_w^-1 (3^n out of
    the sum); arguments are base-mesh vertices x, y with the kernel taken
    at (F_w x, F_w y)."""
    check_order(s)
    lam_w_pow = (5.0 ** n * spectrum.eigenvalues) ** (-s)
    return 3.0 ** n * spectrum.value(lam_w_pow, xi, yi)
