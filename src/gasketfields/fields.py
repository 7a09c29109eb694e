"""Simulation of pointwise fractional stable fields on gasket meshes.

A realization is the kernel applied to one draw of the driving noise on
every mesh vertex at once, so it samples the *field*, not independent
marginals; a batch of seeds is one kernel apply to their stacked noise.
The noise is exact in law for every alpha in (0, 2]: an independently
scattered SaS measure gives the level-(top+1) cells i.i.d. masses of
scale mu(cell)^(1/alpha) (Samorodnitsky & Taqqu 1994, ch. 3), each summed
onto the vertex where `GasketMesh.site_vertices` places the cell.  Vertex
v then has scale mu_v^(1/alpha), its lumped weight, so marginal scales
are the quadrature norms of kernel slices, and one draw at level top
couples the fields of every level up to top exactly.
"""

import numpy as np

from . import shards
from .constants import D_H, D_W, check_alpha, integrability_threshold
from .errors import ContractError, DomainError, check_memory
from .geometry import MAX_LEVEL, alpha_norm
from .riesz import KernelEvaluator, check_order, fractional_laplacian_inv
from .stable import direct_replicates, standard_stable

# the fewest cell variates a forked shard of a field batch draws, 3^(top+1)
# a seed: a variate takes about 0.1 us at every alpha and level (L6-L8) and a
# fork and reap about 3.5 ms, so 2^16 variates a shard only break even
MIN_CELLS_PER_SHARD = 2 ** 17


def hurst_index(s, alpha):
    """Self-similarity index H = s*d_w - (alpha-1)*d_h/alpha."""
    return s * D_W - (alpha - 1.0) * D_H / alpha


def check_integrable(s, alpha):
    """Reject an alpha outside (0, 2], a kernel order s that is not positive
    and finite, and orders s at or below the integrability threshold of alpha."""
    check_alpha(alpha)
    check_order(s)
    thr = integrability_threshold(alpha)
    if s <= thr:
        raise DomainError(
            f"s = {s} <= (alpha-1)*d_h/(alpha*d_w) = {thr:.5f}: "
            "field undefined, see integrability threshold")


def _noise_coefficients(alpha, mesh, seeds, top):
    """The driving noise on the vertex set, one column per seed of a
    C-ordered (n, R) array: the seed's `standard_stable` draw of the
    3^(top+1) level-(top+1) cells, scaled by 3^(-(top+1)/alpha), each
    summed onto the vertex of its site words.

    The seeds are drawn in contiguous shards (`shards.cuts`, at least
    `MIN_CELLS_PER_SHARD` variates each), each writing its columns straight
    into one shared array; each column comes from its seed alone, so the
    values do not depend on the shard count."""
    if not mesh.level <= top <= MAX_LEVEL:
        raise DomainError(f"noise level {top} outside [{mesh.level}, {MAX_LEVEL}]")
    n_cells = 3 ** (top + 1)
    cells = mesh.site_vertices(np.arange(n_cells) * 3 ** (MAX_LEVEL - top))
    scale = 3.0 ** (-(top + 1) / alpha)
    coeff = shards.shared_array((mesh.n_vertices, len(seeds)))

    def draw(_, lo, hi):
        for k in range(lo, hi):
            rng = np.random.default_rng(np.random.SeedSequence(seeds[k]))
            coeff[:, k] = np.bincount(cells, weights=scale * standard_stable(
                rng, alpha, n_cells), minlength=mesh.n_vertices)

    min_seeds = -(-MIN_CELLS_PER_SHARD // n_cells)
    shards.run(shards.cuts(len(seeds), min_seeds), draw, "seeds")
    return coeff


def simulate_field(s, alpha, spectrum, seeds, top=None, vertices=slice(None)):
    """Joint realizations of the fractional alpha-stable field at the
    `vertices` of the spectrum's mesh (an index, index set, slice or mask;
    every vertex by default), with the spectrum's truncation, one row per
    seed, equal bit for bit to the whole field's columns at `vertices`.

    The order -s kernel is applied to every seed's cell noise at once, drawn
    at level `top`, from the mesh level (the default) to `geometry.MAX_LEVEL`,
    and only the rows of `vertices` are formed.
    Orders at or below the integrability threshold are rejected; orders in
    (threshold, d_h/d_w], the divergent regime, are permitted.

    Raises CapacityError, before the noise is mapped, when the batch would
    not fit in physical memory.  For R seeds, n vertices and k of them read
    it holds 8 R (5n/3 + 3k) bytes at its peak: the n x R noise, two block
    products of the apply, each of at most n/3 rows, and the running sum of
    the k x R values, the term added to it and the new sum, which is
    returned.
    """
    check_integrable(s, alpha)
    mesh = spectrum.mesh
    n = mesh.n_vertices
    at = np.arange(n)[vertices]
    check_memory(8 * len(seeds) * (5 * n / 3 + 3 * at.size),
                 f"level {mesh.level}: a field batch of {len(seeds)} seeds at "
                 f"{at.size} of n = {n} vertices", "the n x R noise, the kernel "
                 "apply's block products and the values")
    top = mesh.level if top is None else top
    values = KernelEvaluator(spectrum, s).apply(
        _noise_coefficients(alpha, mesh, seeds, top), at.ravel()).T
    return values.reshape(values.shape[:1] + at.shape)


def distributional_field(f, s, alpha, spectrum, seed, n_draws):
    """The field tested against f: `n_draws` independent copies, drawn from
    `seed`, of the stable integral of the order -s image (-Delta)^-s f,
    exact in law by `stable.direct_replicates`; CF is
    exp(-|u|^alpha ||(-Delta)^-s f||_alpha^alpha).
    """
    return direct_replicates(fractional_laplacian_inv(s, f, spectrum), spectrum.mesh,
                             alpha, n_draws, seed)


def marginal_scale(xi, s, alpha, spectrum):
    """Scale of the field marginal at vertex x: ||G_s(x, .)||_alpha."""
    return alpha_norm(KernelEvaluator(spectrum, s).matrix(xi), alpha, spectrum.mesh)


def scaled_subcell_field(word, s, alpha, spectrum, seeds, vertices=slice(None)):
    """Fields of the level-n subcell copy at F_w(x), rescaled by 2^(nH), one
    row per seed, on the noise of `simulate_field`, at its `vertices`.

    The subcell carries eigenvalues 5^n lambda_j, eigenfunctions
    3^(n/2) phi_j o F_w^(-1) and measure mass 3^-n; its kernel obeys
    G_s^w(F_w x, F_w y) = 3^n 5^(-ns) G_s(x, y), and the 2^(nH)
    renormalization returns the law of the base field.
    """
    n = len(word)
    if n < 1:
        raise ContractError("subcell word must have length >= 1")
    for d in word:
        if d not in (0, 1, 2):
            raise DomainError(f"address digit {d} not in {{0,1,2}}")
    kernel_factor = 3.0 ** n * 5.0 ** (-n * s)

    # F_w commutes with placing each cell's mass on its vertex, and the
    # subcell measure has mass 3^-n
    factor = 2.0 ** (n * hurst_index(s, alpha)) * kernel_factor * 3.0 ** (-n / alpha)
    return factor * simulate_field(s, alpha, spectrum, seeds, vertices=vertices)
