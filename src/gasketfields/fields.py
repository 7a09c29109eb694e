"""Simulation of pointwise fractional stable fields on gasket meshes.

One realization evaluates the kernel-smoothed LePage series jointly on
every mesh vertex from a single frozen draw, which is what makes the
realization a sample of the *field* rather than independent marginals.
Each site is drawn as one integer measure word (`geometry.draw_sites`)
and placed on its nearest mesh vertex, read exactly from the word
(`GasketMesh.site_vertices`); that placement law equals the lumped
quadrature weights, so marginal scales agree with the quadrature norm of
the kernel slice by construction.  The field is one linear map applied
to the noise, so the realizations of a batch of seeds are one kernel
apply to their stacked noise coefficients.

alpha = 2 has no LePage normalization (D_alpha degenerates); the driving
noise is then discrete white noise with variance twice the vertex
weight, matching the CF convention exp(-u^2 sigma^2).
"""

from dataclasses import dataclass

import numpy as np

from . import shards
from .constants import D_H, D_W, integrability_threshold
from .errors import ContractError, DomainError
from .geometry import alpha_norm
from .riesz import KernelEvaluator, fractional_laplacian_inv
from .stable import arrival_tail_sum, point_masses, standard_stable

# the fewest seeds a forked shard of a field batch draws: a level-6 LePage
# draw at N = 10^4 takes about 0.5 ms and a fork and reap about 4 ms, so 16
# seeds a shard only break even
MIN_SEEDS_PER_SHARD = 32


@dataclass(frozen=True)
class FieldSample:
    """Vertex values of field realizations, one row each, plus full provenance."""
    values: np.ndarray
    meta: dict


def hurst_index(s, alpha):
    """Self-similarity index H = s*d_w - (alpha-1)*d_h/alpha."""
    return s * D_W - (alpha - 1.0) * D_H / alpha


def check_integrable(s, alpha):
    """Reject orders s at or below the integrability threshold of alpha."""
    thr = integrability_threshold(alpha)
    if s <= thr:
        raise DomainError(
            f"s = {s} <= (alpha-1)*d_h/(alpha*d_w) = {thr:.5f}: "
            "field undefined, see integrability threshold")


def _noise_coefficients(alpha, mesh, seeds, n_terms):
    """Point-mass coefficients of the driving noise on the vertex set, one
    column per seed: the LePage draw `point_masses(seed, n_terms, alpha,
    mesh)` for alpha < 2, else discrete white noise from the seed.

    The seeds are drawn in contiguous shards (`shards.cuts`, at least
    `MIN_SEEDS_PER_SHARD` seeds each), each writing its columns straight
    into one shared array; each column comes from its seed alone, so the
    values do not depend on the shard count."""
    coeff = shards.shared_array((mesh.n_vertices, len(seeds)), order="F")

    def draw(_, lo, hi):
        for k in range(lo, hi):
            if alpha == 2.0:
                rng = np.random.default_rng(np.random.SeedSequence(seeds[k]))
                coeff[:, k] = np.sqrt(2.0 * mesh.mu_weights) * rng.standard_normal(
                    mesh.n_vertices)
            else:
                coeff[:, k] = point_masses(seeds[k], n_terms, alpha, mesh)

    shards.run(shards.cuts(len(seeds), MIN_SEEDS_PER_SHARD), draw, "seeds")
    return coeff


def _kernel_batch(s, alpha, spectrum, seeds, n_terms):
    """The order -s kernel applied to every seed's noise at once; one row
    per seed."""
    check_integrable(s, alpha)
    coeff = _noise_coefficients(alpha, spectrum.mesh, seeds, n_terms)
    return KernelEvaluator(spectrum, s).apply(coeff).T


def simulate_field(s, alpha, spectrum, seeds, n_terms):
    """Joint realizations of the fractional alpha-stable field on the
    vertices of the spectrum's mesh, with the spectrum's truncation, one
    per seed: `values` has one row per seed.

    For alpha < 2 a realization is
        D_alpha sum_n T_n^(-1/alpha) G_s(x, xi_n) g_n
    over the LePage draw `make_draw(seed, n_terms)`; for alpha = 2
    it is the kernel applied to discrete white noise from the seed, and
    n_terms is unused.  Orders at or below the integrability threshold are
    rejected; orders in (threshold, d_h/d_w] are permitted but tagged as
    the divergent regime.
    """
    values = _kernel_batch(s, alpha, spectrum, seeds, n_terms)
    mesh = spectrum.mesh
    meta = {
        "s": s,
        "alpha": alpha,
        "bc": spectrum.bc,
        "level": mesh.level,
        "j_terms": spectrum.n_modes,
        "n_terms": None if alpha == 2.0 else n_terms,
        "seeds": list(seeds),
        "regime": "divergent" if s <= D_H / D_W else "continuous",
        "mesh_scale": 2.0 ** -mesh.level,
        "tail_estimate": None if alpha == 2.0 else arrival_tail_sum(alpha, n_terms),
        "mesh_sup": np.max(np.abs(values), axis=1).tolist(),
    }
    return FieldSample(values, meta)


def distributional_field(f, s, alpha, spectrum, rng, n_draws):
    """The field tested against f: stable integral of the order -s image,
    `n_draws` independent variates, each its own `standard_stable` call on
    rng.

    Exact in law for a single functional; CF is
    exp(-|u|^alpha ||(-Delta)^-s f||_alpha^alpha).
    """
    scale = functional_scale(f, s, alpha, spectrum)
    return scale * np.array([standard_stable(rng, alpha) for _ in range(n_draws)])


def functional_scale(f, s, alpha, spectrum):
    """Stable scale parameter ||(-Delta)^-s f||_alpha by quadrature."""
    return alpha_norm(fractional_laplacian_inv(s, f, spectrum), alpha, spectrum.mesh)


def marginal_scale(xi, s, alpha, spectrum):
    """Scale of the field marginal at vertex x: ||G_s(x, .)||_alpha."""
    return alpha_norm(KernelEvaluator(spectrum, s).row(xi), alpha, spectrum.mesh)


def scaled_subcell_field(word, s, alpha, spectrum, seeds, n_terms):
    """Fields of the level-n subcell copy at F_w(x), rescaled by 2^(nH), one
    row per seed, on the noise of `simulate_field`.

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
    h = hurst_index(s, alpha)

    # F_w commutes with placing each site on its nearest vertex, and the
    # subcell measure has mass 3^-n
    values = kernel_factor * 3.0 ** (-n / alpha) * _kernel_batch(
        s, alpha, spectrum, seeds, n_terms)
    values = 2.0 ** (n * h) * values
    meta = {
        "s": s,
        "alpha": alpha,
        "bc": spectrum.bc,
        "level": spectrum.mesh.level,
        "word": tuple(word),
        "hurst": h,
        "j_terms": spectrum.n_modes,
        "seeds": list(seeds),
    }
    return FieldSample(values, meta)
