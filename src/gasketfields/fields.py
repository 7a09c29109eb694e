"""Simulation of pointwise fractional stable fields on gasket meshes.

One realization evaluates the kernel-smoothed LePage series jointly on
every mesh vertex from a single frozen draw, which is what makes the
realization a sample of the *field* rather than independent marginals.
Each site is drawn as one integer measure word (`geometry.draw_sites`)
and placed on its nearest mesh vertex, read exactly from the word
(`GasketMesh.site_vertices`); that placement law equals the lumped
quadrature weights, so marginal scales agree with the quadrature norm of
the kernel slice by construction.

alpha = 2 has no LePage normalization (D_alpha degenerates); the driving
noise is then discrete white noise with variance twice the vertex
weight, matching the CF convention exp(-u^2 sigma^2).
"""

from dataclasses import dataclass

import numpy as np

from .constants import D_H, D_W, integrability_threshold
from .errors import ContractError, DomainError
from .riesz import KernelEvaluator, fractional_laplacian_inv
from .stable import make_draw, standard_stable


@dataclass(frozen=True)
class FieldSample:
    """Vertex values of one field realization plus full provenance."""
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


def _noise_coefficients(alpha, mesh, draw, seed):
    """Point-mass coefficient vector of the driving noise on the vertex set."""
    if alpha == 2.0:
        if seed is None:
            raise ContractError("alpha = 2 requires a seed for the white-noise route")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return np.sqrt(2.0 * mesh.mu_weights) * rng.standard_normal(mesh.n_vertices)
    if draw is None:
        raise ContractError("alpha < 2 requires a LePage draw")
    if draw.alpha != alpha:
        raise ContractError(f"draw built for alpha = {draw.alpha}, not {alpha}")
    idx = mesh.site_vertices(draw.words)
    c = draw.d_alpha * draw.arrivals ** (-1.0 / alpha) * draw.gaussians
    return np.bincount(idx, weights=c, minlength=mesh.n_vertices)


def simulate_field(s, alpha, spectrum, draw=None, seed=None):
    """One joint realization of the fractional alpha-stable field on the
    vertices of the spectrum's mesh, with the spectrum's truncation.

    For alpha < 2 the realization is
        D_alpha sum_n T_n^(-1/alpha) G_s(x, xi_n) g_n
    over the shared draw; for alpha = 2 it is the kernel applied to
    discrete white noise.  Orders at or below the integrability
    threshold are rejected; orders in (threshold, d_h/d_w] are permitted
    but tagged as the divergent regime.
    """
    check_integrable(s, alpha)
    mesh = spectrum.mesh
    coeff = _noise_coefficients(alpha, mesh, draw, seed)
    values = KernelEvaluator(spectrum, s).apply(coeff)
    meta = {
        "s": s,
        "alpha": alpha,
        "bc": spectrum.bc,
        "level": mesh.level,
        "j_terms": spectrum.n_modes,
        "n_terms": None if draw is None else draw.n_terms,
        "seed": seed if draw is None else draw.seed,
        "regime": "divergent" if s <= D_H / D_W else "continuous",
        "mesh_scale": 2.0 ** -mesh.level,
        "tail_estimate": None if draw is None else draw.tail_estimate,
        "mesh_sup": float(np.max(np.abs(values))),
    }
    return FieldSample(values, meta)


def field_replicates(s, alpha, spectrum, seeds, n_terms):
    """One `simulate_field` realization per seed: white noise from the seed
    at alpha = 2, else the LePage draw `make_draw(seed, n_terms, alpha)`."""
    out = []
    for seed in seeds:
        draw = None if alpha == 2.0 else make_draw(seed, n_terms, alpha)
        out.append(simulate_field(s, alpha, spectrum, draw=draw, seed=seed))
    return out


def distributional_field(f, s, alpha, spectrum, rng):
    """The field tested against f: stable integral of the order -s image.

    Exact in law for a single functional; CF is
    exp(-|u|^alpha ||(-Delta)^-s f||_alpha^alpha).
    """
    return functional_scale(f, s, alpha, spectrum) * standard_stable(rng, alpha)


def functional_scale(f, s, alpha, spectrum):
    """Stable scale parameter ||(-Delta)^-s f||_alpha by quadrature."""
    g = fractional_laplacian_inv(s, f, spectrum)
    return float((np.abs(g) ** alpha @ spectrum.weights) ** (1.0 / alpha))


def marginal_scale(xi, s, alpha, spectrum):
    """Scale of the field marginal at vertex x: ||G_s(x, .)||_alpha."""
    row = KernelEvaluator(spectrum, s).row(xi)
    return float((np.abs(row) ** alpha @ spectrum.weights) ** (1.0 / alpha))


def conditional_increment_scale(xi, yi, s, draw, spectrum):
    """Conditional Gaussian scale of an increment given frozen (T, xi):

    s_alpha(x,y)^2 = D^2 E(g^2) sum_n T_n^(-2/alpha) |G(x,xi_n)-G(y,xi_n)|^2.
    """
    ev = KernelEvaluator(spectrum, s)
    idx = spectrum.mesh.site_vertices(draw.words)
    diff = ev.row(xi)[idx] - ev.row(yi)[idx]
    total = (draw.arrivals ** (-2.0 / draw.alpha) * diff * diff).sum()
    return float(draw.d_alpha * np.sqrt(total))


def scaled_subcell_field(word, s, alpha, spectrum, draw=None, seed=None):
    """Field of the level-n subcell copy at F_w(x), rescaled by 2^(nH).

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
    check_integrable(s, alpha)
    ev = KernelEvaluator(spectrum, s)
    kernel_factor = 3.0 ** n * 5.0 ** (-n * s)
    h = hurst_index(s, alpha)

    # F_w commutes with placing each site on its nearest vertex, and the
    # subcell measure has mass 3^-n
    coeff = _noise_coefficients(alpha, spectrum.mesh, draw, seed)
    values = kernel_factor * 3.0 ** (-n / alpha) * ev.apply(coeff)
    values = 2.0 ** (n * h) * values
    meta = {
        "s": s,
        "alpha": alpha,
        "bc": spectrum.bc,
        "level": spectrum.level,
        "word": tuple(word),
        "hurst": h,
        "j_terms": spectrum.n_modes,
        "seed": seed if draw is None else draw.seed,
    }
    return FieldSample(values, meta)

