"""Energy forms, Laplacian eigenproblem and heat kernels on gasket meshes.

The level-m energy form is the renormalized graph energy with prefactor
(5/3)^m over cell-mate pairs; the measure enters through the lumped
weights of the mesh.  The discrete Laplacian is the generalized
symmetric eigenproblem (stiffness, mass); with a diagonal mass matrix it
reduces to a dense standard eigensolve, which the reflection x -> 1 - x
splits into an even and an odd half-size block.  Heat kernels are truncated
spectral expansions; Neumann keeps the constant leading term 1,
Dirichlet drops it and vanishes on the corner set V_0.
"""

import functools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import geometry
from .errors import CapacityError, ContractError, DomainError, NumericError

NEUMANN = "neumann"
DIRICHLET = "dirichlet"

# relative gap below which consecutive eigenvalues count as one multiplet;
# truncations never split a multiplet (kernel symmetry would break)
_CLUSTER_RTOL = 1e-8

# n x n float64 arrays live at the peak of assemble + solve: the stiffness,
# the output eigenvectors and the two half-size blocks' eigenvectors, 2.5 in
# all (each block's divide-and-conquer workspace, 2 (n/2)^2, is freed by
# then); peak RSS grew by 2.53 n^2 doubles at level 8, 2.76 at level 7 and
# 3.2 at level 6, where fixed BLAS and interpreter buffers weigh more
_DENSE_ARRAYS = 3


def check_bc(bc):
    if bc not in (NEUMANN, DIRICHLET):
        raise DomainError(f"boundary condition {bc!r} not in {{neumann, dirichlet}}")
    return bc


@dataclass(frozen=True)
class EnergyForm:
    """Assembled quadratic form (stiffness, lumped mass) at one level.

    For Dirichlet the matrices are restricted to interior vertices;
    `index` maps form rows back to mesh vertex indices.
    """
    level: int
    bc: str
    stiffness: np.ndarray
    weights: np.ndarray
    index: np.ndarray
    mesh: geometry.GasketMesh = field(repr=False)


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenpairs of the discrete Laplacian, mass-orthonormal.

    Eigenvectors are stored on the full vertex set; Dirichlet vectors are
    zero on the boundary.  The Neumann constant mode is excluded.
    """
    bc: str
    level: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    weights: np.ndarray
    mesh: geometry.GasketMesh = field(repr=False)

    @property
    def n_modes(self):
        return len(self.eigenvalues)

    def truncation(self, j_terms=None):
        """Effective truncation index: j_terms extended to the end of any
        eigenvalue multiplet it would otherwise split."""
        n = self.n_modes
        if j_terms is None or j_terms >= n:
            return n
        if j_terms < 1:
            raise ContractError("truncation must keep at least one mode")
        lam = self.eigenvalues
        j = j_terms
        while j < n and lam[j] - lam[j - 1] <= _CLUSTER_RTOL * lam[j - 1]:
            j += 1
        return j


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def assemble_form(mesh, bc):
    """Assemble the level-m stiffness and lumped mass for one boundary condition.

    Off-diagonal stiffness entries are -(5/3)^m per shared cell; diagonals
    make rows sum to zero.  Mass weights are incidence * 3^-m / 3.
    Raises CapacityError, before allocating, when the dense assemble and
    solve would not fit in physical memory.
    """
    check_bc(bc)
    n = mesh.n_vertices
    need, limit = _DENSE_ARRAYS * 8 * n * n, _physical_memory()
    if need > limit:
        raise CapacityError(
            f"level {mesh.level}: the dense spectrum of n = {n} vertices needs "
            f"about {need / 1e9:.2f} GB ({_DENSE_ARRAYS} n x n float64 arrays), "
            f"more than the {limit / 1e9:.2f} GB of physical memory")
    index = np.arange(n)
    if bc == DIRICHLET:
        index = np.setdiff1d(index, mesh.boundary)
    k = len(index)
    row = np.full(n, -1)
    row[index] = np.arange(k)
    ends = row[mesh.edges]
    u, v = ends[(ends >= 0).all(axis=1)].T
    diag = ends[ends >= 0]
    # one sequential scatter: -(5/3)^m per shared cell off the diagonal,
    # +(5/3)^m per incident edge on it (edges to V_0 count for Dirichlet)
    pref = (5.0 / 3.0) ** mesh.level
    flat = np.concatenate([u * k + v, v * k + u, diag * (k + 1)])
    sign = np.repeat([-pref, pref], [2 * len(u), len(diag)])
    A = np.bincount(flat, weights=sign, minlength=k * k).reshape(k, k)
    weights = mesh.mu_weights[index]
    return EnergyForm(mesh.level, bc, A, weights, index, mesh)


def energy(form, f):
    """Evaluate the quadratic form E_m(f, f) for values on the form's rows."""
    f = np.asarray(f, dtype=float)
    if f.shape != (len(form.index),):
        raise ContractError(f"expected {len(form.index)} values, got {f.shape}")
    return float(f @ form.stiffness @ f)


def solve_spectrum(form, j_max=None):
    """Solve the generalized eigenproblem and return the leading eigenpairs.

    The diagonal mass reduces (A, M) to the symmetric matrix
    B = M^-1/2 A M^-1/2.  The reflection sigma_2 (x -> 1 - x) maps V_0 to
    itself and leaves A and M invariant, so B splits into an even block,
    over the fixed rows and the pair sums (e_a + e_b)/sqrt 2, and an odd
    block over the pair differences (e_a - e_b)/sqrt 2.  Each block is
    solved by divide and conquer; every eigenvector is therefore exactly
    sigma_2-even or sigma_2-odd and comes out mass-orthonormal.  j_max may
    be silently extended to avoid splitting a multiplet.
    """
    index, A = form.index, form.stiffness
    d = 1.0 / np.sqrt(form.weights)
    sigma = np.searchsorted(
        index, geometry.reflection_permutation(form.mesh, 2)[index])
    rows = np.arange(len(index))
    first = rows[sigma >= rows]
    pair = sigma[first] != first
    h = np.sqrt(0.5)
    # Per block: its rows p (one per sigma_2 orbit; pairs only for the odd
    # block), the sign of the mirror term, and the scales of B's rows and of
    # the vertex values.  As B[sigma i, sigma j] == B[i, j], the block is
    # B[p, p] +- B[p, sigma p], halved on fixed rows.
    blocks = [(first, 1.0, np.where(pair, 1.0, h) * d[first],
               np.where(pair, h, 1.0) * d[first]),
              (first[pair], -1.0, d[first[pair]], h * d[first[pair]])]
    solved = []
    for p, sign, c, _ in blocks:
        B = A[np.ix_(p, p)] + sign * A[np.ix_(p, sigma[p])]
        B *= c[:, None]
        B *= c[None, :]
        try:
            # B.T is B in Fortran order, so LAPACK solves it in place
            solved.append(scipy.linalg.eigh(B.T, driver="evd", overwrite_a=True))
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericError(f"eigensolver failed: {exc}") from exc

    lam = np.concatenate([lam_k for lam_k, _ in solved])
    order = np.argsort(lam, kind="stable")
    drop = 0
    if form.bc == NEUMANN:
        # drop the constant mode; it must sit at numerical zero
        if not abs(lam[order[0]]) <= 1e-8 * max(lam[order[-1]], 1.0):
            raise NumericError(
                f"Neumann kernel mode not found: lambda0={lam[order[0]]}")
        drop = 1
    col = np.empty(len(lam), dtype=int)
    col[order] = np.arange(len(lam)) - drop
    lam = lam[order[drop:]]
    if lam[0] <= 0:
        raise NumericError(f"nonpositive leading eigenvalue {lam[0]}")

    n_modes = len(lam)
    if j_max is not None:
        if j_max > n_modes:
            raise ContractError(f"j_max {j_max} exceeds available modes {n_modes}")

    # eigenvalues ascend within a block, so the dropped mode leads its block
    full = np.zeros((form.mesh.n_vertices, n_modes))
    for (p, sign, _, g), (lam_k, vec) in zip(blocks, solved):
        cols, col = col[:len(lam_k)], col[len(lam_k):]
        k = np.count_nonzero(cols < 0)
        vec = vec[:, k:]
        vec *= g[:, None]
        full[np.ix_(index[p], cols[k:])] = vec
        vec *= sign
        full[np.ix_(index[sigma[p]], cols[k:])] = vec

    spec = Spectrum(form.bc, form.level, lam, full, form.mesh.mu_weights, form.mesh)
    if j_max is not None and j_max < n_modes:
        j = spec.truncation(j_max)
        spec = Spectrum(form.bc, form.level, lam[:j], full[:, :j],
                        form.mesh.mu_weights, form.mesh)
    return spec


@functools.lru_cache(maxsize=8)
def _full_spectrum(level, bc):
    mesh = geometry.build_mesh(level)
    return solve_spectrum(assemble_form(mesh, bc))


def build_spectrum(level, bc, j_max=None):
    """Cached mesh+form+solve pipeline; the full solve is shared across calls."""
    spec = _full_spectrum(level, check_bc(bc))
    if j_max is None or j_max >= spec.n_modes:
        return spec
    j = spec.truncation(j_max)
    return Spectrum(bc, level, spec.eigenvalues[:j], spec.eigenvectors[:, :j],
                    spec.weights, spec.mesh)


def heat_kernel(t, xi, yi, spectrum, j_terms=None):
    """Truncated spectral heat kernel p_t(x, y) between two mesh vertices."""
    if t <= 0:
        raise DomainError("time must be positive")
    j = spectrum.truncation(j_terms)
    lam = spectrum.eigenvalues[:j]
    phi = spectrum.eigenvectors
    s = float(np.exp(-lam * t) @ (phi[xi, :j] * phi[yi, :j]))
    return s + 1.0 if spectrum.bc == NEUMANN else s


def heat_kernel_row(t, xi, spectrum, j_terms=None):
    """Heat kernel p_t(x, .) against every mesh vertex at once."""
    if t <= 0:
        raise DomainError("time must be positive")
    j = spectrum.truncation(j_terms)
    lam = spectrum.eigenvalues[:j]
    phi = spectrum.eigenvectors[:, :j]
    row = phi @ (np.exp(-lam * t) * phi[xi, :j])
    return row + 1.0 if spectrum.bc == NEUMANN else row

