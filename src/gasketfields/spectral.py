"""Energy forms, Laplacian eigenproblem and heat kernels on gasket meshes.

The level-m energy form is the renormalized graph energy with prefactor
(5/3)^m over cell-mate pairs, assembled as a sparse stiffness matrix; the
measure enters through the lumped weights of the mesh.  The discrete
Laplacian is the generalized symmetric eigenproblem (stiffness, mass).
The symmetry group D3 of the gasket (rotations and reflections) splits it
over one sparse orbit-local basis P per irrep into dense A1, A2 and E
blocks P^T A P of about n/6, n/6 and n/3 rows; each block eigenvector y
gives the eigenvector phi = P y, the E block is solved once and each of
its eigenvectors yields a second one by rotation.  Heat kernels are
truncated spectral expansions; Neumann keeps the constant leading term 1,
Dirichlet drops it and vanishes on the corner set V_0.
"""

import functools
import os
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from . import geometry
from .errors import (CapacityError, ContractError, DomainError, InvariantError,
                     NumericError)

NEUMANN = "neumann"
DIRICHLET = "dirichlet"

# relative gap below which consecutive eigenvalues count as one multiplet;
# truncations never split a multiplet (kernel symmetry would break)
_CLUSTER_RTOL = 1e-8

# n x n float64 arrays live at the peak of assemble + solve: the output
# eigenvectors and the block eigenvectors (n^2/6); the stiffness is sparse
# and products with the blocks are taken in column chunks.  Peak RSS grew
# by 1.19 n^2 doubles at level 8, 1.27 at level 7 and 1.62 at level 6
# (where fixed costs weigh more)
_DENSE_ARRAYS = 2


def check_bc(bc):
    if bc not in (NEUMANN, DIRICHLET):
        raise DomainError(f"boundary condition {bc!r} not in {{neumann, dirichlet}}")
    return bc


@dataclass(frozen=True)
class EnergyForm:
    """Assembled quadratic form (stiffness, lumped mass) at one level.

    The stiffness and the edge differences are sparse CSR arrays:
    (difference f)_e = f_u - f_v over every mesh edge e = (u, v), with f = 0
    off the form's rows, so E_m(f, f) = (5/3)^m |difference f|^2.  For
    Dirichlet the matrices are restricted to interior vertices; `index`
    maps form rows back to mesh vertex indices.
    """
    level: int
    bc: str
    stiffness: scipy.sparse.csr_array
    difference: scipy.sparse.csr_array
    weights: np.ndarray
    index: np.ndarray
    mesh: geometry.GasketMesh = field(repr=False)


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenpairs of the discrete Laplacian, mass-orthonormal.

    Eigenvectors are stored on the full vertex set; Dirichlet vectors are
    zero on the boundary.  The Neumann constant mode is excluded.  Every
    sum_j g_j phi_j(x) phi_j(y) over a weight g_j per mode (lambda_j^-s,
    e^(-lambda_j t)) is `value` (at vertex pairs), `row`, `matrix` (on a
    block of index sets) or `apply`, over all of the modes: the truncation
    of a kernel or a field is that of its Spectrum (see `truncated`).
    """
    bc: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    mesh: geometry.GasketMesh = field(repr=False)

    @property
    def n_modes(self):
        return len(self.eigenvalues)

    def truncation(self, j):
        """Effective truncation index: j extended to the end of any
        eigenvalue multiplet it would otherwise split."""
        if j < 1:
            raise ContractError("truncation must keep at least one mode")
        lam, n = self.eigenvalues, self.n_modes
        while j < n and lam[j] - lam[j - 1] <= _CLUSTER_RTOL * lam[j - 1]:
            j += 1
        return min(j, n)

    def truncated(self, j):
        """The spectrum cut to its leading `truncation(j)` modes; the
        spectrum itself when that keeps every mode."""
        j = self.truncation(j)
        if j == self.n_modes:
            return self
        return replace(self, eigenvalues=self.eigenvalues[:j],
                       eigenvectors=self.eigenvectors[:, :j])

    def value(self, g, xi, yi):
        """sum_j g_j phi_j(x) phi_j(y) at vertex pairs; index arrays pair elementwise."""
        # one dot per pair: a pair's value does not depend on the pairs read with it
        return ((self.eigenvectors[xi] * self.eigenvectors[yi])[..., None, :] @ g)[..., 0]

    def row(self, g, xi):
        """sum_j g_j phi_j(x) phi_j(.) against every mesh vertex."""
        return self.eigenvectors @ (g * self.eigenvectors[xi])

    def matrix(self, g, rows=slice(None), cols=slice(None)):
        """sum_j g_j phi_j(x) phi_j(y) on the block rows x cols, V_m x V_m by default."""
        return (self.eigenvectors[rows] * g) @ self.eigenvectors[cols].T

    def apply(self, g, coeffs):
        """sum_j g_j phi_j (phi_j . c) for point-mass coefficients c, of shape
        (n,) or (n, R) with one coefficient vector per column."""
        return self.eigenvectors @ (g * (self.eigenvectors.T @ coeffs).T).T

    def sup_norm(self):
        """max_j max_x |phi_j(x)|."""
        return float(np.max(np.abs(self.eigenvectors)))

    def project(self, h, k):
        """Mass projection sum_j phi_j <phi_j, h>_mu of h onto the k-th
        distinct eigenspace (k = 1 for lambda_1), free of the basis inside its
        multiplet (bounds from `truncation`); InvariantError if it vanishes."""
        lo = 0
        for _ in range(k - 1):
            lo = self.truncation(lo + 1)
        phi = self.eigenvectors[:, lo:self.truncation(lo + 1)]
        proj = phi @ (phi.T @ (self.mesh.mu_weights * h))
        if np.max(np.abs(proj)) <= 1e-8 * np.max(np.abs(h)):
            raise InvariantError(f"the function has no component in eigenspace {k}")
        return proj


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def assemble_form(mesh, bc):
    """Assemble the level-m stiffness and lumped mass for one boundary condition.

    Off-diagonal stiffness entries are -(5/3)^m per shared cell; diagonals
    make rows sum to zero.  Mass weights are incidence * 3^-m / 3.
    Raises CapacityError, before allocating, when the dense solve would not
    fit in physical memory, and DomainError for a Dirichlet form without
    rows (level 0, where V_0 is the whole mesh).
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
    if k == 0:
        raise DomainError(f"level {mesh.level} has no interior vertex for a "
                          "Dirichlet form")
    row = np.full(n, -1)
    row[index] = np.arange(k)
    ends = row[mesh.edges]
    # one row per edge (u, v), +1 at u and -1 at v, its V_0 end dropped for
    # Dirichlet; so the stiffness has -(5/3)^m per shared cell off the
    # diagonal and +(5/3)^m per incident edge on it
    inside = ends >= 0
    D = scipy.sparse.csr_array(
        (np.tile([1.0, -1.0], (len(ends), 1))[inside], ends[inside],
         np.concatenate([[0], np.cumsum(inside.sum(axis=1))])), shape=(len(ends), k))
    A = ((5.0 / 3.0) ** mesh.level * (D.T @ D)).tocsr()
    weights = mesh.mu_weights[index]
    return EnergyForm(mesh.level, bc, A, D, weights, index, mesh)


def energy(form, f):
    """Evaluate the quadratic form E_m(f, f) for values on the form's rows."""
    f = np.asarray(f, dtype=float)
    if f.shape != (len(form.index),):
        raise ContractError(f"expected {len(form.index)} values, got {f.shape}")
    return float(f @ (form.stiffness @ f))


# A pattern c puts c(g) on the vertex g(v_o) of an orbit o.  A1 is
# rho-invariant and sigma_2-even, A2 rho-invariant and sigma_2-odd; E0 and
# E1 are sigma_2-even and sum to zero over every rho-orbit.
_A1 = np.array([1.0, 1, 1, 1, 1, 1])
_A2 = np.array([1.0, 1, 1, -1, -1, -1])
_E0 = np.array([2.0, -1, -1, 2, -1, -1])
_E1 = np.array([0.0, 1, -1, 0, 1, -1])


def _block_basis(orbits, weights, patterns):
    """Sparse basis M^-1/2 Q of one isotypic block, Q with orthonormal columns.

    Column (p, o) of Q is patterns[p] on orbit o, normalized: c(g) at
    orbits[g, o], summed where a 3-vertex orbit lists a vertex twice.
    Columns that sum to zero are dropped, so A2 and E1 live on the 6-vertex
    orbits only (sigma_2 fixes the representative of a 3-vertex orbit).
    """
    k = len(weights)
    rows = np.tile(orbits.T.ravel(), len(patterns))
    vals = np.tile(np.stack(patterns), (1, orbits.shape[1])).ravel()
    key, at = np.unique(np.arange(len(rows)) // len(orbits) * k + rows,
                        return_inverse=True)
    vals = np.bincount(at, weights=vals)
    keep = vals != 0
    cols, rows = np.divmod(key[keep], k)
    vals = vals[keep]
    norm = np.sqrt(np.bincount(cols, weights=vals * vals))
    vals /= norm[cols] * np.sqrt(weights[rows])
    counts = np.bincount(cols)
    indptr = np.concatenate([[0], np.cumsum(counts[counts > 0])])
    return scipy.sparse.csc_array((vals, rows, indptr), shape=(k, len(indptr) - 1))


def _column_chunks(y):
    """Slices of at most 32 columns of y, at least one (an empty block has
    one empty chunk): products with y are taken a chunk at a time, so their
    scratch stays small and is reused."""
    return [slice(j, j + 32) for j in range(0, max(y.shape[1], 1), 32)]


def solve_spectrum(form):
    """Solve the generalized eigenproblem and return every eigenpair.

    The symmetry group D3 of the gasket (rotation rho and reflection
    sigma_2) maps V_0 to itself and leaves the stiffness A and the diagonal
    mass M invariant.  So each isotypic component has a sparse basis
    P = M^-1/2 Q of orbit-local vectors with constant coefficients
    (`_block_basis`), and the eigenpairs of (A, M) in it are those of the
    dense block P^T A P: an A1 block (rho-invariant, sigma_2-even), an A2
    block (rho-invariant, sigma_2-odd) and the sigma_2-even half of E.  The
    blocks are solved by divide and conquer; a block eigenvector y gives
    the eigenvector phi = P y, and its eigenvalue is the edge energy
    (5/3)^m |difference phi|^2.  Each E eigenvector phi has the sigma_2-odd
    partner (phi o rho^2 - phi o rho)/sqrt 3 with the same eigenvalue,
    stored in the column after phi.  Every eigenvector lies in one isotypic
    component, is exactly sigma_2-even or sigma_2-odd (A1 and A2 vectors
    exactly rho-invariant too) and is mass-orthonormal; across blocks the
    order inside a multiplet follows eigenvalue roundoff.
    """
    index = form.index
    orbits = geometry.symmetry_orbits(form.mesh)
    # the Dirichlet rows are a union of orbits (V_0 is one); map them to rows
    orbits = np.searchsorted(index, orbits[:, np.isin(orbits[0], index)])
    bases = [_block_basis(orbits, form.weights, c) for c in ([_A1], [_A2], [_E0, _E1])]
    pref = (5.0 / 3.0) ** form.level
    solved = []
    for P in bases:
        # the block P^T A P is (5/3)^m G^T G for the edge differences G of
        # the basis; its eigenvectors are those of G^T G
        G = form.difference @ P
        B = (G.T @ G).toarray(order="F")
        try:
            lam, y = scipy.linalg.eigh(B, driver="evd", overwrite_a=True)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericError(f"eigensolver failed: {exc}") from exc
        # eigh leaves each eigenvalue off by about eps lambda_max; the edge
        # energy of phi = P y, a sum of squares, gives it to a few eps
        # relative (the mode's error enters only quadratically)
        lam = pref * np.concatenate([np.einsum("ij,ij->j", g, g) for g in
                                     (G @ y[:, c] for c in _column_chunks(y))])
        solved.append((lam, y))
    (lam_a1, y_a1), (lam_a2, y_a2), (lam_e, y_e) = solved

    if form.bc == NEUMANN:
        # drop the constant mode, the first of the A1 block; it must sit at
        # numerical zero
        if not abs(lam_a1[0]) <= 1e-8 * max(lam_a1[-1], lam_e[-1], 1.0):
            raise NumericError(f"Neumann kernel mode not found: lambda0={lam_a1[0]}")
        lam_a1, y_a1 = lam_a1[1:], y_a1[:, 1:]
    # np.repeat keeps each E pair adjacent, sigma_2-even member first,
    # under the stable sort even where eigenvalues tie
    lam = np.concatenate([lam_a1, lam_a2, np.repeat(lam_e, 2)])
    order = np.argsort(lam, kind="stable")
    col = np.empty(len(lam), dtype=int)
    col[order] = np.arange(len(lam))
    lam = lam[order]
    if lam[0] <= 0:
        raise NumericError(f"nonpositive leading eigenvalue {lam[0]}")
    col_a1, col_a2, col_e = np.split(col, [len(lam_a1), len(lam_a1) + len(lam_a2)])

    # phi o rho = P[rho] y, so the partner of phi = P y is partner @ y
    rho = np.searchsorted(index, geometry.rotation_permutation(form.mesh)[index])
    p_a1, p_a2, p_e = bases
    partner = (p_e[rho[rho]] - p_e[rho]) / np.sqrt(3.0)
    full = np.zeros((form.mesh.n_vertices, len(lam)))
    for P, y, cols in ((p_a1, y_a1, col_a1), (p_a2, y_a2, col_a2),
                       (p_e, y_e, col_e[0::2]), (partner, y_e, col_e[1::2])):
        for c in _column_chunks(y):
            full[np.ix_(index, cols[c])] = P @ y[:, c]
    return Spectrum(form.bc, lam, full, form.mesh)


@functools.lru_cache(maxsize=8)
def _full_spectrum(level, bc):
    mesh = geometry.build_mesh(level)
    return solve_spectrum(assemble_form(mesh, bc))


def build_spectrum(level, bc, j_max=None):
    """Cached mesh+form+solve pipeline; the full solve is shared across calls
    and `Spectrum.truncated(j_max)` cuts it."""
    spec = _full_spectrum(level, check_bc(bc))
    return spec if j_max is None else spec.truncated(j_max)


def _heat_weights(t, spectrum):
    if t <= 0:
        raise DomainError("time must be positive")
    return np.exp(-spectrum.eigenvalues * t)


def heat_kernel(t, xi, yi, spectrum):
    """Truncated spectral heat kernel p_t(x, y) at vertex pairs, as `Spectrum.value`."""
    s = spectrum.value(_heat_weights(t, spectrum), xi, yi)
    return s + 1.0 if spectrum.bc == NEUMANN else s


def heat_kernel_row(t, xi, spectrum):
    """Heat kernel p_t(x, .) against every mesh vertex at once."""
    row = spectrum.row(_heat_weights(t, spectrum), xi)
    return row + 1.0 if spectrum.bc == NEUMANN else row
