"""Energy forms, Laplacian eigenproblem and heat kernels on gasket meshes.

The level-m energy form is the renormalized graph energy with prefactor
(5/3)^m over cell-mate pairs, assembled as a sparse stiffness matrix; the
measure enters through the lumped weights of the mesh.  The discrete
Laplacian is the generalized symmetric eigenproblem (stiffness, mass).
The symmetry group D3 of the gasket (rotations and reflections) splits it
over one sparse orbit-local basis P per irrep into dense A1, A2 and E
blocks P^T A P of about n/6, n/6 and n/3 rows; each block eigenvector y
gives the eigenvector phi = P y, the E block is solved once and each of
its eigenvectors yields a second one by rotation.  A Spectrum stores the
pairs (P, y), about n^2/6 doubles, never the dense n x n eigenvector
matrix, and evaluates its sums block by block.  Heat kernels are
truncated spectral expansions; Neumann keeps the constant leading term 1,
Dirichlet drops it and vanishes on the corner set V_0.
"""

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from . import geometry
from .errors import (ContractError, DomainError, InvariantError, NumericError,
                     check_memory)

NEUMANN = "neumann"
DIRICHLET = "dirichlet"

# relative gap below which consecutive eigenvalues count as one multiplet;
# truncations never split a multiplet (kernel symmetry would break)
_CLUSTER_RTOL = 1e-8

# the rows of a `Spectrum.row_blocks` block; the kernel CSV is cut at its multiples
ROW_BLOCK = 64

# the level-m graph energy is renormalized by RENORMALIZATION_BASE ** m
RENORMALIZATION_BASE = 5.0 / 3.0


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

    The eigenvectors are stored by D3 block: `blocks` holds one
    (y, cols, bases) per block, with y the dense block eigenvectors
    (C-contiguous, one column per mode, ascending), cols the spectrum
    column of each, and bases one sparse basis P_t per mode family on the
    full vertex set, so that P_t y are the family's eigenvectors at the
    columns cols + t: (P,) for A1 and A2, and (P, its rotation partner)
    for E, whose pairs share y.  Dirichlet vectors are zero on the
    boundary, and the Neumann constant mode is excluded.
    `eigenvectors(rows)` forms dense rows on demand.  Every
    sum_j g_j phi_j(x) phi_j(y) over a weight g_j per mode (lambda_j^-s,
    e^(-lambda_j t)) is `value` (at vertex pairs), `row_blocks`
    (`ROW_BLOCK` rows of a block of index sets at a time), `matrix` (the
    whole block, or one row) or `apply` (at an index set of rows), over all
    of the modes, block by block: the truncation of a kernel or a field is
    that of its Spectrum (see `truncated`).
    """
    bc: str
    eigenvalues: np.ndarray
    blocks: tuple = field(repr=False)
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
        return self if j == self.n_modes else self._modes(0, j)

    def _modes(self, lo, hi):
        """The modes lo..hi-1, multiplet bounds from `truncation`, as a
        Spectrum: each block keeps its columns in that range (an E pair is
        one multiplet, so it is kept whole)."""
        blocks = []
        for y, cols, bases in self.blocks:
            a, b = np.searchsorted(cols, (lo, hi))
            # a C-contiguous copy: sparse products copy any other layout per call
            blocks.append((np.ascontiguousarray(y[:, a:b]), cols[a:b] - lo, bases))
        return replace(self, eigenvalues=self.eigenvalues[lo:hi], blocks=tuple(blocks))

    def _parts(self):
        """(P, y, cols) per mode family: its eigenvectors P y sit at the
        spectrum columns cols."""
        for y, cols, bases in self.blocks:
            for t, P in enumerate(bases):
                yield P, y, cols + t

    def eigenvectors(self, rows=slice(None)):
        """Dense eigenvector values phi_j(x), modes along the last axis, at
        the vertices `rows` (an index, index array, slice or mask; every
        vertex by default), formed from the blocks as P y."""
        at = np.arange(self.mesh.n_vertices)[rows]
        parts = list(self._parts())
        out = np.hstack([P[at.ravel()] @ y for P, y, _ in parts])
        order = np.argsort(np.concatenate([cols for _, _, cols in parts]))
        return np.take(out, order, axis=1).reshape(at.shape + (self.n_modes,))

    def value(self, g, xi, yi):
        """sum_j g_j phi_j(x) phi_j(y) at vertex pairs; index arrays pair
        elementwise, read at most 2^20 (pair, mode) entries of a block at a time."""
        # one dot per pair and block: a pair's value does not depend on the
        # pairs read with it, so the chunks change no bit
        shape = np.broadcast_shapes(np.shape(xi), np.shape(yi))
        xi, yi = (np.broadcast_to(v, shape).ravel() for v in (xi, yi))
        step = max(1, 2 ** 20 // max(y.shape[1] for y, _, _ in self.blocks))
        out = np.empty(xi.size)
        for i in range(0, xi.size, step):
            x, z = xi[i:i + step], yi[i:i + step]
            out[i:i + step] = sum((((P[x] @ y) * (P[z] @ y))[:, None, :] @ g[cols])[:, 0]
                                  for P, y, cols in self._parts())
        return out.reshape(shape)[()]

    def row_blocks(self, g, rows=slice(None), cols=slice(None)):
        """sum_j g_j phi_j(x) phi_j(y) on rows x cols, `ROW_BLOCK` rows x at
        a time: yields (x, block) with x the block's vertex indices, in the
        order of rows (an index set, slice or mask; V_m by default), and
        block the (len(x), cols) values; cols is an index set, slice or mask."""
        # block by block: g phi(x) goes through y back to the block's basis,
        # and P reads it at cols, about k m products per row and block rather
        # than one per mode and entry; the scratch is that of ROW_BLOCK rows
        at = np.arange(self.mesh.n_vertices)[rows].ravel()
        parts = [(P[cols], P, y, c) for P, y, c in self._parts()]
        for i in range(0, at.size, ROW_BLOCK):
            x = at[i:i + ROW_BLOCK]
            terms = (Pc @ (y @ (g[c] * (P[x] @ y)).T) for Pc, P, y, c in parts)
            block = next(terms)
            for term in terms:
                block += term
            yield x, block.T

    def matrix(self, g, rows=slice(None), cols=slice(None)):
        """The `row_blocks` sum as one array on rows x cols, V_m x V_m by
        default; rows may be a single vertex."""
        ids = np.arange(self.mesh.n_vertices)
        at = ids[rows]
        out = np.empty((at.size, ids[cols].size))
        i = 0
        for x, block in self.row_blocks(g, at, cols):
            out[i:i + len(x)] = block
            i += len(x)
        return out.reshape(at.shape + out.shape[1:])

    def apply(self, g, coeffs, rows=slice(None)):
        """sum_j g_j phi_j (phi_j . c) for point-mass coefficients c, of shape
        (n,) or (n, R) with one coefficient vector per column, at the vertices
        `rows` (an index, index set, slice or mask; V_m by default): one row
        of values per vertex, rows may be a single vertex.  Each row takes
        the products of the full apply in its order, so its bits are those
        of the full apply's row; C-ordered c is read without a copy."""
        at = np.arange(self.mesh.n_vertices)[rows]
        out = sum(P[at.ravel()] @ (y @ (g[cols] * (y.T @ (P.T @ coeffs)).T).T)
                  for P, y, cols in self._parts())
        return out.reshape(at.shape + out.shape[1:])

    def sup_norm(self):
        """max_j max_x |phi_j(x)|, over `eigenvectors` of 256 rows at a time."""
        return float(max(np.abs(self.eigenvectors(slice(i, i + 256))).max(initial=0.0)
                         for i in range(0, self.mesh.n_vertices, 256)))

    def project(self, h, k):
        """Mass projection sum_j phi_j <phi_j, h>_mu of h onto the k-th
        distinct eigenspace (k = 1 for lambda_1), free of the basis inside its
        multiplet (bounds from `truncation`); InvariantError if it vanishes."""
        if k < 1:
            raise ContractError(f"eigenspace index k = {k} must be >= 1")
        lo = 0
        for count in range(1, k):
            lo = self.truncation(lo + 1)
            if lo == self.n_modes:
                raise ContractError(f"k = {k} exceeds the {count} distinct eigenspaces")
        space = self._modes(lo, self.truncation(lo + 1))
        proj = space.apply(np.ones(space.n_modes), self.mesh.mu_weights * h)
        if np.max(np.abs(proj)) <= 1e-8 * np.max(np.abs(h)):
            raise InvariantError(f"the function has no component in eigenspace {k}")
        return proj


def assemble_form(mesh, bc):
    """Assemble the level-m stiffness and lumped mass for one boundary condition.

    Off-diagonal stiffness entries are -(5/3)^m per shared cell; diagonals
    make rows sum to zero.  Mass weights are incidence * 3^-m / 3.
    Raises DomainError for a Dirichlet form without rows (level 0, where
    V_0 is the whole mesh).
    """
    check_bc(bc)
    n = mesh.n_vertices
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
    A = (RENORMALIZATION_BASE ** mesh.level * (D.T @ D)).tocsr()
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
    """Sparse basis M^-1/2 Q of one isotypic block on V_m, built in CSR
    order; Q has orthonormal columns.

    Column (p, o) of Q is patterns[p] on orbit o, normalized: c(g) at
    orbits[g, o], summed where a 3-vertex orbit lists a vertex twice.
    Columns that sum to zero are dropped, so A2 and E1 live on the 6-vertex
    orbits only (sigma_2 fixes the representative of a 3-vertex orbit).  A
    vertex whose pattern value is zero in a kept column keeps it as an
    explicit zero, so every vertex of an orbit stores the same columns.
    """
    n, width = len(weights), len(patterns) * orbits.shape[1]
    rows = np.tile(orbits.T.ravel(), len(patterns))
    vals = np.tile(np.stack(patterns), (1, orbits.shape[1])).ravel()
    key, at = np.unique(rows * width + np.arange(len(rows)) // len(orbits),
                        return_inverse=True)
    vals = np.bincount(at, weights=vals)
    rows, cols = np.divmod(key, width)
    square = np.bincount(cols, weights=vals * vals, minlength=width)
    keep = square[cols] > 0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    vals /= np.sqrt(square)[cols] * np.sqrt(weights[rows])
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return scipy.sparse.csr_array((vals, (np.cumsum(square > 0) - 1)[cols], indptr),
                                  shape=(n, np.count_nonzero(square)))


def _rotation_partner(P, rho):
    """The basis (P[rho^2] - P[rho]) / sqrt 3 of the rotation partners of
    the vectors P y, from P's own index arrays: rho permutes each orbit,
    whose vertices store the same columns."""
    counts = np.diff(P.indptr)
    offset = np.arange(P.nnz) - np.repeat(P.indptr[:-1], counts)
    turned, once = (P.data[np.repeat(P.indptr[perm], counts) + offset]
                    for perm in (rho[rho], rho))
    # times 1 / sqrt 3, as a sparse array divides by a scalar
    vals = (turned - once) * (1.0 / np.sqrt(3.0))
    return scipy.sparse.csr_array((vals, P.indices, P.indptr), shape=P.shape)


def _column_chunks(y):
    """Slices of at most 32 columns of y, at least one (an empty block has
    one empty chunk): products with y are taken a chunk at a time, so their
    scratch stays small and is reused."""
    return [slice(j, j + 32) for j in range(0, max(y.shape[1], 1), 32)]


def _solve_block(form, P):
    """Ascending eigenvalues, as edge energies, and C-contiguous block
    eigenvectors y of the block P^T A P, for a basis P on V_m."""
    # P has no entry off the form's rows, so its rows there share its arrays
    P = scipy.sparse.csr_array((P.data, P.indices, np.append(P.indptr[form.index], P.nnz)),
                               shape=(len(form.index), P.shape[1]))
    # the block P^T A P is (5/3)^m G^T G for the edge differences G of the
    # basis; its eigenvectors are those of G^T G
    G = form.difference @ P
    B = (G.T @ G).toarray(order="F")
    try:
        lam, y = scipy.linalg.eigh(B, driver="evd", overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"eigensolver failed: {exc}") from exc
    del B
    # eigh leaves each eigenvalue off by about eps lambda_max; the edge
    # energy of phi = P y, a sum of squares, gives it to a few eps relative
    # (the mode's error enters only quadratically)
    lam = RENORMALIZATION_BASE ** form.level * np.concatenate(
        [np.einsum("ij,ij->j", g, g) for g in (G @ y[:, c] for c in _column_chunks(y))])
    order = np.argsort(lam, kind="stable")
    return lam[order], np.ascontiguousarray(y[:, order])


def solve_spectrum(form):
    """Solve the generalized eigenproblem and return every eigenpair.

    The symmetry group D3 of the gasket (rotation rho and reflection
    sigma_2) maps V_0 to itself and leaves the stiffness A and the diagonal
    mass M invariant.  So each isotypic component has a sparse basis
    P = M^-1/2 Q of orbit-local vectors with constant coefficients
    (`_block_basis`), and the eigenpairs of (A, M) in it are those of the
    dense block P^T A P: an A1 block (rho-invariant, sigma_2-even), an A2
    block (rho-invariant, sigma_2-odd) and the sigma_2-even half of E.  The
    blocks are solved by divide and conquer, the largest, E, first; a block
    eigenvector y gives the eigenvector phi = P y, and its eigenvalue is the
    edge energy (5/3)^m |difference phi|^2.  Each E eigenvector phi has the
    sigma_2-odd partner (phi o rho^2 - phi o rho)/sqrt 3 with the same
    eigenvalue, in the column after phi.  Every eigenvector lies in one
    isotypic component, is exactly sigma_2-even or sigma_2-odd (A1 and A2
    vectors exactly rho-invariant too) and is mass-orthonormal; across
    blocks the order inside a multiplet follows eigenvalue roundoff.  The
    Spectrum keeps each block's pair (P, y), P on the full vertex set.
    Raises CapacityError, before allocating, when the block solve would not
    fit in physical memory.
    """
    mesh = form.mesh
    n = mesh.n_vertices
    # n^2/2 float64 (4 n^2 bytes) live at the peak of the solve: the stored
    # block eigenvectors, about n^2/6 (blocks of n/6, n/6 and n/3 rows), and
    # the E block's eigensolve, which holds its n/3 x n/3 matrix and a
    # divide-and-conquer workspace of twice that, 3 (n/3)^2 = n^2/3
    check_memory(4 * n * n, f"level {mesh.level}: the block spectrum of n = {n} vertices",
                 "n^2/2 float64: the D3 block eigenvectors and the E block's eigensolve")
    orbits = geometry.symmetry_orbits(mesh)
    # the Dirichlet rows are a union of orbits (V_0 is one), so P has no
    # entry on V_0
    orbits = orbits[:, np.isin(orbits[0], form.index)]
    bases = [_block_basis(orbits, mesh.mu_weights, c) for c in ([_E0, _E1], [_A1], [_A2])]
    (lam_e, y_e), (lam_a1, y_a1), (lam_a2, y_a2) = [_solve_block(form, P) for P in bases]
    if form.bc == NEUMANN:
        # drop the constant mode, the first of the A1 block; it must sit at
        # numerical zero
        if not abs(lam_a1[0]) <= 1e-8 * max(lam_a1[-1], lam_e[-1], 1.0):
            raise NumericError(f"Neumann kernel mode not found: lambda0={lam_a1[0]}")
        lam_a1, y_a1 = lam_a1[1:], np.ascontiguousarray(y_a1[:, 1:])
    # np.repeat keeps each E pair adjacent, sigma_2-even member first,
    # under the stable sort even where eigenvalues tie; each block is
    # ascending, so its columns are too
    lam = np.concatenate([lam_a1, lam_a2, np.repeat(lam_e, 2)])
    order = np.argsort(lam, kind="stable")
    col = np.empty(len(lam), dtype=int)
    col[order] = np.arange(len(lam))
    lam = lam[order]
    if lam[0] <= 0:
        raise NumericError(f"nonpositive leading eigenvalue {lam[0]}")
    col_a1, col_a2, col_e = np.split(col, [len(lam_a1), len(lam_a1) + len(lam_a2)])

    p_e, p_a1, p_a2 = bases
    partner = _rotation_partner(p_e, geometry.rotation_permutation(mesh))
    blocks = ((y_a1, col_a1, (p_a1,)), (y_a2, col_a2, (p_a2,)),
              (y_e, col_e[0::2], (p_e, partner)))
    return Spectrum(form.bc, lam, blocks, mesh)


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
    if not 0 < t < np.inf:
        raise DomainError(f"time t must be positive and finite, got {t}")
    return np.exp(-spectrum.eigenvalues * t)


def heat_kernel(t, xi, yi, spectrum):
    """Truncated spectral heat kernel p_t(x, y) at vertex pairs, as `Spectrum.value`."""
    s = spectrum.value(_heat_weights(t, spectrum), xi, yi)
    return s + 1.0 if spectrum.bc == NEUMANN else s


def heat_kernel_row(t, xi, spectrum):
    """Heat kernel p_t(x, .) against every mesh vertex at once; xi is a
    vertex or an index set, read as one block (one row per vertex)."""
    row = spectrum.matrix(_heat_weights(t, spectrum), xi)
    return row + 1.0 if spectrum.bc == NEUMANN else row
