"""Energy forms, Laplacian eigenproblem and heat kernels on gasket meshes.

The level-m energy form is the renormalized graph energy with prefactor
(5/3)^m over cell-mate pairs; the measure enters through the lumped
weights of the mesh.  The discrete Laplacian is the generalized
symmetric eigenproblem (stiffness, mass); with a diagonal mass matrix it
reduces to a dense standard eigensolve, which the symmetry group D3 of the
gasket (rotations and reflections) splits into A1, A2 and E blocks of about
n/6, n/6 and n/3 rows; the E block is solved once and each of its
eigenvectors yields a second one by rotation.  Heat kernels are truncated
spectral expansions; Neumann keeps the constant leading term 1,
Dirichlet drops it and vanishes on the corner set V_0.
"""

import functools
import os
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import geometry
from .errors import CapacityError, ContractError, DomainError, NumericError

NEUMANN = "neumann"
DIRICHLET = "dirichlet"

# relative gap below which consecutive eigenvalues count as one multiplet;
# truncations never split a multiplet (kernel symmetry would break)
_CLUSTER_RTOL = 1e-8

# n x n float64 arrays live at the peak of assemble + solve: the stiffness
# and the output eigenvectors, plus about n^2/3 of block eigenvectors and
# orbit values while the output is written (the E block's divide-and-conquer
# workspace, 2 (n/3)^2, is freed by then); peak RSS grew by 2.42 n^2 doubles
# at level 8, 2.40 at level 7 and 2.43 at level 6
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
    zero on the boundary.  The Neumann constant mode is excluded.  Every
    spectral sum over a Spectrum runs over all of its modes, so the
    truncation of a kernel or a field is that of the Spectrum it is given
    (see `truncated`).
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


# D3 = {sigma_2^s o rho^r}, element 3 s + r, in the order of
# geometry.symmetry_orbits; as maps, (s, r) o (s', r') = (s + s', (-1)^s' r + r')
_S, _R = np.divmod(np.arange(6), 3)
_PRODUCT = 3 * ((_S[:, None] + _S) % 2) + (np.where(_S, -1, 1) * _R[:, None] + _R) % 3

# An orbit-local basis vector takes the value c(g) at g(v_o), times a scale.
# A1 is rho-invariant and sigma_2-even, A2 rho-invariant and sigma_2-odd;
# E0 and E1 are sigma_2-even and sum to zero over every rho-orbit.  A2 and
# E1 contradict themselves where sigma_2 fixes v_o, so they live on the
# 6-vertex orbits only.
_A1 = np.array([1.0, 1, 1, 1, 1, 1])
_A2 = np.array([1.0, 1, 1, -1, -1, -1])
_E0 = np.array([2.0, -1, -1, 2, -1, -1])
_E1 = np.array([0.0, 1, -1, 0, 1, -1])


def solve_spectrum(form):
    """Solve the generalized eigenproblem and return every eigenpair.

    The diagonal mass reduces (A, M) to the symmetric matrix
    B = M^-1/2 A M^-1/2.  The symmetry group D3 of the gasket (rotation rho
    and reflection sigma_2) maps V_0 to itself and leaves A and M invariant,
    so B splits over an orthonormal basis of orbit-local vectors with
    constant coefficients into an A1 block (rho-invariant, sigma_2-even), an
    A2 block (rho-invariant, sigma_2-odd) and two equal E blocks.  Only the
    sigma_2-even E block is solved; each of its eigenvectors phi has the
    sigma_2-odd partner (phi o rho^2 - phi o rho)/sqrt 3 with the same
    eigenvalue, stored in the column after phi.  The three blocks are
    solved by divide and conquer.  Every eigenvector lies in one isotypic
    component, is exactly sigma_2-even or sigma_2-odd (A1 and A2 vectors
    exactly rho-invariant too) and is mass-orthonormal; across blocks the
    order inside a multiplet follows eigenvalue roundoff.
    """
    index, A = form.index, form.stiffness
    orbits = geometry.symmetry_orbits(form.mesh)
    # the Dirichlet rows are a union of orbits (V_0 is one); map them to
    # rows, 6-vertex orbits first
    orbits = np.searchsorted(index, orbits[:, np.isin(orbits[0], index)])
    orbits = orbits[:, np.argsort(orbits[3] == orbits[0], kind="stable")]
    large = orbits[3] != orbits[0]
    n, six = len(large), np.count_nonzero(large)
    # each block's vectors: a pattern c on each of the leading orbits
    blocks = [[(_A1, n)], [(_A2, six)], [(_E0, n), (_E1, six)]]
    # c on orbit o has norm |c| share_o: g -> g(v_o) covers a 3-vertex
    # orbit twice
    share = np.where(large, 1.0, np.sqrt(0.5))
    mass = 1.0 / np.sqrt(form.weights[orbits[0]])

    # As B[g x, g y] == B[x, y], the entry of c on o and c' on o' is
    # sum_k (sum_g c(g) c'(g k)) B[v_o, k(v_o')] share_o share_o'
    # / (|c| |c'|): six gathers of representative rows give every block.
    mats = [np.zeros((m, m)) for m in (sum(r for _, r in blk) for blk in blocks)]
    for k in range(6):
        G = A[np.ix_(orbits[0], orbits[k])]
        for B, blk in zip(mats, blocks):
            i = 0
            for c, rows in blk:
                j = 0
                for c2, cols in blk:
                    coef = c @ c2[_PRODUCT[:, k]]
                    if coef:
                        B[i:i + rows, j:j + cols] += coef * G[:rows, :cols]
                    j += cols
                i += rows
    solved = []
    for B, blk in zip(mats, blocks):
        w = np.concatenate([(mass * share)[:rows] / np.linalg.norm(c)
                            for c, rows in blk])
        B *= w[:, None]
        B *= w[None, :]
        try:
            # B.T is B in Fortran order, so LAPACK solves it in place
            solved.append(scipy.linalg.eigh(B.T, driver="evd", overwrite_a=True))
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericError(f"eigensolver failed: {exc}") from exc
    del mats, B, G
    (lam_a1, y_a1), (lam_a2, y_a2), (lam_e, y_e) = solved
    del solved  # so that the block eigenvectors can be freed below

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

    # The value at g(v_o) of a block eigenvector y is the sum over its
    # vectors of c(g) y mass_o / (share_o |c|).  Each array of values is
    # written to every vertex that carries it, so sigma_2 parity and
    # rho-invariance are exact.
    full = np.zeros((form.mesh.n_vertices, len(lam)))
    at = index[orbits]
    scale = mass / share
    for (c, rows), y, cols in ((blocks[0][0], y_a1, col_a1),
                               (blocks[1][0], y_a2, col_a2)):
        y *= (scale[:rows] / np.linalg.norm(c))[:, None]
        for g in range(6):
            full[np.ix_(at[g, :rows], cols)] = y if c[g] > 0 else -y
    e0, e1 = y_e[:n], y_e[n:]
    e0 *= (scale / np.linalg.norm(_E0))[:, None]
    e1 *= (scale[:six] / np.linalg.norm(_E1))[:, None]
    # the sigma_2-even member phi on rho^r(v_o) and sigma_2(rho^r(v_o))
    even = []
    for r in range(3):
        vals = _E0[r] * e0
        vals[:six] += _E1[r] * e1
        full[np.ix_(at[r], col_e[0::2])] = vals
        full[np.ix_(at[3 + r], col_e[0::2])] = vals
        even.append(vals)
    del y_a1, y_a2, y_e, e0, e1
    # its partner (phi o rho^2 - phi o rho) / sqrt 3, sigma_2-odd
    for r in range(3):
        vals = (even[(r + 2) % 3] - even[(r + 1) % 3]) / np.sqrt(3.0)
        full[np.ix_(at[r], col_e[1::2])] = vals
        vals *= -1.0
        full[np.ix_(at[3 + r], col_e[1::2])] = vals

    return Spectrum(form.bc, form.level, lam, full, form.mesh.mu_weights, form.mesh)


@functools.lru_cache(maxsize=8)
def _full_spectrum(level, bc):
    mesh = geometry.build_mesh(level)
    return solve_spectrum(assemble_form(mesh, bc))


def build_spectrum(level, bc, j_max=None):
    """Cached mesh+form+solve pipeline; the full solve is shared across calls
    and `Spectrum.truncated(j_max)` cuts it."""
    spec = _full_spectrum(level, check_bc(bc))
    return spec if j_max is None else spec.truncated(j_max)


def heat_kernel(t, xi, yi, spectrum):
    """Truncated spectral heat kernel p_t(x, y) between two mesh vertices."""
    if t <= 0:
        raise DomainError("time must be positive")
    phi = spectrum.eigenvectors
    s = float(np.exp(-spectrum.eigenvalues * t) @ (phi[xi] * phi[yi]))
    return s + 1.0 if spectrum.bc == NEUMANN else s


def heat_kernel_row(t, xi, spectrum):
    """Heat kernel p_t(x, .) against every mesh vertex at once."""
    if t <= 0:
        raise DomainError("time must be positive")
    phi = spectrum.eigenvectors
    row = phi @ (np.exp(-spectrum.eigenvalues * t) * phi[xi])
    return row + 1.0 if spectrum.bc == NEUMANN else row

