"""Energy forms, Laplacian eigenproblem and heat kernels on gasket meshes.

The level-m energy form is the renormalized graph energy with prefactor
(5/3)^m over cell-mate pairs; the measure enters through the lumped
weights of the mesh.  The discrete Laplacian is the generalized
symmetric eigenproblem (stiffness, mass); with a diagonal mass matrix it
reduces to a dense standard eigensolve.  Heat kernels are truncated
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
# the symmetrised matrix, eigh's eigenvectors, their mass scaling and the
# full-vertex copy (peak RSS grew by 5.0-5.2 n^2 doubles at levels 6 and 7)
_DENSE_ARRAYS = 5


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
    pref = (5.0 / 3.0) ** mesh.level
    A = np.zeros((n, n))
    for u, v in mesh.edges:
        A[u, v] -= pref
        A[v, u] -= pref
        A[u, u] += pref
        A[v, v] += pref
    weights = mesh.mu_weights.copy()
    index = np.arange(n)
    if bc == DIRICHLET:
        keep = np.setdiff1d(index, mesh.boundary)
        A = A[np.ix_(keep, keep)]
        weights = weights[keep]
        index = keep
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
    M^-1/2 A M^-1/2; eigenvectors come out exactly mass-orthonormal.
    j_max may be silently extended to avoid splitting a multiplet.
    """
    d = 1.0 / np.sqrt(form.weights)
    B = form.stiffness * d[:, None] * d[None, :]
    B = 0.5 * (B + B.T)
    try:
        lam, U = scipy.linalg.eigh(B)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"eigensolver failed: {exc}") from exc
    vecs = U * d[:, None]

    if form.bc == NEUMANN:
        # drop the constant mode; it must sit at numerical zero
        if not abs(lam[0]) <= 1e-8 * max(lam[-1], 1.0):
            raise NumericError(f"Neumann kernel mode not found: lambda0={lam[0]}")
        lam, vecs = lam[1:], vecs[:, 1:]
    if lam[0] <= 0:
        raise NumericError(f"nonpositive leading eigenvalue {lam[0]}")

    n_modes = len(lam)
    if j_max is not None:
        if j_max > n_modes:
            raise ContractError(f"j_max {j_max} exceeds available modes {n_modes}")

    full = np.zeros((form.mesh.n_vertices, n_modes))
    full[form.index, :] = vecs
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


def export_spectrum_csv(spectrum, values_path, vectors_path=None):
    """Write eigenvalues (j, lambda_j) and optionally the eigenvector matrix."""
    import csv

    with open(values_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "lambda_j"])
        for j, lam in enumerate(spectrum.eigenvalues, start=1):
            w.writerow([j, repr(float(lam))])
    if vectors_path is not None:
        np.savetxt(vectors_path, spectrum.eigenvectors, delimiter=",")
