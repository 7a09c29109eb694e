import functools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import gasketfields
from gasketfields import errors, geometry, riesz, spectral
from gasketfields.constants import D_H, D_W
from gasketfields.errors import CapacityError, ContractError, DomainError


def test_energy_level0_hand_value():
    # f = (1, 0, 0) on V_0: two unit-difference edges, E_0 = 2
    mesh = geometry.build_mesh(0)
    form = spectral.assemble_form(mesh, "neumann")
    f = np.zeros(3)
    f[mesh.boundary[0]] = 1.0
    assert spectral.energy(form, f) == pytest.approx(2.0, abs=1e-14)


def test_energy_constant_vanishes(mesh6):
    form = spectral.assemble_form(mesh6, "neumann")
    assert spectral.energy(form, np.ones(mesh6.n_vertices)) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("m", range(0, 7))
def test_mass_weights_sum_to_one(m):
    mesh = geometry.build_mesh(m)
    form = spectral.assemble_form(mesh, "neumann")
    assert form.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_dense_spectrum_capacity_error(monkeypatch):
    # the estimate is n^2/2 float64: the stored blocks, about n^2/6, and the
    # E block's eigensolve, 3 (n/3)^2; the limit is the memory probe
    mesh = geometry.build_mesh(4)
    need = 4 * mesh.n_vertices ** 2
    monkeypatch.setattr(errors, "_physical_memory", lambda: need)
    spectral.solve_spectrum(spectral.assemble_form(mesh, "neumann"))
    monkeypatch.setattr(errors, "_physical_memory", lambda: need - 1)
    # a fresh cache, so a spectrum solved by an earlier test cannot answer
    monkeypatch.setattr(spectral, "_full_spectrum", functools.lru_cache(maxsize=8)(
        spectral._full_spectrum.__wrapped__))
    # the sparse form assembles below the limit; the solve refuses before
    # it builds a block basis
    form = spectral.assemble_form(mesh, "dirichlet")
    assert form.stiffness.shape == (mesh.n_vertices - 3,) * 2
    monkeypatch.setattr(spectral, "_block_basis", None)
    with pytest.raises(CapacityError) as exc:
        spectral.build_spectrum(4, "dirichlet")
    msg = str(exc.value)
    assert "level 4" in msg and f"n = {mesh.n_vertices}" in msg
    assert f"{need / 1e9:.2f} GB" in msg and f"{(need - 1) / 1e9:.2f} GB" in msg


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_assemble_and_solve_peak_memory(mesh6, bc):
    # the stiffness is sparse and no n x n array is formed: the peak is the
    # E block's eigensolve, 4 (n/3)^2 float64, which the A1 and A2 solves
    # and the stored blocks (about n^2/6) stay below
    tracemalloc.start()
    try:
        spectral.solve_spectrum(spectral.assemble_form(mesh6, bc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 8 * mesh6.n_vertices ** 2


def _loop_stiffness(mesh, bc):
    """Reference assembly: one Python pass over the edges, then the
    Dirichlet restriction to interior rows."""
    n = mesh.n_vertices
    pref = (5.0 / 3.0) ** mesh.level
    A = np.zeros((n, n))
    for u, v in mesh.edges:
        A[u, v] -= pref
        A[v, u] -= pref
        A[u, u] += pref
        A[v, v] += pref
    if bc == "dirichlet":
        keep = np.setdiff1d(np.arange(n), mesh.boundary)
        A = A[np.ix_(keep, keep)]
    return A


# the level-0 Dirichlet form has no rows (test_level0_dirichlet_has_no_form)
@pytest.mark.parametrize("bc,m", [(bc, m) for bc in ("neumann", "dirichlet")
                                  for m in range(0, 8) if (bc, m) != ("dirichlet", 0)])
def test_stiffness_matches_loop_reference(m, bc):
    mesh = geometry.build_mesh(m)
    assert np.array_equal(spectral.assemble_form(mesh, bc).stiffness.toarray(),
                          _loop_stiffness(mesh, bc))


def test_level0_dirichlet_has_no_form():
    # V_0 is the whole level-0 mesh, so no vertex is left to carry a mode
    with pytest.raises(DomainError, match="no interior vertex"):
        spectral.assemble_form(geometry.build_mesh(0), "dirichlet")
    with pytest.raises(DomainError, match="no interior vertex"):
        spectral.build_spectrum(0, "dirichlet")


@pytest.mark.parametrize("m", [1, 6])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_stiffness_is_sparse(m, bc):
    # one stored entry per row on the diagonal and two per in-form edge
    mesh = geometry.build_mesh(m)
    form = spectral.assemble_form(mesh, bc)
    inside = np.isin(mesh.edges, form.index).all(axis=1)
    assert isinstance(form.stiffness, scipy.sparse.csr_array)
    assert form.stiffness.nnz == len(form.index) + 2 * np.count_nonzero(inside)


def test_stiffness_structure(mesh6):
    form = spectral.assemble_form(mesh6, "neumann")
    A = form.stiffness.toarray()
    assert np.allclose(A, A.T)
    assert np.allclose(A.sum(axis=1), 0.0, atol=1e-9)
    pref = (5.0 / 3.0) ** mesh6.level
    u, v = mesh6.edges[0]
    assert A[u, v] == pytest.approx(-pref)


def test_dirichlet_dimension(mesh6):
    form = spectral.assemble_form(mesh6, "dirichlet")
    assert form.stiffness.shape == (mesh6.n_vertices - 3,) * 2
    spec = spectral.build_spectrum(6, "dirichlet")
    assert spec.n_modes == mesh6.n_vertices - 3


def test_bad_bc():
    with pytest.raises(DomainError):
        spectral.assemble_form(geometry.build_mesh(1), "robin")


def test_spectrum_invariants(spec_n):
    lam = spec_n.eigenvalues
    assert lam[0] > 0.0
    assert np.all(np.diff(lam) >= -1e-9)
    # mass orthonormality
    k = 80
    w = spec_n.mesh.mu_weights
    phi = spec_n.eigenvectors()[:, :k]
    gram = phi.T @ (w[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-9
    # orthogonal to constants
    assert np.max(np.abs(w @ phi)) <= 1e-9


def test_dirichlet_vectors_vanish_on_boundary(mesh6, spec_d):
    assert np.all(spec_d.eigenvectors(mesh6.boundary) == 0.0)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_truncated_past_the_last_mode_is_the_spectrum(bc):
    # the CLI default --jmax 200 exceeds every low level's mode count
    full = spectral.build_spectrum(2, bc)
    assert full.n_modes < 200
    for j in (full.n_modes, full.n_modes + 1, 200):
        assert full.truncated(j) is full
    assert spectral.build_spectrum(2, bc, j_max=200) is full


def test_truncated_keeps_at_least_one_mode(spec_n_full):
    for j in (0, -3):
        with pytest.raises(ContractError):
            spec_n_full.truncated(j)
        with pytest.raises(ContractError):
            spectral.build_spectrum(6, "neumann", j_max=j)


def test_truncation_respects_clusters(spec_n_full):
    lam = spec_n_full.eigenvalues
    tied = lambda k: lam[k] - lam[k - 1] <= 1e-8 * lam[k - 1]
    # the first cut that would split a multiplet: modes j-1 and j are tied;
    # it extends exactly to the end of that multiplet
    j = next(k for k in range(1, 300) if tied(k))
    cut = spec_n_full.truncated(j)
    k = cut.n_modes
    assert k == spec_n_full.truncation(j)
    assert k > j and all(tied(i) for i in range(j, k)) and not tied(k)
    assert cut.truncated(j) is cut


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_truncated_slices_the_full_spectrum(bc):
    full = spectral.build_spectrum(6, bc)
    for j_max in (1, 60, 200, 240):
        cut = spectral.build_spectrum(6, bc, j_max=j_max)
        j = full.truncation(j_max)
        assert cut.n_modes == j < full.n_modes
        assert np.array_equal(cut.eigenvalues, full.eigenvalues[:j])
        assert np.array_equal(cut.eigenvectors(), full.eigenvectors()[:, :j])
        assert cut.mesh is full.mesh
        assert (cut.bc, cut.mesh.level) == (bc, 6)




def test_dirichlet_lambda1_stabilizes():
    # discrete approximations agree to 3 significant digits across levels;
    # the converged m=6 value is a regression fixture, not ground truth
    vals = [spectral.build_spectrum(m, "dirichlet").eigenvalues[0] for m in (4, 5, 6)]
    assert all(f"{v:.3g}" == "16.8" for v in vals)
    assert vals[2] == pytest.approx(16.8154, abs=2e-3)


def test_heat_kernel_mass_conservation(mesh6, spec_n_full):
    for t in (0.01, 0.1, 1.0):
        row = spectral.heat_kernel_row(t, 11, spec_n_full)
        assert abs(row @ mesh6.mu_weights - 1.0) <= 1e-6


def test_heat_kernel_dirichlet_vanishes_at_corners(mesh6, spec_d):
    for b in mesh6.boundary:
        assert np.max(np.abs(spectral.heat_kernel_row(0.05, b, spec_d))) == 0.0


@pytest.mark.parametrize("j_max", [None, 200])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("level", [5, 6])
def test_heat_kernel_rows_over_an_index_set(level, bc, j_max):
    # the rows of an index set, read as one block (70 rows: two 64-row
    # reads, the corners among them), are the single-vertex rows stacked
    spec = spectral.build_spectrum(level, bc, j_max=j_max)
    n = spec.mesh.n_vertices
    rows = np.concatenate([spec.mesh.boundary,
                           np.random.default_rng(9).choice(n, 67, replace=False)])
    for t in (0.05, 1.0):
        block = spectral.heat_kernel_row(t, rows, spec)
        single = np.stack([spectral.heat_kernel_row(t, x, spec) for x in rows])
        assert block.shape == single.shape == (70, n)
        assert np.max(np.abs(block - single)) <= 1e-13 * np.max(np.abs(single))


def test_heat_kernel_large_time(spec_n):
    assert spectral.heat_kernel(50.0, 3, 500, spec_n) == pytest.approx(1.0, abs=1e-8)


def test_heat_kernel_symmetry(spec_n):
    assert spectral.heat_kernel(0.3, 10, 20, spec_n) == spectral.heat_kernel(0.3, 20, 10, spec_n)


def test_heat_kernel_domain_error(spec_n):
    with pytest.raises(DomainError):
        spectral.heat_kernel(0.0, 0, 1, spec_n)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_heat_kernel_refuses_a_non_finite_time(spec_n, t):
    # exp(-lambda t) at nan is nan, and at inf drops the Neumann mass
    for read in (lambda: spectral.heat_kernel(t, 0, 1, spec_n),
                 lambda: spectral.heat_kernel_row(t, 0, spec_n)):
        with pytest.raises(DomainError, match="positive and finite"):
            read()


def test_heat_semigroup_identity(mesh6, spec_n):
    rng = np.random.default_rng(6)
    for _ in range(5):
        a, b = rng.choice(mesh6.n_vertices, 2, replace=False)
        for (t, s) in ((0.05, 0.05), (0.3, 0.7)):
            conv = spectral.heat_kernel_row(t, a, spec_n) @ (
                mesh6.mu_weights * spectral.heat_kernel_row(s, b, spec_n))
            assert abs(conv - spectral.heat_kernel(t + s, a, b, spec_n)) <= 1e-5


@pytest.mark.parametrize("weight", ["riesz", "heat"])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_spectrum_sums_agree(bc, weight):
    # value, matrix and apply are one sum sum_j g_j phi_j(x) phi_j(y): entry,
    # one row, whole matrix and the action on a point mass e_x
    spec = spectral.build_spectrum(4, bc)
    lam = spec.eigenvalues
    g = lam ** -0.9 if weight == "riesz" else np.exp(-0.1 * lam)
    G = spec.matrix(g)
    n = spec.mesh.n_vertices
    # three vertices off V_0, where Dirichlet rows vanish
    for x in np.setdiff1d(np.arange(n), spec.mesh.boundary)[[0, 40, -1]]:
        row = spec.matrix(g, x)
        tol = 1e-13 * np.max(np.abs(row))
        assert tol > 0.0
        values = np.array([spec.value(g, x, y) for y in range(n)])
        assert np.max(np.abs(values - row)) <= tol
        assert np.max(np.abs(spec.value(g, np.full(n, x), np.arange(n)) - values)) <= tol
        assert np.max(np.abs(G[x] - row)) <= tol
        e = np.zeros(n)
        e[x] = 1.0
        assert np.max(np.abs(spec.apply(g, e) - row)) <= tol


@pytest.mark.parametrize("j_max", [None, 200])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_apply_at_rows_is_the_rows_of_the_full_apply(bc, j_max):
    # a row of the apply takes the full apply's products in its order, so
    # it has the same bits, for one coefficient vector or a stack of them
    spec = spectral.build_spectrum(6, bc, j_max=j_max)
    n, g = spec.mesh.n_vertices, spec.eigenvalues ** -0.9
    rng = np.random.default_rng(3)
    rows = np.concatenate([spec.mesh.boundary, rng.choice(n, 70, replace=False)])
    for c in (rng.standard_normal(n), rng.standard_normal((n, 9))):
        full = spec.apply(g, c)
        assert np.array_equal(spec.apply(g, c, rows), full[rows])
        assert np.array_equal(spec.apply(g, c, 140), full[140])
        assert np.array_equal(spec.apply(g, c, rows[::-1].tolist()), full[rows[::-1]])


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_eigenvalue_growth_slope(bc):
    spec = spectral.build_spectrum(6, bc)
    j = np.arange(10, 201)
    slope, _ = np.polyfit(np.log(j), np.log(spec.eigenvalues[j - 1]), 1)
    assert abs(slope - D_W / D_H) <= 0.08


def test_heat_kernel_on_diagonal_dominates(mesh6, spec_n_full):
    # Cauchy-Schwarz structure of the spectral sum: off-diagonal values
    # cannot exceed the largest diagonal value
    t = 0.05
    diag = [spectral.heat_kernel(t, i, i, spec_n_full) for i in range(0, 1095, 25)]
    top = max(diag)
    rng = np.random.default_rng(7)
    for _ in range(40):
        a, b = rng.choice(mesh6.n_vertices, 2, replace=False)
        assert spectral.heat_kernel(t, a, b, spec_n_full) <= top + 1e-9


def _unblocked_spectrum(form):
    """Reference solve: plain eigh of the whole M^-1/2 A M^-1/2."""
    d = 1.0 / np.sqrt(form.weights)
    B = form.stiffness.toarray() * d[:, None] * d[None, :]
    lam, U = scipy.linalg.eigh(0.5 * (B + B.T))
    vecs = U * d[:, None]
    if form.bc == "neumann":
        lam, vecs = lam[1:], vecs[:, 1:]
    n = form.mesh.n_vertices
    full = np.zeros((n, len(lam)))
    full[form.index] = vecs
    # one block whose basis is the identity: y is the dense matrix itself
    block = (full, np.arange(len(lam)), (scipy.sparse.eye_array(n, format="csr"),))
    return spectral.Spectrum(form.bc, lam, (block,), form.mesh)


def _dense_eigenvectors(spec):
    """Reference: the n x m eigenvector matrix, each mode family's dense
    basis times its block eigenvectors."""
    phi = np.full((spec.mesh.n_vertices, spec.n_modes), np.nan)
    for y, cols, bases in spec.blocks:
        for t, P in enumerate(bases):
            phi[:, cols + t] = P.toarray() @ y
    return phi


@pytest.mark.parametrize("m", [5, 6])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_block_sums_match_dense_reference(m, bc):
    # every Spectrum sum, full and truncated, against the same sum over the
    # dense eigenvector matrix, to 1e-12 max|.| (a bound set before any run)
    full = spectral.build_spectrum(m, bc)
    n, w = full.mesh.n_vertices, full.mesh.mu_weights
    rng = np.random.default_rng(15)

    def close(got, ref):
        return got.shape == ref.shape and np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    for spec in (full, full.truncated(200)):
        phi, g = _dense_eigenvectors(spec), spec.eigenvalues ** -0.7
        assert not np.isnan(phi).any() and close(spec.eigenvectors(), phi)
        xi, yi = rng.integers(n, size=(2, 60))
        assert close(spec.value(g, xi, yi), np.einsum("ij,ij,j->i", phi[xi], phi[yi], g))
        x = int(rng.integers(n))
        assert close(spec.matrix(g, x), phi @ (g * phi[x]))
        rows, mask = rng.choice(n, 40, replace=False), rng.random(n) < 0.3
        assert close(spec.matrix(g, rows, mask), (phi[rows] * g) @ phi[mask].T)
        assert close(spec.matrix(g), (phi * g) @ phi.T)
        c = rng.standard_normal((n, 3))
        assert close(spec.apply(g, c), phi @ (g[:, None] * (phi.T @ c)))
        assert close(spec.apply(g, c[:, 0]), phi @ (g * (phi.T @ c[:, 0])))
        assert close(np.array(spec.sup_norm()), np.max(np.abs(phi)))
        h, lo = rng.standard_normal(n), 0
        for k in (1, 2, 3):
            hi = spec.truncation(lo + 1)
            band = phi[:, lo:hi]
            assert close(spec.project(h, k), band @ (band.T @ (w * h)))
            lo = hi


def test_projection_past_the_last_eigenspace():
    # L2 Neumann: 14 modes in 5 distinct eigenspaces.  k = 6 and beyond
    # claimed the function had no component in eigenspace k
    spec = spectral.build_spectrum(2, spectral.NEUMANN)
    h = np.random.default_rng(3).standard_normal(spec.mesh.n_vertices)
    w, phi, lo = spec.mesh.mu_weights, _dense_eigenvectors(spec), 0
    for k in range(1, 6):
        hi = spec.truncation(lo + 1)
        band = phi[:, lo:hi]
        assert np.allclose(spec.project(h, k), band @ (band.T @ (w * h)), atol=1e-12)
        lo = hi
    assert lo == spec.n_modes == 14
    for k in (6, 13, 50):
        with pytest.raises(ContractError, match=f"k = {k} exceeds the 5 distinct"):
            spec.project(h, k)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_row_blocks_concatenate_to_matrix(bc):
    # row blocks of at most 64 rows, in the order of rows, whose
    # concatenation is `matrix` bit for bit, for every kind of row set; an
    # entry of a block of two or more rows does not depend on the rows read
    # with it, so both are the entries of the whole matrix (a one-row block
    # is a matrix-vector product, whose sums round differently)
    spec = spectral.build_spectrum(5, bc)
    n, g = spec.mesh.n_vertices, spec.eigenvalues ** -0.7
    full = spec.matrix(g)
    rng = np.random.default_rng(21)
    mask = rng.random(n) < 0.4
    picks = rng.choice(n, 150, replace=False)
    for rows in (slice(None), slice(7, 300, 3), picks, mask, 17, np.array([], dtype=int),
                 np.zeros(n, dtype=bool)):
        for cols in (slice(None), picks[:70], mask):
            at, width = np.arange(n)[rows].ravel(), np.arange(n)[cols].size
            blocks = list(spec.row_blocks(g, rows, cols))
            assert all(0 < len(x) <= 64 and B.shape == (len(x), width) for x, B in blocks)
            assert np.array_equal(np.concatenate([at[:0]] + [x for x, _ in blocks]), at)
            got = np.concatenate([np.empty((0, width))] + [B for _, B in blocks])
            assert np.array_equal(got, spec.matrix(g, rows, cols).reshape(got.shape))
            if at.size == 1:
                assert np.max(np.abs(got - full[at][:, cols])) <= 1e-14 * np.max(np.abs(full))
            else:
                assert np.array_equal(got, full[at][:, cols])


def test_spectrum_stores_blocks_not_the_dense_matrix(spec_n_full):
    # the block eigenvectors hold about n^2/6 values; no array of the
    # spectrum has one entry per (vertex, mode)
    n, m = spec_n_full.mesh.n_vertices, spec_n_full.n_modes
    ys = [y for y, _, _ in spec_n_full.blocks]
    assert sum(y.size for y in ys) <= n * n / 5
    assert all(y.flags.c_contiguous and y.size < n * m for y in ys)


@pytest.mark.parametrize("bc,exact", [("neumann", [3, 3, 6, 6, 6]),
                                      ("dirichlet", [2, 5, 5])])
def test_decimation_level1(bc, exact):
    lam = spectral.build_spectrum(1, bc).eigenvalues
    assert np.allclose(lam / (1.5 * 5), exact, rtol=1e-12, atol=0)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_decimation_maps_onto_coarser_level(bc):
    # spectral decimation: scaled eigenvalues x = lambda / ((3/2) 5^m) outside
    # the new values {2, 5, 6} satisfy x (5 - x) = a level-(m-1) value
    prev = spectral.build_spectrum(1, bc).eigenvalues / (1.5 * 5)
    for m in range(2, 8):
        x = spectral.build_spectrum(m, bc).eigenvalues / (1.5 * 5 ** m)
        new = np.isclose(x[:, None], [2, 5, 6], rtol=1e-9, atol=0).any(axis=1)
        y = x[~new] * (5 - x[~new])
        err = np.min(np.abs(y[:, None] - prev[None, :]), axis=1) / y
        assert np.max(err) <= 1e-9, (m, np.max(err))
        prev = x


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_spectrum_matches_unblocked_reference(m, bc):
    form = spectral.assemble_form(geometry.build_mesh(m), bc)
    spec, ref = spectral.solve_spectrum(form), _unblocked_spectrum(form)
    lam = ref.eigenvalues
    assert np.all(np.abs(spec.eigenvalues - lam) <= 1e-10 * np.maximum(lam, 1.0))
    for j in (spec.n_modes, 200):
        G = riesz.KernelEvaluator(spec.truncated(j), 0.9).matrix()
        G_ref = riesz.KernelEvaluator(ref.truncated(j), 0.9).matrix()
        assert np.max(np.abs(G - G_ref)) <= 1e-12 * np.max(np.abs(G_ref))


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_eigenvalues_are_edge_energies(mesh6, bc):
    # each eigenvalue is the energy of its mass-normalized mode, summed over
    # the edges as squares (no cancellation), to roundoff relative to itself
    spec = spectral.build_spectrum(6, bc)
    u, v = mesh6.edges.T
    phi = spec.eigenvectors()
    energy = (5.0 / 3.0) ** 6 * np.einsum("ij,ij->j", phi[u] - phi[v], phi[u] - phi[v])
    assert np.max(np.abs(energy - spec.eigenvalues) / spec.eigenvalues) <= 1e-13


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_eigenvectors_reflection_parity_and_mass_orthonormal(mesh6, bc):
    spec = spectral.build_spectrum(6, bc)
    phi = spec.eigenvectors()
    assert phi.flags.c_contiguous and phi.shape == (mesh6.n_vertices, spec.n_modes)
    flipped = phi[geometry.reflection_permutation(mesh6, 2)]
    even = np.all(flipped == phi, axis=0)
    odd = np.all(flipped == -phi, axis=0)
    assert np.all(even | odd)
    gram = phi.T @ (spec.mesh.mu_weights[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(spec.n_modes))) <= 1e-12


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_eigenvectors_lie_in_one_isotypic_component(m, bc):
    # D3 = <rho, sigma_2>: A1 columns are rho-invariant and sigma_2-even, A2
    # columns rho-invariant and sigma_2-odd, exactly; an E column phi is
    # sigma_2-even with phi + phi o rho + phi o rho^2 = 0, and is followed
    # by its partner (phi o rho^2 - phi o rho) / sqrt 3 at the same eigenvalue
    mesh = geometry.build_mesh(m)
    spec = spectral.solve_spectrum(spectral.assemble_form(mesh, bc))
    phi, lam = spec.eigenvectors(), spec.eigenvalues
    rho = geometry.rotation_permutation(mesh)
    sigma = geometry.reflection_permutation(mesh, 2)
    top = np.max(np.abs(phi), axis=0)
    even = np.all(phi[sigma] == phi, axis=0)
    odd = np.all(phi[sigma] == -phi, axis=0)
    invariant = np.all(phi[rho] == phi, axis=0)
    e_even = even & ~invariant & (
        np.max(np.abs(phi + phi[rho] + phi[rho[rho]]), axis=0) <= 1e-12 * top)
    a1, a2 = invariant & even, invariant & odd
    partner = np.zeros_like(a1)
    for j in np.flatnonzero(e_even[:-1]):
        assert odd[j + 1] and not invariant[j + 1] and lam[j + 1] == lam[j]
        rotated = (phi[rho[rho], j] - phi[rho, j]) / np.sqrt(3.0)
        assert np.max(np.abs(phi[:, j + 1] - rotated)) <= 1e-14 * top[j]
        partner[j + 1] = True
    assert np.all(a1.astype(int) + a2 + e_even + partner == 1)
    # every irrep occurs (level 1 has no 6-vertex orbit, so no A2), and
    # every sigma_2-even E column has its partner
    assert a1.any() and e_even.any() and (a2.any() or m == 1)
    assert e_even.sum() == partner.sum()


def test_kernel_matrix_independent_of_blas_threads(tmp_path):
    # inside a multiplet the eigenvector basis may depend on the BLAS
    # thread count; the kernel is basis-invariant and must not
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from gasketfields import riesz, spectral\n"
        "spec = spectral.build_spectrum(5, 'neumann')\n"
        "np.save(sys.argv[1], riesz.KernelEvaluator(spec, 0.9).matrix())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(gasketfields.__file__)),
         env.get("PYTHONPATH", "")])
    G = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        path = str(tmp_path / f"G{threads}.npy")
        proc = subprocess.run([sys.executable, "-c", code, path], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        G.append(np.load(path))
    assert np.max(np.abs(G[0] - G[1])) <= 1e-12 * np.max(np.abs(G[0]))
