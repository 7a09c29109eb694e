import copy

import numpy as np
import pytest

from gasketfields import geometry
from gasketfields.constants import D_H
from gasketfields.errors import (CapacityError, ContractError, DomainError,
                                 InvariantError, ResolutionError)

Q = geometry.CORNERS


def in_triangle(p, tol=1e-12):
    x, y = p[..., 0], p[..., 1]
    r3 = np.sqrt(3.0)
    return (y >= -tol) & (y <= r3 * x + tol) & (y <= r3 * (1.0 - x) + tol)


def test_level0_mesh():
    mesh = geometry.build_mesh(0)
    assert mesh.n_vertices == 3
    assert len(mesh.cells) == 1
    assert len(mesh.edges) == 3
    assert np.allclose(np.sort(mesh.vertices, axis=0), np.sort(Q, axis=0))


def test_level1_matches_hand_enumeration():
    # oracle: the three half-scale images of V0, deduplicated with tolerance
    pts = []
    for i in range(3):
        for k in range(3):
            pts.append(0.5 * (Q[k] + Q[i]))
    uniq = []
    for p in pts:
        if not any(np.hypot(*(p - u)) < 1e-12 for u in uniq):
            uniq.append(p)
    assert len(uniq) == 6

    mesh = geometry.build_mesh(1)
    assert mesh.n_vertices == 6
    assert len(mesh.cells) == 3
    got = {tuple(np.round(v, 12)) for v in mesh.vertices}
    want = {tuple(np.round(u, 12)) for u in uniq}
    assert got == want


@pytest.mark.parametrize("m", range(0, 9))
def test_vertex_count_formula(m):
    mesh = geometry.build_mesh(m)
    assert mesh.n_vertices == (3 ** (m + 1) + 3) // 2
    assert len(mesh.cells) == 3 ** m


def test_level6_vertex_count():
    assert geometry.build_mesh(6).n_vertices == 1095


def test_cells_are_cliques(mesh6):
    edge_set = {tuple(e) for e in mesh6.edges}
    for _, (a, b, c) in mesh6.cells:
        for u, v in ((a, b), (a, c), (b, c)):
            assert (min(u, v), max(u, v)) in edge_set


def test_incidence_counts(mesh6):
    on_boundary = np.zeros(mesh6.n_vertices, dtype=bool)
    on_boundary[mesh6.boundary] = True
    assert np.all(mesh6.incidence[on_boundary] == 1)
    assert np.all(mesh6.incidence[~on_boundary] == 2)


def test_check_mesh_rejects_broken_invariants():
    mesh = geometry.build_mesh(3)
    bad = copy.copy(mesh)
    bad.incidence = mesh.incidence.copy()
    bad.incidence[mesh.boundary[0]] = 2
    with pytest.raises(InvariantError, match="incidence"):
        geometry._check_mesh(bad)
    bad = copy.copy(mesh)
    bad.vertices = mesh.vertices[:-1]
    with pytest.raises(InvariantError, match="vertices"):
        geometry._check_mesh(bad)


def test_vertex_index_round_trip_and_non_vertices(mesh6):
    idx = mesh6.vertex_index(mesh6.coords_ab)
    assert np.array_equal(idx, np.arange(mesh6.n_vertices))
    assert mesh6.vertex_index(mesh6.coords_ab[17]) == 17
    s = 2 ** 7
    # (1, 0) is odd; (-1, 1) and (s + 1, 0) wrap onto real keys
    for ab in ((1, 0), (-1, 1), (s + 1, 0), (0, s), (2, 1), (0, -2)):
        with pytest.raises(KeyError):
            mesh6.vertex_index(ab)
    with pytest.raises(KeyError):
        mesh6.vertex_index([mesh6.coords_ab[0], (1, 0)])


@pytest.mark.parametrize("m", range(0, 9))
def test_site_vertices_equal_snapped_measure_points(m):
    # exact word lookup against snapping the depth-40 points whose leading
    # MAX_LEVEL + 1 digits make the word
    mesh = geometry.build_mesh(m)
    n = 100_000
    digits = np.random.default_rng(40 + m).integers(0, 3, size=(n, 40))
    pts = geometry.sample_mu(np.random.default_rng(40 + m), 40, size=n)
    place_values = 3 ** np.arange(geometry.MAX_LEVEL, -1, -1)
    words = digits[:, :geometry.MAX_LEVEL + 1] @ place_values
    assert np.array_equal(mesh.site_vertices(words), mesh.snap(pts))


def test_site_vertices_law_is_exactly_mu_weights():
    # every word once: vertex v receives incidence(v) * 3^(MAX_LEVEL - m) of
    # the 3^(MAX_LEVEL + 1) words, i.e. probability mu_weights[v] exactly
    words = np.arange(3 ** (geometry.MAX_LEVEL + 1))
    for m in range(0, 11):
        mesh = geometry.build_mesh(m)
        counts = np.bincount(mesh.site_vertices(words), minlength=mesh.n_vertices)
        assert np.array_equal(counts, mesh.incidence * 3 ** (geometry.MAX_LEVEL - m))


def test_draw_sites_range_and_digits():
    words = geometry.draw_sites(np.random.default_rng(3), (4, 50_000))
    assert words.shape == (4, 50_000) and words.dtype == np.int64
    assert words.min() >= 0 and words.max() < 3 ** (geometry.MAX_LEVEL + 1)
    # the leading and the last digit are each uniform on {0, 1, 2}
    for digit in (words // 3 ** geometry.MAX_LEVEL, words % 3):
        freq = np.bincount(digit.ravel(), minlength=3) / digit.size
        assert np.all(np.abs(freq - 1 / 3) <= 5 * np.sqrt(2 / 9 / digit.size))


def test_capacity_error():
    with pytest.raises(CapacityError):
        geometry.build_mesh(geometry.MAX_LEVEL + 1)


def test_contraction_fixed_point():
    assert np.allclose(geometry.apply_contraction((0,), Q[0]), Q[0])


def test_contraction_hand_value():
    # F_1(q0) = (q0 - q1)/2 + q1 = (1/2, 0)
    assert np.allclose(geometry.apply_contraction((1,), Q[0]), [0.5, 0.0])


def test_contraction_empty_word_is_identity():
    p = np.array([0.3, 0.2])
    assert np.allclose(geometry.apply_contraction((), p), p)


def test_contraction_bad_digit():
    with pytest.raises(DomainError):
        geometry.apply_contraction((3,), Q[0])


def test_contraction_composition_property():
    # F_{w.w'}(p) = F_w(F_{w'}(p)) over random words and points
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = tuple(rng.integers(0, 3, size=rng.integers(0, 5)))
        w2 = tuple(rng.integers(0, 3, size=rng.integers(0, 5)))
        lam = rng.dirichlet(np.ones(3))
        p = lam @ Q
        a = geometry.apply_contraction(w + w2, p)
        b = geometry.apply_contraction(w, geometry.apply_contraction(w2, p))
        assert np.max(np.abs(a - b)) < 1e-12


def test_reflection_involution():
    rng = np.random.default_rng(1)
    pts = rng.dirichlet(np.ones(3), size=300) @ Q
    for i in range(3):
        assert np.max(np.abs(geometry.reflect(i, geometry.reflect(i, pts)) - pts)) < 1e-12


def test_reflection_swaps_and_fixes_corners():
    # axis through q2 swaps q0 and q1, fixes q2
    assert np.allclose(geometry.reflect(2, Q[0]), Q[1])
    assert np.allclose(geometry.reflect(2, Q[2]), Q[2])
    # axis through q0 swaps q1 and q2
    assert np.allclose(geometry.reflect(0, Q[1]), Q[2])
    # a point on the sigma_2 axis stays put
    axis_point = np.array([0.5, 0.1])
    assert np.allclose(geometry.reflect(2, axis_point), axis_point)


def test_reflection_vertex_set_invariance(mesh6):
    for i in range(3):
        perm = geometry.reflection_permutation(mesh6, i)
        assert np.all(np.sort(perm) == np.arange(mesh6.n_vertices))
        assert np.all(perm[perm] == np.arange(mesh6.n_vertices))
        imgs = geometry.reflect(i, mesh6.vertices)
        assert np.max(np.abs(imgs - mesh6.vertices[perm])) < 1e-12


def test_sample_mu_depth_zero_is_anchor():
    rng = np.random.default_rng(2)
    assert np.allclose(geometry.sample_mu(rng, 0), geometry.BARYCENTER)


def test_sample_mu_cell_frequencies():
    rng = np.random.default_rng(3)
    n = 100_000
    pts = geometry.sample_mu(rng, 40, size=n)
    assert np.all(in_triangle(pts))
    # level-1 cell at q0: membership iff 2p lies in the whole triangle
    f1 = np.mean(in_triangle(2.0 * pts))
    sigma1 = np.sqrt((1 / 3) * (2 / 3) / n)
    assert abs(f1 - 1 / 3) <= 3 * sigma1
    # level-2 cell at q0
    f2 = np.mean(in_triangle(4.0 * pts))
    sigma2 = np.sqrt((1 / 9) * (8 / 9) / n)
    assert abs(f2 - 1 / 9) <= 3 * sigma2


def test_quadrature_constant(mesh6):
    assert geometry.quadrature(np.ones(mesh6.n_vertices), mesh6) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_linear_exact(mesh6):
    # centroid of the measure is the triangle centroid
    assert geometry.quadrature(mesh6.vertices[:, 0], mesh6) == pytest.approx(0.5, abs=1e-3)


def test_quadrature_first_eigenfunction(mesh6, spec_n):
    val = geometry.quadrature(spec_n.eigenvectors[:, 0], mesh6)
    assert abs(val) <= 1e-8


def test_quadrature_length_mismatch(mesh6):
    with pytest.raises(ContractError):
        geometry.quadrature(np.ones(5), mesh6)


def test_quadrature_reflection_invariance(mesh6):
    rng = np.random.default_rng(4)
    f = rng.standard_normal(mesh6.n_vertices)
    for i in range(3):
        perm = geometry.reflection_permutation(mesh6, i)
        # the weight vector is exactly invariant; the sum only up to
        # floating-point reordering
        assert np.array_equal(mesh6.mu_weights[perm], mesh6.mu_weights)
        assert geometry.quadrature(f[perm], mesh6) == pytest.approx(
            geometry.quadrature(f, mesh6), abs=1e-14)


def test_ball_measure_whole_space(mesh6):
    assert geometry.ball_measure_estimate(Q[1], 1.0, mesh6) == pytest.approx(1.0)


def test_ball_measure_corner_power_law(mesh6):
    for j in range(1, 5):
        r = 2.0 ** -j
        mu = geometry.ball_measure_estimate(Q[0], r, mesh6)
        assert (1 / 3) * r ** D_H <= mu <= 18 * r ** D_H


def test_ball_measure_monotone(mesh6):
    x = mesh6.vertices[mesh6.snap(np.array([[0.5, 0.28]]))[0]]
    big = geometry.ball_measure_estimate(x, 0.5, mesh6)
    small = geometry.ball_measure_estimate(x, 0.25, mesh6)
    assert 0.0 < small <= big <= 1.0


def test_ball_measure_resolution_error(mesh6):
    with pytest.raises(ResolutionError):
        geometry.ball_measure_estimate(Q[0], 2.0 ** -5, mesh6)
    with pytest.raises(DomainError):
        geometry.ball_measure_estimate(Q[0], 1.5, mesh6)


def test_level_edges_distances(mesh6):
    for j in (1, 3, 6):
        pairs = mesh6.level_edges(j)
        d = np.hypot(*(mesh6.vertices[pairs[:, 0]] - mesh6.vertices[pairs[:, 1]]).T)
        assert np.allclose(d, 2.0 ** -j)
        assert len(pairs) == 3 ** (j + 1)
