"""Finite approximations of the Sierpinski gasket.

The gasket K is the attractor of the three half-scale contractions
F_i(z) = (z - q_i)/2 + q_i about the corners q0=(0,0), q1=(1,0),
q2=(1/2, sqrt(3)/2).  A level-m mesh carries the vertex set V_m, the
3^m cells (images of V_0 under length-m words), the cell adjacency and
the self-similar probability measure giving each level-m cell mass 3^-m.

Vertex coordinates are handled in exact integer form: every vertex of
V_m is (a / 2^(m+1), b * sqrt(3) / 2^(m+1)) with integers (a, b), so
deduplication, ordering and the reflection permutations are exact.
"""

import functools

import numpy as np

from .constants import check_alpha
from .errors import (CapacityError, ContractError, DomainError, InvariantError,
                     ResolutionError)

# corners of the enclosing triangle
CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
BARYCENTER = CORNERS.mean(axis=0)

# corner (a, b) pairs in units of (1/2, sqrt(3)/2); kept even-parity so all
# derived vertex coordinates stay integral under the maps below
_CORNERS_AB = np.array([[0, 0], [2, 0], [1, 1]], dtype=np.int64)

# the deepest mesh `build_mesh` makes; it also fixes the depth of a site
# word, whose MAX_LEVEL + 1 base-3 digits place the site on any mesh level.
# Spectra are refused far below it by the dense eigensolve's own
# CapacityError.
MAX_LEVEL = 12


class GasketMesh:
    """Immutable level-m approximation of the gasket.

    Attributes
    ----------
    level : int
    vertices : (n, 2) float array, sorted by (y, x)
    coords_ab : (n, 2) int array, exact coordinates, x = a/2^(m+1),
        y = b*sqrt(3)/2^(m+1)
    edges : (3*3^m, 2) int array of cell-mate vertex pairs
    corner_table : (3*3^m,) int array, entry 3c + j is the vertex index of
        corner j of cell c; cells are in lexicographic address order, so
        the address of cell c is c written as m base-3 digits
    boundary : (3,) int array, indices of q0, q1, q2
    incidence : (n,) int array, number of cells containing each vertex
    mu_weights : (n,) float array, lumped measure weights
        incidence * 3^-m / 3; they sum to 1
    """

    def __init__(self, level, vertices, coords_ab, corner_table):
        self.level = level
        self.vertices = vertices
        self.coords_ab = coords_ab
        self.corner_table = corner_table
        cell_idx = corner_table.reshape(-1, 3)
        self.edges = np.sort(np.concatenate(
            [cell_idx[:, [0, 1]], cell_idx[:, [0, 2]], cell_idx[:, [1, 2]]]), axis=1)
        self.incidence = np.bincount(corner_table, minlength=len(coords_ab))
        self.mu_weights = self.incidence * (3.0 ** -level) / 3.0
        s = 2 ** (level + 1)
        # vertices are sorted by (b, a) and 0 <= a <= s, so this key
        # increases along the vertex order
        self._stride = s + 1
        self._keys = coords_ab[:, 1] * self._stride + coords_ab[:, 0]
        self.boundary = self.vertex_index([[0, 0], [s, 0], [s // 2, s // 2]])
        self._tree = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    def vertex_index(self, ab):
        """Exact lookup of vertices by integer coordinate pairs.

        `ab` is one (a, b) pair or an (..., 2) array of them; raises
        KeyError if any pair is not a vertex of V_m.
        """
        ab = np.asarray(ab, dtype=np.int64)
        key = ab[..., 1] * self._stride + ab[..., 0]
        idx = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
        ok = (self._keys[idx] == key) & (ab[..., 0] >= 0) & (ab[..., 0] < self._stride)
        if not np.all(ok):
            raise KeyError(f"not a vertex of V_{self.level}: {ab[~ok].tolist()}")
        return idx

    def site_vertices(self, words):
        """Nearest V_m vertex of each measure site given by its word.

        The base-3 digits d_0 d_1 ... d_MAX_LEVEL of a word (see
        `draw_sites`) put the site in the sub-cell F_w F_i(K),
        w = d_0..d_(m-1), i = d_m, so it is within 2^-(m+1) of the corner
        F_w(q_i), while every other vertex of V_m is at least 2^-m from that
        corner.  Its nearest vertex is therefore corner d_m of cell w, entry
        (base-3 value of d_0..d_m) of the corner table; ties have measure
        zero.
        """
        return self.corner_table[words // 3 ** (MAX_LEVEL - self.level)]

    def snap(self, points):
        """Indices of the mesh vertices nearest to the given points."""
        if self._tree is None:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self.vertices)
        points = np.atleast_2d(points)
        return self._tree.query(points)[1]

    def level_edges(self, j):
        """Vertex-index pairs of V_m that are cell mates at coarser level j.

        All returned pairs are at Euclidean distance exactly 2^-j.
        """
        if not 0 <= j <= self.level:
            raise ContractError(f"level {j} not in [0, {self.level}]")
        if j == self.level:
            return self.edges
        coarse = build_mesh(j)
        return self.vertex_index(coarse.coords_ab[coarse.edges] * 2 ** (self.level - j))


def cell_addresses(m):
    """The addresses of the 3^m level-m cells as a (3^m, m) int array: row c
    is c as m base-3 digits, most significant first (lexicographic)."""
    return np.arange(3 ** m)[:, None] // 3 ** np.arange(m - 1, -1, -1) % 3


@functools.lru_cache(maxsize=None)
def build_mesh(m):
    """Construct the level-m gasket mesh.

    Vertices are deduplicated exactly (integer coordinates) and ordered
    by (y, x); the float coordinates are derived from the exact ones.
    Meshes are immutable, so repeated calls share one cached instance.
    """
    if m < 0:
        raise DomainError("level must be >= 0")
    if m > MAX_LEVEL:
        raise CapacityError(f"level {m} exceeds the configured budget {MAX_LEVEL}")

    words = cell_addresses(m)
    n_cells = len(words)
    # corner j of cell (i_1..i_m): ab = AB_j + sum_r AB_{i_r} * 2^(m-r), r 1-based
    base = np.zeros((n_cells, 2), dtype=np.int64)
    for r in range(m):
        base += _CORNERS_AB[words[:, r]] * (2 ** (m - 1 - r))
    corner_ab = base[:, None, :] + _CORNERS_AB[None, :, :]  # (cells, 3, 2)

    flat = corner_ab.reshape(-1, 2)
    # canonical order: (y, x) = (b, a) lexicographic
    uniq, inverse = np.unique(flat[:, ::-1], axis=0, return_inverse=True)
    coords_ab = uniq[:, ::-1].copy()
    cell_idx = inverse.reshape(n_cells, 3)

    denom = 2.0 ** (m + 1)
    vertices = np.empty((len(coords_ab), 2))
    vertices[:, 0] = coords_ab[:, 0] / denom
    vertices[:, 1] = coords_ab[:, 1] * (np.sqrt(3.0) / denom)

    mesh = GasketMesh(m, vertices, coords_ab, cell_idx.ravel())
    _check_mesh(mesh)
    return mesh


def _check_mesh(mesh):
    """Raise InvariantError unless |V_m| = (3^(m+1)+3)/2 and every vertex
    lies in exactly two cells, the three corners in one."""
    m = mesh.level
    expected = (3 ** (m + 1) + 3) // 2
    if mesh.n_vertices != expected:
        raise InvariantError(
            f"level {m} mesh has {mesh.n_vertices} vertices, expected {expected}")
    want = np.full(mesh.n_vertices, 2)
    want[mesh.boundary] = 1
    bad = np.flatnonzero(mesh.incidence != want)
    if len(bad):
        raise InvariantError(
            f"level {m} mesh incidence breaks 1 on corners, 2 elsewhere at "
            f"vertices {bad[:5].tolist()}")


def reflection_permutation(mesh, i):
    """Vertex permutation induced on V_m by the reflection sigma_i about the
    symmetry axis through corner q_i (it fixes q_i and swaps the other two
    corners), computed exactly.

    Returns perm with vertices[perm[k]] == sigma_i(vertices[k]).
    """
    a = mesh.coords_ab[:, 0]
    b = mesh.coords_ab[:, 1]
    s = 2 ** (mesh.level + 1)
    if i == 0:
        a2, b2 = (a + 3 * b) // 2, (a - b) // 2
    elif i == 1:
        va = a - s
        a2, b2 = s + (va - 3 * b) // 2, -(va + b) // 2
    elif i == 2:
        a2, b2 = s - a, b
    else:
        raise DomainError(f"reflection index {i} not in {{0,1,2}}")
    return mesh.vertex_index(np.stack([a2, b2], axis=-1))


def rotation_permutation(mesh):
    """Vertex permutation of the rotation rho = sigma_0 o sigma_1 by 2 pi/3
    about the barycenter: vertices[perm[k]] == rho(vertices[k])."""
    return reflection_permutation(mesh, 0)[reflection_permutation(mesh, 1)]


def symmetry_orbits(mesh):
    """The orbits of V_m under the symmetry group D3 of the gasket.

    Element 3 s + r (s in {0, 1}, r in {0, 1, 2}) of D3 is
    sigma_2^s o rho^r, and orbits[3 s + r, o] is the vertex
    sigma_2^s(rho^r(v_o)) of the representative v_o of orbit o.  rho fixes
    no vertex, so an orbit has 6 vertices, or 3 when they lie on the
    reflection axes; the representative of such an orbit is its
    sigma_2-fixed vertex, so orbits[3, o] == orbits[0, o] exactly for the
    3-vertex orbits.  A 6-vertex orbit is represented by its least index.
    Columns ascend in v_o.
    """
    rho = rotation_permutation(mesh)
    sigma = reflection_permutation(mesh, 2)
    ident = np.arange(mesh.n_vertices)
    turns = [ident, rho, rho[rho]]
    images = np.array(turns + [sigma[t] for t in turns])
    on_axis = (images[3:] == ident).any(axis=0)
    rep = np.where(on_axis, sigma == ident, images.min(axis=0) == ident)
    return images[:, rep]


def sample_mu(rng, depth, size=None):
    """Sample points from the self-similar measure by random contractions.

    Digits are drawn i.i.d. uniform on {0,1,2} and the word is applied to
    the barycenter anchor; frequencies of landing in any level-n cell,
    n <= depth, match its measure 3^-n.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    n = 1 if size is None else size
    pts = np.tile(BARYCENTER, (n, 1))
    if depth > 0:
        digits = rng.integers(0, 3, size=(n, depth))
        for r in range(depth - 1, -1, -1):
            pts = 0.5 * (pts + CORNERS[digits[:, r]])
    return pts[0] if size is None else pts


def draw_sites(rng, size):
    """Measure sites as integer words uniform on [0, 3^(MAX_LEVEL+1)).

    The base-3 digits of a word, most significant first, are the address
    d_0..d_MAX_LEVEL of a site in F_{d_0} o F_{d_1} o ... (K); uniform words
    have i.i.d. uniform digits, so the site lies in each level-n cell,
    n <= MAX_LEVEL + 1, with its measure 3^-n.  Place words on a mesh with
    `GasketMesh.site_vertices`.
    """
    return rng.integers(0, 3 ** (MAX_LEVEL + 1), size=size)


def vertex_pairs(rng, n, k):
    """k pairs (a, b) of distinct vertices of n: a uniform, b uniform on the rest."""
    a, b = rng.integers(n, size=k), rng.integers(n - 1, size=k)
    b += b >= a
    return a, b


def quadrature(f, mesh):
    """Integrate vertex values against the measure: sum of cell means * 3^-m.

    Equivalent to the lumped-weight inner product; exact for functions
    affine on every cell.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != mesh.n_vertices:
        raise ContractError(
            f"expected {mesh.n_vertices} vertex values, got {f.shape[-1]}")
    return f @ mesh.mu_weights


def alpha_norm(f, alpha, mesh):
    """Quadrature alpha-norm (integral |f|^alpha dmu)^(1/alpha) of vertex
    values: the scale of the symmetric alpha-stable integral of f."""
    check_alpha(alpha)
    return float(quadrature(np.abs(f) ** alpha, mesh) ** (1.0 / alpha))


def ball_measure_estimate(x, r, mesh):
    """Quadrature estimate of mu(B(x, r)) via the closed-ball indicator.

    Requires the mesh to resolve the ball: r >= 2^-(m-2).
    """
    if not 0.0 < r <= 1.0:
        raise DomainError("radius must lie in (0, 1]")
    if r < 2.0 ** (2 - mesh.level):
        raise ResolutionError(
            f"radius {r} below resolution 2^-{mesh.level - 2} of level {mesh.level}")
    x = np.asarray(x, dtype=float)
    d = np.hypot(mesh.vertices[:, 0] - x[0], mesh.vertices[:, 1] - x[1])
    return float(mesh.mu_weights[d <= r + 1e-12].sum())
