import pytest

from gasketfields import geometry, spectral


@pytest.fixture(scope="session")
def mesh6():
    return geometry.build_mesh(6)


@pytest.fixture(scope="session")
def spec_n(mesh6):
    return spectral.build_spectrum(6, "neumann", j_max=200)


@pytest.fixture(scope="session")
def spec_d(mesh6):
    return spectral.build_spectrum(6, "dirichlet", j_max=200)


@pytest.fixture(scope="session")
def spec_n_full(mesh6):
    return spectral.build_spectrum(6, "neumann")


@pytest.fixture
def small_suites():
    """Every suite at the smallest sizes its guards take, as verify.run_suite
    overrides, semigroup last: its sparse solve alone loads
    scipy.sparse.linalg."""
    return {
        "ahlfors": {"level": 6},
        "spectral": {"level": 5},
        "kernel-bounds": {"level": 3, "j_terms": None},
        "kernel-holder": {"levels": (2, 3), "j_terms": None},
        "symmetry": {"level": 6, "n_seeds": 1},
        "scaling": {"level": 5, "n_seeds": 1},
        "stable-cf": {"n": 1000},
        "lepage-vs-direct": {"level": 5, "n": 500, "n_terms": 100},
        "field-marginals": {"level": 5, "n_seeds": 100},
        "holder-paths": {"level": 3, "n_reps": 1},
        "divergence": {"n_seeds": 1},
        "semigroup": {"level": 2, "j_terms": None},
    }
