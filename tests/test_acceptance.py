"""Acceptance gate: one test per criterion, at the declared tolerances.

Defaults everywhere: level m = 6, spectral truncation 200 in the suites
that take `j_terms`, and LePage truncation N = 1e4 in `lepage-vs-direct`,
the one suite with a LePage series, whose sums are tested against their
exact stable laws; deviations are stated in the suite parameters.  Each
test prints one pass/fail line; run with `pytest -v -s tests/test_acceptance.py`.
"""

import json

import pytest

from gasketfields import verify
from gasketfields.cli import main as cli_main

_cache = {}


def _suite(name, **kw):
    key = (name, tuple(sorted(kw.items())))
    if key not in _cache:
        _cache[key] = verify.run_suite(name, **kw)
    return _cache[key]


def _emit(num, label, passed):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed


def _checks(report, prefix):
    out = [c for c in report["checks"] if c["name"].startswith(prefix)]
    assert out, f"no checks match {prefix!r}"
    return out


def test_criterion_1_geometry_measure():
    rep = _suite("ahlfors")
    _emit(1, "Ahlfors slope and ball-measure bounds", rep["passed"])


def test_criterion_2_spectral():
    rep = _suite("spectral")
    names = ("neumann_mass", "dirichlet_corner", "eigenvalue_slope")
    ok = all(c["passed"] for p in names for c in _checks(rep, p))
    _emit(2, "heat-kernel mass, Dirichlet vanishing, eigenvalue growth", ok)


def test_criterion_3_riesz_identities():
    semi = _suite("semigroup")
    sym = _suite("symmetry")
    scal = _suite("scaling")
    ok = (all(c["passed"] for c in _checks(semi, "conv_residual"))
          and all(c["passed"] for c in _checks(semi, "spectral_vs_kernel"))
          and all(c["passed"] for c in _checks(sym, "kernel_reflection"))
          and all(c["passed"] for c in _checks(scal, "subcell_kernel_identity")))
    _emit(3, "semigroup, route agreement, reflection, subcell scaling", ok)


def test_criterion_4_kernel_asymptotics():
    bounds = _suite("kernel-bounds")
    holder = _suite("kernel-holder")
    _emit(4, "kernel exponents, critical log law, Hoelder ratios",
          bounds["passed"] and holder["passed"])


def test_criterion_5_stable_machinery():
    cf = _suite("stable-cf")
    routes = _suite("lepage-vs-direct")
    _emit(5, "stable CF, d_alpha oracle, LePage sums against their exact laws",
          cf["passed"] and routes["passed"])


def test_criterion_6_fields():
    rep = _suite("field-marginals")
    _emit(6, "field constraints, stable marginals, duality", rep["passed"])


def test_criterion_7_invariance_laws():
    sym = _suite("symmetry")
    scal = _suite("scaling")
    ok = (all(c["passed"] for c in _checks(sym, "fdd_"))
          and all(c["passed"] for c in _checks(scal, "fdd_scaling")))
    _emit(7, "reflection and 2^(nH)-scaling fdd tests", ok)


def test_criterion_8_path_regularity():
    paths = _suite("holder-paths")
    div = _suite("divergence")
    _emit(8, "Hoelder exponents and divergence diagnostic",
          paths["passed"] and div["passed"])


def test_criterion_9_reproducibility(tmp_path):
    args = ["simulate", "--alpha", "1.5", "--s", "0.9", "--bc", "dirichlet",
            "--level", "6", "--seed", "7", "--replicates", "1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    _emit(9, "byte-identical simulation CSVs for equal seeds", same)


@pytest.fixture(scope="session", autouse=True)
def _summary():
    yield
    if _cache:
        total = sum(1 for r in _cache.values() if r["passed"])
        print(f"\nacceptance suites passed: {total}/{len(_cache)}")
