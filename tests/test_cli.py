import csv
import functools
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gasketfields
from gasketfields import fields, geometry, riesz, spectral, stable
from gasketfields.cli import main


def _reference_csv(header, rows):
    """Reference bytes: `csv.writer` with one `writerow` per row, the rows
    built cell by cell with floats as `repr(float(...))`; no header line
    when `header` is None."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    if header is not None:
        w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue().encode()


@pytest.mark.parametrize("bc,s", [("neumann", 0.9), ("dirichlet", 0.5)])
def test_kernel_matrix_bytes_match_reference(tmp_path, bc, s):
    # s = 0.5 is below d_h/d_w: the diagonal is still written from the matrix
    out = tmp_path / "k"
    assert main(["kernel", "--level", "3", "--bc", bc, "--s", str(s),
                 "--out", str(out)]) == 0
    mesh = geometry.build_mesh(3)
    V = mesh.vertices
    G = riesz.KernelEvaluator(
        spectral.build_spectrum(3, bc, j_max=200), s).matrix()
    rows = ([a, b, repr(float(np.hypot(*(V[a] - V[b])))), repr(float(G[a, b]))]
            for a in range(mesh.n_vertices) for b in range(mesh.n_vertices))
    got = (tmp_path / "k_kernel.csv").read_bytes()
    assert got == _reference_csv(["xi", "yi", "d", "G"], rows)
    assert got.count(b"\r\n") == mesh.n_vertices ** 2 + 1


def test_kernel_pairs_bytes_match_reference(tmp_path):
    out = tmp_path / "k"
    assert main(["kernel", "--level", "3", "--s", "0.9", "--pairs", "20",
                 "--seed", "5", "--out", str(out)]) == 0
    mesh = geometry.build_mesh(3)
    ev = riesz.KernelEvaluator(spectral.build_spectrum(3, "neumann", j_max=200), 0.9)
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(20):
        a, b = rng.choice(mesh.n_vertices, 2, replace=False)
        d = float(np.hypot(*(mesh.vertices[a] - mesh.vertices[b])))
        rows.append([a, b, repr(d), repr(ev.value(a, b))])
    assert ((tmp_path / "k_kernel.csv").read_bytes()
            == _reference_csv(["xi", "yi", "d", "G"], rows))


@pytest.mark.parametrize("route", ["lepage", "direct"])
def test_stable_bytes_match_reference(tmp_path, route):
    out = tmp_path / "r"
    assert main(["stable", "--alpha", "1.5", "--n-terms", "500", "--route", route,
                 "--replicates", "50", "--seed", "3", "--level", "3",
                 "--out", str(out)]) == 0
    mesh = geometry.build_mesh(3)
    ones = np.ones(mesh.n_vertices)
    if route == "lepage":
        vals = stable.lepage_replicates(ones, mesh, 1.5, 500, 50, seed=3)
    else:
        vals = stable.direct_replicates(ones, mesh, 1.5, 50, seed=3)
    rows = ([k, repr(float(v))] for k, v in enumerate(vals))
    assert ((tmp_path / "r_replicates.csv").read_bytes()
            == _reference_csv(["replicate_id", "value"], rows))


def test_simulate_bytes_match_reference(tmp_path):
    out = tmp_path / "f"
    assert main(["simulate", "--alpha", "1.5", "--s", "0.9", "--level", "4",
                 "--n-terms", "2000", "--seed", "7", "--replicates", "2",
                 "--out", str(out)]) == 0
    mesh = geometry.build_mesh(4)
    spec = spectral.build_spectrum(4, "neumann", j_max=200)
    samples = fields.field_replicates(0.9, 1.5, "neumann", mesh, spec,
                                      range(7, 9), 2000, 200)
    rows = ([rep, vid, repr(float(x)), repr(float(y)), repr(float(v))]
            for rep, smp in enumerate(samples)
            for vid, ((x, y), v) in enumerate(zip(mesh.vertices, smp.values)))
    assert ((tmp_path / "f.csv").read_bytes()
            == _reference_csv(["replicate_id", "vertex_id", "x", "y", "value"], rows))


@pytest.mark.parametrize("level", [0, 3])
def test_mesh_bytes_match_reference(tmp_path, level):
    # level 0 has the empty cell address
    out = tmp_path / "m"
    assert main(["mesh", "--level", str(level), "--out", str(out)]) == 0
    mesh = geometry.build_mesh(level)
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[mesh.boundary] = True
    vertex_rows = ([k, repr(float(x)), repr(float(y)), int(on_boundary[k])]
                   for k, (x, y) in enumerate(mesh.vertices))
    cell_rows = (["".join(map(str, addr)), i, j, k] for addr, (i, j, k) in mesh.cells)
    assert ((tmp_path / "m_vertices.csv").read_bytes()
            == _reference_csv(["vertex_id", "x", "y", "is_boundary"], vertex_rows))
    assert ((tmp_path / "m_cells.csv").read_bytes()
            == _reference_csv(["cell_address", "v0", "v1", "v2"], cell_rows))


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_spectrum_bytes_match_reference(tmp_path, bc):
    out = tmp_path / "s"
    assert main(["spectrum", "--level", "3", "--bc", bc, "--jmax", "20",
                 "--out", str(out)]) == 0
    spec = spectral.build_spectrum(3, bc, j_max=20)
    value_rows = ([j, repr(float(lam))]
                  for j, lam in enumerate(spec.eigenvalues, start=1))
    assert ((tmp_path / "s_eigenvalues.csv").read_bytes()
            == _reference_csv(["j", "lambda_j"], value_rows))
    # the eigenvector matrix has no header: one row per vertex
    vectors = (tmp_path / "s_eigenvectors.csv").read_bytes()
    assert vectors == _reference_csv(
        None, ([repr(float(v)) for v in row] for row in spec.eigenvectors))
    assert np.array_equal(np.loadtxt(io.BytesIO(vectors), delimiter=",", ndmin=2),
                          spec.eigenvectors)


@pytest.mark.parametrize("argv,csv_names,headers", [
    (["mesh", "--level", "2"], ("x_vertices.csv", "x_cells.csv"), 2),
    (["spectrum", "--level", "2", "--jmax", "5"],
     ("x_eigenvalues.csv", "x_eigenvectors.csv"), 1),
])
def test_two_file_meta_describes_csvs(tmp_path, argv, csv_names, headers):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 0
    meta = json.loads((tmp_path / "x_meta.json").read_text())
    data = [(tmp_path / name).read_bytes() for name in csv_names]
    assert meta["rows"] == sum(d.count(b"\r\n") for d in data) - headers
    assert meta["bytes"] == sum(len(d) for d in data)
    assert set(meta["timings"]) == {"compute_s", "write_s"}
    assert all(t >= 0.0 for t in meta["timings"].values())


@pytest.mark.parametrize("argv,csv_name", [
    (["kernel", "--level", "2", "--s", "0.9"], "x_kernel.csv"),
    (["kernel", "--level", "2", "--s", "0.9", "--pairs", "7"], "x_kernel.csv"),
    (["stable", "--alpha", "1.5", "--n-terms", "100", "--replicates", "9",
      "--level", "2"], "x_replicates.csv"),
    (["simulate", "--alpha", "1.5", "--s", "0.9", "--level", "2",
      "--n-terms", "100", "--replicates", "3"], "x.csv"),
])
def test_export_meta_describes_csv(tmp_path, argv, csv_name):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 0
    meta = json.loads((tmp_path / "x_meta.json").read_text())
    data = (tmp_path / csv_name).read_bytes()
    assert meta["rows"] == data.count(b"\r\n") - 1
    assert meta["bytes"] == len(data)
    assert set(meta["timings"]) == {"compute_s", "write_s"}
    assert all(t >= 0.0 for t in meta["timings"].values())


def test_kernel_meta_tail_bound_counts_dropped_modes(tmp_path):
    # --jmax 20 keeps 20-odd of the 122 level-4 modes; the rest are the tail
    out = tmp_path / "k"
    assert main(["kernel", "--level", "4", "--s", "0.9", "--jmax", "20",
                 "--pairs", "3", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "k_meta.json").read_text())
    assert meta["j_terms"] < 122
    assert meta["tail_bound"] > 0.0


def test_spectrum_capacity_error_exit_two(tmp_path, monkeypatch, capsys):
    # a fresh cache, so a spectrum solved by an earlier test cannot answer
    monkeypatch.setattr(spectral, "_full_spectrum", functools.lru_cache(maxsize=8)(
        spectral._full_spectrum.__wrapped__))
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 1000)
    assert main(["spectrum", "--level", "4", "--out", str(tmp_path / "s")]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "s_eigenvalues.csv").exists()


def test_mesh_export(tmp_path):
    out = tmp_path / "m"
    assert main(["mesh", "--level", "2", "--out", str(out)]) == 0
    lines = (tmp_path / "m_vertices.csv").read_text().strip().splitlines()
    assert len(lines) == 15 + 1
    meta = json.loads((tmp_path / "m_meta.json").read_text())
    assert meta["config"]["level"] == 2
    assert "version" in meta["config"]


def test_spectrum_export(tmp_path):
    out = tmp_path / "s"
    assert main(["spectrum", "--level", "3", "--bc", "dirichlet",
                 "--jmax", "10", "--out", str(out)]) == 0
    lines = (tmp_path / "s_eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "j,lambda_j"
    assert len(lines) >= 11


def test_kernel_pairs_export(tmp_path):
    out = tmp_path / "k"
    assert main(["kernel", "--level", "3", "--s", "0.9", "--pairs", "20",
                 "--out", str(out)]) == 0
    lines = (tmp_path / "k_kernel.csv").read_text().strip().splitlines()
    assert lines[0] == "xi,yi,d,G"
    assert len(lines) == 21


def test_stable_replicates(tmp_path):
    out = tmp_path / "r"
    assert main(["stable", "--alpha", "1.5", "--n-terms", "500",
                 "--replicates", "50", "--seed", "3", "--level", "3",
                 "--out", str(out)]) == 0
    lines = (tmp_path / "r_replicates.csv").read_text().strip().splitlines()
    assert lines[0] == "replicate_id,value"
    assert len(lines) == 51
    meta = json.loads((tmp_path / "r_meta.json").read_text())
    assert meta["tail_estimate"] > 0


def test_stable_direct_route(tmp_path):
    out = tmp_path / "d"
    assert main(["stable", "--alpha", "1.9", "--route", "direct",
                 "--replicates", "30", "--seed", "4", "--level", "3",
                 "--out", str(out)]) == 0
    lines = (tmp_path / "d_replicates.csv").read_text().strip().splitlines()
    assert len(lines) == 31


def test_simulate_reproducible(tmp_path):
    args = ["simulate", "--alpha", "1.5", "--s", "0.9", "--bc", "dirichlet",
            "--level", "4", "--n-terms", "2000", "--seed", "7",
            "--replicates", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    meta = json.loads((tmp_path / "a_meta.json").read_text())
    assert meta["config"]["seed"] == 7
    assert meta["realizations"][0]["bc"] == "dirichlet"


def test_simulate_threshold_usage_error(tmp_path, capsys):
    code = main(["simulate", "--alpha", "1.5", "--s", "0.2",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "threshold" in capsys.readouterr().err


def test_verify_semigroup_exit_zero(tmp_path):
    code = main(["verify", "--suite", "semigroup", "--level", "6",
                 "--jmax", "200", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "semigroup.json").read_text())
    assert report["passed"]
    conv = [c for c in report["checks"] if c["name"].startswith("conv_residual")]
    assert conv and all(c["value"] <= 1e-3 for c in conv)


def test_verify_has_no_seed(tmp_path):
    # each suite fixes its own seeds and records them in its params
    assert main(["verify", "--suite", "stable-cf", "--seed", "1",
                 "--out", str(tmp_path)]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}))
    assert main(["--config", str(cfg), "verify", "--suite", "stable-cf",
                 "--out", str(tmp_path)]) in (0, 1)
    report = json.loads((tmp_path / "stable-cf.json").read_text())
    assert "seed" not in report["config"]
    assert report["params"]["seed"] == 11


def test_verify_unknown_suite(tmp_path):
    assert main(["verify", "--suite", "nope", "--out", str(tmp_path)]) == 2


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 2}))
    out = tmp_path / "m"
    assert main(["--config", str(cfg), "mesh", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "m_meta.json").read_text())
    assert meta["config"]["level"] == 2
    # explicit flag wins over the config file
    out2 = tmp_path / "n"
    assert main(["--config", str(cfg), "mesh", "--level", "1",
                 "--out", str(out2)]) == 0
    meta2 = json.loads((tmp_path / "n_meta.json").read_text())
    assert meta2["config"]["level"] == 1


def test_missing_required_flag(tmp_path):
    assert main(["kernel", "--level", "3", "--out", str(tmp_path / "k")]) == 2


def test_threads_flag(tmp_path):
    out = tmp_path / "t"
    assert main(["--threads", "1", "mesh", "--level", "1", "--out", str(out)]) == 0


def test_threads_flag_sets_blas_before_numpy_loads(tmp_path):
    # the package import must not load numpy, so the flag can still cap BLAS
    code = (
        "import os, sys\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '7'\n"
        "import gasketfields\n"
        "assert 'numpy' not in sys.modules, 'package import loaded numpy'\n"
        "from gasketfields.cli import main\n"
        "assert 'numpy' not in sys.modules, 'cli import loaded numpy'\n"
        f"assert main(['--threads', '1', 'mesh', '--level', '1', '--out', {str(tmp_path / 'm')!r}]) == 0\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(gasketfields.__file__)),
         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
