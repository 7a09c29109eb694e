import csv
import functools
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import gasketfields
from gasketfields import cli, errors, fields, geometry, riesz, shards, spectral, stable, verify
from gasketfields.cli import main
from gasketfields.errors import ResolutionError


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
    # s = 0.5 is below d_h/d_w: the diagonal is still written from the matrix;
    # the CLI reads 64-row blocks (level 5 has six, and sigma_2 mirrors up to
    # 32 rows apart cross their edges) and writes a row whose mirror came
    # earlier in its block from the mirror's strings, the reference formats
    # the whole dense matrix
    for level in (3, 4, 5):
        out = tmp_path / f"k{level}"
        assert main(["kernel", "--level", str(level), "--bc", bc, "--s", str(s),
                     "--out", str(out)]) == 0
        mesh = geometry.build_mesh(level)
        V = mesh.vertices
        G = riesz.KernelEvaluator(
            spectral.build_spectrum(level, bc, j_max=200), s).matrix()
        rows = ([a, b, repr(float(np.hypot(*(V[a] - V[b])))), repr(float(G[a, b]))]
                for a in range(mesh.n_vertices) for b in range(mesh.n_vertices))
        got = (tmp_path / f"k{level}_kernel.csv").read_bytes()
        assert got == _reference_csv(["xi", "yi", "d", "G"], rows)
        assert got.count(b"\r\n") == mesh.n_vertices ** 2 + 1


def test_kernel_pairs_bytes_match_reference(tmp_path):
    out = tmp_path / "k"
    assert main(["kernel", "--level", "3", "--s", "0.9", "--pairs", "20",
                 "--seed", "5", "--out", str(out)]) == 0
    mesh = geometry.build_mesh(3)
    ev = riesz.KernelEvaluator(spectral.build_spectrum(3, "neumann", j_max=200), 0.9)
    # the first vertex uniform on V_3, the second on the others
    rng = np.random.default_rng(5)
    a = rng.integers(mesh.n_vertices, size=20)
    other = rng.integers(mesh.n_vertices - 1, size=20)
    b = np.where(other < a, other, other + 1)
    g = ev.value(a, b)
    # the pairs' index-array read is the per-pair sum up to roundoff
    single = np.array([ev.value(x, y) for x, y in zip(a, b)])
    assert np.max(np.abs(g - single)) <= 1e-14 * np.max(np.abs(single))
    rows = [[x, y, repr(float(np.hypot(*(mesh.vertices[x] - mesh.vertices[y])))),
             repr(float(v))] for x, y, v in zip(a, b, g)]
    got = (tmp_path / "k_kernel.csv").read_bytes()
    # floats are plain reprs, never numpy scalar reprs such as np.float64(...)
    assert b"np.float64(" not in got and b"float" not in got
    assert got == _reference_csv(["xi", "yi", "d", "G"], rows)


def test_kernel_pairs_are_distinct_and_cover_every_ordered_pair(tmp_path):
    # level 1 has 6 vertices, so 30 ordered pairs of distinct ones
    assert main(["kernel", "--level", "1", "--s", "0.9", "--pairs", "1000",
                 "--seed", "3", "--out", str(tmp_path / "k")]) == 0
    rows = (tmp_path / "k_kernel.csv").read_text().splitlines()[1:]
    pairs = [tuple(map(int, row.split(",")[:2])) for row in rows]
    assert len(pairs) == 1000
    assert all(a != b for a, b in pairs)
    assert set(pairs) == set(itertools.permutations(range(6), 2))


def test_kernel_dump_writes_mirror_rows_from_their_twins(tmp_path, monkeypatch):
    # a row whose sigma_2 mirror comes earlier in its 64-row block is written
    # from the mirror's strings, every other row is formatted: 197 of the 366
    # rows at level 5, where 169 mirrors share a block and 11 do not; each
    # distance is formatted once, whatever its rows
    calls = []

    def counted(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(cli, "repr", counted, raising=False)
    assert main(["kernel", "--level", "5", "--s", "0.9", "--out", str(tmp_path / "k")]) == 0
    mesh = geometry.build_mesh(5)
    n = mesh.n_vertices
    sigma = geometry.reflection_permutation(mesh, 2)
    rows = np.arange(n)
    formatted = n - int(np.count_nonzero((sigma < rows) & (sigma // 64 == rows // 64)))
    V = mesh.vertices
    distances = np.unique(np.hypot(V[:, None, 0] - V[:, 0], V[:, None, 1] - V[:, 1]))
    assert formatted == 197
    assert n * formatted <= len(calls) <= n * formatted + len(distances)


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
                 "--seed", "7", "--replicates", "2", "--out", str(out)]) == 0
    mesh = geometry.build_mesh(4)
    spec = spectral.build_spectrum(4, "neumann", j_max=200)
    batch = fields.simulate_field(0.9, 1.5, spec, range(7, 9))
    rows = ([rep, vid, repr(float(x)), repr(float(y)), repr(float(v))]
            for rep, row in enumerate(batch.values)
            for vid, ((x, y), v) in enumerate(zip(mesh.vertices, row)))
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
    # cells in lexicographic address order
    addresses = itertools.product(range(3), repeat=level)
    cell_rows = (["".join(map(str, addr)), i, j, k]
                 for addr, (i, j, k) in zip(addresses, mesh.corner_table.reshape(-1, 3)))
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
        None, ([repr(float(v)) for v in row] for row in spec.eigenvectors()))
    assert np.array_equal(np.loadtxt(io.BytesIO(vectors), delimiter=",", ndmin=2),
                          spec.eigenvectors())


def _sharded_exports(tmp_path, monkeypatch, argv, names):
    """Run `argv` with 1, 2 and 3 shards, forced through --threads and a
    three-CPU affinity; return each run's meta and sha256 digests of the
    CSVs `names`; one 64-row block is enough for a shard."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(cli, "MIN_ROWS_PER_SHARD", 64)
    # main writes the BLAS variables; numpy is loaded, so they only need
    # restoring for later subprocesses
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    runs = []
    for shards in (1, 2, 3):
        out = tmp_path / f"x{shards}"
        assert main(["--threads", str(shards), *argv, "--out", str(out)]) == 0
        meta = json.loads((tmp_path / f"x{shards}_meta.json").read_text())
        digests = [hashlib.sha256((tmp_path / f"x{shards}_{name}").read_bytes()).hexdigest()
                   for name in names]
        runs.append((meta, digests))
    assert not list(tmp_path.glob("*.part*"))
    return runs


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_kernel_bytes_do_not_depend_on_shards(tmp_path, monkeypatch, bc):
    # the CSV shards are cut at the row blocks of `row_blocks`, whatever
    # their size: level 5 has 366 rows, six 64-row or twelve 32-row blocks,
    # so 2 shards cut at row 192, 3 at rows 128 and 256; each cut falls
    # inside a horizontal line, so some rows have their sigma_2 mirror in
    # the next shard and are formatted directly on both sides
    sigma = geometry.reflection_permutation(geometry.build_mesh(5), 2)
    for cut in (128, 192, 256):
        assert np.any(sigma[:cut] >= cut)
    for block in (spectral.ROW_BLOCK, spectral.ROW_BLOCK // 2):
        monkeypatch.setattr(spectral, "ROW_BLOCK", block)
        root = tmp_path / f"block{block}"
        root.mkdir()
        runs = _sharded_exports(root, monkeypatch,
                                ["kernel", "--level", "5", "--bc", bc, "--s", "0.9"],
                                ["kernel.csv"])
        assert [meta["shards"] for meta, _ in runs] == [1, 2, 3]
        assert runs[0][0]["peak_rss_shards_mb"] == 0.0
        assert all(meta["peak_rss_shards_mb"] > 0.0 for meta, _ in runs[1:])
        assert len({meta["rows"] for meta, _ in runs}) == 1
        assert len({meta["bytes"] for meta, _ in runs}) == 1
        assert runs[0][1] == runs[1][1] == runs[2][1]


def test_kernel_pairs_bytes_do_not_depend_on_shards(tmp_path, monkeypatch):
    # 5000 pairs, read in one call, cross the cuts of reads of 1024 pairs
    # each, and give the same values as those reads
    runs = _sharded_exports(tmp_path, monkeypatch,
                            ["kernel", "--level", "5", "--s", "0.9", "--pairs", "5000"],
                            ["kernel.csv"])
    assert runs[0][1] == runs[1][1] == runs[2][1]
    rows = (tmp_path / "x1_kernel.csv").read_text().splitlines()[1:]
    a, b = np.array([row.split(",")[:2] for row in rows], dtype=int).T
    ev = riesz.KernelEvaluator(spectral.build_spectrum(5, "neumann", j_max=200), 0.9)
    chunked = np.concatenate([ev.value(a[i:i + 1024], b[i:i + 1024])
                              for i in range(0, len(a), 1024)])
    assert [row.rsplit(",", 1)[1] for row in rows] == list(map(repr, chunked.tolist()))


def test_spectrum_bytes_do_not_depend_on_shards(tmp_path, monkeypatch):
    # level 6 has 1095 vertex rows, five 256-row blocks
    runs = _sharded_exports(tmp_path, monkeypatch, ["spectrum", "--level", "6"],
                            ["eigenvalues.csv", "eigenvectors.csv"])
    assert [meta["shards"] for meta, _ in runs] == [1, 2, 3]
    assert len({meta["rows"] for meta, _ in runs}) == 1
    assert runs[0][1] == runs[1][1] == runs[2][1]


@pytest.mark.parametrize("in_child", [True, False])
def test_failed_shard_leaves_no_child_and_no_part(tmp_path, monkeypatch, capfd, in_child):
    # the forked shard starts past row 0, this process's shard at row 0; a
    # failure in this process leaves the forked shard running until killed
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "MIN_ROWS_PER_SHARD", 64)
    row_blocks = riesz.KernelEvaluator.row_blocks

    def failing(self, rows=slice(None), cols=slice(None)):
        if bool(rows.start) == in_child:
            raise RuntimeError("shard formatter failed")
        return row_blocks(self, rows, cols)

    monkeypatch.setattr(riesz.KernelEvaluator, "row_blocks", failing)
    argv = ["kernel", "--level", "5", "--s", "0.9", "--out", str(tmp_path / "k")]
    if in_child:
        with pytest.raises(ChildProcessError, match=r"shard 1 of 2 .* exit status 1"):
            main(argv)
        assert "RuntimeError: shard formatter failed" in capfd.readouterr().err
    else:
        with pytest.raises(RuntimeError, match="shard formatter failed"):
            main(argv)
    assert not list(tmp_path.glob("*.part*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_kernel_bytes_do_not_depend_on_threads(tmp_path):
    # two BLAS threads inherited: from level 6 on, the BLAS thread count
    # moves the last digits of the eigensolve, so the full dump is the same
    # under --threads 1, --threads 2 and no flag only if every command runs
    # BLAS on one thread; the two shards of --threads 2 fork with no warning
    # (Python 3.12+ warns on a fork in a multi-threaded process, which -W
    # error would turn into a failure)
    env = _package_env()
    env["OPENBLAS_NUM_THREADS"] = "2"
    digests = set()
    for name, threads in (("one", ["--threads", "1"]), ("two", ["--threads", "2"]),
                          ("none", [])):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gasketfields", *threads, "kernel",
             "--level", "6", "--s", "0.9", "--out", str(tmp_path / name)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        csv = tmp_path / f"{name}_kernel.csv"
        digests.add(hashlib.sha256(csv.read_bytes()).hexdigest())
        csv.unlink()
    meta = json.loads((tmp_path / "two_meta.json").read_text())
    assert meta["shards"] == min(2, len(os.sched_getaffinity(0)))
    assert len(digests) == 1


@pytest.mark.parametrize("argv,csv_name", [
    (["simulate", "--level", "6", "--s", "0.9", "--alpha", "1.5"], "x{}.csv"),
    (["stable", "--level", "5", "--alpha", "1.5"], "x{}_replicates.csv"),
])
def test_threads_cap_the_draw_shards(tmp_path, monkeypatch, argv, csv_name):
    # 200 draws (of 2187 cells each for a field) make two shards on two
    # CPUs: --threads 1 forks nothing, and --threads 2 writes the same
    # bytes; the meta counts the draw shards
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for threads in (1, 2):
        assert main(["--threads", str(threads), *argv, "--replicates", "200",
                     "--out", str(tmp_path / f"x{threads}")]) == 0
        meta = json.loads((tmp_path / f"x{threads}_meta.json").read_text())
        assert meta["shards"] == threads == len(forks) + 1
        assert (meta["peak_rss_shards_mb"] > 0.0) == (threads > 1)
    assert ((tmp_path / csv_name.format(1)).read_bytes()
            == (tmp_path / csv_name.format(2)).read_bytes())


def test_sharded_lepage_route_forks_cleanly_beside_blas_threads():
    # the draw shards call BLAS after a fork beside a two-thread pool, which
    # a library call keeps (the CLI runs BLAS on one thread)
    env = _package_env()
    env["OPENBLAS_NUM_THREADS"] = "2"
    code = (
        "import os\n"
        "import numpy as np\n"
        "from gasketfields import geometry, shards, stable\n"
        "mesh = geometry.build_mesh(6)\n"
        "draws = []\n"
        "for cap in (2, 1):\n"
        "    with shards.limit(cap) as tally:\n"
        "        draws.append(stable.lepage_replicates(\n"
        "            np.ones(mesh.n_vertices), mesh, 1.5, 10_000, 200, seed=0))\n"
        "    assert tally.shards == min(cap, len(os.sched_getaffinity(0))), tally\n"
        "assert np.array_equal(*draws)\n"
    )
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_verify_report_has_no_shard_field(tmp_path):
    # a report must not depend on the machine's CPU count
    assert main(["--threads", "2", "verify", "--suite", "ahlfors", "--level", "6",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ahlfors.json").read_text())
    assert set(report) == {"suite", "params", "checks", "passed", "config"}
    assert set(report["config"]) == {"command", "suite", "level", "out", "version"}


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
    assert meta["peak_rss_mb"] > 0.0
    # one block each, so one process formats every file
    assert (meta["shards"], meta["peak_rss_shards_mb"]) == (1, 0.0)


@pytest.mark.parametrize("argv,csv_name", [
    (["kernel", "--level", "2", "--s", "0.9"], "x_kernel.csv"),
    (["kernel", "--level", "2", "--s", "0.9", "--pairs", "7"], "x_kernel.csv"),
    (["stable", "--alpha", "1.5", "--n-terms", "100", "--replicates", "9",
      "--level", "2"], "x_replicates.csv"),
    (["simulate", "--alpha", "1.5", "--s", "0.9", "--level", "2",
      "--replicates", "3"], "x.csv"),
])
def test_export_meta_describes_csv(tmp_path, argv, csv_name):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 0
    meta = json.loads((tmp_path / "x_meta.json").read_text())
    data = (tmp_path / csv_name).read_bytes()
    assert meta["rows"] == data.count(b"\r\n") - 1
    assert meta["bytes"] == len(data)
    assert set(meta["timings"]) == {"compute_s", "write_s"}
    assert all(t >= 0.0 for t in meta["timings"].values())
    assert meta["peak_rss_mb"] > 0.0
    # one block each, so one process formats every file
    assert (meta["shards"], meta["peak_rss_shards_mb"]) == (1, 0.0)


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
    monkeypatch.setattr(errors, "_physical_memory", lambda: 1000)
    assert main(["spectrum", "--level", "4", "--out", str(tmp_path / "s")]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "s_eigenvalues.csv").exists()


def test_simulate_capacity_error_exit_two(tmp_path, monkeypatch, capsys):
    # the level-3 spectrum fits under the probe, the 10^5-seed batch
    # (8 x 10^5 x 196 bytes) does not: the field refuses before it maps its noise
    monkeypatch.setattr(errors, "_physical_memory", lambda: 10 ** 8)
    monkeypatch.setattr(shards, "shared_array", None)
    assert main(["simulate", "--level", "3", "--s", "0.9", "--alpha", "1.5",
                 "--replicates", "100000", "--out", str(tmp_path / "f")]) == 2
    err = capsys.readouterr().err
    assert "level 3: a field batch of 100000 seeds" in err
    assert "needs about 0.16 GB" in err and "the 0.10 GB of physical memory" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("alpha,n_terms", [("0.3", "1"), ("0.5", "3")])
def test_diverging_lepage_tail_exit_two(tmp_path, capsys, alpha, n_terms):
    # N + 1 <= 2/alpha: the tail sum over n > N is infinite, and no
    # `tail_estimate` is written, neither a wrong finite one nor Infinity
    assert main(["stable", "--alpha", alpha, "--n-terms", n_terms, "--level", "2",
                 "--replicates", "3", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"diverges at alpha {alpha}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_export_makes_the_out_directory(tmp_path):
    out = tmp_path / "missing" / "x"
    assert main(["stable", "--alpha", "0.5", "--n-terms", "4", "--level", "2",
                 "--replicates", "3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == ["x_meta.json",
                                                            "x_replicates.csv"]


@pytest.mark.parametrize("argv", [
    ["kernel", "--s", "0.9", "--pairs", "1000000000000"],
    ["stable", "--alpha", "1.5", "--n-terms", "1000000000000"],
    ["stable", "--route", "direct", "--alpha", "1.5", "--replicates", "1000000000000"],
    ["stable", "--alpha", "1.5", "--replicates", "1000000000000"],
], ids=["kernel-pairs", "lepage-n-terms", "direct-replicates", "lepage-replicates"])
def test_allocation_sized_by_a_flag_exit_two(tmp_path, argv):
    # 10^12 pairs, terms or replicates need terabytes: numpy's MemoryError
    # and the LePage replicate set's capacity check both exit 2.  The child
    # runs under a 4 GiB address-space limit, so an allocation fails whatever
    # the machine's overcommit policy
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    r = subprocess.run([sys.executable, "-m", "gasketfields", *argv, "--level", "2",
                        "--out", str(tmp_path / "x")], capture_output=True, text=True,
                       preexec_fn=limit, timeout=300, env=_package_env())
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("usage error: ") and "Traceback" not in r.stderr
    assert list(tmp_path.iterdir()) == []


def test_spectrum_level0_dirichlet_exit_two(tmp_path, capsys):
    # V_0 is the whole level-0 mesh, so the Dirichlet form has no rows
    out = tmp_path / "s"
    assert main(["spectrum", "--level", "0", "--bc", "dirichlet",
                 "--out", str(out)]) == 2
    assert "no interior vertex" in capsys.readouterr().err
    assert not (tmp_path / "s_eigenvalues.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv,key,value", [
    (["stable", "--alpha", "1.5"], "n_terms", 0),
    (["stable", "--alpha", "1.5"], "n_terms", -5),
    (["stable", "--alpha", "1.5"], "replicates", -2),
    (["stable", "--alpha", "1.5", "--route", "direct"], "replicates", -2),
    (["simulate", "--alpha", "1.5", "--s", "0.9"], "replicates", -2),
    (["kernel", "--s", "0.9"], "pairs", 0),
    (["kernel", "--s", "0.9"], "pairs", -3),
], ids=["stable-n_terms-0", "stable-n_terms-neg", "stable-replicates-neg",
        "direct-replicates-neg", "simulate-replicates-neg",
        "kernel-pairs-0", "kernel-pairs-neg"])
def test_count_below_one_exit_two(tmp_path, capsys, argv, key, value, source):
    # a count below 1 is refused before any output, also from a config file,
    # which argparse does not see
    flag = "--" + key.replace("_", "-")
    if source == "flag":
        args = argv + [flag, str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        args = ["--config", str(cfg)] + argv
    assert main(args + ["--level", "2", "--out", str(tmp_path / "x")]) == 2
    assert f"{flag} must be an integer >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--alpha", "1.5", "--s", "0.9"],
    ["stable", "--alpha", "1.5", "--replicates", "5"],
    ["stable", "--alpha", "1.5", "--replicates", "5", "--route", "direct"],
    ["kernel", "--s", "0.9", "--pairs", "5"],
], ids=["simulate", "stable", "direct", "kernel"])
def test_seed_below_zero_exit_two(tmp_path, capsys, argv, source):
    # a negative seed is refused by the parser, as `np.random.SeedSequence`
    # would refuse it after the work
    if source == "flag":
        args = argv + ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        args = ["--config", str(cfg)] + argv
    assert main(args + ["--level", "3", "--out", str(tmp_path / "x")]) == 2
    assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--alpha", "0", "--s", "0.9"], "alpha 0.0 outside (0, 2]"),
    (["simulate", "--alpha", "-1", "--s", "0.9"], "alpha -1.0 outside (0, 2]"),
    (["stable", "--route", "direct", "--alpha", "0"], "alpha 0.0 outside (0, 2]"),
    (["stable", "--alpha", "2"], "alpha 2.0 outside (0, 2)"),
    (["simulate", "--alpha", "1.5", "--s", "nan"], "positive and finite, got nan"),
    (["simulate", "--alpha", "1.5", "--s", "inf"], "positive and finite, got inf"),
    (["kernel", "--s", "nan"], "positive and finite, got nan"),
    (["kernel", "--s", "inf", "--pairs", "5"], "positive and finite, got inf"),
    (["kernel", "--s", "-1"], "positive and finite, got -1.0"),
], ids=["simulate-alpha-0", "simulate-alpha-neg", "direct-alpha-0", "lepage-alpha-2",
        "simulate-s-nan", "simulate-s-inf", "kernel-s-nan", "kernel-s-inf", "kernel-s-neg"])
def test_bad_alpha_or_order_exit_two(tmp_path, monkeypatch, capsys, argv, message):
    # alpha outside (0, 2] and an order s that is not finite are domain
    # errors, not a ZeroDivisionError or a CSV of NaN, and they are refused
    # before any spectrum is solved: a fresh cache, so a spectrum solved by
    # an earlier test cannot answer, and a solve that fails the test
    monkeypatch.setattr(spectral, "_full_spectrum", functools.lru_cache(maxsize=8)(
        spectral._full_spectrum.__wrapped__))

    def solve(form):
        pytest.fail("a spectrum was solved before the flags were checked")

    monkeypatch.setattr(spectral, "solve_spectrum", solve)
    assert main(argv + ["--level", "3", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(tmp_path.glob("x*"))


def test_simulate_refuses_n_terms(tmp_path, capsys):
    # a field's noise has no LePage truncation, so the flag is unknown to
    # `simulate`, while a config file's entry is ignored as any other
    # command's key is
    argv = ["simulate", "--alpha", "1.5", "--s", "0.9", "--level", "2"]
    assert main(argv + ["--n-terms", "100", "--out", str(tmp_path / "x")]) == 2
    assert "unrecognized arguments: --n-terms" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))
    assert (_run_in(tmp_path / "config", argv, {"n_terms": 100})
            == _run_in(tmp_path / "plain", argv))


def test_threads_below_one_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 0}))
    for top in (["--threads", "0"], ["--threads", "-1"], ["--config", str(cfg)]):
        assert main(top + ["mesh", "--level", "1", "--out", str(tmp_path / "x")]) == 2
        assert "--threads must be an integer >= 1" in capsys.readouterr().err
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
    assert not list(tmp_path.glob("x*"))


def _run_in(directory, argv, config=None):
    """(exit code, {file name: bytes}, meta config without `out`) of one
    run writing into its own new directory, with `config` as the file."""
    directory.mkdir()
    if config is not None:
        path = directory.parent / f"{directory.name}.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path)] + argv
    code = main(argv + ["--out", str(directory / "x")])
    files = {p.name: p.read_bytes() for p in directory.iterdir()}
    meta = json.loads(files.pop("x_meta.json", b"null"))
    if meta is not None:
        meta = meta["config"]
        assert meta.pop("out") == str(directory / "x")
    return code, files, meta


_STABLE = ["stable", "--alpha", "1.5", "--level", "2"]

# each typed flag: a command line without it, config values it takes, and
# values it refuses (wrong type, outside the choices, below range)
_CONFIG_CASES = {
    "level": (["mesh"], [2, "3"], [2.5, True, "two", -1]),
    "bc": (["spectrum", "--level", "2"], ["dirichlet"], ["robin", 1, True]),
    "s": (["kernel", "--level", "2", "--pairs", "5"], [0.7, "0.8"], ["x", True, -0.5]),
    "alpha": (["stable", "--level", "2", "--n-terms", "100", "--replicates", "5"],
              [1.2], ["x", True, 2.5]),
    "jmax": (["spectrum", "--level", "2"], [5], [2.5, True, "five"]),
    "n_terms": (_STABLE + ["--replicates", "5"], [50], [0, 2.5, True]),
    "seed": (_STABLE + ["--n-terms", "100", "--replicates", "5"], [9], [1.5, True, "x"]),
    "replicates": (_STABLE + ["--n-terms", "100"], [4], [0, "many", 2.5]),
    "pairs": (["kernel", "--level", "2", "--s", "0.9"], [4], [0, True, 1.5]),
    "route": (_STABLE + ["--n-terms", "100", "--replicates", "5"], ["direct"],
              ["foo", 1, True]),
}


@pytest.mark.parametrize("key", list(_CONFIG_CASES))
def test_config_value_parsed_as_flag(tmp_path, capsys, key):
    # a config entry is parsed as the flag's text: a value the flag takes
    # writes the flag's bytes (so {"route": "direct"} runs the direct route),
    # one it refuses exits 2 before any output
    argv, valid, refused = _CONFIG_CASES[key]
    flag = "--" + key.replace("_", "-")
    unset = _run_in(tmp_path / "unset", argv)
    # null is unset
    assert _run_in(tmp_path / "null", argv, {key: None}) == unset
    for k, value in enumerate(valid):
        by_flag = _run_in(tmp_path / f"flag{k}", argv + [flag, str(value)])
        by_config = _run_in(tmp_path / f"config{k}", argv, {key: value})
        assert by_flag[0] == 0
        assert by_config == by_flag
        assert by_config != unset
    capsys.readouterr()
    for k, value in enumerate(refused):
        assert _run_in(tmp_path / f"bad{k}", argv, {key: value}) == (2, {}, None)
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err


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
            "--level", "4", "--seed", "7", "--replicates", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    meta = json.loads((tmp_path / "a_meta.json").read_text())
    assert meta["config"]["seed"] == 7
    assert meta["realizations"]["bc"] == "dirichlet"
    assert meta["realizations"]["seeds"] == [7, 8]
    assert len(meta["realizations"]["mesh_sup"]) == 2


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
    assert (report["config"]["level"], report["config"]["jmax"]) == (6, 200)
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


def test_verify_reports_record_only_the_flags_taken(tmp_path):
    # stable-cf takes neither --level nor --jmax; kernel-holder takes --jmax
    # as its j_terms but runs its own levels 4-6
    assert main(["verify", "--suite", "stable-cf", "--suite", "kernel-holder",
                 "--level", "3", "--jmax", "7", "--out", str(tmp_path)]) in (0, 1)
    stable_cf = json.loads((tmp_path / "stable-cf.json").read_text())
    assert not {"level", "jmax"} & set(stable_cf["config"])
    holder = json.loads((tmp_path / "kernel-holder.json").read_text())
    assert "level" not in holder["config"] and holder["config"]["jmax"] == 7
    assert holder["params"]["j_terms"] == 7 and holder["params"]["levels"] == [4, 5, 6]


@pytest.mark.parametrize("level", [3, 4, 5])
def test_ahlfors_refuses_levels_below_6(level):
    # the slope fit needs at least the four dyadic radii 2^-1..2^-4
    with pytest.raises(ResolutionError):
        verify.suite_ahlfors(level=level)


def test_verify_ahlfors_below_level_6_exits_2(tmp_path, capsys):
    assert main(["verify", "--suite", "ahlfors", "--level", "5",
                 "--out", str(tmp_path)]) == 2
    assert "level >= 6" in capsys.readouterr().err


def test_verify_spectral_below_level_5_exits_2(tmp_path, capsys):
    # the eigenvalue growth fit reads modes 10..200; level 4 has 120 Dirichlet modes
    assert main(["verify", "--suite", "spectral", "--level", "4",
                 "--out", str(tmp_path)]) == 2
    assert "level >= 5" in capsys.readouterr().err


@pytest.mark.parametrize("suite,level,lowest", [
    ("symmetry", 5, 6), ("scaling", 4, 5), ("field-marginals", 4, 5),
    ("lepage-vs-direct", 4, 5)])
def test_verify_below_the_fixed_vertices_exits_2(tmp_path, capsys, suite, level, lowest):
    # the fixed vertices 140 and 600 and kernel row 123 lie outside V_m
    # below `lowest` (V_4 has 123 vertices, V_5 366)
    assert main(["verify", "--suite", suite, "--level", str(level),
                 "--out", str(tmp_path)]) == 2
    assert f"{suite} needs level >= {lowest}" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_runs_a_suite_named_twice_once(tmp_path, monkeypatch, capsys, source):
    # twice on the command line, or once there and once in the config file
    calls = []
    run_suite = verify.run_suite
    monkeypatch.setattr(verify, "run_suite",
                        lambda name, **kw: calls.append(name) or run_suite(name, **kw))
    argv = ["verify", "--suite", "ahlfors", "--out", str(tmp_path / "r")]
    if source == "flag":
        argv += ["--suite", "ahlfors"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "ahlfors"}))
        argv = ["--config", str(cfg)] + argv
    assert main(argv) == 0
    assert calls == ["ahlfors"]
    assert capsys.readouterr().out.count("suite ahlfors") == 1
    assert [p.name for p in (tmp_path / "r").iterdir()] == ["ahlfors.json"]


def test_verify_keeps_the_first_naming_of_each_suite(tmp_path, monkeypatch):
    # `all` names every suite in sorted order, after those named before it
    calls = []
    monkeypatch.setattr(verify, "run_suite", lambda name, **kw: calls.append(name)
                        or {"checks": [], "passed": True})
    assert main(["verify", "--suite", "stable-cf", "--suite", "all", "--suite",
                 "ahlfors", "--out", str(tmp_path)]) == 0
    assert calls == ["stable-cf"] + [n for n in sorted(verify.SUITES) if n != "stable-cf"]


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


@pytest.mark.parametrize("text", [None, "{not json", "[2]"])
def test_config_file_unreadable_exit_two(tmp_path, capsys, text):
    # a missing file, a parse error, and JSON that is not an object
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["--config", str(cfg), "mesh", "--level", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert "config" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv,dropped", [
    (["kernel"], "s"),
    (["stable"], "alpha"),
    (["simulate", "--alpha", "1.5"], "s"),
    (["simulate", "--s", "0.9"], "alpha"),
], ids=["kernel-s", "stable-alpha", "simulate-s", "simulate-alpha"])
def test_missing_required_flag(tmp_path, capsys, argv, dropped, source):
    # the flag is left out of the command line, and with `config` a config
    # entry for it is null, which is unset
    args = argv
    if source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({dropped: None}))
        args = ["--config", str(cfg)] + args
    assert main(args + ["--level", "2", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"usage error: {argv[0]} requires --{dropped}\n"
    assert not list(tmp_path.glob("x*"))


def test_threads_flag(tmp_path):
    out = tmp_path / "t"
    assert main(["--threads", "1", "mesh", "--level", "1", "--out", str(out)]) == 0


def _package_env():
    """This environment, with this package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(gasketfields.__file__)),
         env.get("PYTHONPATH", "")])
    return env


def _run_python(code):
    """The finished process of `python -c code`, importing this package."""
    return subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=120)


def test_threads_flag_sets_blas_before_numpy_loads(tmp_path):
    # the package import must not load numpy, so every command can still pin
    # BLAS to one thread, over an inherited value, whatever --threads says
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    mesh = ["mesh", "--level", "1", "--out", str(tmp_path / "m")]
    for argv in ([], ["--threads", "1"], ["--threads", "2"], ["--config", str(cfg)],
                 ["--config", str(cfg), "--threads", "1"]):
        code = (
            "import os, sys\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '7'\n"
            "import gasketfields\n"
            "assert 'numpy' not in sys.modules, 'package import loaded numpy'\n"
            "from gasketfields.cli import main\n"
            "assert 'numpy' not in sys.modules, 'cli import loaded numpy'\n"
            f"assert main({argv + mesh!r}) == 0\n"
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
        )
        proc = _run_python(code)
        assert proc.returncode == 0, (argv, proc.stderr)


def test_every_package_export_resolves():
    # each name of __all__ loads from its module on first access, so a name
    # whose definition went would raise AttributeError here
    for name in gasketfields.__all__:
        getattr(gasketfields, name)


def test_heavy_scipy_modules_load_on_first_use(tmp_path):
    # scipy.stats, integrate, optimize and spatial hold ~38 MB of a process's
    # peak RSS; the KS verdicts, the D_alpha oracle and the exponent fit are
    # numpy, so importing every module and every package export, running
    # every export command and all 12 suites must load none of them
    # (scipy.spatial is `GasketMesh.snap`'s, which none of these calls).
    # scipy.sparse.linalg, 2 MB more, is semigroup's sparse solve alone: it
    # loads when semigroup runs, after every other suite has run without it
    out = str(tmp_path / "x")
    level = ["--level", "3", "--out", out]
    commands = [
        ["mesh"] + level,
        ["spectrum"] + level,
        ["kernel", "--s", "0.9"] + level,
        ["kernel", "--s", "0.9", "--pairs", "20"] + level,
        ["stable", "--alpha", "1.5", "--n-terms", "100", "--replicates", "5"] + level,
        ["stable", "--alpha", "1.5", "--route", "direct", "--replicates", "5"] + level,
        ["simulate", "--s", "0.9", "--alpha", "1.5"] + level,
    ]
    heavy = ["scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.spatial"]
    solver = "scipy.sparse.linalg"
    # every suite, at the smallest sizes its guards take, semigroup last
    suites = [("ahlfors", {"level": 6}),
              ("spectral", {"level": 5}),
              ("kernel-bounds", {"level": 3, "j_terms": None}),
              ("kernel-holder", {"levels": (2, 3), "j_terms": None}),
              ("symmetry", {"level": 6, "n_seeds": 500}),
              ("scaling", {"level": 5, "n_seeds": 500}),
              ("stable-cf", {"n": 1000}),
              ("lepage-vs-direct", {"level": 5, "n": 500, "n_terms": 100}),
              ("field-marginals", {"level": 5, "n_seeds": 100}),
              ("holder-paths", {"level": 3, "n_reps": 1}),
              ("divergence", {"n_seeds": 1}),
              ("semigroup", {"level": 2, "j_terms": None})]
    assert sorted(name for name, _ in suites) == sorted(verify.SUITES)
    code = (
        "import importlib, pkgutil, sys\n"
        "import gasketfields\n"
        "for info in pkgutil.iter_modules(gasketfields.__path__):\n"
        "    if info.name != '__main__':\n"
        "        importlib.import_module('gasketfields.' + info.name)\n"
        "for name in gasketfields.__all__:\n"
        "    getattr(gasketfields, name)\n"
        "from gasketfields.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "from gasketfields import verify\n"
        f"for name, params in {suites!r}:\n"
        f"    assert {solver!r} not in sys.modules, name\n"
        "    verify.run_suite(name, **params)\n"
        f"assert {solver!r} in sys.modules\n"
        f"loaded = [m for m in {heavy!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        # the control: a lazy import of one of them is seen, and so is the
        # module it pulls in
        "from scipy import integrate\n"
        "assert {'scipy.integrate', 'scipy.optimize'} <= set(sys.modules)\n"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
