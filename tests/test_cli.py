import json
import os
import subprocess
import sys

import gasketfields
from gasketfields.cli import main


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
