import json
import os
import shutil
import subprocess
import sys

import pytest

import bench
import run
import workloads as wl

N, D = wl.NEUMANN, wl.DIRICHLET
EXACT_COUNTS = ("spectral.eigh_n", "stable.lepage_terms", "stable.make_draw_calls",
                "fields.simulate_field_calls", "cli.rows_written",
                "cli.bytes_written")


def tiny_ops(seed):
    """Small versions of the real operations and checks, for speed."""
    return [
        wl.suite_op("stable-cf", {"n": 1000, "seed": wl.derived_seed(seed, "cf")},
                    exact=("d_alpha=*",)),
        wl.suite_op("field-marginals", {"level": 5, "n_seeds": 5, "n_terms": 500,
                                        "seed0": wl.derived_seed(seed, "fm")},
                    exact=("neumann_mean_zero", "dirichlet_boundary_zero"),
                    realizations=30),
        wl.suite_op("spectral", {"level": 5},
                    exact=("neumann_mass_*", "dirichlet_corner_rows")),
        *wl.cli_export_ops(seed, level=3, stable_replicates=20, sim_replicates=2),
    ]


TINY = wl.Workload("tiny", "test sizing", ((3, N, None), (4, N, None), (4, D, None),
                                           (5, N, 200), (5, D, 200)), 2, tiny_ops)


@pytest.fixture(scope="module")
def two_traced_runs(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("out"))
    return [bench.run(TINY, 11, 0.001, True, out) for _ in range(2)]


def _digests(records):
    return [json.dumps(r["outcome"].digest, sort_keys=True, default=str)
            for r in records]


def test_traced_and_untraced_reports_match(two_traced_runs):
    result, details, passes = two_traced_runs[0]
    assert result["correct"] and result["failed"] == 0, details["failures"]
    untraced, traced = passes[0], passes[-1]
    assert _digests(untraced) == _digests(traced)
    assert any(r["op"].name == "verify.spectral" for r in traced)


def test_exact_counts_repeat(two_traced_runs):
    first, second = (run[0]["metrics"] for run in two_traced_runs)
    for name in EXACT_COUNTS:
        assert first[name]["value"] > 0, name
        assert first[name]["value"] == second[name]["value"], name


def test_every_suite_is_covered():
    seen = {}
    for name, workload in wl.WORKLOADS.items():
        for op in workload.make_ops(0):
            if op.name.startswith("verify."):
                seen.setdefault(op.params["suite"], []).append(name)
                params = op.params["params"]
                assert params.get("n_seeds", 500) >= 500 or op.params["suite"] in (
                    "field-marginals", "divergence")
                assert params.get("n", 1000) >= 1000 or op.params["suite"] == "lepage-vs-direct"
    assert sorted(seen) == sorted(bench.SUITES)
    # holder-paths runs at level 6 in field-sim and level 7 in spectrum-L7
    assert {k: v for k, v in seen.items() if len(v) > 1} == {
        "holder-paths": ["field-sim", "spectrum-L7"]}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(bench.__file__)),
                    tmp_path / "benchmarks")
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                           "field-sim", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_metric_names_match_benchmark_json(two_traced_runs, tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(bench.__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    traced = two_traced_runs[0][0]["metrics"]
    assert [m["name"] for m in spec["per_layer"]] == list(traced)
    assert all(traced[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    one = wl.Workload("one", "test sizing", ((3, N, None),), 1, lambda seed: [
        wl.suite_op("stable-cf", {"n": 1000, "seed": seed}, exact=("d_alpha=*",))])
    result, _, _ = bench.run(one, 0, 0.001, False, str(tmp_path))
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result == {**result, "correct": True, "attempted": 1, "failed": 0}


def test_benchmark_json_workloads_match():
    root = os.path.dirname(os.path.dirname(os.path.abspath(bench.__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in wl.WORKLOADS.values()]
    assert run.WORKLOAD_NAMES == tuple(wl.WORKLOADS)


def test_exact_check_failures_fail_the_operation():
    op = wl.suite_op("x", {}, exact=("exact_*",), expected=("other",))
    report = {"checks": [{"name": "exact_a", "value": 1.0, "passed": False},
                         {"name": "verdict", "value": float("nan"), "passed": False}]}
    out = op.check(report, None)
    assert out.verdicts_failed == ["x:verdict"]
    assert len(out.failures) == 3   # exact_a failed, "other" missing, nan value
