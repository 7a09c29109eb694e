"""Sharded steps: the field batch and LePage replicate draws give the same
values at any shard count, and a failed shard leaves no process behind."""

import os

import numpy as np
import pytest

from gasketfields import fields, geometry, shards, spectral, stable, verify


@pytest.fixture
def three_cpus(monkeypatch):
    """Three usable CPUs and one item enough for a draw shard; gives a
    function that runs `call()` under each of 1, 2 and 3 shards, checks
    that each count was used, and returns the three results."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(fields, "MIN_CELLS_PER_SHARD", 1)
    monkeypatch.setattr(stable, "MIN_REPLICATES_PER_SHARD", 1)

    def each_count(call):
        results = []
        for count in (1, 2, 3):
            with shards.limit(count) as tally:
                results.append(call())
            assert tally.shards == count
            assert (tally.peak_kib > 0) == (count > 1)
        return results

    return each_count


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cuts_are_contiguous_and_capped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert shards.cuts(100, 10) == [0, 12, 25, 37, 50, 62, 75, 87, 100]
    assert shards.cuts(100, 30) == [0, 33, 66, 100]
    assert shards.cuts(29, 30) == [0, 29]
    assert shards.cuts(0, 30) == [0, 0]
    # inner cuts on multiples of the step, never more shards than blocks
    assert shards.cuts(366, 1, 64) == [0, 64, 128, 192, 256, 320, 366]
    assert shards.cuts(128, 1, 64) == [0, 64, 128]
    with shards.limit(3) as tally:
        assert shards.cuts(366, 1, 64) == [0, 128, 256, 366]
        with shards.limit(None):
            assert len(shards.cuts(100, 10)) == 9
    assert tally.shards == 0


@pytest.mark.parametrize("alpha", [1.5, 2.0])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_field_values_do_not_depend_on_shards(three_cpus, alpha, bc):
    spec = spectral.build_spectrum(5, bc, j_max=100)
    samples = three_cpus(lambda: fields.simulate_field(0.9, alpha, spec, range(3, 10)))
    assert all(np.array_equal(samples[0], s) for s in samples[1:])


def test_lepage_replicates_do_not_depend_on_shards(three_cpus):
    mesh = geometry.build_mesh(5)
    F = np.random.default_rng(2).standard_normal((mesh.n_vertices, 3))
    runs = three_cpus(lambda: stable.lepage_replicates(
        F, mesh, (0.7, 1.5, 1.9), 300, 7, seed=5, tail_compensation=True))
    assert runs[0].shape == (3, 7, 3)
    assert all(np.array_equal(runs[0], r) for r in runs[1:])


def test_reports_do_not_depend_on_shards(three_cpus):
    # at the sample sizes the benchmark runs these two suites with
    reports = three_cpus(lambda: [
        verify.run_suite("symmetry", n_seeds=500, seed0=3),
        verify.run_suite("lepage-vs-direct", n=500, n_terms=100, seed0=3)])
    assert reports[0] == reports[1] == reports[2]


def test_empty_batches_keep_their_shapes(mesh6, spec_n):
    assert fields.simulate_field(0.9, 1.5, spec_n, range(0)).shape == (
        0, mesh6.n_vertices)
    assert stable.lepage_replicates(np.ones(mesh6.n_vertices), mesh6, 1.5, 100, 0,
                                    seed=0).shape == (0,)


@pytest.mark.parametrize("in_child", [True, False])
def test_failed_draw_shard_leaves_no_child(three_cpus, monkeypatch, capfd, in_child):
    # two shards of seeds 0..3 and 4..7: the forked one draws seeds 4..7
    standard_stable, parent = fields.standard_stable, os.getpid()

    def failing(*args):
        if (os.getpid() != parent) == in_child:
            raise RuntimeError("draw failed")
        return standard_stable(*args)

    monkeypatch.setattr(fields, "standard_stable", failing)
    spec = spectral.build_spectrum(4, "neumann")
    with shards.limit(2):
        if in_child:
            with pytest.raises(ChildProcessError,
                               match=r"shard 1 of 2 \(seeds 4 to 7\) .* exit status 1"):
                fields.simulate_field(0.9, 1.5, spec, range(8))
            assert "RuntimeError: draw failed" in capfd.readouterr().err
        else:
            with pytest.raises(RuntimeError, match="draw failed"):
                fields.simulate_field(0.9, 1.5, spec, range(8))
    _no_child_left()


def test_failed_replicate_shard_names_its_range(three_cpus, monkeypatch, capfd, mesh6):
    make_draw = stable.make_draw

    def failing(seed, *args):
        if seed.spawn_key == (9,):
            raise RuntimeError("replicate failed")
        return make_draw(seed, *args)

    monkeypatch.setattr(stable, "make_draw", failing)
    with shards.limit(3):
        with pytest.raises(ChildProcessError,
                           match=r"shard 2 of 3 \(replicates 8 to 11\) .* exit status 1"):
            stable.lepage_replicates(np.ones(mesh6.n_vertices), mesh6, 1.5, 100, 12, seed=0)
    assert "RuntimeError: replicate failed" in capfd.readouterr().err
    _no_child_left()
