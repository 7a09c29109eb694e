import pytest

import tracer as tracing
from gasketfields import fields, geometry, riesz, verify


def test_self_time_on_nested_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] overlapping on [3, 4];
    # a has child c [2, 3]; c re-enters root's name, which must not be
    # counted twice in inclusive time
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],
        ["root", 2.0, 3.0, 1],
        ["leaf", 7.0, 7.5, 0],
    ]
    s = tracing.summarize(spans)
    assert s["root"]["calls"] == 2
    assert s["root"]["total_s"] == pytest.approx(10.0)
    # covered by children: [1, 6] and [7, 7.5] -> 5.5; inner root has no children
    assert s["root"]["self_s"] == pytest.approx((10.0 - 5.5) + 1.0)
    assert s["a"]["self_s"] == pytest.approx(3.0 - 1.0)
    assert s["b"]["self_s"] == pytest.approx(3.0)
    assert s["leaf"]["self_s"] == pytest.approx(0.5)


def test_tracer_records_parents_and_clock():
    ticks = iter(range(100))
    tr = tracing.Tracer("t", clock=lambda: float(next(ticks)))
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    recs = tr.records()
    assert [(r["name"], r["parent"]) for r in recs] == [
        ("outer", None), ("inner", 0), ("inner", 0)]
    assert all(r["run"] == "t" for r in recs)
    s = tracing.summarize(tr.spans)
    assert s["outer"]["total_s"] == 5.0
    assert s["outer"]["self_s"] == 5.0 - 2.0
    assert s["inner"]["calls"] == 2


def test_traced_rebinds_every_site_and_restores():
    originals = (riesz.fractional_laplacian_inv, fields.fractional_laplacian_inv,
                 geometry.GasketMesh.snap, verify.SUITES["symmetry"],
                 verify.suite_symmetry)
    tr = tracing.Tracer("t")
    with tracing.traced(tr):
        assert fields.fractional_laplacian_inv is riesz.fractional_laplacian_inv
        assert riesz.fractional_laplacian_inv is not originals[0]
        assert verify.SUITES["symmetry"] is verify.suite_symmetry
        assert verify.suite_symmetry is not originals[3]
        mesh = geometry.build_mesh(2)
        mesh.snap([[0.1, 0.0]])
    assert (riesz.fractional_laplacian_inv, fields.fractional_laplacian_inv,
            geometry.GasketMesh.snap, verify.SUITES["symmetry"],
            verify.suite_symmetry) == originals
    names = [s[0] for s in tr.spans]
    assert "geometry.snap" in names and "geometry.build_mesh" in names
