"""Benchmark core: cold set-up, measured passes, traced pass, metrics.

A run builds the workload's spectra from cold caches (`setup_s`), then
repeats passes over the workload's operations until `seconds` have gone
by, always completing at least the workload's `min_passes`.  `run_s` is
the median pass time.  With tracing on, the run adds one traced pass after the untraced
ones and traces the last set-up; per-layer metrics come from those spans
and count one set-up plus one pass, so the counts repeat exactly for a
given seed.
"""

import contextlib
import ctypes
import inspect
import json
import os
import platform
import resource
import statistics
import tempfile
import time

import numpy as np
import scipy

from gasketfields import geometry, spectral, verify

import tracer as tracing
import workloads as wl

SUITES = tuple(verify.SUITES)
CLI_COMMANDS = ("mesh", "spectrum", "kernel", "stable", "simulate")

# per-layer metric -> (span name, statistic); statistic is "total_s"
# (inclusive), "self_s" or "calls"
SPAN_METRICS = {
    "stable.make_draw_s": ("stable.make_draw", "total_s"),
    "stable.make_draw_calls": ("stable.make_draw", "calls"),
    "geometry.sample_mu_s": ("geometry.sample_mu", "total_s"),
    "geometry.snap_s": ("geometry.snap", "total_s"),
    "geometry.snap_calls": ("geometry.snap", "calls"),
    "fields.simulate_field_s": ("fields.simulate_field", "self_s"),
    "fields.simulate_field_calls": ("fields.simulate_field", "calls"),
    "riesz.apply_s": ("riesz.apply", "total_s"),
    "riesz.apply_calls": ("riesz.apply", "calls"),
    "fields.scaled_subcell_field_s": ("fields.scaled_subcell_field", "total_s"),
    "fields.distributional_field_s": ("fields.distributional_field", "total_s"),
    "stable.lepage_replicates_s": ("stable.lepage_replicates", "total_s"),
    "stable.direct_replicates_s": ("stable.direct_replicates", "total_s"),
    "stable.standard_stable_s": ("stable.standard_stable", "total_s"),
    "spectral.solve_spectrum_s": ("spectral.solve_spectrum", "total_s"),
    "spectral.assemble_form_s": ("spectral.assemble_form", "total_s"),
    "geometry.build_mesh_s": ("geometry.build_mesh", "total_s"),
    "spectral.heat_kernel_s": ("spectral.heat_kernel", "total_s"),
    "spectral.heat_kernel_calls": ("spectral.heat_kernel", "calls"),
    "riesz.matrix_s": ("riesz.matrix", "total_s"),
    "riesz.matrix_calls": ("riesz.matrix", "calls"),
    "riesz.value_s": ("riesz.value", "total_s"),
    "riesz.row_s": ("riesz.row", "total_s"),
    "riesz.fractional_laplacian_inv_s": ("riesz.fractional_laplacian_inv", "total_s"),
    "geometry.level_edges_s": ("geometry.level_edges", "total_s"),
    "analysis.two_sample_s": ("analysis.two_sample", "total_s"),
    "analysis.one_sample_ks_s": ("analysis.one_sample_ks", "total_s"),
    "analysis.cf_gof_s": ("analysis.cf_gof", "total_s"),
    "analysis.holder_exponent_estimate_s": ("analysis.holder_exponent_estimate", "total_s"),
    "analysis.divergence_diagnostic_s": ("analysis.divergence_diagnostic", "self_s"),
    **{f"verify.{s}_s": (f"verify.{s}", "total_s") for s in SUITES},
    **{f"cli.{c}_s": (f"op.cli.{c}", "total_s") for c in CLI_COMMANDS},
}
COUNT_METRICS = ("spectral.eigh_n", "stable.lepage_terms", "geometry.sample_mu_points")


def _openblas_libs():
    """(library file, OpenBLAS config, threads) for each loaded OpenBLAS."""
    out = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_", "scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                cfg = getattr(lib, f"{prefix}get_config{suffix}", None)
                nth = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if cfg is not None and nth is not None:
                    cfg.restype = ctypes.c_char_p
                    info["config"] = cfg().decode()
                    info["threads"] = int(nth())
                    break
            if "config" in info:
                break
        out.append(info)
    return out


def environment(workload, seed, seconds, trace, ops):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas_loaded": _openblas_libs(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup": {"spectra": [list(s) for s in workload.spectra],
                  "repetitions": workload.setup_reps},
        "min_passes": workload.min_passes,
        "operations": [{"name": op.name, **op.params} for op in ops],
    }


def cold_caches():
    """Empty the mesh and spectrum caches so the next build starts cold."""
    for cached in (geometry.build_mesh, spectral._full_spectrum):
        inspect.unwrap(cached, stop=lambda f: hasattr(f, "cache_clear")).cache_clear()


def build_spectra(spectra):
    for level, bc, j_max in spectra:
        spectral.build_spectrum(level, bc, j_max=j_max)


def run_pass(ops, tmp_root, tr=None):
    """One pass over the operations; returns one record per operation."""
    records = []
    with tempfile.TemporaryDirectory(dir=tmp_root) as workdir:
        for op in ops:
            with tr.span(f"op.{op.name}") if tr else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    result, error = op.call(workdir), None
                except Exception as exc:  # an operation that raises is a failed one
                    result, error = None, f"{op.name} raised {type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
            outcome = wl.Outcome(failures=[error]) if error else op.check(result, workdir)
            records.append({"op": op, "seconds": seconds, "outcome": outcome})
    return records


def _pass_time(records):
    return sum(r["seconds"] for r in records)


def _rate(passes, amount):
    """Sum of `amount(op)` over operations that do that work, per second of
    those operations."""
    work = secs = 0.0
    for records in passes:
        for r in records:
            a = amount(r)
            if a:
                work += a
                secs += r["seconds"]
    return work / secs if secs else 0.0


def end_to_end(setup_times, passes):
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(_pass_time(p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def throughputs(passes):
    ops = [r for p in passes for r in p]
    failed = sum(1 for r in ops if r["outcome"].failures)
    return {
        "realizations_per_s": _rate(passes, lambda r: r["op"].realizations),
        "lepage_terms_per_s": _rate(passes, lambda r: r["op"].lepage_terms),
        "csv_mb_per_s": _rate(passes, lambda r: r["outcome"].csv_bytes) / 1e6,
        "failed_frac": failed / len(ops),
    }


def per_layer(tr, traced_records, untraced_passes):
    summary = tracing.summarize(tr.spans)
    first = {}
    for i, span in enumerate(tr.spans):
        first.setdefault(span[0], i)
    setup_span, pass_idx = tr.spans[first["setup"]], first["pass"]
    pass_spans = sum(1 for name, *_ in tr.spans[pass_idx:] if not name.startswith("op."))
    m = {"trace_overhead_s": _pass_time(traced_records)
         - statistics.median(_pass_time(p) for p in untraced_passes),
         "trace_overhead_est_s": pass_spans * tracing.span_cost(),
         "trace.spans": len(tr.spans)}
    m.update(throughputs(untraced_passes))
    for metric, (span, stat) in SPAN_METRICS.items():
        m[metric] = summary.get(span, {}).get(stat, 0)
    for metric in COUNT_METRICS:
        m[metric] = tr.counts.get(metric, 0)
    outcomes = [r["outcome"] for r in traced_records]
    m["verify.checks_run"] = sum(o.checks_run for o in outcomes)
    m["verify.checks_failed"] = sum(len(o.verdicts_failed) for o in outcomes)
    m["cli.rows_written"] = sum(o.csv_lines for o in outcomes)
    m["cli.bytes_written"] = sum(o.csv_bytes for o in outcomes)

    def share(part, whole):
        return part / whole if whole else 0.0

    realization = sum(summary.get(n, {}).get("total_s", 0.0) for n in
                      ("stable.make_draw", "fields.simulate_field",
                       "fields.scaled_subcell_field"))
    run_s = _pass_time(traced_records)
    m["share.make_draw_snap_of_realizations"] = share(
        m["stable.make_draw_s"] + m["geometry.snap_s"], realization)
    m["share.solve_spectrum_of_setup"] = share(
        m["spectral.solve_spectrum_s"], setup_span[2] - setup_span[1])
    m["share.lepage_replicates_of_run"] = share(m["stable.lepage_replicates_s"], run_s)
    m["share.cli_kernel_of_run"] = share(m["cli.kernel_s"], run_s)
    return m


def run(workload, seed, seconds, trace, out_dir):
    """Run one workload.

    Returns the result line, the details for the result file, and the
    per-operation records of every pass (the traced pass last).
    """
    os.makedirs(out_dir, exist_ok=True)
    ops = workload.make_ops(seed)
    run_id = f"{workload.name}-seed{seed}-pid{os.getpid()}"
    tr = tracing.Tracer(run_id) if trace else None
    origin = time.perf_counter()

    setup_times = []
    for rep in range(workload.setup_reps):
        cold_caches()
        t0 = time.perf_counter()
        if tr is not None and rep == workload.setup_reps - 1:
            with tracing.traced(tr), tr.span("setup"):
                build_spectra(workload.spectra)
        else:
            build_spectra(workload.spectra)
        setup_times.append(time.perf_counter() - t0)

    passes, t0 = [], time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(ops, out_dir))
    all_passes = list(passes)
    if tr is not None:
        with tracing.traced(tr), tr.span("pass"):
            traced_records = run_pass(ops, out_dir, tr)
        all_passes.append(traced_records)

    records = [r for p in all_passes for r in p]
    failures = [f for r in records for f in r["outcome"].failures]
    attempted, failed = len(records), sum(1 for r in records if r["outcome"].failures)
    e2e = end_to_end(setup_times, passes)
    if tr is None:
        metrics, units = e2e, UNITS_E2E
    else:
        metrics, units = per_layer(tr, traced_records, passes), UNITS_LAYER
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units.get(k, "count")}
                          for k, v in metrics.items()}}
    details = {
        "environment": environment(workload, seed, seconds, trace, ops),
        "setup_times_s": setup_times,
        "pass_times_s": [_pass_time(p) for p in passes],
        "end_to_end": {**e2e, **throughputs(passes)},
        "operations": [{"name": r["op"].name, "seconds": r["seconds"],
                        "failures": r["outcome"].failures,
                        "verdicts_failed": r["outcome"].verdicts_failed,
                        "checks_run": r["outcome"].checks_run}
                       for r in passes[0]],
        "failures": failures,
        "result": result,
    }
    if tr is not None:
        details["traced_pass_s"] = _pass_time(traced_records)
        spans_path = os.path.join(out_dir, f"{workload.name}-seed{seed}.spans.jsonl")
        with open(spans_path, "w") as fh:
            for rec in tr.records(origin):
                fh.write(json.dumps(rec) + "\n")
        details["spans_file"] = spans_path
    return result, details, all_passes


UNITS_E2E = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
UNITS_LAYER = {
    "trace_overhead_s": "s", "trace_overhead_est_s": "s", "realizations_per_s": "1/s",
    "lepage_terms_per_s": "1/s", "csv_mb_per_s": "MB/s", "failed_frac": "1",
    "cli.bytes_written": "bytes",
    **{k: "s" for k in SPAN_METRICS if k.endswith("_s")},
    **{k: "1" for k in ("share.make_draw_snap_of_realizations",
                        "share.solve_spectrum_of_setup",
                        "share.lepage_replicates_of_run",
                        "share.cli_kernel_of_run")},
}
