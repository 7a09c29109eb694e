"""Command-line front end: mesh/spectrum dumps, kernels, simulation, verification.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 numeric error.
Every artifact embeds the resolved run configuration and the library
version, so any output is reproducible from its own metadata.  A JSON
config file may supplement flags; explicit flags win on conflict.
"""

import argparse
import inspect
import json
import os
import sys
import time


def _build_parser():
    p = argparse.ArgumentParser(
        prog="gasketfields",
        description="Fractional stable random fields on the Sierpinski gasket")
    p.add_argument("--config", help="JSON file supplying defaults for unset flags")
    p.add_argument("--threads", type=int,
                   help="cap BLAS/worker thread count (set before numpy loads)")
    sub = p.add_subparsers(dest="command", required=True)

    def shared(sp, *names):
        if "level" in names:
            sp.add_argument("--level", type=int, help="mesh level m (default 6)")
        if "bc" in names:
            sp.add_argument("--bc", choices=["neumann", "dirichlet"],
                            help="boundary condition (default neumann)")
        if "s" in names:
            sp.add_argument("--s", type=float, help="kernel order s")
        if "alpha" in names:
            sp.add_argument("--alpha", type=float, help="stability index in (0, 2]")
        if "jmax" in names:
            sp.add_argument("--jmax", type=int, help="spectral truncation (default 200)")
        if "n-terms" in names:
            sp.add_argument("--n-terms", dest="n_terms", type=int,
                            help="LePage truncation N (default 10000)")
        if "seed" in names:
            sp.add_argument("--seed", type=int, help="master seed (default 0)")
        if "replicates" in names:
            sp.add_argument("--replicates", type=int, help="replicate count")
        if "out" in names:
            sp.add_argument("--out", help="output path prefix/directory")

    sp = sub.add_parser("mesh", help="export a gasket mesh as CSV")
    shared(sp, "level", "out")

    sp = sub.add_parser("spectrum", help="solve and export the Laplacian spectrum")
    shared(sp, "level", "bc", "jmax", "out")

    sp = sub.add_parser("kernel", help="dump Riesz kernel values")
    shared(sp, "level", "bc", "s", "jmax", "seed", "out")
    sp.add_argument("--pairs", type=int,
                    help="emit this many sampled pairs instead of the full matrix")

    sp = sub.add_parser("stable", help="emit stable-integral replicates")
    shared(sp, "alpha", "n-terms", "seed", "replicates", "out", "level")
    sp.add_argument("--route", choices=["lepage", "direct"], default="lepage")

    sp = sub.add_parser("simulate", help="simulate field realizations on V_m")
    shared(sp, "level", "bc", "s", "alpha", "jmax", "n-terms", "seed",
           "replicates", "out")

    sp = sub.add_parser("verify", help="run named verification suites")
    shared(sp, "level", "jmax", "out")
    sp.add_argument("--suite", action="append", required=True,
                    help="suite name or 'all' (repeatable)")
    return p


_DEFAULTS = {
    "level": 6,
    "bc": "neumann",
    "jmax": 200,
    "n_terms": 10_000,
    "seed": 0,
    "replicates": 1,
    "out": "gasketfields_out",
}


def _resolve(args, config):
    """Merge flag values over config-file values over built-in defaults,
    for the flags of the chosen command only."""
    flags = vars(args)
    merged = {k: v for k, v in _DEFAULTS.items() if k in flags}
    merged.update({k: v for k, v in config.items() if k in flags})
    for k, v in flags.items():
        if v is not None:
            merged[k] = v
    return merged


def _check_counts(cfg):
    """Reject a count flag below 1, from the command line or from the config
    file (which argparse does not see)."""
    for key in ("replicates", "n_terms", "pairs"):
        value = cfg.get(key)
        if value is not None and (not isinstance(value, int) or value < 1):
            raise _usage(f"--{key.replace('_', '-')} must be an integer >= 1, "
                         f"got {value!r}")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)


def _write_csv(files, started):
    """Write each (path, header, blocks) file: the header line unless it is
    None, then each block (a list of comma-joined rows), with "\\r\\n" row
    ends; return the `rows`, `bytes` and `timings` fields of the command's
    `_meta.json`, summed over the files.

    Values are ints and float reprs, which never need quoting, so the bytes
    are those `csv.writer` would write.  `compute_s` runs from `started` to
    this call, `write_s` covers the blocks' formatting and the writes.
    """
    written = time.perf_counter()
    rows = size = 0
    for path, header, blocks in files:
        with open(path, "w", newline="") as fh:
            if header is not None:
                fh.write(header + "\r\n")
            for block in blocks:
                if block:
                    rows += len(block)
                    fh.write("\r\n".join(block) + "\r\n")
        size += os.path.getsize(path)
    return {"rows": rows, "bytes": size,
            "timings": {"compute_s": written - started,
                        "write_s": time.perf_counter() - written}}


class _Reprs(dict):
    """Memo of float reprs, filled on lookup."""

    def __missing__(self, x):
        text = self[x] = repr(x)
        return text


def _run_config(cfg, command):
    from . import __version__

    keep = ("level", "bc", "s", "alpha", "jmax", "n_terms", "seed",
            "replicates", "out", "suite", "route", "pairs")
    rc = {k: cfg.get(k) for k in keep if cfg.get(k) is not None}
    rc["command"] = command
    rc["version"] = __version__
    return rc


def _cmd_mesh(cfg):
    from . import geometry

    started = time.perf_counter()
    mesh = geometry.build_mesh(cfg["level"])
    boundary = set(mesh.boundary.tolist())
    vertex_rows = [f"{k},{x!r},{y!r},{int(k in boundary)}"
                   for k, (x, y) in enumerate(mesh.vertices.tolist())]
    cell_rows = ["{},{},{},{}".format("".join(map(str, addr)), *corners)
                 for addr, corners in mesh.cells]
    out = cfg["out"]
    exported = _write_csv(
        [(f"{out}_vertices.csv", "vertex_id,x,y,is_boundary", [vertex_rows]),
         (f"{out}_cells.csv", "cell_address,v0,v1,v2", [cell_rows])], started)
    _write_json(f"{out}_meta.json", {"config": _run_config(cfg, "mesh"),
                                     "n_vertices": mesh.n_vertices,
                                     "n_cells": len(mesh.cells),
                                     **exported})
    print(f"mesh level {cfg['level']}: {mesh.n_vertices} vertices -> {out}_*.csv")
    return 0


def _cmd_spectrum(cfg):
    from . import spectral

    started = time.perf_counter()
    spec = spectral.build_spectrum(cfg["level"], cfg["bc"], j_max=cfg["jmax"])
    value_rows = [f"{j},{lam!r}"
                  for j, lam in enumerate(spec.eigenvalues.tolist(), start=1)]
    # one block per vertex row, formatted as it is written
    vector_rows = ([",".join(map(repr, row))] for row in spec.eigenvectors.tolist())
    out = cfg["out"]
    exported = _write_csv(
        [(f"{out}_eigenvalues.csv", "j,lambda_j", [value_rows]),
         (f"{out}_eigenvectors.csv", None, vector_rows)], started)
    _write_json(f"{out}_meta.json", {"config": _run_config(cfg, "spectrum"),
                                     "n_modes": spec.n_modes,
                                     "lambda_1": float(spec.eigenvalues[0]),
                                     **exported})
    print(f"spectrum {cfg['bc']} level {cfg['level']}: {spec.n_modes} modes -> {out}_*.csv")
    return 0


def _cmd_kernel(cfg):
    import numpy as np

    from . import riesz, spectral

    started = time.perf_counter()
    if cfg.get("s") is None:
        raise _usage("kernel requires --s > 0")
    # the full spectrum holds the modes --jmax drops, for the tail bound
    full = spectral.build_spectrum(cfg["level"], cfg["bc"])
    spec = full.truncated(cfg["jmax"])
    ev = riesz.KernelEvaluator(spec, cfg["s"])
    V = spec.mesh.vertices
    n = spec.mesh.n_vertices
    if cfg.get("pairs"):
        rng = np.random.default_rng(cfg["seed"])
        rows = []
        for _ in range(cfg["pairs"]):
            a, b = rng.choice(n, 2, replace=False)
            d = float(np.hypot(*(V[a] - V[b])))
            rows.append(f"{a},{b},{d!r},{ev.value(a, b)!r}")
        blocks = [rows]
    else:
        G = ev.matrix()
        # one repr per distinct distance: 2316 of them among 1.2 M pairs at L6
        dist_repr = _Reprs()

        def blocks_of_rows():
            for a in range(n):
                # elementwise, so the same values as hypot of each pair's difference
                diff = V[a] - V
                d = np.hypot(diff[:, 0], diff[:, 1]).tolist()
                d = map(dist_repr.__getitem__, d)
                yield [f"{a},{b},{x},{g!r}"
                       for b, x, g in zip(range(n), d, G[a].tolist())]

        blocks = blocks_of_rows()
    out = cfg["out"]
    path = f"{out}_kernel.csv"
    exported = _write_csv([(path, "xi,yi,d,G", blocks)], started)
    _write_json(f"{out}_meta.json", {"config": _run_config(cfg, "kernel"),
                                     "j_terms": spec.n_modes,
                                     "tail_bound": ev.tail_bound(full),
                                     **exported})
    print(f"kernel s={cfg['s']} -> {path}")
    return 0


def _cmd_stable(cfg):
    from . import geometry, stable

    started = time.perf_counter()
    if cfg.get("alpha") is None:
        raise _usage("stable requires --alpha in (0, 2)")
    mesh = geometry.build_mesh(cfg["level"])
    import numpy as np

    ones = np.ones(mesh.n_vertices)
    if cfg["route"] == "lepage":
        vals = stable.lepage_replicates(ones, mesh, cfg["alpha"], cfg["n_terms"],
                                        cfg["replicates"], seed=cfg["seed"])
    else:
        vals = stable.direct_replicates(ones, mesh, cfg["alpha"],
                                        cfg["replicates"], seed=cfg["seed"])
    out = cfg["out"]
    path = f"{out}_replicates.csv"
    rows = [f"{k},{v!r}" for k, v in enumerate(vals.tolist())]
    meta = {"config": _run_config(cfg, "stable"),
            **_write_csv([(path, "replicate_id,value", [rows])], started)}
    if cfg["route"] == "lepage":
        meta["tail_estimate"] = stable.arrival_tail_sum(cfg["alpha"], cfg["n_terms"])
    _write_json(f"{out}_meta.json", meta)
    print(f"stable {cfg['route']} alpha={cfg['alpha']}: {cfg['replicates']} replicates -> {path}")
    return 0


def _cmd_simulate(cfg):
    from . import fields, spectral

    started = time.perf_counter()
    for key in ("s", "alpha"):
        if cfg.get(key) is None:
            raise _usage(f"simulate requires --{key}")
    s, alpha = cfg["s"], cfg["alpha"]
    # before the spectrum is solved
    fields.check_integrable(s, alpha)
    spec = spectral.build_spectrum(cfg["level"], cfg["bc"], j_max=cfg["jmax"])
    mesh = spec.mesh
    seeds = range(cfg["seed"], cfg["seed"] + cfg["replicates"])
    samples = fields.field_replicates(s, alpha, spec, seeds, cfg["n_terms"])
    out = cfg["out"]
    path = f"{out}.csv"
    vertex_cols = [f"{vid},{x!r},{y!r},"
                   for vid, (x, y) in enumerate(mesh.vertices.tolist())]
    blocks = ([f"{rep},{p}{v!r}" for p, v in zip(vertex_cols, smp.values.tolist())]
              for rep, smp in enumerate(samples))
    meta = {"config": _run_config(cfg, "simulate"),
            "realizations": [smp.meta for smp in samples],
            **_write_csv([(path, "replicate_id,vertex_id,x,y,value", blocks)],
                         started)}
    _write_json(f"{out}_meta.json", meta)
    print(f"simulate: {cfg['replicates']} realization(s) on level {cfg['level']} -> {path}")
    return 0


def _cmd_verify(cfg):
    from . import verify

    names = []
    for entry in cfg["suite"]:
        names.extend(sorted(verify.SUITES) if entry == "all" else [entry])
    for name in names:
        if name not in verify.SUITES:
            raise _usage(f"unknown suite {name!r}; choose from {sorted(verify.SUITES)}")

    overrides = {}
    if cfg.get("level") is not None:
        overrides["level"] = cfg["level"]
    if cfg.get("jmax") is not None:
        overrides["j_terms"] = cfg["jmax"]

    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    all_passed = True
    for name in names:
        fn = verify.SUITES[name]
        accepted = set(inspect.signature(fn).parameters)
        kwargs = {k: v for k, v in overrides.items() if k in accepted}
        report = fn(**kwargs)
        report["config"] = _run_config(cfg, "verify")
        _write_json(os.path.join(out_dir, f"{name}.json"), report)
        status = "PASS" if report["passed"] else "FAIL"
        print(f"[{status}] suite {name}")
        for c in report["checks"]:
            mark = "ok" if c["passed"] else "FAILED"
            print(f"    {c['name']}: {mark}")
        all_passed &= report["passed"]
    return 0 if all_passed else 1


def _usage(msg):
    from .errors import UsageError

    return UsageError(msg)


_COMMANDS = {
    "mesh": _cmd_mesh,
    "spectrum": _cmd_spectrum,
    "kernel": _cmd_kernel,
    "stable": _cmd_stable,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.threads:
        # takes effect because importing the package does not load numpy;
        # an explicit flag wins over an inherited setting
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"usage error: cannot read config {args.config}: {exc}",
                  file=sys.stderr)
            return 2

    cfg = _resolve(args, config)

    from .errors import (CapacityError, ContractError, DomainError,
                         NumericError, ResolutionError, UsageError)

    try:
        _check_counts(cfg)
        return _COMMANDS[args.command](cfg)
    except (UsageError, DomainError, ContractError, CapacityError,
            ResolutionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
