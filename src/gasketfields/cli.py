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
    shared(sp, "level", "jmax", "out", "seed")
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
    """Merge flag values over config-file values over built-in defaults."""
    merged = dict(_DEFAULTS)
    merged.update({k: v for k, v in config.items() if k in _DEFAULTS or k in vars(args)})
    for k, v in vars(args).items():
        if v is not None:
            merged[k] = v
    return merged


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)


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

    mesh = geometry.build_mesh(cfg["level"])
    out = cfg["out"]
    geometry.export_csv(mesh, f"{out}_vertices.csv", f"{out}_cells.csv")
    _write_json(f"{out}_meta.json", {"config": _run_config(cfg, "mesh"),
                                     "n_vertices": mesh.n_vertices,
                                     "n_cells": len(mesh.cells)})
    print(f"mesh level {cfg['level']}: {mesh.n_vertices} vertices -> {out}_*.csv")
    return 0


def _cmd_spectrum(cfg):
    from . import spectral

    spec = spectral.build_spectrum(cfg["level"], cfg["bc"], j_max=cfg["jmax"])
    out = cfg["out"]
    spectral.export_spectrum_csv(spec, f"{out}_eigenvalues.csv",
                                 f"{out}_eigenvectors.csv")
    _write_json(f"{out}_meta.json", {"config": _run_config(cfg, "spectrum"),
                                     "n_modes": spec.n_modes,
                                     "lambda_1": float(spec.eigenvalues[0])})
    print(f"spectrum {cfg['bc']} level {cfg['level']}: {spec.n_modes} modes -> {out}_*.csv")
    return 0


def _cmd_kernel(cfg):
    import csv

    import numpy as np

    from . import geometry, riesz, spectral

    if cfg.get("s") is None:
        raise _usage("kernel requires --s > 0")
    mesh = geometry.build_mesh(cfg["level"])
    spec = spectral.build_spectrum(cfg["level"], cfg["bc"], j_max=cfg["jmax"])
    ev = riesz.KernelEvaluator(spec, cfg["s"])
    out = cfg["out"]
    path = f"{out}_kernel.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["xi", "yi", "d", "G"])
        if cfg.get("pairs"):
            rng = np.random.default_rng(cfg["seed"])
            for _ in range(cfg["pairs"]):
                a, b = rng.choice(mesh.n_vertices, 2, replace=False)
                d = float(np.hypot(*(mesh.vertices[a] - mesh.vertices[b])))
                w.writerow([a, b, repr(d), repr(ev.value(a, b))])
        else:
            G = ev.matrix()
            for a in range(mesh.n_vertices):
                for b in range(mesh.n_vertices):
                    d = float(np.hypot(*(mesh.vertices[a] - mesh.vertices[b])))
                    w.writerow([a, b, repr(d), repr(float(G[a, b]))])
    _write_json(f"{out}_meta.json", {"config": _run_config(cfg, "kernel"),
                                     "j_terms": ev.j_terms,
                                     "tail_bound": ev.tail_bound()})
    print(f"kernel s={cfg['s']} -> {path}")
    return 0


def _cmd_stable(cfg):
    import csv

    from . import geometry, stable

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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replicate_id", "value"])
        for k, v in enumerate(vals):
            w.writerow([k, repr(float(v))])
    meta = {"config": _run_config(cfg, "stable")}
    if cfg["route"] == "lepage":
        meta["tail_estimate"] = stable.arrival_tail_sum(cfg["alpha"], cfg["n_terms"])
    _write_json(f"{out}_meta.json", meta)
    print(f"stable {cfg['route']} alpha={cfg['alpha']}: {cfg['replicates']} replicates -> {path}")
    return 0


def _cmd_simulate(cfg):
    import csv

    from . import fields, geometry, spectral
    from .constants import integrability_threshold

    for key in ("s", "alpha"):
        if cfg.get(key) is None:
            raise _usage(f"simulate requires --{key}")
    s, alpha = cfg["s"], cfg["alpha"]
    if s <= integrability_threshold(alpha):
        raise _usage(
            f"s = {s} <= (alpha-1)*d_h/(alpha*d_w) = "
            f"{integrability_threshold(alpha):.5f}: field undefined, "
            "see integrability threshold")
    mesh = geometry.build_mesh(cfg["level"])
    spec = spectral.build_spectrum(cfg["level"], cfg["bc"], j_max=cfg["jmax"])
    seeds = range(cfg["seed"], cfg["seed"] + cfg["replicates"])
    samples = fields.field_replicates(s, alpha, cfg["bc"], mesh, spec, seeds,
                                      cfg["n_terms"], cfg["jmax"])
    out = cfg["out"]
    path = f"{out}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replicate_id", "vertex_id", "x", "y", "value"])
        for rep, smp in enumerate(samples):
            for vid, ((x, y), v) in enumerate(zip(mesh.vertices, smp.values)):
                w.writerow([rep, vid, repr(float(x)), repr(float(y)),
                            repr(float(v))])
    meta = {"config": _run_config(cfg, "simulate"),
            "realizations": [smp.meta for smp in samples]}
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
