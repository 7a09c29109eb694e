"""Command-line front end: mesh/spectrum dumps, kernels, simulation, verification.

Exit codes: 0 ok, 1 verification failure, 2 usage error (a failed forked
shard too), 3 numeric error.
Every artifact embeds the resolved run configuration and the library
version, so any output is reproducible from its own metadata.  A JSON
config file may supplement flags: each entry that names a flag of the
chosen command (or `threads`) is parsed exactly as that flag's text would
be, ahead of the explicit flags, so an explicit flag wins and a bad value
exits 2 as the flag would.  Keys of other commands are ignored, and a null
entry is unset.  `--help` shows each flag's default.
"""

import argparse
import contextlib
import inspect
import json
import os
import resource
import sys
import time

from . import __version__, errors, shards

# the fewest rows a forked CSV shard formats: one process writes the level-5
# kernel (366 rows) faster than two, two write the level-6 one (1095) faster
MIN_ROWS_PER_SHARD = 512
# the memory one `kernel --pairs` pair holds at the peak: its four arrays, the
# four lists of their values and its row of text; the peak RSS grew by 256
# bytes a pair at level 2 and 281 at level 6 (10^6 pairs)
PAIR_BYTES = 300


class _Count(argparse.Action):
    """Store an integer flag value, refusing one below `least`."""

    def __init__(self, option_strings, dest, least=1, **kwargs):
        super().__init__(option_strings, dest, type=int, **kwargs)
        self.least = least

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.least:
            raise argparse.ArgumentError(
                None, f"{self.option_strings[0]} must be an integer >= {self.least}, "
                      f"got {value}")
        setattr(namespace, self.dest, value)


class _CommandParser(argparse.ArgumentParser):
    """A command's parser; `config_args`, flag text from the config file,
    are parsed ahead of the command line's own flags, so those win."""

    config_args = ()

    def parse_known_args(self, args=None, namespace=None):
        return super().parse_known_args([*self.config_args, *args], namespace)


# every command flag: its dest and its `add_argument` keywords
_FLAGS = {
    "level": {"type": int, "default": 6, "help": "mesh level m"},
    "bc": {"choices": ["neumann", "dirichlet"], "default": "neumann",
           "help": "boundary condition"},
    "s": {"type": float, "help": "kernel order s"},
    "alpha": {"type": float, "help": "stability index in (0, 2]"},
    "jmax": {"action": _Count, "default": 200, "help": "spectral truncation"},
    "n_terms": {"action": _Count, "default": 10_000, "help": "LePage truncation N"},
    # a seed below 0 would fail in `np.random.SeedSequence`, after the work
    "seed": {"action": _Count, "least": 0, "default": 0, "help": "master seed"},
    "replicates": {"action": _Count, "default": 1, "help": "replicate count"},
    "pairs": {"action": _Count,
              "help": "emit this many sampled pairs instead of the full matrix"},
    "route": {"choices": ["lepage", "direct"], "default": "lepage",
              "help": "stable-integral route"},
    "suite": {"action": "append", "required": True,
              "help": "suite name or 'all' (repeatable)"},
    "out": {"default": "gasketfields_out", "help": "output path prefix/directory"},
}


def _build_parser():
    """The parser and the map from command name to the command's parser."""
    p = argparse.ArgumentParser(
        prog="gasketfields",
        description="Fractional stable random fields on the Sierpinski gasket")
    p.add_argument("--config", help="JSON file of flag values; explicit flags win")
    p.add_argument("--threads", action=_Count,
                   help="cap the processes of every sharded step: a field "
                        "batch's or a LePage route's draws, a CSV's rows "
                        "(BLAS runs one thread in every command)")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_CommandParser)
    for command, (_, summary, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for dest in flags:
            spec = dict(_FLAGS[dest])
            if "default" in spec:
                spec["help"] += " (default %(default)s)"
            sp.add_argument("--" + dest.replace("_", "-"), **spec)
    return p, sub.choices


def _flag_text(config, dests):
    """The `config` entries named in `dests`, as flag text; null is unset, and
    a list for `suite`, the one repeatable flag, is one flag per element."""
    return [f"--{dest.replace('_', '-')}={v}" for dest, value in config.items()
            if dest in dests and value is not None
            for v in (value if dest == "suite" and isinstance(value, list) else [value])]


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)


def _export(cfg, tally, started, files, message, **fields):
    """Write each (path, header, n, step, read) CSV file with
    `_write_shards`, `read(lo, hi)` yielding the text of source rows lo..hi
    of n in blocks of whole rows, then `<out>_meta.json`, then print
    `message`.  `main` has made the directory of `<out>`.

    The meta holds `config` (the command's flags and the version), the
    command's own `fields`, and `rows` and `bytes`, summed over the files,
    `timings`, `peak_rss_mb`, `shards` and `peak_rss_shards_mb`.  Values
    are ints and float reprs, which never need quoting, so the bytes are
    those `csv.writer` would write.  `compute_s` runs from `started` to
    this call, `write_s` covers the blocks' formatting and the writes.
    `peak_rss_mb` is this process's peak resident set size so far, in MiB:
    Linux reports `ru_maxrss` in KiB.  `shards` and `peak_rss_shards_mb`
    come from `tally`, the `shards.Tally` of the command: the most processes
    of one sharded step (a draw or a file) and the largest peak of a forked
    shard, 0 when none was forked.
    """
    written = time.perf_counter()
    rows = size = 0
    for path, header, n, step, read in files:
        rows += _write_shards(path, header, n, step, read)
        size += os.path.getsize(path)
    _write_json(f"{cfg['out']}_meta.json", {
        "config": {**cfg, "version": __version__}, **fields,
        "rows": rows, "bytes": size,
        "timings": {"compute_s": written - started,
                    "write_s": time.perf_counter() - written},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "shards": tally.shards, "peak_rss_shards_mb": tally.peak_kib / 1024})
    print(message)
    return 0


def _whole(path, header, blocks):
    """The `_export` entry of a file whose `blocks` are one piece, so one
    process formats it."""
    return path, header, 1, 1, lambda lo, hi: blocks


def _write_shards(path, header, n, step, read):
    """Write one CSV: the header line unless it is None, then the blocks
    that `read(lo, hi)` yields for source rows lo..hi of n, each a string
    of whole rows ending in "\\r\\n"; return its row count, the count of
    its "\\n"s after the header.

    The rows are formatted in contiguous shards, one process each
    (`shards.run`), at least `MIN_ROWS_PER_SHARD` rows each.  Cuts fall
    only at multiples of `step`, so every shard reads exactly the blocks
    one shard would (a one-row block can round differently from a larger
    one) and the bytes do not depend on the count.  Shard k > 0 writes
    `<path>.part<k>`; this process writes the header and shard 0, then
    appends each part.  However this ends, no part file remains, and a
    failed write leaves no file at all.
    """
    bounds = shards.cuts(n, MIN_ROWS_PER_SHARD, step)
    # shard 0 writes the file itself, shard k > 0 its part
    parts = [path] + [f"{path}.part{k}" for k in range(1, len(bounds) - 1)]

    def format_rows(k, lo, hi):
        # the shards are forked before this process opens its file
        with open(parts[k], "w", newline="") as fh:
            if header is not None and not k:
                fh.write(header + "\r\n")
            rows = 0
            for block in read(lo, hi):
                fh.write(block)
                rows += block.count("\n")
            return rows

    written = False
    try:
        rows = shards.run(bounds, format_rows, f"{path} rows")
        with open(path, "ab") as fh:
            for part in parts[1:]:
                # 1 MiB at a time, never a whole part; each row ends in one
                # "\n", so the newlines count the shard's rows
                with open(part, "rb") as src:
                    while chunk := src.read(1 << 20):
                        rows += chunk.count(b"\n")
                        fh.write(chunk)
        written = True
    finally:
        for part in parts[1:] if written else parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)
    return rows


class _Reprs(dict):
    """Memo of float reprs, filled on lookup."""

    def __missing__(self, x):
        text = self[x] = repr(x)
        return text


def _cmd_mesh(cfg, tally):
    from . import geometry

    started = time.perf_counter()
    m = cfg["level"]
    mesh = geometry.build_mesh(m)
    boundary = set(mesh.boundary.tolist())
    vertex_rows = "".join(f"{k},{x!r},{y!r},{int(k in boundary)}\r\n"
                          for k, (x, y) in enumerate(mesh.vertices.tolist()))
    corners = mesh.corner_table.reshape(-1, 3)
    cell_rows = "".join("{},{},{},{}\r\n".format("".join(map(str, addr)), *c)
                        for addr, c in zip(geometry.cell_addresses(m).tolist(),
                                           corners.tolist()))
    out = cfg["out"]
    return _export(
        cfg, tally, started,
        [_whole(f"{out}_vertices.csv", "vertex_id,x,y,is_boundary", [vertex_rows]),
         _whole(f"{out}_cells.csv", "cell_address,v0,v1,v2", [cell_rows])],
        f"mesh level {m}: {mesh.n_vertices} vertices -> {out}_*.csv",
        n_vertices=mesh.n_vertices, n_cells=len(corners))


def _cmd_spectrum(cfg, tally):
    from . import spectral

    started = time.perf_counter()
    spec = spectral.build_spectrum(cfg["level"], cfg["bc"], j_max=cfg["jmax"])
    value_rows = "".join(f"{j},{lam!r}\r\n"
                         for j, lam in enumerate(spec.eigenvalues.tolist(), start=1))

    def vector_rows(lo, hi):
        # one block per 256 vertex rows, formed from the spectrum's blocks
        # and formatted as it is written: the n x m matrix is never held
        return ("".join(",".join(map(repr, row)) + "\r\n" for row in
                        spec.eigenvectors(slice(start, start + 256)).tolist())
                for start in range(lo, hi, 256))

    out = cfg["out"]
    return _export(
        cfg, tally, started,
        [_whole(f"{out}_eigenvalues.csv", "j,lambda_j", [value_rows]),
         (f"{out}_eigenvectors.csv", None, spec.mesh.n_vertices, 256, vector_rows)],
        f"spectrum {cfg['bc']} level {cfg['level']}: {spec.n_modes} modes -> {out}_*.csv",
        n_modes=spec.n_modes, lambda_1=float(spec.eigenvalues[0]))


def _cmd_kernel(cfg, tally):
    from operator import itemgetter

    import numpy as np

    from . import geometry, riesz, spectral

    started = time.perf_counter()
    # before the spectrum is solved
    riesz.check_order(cfg["s"])
    if cfg.get("pairs"):
        errors.check_memory(
            PAIR_BYTES * cfg["pairs"], f"kernel --pairs {cfg['pairs']}",
            f"{PAIR_BYTES} bytes a pair: its a, b, d and G, their lists and its row text")
    # the full spectrum holds the modes --jmax drops, for the tail bound
    full = spectral.build_spectrum(cfg["level"], cfg["bc"])
    spec = full.truncated(cfg["jmax"])
    ev = riesz.KernelEvaluator(spec, cfg["s"])
    V = spec.mesh.vertices
    n = spec.mesh.n_vertices
    out = cfg["out"]
    path = f"{out}_kernel.csv"
    header = "xi,yi,d,G"
    if cfg.get("pairs"):
        a, b = geometry.vertex_pairs(np.random.default_rng(cfg["seed"]), n, cfg["pairs"])
        d = np.hypot(*(V[a] - V[b]).T).tolist()
        g = ev.value(a, b).tolist()
        pair_rows = "".join(f"{x},{y},{u!r},{v!r}\r\n"
                            for x, y, u, v in zip(a.tolist(), b.tolist(), d, g))
        csv_file = _whole(path, header, [pair_rows])
    else:
        # one repr per distinct distance: 2316 of them among 1.2 M pairs at L6
        dist_repr = _Reprs()
        sigma = geometry.reflection_permutation(spec.mesh, 2)
        twins = sigma.tolist()
        mirror = itemgetter(*twins)
        # a row's text as pieces: "a", ",b,", d, ",", G for each b, a line
        # after the first led by "\r\na" in place of "a", then "\r\n"
        pieces = [p for b in range(n) for p in (None, f",{b},", None, ",", None)]
        pieces.append("\r\n")

        def floats(a, g):
            # the d and G rows of vertex a, d elementwise, so the same values
            # as hypot of each pair's difference
            diff = V[a] - V
            return np.stack([np.hypot(diff[:, 0], diff[:, 1]), g])

        def kernel_rows(lo, hi):
            # each kernel row block is formatted as it is read: the n x n
            # matrix is never held.  Every mode is sigma_2-even or -odd, so
            # G(sigma a, sigma b) = G(a, b) bit for bit, and so is d on the
            # dyadic vertices: a row whose mirror comes later in its block
            # keeps its strings until the mirror (at most half a block, the
            # values as one string, the distances as pointers to the memo's), which
            # writes them permuted where its floats are the twin's permuted.
            # The bits are compared, as -0.0 == 0.0 but their reprs differ
            for x, G in ev.row_blocks(slice(lo, hi)):
                held = {}
                for a, g in zip(x.tolist(), G):
                    values = floats(a, g)
                    twin = twins[a]
                    kept = held.pop(a, None)
                    if kept is not None and np.array_equal(
                            values.view(np.int64),
                            floats(twin, G[twin - x[0]])[:, sigma].view(np.int64)):
                        dists, gs = mirror(kept[0]), mirror(kept[1].split(","))
                    else:
                        dists = list(map(dist_repr.__getitem__, values[0].tolist()))
                        gs = list(map(repr, values[1].tolist()))
                        if a < twin <= x[-1]:
                            held[twin] = dists, ",".join(gs)
                    pieces[0:-1:5] = [str(a)] + [f"\r\n{a}"] * (n - 1)
                    pieces[2::5] = dists
                    pieces[4::5] = gs
                    yield "".join(pieces)

        # cut at the row blocks of `row_blocks`
        csv_file = (path, header, n, spectral.ROW_BLOCK, kernel_rows)
    return _export(cfg, tally, started, [csv_file], f"kernel s={cfg['s']} -> {path}",
                   j_terms=spec.n_modes, tail_bound=ev.tail_bound(full))


def _cmd_stable(cfg, tally):
    from . import geometry, stable

    started = time.perf_counter()
    mesh = geometry.build_mesh(cfg["level"])
    import numpy as np

    ones = np.ones(mesh.n_vertices)
    if cfg["route"] == "lepage":
        vals = stable.lepage_replicates(ones, mesh, cfg["alpha"], cfg["n_terms"],
                                        cfg["replicates"], seed=cfg["seed"])
        tail = {"tail_estimate": stable.arrival_tail_sum(cfg["alpha"], cfg["n_terms"])}
    else:
        vals = stable.direct_replicates(ones, mesh, cfg["alpha"],
                                        cfg["replicates"], seed=cfg["seed"])
        tail = {}
    path = f"{cfg['out']}_replicates.csv"
    rows = "".join(f"{k},{v!r}\r\n" for k, v in enumerate(vals.tolist()))
    return _export(
        cfg, tally, started, [_whole(path, "replicate_id,value", [rows])],
        f"stable {cfg['route']} alpha={cfg['alpha']}: {cfg['replicates']} replicates -> {path}",
        **tail)


def _cmd_simulate(cfg, tally):
    import numpy as np

    from . import fields, spectral
    from .constants import D_H, D_W

    started = time.perf_counter()
    s, alpha, level = cfg["s"], cfg["alpha"], cfg["level"]
    # before the spectrum is solved
    fields.check_integrable(s, alpha)
    spec = spectral.build_spectrum(level, cfg["bc"], j_max=cfg["jmax"])
    seeds = range(cfg["seed"], cfg["seed"] + cfg["replicates"])
    values = fields.simulate_field(s, alpha, spec, seeds)
    path = f"{cfg['out']}.csv"
    vertex_cols = [f"{vid},{x!r},{y!r},"
                   for vid, (x, y) in enumerate(spec.mesh.vertices.tolist())]
    blocks = ("".join(f"{rep},{p}{v!r}\r\n" for p, v in zip(vertex_cols, row.tolist()))
              for rep, row in enumerate(values))
    # the noise is drawn at the mesh level; orders in (threshold, d_h/d_w]
    # have unbounded paths
    realizations = {
        "s": s, "alpha": alpha, "bc": cfg["bc"], "level": level,
        "j_terms": spec.n_modes, "noise_level": level, "seeds": list(seeds),
        "regime": "divergent" if s <= D_H / D_W else "continuous",
        "mesh_scale": 2.0 ** -level,
        "mesh_sup": np.max(np.abs(values), axis=1, initial=0.0).tolist()}
    return _export(
        cfg, tally, started, [_whole(path, "replicate_id,vertex_id,x,y,value", blocks)],
        f"simulate: {cfg['replicates']} realization(s) on level {level} -> {path}",
        realizations=realizations)


def _cmd_verify(cfg, tally):
    from . import verify

    names = {}  # each suite once, where it is first named
    for entry in cfg["suite"]:
        names.update(dict.fromkeys(sorted(verify.SUITES) if entry == "all" else [entry]))
    for name in names:
        if name not in verify.SUITES:
            raise errors.UsageError(
                f"unknown suite {name!r}; choose from {sorted(verify.SUITES)}")

    # each flag and the suite parameter it sets
    overrides = {"level": "level", "jmax": "j_terms"}

    out_dir = cfg["out"]
    all_passed = True
    for name in names:
        accepted = set(inspect.signature(verify.SUITES[name]).parameters)
        taken = [flag for flag, param in overrides.items() if param in accepted]
        report = verify.run_suite(name, **{overrides[flag]: cfg[flag] for flag in taken})
        # a report records only the flags its suite took
        report["config"] = {**{k: v for k, v in cfg.items()
                               if k not in overrides or k in taken},
                            "version": __version__}
        _write_json(os.path.join(out_dir, f"{name}.json"), report)
        status = "PASS" if report["passed"] else "FAIL"
        print(f"[{status}] suite {name}")
        for c in report["checks"]:
            mark = "ok" if c["passed"] else "FAILED"
            print(f"    {c['name']}: {mark}")
        all_passed &= report["passed"]
    return 0 if all_passed else 1


# each command: its handler, its help line and its flags
_COMMANDS = {
    "mesh": (_cmd_mesh, "export a gasket mesh as CSV", ("level", "out")),
    "spectrum": (_cmd_spectrum, "solve and export the Laplacian spectrum",
                 ("level", "bc", "jmax", "out")),
    "kernel": (_cmd_kernel, "dump Riesz kernel values",
               ("level", "bc", "s", "jmax", "seed", "pairs", "out")),
    "stable": (_cmd_stable, "emit stable-integral replicates",
               ("alpha", "n_terms", "seed", "replicates", "route", "level", "out")),
    "simulate": (_cmd_simulate, "simulate field realizations on V_m",
                 ("level", "bc", "s", "alpha", "jmax", "seed", "replicates",
                  "out")),
    "verify": (_cmd_verify, "run named verification suites",
               ("suite", "level", "jmax", "out")),
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    # the config file is read before the one parse, so an entry can supply
    # any flag of its command, a required one too
    find_config = argparse.ArgumentParser(add_help=False)
    find_config.add_argument("--config")
    try:
        path = find_config.parse_known_args(argv)[0].config
        if path:
            try:
                with open(path) as fh:
                    config = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                parser.error(f"cannot read config {path}: {exc}")
            if not isinstance(config, dict):
                parser.error(f"config {path} is not a JSON object")
            for command, command_parser in commands.items():
                command_parser.config_args = _flag_text(config, _COMMANDS[command][2])
            argv = _flag_text(config, ("threads",)) + argv
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    # one BLAS thread whatever was inherited, so no output depends on the
    # machine or on --threads (importing the package loads no numpy)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    # the command's own flags, minus unset ones
    cfg = {k: v for k, v in vars(args).items()
           if v is not None and k not in ("config", "threads")}

    try:
        # --s and --alpha have no default: a command that takes one needs it
        for dest in ("s", "alpha"):
            if dest in _COMMANDS[args.command][2] and dest not in cfg:
                raise errors.UsageError(f"{args.command} requires --{dest}")
        # the output directory, before any work: `--out` itself for verify,
        # the directory of the `--out` prefix for an export
        out = cfg["out"] if args.command == "verify" else os.path.dirname(cfg["out"])
        try:
            os.makedirs(out or ".", exist_ok=True)
        except OSError as exc:
            raise errors.UsageError(f"cannot make the output directory: {exc}") from exc
        with shards.limit(args.threads) as tally:
            return _COMMANDS[args.command][0](cfg, tally)
    except (errors.UsageError, errors.DomainError, errors.ContractError,
            errors.CapacityError, errors.ResolutionError, MemoryError,
            ChildProcessError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except errors.NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
