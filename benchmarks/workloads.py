"""The four benchmark workloads and the output checks behind `failed`.

Each workload is a closed loop with one caller in one process: a list of
operations, each one `verify.run_suite(name, **params)` or one
`cli.main(argv)` call, run in order.  An operation fails if it raises, if
a CLI command exits non-zero, or if an exact output check fails.  Exact
checks are ones that would fail if the maths were wrong and that no
change of random stream can flip.  Sampling verdicts (KS tests, CF bands,
regression fits) are reported by name and never fail an operation.

Sample counts are sized to fit the run budget but never go below a
suite's own guards (`two_sample` needs 500 points, `cf_gof` 1000); every
other suite parameter stays at its default.
"""

import contextlib
import fnmatch
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, field

from gasketfields import cli, verify

NEUMANN, DIRICHLET = "neumann", "dirichlet"


@dataclass
class Outcome:
    """What the benchmark learned from one operation's output."""
    failures: list = field(default_factory=list)   # exact checks that failed
    verdicts_failed: list = field(default_factory=list)  # sampling verdicts
    checks_run: int = 0
    csv_bytes: int = 0
    csv_lines: int = 0
    digest: object = None     # suite report or CSV digests, for comparisons


@dataclass
class Op:
    """One operation: `call(workdir)` is timed, `check(result, workdir)` is not."""
    name: str
    params: dict
    call: object
    check: object
    realizations: int = 0
    lepage_terms: int = 0


@dataclass
class Workload:
    name: str
    why: str
    spectra: tuple            # (level, bc, truncation) built by the set-up
    setup_reps: int
    make_ops: object          # seed -> list of Op
    min_passes: int = 1       # measured passes made even past `seconds`


def derived_seed(seed, label):
    """Suite or CLI seed drawn from the workload seed, stable across runs."""
    return random.Random(f"{seed}:{label}").randrange(1 << 30)


# ---------------------------------------------------------------- suites

def _finite(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return math.isfinite(value)


def suite_op(name, params, exact=(), expected=(), realizations=0,
             lepage_terms=0):
    """Run one verify suite.

    `exact` holds check-name patterns that must each match a check and
    pass; `expected` lists check names the report must carry.  Every
    check value must be finite.
    """
    def call(workdir):
        return verify.run_suite(name, **params)

    def check(report, workdir):
        out = Outcome(checks_run=len(report["checks"]), digest=report)
        names = [c["name"] for c in report["checks"]]
        if not names:
            out.failures.append(f"{name}: report carries no checks")
        for missing in sorted(set(expected) - set(names)):
            out.failures.append(f"{name}: check {missing} missing")
        for c in report["checks"]:
            if not _finite(c["value"]):
                out.failures.append(f"{name}: {c['name']} has a non-finite value")
        for pattern in exact:
            hits = [c for c in report["checks"] if fnmatch.fnmatchcase(c["name"], pattern)]
            if not hits:
                out.failures.append(f"{name}: no check matches {pattern}")
            out.failures.extend(f"{name}: exact check {c['name']} failed"
                                for c in hits if not c["passed"])
        is_exact = lambda n: any(fnmatch.fnmatchcase(n, p) for p in exact)
        out.verdicts_failed = [f"{name}:{c['name']}" for c in report["checks"]
                               if not c["passed"] and not is_exact(c["name"])]
        return out

    return Op(f"verify.{name}", {"suite": name, "params": params}, call, check,
              realizations, lepage_terms)


def field_sim_ops(seed):
    """Suites whose realizations are each one `make_draw` + one field."""
    level, n_seeds, marginal_seeds, n_reps, divergence_seeds = 6, 500, 100, 20, 10
    holder_cells = ((2.0, 1.0), (1.5, 0.8), (1.2, 1.3))
    return [
        suite_op("symmetry", {"level": level, "n_seeds": n_seeds,
                              "seed0": derived_seed(seed, "symmetry")},
                 exact=("kernel_reflection_sigma0", "kernel_reflection_sigma1",
                        "kernel_reflection_sigma2"),
                 expected=("fdd_marginal_x1", "fdd_marginal_x2", "fdd_pair_sum",
                           "fdd_pair_diff"),
                 realizations=2 * n_seeds),
        suite_op("field-marginals", {"level": level, "n_seeds": marginal_seeds,
                                     "seed0": derived_seed(seed, "field-marginals")},
                 exact=("neumann_mean_zero", "dirichlet_boundary_zero"),
                 expected=("marginal_ks_neumann", "marginal_ks_dirichlet",
                           "duality_cf_u=0.5", "duality_cf_u=1.0",
                           "duality_cf_u=2.0"),
                 realizations=2 * marginal_seeds + 20),
        suite_op("scaling", {"level": level, "n_seeds": n_seeds,
                             "seed0": derived_seed(seed, "scaling")},
                 expected=("subcell_kernel_identity", "fdd_scaling_alpha=1.5",
                           "fdd_scaling_alpha=2.0"),
                 realizations=4 * n_seeds),
        suite_op("holder-paths", {"level": level, "n_reps": n_reps,
                                  "seed0": derived_seed(seed, "holder-paths")},
                 expected=tuple(f"holder_alpha={a}_s={s}" for a, s in holder_cells),
                 realizations=len(holder_cells) * n_reps),
        suite_op("divergence", {"n_seeds": divergence_seeds},
                 expected=("divergent_growth", "control_stability"),
                 realizations=2 * 3 * divergence_seeds),
    ]


def lepage_routes_ops(seed):
    """Vectorized LePage and direct stable routes; no draw, snap or field."""
    level, n, stable_n = 6, 500, 100_000
    n_terms, cells = 10_000, 4 * 3   # suite defaults: 4 alphas x 3 functions
    return [
        suite_op("lepage-vs-direct", {"level": level, "n": n,
                                      "seed0": derived_seed(seed, "lepage-vs-direct")},
                 lepage_terms=n_terms * n * cells),
        suite_op("stable-cf", {"n": stable_n, "seed": derived_seed(seed, "stable-cf")},
                 exact=("d_alpha=*",)),
        suite_op("ahlfors", {"level": level}),
    ]


def spectrum_ops(seed):
    """Suites that read the full level-7 spectra built by the set-up."""
    level, n_reps = 7, 20
    return [
        suite_op("spectral", {"level": level},
                 exact=("neumann_mass_*", "dirichlet_corner_rows")),
        suite_op("semigroup", {"level": level, "seed": derived_seed(seed, "semigroup")},
                 exact=("composition_*", "spectral_vs_kernel_*", "conv_residual_*")),
        suite_op("kernel-bounds", {"level": level,
                                   "seed": derived_seed(seed, "kernel-bounds")}),
        suite_op("kernel-holder", {"levels": (level - 2, level - 1, level),
                                   "seed": derived_seed(seed, "kernel-holder")}),
        suite_op("holder-paths", {"level": level, "n_reps": n_reps,
                                  "seed0": derived_seed(seed, "holder-paths")},
                 realizations=3 * n_reps),
    ]


# ------------------------------------------------------------------- CLI

def _scan_csv(path):
    """(bytes, lines, sha256) of one CSV file, read in chunks."""
    h, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return os.path.getsize(path), lines, h.hexdigest()


def _n_vertices(level):
    return (3 ** (level + 1) + 3) // 2


def cli_op(command, argv, files, extra_check=None):
    """Run `cli.main(argv)`; "{out}" in argv is the work directory.

    `files` are the CSVs the command must write, relative to the work
    directory; `extra_check(scans, workdir)` gets their (bytes, lines,
    sha256) by name and returns failure messages.
    """
    def call(workdir):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([a.replace("{out}", workdir) for a in argv])

    def check(code, workdir):
        out = Outcome(digest={"exit": code})
        if code != 0:
            out.failures.append(f"cli {command}: exit code {code}")
            return out
        scans = {}
        for rel in files:
            path = os.path.join(workdir, rel)
            if not os.path.isfile(path):
                out.failures.append(f"cli {command}: {rel} not written")
                continue
            scans[rel] = _scan_csv(path)
            out.csv_bytes += scans[rel][0]
            out.csv_lines += scans[rel][1]
            out.digest[rel] = scans[rel][2]
        if extra_check is not None and not out.failures:
            out.failures.extend(f"cli {command}: {msg}"
                                for msg in extra_check(scans, workdir))
        return out

    return Op(f"cli.{command}", {"argv": argv}, call, check)


def _ascending_eigenvalues(scans, workdir):
    with open(os.path.join(workdir, "spec_eigenvalues.csv")) as fh:
        values = [float(line.split(",")[1]) for line in list(fh)[1:]]
    if not values or any(b < a for a, b in zip(values, values[1:])):
        return ["eigenvalue CSV is not ascending"]
    return []


def _line_count(rel, expected):
    def check(scans, workdir):
        lines = scans[rel][1]
        return [] if lines == expected else [f"{rel} has {lines} lines, expected {expected}"]
    return check


def _identical_to(earlier, rel):
    """The CSV `rel` must equal the one an earlier operation wrote."""
    def check(scans, workdir):
        same = _scan_csv(os.path.join(workdir, earlier))[2] == scans[rel][2]
        return [] if same else [f"equal-seed outputs {earlier} and {rel} differ"]
    return check


def cli_export_ops(seed, level=6, stable_replicates=500, sim_replicates=20):
    """Every exporting CLI command, with the kernel as the full matrix."""
    lv = ["--level", str(level)]
    stable_seed = str(derived_seed(seed, "cli-stable"))
    sim = ["simulate", "--alpha", "1.5", "--s", "0.9", *lv, "--replicates",
           str(sim_replicates), "--seed", str(derived_seed(seed, "cli-simulate"))]
    return [
        cli_op("mesh", ["mesh", *lv, "--out", "{out}/mesh"],
               ("mesh_vertices.csv", "mesh_cells.csv"),
               _line_count("mesh_vertices.csv", _n_vertices(level) + 1)),
        cli_op("spectrum", ["spectrum", *lv, "--out", "{out}/spec"],
               ("spec_eigenvalues.csv", "spec_eigenvectors.csv"),
               _ascending_eigenvalues),
        cli_op("kernel", ["kernel", *lv, "--s", "0.9", "--out", "{out}/kern"],
               ("kern_kernel.csv",),
               _line_count("kern_kernel.csv", _n_vertices(level) ** 2 + 1)),
        cli_op("stable", ["stable", "--alpha", "1.5", "--replicates",
                          str(stable_replicates), "--seed", stable_seed, *lv,
                          "--out", "{out}/stab"],
               ("stab_replicates.csv",),
               _line_count("stab_replicates.csv", stable_replicates + 1)),
        cli_op("simulate", sim + ["--out", "{out}/simA"], ("simA.csv",)),
        cli_op("simulate", sim + ["--out", "{out}/simB"], ("simB.csv",),
               _identical_to("simA.csv", "simB.csv")),
    ]


WORKLOADS = {
    "field-sim": Workload(
        "field-sim",
        "level-6 symmetry, field-marginals, scaling, holder-paths, divergence; "
        "each realization is make_draw + simulate_field; stresses stable, "
        "geometry.snap, fields; bypasses lepage_replicates",
        ((6, NEUMANN, 200), (6, DIRICHLET, 200), (6, NEUMANN, None),
         (4, NEUMANN, None), (5, NEUMANN, None)),
        3, field_sim_ops),
    "lepage-routes": Workload(
        "lepage-routes",
        "level-6 lepage-vs-direct, stable-cf, ahlfors; stresses the vectorized "
        "stable.lepage_replicates route; bypasses make_draw, snap and fields",
        ((6, NEUMANN, 200),),
        3, lepage_routes_ops),
    # one set-up per run: the two level-7 solves take 20-26 s on a 2-vCPU VM
    # with one BLAS thread; three short passes instead of one long one, so
    # run_s is a median
    "spectrum-L7": Workload(
        "spectrum-L7",
        "cold full level-7 spectra, then spectral, semigroup, kernel-bounds, "
        "kernel-holder, holder-paths at level 7; stresses the eigensolve and "
        "kernels; bypasses lepage_replicates",
        ((7, NEUMANN, None), (7, DIRICHLET, None), (7, NEUMANN, 200),
         (7, DIRICHLET, 200), (5, NEUMANN, 200), (6, NEUMANN, 200)),
        1, spectrum_ops, min_passes=3),
    "cli-export": Workload(
        "cli-export",
        "cli mesh, spectrum, full-matrix kernel, stable, simulate twice at "
        "level 6 into a temporary directory; stresses cli CSV writing; "
        "bypasses verify and analysis",
        ((6, NEUMANN, 200),),
        3, cli_export_ops),
}
