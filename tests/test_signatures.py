"""Signature guards: the Spectrum passed in is the only truncation, a
spectrum or kernel evaluator already carries its mesh and boundary
condition, only the Spectrum forms dense eigenvector rows, a field's noise
has no LePage truncation, two noise builders place sites on the mesh
(`lepage_replicates` turns every LePage draw into point masses,
`fields._noise_coefficients` sums a field's cell noise), one check guards
the alpha domain, one the kernel order and one the physical memory, verify
reads fields at vertex sets, a kernel row is read by `matrix`, the CLI cuts
kernel CSVs at the spectrum's row blocks, and a suite takes only the
parameters some caller sets."""

import ast
import inspect
from pathlib import Path

import numpy as np

from gasketfields import analysis, fields, riesz, spectral, verify

MODULES = (spectral, riesz, fields)
# the only places that choose how many modes a spectral sum keeps
TRUNCATION_SETTERS = {"spectral.build_spectrum", "spectral.Spectrum.truncated",
                      "spectral.Spectrum.truncation"}
CARRIERS = {"spectrum", "spec", "ev", "evaluator"}
# (module, function) of the one dense eigenvector read outside spectral.py:
# the eigenvector CSV export, in the shard reader of `_cmd_spectrum`
EIGENVECTOR_READERS = {("cli", "vector_rows")}
# the parameters of each suite that the CLI, the benchmark or a test sets;
# every other value of a suite is fixed in its body
SUITE_PARAMETERS = {
    "ahlfors": {"level"},
    "spectral": {"level"},
    "semigroup": {"level", "j_terms", "seed"},
    "kernel-bounds": {"level", "j_terms", "seed"},
    "kernel-holder": {"levels", "j_terms", "seed"},
    "symmetry": {"level", "j_terms", "n_seeds", "seed0"},
    "scaling": {"level", "j_terms", "n_seeds", "seed0"},
    "stable-cf": {"n", "seed"},
    "lepage-vs-direct": {"level", "j_terms", "n_terms", "n", "seed0"},
    "field-marginals": {"level", "j_terms", "n_seeds", "seed0"},
    "holder-paths": {"level", "n_reps", "seed0"},
    "divergence": {"n_seeds"},
}


def _signatures():
    """(qualified name, parameter names) of every function and method
    defined in the guarded modules."""
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", set(inspect.signature(obj).parameters)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield (f"{short}.{name}.{attr}",
                               set(inspect.signature(member).parameters))


def test_signatures_are_found():
    names = {name for name, _ in _signatures()}
    assert {"spectral.build_spectrum", "riesz.KernelEvaluator.__init__",
            "fields.simulate_field", "riesz.kernel_holder_ratio"} <= names


def test_only_the_spectrum_sets_the_truncation():
    offenders = [name for name, params in _signatures()
                 if params & {"j_terms", "j_max"} and name not in TRUNCATION_SETTERS]
    assert offenders == []


def test_no_mesh_or_bc_next_to_a_spectrum():
    offenders = [name for name, params in _signatures()
                 if params & CARRIERS and params & {"mesh", "bc"}]
    assert offenders == []


def _sites(matches, skip=()):
    """(module, innermost enclosing function or class) of every syntax node
    of the package for which `matches(node)` holds, outside the modules
    named in `skip`."""
    found = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        if matches(node):
            found.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        if path.stem not in skip:
            visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_only_the_spectrum_reads_its_eigenvectors():
    # every spectral sum is a Spectrum method; the CSV export is the one
    # reader of dense eigenvector rows outside spectral.py, and the block
    # storage is read nowhere else
    reads = _sites(lambda node: isinstance(node, ast.Attribute)
                   and node.attr == "eigenvectors", skip=("spectral",))
    assert reads == EIGENVECTOR_READERS
    assert _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "blocks",
                  skip=("spectral",)) == set()


def _calls(name):
    """Matcher for call nodes of a function or method called `name`."""
    def matches(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and name in (
            getattr(func, "id", None), getattr(func, "attr", None))
    return matches


def test_one_noise_builder():
    # every LePage draw, all of them stable integrals, comes from make_draw
    # in the shard body of `lepage_replicates`, which places its sites on
    # the mesh and forms its weights; a field's noise is the cell draw, the
    # only other reader of the site placement
    builder = ("stable", "integrate")
    assert _sites(_calls("make_draw")) == {builder}
    assert _sites(_calls("site_vertices")) == {builder,
                                               ("fields", "_noise_coefficients")}
    assert _sites(_calls("draw_sites")) == {("stable", "make_draw")}
    # the one function whose shard body is called `integrate`
    assert _sites(lambda node: isinstance(node, ast.FunctionDef) and any(
        isinstance(inner, ast.FunctionDef) and inner.name == "integrate"
        for inner in node.body)) == {("stable", "lepage_replicates")}
    assert "lepage_replicates" in __doc__


def test_one_alpha_domain_check():
    # the "outside (0, 2]" and "outside (0, 2)" messages are raised only by
    # constants.check_alpha
    raises = _sites(lambda node: isinstance(node, ast.Raise)
                    and "outside (0, 2" in ast.unparse(node))
    assert raises == {("constants", "check_alpha")}


def test_one_kernel_order_check():
    # an order is refused as not positive or not finite only by
    # riesz.check_order, which `fields.check_integrable` calls too; the
    # order-0 identity of `fractional_laplacian_inv` checks [0, inf) itself
    def refuses_order(node):
        text = ast.unparse(node) if isinstance(node, ast.Raise) else ""
        return "order" in text and ("positive" in text or "not finite" in text)

    assert _sites(refuses_order) == {("riesz", "check_order")}
    assert ("fields", "check_integrable") in _sites(_calls("check_order"))


def test_one_memory_check():
    # the physical-memory probe is read, and CapacityError raised, only by
    # errors.check_memory, apart from the MAX_LEVEL refusal of build_mesh
    probe = _sites(lambda node: "_physical_memory" in (getattr(node, "id", None),
                                                       getattr(node, "attr", None)))
    assert probe == {("errors", "check_memory")}
    assert _sites(_calls("CapacityError")) == {("errors", "check_memory"),
                                               ("geometry", "build_mesh")}


def test_kernel_rows_are_read_by_matrix():
    # `KernelEvaluator.row` is an alias of `matrix` that no package code calls
    assert riesz.KernelEvaluator.row is riesz.KernelEvaluator.matrix
    assert _sites(_calls("row")) == set()


def test_cli_has_no_row_block_literal():
    # the kernel CSV is cut at `spectral.ROW_BLOCK`, named once
    tree = ast.parse((Path(spectral.__file__).parent / "cli.py").read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value == 64]


def test_field_noise_is_read_at_vertex_sets():
    # the field noise has one reader, the batched field, and verify reads a
    # field at its vertices through `vertices`, never by slicing the columns
    # of a whole-field batch
    assert _sites(_calls("_noise_coefficients")) == {("fields", "simulate_field")}
    column_reads = _sites(lambda node: isinstance(node, ast.Subscript)
                          and isinstance(node.value, ast.Attribute)
                          and node.value.attr == "values"
                          and isinstance(node.slice, ast.Tuple))
    assert {site for site in column_reads if site[0] == "verify"} == set()


def test_one_export_tail():
    # every export writes its CSVs and its meta through `_export`; the
    # verify reports are the one other JSON the CLI writes
    assert _sites(_calls("_write_json")) == {("cli", "_export"), ("cli", "_cmd_verify")}
    assert _sites(_calls("_write_shards")) == {("cli", "_export")}


def test_fields_take_no_lepage_truncation():
    assert [name for name, params in _signatures()
            if name.startswith("fields.") and "n_terms" in params] == []


def test_kernel_evaluator_holds_no_eigenvectors():
    spec = spectral.build_spectrum(2, spectral.NEUMANN)
    ev = riesz.KernelEvaluator(spec, 0.9)
    assert not hasattr(ev, "phi")
    # its arrays hold one value per mode at most, never n x m eigenvector values
    arrays = [v for v in vars(ev).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.size < spec.mesh.n_vertices * spec.n_modes for a in arrays)
    tree = ast.parse(inspect.getsource(riesz.KernelEvaluator))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "phi"]


def test_suites_take_only_the_parameters_a_caller_sets():
    taken = {name: set(inspect.signature(suite).parameters)
             for name, suite in verify.SUITES.items()}
    assert taken == SUITE_PARAMETERS
    assert sum(map(len, taken.values())) == 34


def test_helpers_fix_their_one_value():
    # no caller sets these, so each is a fixed value of its function
    for func, fixed in ((analysis.cf_gof, "u_grid"), (analysis.two_sample, "min_size"),
                        (analysis.holder_exponent_estimate, "tolerance"),
                        (riesz.kernel_holder_ratio, "n_z"),
                        (riesz.dyadic_pair_bins, "max_pairs_per_bin")):
        assert fixed not in inspect.signature(func).parameters, func.__name__
