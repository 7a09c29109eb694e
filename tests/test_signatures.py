"""Signature guards: the Spectrum passed in is the only truncation, a
spectrum or kernel evaluator already carries its mesh and boundary
condition, only the Spectrum forms dense eigenvector rows, a field's noise
has no LePage truncation, two noise builders place sites on the mesh
(`lepage_replicates` turns every LePage draw into point masses,
`fields._noise_coefficients` sums a field's cell noise), one check guards
the alpha domain, one the kernel order and one the physical memory, fields
return arrays and analysis returns statistics (verify decides every
verdict, and runs every exact-law KS test in one builder), verify reads
fields at vertex sets, a field law is tested on one
batch against its exact law (symmetry and scaling draw one batch each, and
no suite draws a distributional or direct sample or runs a two-sample test),
a kernel row is read by `matrix`, the CLI makes its output directory in
one place and cuts kernel CSVs at the spectrum's row blocks, a suite
takes only the parameters some caller sets, `run_suite` alone builds
a report, whose `params` hold every parameter at the value it ran with,
one function draws distinct vertex pairs and one takes the max increment
per dyadic scale, the Spectrum's dense rows are formed by its sums alone,
and the base 5/3 of the energy renormalization is written once."""

import ast
import functools
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
    "lepage-vs-direct": {"level", "n_terms", "n", "seed0"},
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


FIELD_DRAWS = ("simulate_field", "scaled_subcell_field")


def _column_reads_of_whole_batches(tree):
    """Column slices x[..., c] of a field batch in each function of `tree`:
    of a field call itself, or of a name bound to one that the function
    never reads whole (a batch read whole elsewhere needs every column)."""
    def is_draw(node):
        return any(_calls(name)(node) for name in FIELD_DRAWS)

    found = []
    for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        nodes = list(ast.walk(func))
        batches = {node.targets[0].id for node in nodes if isinstance(node, ast.Assign)
                   and isinstance(node.targets[0], ast.Name) and is_draw(node.value)}
        subscripted = {id(node.value) for node in nodes if isinstance(node, ast.Subscript)}
        whole = {node.id for node in nodes if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load) and id(node) not in subscripted}
        found += [(func.name, ast.unparse(node)) for node in nodes
                  if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                  and (is_draw(node.value) or isinstance(node.value, ast.Name)
                       and node.value.id in batches - whole)]
    return found


def test_field_noise_is_read_at_vertex_sets():
    # the field noise has one reader, the batched field, and verify reads a
    # field at its vertices through `vertices`, never by slicing the columns
    # of a whole-field batch that it does not otherwise read whole
    assert _sites(_calls("_noise_coefficients")) == {("fields", "simulate_field")}
    tree = ast.parse((Path(spectral.__file__).parent / "verify.py").read_text())
    assert _column_reads_of_whole_batches(tree) == []


def test_analysis_returns_statistics_and_fields_return_arrays():
    # verify decides every verdict and sets every bound: no analysis function
    # builds a `passed` or `threshold` entry, field, keyword or name
    tree = ast.parse(Path(analysis.__file__).read_text())
    named = {getattr(node, attr, None) for node in ast.walk(tree)
             for attr in ("id", "attr", "arg", "value")}
    assert not {"passed", "threshold"} & named
    # and a field batch is its values, one row per seed
    spec = spectral.build_spectrum(2, spectral.NEUMANN)
    for values in (fields.simulate_field(0.9, 1.5, spec, [0, 1]),
                   fields.scaled_subcell_field((1,), 0.9, 1.5, spec, [0, 1])):
        assert type(values) is np.ndarray and values.shape == (2, spec.mesh.n_vertices)


def _field_draws(function):
    """(called name, enclosing loop targets) of each field batch that
    `function` draws, in source order."""
    found = []

    def visit(node, loops):
        if isinstance(node, ast.For):
            loops = loops + (ast.unparse(node.target),)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in FIELD_DRAWS:
            found.append((node.func.attr, loops))
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(ast.parse(inspect.getsource(function)), ())
    return found


def test_one_sample_per_field_law():
    # symmetry draws one batch, at the reflected vertices, and scaling one
    # subcell batch per alpha; each is tested against the exact SaS law
    assert _field_draws(verify.suite_symmetry) == [("simulate_field", ())]
    assert _field_draws(verify.suite_scaling) == [("scaled_subcell_field", ("alpha",))]
    # duality reads the exact scale of <f, field>, not a second sampler
    assert _sites(_calls("distributional_field")) == set()
    # and the LePage routes are tested against the exact law of each cell:
    # no suite draws a direct sample or runs a two-sample test
    for name in ("two_sample", "direct_replicates"):
        assert {site for site in _sites(_calls(name)) if site[0] == "verify"} == set()
    assert ("verify", "suite_lepage_vs_direct") in _sites(_calls("_exact_law"))


def test_one_exact_law_builder():
    # verify calls `one_sample_ks` at one site, in the exact-law builder,
    # which alone reads a p-value; every suite with a KS check calls it
    tree = ast.parse((Path(spectral.__file__).parent / "verify.py").read_text())
    assert len([node for node in ast.walk(tree) if _calls("one_sample_ks")(node)]) == 1
    assert {site for site in _sites(_calls("one_sample_ks"))
            if site[0] == "verify"} == {("verify", "_exact_law")}
    assert len([node for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and node.value == "p_value"]) == 1
    assert {site for site in _sites(_calls("_exact_law")) if site[0] == "verify"} == {
        ("verify", f"suite_{name}") for name in
        ("symmetry", "scaling", "lepage_vs_direct", "field_marginals")}


def test_one_export_tail():
    # every export writes its CSVs and its meta through `_export`; the
    # verify reports are the one other JSON the CLI writes
    assert _sites(_calls("_write_json")) == {("cli", "_export"), ("cli", "_cmd_verify")}
    assert _sites(_calls("_write_shards")) == {("cli", "_export")}
    # and `main` alone makes the output directory, before the command runs
    assert _sites(_calls("makedirs")) == {("cli", "main")}


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
    assert sum(map(len, taken.values())) == 33


def test_run_suite_alone_builds_reports():
    # a suite returns its checks and the values it fixes: no suite calls a
    # report builder, and only `run_suite` writes a `params` entry
    for suite in verify.SUITES.values():
        assert not [node for node in ast.walk(ast.parse(inspect.getsource(suite)))
                    if _calls("_report")(node)], suite.__name__
    writes_params = _sites(lambda node: isinstance(node, ast.Dict) and any(
        isinstance(key, ast.Constant) and key.value == "params" for key in node.keys))
    assert {site for site in writes_params if site[0] == "verify"} == {
        ("verify", "run_suite")}


def _returning(suite, returned):
    """`suite`, appending what each call returns to `returned`."""
    @functools.wraps(suite)
    def call(**kwargs):
        returned.append(suite(**kwargs))
        return returned[-1]
    return call


def test_reports_hold_every_parameter_at_its_value(monkeypatch, small_suites):
    # what a replay from a report needs: its `params` hold each parameter of
    # the suite at the value it ran with, a default too, and then the values
    # the suite fixes, which share no name with a parameter
    assert sorted(small_suites) == sorted(verify.SUITES)
    for name, overrides in small_suites.items():
        suite, returned = verify.SUITES[name], []
        monkeypatch.setitem(verify.SUITES, name, _returning(suite, returned))
        report = verify.run_suite(name, **overrides)
        [(checks, fixed)] = returned
        parameters = inspect.signature(suite).parameters
        assert not set(fixed) & set(parameters), name
        ran_with = {p: overrides.get(p, parameters[p].default) for p in parameters}
        assert report == {"suite": name, "params": {**ran_with, **fixed},
                          "checks": checks,
                          "passed": all(c["passed"] for c in checks)}, name


def test_helpers_fix_their_one_value():
    # no caller sets these, so each is a fixed value of its function
    for func, fixed in ((analysis.cf_gof, "u_grid"), (analysis.two_sample, "min_size"),
                        (analysis.holder_exponent_estimate, "tolerance"),
                        (riesz.kernel_holder_ratio, "n_z"),
                        (riesz.dyadic_pair_bins, "max_pairs_per_bin")):
        assert fixed not in inspect.signature(func).parameters, func.__name__


def test_one_vertex_pair_draw():
    # distinct vertex pairs are drawn by `geometry.vertex_pairs` alone, in one
    # vectorised draw, never by a `rng.choice(n, 2, replace=False)` per pair
    def draws_one_pair(node):
        return (_calls("choice")(node) and len(node.args) > 1
                and ast.unparse(node.args[1]) == "2")

    assert _sites(draws_one_pair) == set()
    assert not hasattr(verify, "_vertex_pairs")
    assert _sites(_calls("vertex_pairs")) == {
        ("cli", "_cmd_kernel"), ("verify", "suite_spectral"),
        ("verify", "suite_semigroup"), ("verify", "suite_scaling")}


def test_one_increment_loop():
    # the max increment over the level-j cell mates is taken in one loop,
    # `analysis.max_increments_by_scale`; the kernel Hoelder ratio reads its
    # columns, and the other reader of `level_edges` only bins pairs
    assert _sites(lambda node: getattr(node, "attr", None) == "level_edges") == {
        ("analysis", "max_increments_by_scale"), ("riesz", "dyadic_pair_bins")}
    assert ("riesz", "kernel_holder_ratio") in _sites(_calls("max_increments_by_scale"))
    assert ("riesz", "kernel_holder_ratio") not in _sites(_calls("dyadic_pair_bins"))


def test_dense_rows_are_formed_by_three_methods():
    # `sup_norm` reads `eigenvectors`; block rows P y are formed only where
    # the mode families are walked: `eigenvectors`, `value`, `row_blocks`
    # and, for its coefficient products, `apply`
    walks = {scope for module, scope in _sites(
        lambda node: getattr(node, "attr", None) == "_parts") if module == "spectral"}
    assert walks == {"eigenvectors", "value", "row_blocks", "apply"}
    assert ("spectral", "sup_norm") in _sites(_calls("eigenvectors"))


def test_one_energy_renormalization():
    # the base 5/3 of the renormalization (5/3)^m is written once, as
    # `spectral.RENORMALIZATION_BASE`, which the stiffness and the
    # eigenvalues read
    def five_thirds(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and ast.unparse(node) == "5.0 / 3.0")

    sources = Path(spectral.__file__).parent.glob("*.py")
    assert sum(five_thirds(node) for path in sources
               for node in ast.walk(ast.parse(path.read_text()))) == 1
    assert _sites(five_thirds) == {("spectral", None)}
    assert _sites(lambda node: getattr(node, "id", None) == "RENORMALIZATION_BASE") == {
        ("spectral", None), ("spectral", "assemble_form"), ("spectral", "_solve_block")}
