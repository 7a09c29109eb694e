"""Signature guards: the Spectrum passed in is the only truncation, and a
spectrum or kernel evaluator already carries its mesh and boundary
condition."""

import inspect

from gasketfields import fields, riesz, spectral

MODULES = (spectral, riesz, fields)
# the only places that choose how many modes a spectral sum keeps
TRUNCATION_SETTERS = {"spectral.build_spectrum", "spectral.Spectrum.truncated",
                      "spectral.Spectrum.truncation"}
CARRIERS = {"spectrum", "spec", "ev", "evaluator"}


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
