"""Fractional stable random fields on the Sierpinski gasket.

Builds finite gasket approximations, solves the renormalized-energy
eigenproblem under Neumann or Dirichlet boundary conditions, evaluates
heat and fractional Riesz kernels spectrally, simulates symmetric
alpha-stable fields on exact cell noise and LePage stable integrals, and
verifies the governing scaling, symmetry and regularity laws at desk scale.

The names below load their module on first access, so importing the
package does not load numpy; the CLI sets its BLAS thread variables
before that happens.
"""

import importlib

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "constants": ("D_H", "D_W"),
    "geometry": ("build_mesh", "sample_mu", "quadrature"),
    "spectral": ("assemble_form", "solve_spectrum", "build_spectrum", "heat_kernel"),
    "riesz": ("KernelEvaluator", "fractional_laplacian_inv"),
    "stable": ("standard_stable", "d_alpha", "make_draw"),
    "fields": ("simulate_field", "distributional_field", "hurst_index"),
}
# exported name -> defining module
_EXPORTS = {name: mod for mod, names in _MODULE_EXPORTS.items() for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
