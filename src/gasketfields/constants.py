"""Dimensional constants of the standard Sierpinski gasket."""

import numpy as np

from .errors import DomainError

# Hausdorff dimension ln3/ln2 and walk dimension ln5/ln2.
D_H = np.log(3.0) / np.log(2.0)
D_W = np.log(5.0) / np.log(2.0)


def check_alpha(alpha, series=False):
    """Reject alpha outside (0, 2], or outside (0, 2) for the LePage `series`."""
    if not 0.0 < alpha <= 2.0 or series and alpha == 2.0:
        raise DomainError(f"alpha {alpha} outside (0, 2{')' if series else ']'}")


def integrability_threshold(alpha):
    """Smallest admissible kernel order for an alpha-stable driving noise.

    The pointwise field exists iff s > max((alpha-1)*d_h/(alpha*d_w), 0).
    """
    return max((alpha - 1.0) * D_H / (alpha * D_W), 0.0)
