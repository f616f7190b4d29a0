"""Numerical laboratory for fractional Schrodinger means and their maximal operators."""

from schromax.spectral import (
    GridSpec,
    SpectralFunction1D,
    GridFunction1D,
    forward_transform,
    inverse_transform,
    propagate,
    make_bandlimited_random,
)

__all__ = [
    "GridSpec",
    "SpectralFunction1D",
    "GridFunction1D",
    "forward_transform",
    "inverse_transform",
    "propagate",
    "make_bandlimited_random",
]

__version__ = "0.1.0"
