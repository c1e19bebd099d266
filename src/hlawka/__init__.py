"""Zeta functions of star-shaped planar regions.

For a region bounded by a positive radial curve r(theta), each nonzero
lattice point (m, n) has a dilation time t(m, n) = |(m, n)| / r(theta(m, n)),
the scale at which the expanding region first reaches it.  This package
computes the associated Dirichlet-type series

    Z_r(s) = sum over (m, n) != 0 of t(m, n)^(-2s),

extracts the exact spectrum of dilation times with multiplicities, provides
rapidly convergent analytic continuations (incomplete-gamma splitting),
reconstructs Z_r from Fourier data of r^(2s) combined with twisted lattice
sums, inverts the series back into point counts, and verifies the functional
equations these objects satisfy.
"""

from .errors import (
    DivergenceError,
    NumericError,
    OverflowSignal,
    PoleError,
    ShapeSpecError,
    ValidationError,
)
from .results import EvalResult
from .shapes import (
    IwasawaCoords,
    Mat2,
    RadialShape,
    act,
    area,
    cartan_decompose,
    iwasawa_decompose,
    parse_shape,
    theta_g,
)
from .lattice import LatticePoint, Spectrum, build_spectrum, count_points
from .zeta import (
    QuadForm2,
    classical_eisenstein,
    eisenstein_fq_continued,
    eisenstein_fq_truncated,
    epstein_continued,
    hlawka_direct,
    hlawka_from_spectrum,
    reconstruct_hlawka,
)
from .fourier import FourierTable, ellipse_coefficient, fourier_coeffs
from . import funceq, special

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "NumericError",
    "OverflowSignal",
    "PoleError",
    "ShapeSpecError",
    "ValidationError",
    "EvalResult",
    "IwasawaCoords",
    "Mat2",
    "RadialShape",
    "act",
    "area",
    "cartan_decompose",
    "iwasawa_decompose",
    "parse_shape",
    "theta_g",
    "LatticePoint",
    "Spectrum",
    "build_spectrum",
    "count_points",
    "QuadForm2",
    "classical_eisenstein",
    "eisenstein_fq_continued",
    "eisenstein_fq_truncated",
    "epstein_continued",
    "hlawka_direct",
    "hlawka_from_spectrum",
    "reconstruct_hlawka",
    "FourierTable",
    "ellipse_coefficient",
    "fourier_coeffs",
    "funceq",
    "special",
    "__version__",
]
