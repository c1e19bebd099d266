"""Result container attaching truncation metadata and an error bound, and
the one CSV writer every table the library prints goes through."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class EvalResult:
    """A computed complex value plus the truncation used to obtain it.

    ``error_estimate`` is an upper bound on the magnitude of the neglected
    tail under the tail model documented by the producing operation (integral
    comparison for direct sums, Gaussian cutoff for continuations, coefficient
    decay for reconstructions).  A non-finite value or bound raises
    NumericError: no result is ever NaN or infinite.
    """

    value: complex
    error_estimate: float
    truncation: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (cmath.isfinite(self.value) and math.isfinite(self.error_estimate)):
            raise NumericError(f"non-finite result {self.value} with error estimate {self.error_estimate}")

    def to_json_dict(self) -> dict:
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "error_estimate": self.error_estimate,
            "truncation": dict(self.truncation),
        }


def csv_table(header: str, *columns) -> str:
    """CSV text: the header line, then one line per row of the equal-length
    columns.  Integer columns print with ``%d``, every other column with
    ``%.15g`` (15 significant digits)."""
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.15g" for c in cols)
    lines = map(row.__mod__, zip(*(c.tolist() for c in cols)))
    return "\n".join([header, *lines]) + "\n"
