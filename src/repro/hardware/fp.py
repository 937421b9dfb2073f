"""Floating-point precision model of the GauRast datapath.

The paper's prototype uses FP32 for all computations (Section V-A); the
GSCore comparison in Section V-C re-implements the datapath at FP16.  This
module provides a small precision abstraction.  Operands enter the datapath
once, rounded to the active precision's dtype by :func:`narrow`, and the
functional-unit models then compute natively in that dtype: every add, sub,
mul and div is one correctly rounded IEEE binary32 (or binary16) operation,
which is exactly what rounding the double-precision result would give,
since double precision has more than ``2p + 2`` significand bits for both
formats.  Only the exponent unit computes in double precision and rounds
once.  The FP16 datapath exhibits the expected quantisation error.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class Precision(Enum):
    """Numeric precision of the rasterizer datapath."""

    FP32 = "fp32"
    FP16 = "fp16"

    @property
    def dtype(self) -> np.dtype:
        """NumPy dtype implementing this precision."""
        return np.dtype(np.float32) if self is Precision.FP32 else np.dtype(np.float16)

    @property
    def bits(self) -> int:
        """Storage width in bits."""
        return 32 if self is Precision.FP32 else 16

    @property
    def bytes(self) -> int:
        """Storage width in bytes."""
        return self.bits // 8

    @property
    def mantissa_bits(self) -> int:
        """Significand width (excluding the hidden bit)."""
        return 23 if self is Precision.FP32 else 10


def narrow(values, precision: Precision) -> np.ndarray:
    """Round ``values`` to ``precision`` and return them in its dtype.

    Values beyond the format's range become infinities, as in hardware.
    """
    array = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        return array.astype(precision.dtype)


def quantize(values, precision: Precision) -> np.ndarray:
    """Round ``values`` to ``precision`` and return them as float64.

    The round-trip through the narrow dtype reproduces the precision loss of
    the hardware datapath for callers that keep computing in float64.
    """
    return narrow(values, precision).astype(np.float64)


def max_relative_error(precision: Precision) -> float:
    """Upper bound on the relative rounding error of one operation."""
    return float(2.0 ** -(precision.mantissa_bits + 1))
