"""Functional-unit models: behaviour, area and energy of the PE's datapath units.

A GauRast Processing Element is built from floating-point adders,
multipliers, one divider (used only by triangle rasterization) and one
exponentiation unit (used only by Gaussian rasterization), plus input
multiplexers and staging flip-flops (Fig. 7(c)).  This module provides:

* :class:`UnitCost` — per-unit area and per-operation energy for FP32 and
  FP16 implementations in a 28 nm process (typical corner, 0.9 V, 1 GHz),
  with values in the range reported for synthesised floating-point IP at
  that node.  The absolute constants are documented calibration points; the
  paper's claims that we reproduce (21 % added PE area, ~0.2 % SoC overhead,
  ~24x energy-efficiency gain) are *ratios* of sums of these constants.
* :class:`FunctionalUnit` and its subclasses — perform the arithmetic
  natively in the selected precision's dtype while counting operations, so
  the PE model produces both numerically faithful results and the
  operation tallies behind Table II and the energy model.  Add, sub, mul
  and div are single native operations; only the exponent unit computes in
  float64 and rounds once (see :mod:`repro.hardware.fp`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.hardware.fp import Precision, narrow


@dataclass(frozen=True)
class UnitCost:
    """Area and energy cost of one functional unit."""

    area_um2: float
    energy_pj: float

    def __post_init__(self) -> None:
        if self.area_um2 < 0 or self.energy_pj < 0:
            raise ValueError("unit costs must be non-negative")


#: Per-unit costs of the datapath building blocks, by precision.
#:
#: Area is for one synthesised unit including its local pipeline registers;
#: energy is per operation.  28 nm, typical corner, 0.9 V, 1 GHz.
UNIT_COSTS: Dict[Precision, Dict[str, UnitCost]] = {
    Precision.FP32: {
        "add": UnitCost(area_um2=550.0, energy_pj=0.40),
        "mul": UnitCost(area_um2=1150.0, energy_pj=1.10),
        "div": UnitCost(area_um2=2400.0, energy_pj=2.50),
        "exp": UnitCost(area_um2=1900.0, energy_pj=2.00),
        "mux": UnitCost(area_um2=500.0, energy_pj=0.05),
        "staging": UnitCost(area_um2=600.0, energy_pj=0.60),
    },
    Precision.FP16: {
        "add": UnitCost(area_um2=275.0, energy_pj=0.18),
        "mul": UnitCost(area_um2=340.0, energy_pj=0.30),
        "div": UnitCost(area_um2=820.0, energy_pj=0.90),
        "exp": UnitCost(area_um2=760.0, energy_pj=0.70),
        "mux": UnitCost(area_um2=250.0, energy_pj=0.03),
        "staging": UnitCost(area_um2=300.0, energy_pj=0.30),
    },
}

#: On-chip SRAM (tile buffers): area per byte and energy per byte accessed.
SRAM_AREA_UM2_PER_BYTE = 0.95
SRAM_ENERGY_PJ_PER_BYTE = 0.80

#: Off-chip (LPDDR-class) DRAM energy per byte transferred, including the
#: memory controller and PHY.
DRAM_ENERGY_PJ_PER_BYTE = 45.0


def unit_cost(kind: str, precision: Precision) -> UnitCost:
    """Look up the cost entry for a unit ``kind`` at ``precision``."""
    try:
        return UNIT_COSTS[precision][kind]
    except KeyError as error:
        known = ", ".join(UNIT_COSTS[precision])
        raise KeyError(f"unknown unit kind {kind!r}; known kinds: {known}") from error


@dataclass
class OperationTally:
    """Mutable per-operation counters shared by the functional units."""

    counts: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, count: int = 1) -> None:
        """Add ``count`` operations of ``kind``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.counts[kind] = self.counts.get(kind, 0) + count

    def get(self, kind: str) -> int:
        """Number of operations of ``kind`` recorded so far."""
        return self.counts.get(kind, 0)

    def total(self) -> int:
        """Total number of operations across all kinds."""
        return sum(self.counts.values())

    def merged_with(self, other: "OperationTally") -> "OperationTally":
        """Return a new tally combining this one with ``other``."""
        merged = OperationTally(counts=dict(self.counts))
        for kind, count in other.counts.items():
            merged.record(kind, count)
        return merged

    def energy_pj(self, precision: Precision) -> float:
        """Dynamic energy of the recorded operations at ``precision``."""
        return sum(
            count * unit_cost(kind, precision).energy_pj
            for kind, count in self.counts.items()
        )


class FunctionalUnit:
    """Base class: applies an operation in the datapath dtype and counts it.

    Operands are expected in ``precision.dtype`` already (Python scalars
    adopt it); a wider operand is rounded to it first.  Each operation is
    then one native, correctly rounded operation of that dtype, which is
    bit for bit the float64 result rounded to the datapath precision.
    """

    kind = "base"

    def __init__(self, precision: Precision, tally: OperationTally):
        self.precision = precision
        self.dtype = precision.dtype
        self.tally = tally

    def _finish(self, result):
        self.tally.record(self.kind, int(np.size(result)))
        return result


class Adder(FunctionalUnit):
    """Floating-point adder (also used for subtraction)."""

    kind = "add"

    def add(self, a, b):
        """Return ``a + b`` in the datapath dtype."""
        return self._finish(np.add(a, b, dtype=self.dtype))

    def sub(self, a, b):
        """Return ``a - b`` in the datapath dtype."""
        return self._finish(np.subtract(a, b, dtype=self.dtype))


class Multiplier(FunctionalUnit):
    """Floating-point multiplier."""

    kind = "mul"

    def mul(self, a, b):
        """Return ``a * b`` in the datapath dtype."""
        return self._finish(np.multiply(a, b, dtype=self.dtype))


class Divider(FunctionalUnit):
    """Floating-point divider (triangle-only logic path)."""

    kind = "div"

    def div(self, a, b):
        """Return ``a / b`` in the datapath dtype.

        A zero divisor saturates instead of raising: a finite non-zero
        ``a`` gives an infinity with the sign of ``a`` alone (the divisor's
        sign is ignored), and ``±0``, ``±inf`` and NaN dividends pass
        through unchanged, so ``0 / ±0`` is ``0``.
        """
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        zero = b == 0
        quotient = np.divide(a, np.where(zero, 1, b))
        saturates = zero & np.isfinite(a) & (a != 0)
        return self._finish(np.where(saturates, np.copysign(np.inf, a), quotient))


class Exponent(FunctionalUnit):
    """Floating-point exponentiation unit (Gaussian-only logic path).

    The one unit that does not compute natively: ``exp`` is evaluated in
    float64 and rounded once, because NumPy's float32 ``exp`` is not
    correctly rounded (``exp(float32(-0.01))`` already differs from the
    rounded float64 result).
    """

    kind = "exp"

    def exp(self, a):
        """Return ``exp(a)`` rounded to the datapath dtype."""
        return self._finish(self.evaluate(a))

    def evaluate(self, a):
        """:meth:`exp` without charging the tally.

        For a datapath that evaluates ahead of knowing which fragments are
        live and charges the exact fragment counts itself.
        """
        return narrow(np.exp(np.asarray(a, dtype=np.float64)), self.precision)


@dataclass
class DatapathUnits:
    """The full set of functional units of one Processing Element."""

    precision: Precision
    tally: OperationTally = field(default_factory=OperationTally)

    def __post_init__(self) -> None:
        self.adder = Adder(self.precision, self.tally)
        self.multiplier = Multiplier(self.precision, self.tally)
        self.divider = Divider(self.precision, self.tally)
        self.exponent = Exponent(self.precision, self.tally)

    def reset(self) -> None:
        """Clear the operation tally."""
        self.tally.counts.clear()
