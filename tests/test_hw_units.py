"""Tests for the FP precision model and the functional-unit cost models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.fp import Precision, max_relative_error, narrow, quantize
from repro.hardware.units import (
    Adder,
    DatapathUnits,
    Divider,
    Exponent,
    Multiplier,
    OperationTally,
    UNIT_COSTS,
    unit_cost,
)


class TestPrecision:
    def test_bit_widths(self):
        assert Precision.FP32.bits == 32
        assert Precision.FP16.bits == 16
        assert Precision.FP32.bytes == 4
        assert Precision.FP16.bytes == 2

    def test_quantize_fp32_precision_loss_is_tiny(self):
        value = np.pi
        quantized = quantize(value, Precision.FP32)
        assert abs(quantized - value) / value < max_relative_error(Precision.FP32)

    def test_quantize_fp16_loses_more_precision_than_fp32(self):
        value = np.array([1.0 / 3.0])
        err16 = abs(quantize(value, Precision.FP16) - value)
        err32 = abs(quantize(value, Precision.FP32) - value)
        assert err16 > err32

    def test_quantize_returns_float64(self):
        quantized = quantize([1.5, 2.5], Precision.FP16)
        assert quantized.dtype == np.float64

    @given(value=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_quantization_error_bounded(self, value):
        for precision in Precision:
            quantized = float(quantize(value, precision))
            if value != 0:
                assert abs(quantized - value) <= abs(value) * 2 * max_relative_error(
                    precision
                ) + 1e-7


class TestUnitCosts:
    def test_all_kinds_present_for_both_precisions(self):
        for precision in Precision:
            for kind in ("add", "mul", "div", "exp", "mux", "staging"):
                cost = unit_cost(kind, precision)
                assert cost.area_um2 > 0
                assert cost.energy_pj >= 0

    def test_fp16_units_are_smaller_and_cheaper(self):
        for kind in ("add", "mul", "div", "exp"):
            fp32 = unit_cost(kind, Precision.FP32)
            fp16 = unit_cost(kind, Precision.FP16)
            assert fp16.area_um2 < fp32.area_um2
            assert fp16.energy_pj < fp32.energy_pj

    def test_multiplier_larger_than_adder(self):
        assert (
            unit_cost("mul", Precision.FP32).area_um2
            > unit_cost("add", Precision.FP32).area_um2
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError, match="unknown unit kind"):
            unit_cost("sqrt", Precision.FP32)


class TestOperationTally:
    def test_record_and_total(self):
        tally = OperationTally()
        tally.record("add", 3)
        tally.record("mul")
        tally.record("add", 2)
        assert tally.get("add") == 5
        assert tally.get("mul") == 1
        assert tally.get("exp") == 0
        assert tally.total() == 6

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            OperationTally().record("add", -1)

    def test_merge(self):
        a = OperationTally({"add": 2})
        b = OperationTally({"add": 1, "mul": 4})
        merged = a.merged_with(b)
        assert merged.get("add") == 3
        assert merged.get("mul") == 4
        # The originals are untouched.
        assert a.get("add") == 2

    def test_energy_accumulates_per_op(self):
        tally = OperationTally({"add": 10, "mul": 5})
        expected = (
            10 * UNIT_COSTS[Precision.FP32]["add"].energy_pj
            + 5 * UNIT_COSTS[Precision.FP32]["mul"].energy_pj
        )
        assert tally.energy_pj(Precision.FP32) == pytest.approx(expected)


class TestFunctionalUnits:
    def test_adder_counts_elementwise_operations(self):
        tally = OperationTally()
        adder = Adder(Precision.FP32, tally)
        result = adder.add(np.array([1.0, 2.0, 3.0]), 1.0)
        assert np.allclose(result, [2.0, 3.0, 4.0])
        assert tally.get("add") == 3

    def test_subtraction_counts_as_add(self):
        tally = OperationTally()
        adder = Adder(Precision.FP32, tally)
        result = adder.sub(5.0, 2.0)
        assert result == pytest.approx(3.0)
        assert tally.get("add") == 1

    def test_multiplier(self):
        tally = OperationTally()
        result = Multiplier(Precision.FP32, tally).mul(np.array([2.0, 4.0]), 3.0)
        assert np.allclose(result, [6.0, 12.0])
        assert tally.get("mul") == 2

    def test_divider_guards_against_zero(self):
        tally = OperationTally()
        result = Divider(Precision.FP32, tally).div(1.0, 0.0)
        # Division by zero saturates (IEEE infinity) rather than producing NaN.
        assert not np.isnan(result)
        assert tally.get("div") == 1

    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
    @pytest.mark.parametrize("a, b, expected", [
        (1.0, 0.0, np.inf),
        (1.0, -0.0, np.inf),
        (-2.5, 0.0, -np.inf),
        (-2.5, -0.0, -np.inf),
        (0.0, 0.0, 0.0),
        (0.0, -0.0, 0.0),
        (-0.0, 0.0, -0.0),
        (-0.0, -0.0, -0.0),
        (np.inf, -0.0, np.inf),
        (-np.inf, 0.0, -np.inf),
        (np.nan, 0.0, np.nan),
    ])
    def test_zero_divisor_takes_the_sign_of_the_dividend(self, precision, a, b, expected):
        """``a / ±0`` saturates with the sign of ``a`` alone; ``0 / ±0`` is 0.

        These are the results of the float64 formulation, which divided by
        ``1e-300`` in place of a zero divisor.
        """
        result = Divider(precision, OperationTally()).div(
            narrow(a, precision), narrow(b, precision)
        )
        assert result.dtype == precision.dtype
        assert _bits(result, precision) == _bits(narrow(expected, precision), precision)

    def test_exponent(self):
        tally = OperationTally()
        result = Exponent(Precision.FP32, tally).exp(np.array([0.0, 1.0]))
        assert result[0] == pytest.approx(1.0)
        assert result[1] == pytest.approx(np.e, rel=1e-6)
        assert tally.get("exp") == 2

    def test_fp16_quantizes_results(self):
        tally = OperationTally()
        result = float(Multiplier(Precision.FP16, tally).mul(1.0 / 3.0, 1.0))
        assert result != pytest.approx(1.0 / 3.0, abs=1e-9)
        assert result == pytest.approx(1.0 / 3.0, rel=1e-3)

    def test_datapath_units_share_one_tally(self):
        units = DatapathUnits(Precision.FP32)
        units.adder.add(1.0, 1.0)
        units.multiplier.mul(2.0, 2.0)
        units.exponent.exp(0.0)
        assert units.tally.total() == 3
        units.reset()
        assert units.tally.total() == 0


def _bits(values, precision):
    """Bit patterns of ``values`` in ``precision``'s dtype, as a list."""
    unsigned = np.uint32 if precision is Precision.FP32 else np.uint16
    return np.atleast_1d(np.asarray(values, dtype=precision.dtype)).view(unsigned).tolist()


def _floats(bits, precision):
    """The values whose bit patterns are ``bits`` (the inverse of :func:`_bits`)."""
    unsigned = np.uint32 if precision is Precision.FP32 else np.uint16
    return np.asarray(bits, dtype=unsigned).view(precision.dtype)


def _float64_then_round(op, a, b, precision):
    """The float64 formulation of a unit op: compute in float64, round once.

    Its divider replaced a zero divisor by ``1e-300`` before dividing.
    """
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    if op == "div":
        b = np.where(np.abs(b) < 1e-300, 1e-300, b)
    result = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}[op](a, b)
    return quantize(result, precision)


def _native(op, a, b, precision):
    units = DatapathUnits(precision)
    unit = {"add": units.adder, "sub": units.adder, "mul": units.multiplier,
            "div": units.divider}[op]
    return getattr(unit, op)(a, b)


def _operand_pairs(width):
    floats = st.floats(width=width, allow_subnormal=True)
    return st.lists(st.tuples(floats, floats), min_size=1, max_size=32)


#: Operand pairs that overflow the format, underflow into its subnormals,
#: cancel to signed zeros, divide by signed zeros or carry NaNs.
_EDGE_PAIRS = {
    Precision.FP32: [(3.4e38, 3.4e38), (-3.4e38, 2.0), (1e-38, 1e-7), (1e-45, 0.5),
                     (-0.0, -0.0), (1.5, -1.5), (1.0, -0.0), (0.0, -0.0),
                     (np.inf, -np.inf), (np.nan, 1.0), (np.nan, -np.nan)],
    Precision.FP16: [(65504.0, 65504.0), (-65504.0, 2.0), (6e-5, 1e-3), (6e-8, 0.5),
                     (-0.0, -0.0), (1.5, -1.5), (1.0, -0.0), (0.0, -0.0),
                     (np.inf, -np.inf), (np.nan, 1.0), (np.nan, -np.nan)],
}


class TestNativeArithmetic:
    """Native add/sub/mul/div equal the float64 op rounded once, bit for bit.

    Double precision has more than ``2p + 2`` significand bits for both
    FP32 (p = 24) and FP16 (p = 11), so rounding the exact result to
    float64 and then to the datapath dtype is the same as rounding it to
    the datapath dtype directly.  This is why the adder, multiplier and
    divider need no float64 round trip.  Bit patterns are compared, so
    signed zeros and NaN payloads count.

    The one freedom is an op on two NaNs: IEEE 754 lets the result carry
    either operand's payload, and the native and float64 loops pick
    different ones.  There the result must be one of the two operands,
    quieted.
    """

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
    def test_edge_operands(self, op, precision):
        a, b = (narrow(column, precision) for column in zip(*_EDGE_PAIRS[precision]))
        self._check(op, a, b, precision)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @given(pairs=_operand_pairs(32))
    @settings(max_examples=150, deadline=None)
    def test_fp32(self, op, pairs):
        self._check(op, *self._arrays(pairs, Precision.FP32), Precision.FP32)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @given(pairs=_operand_pairs(16))
    @settings(max_examples=150, deadline=None)
    def test_fp16(self, op, pairs):
        self._check(op, *self._arrays(pairs, Precision.FP16), Precision.FP16)

    @staticmethod
    def _arrays(pairs, precision):
        a, b = zip(*pairs)
        return np.array(a, dtype=precision.dtype), np.array(b, dtype=precision.dtype)

    @staticmethod
    def _check(op, a, b, precision):
        with np.errstate(all="ignore"):
            native = _native(op, a, b, precision)
            reference = _float64_then_round(op, a, b, precision)
        assert native.dtype == precision.dtype
        native, reference, a, b = (
            np.array(_bits(values, precision)) for values in (native, reference, a, b)
        )
        two_nans = np.isnan(_floats(a, precision)) & np.isnan(_floats(b, precision))
        assert native[~two_nans].tolist() == reference[~two_nans].tolist()
        quiet = 1 << (precision.mantissa_bits - 1)
        for result, first, second in zip(native[two_nans], a[two_nans], b[two_nans]):
            assert result in (first | quiet, second | quiet)

    def test_native_exp_is_not_correctly_rounded(self):
        """The exception: ``Exponent`` keeps float64 and rounds once.

        NumPy's float32 ``exp`` is not correctly rounded: at
        ``float32(-0.01)`` it differs from the rounded float64 result.
        """
        x = np.float32(-0.01)
        rounded = narrow(np.exp(np.float64(x)), Precision.FP32)
        assert np.exp(x) != rounded
        unit = Exponent(Precision.FP32, OperationTally())
        assert _bits(unit.exp(x), Precision.FP32) == _bits(rounded, Precision.FP32)
