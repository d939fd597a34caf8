"""The records' type and range rules: ``numeric.check_real`` and
``numeric.check_count``, and every record field they guard."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwsnsim.channel import (
    MAX_SAMPLES,
    FadingDraw,
    FadingSpec,
    LinkBudget,
    TrsGain,
    ergodic_capacity,
)
from qwsnsim.errors import ScenarioValidationError
from qwsnsim.mimo import MimoChannel
from qwsnsim.network import Node, Topology, TopologyKind
from qwsnsim.numeric import FLOAT_MAX, check_count, check_real, is_integer
from qwsnsim.optimizer import MAX_ITERATIONS, ErgodicMean, PowerProblem, SaSchedule
from qwsnsim.quantum_link import QkdLinkSpec
from qwsnsim.scenario import ScenarioConfig

_TOPOLOGY = Topology(TopologyKind.MESH, (Node("a", 1.0, 1.0), Node("b", 1.0, 1.0)), ())


class TestCheckReal:
    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 5e-324, 1.0, FLOAT_MAX, 0, 7, int(FLOAT_MAX), np.float64(2.5),
                  np.int64(3), Fraction(1, 3)]
    )
    def test_a_number_in_range_passes(self, value):
        check_real("x", value, 0)

    @pytest.mark.parametrize(
        "value", [True, False, "1", None, [1], 1j, np.complex128(1), Decimal(1), np.bool_(True)]
    )
    def test_a_bool_or_a_non_number_is_refused(self, value):
        with pytest.raises(ValueError) as err:
            check_real("x", value, 0)
        assert str(err.value) == f"x must be a number, got {value!r}"

    @pytest.mark.parametrize(
        "value", [-1.0, -5e-324, -1, math.nan, math.inf, -math.inf, 10**400, -(10**400)]
    )
    def test_out_of_range_keeps_the_record_text(self, value):
        with pytest.raises(ValueError) as err:
            check_real("x", value, 0)
        assert str(err.value) == f"x must be >= 0 and finite, got {value}"

    def test_strict_refuses_the_bound(self):
        for zero in (0.0, -0.0, 0):
            with pytest.raises(ValueError, match=r"^bandwidth_hz must be > 0 and finite, got "):
                check_real("bandwidth_hz", zero, 0, strict=True)
        check_real("bandwidth_hz", 5e-324, 0, strict=True)
        with pytest.raises(ValueError, match=r"^gamma must be >= 1 and finite, got 0\.5$"):
            check_real("gamma", 0.5, 1)


class TestCheckCount:
    @pytest.mark.parametrize("value", [1, 2, MAX_SAMPLES, np.int64(5), np.uint64(7)])
    def test_an_integer_in_range_passes(self, value):
        check_count("n_samples", value, MAX_SAMPLES)

    @pytest.mark.parametrize("value", [1.0, 1.5, True, "2", None, [1], np.float64(2.0)])
    def test_a_float_a_bool_or_a_non_number_is_refused(self, value):
        with pytest.raises(ValueError) as err:
            check_count("n_samples", value, MAX_SAMPLES)
        assert str(err.value) == f"n_samples must be an integer, got {value!r}"

    @pytest.mark.parametrize("value", [0, -1, MAX_SAMPLES + 1, 2**64, 10**400])
    def test_out_of_range_keeps_the_record_text(self, value):
        with pytest.raises(ValueError) as err:
            check_count("n_samples", value, MAX_SAMPLES)
        assert str(err.value) == f"n_samples must be between 1 and {MAX_SAMPLES}, got {value}"

    def test_is_integer(self):
        assert is_integer(3) and is_integer(np.int32(3)) and is_integer(2**70)
        assert not any(map(is_integer, (True, np.bool_(True), 3.0, "3", None)))


class TestNonIntegerCounts:
    """A float or a bool count or seed gets the field's ValueError, not a
    TypeError from numpy or range()."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ErgodicMean(n_samples=1.5), "n_samples must be an integer, got 1.5"),
            (lambda: ErgodicMean(seed=1.5), "seed must fit in 64 unsigned bits, got 1.5"),
            (lambda: ErgodicMean(seed=True), "seed must fit in 64 unsigned bits, got True"),
            (lambda: SaSchedule(iterations=1.5), "iterations must be an integer, got 1.5"),
            (
                lambda: ergodic_capacity(
                    LinkBudget(1.0, 1.0, 1.0), FadingSpec.rayleigh(), 1.5,
                    np.random.default_rng(0),
                ),
                "n_samples must be an integer, got 1.5",
            ),
        ],
    )
    def test_refused_with_the_field_text(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def _real(name, build, low, strict=False):
    return pytest.param(name, build, ("real", low, strict), id=name)


def _integer(name, build, low, high, prefix=""):
    return pytest.param(name, build, ("integer", low, high, prefix), id=prefix + name)


# Every record field the two checks guard, and the seeds, built from one value.
_FIELDS = [
    _real("bandwidth_hz", lambda v: LinkBudget(v, 1.0, 1.0), 0, strict=True),
    _real("signal_power_w", lambda v: LinkBudget(1.0, v, 1.0), 0),
    _real("noise_power_w", lambda v: LinkBudget(1.0, 1.0, v), 0, strict=True),
    _real("interference_power_w", lambda v: LinkBudget(1.0, 1.0, 1.0, v), 0),
    _real("mean_power", FadingSpec.rayleigh, 0, strict=True),
    _real("k_factor", FadingSpec.rician, 0),
    _real("h_squared", FadingDraw, 0),
    _real("gamma", TrsGain, 1),
    _real("tx_power_w", lambda v: Node("a", v, 1.0), 0),
    _real("packet_length_bits", lambda v: Node("a", 1.0, v), 0, strict=True),
    _real("loss_coeff_per_km", lambda v: QkdLinkSpec(1.0, v, 1.0), 0),
    _real("distance_km", lambda v: QkdLinkSpec(1.0, 1.0, v), 0),
    _real("total_power_w", lambda v: MimoChannel(np.eye(2), v), 0),
    _real("r_min_bps", lambda v: PowerProblem(_TOPOLOGY, 0.1, 1.0, r_min_bps=v), 0),
    _integer("n_samples", lambda v: ErgodicMean(n_samples=v), 1, MAX_SAMPLES),
    _integer("seed", lambda v: ErgodicMean(seed=v), 0, 2**64 - 1),
    _integer("iterations", lambda v: SaSchedule(iterations=v), 1, MAX_ITERATIONS),
    _integer(
        "n_samples",
        lambda v: ergodic_capacity(
            LinkBudget(1.0, 1.0, 1.0), FadingSpec.rayleigh(), v, np.random.default_rng(0)
        ),
        1,
        MAX_SAMPLES,
        prefix="ergodic_capacity.",
    ),
    _integer(
        "n_samples", lambda v: ScenarioConfig(_TOPOLOGY, n_samples=v), 1, MAX_SAMPLES,
        prefix="monte_carlo.",
    ),
    _integer(
        "seed", lambda v: ScenarioConfig(_TOPOLOGY, seed=v), 0, 2**64 - 1, prefix="monte_carlo."
    ),
]

_VALUES = (
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, 0.0, -0.0, -1.0, -1, 0, 1, 3,
         1.0, 2.5, 10**400, -(10**400), int(FLOAT_MAX), 2**64 - 1, 2**64, MAX_SAMPLES + 1,
         True, False, "1", None, [1]]
    )
    | st.floats()
    | st.integers(-5, 5)
)


def _in_domain(value, rule) -> bool:
    if isinstance(value, bool):
        return False
    if rule[0] == "integer":
        return isinstance(value, int) and rule[1] <= value <= rule[2]
    _kind, low, strict = rule
    if not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        return False
    return value > low if strict else value >= low


@pytest.mark.parametrize("name, build, rule", _FIELDS)
@settings(max_examples=60, deadline=None)
@given(value=_VALUES)
@example(value="1")
@example(value=None)
@example(value=True)
@example(value=10**400)
def test_a_record_builds_or_refuses_with_a_value_error_naming_its_field(name, build, rule, value):
    """Never a TypeError or an OverflowError: the value either lands in the
    field's domain or is refused with the field's ValueError."""
    try:
        built = build(value)
    except ScenarioValidationError as exc:
        assert exc.path == f"{rule[-1]}{name}" == f"monte_carlo.{name}"
        assert not _in_domain(value, rule)
    except ValueError as exc:
        assert name in str(exc), str(exc)
        assert not _in_domain(value, rule)
    else:
        assert _in_domain(value, rule), value
        if not isinstance(built, float):  # ergodic_capacity returns the capacity
            assert getattr(built, name) is value
