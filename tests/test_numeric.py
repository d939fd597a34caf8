"""The records' type and range rules: ``numeric.check_real`` and
``numeric.check_count``, every record field they guard, and the public
functions that take a bare number."""

import dataclasses
import math
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwsnsim.channel import (
    MAX_SAMPLES,
    TRS_OFF,
    FadingDraw,
    FadingSpec,
    LinkBudget,
    TrsGain,
    ergodic_capacity,
)
from qwsnsim.errors import ScenarioValidationError
from qwsnsim.mimo import MimoChannel, mimo_capacity_trs
from qwsnsim.network import Link, Node, Topology, TopologyKind, path_capacity, path_latency
from qwsnsim.numeric import FLOAT_MAX, check_count, check_real, is_integer
from qwsnsim.optimizer import (
    MAX_ITERATIONS,
    Allocation,
    ErgodicMean,
    PowerProblem,
    SaSchedule,
    grid_search_oracle,
    kkt_residual,
    weighted_objective,
)
from qwsnsim.quantum_link import QkdLinkSpec, qber_with_trs
from qwsnsim.scenario import ScenarioConfig

_TOPOLOGY = Topology(TopologyKind.MESH, (Node("a", 1.0, 1.0), Node("b", 1.0, 1.0)), ())


class TestCheckReal:
    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 5e-324, 1.0, FLOAT_MAX, 0, 7, int(FLOAT_MAX), np.float64(2.5)]
    )
    def test_a_number_in_range_passes(self, value):
        check_real("x", value, 0)

    @pytest.mark.parametrize(
        "value",
        [True, False, "1", None, [1], 1j, np.complex128(1), Decimal(1), np.bool_(True),
         np.int64(3), Fraction(1, 3)],
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
    @pytest.mark.parametrize("value", [1, 2, MAX_SAMPLES])
    def test_an_integer_in_range_passes(self, value):
        check_count("n_samples", value, MAX_SAMPLES)

    @pytest.mark.parametrize(
        "value", [1.0, 1.5, True, "2", None, [1], np.float64(2.0), np.int64(5), np.uint64(7)]
    )
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
        assert is_integer(3) and is_integer(2**70)
        assert not any(map(is_integer, (True, np.bool_(True), 3.0, "3", None, np.int32(3))))


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


def _real(name, build, low, strict=False, below=None, also=(), says=None):
    """A real field: a number >= ``low`` (> if ``strict``), finite, and below
    ``below`` when given, or one of the values ``also``. A refusal names
    ``says``, the field name by default."""
    return pytest.param(name, build, ("real", low, strict, below, also), says or name, id=name)


def _integer(name, build, low, high, prefix="", id=None):
    return pytest.param(name, build, ("integer", low, high, prefix), name, id=id or prefix + name)


_CONFIG = ScenarioConfig(_TOPOLOGY)

# Every record field the checks guard, and the seeds, built from one value.
# The compound fields' other bounds hold, so only the field's own rule and
# its relation to them can refuse it.
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
    _real("p_min_w", lambda v: PowerProblem(_TOPOLOGY, v, FLOAT_MAX), 0, below=FLOAT_MAX,
          says="p_min"),
    _real("p_max_w", lambda v: PowerProblem(_TOPOLOGY, 0.0, v), 0, strict=True, says="p_max"),
    _real(
        "latency_max_s", lambda v: PowerProblem(_TOPOLOGY, 0.1, 1.0, latency_max_s=v), 0,
        strict=True, also=(math.inf,),
    ),
    # beta is 0, so alpha must be positive; alpha is 1, so beta may be 0.
    _real("alpha", lambda v: PowerProblem(_TOPOLOGY, 0.1, 1.0, alpha=v), 0, strict=True),
    _real("beta", lambda v: PowerProblem(_TOPOLOGY, 0.1, 1.0, beta=v), 0),
    _real("cooling", lambda v: SaSchedule(cooling=v), 0, strict=True, below=1),
    _real("t_initial", lambda v: SaSchedule(t_initial=v), 0, strict=True, also=(None,)),
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
    _integer(
        "seed", lambda v: dataclasses.replace(_CONFIG, seed=v), 0, 2**64 - 1,
        prefix="monte_carlo.", id="replace.seed",
    ),
]

# Numpy's other scalars and Fraction are not numbers to the records: the
# report's JSON cannot write them, and a float32 warns in the range check.
_NOT_NUMBERS = [
    np.int64(5), np.uint64(7), np.float32(2.0), np.float32(0.5), np.float32(math.inf),
    Fraction(1, 2), Decimal("Infinity"),
]

_VALUES = (
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, 0.0, -0.0, -1.0, -1, 0, 1, 3,
         0.5, 1.0, 2.5, 10**400, -(10**400), int(FLOAT_MAX), 2**64 - 1, 2**64, MAX_SAMPLES + 1,
         np.float64(0.5), True, False, "1", "0", "0.5", None, [1], *_NOT_NUMBERS]
    )
    | st.floats()
    | st.integers(-5, 5)
)


def _in_domain(value, rule) -> bool:
    if isinstance(value, bool):
        return False
    if rule[0] == "integer":
        return isinstance(value, int) and rule[1] <= value <= rule[2]
    _kind, low, strict, below, also = rule
    if not isinstance(value, (int, float)):
        return value is None and None in also
    if value in also:
        return True
    if not abs(value) <= sys.float_info.max or below is not None and not value < below:
        return False
    return value > low if strict else value >= low


@pytest.mark.parametrize("name, build, rule, says", _FIELDS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(value=_VALUES)
@example(value="1")
@example(value="0")
@example(value=None)
@example(value=True)
@example(value=10**400)
@example(value=np.float32(2.0))
@example(value=np.int64(5))
@example(value=Fraction(1, 2))
def test_a_record_builds_or_refuses_with_a_value_error_naming_its_field(
    name, build, rule, says, value
):
    """Never a TypeError, an OverflowError or a RuntimeWarning: the value
    either lands in the field's domain or is refused with the field's
    ValueError."""
    try:
        built = build(value)
    except ScenarioValidationError as exc:
        assert exc.path == f"{rule[-1]}{name}" == f"monte_carlo.{name}"
        assert not _in_domain(value, rule)
    except ValueError as exc:
        assert says in str(exc), str(exc)
        assert not _in_domain(value, rule)
    else:
        assert _in_domain(value, rule), value
        if not isinstance(built, float):  # ergodic_capacity returns the capacity
            assert getattr(built, name) is value


_LINKED = Topology(
    TopologyKind.MESH,
    _TOPOLOGY.nodes,
    (Link("a", "b", LinkBudget(1.0, 1.0, 1.0), FadingSpec.awgn(), TrsGain(2.0)),),
)
_PROBLEM = PowerProblem(_LINKED, 0.0, 10.0, alpha=1.0, beta=1.0)

# The public functions that take a bare number, each given one value.
_ENTRY_POINTS = [
    pytest.param(lambda v: qber_with_trs(v, TRS_OFF), id="qber_with_trs"),
    pytest.param(lambda v: path_capacity([1.0, v]), id="path_capacity"),
    pytest.param(lambda v: path_latency([v, v]), id="path_latency"),
    pytest.param(
        lambda v: kkt_residual(Allocation((1.0, 1.0)), _PROBLEM, [v] * 6).stationarity_residual,
        id="kkt_residual.multipliers",
    ),
    pytest.param(
        lambda v: grid_search_oracle(_PROBLEM, v).objective, id="grid_search_oracle.points_per_node"
    ),
    pytest.param(
        lambda v: weighted_objective(Allocation((v, 1.0)), _PROBLEM), id="weighted_objective"
    ),
    pytest.param(
        lambda v: ergodic_capacity(
            LinkBudget(1.0, 1.0, 1.0), FadingSpec.rayleigh(), v, np.random.default_rng(0)
        ),
        id="ergodic_capacity.n_samples",
    ),
    pytest.param(
        lambda v: mimo_capacity_trs(MimoChannel(np.eye(2), v), TRS_OFF),
        id="mimo_capacity_trs.total_power_w",
    ),
    pytest.param(
        lambda v: mimo_capacity_trs(MimoChannel(np.eye(2), 1.0), TrsGain(v)),
        id="mimo_capacity_trs.gamma",
    ),
]

_ENTRY_VALUES = (
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 5e-324, 1e308, 0, 0.0, -0.0, -1, -1.0, -5e-324, 0.5, 1,
         2, 3, 10**400, np.float64(0.5), True, "1", None, [1], np.int64(1), np.float32(1),
         Fraction(1, 2)]
    )
    | st.floats()
    | st.integers(-3, 6)
)


@pytest.mark.parametrize("call", _ENTRY_POINTS)
@settings(max_examples=60, deadline=None)
@given(value=_ENTRY_VALUES)
@example(value="1")
@example(value=True)
@example(value=10**400)
@example(value=np.float32(1))
def test_an_entry_point_returns_a_finite_number_or_raises_a_value_error(call, value):
    """Never a TypeError, an OverflowError or a numpy warning; and only an
    int or a float, not a bool, gets through."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(value)
        except ValueError:
            return
    assert isinstance(value, (int, float)) and not isinstance(value, bool), value
    assert isinstance(result, (int, float)) and math.isfinite(result), result
