import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsnsim import mimo
from qwsnsim.channel import TrsGain
from qwsnsim.errors import EmptyUserSetError, NotHermitianError, NotPositiveDefiniteError
from qwsnsim.mimo import (
    HERMITIAN_ATOL,
    MimoChannel,
    hermitian_logdet,
    mimo_capacity,
    mimo_capacity_trs,
    multiuser_mimo_total,
)

from oracles import eigen_log2det, random_hermitian_pd, random_unitary


class TestHermitianLogdet:
    def test_identity(self):
        assert hermitian_logdet(np.eye(3)) == 0.0

    def test_scaled_identity(self):
        assert hermitian_logdet(2.0 * np.eye(2)) == 2.0

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = random_hermitian_pd(rng, n)
            assert hermitian_logdet(a) == pytest.approx(eigen_log2det(a), rel=1e-9)

    @pytest.mark.parametrize(
        "a",
        [np.array([[1.0, 2.0], [0.0, 1.0]]), 1e6 * np.array([[1.0, 1e-6], [0.0, 1.0]])],
        ids=["unit", "asymmetry-1-at-scale-1e6"],
    )
    def test_rejects_non_hermitian(self, a):
        with pytest.raises(NotHermitianError):
            hermitian_logdet(a)

    @pytest.mark.parametrize("power", [1e6, 1e7])
    def test_high_snr_gram_products_are_accepted(self, power):
        # The Gram product's rounding asymmetry, an ulp of its entries, is
        # above the absolute tolerance for many of these users.
        rng = np.random.default_rng(53)
        above_atol = 0
        for _ in range(1000):
            h = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
            arg = np.eye(2) + (power / 2) * (h @ h.conj().T)
            above_atol += abs(arg - arg.conj().T).max() > HERMITIAN_ATOL
            value = mimo_capacity_trs(MimoChannel(h, power), TrsGain(1.0))
            assert value == pytest.approx(eigen_log2det(arg), rel=1e-9)
        assert above_atol > 100

    def test_rejects_indefinite(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_logdet(a)

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_logdet(np.diag([1.0, 0.0]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_logdet(np.ones((2, 3)))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            hermitian_logdet(np.eye(65))

    def test_rejects_indefinite_with_off_diagonal_mass(self):
        # Positive diagonal, eigenvalues 3 and -1: only the factorization sees it.
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "a",
        [
            np.diag([1.0, np.nan]),
            np.array([[1.0, np.inf], [0.0, 1.0]]),
            np.array([[complex(np.inf, np.nan)]]),
        ],
        ids=["nan-diagonal", "inf-off-diagonal", "complex-inf-nan"],
    )
    def test_non_finite_entries_are_value_errors(self, a):
        with pytest.raises(ValueError, match="finite") as excinfo:
            hermitian_logdet(a)
        assert not isinstance(excinfo.value, NotHermitianError)

    def test_empty_matrix(self):
        result = hermitian_logdet(np.zeros((0, 0)))
        assert result == 0.0 and type(result) is float

    def test_asymmetry_within_tolerance(self):
        rng = np.random.default_rng(37)
        a = random_hermitian_pd(rng, 4)
        perturbed = a.copy()
        perturbed[0, 1] += 1e-11
        assert hermitian_logdet(perturbed) == pytest.approx(eigen_log2det(a), rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_every_size_and_extreme_scales_match_oracle(self, scale):
        rng = np.random.default_rng(41)
        for n in range(1, 65):
            a = random_hermitian_pd(rng, n)
            # Exactly Hermitian, so the absolute asymmetry stays 0 at any scale.
            a = scale * ((a + a.conj().T) / 2)
            assert hermitian_logdet(a) == pytest.approx(eigen_log2det(a), rel=1e-9)

    def test_scaled_identity_of_size_eight(self):
        assert hermitian_logdet(4.0 * np.eye(8)) == 16.0


class TestMimoCapacity:
    def test_siso_unit(self):
        assert mimo_capacity(MimoChannel(np.array([[1.0]]), 1.0)) == 1.0

    def test_identity_channel(self):
        assert mimo_capacity(MimoChannel(np.eye(2), 2.0)) == 2.0

    def test_diagonal_channel_decomposes_into_siso_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b = rng.uniform(0.2, 3.0, size=2)
            p = float(rng.uniform(0.1, 10.0))
            ch = MimoChannel(np.diag([a, b]).astype(complex), p)
            expected = np.log2(1 + p * a * a / 2) + np.log2(1 + p * b * b / 2)
            assert mimo_capacity(ch) == pytest.approx(float(expected), abs=1e-10, rel=1e-10)

    def test_unit_gain_is_plain_capacity(self):
        rng = np.random.default_rng(17)
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        ch = MimoChannel(h, 1.7)
        assert mimo_capacity_trs(ch, TrsGain(1.0)) == mimo_capacity(ch)

    def test_trs_identity_channel(self):
        assert mimo_capacity_trs(MimoChannel(np.eye(2), 2.0), TrsGain(3.0)) == 4.0

    def test_gain_never_decreases_capacity(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n_r, n_t = rng.integers(1, 5, size=2)
            h = rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))
            ch = MimoChannel(h, float(rng.uniform(0.1, 5.0)))
            previous = mimo_capacity(ch)
            for gamma in (1.5, 2.0, 4.0):
                current = mimo_capacity_trs(ch, TrsGain(gamma))
                assert current >= previous - 1e-12
                previous = current

    def test_trs_capacity_matches_eigen_oracle(self):
        rng = np.random.default_rng(23)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ch = MimoChannel(h, 1.3)
        gamma = 2.5
        arg = np.eye(2) + gamma * (1.3 / 2) * (h @ h.conj().T)
        assert mimo_capacity_trs(ch, TrsGain(gamma)) == pytest.approx(
            eigen_log2det(arg), rel=1e-9
        )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            u = random_unitary(rng, 4)
            v = random_unitary(rng, 3)
            ch = MimoChannel(h, 2.1)
            rotated = MimoChannel(u @ h @ v, 2.1)
            assert mimo_capacity(rotated) == pytest.approx(mimo_capacity(ch), rel=1e-9)

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            MimoChannel(np.ones((2, 2)), -1.0)
        with pytest.raises(ValueError):
            MimoChannel(np.ones(3), 1.0)
        with pytest.raises(ValueError):
            MimoChannel(np.ones((65, 2)), 1.0)
        with pytest.raises(ValueError):
            MimoChannel(np.array([[np.nan]]), 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_power_is_named(self):
        # It used to fail inside hermitian_logdet, after a numpy warning.
        with pytest.raises(ValueError, match="^total_power_w must be >= 0 and finite"):
            mimo_capacity(MimoChannel(np.eye(2), np.inf))

    def test_int_power_beyond_the_float_range_is_named(self):
        # It compares below inf; total_power_w / n_tx then raised OverflowError.
        with pytest.raises(ValueError, match="^total_power_w must be >= 0 and finite"):
            MimoChannel(np.eye(2), 10**400)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_scale_is_named(self):
        with pytest.raises(ValueError, match=r"^gamma \* \(total_power_w / n_tx\) overflows"):
            mimo_capacity_trs(MimoChannel(np.eye(2), 1e308), TrsGain(4.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gram_matrix_is_refused_before_the_product(self):
        # A finite scale used to overflow the scaled Gram matrix with a numpy
        # warning, and only then fail the finiteness check.
        with pytest.raises(ValueError, match=r"^gamma \* \(total_power_w / n_tx\) overflows"):
            mimo_capacity_trs(MimoChannel(1e5 * np.eye(2), 1e300), TrsGain(2.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_channel_whose_norm_overflows_is_refused(self):
        # Its Gram matrix used to overflow in the matrix product.
        with pytest.raises(ValueError, match="^channel matrix entries too large"):
            MimoChannel(1e160 * np.eye(2), 1.0)

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0)])
    def test_empty_channel_matrix_is_refused(self, shape):
        message = f"channel matrix must be non-empty, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MimoChannel(np.zeros(shape), 1.0)

    def test_norm_is_the_frobenius_norm_squared(self):
        h = np.array([[1.0, 2j], [-3.0, 0.5 + 0.5j]])
        assert MimoChannel(h, 1.0).norm_sq == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-15)


class TestMatrixEntries:
    """Both matrix intakes read numbers only: numpy's int, unsigned, float
    and complex kinds."""

    @pytest.mark.parametrize(
        "entries",
        [
            np.full((2, 2), 10**400, dtype=object),
            [["1", "0"], ["0", "1"]],
            [[True, False], [False, True]],
            [[Fraction(1, 2), 0], [0, Fraction(1, 2)]],
        ],
        ids=["int-past-the-float-range", "string", "bool", "fraction"],
    )
    def test_entries_that_are_not_numbers_are_refused(self, entries):
        # numpy raised a bare OverflowError on the first and read the others as numbers.
        with pytest.raises(ValueError, match="^channel matrix entries must be numbers, got dtype"):
            MimoChannel(entries, 1.0)
        with pytest.raises(ValueError, match="^matrix entries must be numbers, got dtype"):
            hermitian_logdet(entries)

    @pytest.mark.parametrize(
        "dtype", [np.int64, np.uint8, np.float32, float, np.complex64, complex]
    )
    def test_numeric_dtypes_are_read_as_complex(self, dtype):
        m = np.array([[2, 0], [0, 2]], dtype=dtype)
        assert hermitian_logdet(m) == 2.0
        ch = MimoChannel(m, 2.0)
        assert ch.h.dtype == complex
        assert mimo_capacity(ch) == mimo_capacity(MimoChannel(2 * np.eye(2), 2.0))


class TestSharedBuffers:
    """The capacity writes only into its own fresh Gram matrix."""

    def test_channel_matrix_is_left_unchanged(self):
        rng = np.random.default_rng(43)
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        before = h.copy()
        ch = MimoChannel(h, 2.0)
        assert ch.h is h  # a complex array is kept, not copied
        mimo_capacity_trs(ch, TrsGain(2.0))
        multiuser_mimo_total([ch, ch], TrsGain(3.0))
        assert h.tobytes() == before.tobytes()

    def test_shared_identity_is_not_written(self):
        rng = np.random.default_rng(47)
        for n_rx in range(1, 9):
            for n_tx in range(1, 9):
                h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
                mimo_capacity_trs(MimoChannel(h, 3.0), TrsGain(2.0))
        for n in range(1, 9):
            assert mimo_capacity(MimoChannel(np.zeros((n, n)), 1.0)) == 0.0

    def test_cached_identity_is_read_only(self):
        for n in (1, 4, 8, mimo.MAX_DIM):
            eye = mimo._identity(n)
            assert not eye.flags.writeable
            with pytest.raises(ValueError):
                eye[0, 0] = 2.0
            assert eye.tobytes() == np.eye(n, dtype=complex).tobytes()


_ENTRIES = st.floats(-4.0, 4.0, allow_nan=False)
# Log-uniform over [1e-3, 1e6], hypothesis's own floats there, and zero.
_POWERS = st.floats(-3.0, 6.0).map(lambda e: 10.0**e) | st.floats(1e-3, 1e6) | st.just(0.0)


@st.composite
def mimo_users(draw):
    n_rx = draw(st.integers(1, 8))
    n_tx = n_rx if draw(st.booleans()) else draw(st.integers(1, 8))
    parts = draw(st.lists(_ENTRIES, min_size=2 * n_rx * n_tx, max_size=2 * n_rx * n_tx))
    h = np.array(parts[::2]) + 1j * np.array(parts[1::2])
    return h.reshape(n_rx, n_tx), draw(_POWERS)


class TestParentExpression:
    """Bit for bit the expression the capacity was first written as."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(mimo_users(), min_size=1, max_size=4), st.floats(1.0, 8.0))
    def test_capacity_and_total_equal_the_expression(self, users, gamma):
        gain = TrsGain(gamma)
        channels, values = [], []
        for h, p in users:
            n_rx, n_tx = h.shape
            arg = np.eye(n_rx, dtype=complex) + gamma * (p / n_tx) * (h @ h.conj().T)
            ch = MimoChannel(h, p)
            channels.append(ch)
            with mock.patch.object(mimo, "hermitian_logdet", wraps=hermitian_logdet) as spy:
                value = mimo_capacity_trs(ch, gain)
            expected = float(np.linalg.slogdet(arg)[1]) / math.log(2)
            assert value == expected
            values.append(expected)
            (seen,), _ = spy.call_args
            assert seen.dtype == arg.dtype and seen.tobytes() == arg.tobytes()
        total = 0
        for value in values:
            total += value
        assert multiuser_mimo_total(channels, gain) == total


class TestMultiuser:
    def test_single_user(self):
        ch = MimoChannel(np.eye(2), 2.0)
        gain = TrsGain(3.0)
        assert multiuser_mimo_total([ch], gain) == mimo_capacity_trs(ch, gain)

    def test_two_identical_users_double(self):
        ch = MimoChannel(np.eye(2), 2.0)
        gain = TrsGain(2.0)
        assert multiuser_mimo_total([ch, ch], gain) == 2 * mimo_capacity_trs(ch, gain)

    def test_three_random_users_match_per_user_oracle(self):
        rng = np.random.default_rng(31)
        gain = TrsGain(1.8)
        channels = []
        expected = 0.0
        for _ in range(3):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            p = float(rng.uniform(0.5, 3.0))
            channels.append(MimoChannel(h, p))
            expected += eigen_log2det(np.eye(2) + gain.gamma * (p / 2) * (h @ h.conj().T))
        assert multiuser_mimo_total(channels, gain) == pytest.approx(expected, rel=1e-9)

    def test_empty_user_set(self):
        with pytest.raises(EmptyUserSetError):
            multiuser_mimo_total([], TrsGain(1.0))
