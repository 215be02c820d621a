import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wynercache.channel import (
    block_power,
    cancel_known,
    check_power,
    transmit_full,
    transmit_soft,
)
from wynercache.model import LengthMismatch


def _impulse(n, at=0):
    e = np.zeros(n)
    e[at] = 1.0
    return e


def _noise(seed, k, n):
    """The K x n noise block that a transmit with ``noise_seed=seed`` adds."""
    return np.random.default_rng(seed).standard_normal((k, n))


class TestTransmitSoft:
    def test_impulse_propagation(self):
        n = 8
        x = [_impulse(n), np.zeros(n), np.zeros(n)]
        y, z = transmit_soft(x, [1.0, 1.0, 1.0], noise_seed=1), _noise(1, 3, n)
        assert np.array_equal(y[0], _impulse(n) + z[0])  # own signal
        assert np.array_equal(y[1], _impulse(n) + z[1])  # heard downstream
        assert np.array_equal(y[2], z[2])

    def test_all_zero(self):
        y = transmit_soft([np.zeros(4)] * 3, [1.0] * 3, noise_seed=2)
        assert np.array_equal(y, _noise(2, 3, 4))

    def test_circular_wrap(self):
        # X_0 = X_K: receiver 1 hears transmitter K through alpha_1
        n = 4
        x = [np.zeros(n), np.zeros(n), _impulse(n)]
        y = transmit_soft(x, [2.0, 1.0, 1.0], noise_seed=3)
        assert np.array_equal(y[0], 2.0 * _impulse(n) + _noise(3, 3, n)[0])

    def test_noise_reproducible(self):
        x = [np.zeros(16)] * 3
        a = transmit_soft(x, [1.0] * 3, noise_seed=42)
        b = transmit_soft(x, [1.0] * 3, noise_seed=42)
        c = transmit_soft(x, [1.0] * 3, noise_seed=43)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
        assert not all(np.array_equal(u, v) for u, v in zip(a, c))

    def test_superposition_plus_seeded_noise_exact(self):
        rng = np.random.default_rng(5)
        k, n = 6, 32
        x = [rng.standard_normal(n) for _ in range(k)]
        gains = rng.uniform(0.2, 2.0, size=k)
        y, z = transmit_soft(x, gains, noise_seed=4), _noise(4, k, n)
        for i in range(k):
            expected = x[i] + gains[i] * x[(i - 1) % k] + z[i]
            assert np.max(np.abs(y[i] - expected)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            transmit_soft([np.zeros(4), np.zeros(5), np.zeros(4)], [1.0] * 3)
        with pytest.raises(LengthMismatch):
            transmit_soft([np.zeros(4)] * 3, [1.0, 1.0])


class TestTransmitFull:
    def test_impulse_two_sided(self):
        n = 4
        x = [np.zeros(n), _impulse(n), np.zeros(n), np.zeros(n)]
        y, z = transmit_full(x, 0.5, noise_seed=5), _noise(5, 4, n)
        assert np.array_equal(y[0], 0.5 * _impulse(n) + z[0])
        assert np.array_equal(y[1], _impulse(n) + z[1])
        assert np.array_equal(y[2], 0.5 * _impulse(n) + z[2])
        assert np.array_equal(y[3], z[3])

    def test_all_zero(self):
        y = transmit_full([np.zeros(4)] * 4, 1.0, noise_seed=6)
        assert np.array_equal(y, _noise(6, 4, 4))

    def test_circular_wrap_k_plus_one(self):
        # X_{K+1} = X_1: receiver K hears transmitter 1
        n = 4
        x = [_impulse(n), np.zeros(n), np.zeros(n), np.zeros(n)]
        y = transmit_full(x, 1.0, noise_seed=7)
        assert np.array_equal(y[3], _impulse(n) + _noise(7, 4, n)[3])


class TestPower:
    def test_zero_block_ok(self):
        assert check_power(np.zeros(10), 1.0).ok

    def test_constant_block_violation(self):
        p = 3.0
        block = np.full(16, np.sqrt(2 * p))
        result = check_power(block, p)
        assert not result.ok
        assert result.measured == pytest.approx(2 * p)

    def test_shell_codeword_ok(self):
        from wynercache.codec import draw_codebook

        p, eps = 10.0, 0.05
        for sent in range(16):
            word = draw_codebook(64, 4, p - eps, seed=sent, sent=[sent], cap=p).word
            assert check_power(word, p).ok
            assert block_power(word) == pytest.approx(p - eps, rel=1e-12)

    def test_empty_block_rejected(self):
        with pytest.raises(Exception):
            block_power(np.array([]))


class TestCancelKnown:
    def test_exact_subtraction(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(32)
        z = rng.standard_normal(32)
        y = 1.7 * c + z
        assert np.allclose(cancel_known(y, 1.7, c), z, atol=1e-12)

    def test_zero_gain_is_identity(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(8)
        assert np.array_equal(cancel_known(y, 0.0, rng.standard_normal(8)), y)

    def test_inverse(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(8)
        c = rng.standard_normal(8)
        assert np.allclose(cancel_known(cancel_known(y, 0.9, c), -0.9, c), y, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cancel_known(np.zeros(4), 1.0, np.zeros(5))

    def test_cancellation_after_transmit(self):
        # cancelling the known interferer must leave own signal + the channel's
        # seeded noise to machine precision
        rng = np.random.default_rng(3)
        k, n = 3, 64
        x = [rng.standard_normal(n) for _ in range(k)]
        gains = [0.8, 1.3, 0.6]
        y, z = transmit_soft(x, gains, noise_seed=8), _noise(8, k, n)
        for i in range(k):
            cleaned = cancel_known(y[i], gains[i], x[(i - 1) % k])
            assert np.max(np.abs(cleaned - (x[i] + z[i]))) <= 1e-9


# --- oracles: the kernels' former formulas, np.roll, np.mean and two temporaries ---


def _roll_soft(inputs, gains, noise_seed):
    x = np.asarray(inputs, dtype=float)
    y = x + np.asarray(gains, dtype=float)[:, None] * np.roll(x, 1, axis=0)
    return y + _noise(noise_seed, *x.shape)


def _roll_full(inputs, gain, noise_seed):
    x = np.asarray(inputs, dtype=float)
    y = x + gain * (np.roll(x, 1, axis=0) + np.roll(x, -1, axis=0))
    return y + _noise(noise_seed, *x.shape)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# finite values whose squares, products and sums stay finite; signed zeros and subnormals included
_VALUES = st.floats(-1e100, 1e100, width=64)


@st.composite
def _stacks(draw, rows=st.integers(3, 9), uses=st.integers(1, 24)):
    return draw(hnp.arrays(np.float64, (draw(rows), draw(uses)), elements=_VALUES))


@st.composite
def _stacks_and_gains(draw):
    x = draw(_stacks())
    return x, draw(hnp.arrays(np.float64, len(x), elements=_VALUES))  # a cross gain per receiver


class TestKernelsKeepTheirBits:
    """The channel kernels give their former formulas' results bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(_stacks(rows=st.integers(1, 5)), st.booleans())
    @example(np.array([[3.0]]), False)  # n = 1
    def test_block_power_is_the_mean_of_squares(self, x, one_block):
        block = x[0] if one_block else x
        assert _same_bits(block_power(block), np.mean(block**2, axis=-1))
        assert _same_bits(block_power(list(block)), np.mean(block**2, axis=-1))

    @settings(max_examples=150, deadline=None)
    @given(_stacks_and_gains(), st.integers(0, 2**32), st.booleans())
    @example((np.arange(6.0).reshape(3, 2), np.array([0.5, 2.0, -1.0])), 7, True)  # K = 3: the wrap
    def test_transmit_soft_is_the_roll_form(self, stack, seed, as_list):
        x, gains = stack
        inputs = list(x) if as_list else x
        assert _same_bits(transmit_soft(inputs, gains, seed), _roll_soft(x, gains, seed))
        assert _same_bits(transmit_soft(inputs, list(gains), seed), _roll_soft(x, gains, seed))

    @settings(max_examples=150, deadline=None)
    @given(_stacks(), _VALUES, st.integers(0, 2**32), st.booleans())
    @example(np.arange(6.0).reshape(3, 2), 0.5, 7, True)
    def test_transmit_full_is_the_roll_form(self, x, gain, seed, as_list):
        assert _same_bits(transmit_full(list(x) if as_list else x, gain, seed), _roll_full(x, gain, seed))

    @settings(max_examples=100, deadline=None)
    @given(_stacks(rows=st.integers(1, 6)), _VALUES, st.booleans())
    def test_cancel_known_is_one_subtraction(self, y, gain, per_row):
        known = y[::-1] * 0.5
        g = np.full((len(y), 1), gain) if per_row else gain
        assert _same_bits(cancel_known(y, g, known), y - g * known)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 8), min_size=3, max_size=7).filter(lambda lengths: len(set(lengths)) > 1))
    def test_ragged_blocks_are_rejected(self, lengths):
        blocks = [np.zeros(n) for n in lengths]
        with pytest.raises(LengthMismatch, match="mixed lengths"):
            transmit_soft(blocks, [1.0] * len(blocks))
        with pytest.raises(LengthMismatch, match="mixed lengths"):
            transmit_full(blocks, 1.0)
