import dataclasses
import functools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import wynercache.codec as codec
from wynercache.channel import block_power, check_power
from wynercache.codec import (
    MAX_CODEBOOK_BITS,
    FloatOverflow,
    TooManyWords,
    capacity,
    draw_codebook,
    nn_decode,
)
from wynercache.model import SimError


# --- oracle: the per-link capacity rule -------------------------------------
#
# Ideal links as the delivery loop once tested them, one budget per link.
# ``check_ideal_rate`` tests the scheme rate against the weakest link once per
# placed plan; tests/test_pipeline.py checks it against this rule on every link.


@dataclass(frozen=True)
class LinkBudget:
    gain: float
    rate: float  # bits per channel use attempted on the link
    power: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise SimError(f"negative link rate {self.rate}")


def ideal_link(link: LinkBudget) -> bool:
    """Asymptotic link abstraction: success iff rate is strictly below capacity."""
    return link.rate < capacity(link.gain, link.power)


def _decode_one(cb, ys, gains) -> list[int]:
    """nn_decode of the single row of ``cb`` at every receiver of ``ys``."""
    return nn_decode(cb, [0], [ys], [gains])[0].tolist()


# --- oracle: the explicit codec ---------------------------------------------
#
# Every codeword is an explicit n-vector, and nearest-neighbor decoding screens
# every word with one mat-vec, then rescores exactly the words within a rigorous
# rounding bound of the best score. The projected codec in wynercache.codec must
# make decisions with the same law (TestProjectedMatchesExplicit).

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = np.finfo(float).smallest_normal
_SCREEN_MAX = 2.0**1000
_NORM_BLOCK = 256


@dataclass(frozen=True, eq=False)
class ExplicitCodebook:
    words: np.ndarray  # shape (num_words, n_uses)
    power: float

    @property
    def n_uses(self) -> int:
        return self.words.shape[1]

    @property
    def num_words(self) -> int:
        return self.words.shape[0]

    @functools.cached_property
    def sq_norms(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.words, self.words)


def draw_explicit(n_uses: int, bits: int, power: float, seed: int) -> ExplicitCodebook:
    """2^bits Gaussian-direction vectors, each rescaled in place to empirical power ``power``."""
    rng = np.random.default_rng(seed)
    words = rng.standard_normal((1 << bits, n_uses))
    radius = math.sqrt(power * n_uses)
    for start in range(0, words.shape[0], _NORM_BLOCK):
        rows = words[start : start + _NORM_BLOCK]
        rows *= (radius / np.sqrt(np.add.reduce(rows * rows, axis=1)))[:, None]
    return ExplicitCodebook(words=words, power=power)


def _distances(y, words, gain):
    return np.sum((y[None, :] - gain * words) ** 2, axis=1)


def decode_explicit(y: np.ndarray, cb: ExplicitCodebook, gain: float) -> int:
    """argmin over codewords c of ||y - gain*c||^2; ties break to the lowest index."""
    y = np.asarray(y, dtype=float)
    g = float(gain)
    max_sq_norm = float(cb.sq_norms.max())
    scale = float(y @ y) + g * g * max_sq_norm
    if not scale < _SCREEN_MAX:  # also catches NaN and inf
        return int(np.argmin(_distances(y, cb.words, gain)))
    scores = (g * g) * cb.sq_norms - (2.0 * g) * (cb.words @ y)
    # Each n-term sum, dot product and norm is off by at most gamma * (sum of
    # the magnitudes of its terms), whatever the summation order; both the
    # screen score and the exact distance of a word are then within
    # 4 * gamma * (||y||^2 + g^2 ||c||^2) of the true value. The factor 8
    # absorbs the rounding of the norms used here, and the _TINY term bounds
    # the absolute error of products that underflow.
    n = cb.n_uses
    gamma = (n + 8) * _UNIT_ROUNDOFF / (1.0 - (n + 8) * _UNIT_ROUNDOFF)
    slack = 8.0 * gamma * scale + (n + 8) * _TINY * (1.0 + abs(g)) ** 2 * (1.0 + max_sq_norm)
    candidates = np.flatnonzero(scores <= scores.min() + 2.0 * slack)
    return int(candidates[np.argmin(_distances(y, cb.words[candidates], gain))])


class TestDrawCodebook:
    def test_radius_past_float64_raises(self):
        # n_uses * power overflows to an infinite radius, which the step-down to the power cap
        # would walk down one float per pass from the largest float
        with pytest.raises(FloatOverflow, match="^codewords of power 1e\\+307 over 200 uses have a radius past float64$"):
            draw_codebook(200, 4, 1e307, 0, [0], 1e307)
        assert draw_codebook(200, 4, 1e305, 0, [0], 1e305).radius == math.sqrt(200 * 1e305)

    def test_shell_power_exact(self):
        cb = draw_explicit(96, 8, power=9.95, seed=3)
        assert cb.num_words == 256
        powers = np.mean(cb.words**2, axis=1)
        assert np.max(np.abs(powers - 9.95)) <= 1e-12 * 9.95

    def test_deterministic(self):
        a = draw_explicit(96, 8, 9.95, seed=3)
        b = draw_explicit(96, 8, 9.95, seed=3)
        assert np.array_equal(a.words, b.words)

    def test_single_sample_shell(self):
        cb = draw_explicit(1, 1, power=4.0, seed=11)
        assert sorted(np.round(cb.words.ravel(), 12).tolist()) in ([-2.0, 2.0], [-2.0, -2.0], [2.0, 2.0])
        assert all(abs(abs(w[0]) - 2.0) <= 1e-12 for w in cb.words)

    def test_too_many_words(self):
        with pytest.raises(TooManyWords):
            draw_codebook(8, MAX_CODEBOOK_BITS + 1, 1.0, 0, 0, 1.0)

    @pytest.mark.parametrize(
        "n_uses, bits",
        [(n, b) for n in (1, 2, 7, 200) for b in (1, 2, 8, 9, 12)]
        + [(1000, b) for b in (1, 2, 8, 9)],
    )
    def test_matches_whole_matrix_rescale(self, n_uses, bits):
        # The blocked in-place rescale must reproduce the whole-matrix formula bit for bit,
        # also when the word count is not a multiple of the block size.
        power, seed = 7.3, 100 * bits + n_uses
        directions = np.random.default_rng(seed).standard_normal((1 << bits, n_uses))
        expected = directions * (
            math.sqrt(power * n_uses) / np.linalg.norm(directions, axis=1, keepdims=True)
        )
        cb = draw_explicit(n_uses, bits, power, seed)
        assert cb.words.tobytes() == expected.tobytes()


class TestNnDecode:
    def test_exact_codeword(self):
        cb = draw_explicit(32, 4, 5.0, seed=2)
        for i in (0, 7, 15):
            assert decode_explicit(0.7 * cb.words[i], cb, 0.7) == i

    def test_tiny_perturbation(self):
        cb = draw_explicit(32, 4, 5.0, seed=2)
        diffs = cb.words[None, :, :] - cb.words[:, None, :]
        dmin = np.min(np.linalg.norm(diffs, axis=2)[np.triu_indices(16, k=1)])
        noise = np.full(32, dmin / (4 * math.sqrt(32)))
        assert decode_explicit(cb.words[9] + noise, cb, 1.0) == 9

    def test_tie_breaks_to_lowest_index(self):
        words = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        cb = ExplicitCodebook(words=words, power=0.5)
        assert decode_explicit(np.array([1.0, 0.0]), cb, 1.0) == 0

    def test_sq_norms_cached_per_codebook(self):
        cb = draw_explicit(16, 5, 2.0, seed=6)
        decode_explicit(cb.words[3], cb, 1.0)
        norms = cb.sq_norms
        decode_explicit(cb.words[4], cb, 1.0)
        assert cb.sq_norms is norms
        assert np.allclose(norms, np.sum(cb.words**2, axis=1), rtol=1e-14, atol=0)

    def test_matches_brute_force_argmin(self):
        # Screened decoding must make the same decision as scoring every word with
        # the exact distance, lowest-index tie-break included.
        rng = np.random.default_rng(2024)
        for case in range(1200):
            n = int(rng.integers(1, 48))
            if case % 3 == 0:
                # hand-built: rows off power, and exact duplicate rows
                words = rng.standard_normal((int(rng.integers(2, 40)), n))
                words *= rng.uniform(0.2, 3.0, size=(len(words), 1))
                dup = rng.integers(0, len(words), size=int(rng.integers(1, 6)))
                words = np.concatenate([words, words[dup]])
                rng.shuffle(words)
                cb = ExplicitCodebook(words=words, power=1.0)
            else:
                cb = draw_explicit(n, int(rng.integers(1, 8)), float(rng.uniform(0.1, 50)), case)
            gain = float(rng.uniform(0.3, 3.0)) * (1 if rng.random() < 0.5 else -1)
            noise = float(rng.uniform(0.1, 30.0))
            sent = int(rng.integers(0, cb.num_words))
            y = gain * cb.words[sent]
            if case % 5 != 4:  # every fifth case decodes a noiseless codeword
                y = y + noise * rng.standard_normal(n)
            brute = np.sum((y[None, :] - gain * cb.words) ** 2, axis=1)
            assert decode_explicit(y, cb, gain) == int(np.argmin(brute)), case

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("magnitude", [1e-158, 1e160])
    def test_extreme_magnitudes_match_brute_force(self, magnitude):
        # Near-duplicate words whose squares underflow, or whose screen scores
        # overflow, leave the relative error bound; the decision must stay exact.
        rng = np.random.default_rng(17)
        for case in range(300):
            spread = 10.0 ** rng.uniform(-8, 0)
            words = (rng.standard_normal(4) + spread * rng.standard_normal((12, 4))) * magnitude
            cb = ExplicitCodebook(words=words, power=1.0)
            y = 1.5 * words[int(rng.integers(0, 12))]
            if case % 2:
                y = y + spread * magnitude * rng.standard_normal(4)
            brute = np.sum((y[None, :] - 1.5 * words) ** 2, axis=1)
            assert decode_explicit(y, cb, 1.5) == int(np.argmin(brute)), case

    def test_equal_norm_ties_break_to_lowest_index(self):
        # sign flips of one vector all lie at the same distance from the origin
        base = np.array([0.5, -1.25, 2.0, 0.75])
        words = np.array([base * s for s in ([1, 1, 1, 1], [-1, 1, 1, 1], [1, -1, -1, 1])])
        cb = ExplicitCodebook(words=words, power=1.0)
        assert decode_explicit(np.zeros(4), cb, 1.3) == 0
        assert decode_explicit(np.array([0.0, 0.0, 0.0, 1.0]), cb, -0.7) == 0

    def test_gain_scale_consistency(self):
        cb = draw_explicit(24, 5, 3.0, seed=4)
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.standard_normal(24) * 2.0
            g = float(rng.uniform(0.1, 3.0))
            assert decode_explicit(y, cb, g) == decode_explicit(y / g, cb, 1.0)

    def test_error_rate_above_capacity(self):
        # at 1.5x capacity the random-coding error is bounded away from zero
        n, bits = 96, 8
        rate = bits / n
        power = 2 ** (2 * rate / 1.5) - 1
        assert rate >= 1.5 * capacity(1.0, power)
        errors = 0
        trials = 200
        for t in range(trials):
            rng = np.random.default_rng(5000 + t)
            msg = int(rng.integers(0, 2**bits))
            cb = draw_codebook(n, bits, power, 1000 + t, [msg], power)
            y = cb.word[0] + rng.standard_normal(n)
            errors += _decode_one(cb, [y], [1.0])[0] != msg
        assert errors / trials >= 0.3

    def test_error_count_monotone_in_power(self):
        n, bits = 96, 8

        def count_errors(power):
            errs = 0
            for t in range(200):
                rng = np.random.default_rng(7000 + t)
                msg = int(rng.integers(0, 2**bits))
                cb = draw_codebook(n, bits, power, 2000 + t, [msg], power)
                y = cb.word[0] + rng.standard_normal(n)
                errs += _decode_one(cb, [y], [1.0])[0] != msg
            return errs

        low, high = count_errors(0.12), count_errors(0.48)
        assert high <= low + 2


class TestProjectedCodebook:
    def test_sent_word_on_the_shell(self):
        cb = draw_codebook(96, 8, 9.95, seed=3, sent=[17, 4], cap=10.0)
        assert (cb.num_words, cb.n_uses, cb.sent.tolist()) == (512, 96, [17, 4])
        assert block_power(cb.word) == pytest.approx(9.95, rel=1e-12)
        assert cb.radius**2 == pytest.approx(96 * 9.95, rel=1e-15)
        # two frame coordinates of a word on the sphere never leave it
        coords = codec._coords(cb, 2)
        assert coords.shape == (2, 256, 2)
        assert np.all(np.einsum("...i,...i->...", coords, coords) <= cb.radius**2 * (1 + 1e-12))

    def test_silent_row_sends_zeros(self):
        cb = draw_codebook(16, 4, 2.0, 1, [3, -1, 5], 2.0)
        assert not cb.word[1].any() and cb.num_words == 2 * 16
        assert block_power(cb.word[[0, 2]]) == pytest.approx(2.0, rel=1e-12)

    def test_deterministic(self):
        a = draw_codebook(96, 8, 9.95, 3, [5, 9], 10.0)
        b = draw_codebook(96, 8, 9.95, 3, [5, 9], 10.0)
        assert np.array_equal(a.word, b.word)
        assert np.array_equal(codec._coords(a, 2), codec._coords(b, 2))

    def test_back_off_lost_to_rounding_keeps_the_power_cap(self):
        # P - eps rounds to P at eps = 1e-16, P = 1e4: the sent word still passes
        power = 1e4
        assert power - 1e-16 == power
        for seed in range(40):
            cb = draw_codebook(200, 4, power - 1e-16, seed, [seed % 16, 3], power)
            assert check_power(cb.word, power).ok.all()
            assert block_power(cb.word) == pytest.approx(power, rel=1e-14)

    def test_rejects_bad_arguments(self):
        for args in [
            (0, 4, 1.0, 0, [0], 1.0),
            (8, 4, 1.0, 0, [0, 16], 1.0),
            (8, 4, 1.0, 0, [-2], 1.0),
            (8, 4, 2.0, 0, [0], 1.0),
        ]:
            with pytest.raises(SimError):
                draw_codebook(*args)

    def test_noiseless_sent_word_decodes(self):
        for seed in range(20):
            cb = draw_codebook(32, 6, 5.0, seed, [seed, 63 - seed], 5.0)
            ys = [[0.7 * word, word] for word in cb.word]
            guesses = nn_decode(cb, [1, 0], ys[::-1], [[0.7, 1.0]] * 2)
            assert guesses.tolist() == [[63 - seed] * 2, [seed] * 2]

    def test_frame_covariance_is_power_times_gram(self):
        # For any fixed y1, y2 the pair (<w, y1>, <w, y2>) of a word w uniform on the
        # sphere of radius sqrt(n P') has covariance P' Gram(y1, y2). Over 2^16 words
        # each entry's standard error is at most sqrt(2 / 2^16) P' ||y_i|| ||y_j||,
        # so 0.03 P' ||y_i|| ||y_j|| is about five standard errors.
        n, power = 50, 2.5
        rng = np.random.default_rng(31)
        y1 = 3.0 * rng.standard_normal(n)
        y2 = 0.6 * y1 + rng.standard_normal(n)
        ys = np.stack([y1, y2], axis=1)
        cb = draw_codebook(n, 16, power, seed=32, sent=[0], cap=power)
        inner = np.delete(codec._coords(cb, 1)[0] @ np.linalg.qr(ys, mode="r"), 0, axis=0)
        cov = inner.T @ inner / len(inner)
        gram = ys.T @ ys
        norms = np.sqrt(np.diag(gram))
        assert np.all(np.abs(cov - power * gram) <= 0.03 * power * np.outer(norms, norms))
        assert np.all(np.abs(inner.mean(axis=0)) <= 0.03 * math.sqrt(power) * norms)

    @pytest.mark.parametrize("gains", [[1.0], [1.0, 0.8]])
    def test_single_use_runs_and_ties_break_to_lowest_index(self, gains):
        # at n = 1 every word is +-sqrt(P'), so all words of the sent sign tie
        power = 4.0
        for seed in range(12):
            # a second draw from the same seed shows the coordinates nn_decode will draw
            cb, twin = (draw_codebook(1, 4, power, seed, [seed], power) for _ in range(2))
            values = codec._coords(twin, 1)[0, :, 0]
            assert abs(cb.word[0, 0]) == 2.0 and np.all(np.abs(values) == 2.0)
            values[seed] = cb.word[0, 0]
            expected = int(np.flatnonzero(values == cb.word[0, 0])[0])
            ys = [g * cb.word[0] + 0.1 * np.sign(cb.word[0]) for g in gains]
            assert _decode_one(cb, ys, gains) == [expected] * len(gains)


class TestBatchedDecode:
    def test_batch_decides_as_rows_one_at_a_time(self, monkeypatch):
        # with the coordinates of the words not sent fixed (drawn in the order of the
        # rows decoded), decoding six codebooks at two receivers each in one batch
        # makes every row's decisions that a batch of one makes
        m, n, bits = 6, 20, 5
        rng = np.random.default_rng(41)
        cb = draw_codebook(n, bits, 0.5, 42, rng.integers(0, 1 << bits, size=m), 0.5)
        order = [4, 0, 5, 2, 1, 3]
        fixed = {id(cb): codec._coords(cb, m)}
        rows = [
            dataclasses.replace(cb, sent=cb.sent[i : i + 1], word=cb.word[i : i + 1]) for i in range(m)
        ]
        fixed |= {id(rows[i]): fixed[id(cb)][at : at + 1] for at, i in enumerate(order)}
        monkeypatch.setattr(codec, "_coords", lambda c, count: fixed[id(c)][:count])
        ys = [[g * word + 0.9 * rng.standard_normal(n) for g in (1.0, 0.7)] for word in cb.word]
        gains = [[1.0, 0.7]] * m
        batch = nn_decode(cb, order, [ys[i] for i in order], gains)
        for i, guesses in zip(order, batch.tolist()):
            assert guesses == _decode_one(rows[i], ys[i], gains[i]), i
        # noisy enough that some decisions are wrong
        assert sum(b != cb.sent[i] for i, got in zip(order, batch) for b in got) > 0

    def test_decode_memory_stays_within_the_chunk_budget(self, monkeypatch):
        # a budget of 2^16 words (2 MiB) per chunk and codebooks of 2^14 words: ten
        # codebooks are drawn and scored four at a time, and the decode holds at most
        # 32 B per word of a chunk
        monkeypatch.setattr(codec, "MAX_CODEBOOK_BITS", 16)
        counts = []
        real = codec._coords
        monkeypatch.setattr(codec, "_coords", lambda c, count: counts.append(count) or real(c, count))
        sent = list(range(10))
        cb = draw_codebook(8, 14, 2.0, 5, sent, 2.0)
        ys = [[word, 0.5 * word] for word in cb.word]
        tracemalloc.start()
        try:
            guesses = nn_decode(cb, range(10), ys, [[1.0, 0.5]] * 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [4, 4, 2]
        assert guesses.tolist() == [[s, s] for s in sent]
        assert peak <= 1.05 * 32 * 2**16

    def test_rejects_mismatched_shapes(self):
        cb = draw_codebook(8, 4, 1.0, 0, [1, 2], 1.0)
        y = cb.word[0]
        for received, gains in [
            ([[y]], [[1.0]]),  # one block for two rows
            ([[y], [y]], [[1.0, 1.0]] * 2),  # gains for two receivers
            ([[y[:4]], [y[:4]]], [[1.0]] * 2),  # blocks too short
            ([[y, y, y]] * 2, [[1.0] * 3] * 2),  # three receivers
        ]:
            with pytest.raises(SimError):
                nn_decode(cb, [0, 1], received, gains)


def _z(errors_a: int, errors_b: int, trials: int) -> float:
    """Two-proportion z statistic for equal sample sizes."""
    pooled = (errors_a + errors_b) / (2 * trials)
    if pooled in (0.0, 1.0):
        return 0.0
    return (errors_a - errors_b) / trials / math.sqrt(pooled * (1 - pooled) * 2 / trials)


class TestProjectedMatchesExplicit:
    TRIALS = 3000

    @pytest.mark.parametrize(
        "n, bits, power, gains",
        [
            (12, 6, 1.2, (1.0,)),  # rate 0.5 against capacity 0.57
            (24, 8, 0.8, (1.0,)),  # rate 1/3 against capacity 0.42
            (24, 8, 1.0, (1.0, 0.8)),  # one codebook decoded at two receivers
        ],
    )
    def test_link_error_rates_agree(self, n, bits, power, gains):
        m, trials = len(gains), self.TRIALS
        explicit = np.zeros(m + 1, dtype=int)  # errors per receiver, then at all of them
        projected = np.zeros(m + 1, dtype=int)
        for t in range(trials):
            rng = np.random.default_rng((n, bits, t))
            sent = int(rng.integers(0, 1 << bits))
            noise = rng.standard_normal((m, n))

            cb = draw_explicit(n, bits, power, seed=10_000 + t)
            wrong = [decode_explicit(g * cb.words[sent] + z, cb, g) != sent for g, z in zip(gains, noise)]
            explicit += [*wrong, all(wrong)]

            pcb = draw_codebook(n, bits, power, 20_000 + t, [sent], power)
            ys = [g * pcb.word[0] + z for g, z in zip(gains, noise)]
            wrong = [guess != sent for guess in _decode_one(pcb, ys, gains)]
            projected += [*wrong, all(wrong)]
        assert explicit[0] > 0.02 * trials  # near capacity, errors are frequent enough to compare
        for a, b in zip(explicit, projected):
            assert abs(_z(int(a), int(b), trials)) <= 4, (explicit, projected)


class TestCapacity:
    def test_examples(self):
        assert capacity(1.0, 3.0) == pytest.approx(1.0)
        assert capacity(2.5, 0.0) == 0.0
        assert capacity(0.5, 12.0) == pytest.approx(1.0)

    def test_negative_power(self):
        with pytest.raises(SimError, match="^negative power -1.0$"):
            capacity(1.0, -1.0)


class TestIdealLink:
    def test_below_capacity_succeeds(self):
        cap = capacity(1.0, 100.0)
        assert ideal_link(LinkBudget(gain=1.0, rate=0.9 * cap, power=100.0))

    def test_at_capacity_fails(self):
        cap = capacity(1.0, 100.0)
        assert not ideal_link(LinkBudget(gain=1.0, rate=cap, power=100.0))

    def test_zero_rate_succeeds(self):
        assert ideal_link(LinkBudget(gain=0.3, rate=0.0, power=1.0))
