import math

import numpy as np
import pytest

from wynercache.codec import (
    Codebook,
    LinkBudget,
    TooManyWords,
    capacity,
    draw_codebook,
    ideal_link,
    nn_decode,
)


class TestDrawCodebook:
    def test_shell_power_exact(self):
        cb = draw_codebook(96, 8, power=9.95, seed=3)
        assert cb.num_words == 256
        powers = np.mean(cb.words**2, axis=1)
        assert np.max(np.abs(powers - 9.95)) <= 1e-12 * 9.95

    def test_deterministic(self):
        a = draw_codebook(96, 8, 9.95, seed=3)
        b = draw_codebook(96, 8, 9.95, seed=3)
        assert np.array_equal(a.words, b.words)

    def test_single_sample_shell(self):
        cb = draw_codebook(1, 1, power=4.0, seed=11)
        assert sorted(np.round(cb.words.ravel(), 12).tolist()) in ([-2.0, 2.0], [-2.0, -2.0], [2.0, 2.0])
        assert all(abs(abs(w[0]) - 2.0) <= 1e-12 for w in cb.words)

    def test_too_many_words(self):
        with pytest.raises(TooManyWords):
            draw_codebook(8, 21, 1.0, seed=0)

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
        cb = draw_codebook(n_uses, bits, power, seed)
        assert cb.words.tobytes() == expected.tobytes()


class TestNnDecode:
    def test_exact_codeword(self):
        cb = draw_codebook(32, 4, 5.0, seed=2)
        for i in (0, 7, 15):
            assert nn_decode(0.7 * cb.words[i], cb, 0.7) == i

    def test_tiny_perturbation(self):
        cb = draw_codebook(32, 4, 5.0, seed=2)
        diffs = cb.words[None, :, :] - cb.words[:, None, :]
        dmin = np.min(np.linalg.norm(diffs, axis=2)[np.triu_indices(16, k=1)])
        noise = np.full(32, dmin / (4 * math.sqrt(32)))
        assert nn_decode(cb.words[9] + noise, cb, 1.0) == 9

    def test_tie_breaks_to_lowest_index(self):
        words = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        cb = Codebook(words=words, power=0.5)
        assert nn_decode(np.array([1.0, 0.0]), cb, 1.0) == 0

    def test_sq_norms_cached_per_codebook(self):
        cb = draw_codebook(16, 5, 2.0, seed=6)
        nn_decode(cb.words[3], cb, 1.0)
        norms = cb.sq_norms
        nn_decode(cb.words[4], cb, 1.0)
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
                cb = Codebook(words=words, power=1.0)
            else:
                cb = draw_codebook(n, int(rng.integers(1, 8)), float(rng.uniform(0.1, 50)), case)
            gain = float(rng.uniform(0.3, 3.0)) * (1 if rng.random() < 0.5 else -1)
            noise = float(rng.uniform(0.1, 30.0))
            sent = int(rng.integers(0, cb.num_words))
            y = gain * cb.words[sent]
            if case % 5 != 4:  # every fifth case decodes a noiseless codeword
                y = y + noise * rng.standard_normal(n)
            brute = np.sum((y[None, :] - gain * cb.words) ** 2, axis=1)
            assert nn_decode(y, cb, gain) == int(np.argmin(brute)), case

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("magnitude", [1e-158, 1e160])
    def test_extreme_magnitudes_match_brute_force(self, magnitude):
        # Near-duplicate words whose squares underflow, or whose screen scores
        # overflow, leave the relative error bound; the decision must stay exact.
        rng = np.random.default_rng(17)
        for case in range(300):
            spread = 10.0 ** rng.uniform(-8, 0)
            words = (rng.standard_normal(4) + spread * rng.standard_normal((12, 4))) * magnitude
            cb = Codebook(words=words, power=1.0)
            y = 1.5 * words[int(rng.integers(0, 12))]
            if case % 2:
                y = y + spread * magnitude * rng.standard_normal(4)
            brute = np.sum((y[None, :] - 1.5 * words) ** 2, axis=1)
            assert nn_decode(y, cb, 1.5) == int(np.argmin(brute)), case

    def test_equal_norm_ties_break_to_lowest_index(self):
        # sign flips of one vector all lie at the same distance from the origin
        base = np.array([0.5, -1.25, 2.0, 0.75])
        words = np.array([base * s for s in ([1, 1, 1, 1], [-1, 1, 1, 1], [1, -1, -1, 1])])
        cb = Codebook(words=words, power=1.0)
        assert nn_decode(np.zeros(4), cb, 1.3) == 0
        assert nn_decode(np.array([0.0, 0.0, 0.0, 1.0]), cb, -0.7) == 0

    def test_gain_scale_consistency(self):
        cb = draw_codebook(24, 5, 3.0, seed=4)
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.standard_normal(24) * 2.0
            g = float(rng.uniform(0.1, 3.0))
            assert nn_decode(y, cb, g) == nn_decode(y / g, cb, 1.0)

    def test_error_rate_above_capacity(self):
        # at 1.5x capacity the random-coding error is bounded away from zero
        n, bits = 96, 8
        rate = bits / n
        power = 2 ** (2 * rate / 1.5) - 1
        assert rate >= 1.5 * capacity(1.0, power)
        errors = 0
        trials = 200
        for t in range(trials):
            cb = draw_codebook(n, bits, power, seed=1000 + t)
            rng = np.random.default_rng(5000 + t)
            msg = int(rng.integers(0, 2**bits))
            y = cb.words[msg] + rng.standard_normal(n)
            errors += nn_decode(y, cb, 1.0) != msg
        assert errors / trials >= 0.3

    def test_error_count_monotone_in_power(self):
        n, bits = 96, 8

        def count_errors(power):
            errs = 0
            for t in range(200):
                cb = draw_codebook(n, bits, power, seed=2000 + t)
                rng = np.random.default_rng(7000 + t)
                msg = int(rng.integers(0, 2**bits))
                y = cb.words[msg] + rng.standard_normal(n)
                errs += nn_decode(y, cb, 1.0) != msg
            return errs

        low, high = count_errors(0.12), count_errors(0.48)
        assert high <= low + 2


class TestCapacity:
    def test_examples(self):
        assert capacity(1.0, 3.0) == pytest.approx(1.0)
        assert capacity(2.5, 0.0) == 0.0
        assert capacity(0.5, 12.0) == pytest.approx(1.0)


class TestIdealLink:
    def test_below_capacity_succeeds(self):
        cap = capacity(1.0, 100.0)
        assert ideal_link(LinkBudget(gain=1.0, rate=0.9 * cap, power=100.0))

    def test_at_capacity_fails(self):
        cap = capacity(1.0, 100.0)
        assert not ideal_link(LinkBudget(gain=1.0, rate=cap, power=100.0))

    def test_zero_rate_succeeds(self):
        assert ideal_link(LinkBudget(gain=0.3, rate=0.0, power=1.0))
