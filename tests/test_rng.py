from itertools import islice

import pytest

from hodgewalk import rng
from oracles import SplitMix64, weighted_index


def test_splitmix_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_word() for _ in range(10)] == [b.next_word() for _ in range(10)]
    c = SplitMix64(12346)
    assert a.next_word() != c.next_word()


def test_splitmix_known_values():
    # first outputs for seed 0 (standard SplitMix64 stream)
    gen = SplitMix64(0)
    assert gen.next_word() == 0xE220A8397B1DCDAF
    assert gen.next_word() == 0x6E789E6AA1B965F4


def test_randbelow_bounds_and_coverage():
    gen = SplitMix64(99)
    seen = set()
    for _ in range(200):
        v = gen.randbelow(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))
    assert gen.randbelow(1) == 0


def test_weighted_index_frequencies():
    gen = SplitMix64(4)
    cum = [1, 4, 8]  # weights 1, 3, 4
    counts = [0, 0, 0]
    n = 40000
    for _ in range(n):
        counts[weighted_index(cum, gen)] += 1
    for c, w in zip(counts, (1, 3, 4)):
        assert abs(c / n - w / 8) < 0.01


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 2**64 - 1, -1, 12345])
def test_block_words_match_scalar_stream(monkeypatch, block, seed):
    """Word i of the stream is the same whatever block it falls in."""
    monkeypatch.setattr(rng, "BLOCK", block)
    scalar = SplitMix64(seed)
    assert list(islice(rng.words(seed), 25)) == [scalar.next_word() for _ in range(25)]


def test_bounded_draw_matches_randbelow_under_rejection():
    """n = 3 * 2**62 rejects every word at or above 3 * 2**62: about 1 in 4."""
    n = 3 * 2**62
    limit = rng.rejection_limit(n)
    assert limit == n
    for seed in range(200):
        scalar = SplitMix64(seed)
        stream = rng.words(seed)
        draws = [rng.below(stream.__next__, n, limit) for _ in range(20)]
        assert draws == [scalar.randbelow(n) for _ in range(20)]
        # both sides consumed the same words
        assert next(stream) == scalar.next_word()
    words = list(islice(rng.words(1), 4000))
    share = sum(w >= limit for w in words) / len(words)
    assert 0.2 < share < 0.3


def test_rejection_limit():
    assert rng.rejection_limit(1) == 2**64
    assert rng.rejection_limit(2) == 2**64
    assert rng.rejection_limit(3) == 2**64 - 1
