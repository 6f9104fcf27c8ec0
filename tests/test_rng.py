from itertools import chain, islice

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


def test_randbelow_refuses_a_total_above_one_word(monkeypatch):
    """Above 2**64 the oracle's limit would be 0 and every word rejected; it
    raises as ``rng.rejection_limit`` does, before drawing.  2**64 itself
    takes one word."""
    gen, ref = SplitMix64(5), SplitMix64(5)
    assert gen.randbelow(2**64) == ref.next_word()
    drawn = []
    real = SplitMix64.next_word

    def bounded(self):
        drawn.append(1)
        assert len(drawn) < 100, "the draw rejects every word"
        return real(self)

    monkeypatch.setattr(SplitMix64, "next_word", bounded)
    with pytest.raises(OverflowError):
        gen.randbelow(2**64 + 1)
    assert not drawn


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
    words = chain.from_iterable(rng.blocks(seed))
    assert list(islice(words, 25)) == [scalar.next_word() for _ in range(25)]


def test_rejection_limit():
    assert rng.rejection_limit(1) == 2**64
    assert rng.rejection_limit(2) == 2**64
    assert rng.rejection_limit(3) == 2**64 - 1
    assert rng.rejection_limit(2**64) == 2**64
    # above 2**64 every word would be rejected
    with pytest.raises(OverflowError):
        rng.rejection_limit(2**64 + 1)
