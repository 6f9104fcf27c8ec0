from collections import Counter
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


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("modulus", [3 * 2**62, 3 * 2**61], ids=["3x2^62", "3x2^61"])
def test_blocks_reduce_only_below_the_limit(monkeypatch, block, modulus):
    """A block whose words all lie below ``rejection_limit(modulus)`` comes
    reduced modulo ``modulus``, any other block raw.  Both moduli reject
    about a quarter of the words, so both kinds occur; below 3 * 2**61 the
    limit is twice the modulus, so a reduced word can differ from its raw one."""
    monkeypatch.setattr(rng, "BLOCK", block)
    limit = rng.rejection_limit(modulus)
    kinds = Counter()
    for raw, reduced in islice(zip(rng.blocks(7), rng.blocks(7, modulus)), 200):
        if max(raw) < limit:
            kinds["reduced"] += 1
            assert reduced == [w % modulus for w in raw]
        else:
            kinds["raw"] += 1
            assert reduced == raw
    assert kinds["reduced"] and kinds["raw"]


@pytest.mark.parametrize("modulus", [2, 2**63], ids=["2", "2^63"])
def test_blocks_of_a_power_of_two_always_reduce(monkeypatch, modulus):
    """The rejection limit of a power of two is 2**64 itself, which no word
    reaches: every block comes reduced."""
    monkeypatch.setattr(rng, "BLOCK", 64)
    assert rng.rejection_limit(modulus) == 2**64
    for raw, reduced in islice(zip(rng.blocks(3), rng.blocks(3, modulus)), 20):
        assert reduced == [w % modulus for w in raw]


def test_blocks_modulo_two_to_the_64_are_the_words(monkeypatch):
    monkeypatch.setattr(rng, "BLOCK", 3)
    scalar = SplitMix64(11)
    words = chain.from_iterable(rng.blocks(11, 2**64))
    assert list(islice(words, 25)) == [scalar.next_word() for _ in range(25)]
