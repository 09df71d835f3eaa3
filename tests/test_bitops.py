import os
import random

import numpy as np
import pytest

from negdep.bitops import (
    SubsetExtractor,
    bits_from_mask,
    cap,
    covering_steps,
    indices_of,
    is_submask,
    mask_from_bits,
    mask_of_indices,
    subsets_lex,
)


def test_mask_bitstring_roundtrip():
    assert mask_from_bits("100") == 0b001
    assert mask_from_bits("011") == 0b110
    assert bits_from_mask(0b001, 3) == "100"
    for mask in range(32):
        assert mask_from_bits(bits_from_mask(mask, 5)) == mask


def test_mask_from_bits_matches_the_per_character_loop():
    def per_char(bits):
        mask = 0
        for pos, ch in enumerate(bits):
            if ch == "1":
                mask |= 1 << pos
            elif ch != "0":
                raise ValueError(f"not a bitstring: {bits!r}")
        return mask

    def outcome(f, bits):
        try:
            return f(bits)
        except ValueError as exc:
            return str(exc)

    rng = random.Random(11)
    cases = [" 01", "0_1", "1 0", "\uff12", "", "0", "1", "01\n", "+1", "0b1", "1" * 70]
    cases += ["".join(rng.choice("01") for _ in range(rng.randrange(25))) for _ in range(300)]
    cases += ["".join(rng.choice("01 2_-") for _ in range(rng.randrange(1, 8))) for _ in range(300)]
    for bits in cases:
        assert outcome(mask_from_bits, bits) == outcome(per_char, bits), bits
    with pytest.raises(ValueError, match="not a bitstring"):
        mask_from_bits("1 0")


def test_bits_from_mask_matches_the_per_bit_form():
    def per_bit(mask, n):
        return "".join("1" if mask >> pos & 1 else "0" for pos in range(n))

    rng = random.Random(5)
    for n in range(21):
        # masks of 2^n and above are truncated to their low n bits
        masks = [0, (1 << n) - 1, 1 << n, -1]
        masks += [rng.randrange(-8, 1 << (n + 3)) for _ in range(50)]
        for mask in masks:
            assert bits_from_mask(mask, n) == per_bit(mask, n)
    assert bits_from_mask(5, 0) == ""


def test_indices_are_one_based_ascending():
    assert indices_of(0b101) == (1, 3)
    assert indices_of(0) == ()
    assert mask_of_indices([3, 1]) == 0b101
    assert mask_of_indices([]) == 0


def test_is_submask():
    assert is_submask(0b001, 0b011)
    assert not is_submask(0b100, 0b011)
    assert is_submask(0, 0)


def test_subsets_lex_order():
    subsets = [indices_of(s) for s in subsets_lex(3)]
    assert subsets == [
        (1,),
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (2,),
        (2, 3),
        (3,),
    ]


def test_subsets_lex_nonempty_complete():
    masks = subsets_lex(4)
    assert len(masks) == 15
    assert len(set(masks)) == 15
    assert 0 not in masks


def _row_of(ex, mask):
    """The row of ex's split that the point ``mask`` lands in."""
    dense = np.zeros(1 << ex.n, dtype=np.int64)
    dense[mask] = 1
    return int(np.flatnonzero(ex.split(dense).any(axis=1))[0])


def test_subset_extractor_packs_densely():
    ex = SubsetExtractor(0b101, 3)  # select variables 1 and 3
    assert _row_of(ex, 0b111) == 0b11
    assert _row_of(ex, 0b100) == 0b10
    assert _row_of(ex, 0b010) == 0b00
    assert _row_of(ex, 0b001) == 0b01


def test_subset_extractor_matches_naive():
    selector = 0b1011001
    ex = SubsetExtractor(selector, 7)
    chosen = indices_of(selector)
    for mask in range(1 << 7):
        packed = 0
        for t, i in enumerate(chosen):
            if mask >> (i - 1) & 1:
                packed |= 1 << t
        assert _row_of(ex, mask) == packed


def _bit_loop_table(sel, width):
    """The packed selected bits of every width-bit value, bit by bit."""
    table = []
    for value in range(1 << width):
        packed = 0
        out = 0
        for pos in range(width):
            if sel >> pos & 1:
                if value >> pos & 1:
                    packed |= 1 << out
                out += 1
        table.append(packed)
    return table


@pytest.mark.parametrize("n", range(1, 9))
def test_split_matches_bit_loop(n):
    full = (1 << n) - 1
    # distinct entries, once in int64 and once as Python ints beyond 2^63
    arrays = [np.arange(1, 2 + full, dtype=np.int64) * 7,
              np.array([(1 << 70) + 3 * mask for mask in range(1 << n)], dtype=object)]
    for selector in range(1 << n):
        ex = SubsetExtractor(selector, n)
        rows = _bit_loop_table(selector, n)
        cols = _bit_loop_table(full ^ selector, n)
        for dense in arrays:
            expected = np.zeros((1 << ex.width, 1 << (n - ex.width)), dtype=dense.dtype)
            expected[rows, cols] = dense
            got = ex.split(dense)
            assert got.dtype == dense.dtype
            assert got.shape == expected.shape
            assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("n", range(1, 9))
def test_split_returns_a_copy(n):
    dense = np.arange(1 << n, dtype=np.int64)
    before = dense.copy()
    # the highest variables: the transpose is the identity permutation
    for low in range(n + 1):
        selector = ((1 << n) - 1) ^ ((1 << low) - 1)
        out = SubsetExtractor(selector, n).split(dense)
        assert out.ravel().tolist() == before.tolist()
        out += 1
        assert not np.shares_memory(out, dense)
        assert dense.tolist() == before.tolist()


@pytest.mark.parametrize("width", range(1, 7))
def test_covering_steps_in_a_then_pos_order(width):
    below, above = covering_steps(width)
    expected = [
        (a, a | 1 << pos)
        for a in range(1 << width)
        for pos in range(width)
        if not a >> pos & 1
    ]
    assert list(zip(below.tolist(), above.tolist())) == expected


def test_cap_env_override(monkeypatch):
    base = cap("measure")
    monkeypatch.setenv("NEGDEP_MAX_N", str(base + 3))
    assert cap("measure") == base + 3
    assert cap("neg_regression") == base + 3
    monkeypatch.delenv("NEGDEP_MAX_N")
    assert cap("measure") == base


def test_cap_unknown_name():
    with pytest.raises(KeyError):
        cap("nonexistent")
