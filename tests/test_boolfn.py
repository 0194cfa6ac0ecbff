"""Core spectrum operations against direct-definition oracles.

The transform oracle computes each coefficient straight from its defining
average: 2^-n * sum over all inputs of f(x) * (-1)^|x & S|, as a dense
character-matrix product, which is quadratic in the table size and shares
no code with the fast transform.  The plain radix-2 butterfly, one full
pass per stage, is the oracle of the cache-blocked radix-4 one at sizes
the character matrix cannot reach.  The ranking oracles sort the whole
spectrum: a full lexsort gives the kept-coefficient order, and prefix sums
of the sorted squares give the smallest number of coefficients to keep.
"""
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnf_fourier import (
    BooleanFunction,
    DimensionMismatchError,
    Dnf,
    DyadicRational,
    FourierSpectrum,
    fourier_transform,
    hamming_distance_fraction,
    min_coeffs_for_eps,
    one_norm_at_degree,
    weight_above_degree,
    weight_outside_masks,
)
from dnf_fourier import boolfn
from dnf_fourier.boolfn import (
    COLUMN_LOOP_MIN,
    WHT_BLOCK_BYTES,
    popcount_table,
    ranked_masks,
    walsh_butterfly,
)
from dnf_fourier.generators import SplitMix64

from conftest import bits_of, table_of


def character_matrix(n: int) -> np.ndarray:
    """H[s, x] = (-1)^popcount(s & x)."""
    idx = np.arange(1 << n)
    parity = popcount_table(n)[idx[:, None] & idx[None, :]] & 1
    return 1 - 2 * parity.astype(np.int64)


def oracle_scaled_spectrum(f: BooleanFunction) -> np.ndarray:
    """2^n * fhat(S) for every S, from the definition: the character
    matrix times the table, 2^8 rows of the matrix at a time (the whole
    matrix takes 128 MiB at n = 12)."""
    x = np.arange(f.size)
    table = f.to_array().astype(np.int64)
    rows = []
    for lo in range(0, f.size, 1 << 8):
        parity = popcount_table(f.n)[x[lo:lo + (1 << 8), None] & x[None, :]] & 1
        rows.append((1 - 2 * parity.astype(np.int64)) @ table)
    return np.concatenate(rows)


def oracle_butterfly(a: np.ndarray, stop: int | None = None) -> np.ndarray:
    """The radix-2 butterfly: one pass over the whole array per stage, with
    a half-length temporary, in place; with ``stop`` only the stages at
    strides below it."""
    h = 1
    while h < (stop or a.size):
        v = a.reshape(-1, 2, h)
        lo, hi = v[:, 0], v[:, 1]
        tmp = lo.copy()
        lo += hi
        np.subtract(tmp, hi, out=hi)
        h *= 2
    return a


def oracle_ranked_order(spec: FourierSpectrum) -> np.ndarray:
    """Every mask by decreasing |coefficient|, ties by ascending mask."""
    absvals = np.abs(spec.scaled)
    return np.lexsort((np.arange(absvals.size), -absvals))


def oracle_min_coeffs(spec: FourierSpectrum, eps) -> int:
    """Smallest M whose top-M squares (in the oracle order) leave <= eps."""
    eps = Fraction(eps)
    squares = [int(v) ** 2 for v in np.abs(spec.scaled)[oracle_ranked_order(spec)]]
    left = sum(squares)
    scale = 1 << (2 * spec.n)
    for m, sq in enumerate(squares):
        if Fraction(left, scale) <= eps:
            return m
        left -= sq
    return len(squares)


def random_function(rng: SplitMix64, n: int) -> BooleanFunction:
    bits = 0
    for chunk in range((1 << n) + 63 >> 6):
        bits |= rng.next_u64() << (64 * chunk)
    return table_of(n, bits & ((1 << (1 << n)) - 1))


# -- frozen examples ----------------------------------------------------------


def test_constant_one_spectrum():
    spec = fourier_transform(BooleanFunction.constant(2, True))
    assert spec.coeff(0) == 1
    assert all(spec.coeff(m) == 0 for m in (1, 2, 3))


def test_single_literal_spectrum():
    f = Dnf.from_term_literals(1, [[1]]).evaluate()
    spec = fourier_transform(f)
    assert spec.coeff(0) == DyadicRational(1, 1)
    assert spec.coeff(1) == DyadicRational(-1, 1)


def test_and_spectrum():
    f = Dnf.from_term_literals(2, [[1, 2]]).evaluate()
    spec = fourier_transform(f)
    assert spec.coeff(0b00) == DyadicRational(1, 2)
    assert spec.coeff(0b01) == DyadicRational(-1, 2)
    assert spec.coeff(0b10) == DyadicRational(-1, 2)
    assert spec.coeff(0b11) == DyadicRational(1, 2)


def test_one_norm_at_degree_examples():
    and2 = fourier_transform(Dnf.from_term_literals(2, [[1, 2]]).evaluate())
    assert one_norm_at_degree(and2, 1) == DyadicRational(1, 1)
    assert one_norm_at_degree(and2, 0) == DyadicRational(1, 2)
    zero = fourier_transform(BooleanFunction.constant(3, False))
    assert all(one_norm_at_degree(zero, d) == 0 for d in range(4))


def test_weight_above_degree_examples():
    and2 = fourier_transform(Dnf.from_term_literals(2, [[1, 2]]).evaluate())
    assert weight_above_degree(and2, 1) == DyadicRational(1, 4)
    assert weight_above_degree(and2, 2) == 0
    xor = fourier_transform(table_of(2, 0b0110))
    assert weight_above_degree(xor, 1) == DyadicRational(1, 2)


def test_min_coeffs_examples():
    and2 = fourier_transform(Dnf.from_term_literals(2, [[1, 2]]).evaluate())
    assert min_coeffs_for_eps(and2, Fraction(1, 16)) == 3
    assert min_coeffs_for_eps(and2, 1) == 0
    one = fourier_transform(BooleanFunction.constant(2, True))
    assert min_coeffs_for_eps(one, Fraction(1, 2)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 20])
def test_a_table_longer_than_2_to_the_n_bits_is_rejected(n):
    # the last of the 2^n entries may be set; a bit past it is an error,
    # whether it is a stray high bit of the one byte (n < 3) or in a byte
    # past the table, and so is a negative or too long table_hex. A table
    # too short, of another dtype or not flat is an error too
    full = (1 << (1 << n)) - 1
    assert table_of(n, full).ones == 1 << n
    assert table_of(n, 1 << ((1 << n) - 1)).value((1 << n) - 1) == 1
    for x in (-1, 1 << n):
        with pytest.raises(IndexError):
            table_of(n, full).value(x)
    for bits in (1 << (1 << n), full << 1):
        with pytest.raises(ValueError, match="beyond 2\\^n entries"):
            table_of(n, bits)
        with pytest.raises(ValueError, match="beyond 2\\^n entries"):
            BooleanFunction.from_json(json.dumps({"n": n, "table_hex": format(bits, "x")}))
    with pytest.raises(ValueError, match="beyond 2\\^n entries"):
        BooleanFunction.from_json(json.dumps({"n": n, "table_hex": "-1"}))
    packed = table_of(n, full).packed()
    for bad in (packed[:-1], packed.astype(np.int16), packed.reshape(1, -1)):
        with pytest.raises(ValueError, match="uint8 bytes"):
            BooleanFunction(n, bad)


def test_min_coeffs_tie_break_is_ascending_mask():
    and2 = fourier_transform(Dnf.from_term_literals(2, [[1, 2]]).evaluate())
    assert list(ranked_masks(and2, 4)) == [0, 1, 2, 3]
    assert list(ranked_masks(and2, 2)) == [0, 1]
    with pytest.raises(ValueError):
        ranked_masks(and2, 5)


def test_hamming_examples():
    f = Dnf.from_term_literals(2, [[1, 2]]).evaluate()
    assert hamming_distance_fraction(f, f) == 0
    c0 = BooleanFunction.constant(3, False)
    c1 = BooleanFunction.constant(3, True)
    assert hamming_distance_fraction(c0, c1) == 1
    assert hamming_distance_fraction(f, BooleanFunction.constant(2, False)) == DyadicRational(1, 2)
    with pytest.raises(DimensionMismatchError):
        hamming_distance_fraction(f, c0)


def test_ones_and_hamming_count_the_packed_table_a_block_at_a_time():
    # both read the packed table one HIST_CHUNK block at a time, so neither
    # holds a copy of it (2 MiB at n = 24), of f xor g, or the 2^n bytes of
    # an unpacked table
    import tracemalloc

    from dnf_fourier import random_read_k

    f, g = (random_read_k(n=24, s=20, w=4, k=3, seed=seed).evaluate() for seed in (1, 2))
    for count, oracle in ((lambda: f.ones, bits_of(f).bit_count()),
                          (lambda: hamming_distance_fraction(f, g),
                           DyadicRational((bits_of(f) ^ bits_of(g)).bit_count(), 24))):
        tracemalloc.start()
        try:
            assert count() == oracle
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < f.size / 16, f"{peak} bytes for a table of {f.size // 8}"


# -- oracle agreement ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transform_matches_oracle_exhaustively(n):
    h = character_matrix(n)
    for bits in range(1 << (1 << n)):
        f = table_of(n, bits)
        fast = fourier_transform(f).scaled
        assert np.array_equal(fast, h @ f.to_array().astype(np.int64))


def test_transform_matches_oracle_exhaustively_n4():
    # all 65536 tables at once: columns of the batch are the oracle spectra
    h = character_matrix(4)
    tables = ((np.arange(1 << 16)[None, :] >> np.arange(16)[:, None]) & 1).astype(
        np.int64
    )
    oracle = h @ tables
    for bits in range(1 << 16):
        fast = fourier_transform(table_of(4, bits)).scaled
        assert np.array_equal(fast, oracle[:, bits])


def test_transform_matches_oracle_random():
    rng = SplitMix64(7)
    for i in range(50):
        n = 4 + i % 7  # up to 10
        f = random_function(rng, n)
        assert np.array_equal(fourier_transform(f).scaled, oracle_scaled_spectrum(f))


@st.composite
def _word_tables(draw, max_n=12):
    """Tables on 1..12 variables (n = 0 is no function: n >= 1) whose
    16-bit words are all-zero, all-one or drawn at random, so that words
    of either constant sit beside mixed ones."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    count = max(1, (1 << n) >> 4)
    words = draw(st.lists(st.sampled_from([0, 0xFFFF]) | st.integers(0, 0xFFFF),
                          min_size=count, max_size=count))
    bits = sum(word << (16 * k) for k, word in enumerate(words))
    return table_of(n, bits & ((1 << (1 << n)) - 1))


#: n = 12 with every third word all-zero, every third all-one and the rest
#: mixed, drawn besides whatever the strategy draws.
_WORDS12 = table_of(12, sum((0, 0xFFFF, k * 0x9E37 & 0xFFFF)[k % 3] << (16 * k)
                            for k in range(256)))


@given(f=_word_tables(), chunk=st.sampled_from([8, 16, 48, 64, boolfn.HIST_CHUNK]))
@example(f=_WORDS12, chunk=48)
@settings(max_examples=40, deadline=None)
def test_byte_table_transform_matches_the_character_matrix(f, chunk):
    # from n = 4 the buffer starts from the 16-point transforms of the
    # table's words, HIST_CHUNK entries at a time; a chunk of 8 to 64
    # entries (1 to 4 words) makes the fill cross chunk edges
    with mock.patch.object(boolfn, "HIST_CHUNK", chunk):
        spec = fourier_transform(f)
    assert spec.scaled.dtype == np.int32
    assert np.array_equal(spec.scaled, oracle_scaled_spectrum(f))


def test_byte_spectra_are_the_8_point_transforms_of_every_byte():
    # row b is the character matrix of 3 variables times the bits of b
    # (bit i is entry i): 2 KiB of int8, in [-4, 8], read-only
    table = boolfn._BYTE_SPECTRA
    bits = (np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1
    assert table.dtype == np.int8 and table.shape == (256, 8) and not table.flags.writeable
    assert np.array_equal(table, bits @ character_matrix(3).T)
    assert (table.min(), table.max()) == (-4, 8)


@pytest.mark.parametrize("n", [4, 9, 18, 20])
def test_transform_starts_its_butterfly_at_stride_16(n):
    # for n >= 4 the stages at strides 1 to 8 are the byte table's, and
    # every stage the butterfly runs is at stride 16 or more
    f = random_function(SplitMix64(n), n)
    with mock.patch.object(boolfn, "_butterfly_stages",
                           wraps=boolfn._butterfly_stages) as stages:
        spec = fourier_transform(f)
    starts = {call.args[2] for call in stages.call_args_list if call.args[0].ndim == 1}
    assert starts == {16}
    want = oracle_butterfly(f.to_array().astype(np.int64))
    assert np.array_equal(spec.scaled, want)


def test_parseval_and_reconstruction_random():
    rng = SplitMix64(99)
    for i in range(60):
        n = 2 + i % 9  # up to 10
        f = random_function(rng, n)
        spec = fourier_transform(f)
        assert spec.total_weight() == DyadicRational(f.ones, n)
        # reconstruction: evaluating the polynomial at every input, via the
        # character matrix, must reproduce the table exactly
        values = character_matrix(n) @ spec.scaled
        assert np.array_equal(values, f.to_array().astype(np.int64) << n)


@given(st.integers(min_value=0, max_value=2**16 - 1))
@settings(max_examples=200)
def test_parseval_exact_n4(bits):
    f = table_of(4, bits)
    spec = fourier_transform(f)
    assert spec.total_weight() == DyadicRational(f.ones, 4)


@st.composite
def _tables(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return table_of(n, draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)))


@st.composite
def _tied_spectra(draw, max_n=6):
    """Coefficient vectors drawn from a few values, so most magnitudes tie."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    values = draw(st.lists(st.integers(min_value=-(1 << n), max_value=1 << n),
                           min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(values), min_size=1 << n, max_size=1 << n))
    return FourierSpectrum(n, np.array(picks, dtype=np.int32))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@given(f=_tables())
@settings(max_examples=60, deadline=None)
def test_butterfly_matches_character_matrix(dtype, f):
    table = f.to_array().astype(dtype)
    out = walsh_butterfly(table)
    assert out is table and out.dtype == dtype     # in place, in the caller's dtype
    h = character_matrix(f.n)
    assert np.array_equal(out, h @ f.to_array().astype(np.int64))
    # applied to the spectrum it evaluates the polynomial: 2^n * f(x)
    back = walsh_butterfly(out.astype(np.int64))
    assert np.array_equal(back, f.to_array().astype(np.int64) << f.n)


def test_butterfly_rejects_a_strided_view():
    with pytest.raises(ValueError):
        walsh_butterfly(np.zeros(16, dtype=np.int64)[::2])


@pytest.mark.parametrize("n", range(1, 21))
def test_blocked_butterfly_matches_the_radix2_oracle(n):
    # odd and even stage counts, within one block and across the boundary,
    # on values as large as each dtype's partial sums allow.  A block is
    # 1 MiB: 2^18 int32 entries (so n = 19, 20 cross it) and 2^17 int64
    # entries (n = 18 to 20); every pass of the stages is one block's bytes
    assert WHT_BLOCK_BYTES == 1 << 20
    rng = np.random.default_rng(n)
    for dtype, bound in ((np.int32, 1 << (30 - n)), (np.int64, 1 << (62 - n))):
        a = rng.integers(-bound, bound, 1 << n, dtype=np.int64).astype(dtype)
        want = oracle_butterfly(a.copy())
        with mock.patch.object(boolfn, "_butterfly_stages",
                               wraps=boolfn._butterfly_stages) as stages:
            got = walsh_butterfly(a)
        assert got is a and got.dtype == dtype
        assert np.array_equal(got, want)
        entries = WHT_BLOCK_BYTES // a.itemsize
        rows = max(1, (1 << n) // entries)
        shapes = [call.args[0].shape for call in stages.call_args_list]
        assert shapes[:rows] == [(min(1 << n, entries),)] * rows
        assert shapes[rows:] == ([(rows, entries // rows)] * rows if rows > 1 else [])


@pytest.mark.parametrize("n, width", [(4, 16), (5, 16), (9, 16), (9, 64), (19, 16),
                                      (20, 1 << 10), (20, 1 << 19)])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_butterfly_of_a_matrix_transforms_its_columns(n, width, dtype):
    # a (2^n / width, width) matrix gets the stages from stride width up,
    # within a block and across blocks: after the oracle's stages below
    # width, the whole transform
    a = np.random.default_rng(n).integers(-1000, 1000, 1 << n).astype(dtype)
    want = oracle_butterfly(a.copy())
    oracle_butterfly(a, stop=width)
    matrix = a.reshape(-1, width)
    assert walsh_butterfly(matrix) is matrix
    assert np.array_equal(a, want)


@pytest.mark.parametrize("n", [2, 4, 11, 12, 13])
def test_the_column_loop_runs_only_on_long_vectors(n):
    # the h = 4 stage of a vector shorter than COLUMN_LOOP_MIN is one
    # radix-4 call (n = 4 makes two calls, not five); from there on it is
    # one call per strided column, four in place of one
    assert COLUMN_LOOP_MIN == 1 << 12
    a = np.random.default_rng(n).integers(-1000, 1000, 1 << n)
    want = oracle_butterfly(a.copy())
    with mock.patch.object(boolfn, "_radix4", wraps=boolfn._radix4) as radix4:
        walsh_butterfly(a)
    assert np.array_equal(a, want)
    assert radix4.call_count == n // 2 + (3 if 1 << n >= COLUMN_LOOP_MIN else 0)


@pytest.mark.parametrize("size", [0, 3, 12, 3 << 17])
def test_butterfly_rejects_a_length_not_a_power_of_two(size):
    a = np.arange(size, dtype=np.int64)
    with pytest.raises(ValueError, match="2\\^n"):
        walsh_butterfly(a)
    assert np.array_equal(a, np.arange(size))    # nothing was written


def test_popcount_table_values():
    for n in (1, 5, 12):
        table = popcount_table(n)
        assert table.dtype == np.uint8
        assert table.tolist() == [bin(x).count("1") for x in range(1 << n)]


@given(spec=st.one_of(_tied_spectra(), _tables(max_n=8).map(fourier_transform)),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_min_coeffs_matches_sort_oracle(spec, data):
    k = data.draw(st.integers(min_value=0, max_value=2 * spec.n + 3))
    num = data.draw(st.integers(min_value=1, max_value=1 << k))
    eps = data.draw(st.sampled_from([Fraction(num, 1 << k), Fraction(1, 3), Fraction(1),
                                     Fraction(1, 1 << (2 * spec.n + 3))]))
    assert min_coeffs_for_eps(spec, eps) == oracle_min_coeffs(spec, eps)


@given(spec=st.one_of(_tied_spectra(), _tables(max_n=8).map(fourier_transform)),
       chunk=st.sampled_from([1, 2, 3, 7, 64]), eps=st.sampled_from(
           [Fraction(1, 64), Fraction(1, 3), Fraction(1), Fraction(1, 1 << 19)]))
@settings(max_examples=100, deadline=None)
def test_min_coeffs_matches_sort_oracle_in_small_chunks(spec, chunk, eps):
    # the profile accumulates the magnitude histogram block by block, in
    # blocks of 1 to 64 entries (a chunk of 3 gives blocks of 2, and 7 gives
    # 4); with blocks this small the largest magnitude lies in a later block
    # than the first
    with mock.patch.object(boolfn, "HIST_CHUNK", chunk):
        spec = FourierSpectrum(spec.n, spec.scaled)
        assert min_coeffs_for_eps(spec, eps) == oracle_min_coeffs(spec, eps)


def test_min_coeffs_matches_sort_oracle_on_ties_at_the_cut():
    # magnitudes 4, 2, 2, 2, 1, ...: eps values that land inside the tie group
    n = 4
    scaled = np.array([4, -2, 2, -2] + [1] * 12, dtype=np.int32)
    spec = FourierSpectrum(n, scaled)
    total = 16 + 12 + 12
    for left in range(total + 1):
        eps = Fraction(left, 1 << (2 * n))
        if eps > 0:
            assert min_coeffs_for_eps(spec, eps) == oracle_min_coeffs(spec, eps)


@given(spec=_tied_spectra())
@settings(max_examples=100, deadline=None)
def test_ranked_masks_is_a_prefix_of_the_full_order(spec):
    order = oracle_ranked_order(spec)
    for m in range(order.size + 1):
        assert np.array_equal(ranked_masks(spec, m), order[:m])


@given(spec=st.one_of(_tied_spectra(), _tables(max_n=8).map(fourier_transform)),
       chunk=st.sampled_from([1, 2, 3, 7, 64]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_ranked_masks_is_a_prefix_of_the_full_order_in_small_chunks(spec, chunk, data):
    # the profile's groups are built block by block, and the kept masks are
    # gathered chunk by chunk: with chunks this small the masks at the cut
    # magnitude spread over several of each
    order = oracle_ranked_order(spec)
    m = data.draw(st.integers(min_value=0, max_value=order.size))
    with mock.patch.object(boolfn, "HIST_CHUNK", chunk):
        spec = FourierSpectrum(spec.n, spec.scaled)
        assert np.array_equal(ranked_masks(spec, m), order[:m])


@given(spec=_tied_spectra(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_weight_outside_masks_with_duplicates(spec, data):
    size = 1 << spec.n
    masks = data.draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=2 * size))
    outside = sum(int(spec.scaled[m]) ** 2 for m in range(size) if m not in set(masks))
    expected = DyadicRational(outside, 2 * spec.n)
    assert weight_outside_masks(spec, masks) == expected
    assert weight_outside_masks(spec, np.array(masks + masks, dtype=np.int64)) == expected


def test_spectrum_must_be_int32():
    FourierSpectrum(2, np.zeros(4, dtype=np.int32))
    with pytest.raises(ValueError, match="int32"):
        FourierSpectrum(2, np.zeros(4, dtype=np.int64))


def oracle_readers(spec: FourierSpectrum, masks) -> dict:
    """Every whole-spectrum reader as a big-int Python sum over the entries."""
    values = [int(v) for v in spec.scaled]
    sizes = [m.bit_count() for m in range(len(values))]
    n, kept = spec.n, set(masks)
    return {
        "total_weight": DyadicRational(sum(v * v for v in values), 2 * n),
        "one_norm_total": DyadicRational(sum(abs(v) for v in values), n),
        "one_norm_at_degree": [
            DyadicRational(sum(abs(v) for v, sz in zip(values, sizes) if sz == d), n)
            for d in range(n + 1)],
        "weight_above_degree": [
            DyadicRational(sum(v * v for v, sz in zip(values, sizes) if sz > d), 2 * n)
            for d in range(n + 1)],
        "weight_outside_masks": DyadicRational(
            sum(v * v for m, v in enumerate(values) if m not in kept), 2 * n),
        "degree": max((sz for v, sz in zip(values, sizes) if v), default=0),
    }


def readers(spec: FourierSpectrum, masks) -> dict:
    n = spec.n
    return {
        "total_weight": spec.total_weight(),
        "one_norm_total": spec.one_norm_total(),
        "one_norm_at_degree": [one_norm_at_degree(spec, d) for d in range(n + 1)],
        "weight_above_degree": [weight_above_degree(spec, d) for d in range(n + 1)],
        "weight_outside_masks": weight_outside_masks(spec, masks),
        "degree": spec.degree(),
    }


@st.composite
def _extreme_spectra(draw, max_n=6):
    """Coefficient vectors that reach the bound: entries drawn from
    {0, +-1, +-2^(n-1), +-2^n}."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    values = [0, 1, -1, 1 << (n - 1), -(1 << (n - 1)), 1 << n, -(1 << n)]
    picks = draw(st.lists(st.sampled_from(values), min_size=1 << n, max_size=1 << n))
    return FourierSpectrum(n, np.array(picks, dtype=np.int32))


@given(spec=st.one_of(_tied_spectra(), _extreme_spectra(),
                      _tables(max_n=8).map(fourier_transform)),
       chunk=st.sampled_from([1, 2, 3, 7, 64, boolfn.HIST_CHUNK]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_int64_sums_match_big_int_sums(spec, chunk, data):
    # the profile sums int32 entries in int64 per subset size, one block of
    # 2^b <= chunk entries at a time, each block's sizes offset by the
    # popcount of its start; with blocks this small a sum spans many of them
    size = 1 << spec.n
    masks = data.draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=size))
    with mock.patch.object(boolfn, "HIST_CHUNK", chunk):
        spec = FourierSpectrum(spec.n, spec.scaled)
        assert readers(spec, masks) == oracle_readers(spec, masks)


@given(spec=st.one_of(_tied_spectra(), _extreme_spectra(),
                      _tables(max_n=8).map(fourier_transform)))
@settings(max_examples=50, deadline=None)
def test_readers_read_the_profile_not_the_vector(spec):
    # the constructor profiles the vector once: with the vector swapped for
    # zeros afterwards, every reader of the profile still gives its values
    def profiled():
        return (spec.total_weight(), spec.one_norm_total(), spec.degree(),
                [one_norm_at_degree(spec, d) for d in range(spec.n + 1)],
                [weight_above_degree(spec, d) for d in range(spec.n + 1)],
                [min_coeffs_for_eps(spec, eps) for eps in (Fraction(1, 64), Fraction(1))])

    before = profiled()
    spec.scaled = np.zeros_like(spec.scaled)
    assert profiled() == before


def test_int64_sums_of_a_dictator_at_n20():
    # f(x) = x_1: fhat(0) = 1/2, fhat({1}) = -1/2, so the sum of the squared
    # scaled coefficients is 2 * 2^38 = 2^39, which an int32 sum would wrap
    n = 20
    f = BooleanFunction(n, np.full((1 << n) // 8, 0xAA, dtype=np.uint8))
    spec = fourier_transform(f)
    assert spec.scaled.dtype == np.int32
    assert int(spec.scaled[0]) == 1 << (n - 1) and int(spec.scaled[1]) == -(1 << (n - 1))
    masks = [1, 5, 1 << 19]
    got, want = readers(spec, masks), oracle_readers(spec, masks)
    assert got == want
    assert got["total_weight"] == Fraction(1, 2) and got["one_norm_total"] == 1
    assert got["weight_outside_masks"] == Fraction(1, 4) and got["degree"] == 1


def oracle_groups(scaled: np.ndarray):
    """The distinct magnitudes, largest first, and how many entries have
    each, by a sort of the whole vector."""
    mags, counts = np.unique(np.abs(scaled.astype(np.int64)), return_counts=True)
    return mags[::-1].tolist(), counts[::-1].tolist()


def _groups(spec: FourierSpectrum):
    mags, counts = spec._groups
    return mags.tolist(), counts.tolist()


@pytest.mark.parametrize("chunk", [4, 16, 64])
def test_magnitude_groups_around_the_histogram_cap(chunk):
    # magnitudes just below, at and just above the cap: the first is
    # counted in the histogram, the other two among the large entries
    n = 8
    values = [chunk - 1, -chunk, chunk + 1, -(chunk + 1), 0, 1, chunk, -(chunk - 1)]
    scaled = np.resize(np.array(values, dtype=np.int32), 1 << n)
    with mock.patch.object(boolfn, "HIST_CHUNK", chunk):
        spec = FourierSpectrum(n, scaled)
    assert _groups(spec) == oracle_groups(scaled)
    assert _groups(spec)[0] == [chunk + 1, chunk, chunk - 1, 1, 0]


def test_magnitude_groups_with_every_magnitude_at_or_above_the_cap():
    n, chunk = 6, 8
    rng = np.random.default_rng(5)
    scaled = (rng.integers(chunk, (1 << n) + 1, size=1 << n)
              * rng.choice([-1, 1], size=1 << n)).astype(np.int32)
    with mock.patch.object(boolfn, "HIST_CHUNK", chunk):
        spec = FourierSpectrum(n, scaled)
    assert _groups(spec) == oracle_groups(scaled)
    assert sum(_groups(spec)[1]) == 1 << n


@pytest.mark.parametrize("n", [1, 4, 17, 19])
@pytest.mark.parametrize("value", [False, True])
def test_a_constant_spectrum_is_written_without_a_butterfly(n, value):
    # every coefficient of a constant is zero but scaled[0] = #{x : f(x) = 1},
    # 0 or 2^n: the character matrix where it fits, the analytic vector
    # beyond; no butterfly runs.  For the constant one scaled[0] = 2^n is at
    # or above the histogram's cap, 2^min(n, 16)
    f = BooleanFunction.constant(n, value)
    want = np.zeros(1 << n, dtype=np.int64)
    want[0] = f.ones
    if n <= 4:
        assert np.array_equal(oracle_scaled_spectrum(f), want)
    with mock.patch.object(boolfn, "walsh_butterfly",
                           side_effect=AssertionError("a butterfly ran")):
        spec = fourier_transform(f)
    assert spec.scaled.dtype == np.int32 and np.array_equal(spec.scaled, want)
    groups = ([1 << n, 0], [1, (1 << n) - 1]) if value else ([0], [1 << n])
    assert _groups(spec) == oracle_groups(spec.scaled) == groups
    assert spec.total_weight() == spec.one_norm_total() == int(value)
    assert spec.degree() == 0


@given(spec=st.one_of(_tied_spectra(), _extreme_spectra(),
                      _tables(max_n=8).map(fourier_transform)),
       chunk=st.sampled_from([1, 2, 3, 7, 64]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_profile_with_zero_blocks_matches_the_oracles(spec, chunk, data):
    # blocks of the profile (2^b <= chunk entries) zeroed at random among
    # blocks that are not: a zero block adds only to the zero group, and
    # the sums, the groups and the ranking still equal the big-int sums and
    # the sorts of the whole vector
    size = 1 << spec.n
    block = 1 << min(spec.n, chunk.bit_length() - 1)
    zeroed = data.draw(st.lists(st.booleans(), min_size=size // block, max_size=size // block))
    scaled = spec.scaled.copy()
    for i in np.flatnonzero(zeroed):
        scaled[i * block:(i + 1) * block] = 0
    masks = data.draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=size))
    eps = data.draw(st.sampled_from([Fraction(1, 64), Fraction(1, 3), Fraction(1)]))
    m = data.draw(st.integers(min_value=0, max_value=size))
    with mock.patch.object(boolfn, "HIST_CHUNK", chunk):
        spec = FourierSpectrum(spec.n, scaled)
        assert readers(spec, masks) == oracle_readers(spec, masks)
        assert _groups(spec) == oracle_groups(scaled)
        assert min_coeffs_for_eps(spec, eps) == oracle_min_coeffs(spec, eps)
        assert np.array_equal(ranked_masks(spec, m), oracle_ranked_order(spec)[:m])


def test_from_array_packs_a_bool_table_and_a_01_table_alike():
    rng = np.random.default_rng(3)
    table = rng.integers(0, 2, size=1 << 9).astype(bool)
    f = BooleanFunction.from_array(9, table)
    assert f == BooleanFunction.from_array(9, table.astype(np.uint8))
    assert f == BooleanFunction.from_array(9, table.tolist())
    assert np.array_equal(f.to_array(), table)


def test_transform_drops_the_packed_table_before_its_butterfly():
    # when the butterfly starts, the transform holds its int32 buffer and
    # no copy of the packed table (2^n / 8 bytes)
    import tracemalloc

    f = random_function(SplitMix64(5), 20)
    held = []
    butterfly = boolfn.walsh_butterfly

    def spy(a):
        held.append(tracemalloc.get_traced_memory()[0] - base)
        return butterfly(a)

    with mock.patch.object(boolfn, "walsh_butterfly", spy):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fourier_transform(f)
        finally:
            tracemalloc.stop()
    assert len(held) == 1
    assert held[0] < (4 << 20) + (f.size >> 4), f"{held[0] - (4 << 20)} bytes beside the buffer"


def test_transform_peak_memory_is_its_result_and_a_few_blocks():
    # the int32 result is filled from the byte table one block at a time,
    # and the profile's histogram is capped at HIST_CHUNK + 1 entries whatever
    # the largest magnitude (here 2^22 * Pr[f = 1], near 2^22): beside its
    # 16 MiB result the transform holds buffers of a few blocks
    import tracemalloc

    from dnf_fourier import random_read_k

    f = random_read_k(n=22, s=18, w=5, k=5, seed=7).evaluate()
    tracemalloc.start()
    try:
        spec = fourier_transform(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(spec._groups[0][0]) > boolfn.HIST_CHUNK
    assert peak <= 1.2 * spec.scaled.nbytes, f"{peak / spec.scaled.nbytes:.2f}x the result"


# -- concentration facts ------------------------------------------------------


def test_one_norm_concentration_bound_random():
    # keeping the largest coefficients never needs more than M^2/eps of them
    rng = SplitMix64(5)
    for i in range(40):
        n = 2 + i % 7
        f = random_function(rng, n)
        spec = fourier_transform(f)
        m = spec.one_norm_total().as_fraction()
        for eps in (Fraction(1, 2), Fraction(1, 8), Fraction(1, 64)):
            needed = min_coeffs_for_eps(spec, eps)
            bound = m * m / eps
            assert needed <= -(-bound.numerator // bound.denominator)


def test_approximation_transfers_concentration():
    # if g is close to f and concentrated on a family, f is nearly as
    # concentrated on the same family (with the factor-2 loss)
    rng = SplitMix64(31)
    for i in range(60):
        n = 2 + i % 7  # up to 8
        f = random_function(rng, n)
        flips = rng.below(1 << n)
        g = table_of(n, bits_of(f) ^ (1 << flips) if rng.coin() else bits_of(f))
        family = [m for m in range(1 << n) if rng.coin()]
        fs = fourier_transform(f)
        gs = fourier_transform(g)
        eps1 = hamming_distance_fraction(f, g)
        eps2 = weight_outside_masks(gs, family)
        lhs = weight_outside_masks(fs, family)
        assert lhs <= 2 * (eps1 + eps2)


def test_weight_outside_masks_total():
    f = Dnf.from_term_literals(3, [[1], [2, 3]]).evaluate()
    spec = fourier_transform(f)
    assert weight_outside_masks(spec, range(8)) == 0
    assert weight_outside_masks(spec, []) == spec.total_weight()


# -- serialization ------------------------------------------------------------


def test_table_json_roundtrip():
    rng = SplitMix64(11)
    for n in (1, 3, 5, 8):
        f = random_function(rng, n)
        assert BooleanFunction.from_json(f.to_json()) == f


def test_spectrum_json_roundtrip():
    # every 0/1 function's spectrum reads back as written: the constants
    # too, and random functions, which pass the Parseval check exactly
    rng = SplitMix64(5)
    functions = [Dnf.from_term_literals(3, terms).evaluate()
                 for terms in ([[1, -2], [3]], [], [[]])]
    for f in functions + [random_function(rng, n) for n in (1, 4, 9)]:
        spec = fourier_transform(f)
        back = FourierSpectrum.from_json(spec.to_json())
        assert np.array_equal(back.scaled, spec.scaled)


@pytest.mark.parametrize("numerator, log_denominator, error", [
    ((1 << 3) + 1, 3, "magnitude above 1"),    # just over 1
    (1 << 40, 0, "magnitude above 1"),         # far beyond what int32 holds
    (-2, 0, "magnitude above 1"),              # negative, magnitude 2
    (1, 0, None),                # exactly 1: scaled 2^n, the constant 1
    (-1, 0, "fails Parseval"),   # magnitude 1, but no 0/1 function has mean -1
], ids=["just-over", "beyond-int32", "negative", "at-one", "at-minus-one"])
def test_spectrum_json_rejects_a_coefficient_above_one(numerator, log_denominator, error):
    # the coefficient of S = {}, so that at one it is a 0/1 function's spectrum
    text = json.dumps({"n": 3, "coefficients": [
        {"mask": 0, "numerator": numerator, "log_denominator": log_denominator}]})
    if error is None:
        spec = FourierSpectrum.from_json(text)
        assert int(spec.scaled[0]) == numerator << 3
    else:
        with pytest.raises(ValueError, match=error):
            FourierSpectrum.from_json(text)


@pytest.mark.parametrize("n, masks", [(2, [0, 1]), (24, range(1 << 16))], ids=["n2", "n24"])
def test_spectrum_json_rejects_a_vector_that_fails_parseval(n, masks):
    # coefficient 1 at several masks: each magnitude is admissible, but the
    # sum of squares exceeds fhat({}) = 1.  At n = 24 the 2^16 squares of
    # 2^48 would wrap an int64 sum over one slice (weight_outside_masks read
    # 65536 for an exact 0, and min_coeffs_for_eps read 0 for 65536)
    with pytest.raises(ValueError, match="not the spectrum of a 0/1 function"):
        FourierSpectrum.from_json(json.dumps({"n": n, "coefficients": [
            {"mask": m, "numerator": 1, "log_denominator": 0} for m in masks]}))


@pytest.mark.parametrize("masks, error", [
    ([-1], "mask -1 outside"),            # would write the last coefficient
    ([4], "mask 4 outside"),              # 2^n: would raise IndexError
    ([1 << 40], f"mask {1 << 40} outside"),
    ([2, 1, 2], "mask 2 listed twice"),   # the last entry would win
])
def test_spectrum_json_rejects_a_mask_outside_the_cube_or_listed_twice(masks, error):
    text = json.dumps({"n": 2, "coefficients": [
        {"mask": m, "numerator": 1, "log_denominator": 2} for m in masks]})
    with pytest.raises(ValueError, match=error):
        FourierSpectrum.from_json(text)


def test_n_cap_enforced():
    from dnf_fourier import CapExceededError

    with pytest.raises(CapExceededError):
        BooleanFunction(25, np.zeros(1, dtype=np.uint8))
    with pytest.raises(CapExceededError):
        BooleanFunction(0, np.zeros(1, dtype=np.uint8))


def test_moderate_scale_stays_exact():
    # n = 16: table and spectrum are a few hundred KB; Parseval must still
    # hold exactly and the top coefficient ordering must be well defined
    from dnf_fourier import random_read_k

    dnf = random_read_k(16, 8, 5, 3, seed=77)
    f = dnf.evaluate()
    spec = fourier_transform(f)
    assert spec.total_weight() == DyadicRational(f.ones, 16)
    m = min_coeffs_for_eps(spec, Fraction(1, 8))
    kept = ranked_masks(spec, m)
    assert weight_outside_masks(spec, kept) <= Fraction(1, 8)
    if m > 0:
        fewer = ranked_masks(spec, m - 1)
        assert weight_outside_masks(spec, fewer) > Fraction(1, 8)
