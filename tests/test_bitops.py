"""Mask utilities."""
from dnf_fourier.bitops import subsets_up_to


def test_subsets_up_to_matches_popcount_filter():
    for n in range(1, 11):
        for d_max in range(n + 1):
            expected = [m for m in range(1 << n) if m.bit_count() <= d_max]
            assert subsets_up_to(n, d_max) == expected, (n, d_max)


def test_subsets_up_to_edge_cases():
    assert subsets_up_to(4, 0) == [0]
    assert subsets_up_to(4, -1) == []
    assert subsets_up_to(3, 7) == list(range(8))



def test_pdep_array_matches_pdep():
    import numpy as np

    from dnf_fourier.bitops import pdep, pdep_array

    for mask in (0, 0b1, 0b1011_0110, (1 << 24) - 1 - 0b1001):
        width = mask.bit_count()
        xs = np.arange(min(1 << width, 300), dtype=np.int64)
        assert pdep_array(xs, mask).tolist() == [pdep(int(x), mask) for x in xs], mask
