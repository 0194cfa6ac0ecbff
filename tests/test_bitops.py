"""Mask utilities."""
from dnf_fourier.bitops import subsets_up_to


def test_subsets_up_to_matches_popcount_filter():
    for n in range(1, 11):
        for d_max in range(n + 1):
            expected = [m for m in range(1 << n) if m.bit_count() <= d_max]
            assert list(subsets_up_to(n, d_max)) == expected, (n, d_max)


def test_subsets_up_to_edge_cases():
    assert list(subsets_up_to(4, 0)) == [0]
    assert list(subsets_up_to(4, -1)) == []
    assert list(subsets_up_to(3, 7)) == list(range(8))
    assert list(subsets_up_to(0, 0)) == [0]
    assert list(subsets_up_to(0, -1)) == []
