"""Instance generators: declared contracts and determinism."""
import pytest

from dnf_fourier import (
    DyadicRational,
    GeneratorSpec,
    SplitMix64,
    dense_pool,
    random_read_k,
    tribes,
)
from dnf_fourier.cli import main
from dnf_fourier.generators import FAMILIES, GenerationError


def test_splitmix_reference_values():
    # published reference outputs for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix_below_is_deterministic_and_in_range():
    rng = SplitMix64(42)
    draws = [rng.below(10) for _ in range(1000)]
    assert all(0 <= v < 10 for v in draws)
    rng2 = SplitMix64(42)
    assert draws == [rng2.below(10) for _ in range(1000)]


def test_tribes_examples():
    t = tribes(2, 2)
    assert [term.literals() for term in t.terms] == [[1, 2], [3, 4]]
    assert t.metrics() == (2, 2, 1)
    assert [term.literals() for term in tribes(1, 3).terms] == [[1], [2], [3]]
    f = tribes(3, 2).evaluate()
    assert DyadicRational(f.ones, 6) == DyadicRational(15, 6)


def test_tribes_cap():
    with pytest.raises(GenerationError, match=r"n=w\*t=25 outside \[1, 24\]"):
        tribes(5, 5)
    # w = 0 gives n = 0, below the range
    with pytest.raises(GenerationError, match=r"tribes\(0,3\) has n=w\*t=0 outside \[1, 24\]"):
        tribes(0, 3)


def test_random_read_k_rejects_n_beyond_the_cap_before_allocating():
    # 10^15 occupancy counters would be a MemoryError
    from dnf_fourier.boolfn import CapExceededError

    with pytest.raises(CapExceededError, match=r"^n=1000000000000000 outside \[1, 24\]$"):
        random_read_k(10**15, 3, 2, 2)
    with pytest.raises(GenerationError, match=r"n=1000000000000000 outside \[1, 24\]$"):
        GeneratorSpec("random_read_k", {"n": 10**15, "s": 3, "w": 2, "k": 2}).build()


def test_gen_rejects_n_beyond_the_cap(capsys):
    assert main(["gen", "random_read_k", "--n", str(10**15), "--s", "3", "--w", "2",
                 "--k", "2"]) == 2
    assert capsys.readouterr().err.endswith("n=1000000000000000 outside [1, 24]\n")


def test_a_term_count_beyond_the_cap_is_rejected_before_any_draw(capsys):
    # each term is drawn one at a time: 10^15 of them would never finish
    from dnf_fourier.generators import TERM_CAP

    assert len(dense_pool(TERM_CAP, 1, 2).terms) == TERM_CAP
    with pytest.raises(GenerationError, match=r"^n_terms=4097 beyond the term cap 4096$"):
        dense_pool(TERM_CAP + 1, 1, 2)
    with pytest.raises(GenerationError, match=r"^s=1000000000000000 beyond the term cap 4096$"):
        random_read_k(4, 10**15, 1, 10**15)
    assert main(["gen", "dense_pool", "--n-terms", str(10**15), "--term-width", "1",
                 "--pool-size", "2"]) == 2
    assert capsys.readouterr().err == "error: n_terms=1000000000000000 beyond the term cap 4096\n"


def test_a_seed_lies_in_64_bits():
    params = {"n": 6, "s": 3, "w": 2, "k": 2}
    assert GeneratorSpec("random_read_k", params, (1 << 64) - 1).build()
    for seed in (-1, 1 << 64):
        with pytest.raises(GenerationError, match=r"^seed outside \[0, 2\^64\)$"):
            GeneratorSpec("random_read_k", params, seed)


def test_gen_rejects_a_seed_outside_64_bits(capsys):
    for seed in (-1, 1 << 64):
        assert main(["gen", "tribes", "--w", "2", "--t", "2", "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == "error: seed outside [0, 2^64)\n"


def test_random_read_k_contract():
    d = random_read_k(8, 3, 2, 1, seed=0)
    s, w, k = d.metrics()
    assert s == 3 and w <= 2 and k <= 1


def test_random_read_k_determinism():
    a = random_read_k(8, 4, 3, 2, seed=7)
    b = random_read_k(8, 4, 3, 2, seed=7)
    assert a == b and a.to_text() == b.to_text()
    s, w, k = a.metrics()
    assert s == 4 and w <= 3 and k <= 2


def test_random_read_k_infeasible_raises():
    with pytest.raises(GenerationError):
        random_read_k(4, 8, 4, 1, exact_width=True, seed=0, budget=50)


def test_dense_pool_contract():
    d = dense_pool(4, 2, 3, seed=5)
    assert d.n == 3
    s, w, k = d.metrics()
    assert s == 4 and w == 2
    assert k >= -(-4 * 2 // 3)  # pigeonhole: 8 literal slots over 3 variables

    same = dense_pool(2, 2, 2, seed=9)
    assert all(t.vars_mask == 0b11 for t in same.terms)

    checked = dense_pool(8, 3, 6, seed=1)
    assert checked.metrics()[0] == 8 and checked.width() == 3


def test_dense_pool_infeasible():
    with pytest.raises(GenerationError):
        dense_pool(2, 4, 3, seed=0)


def test_generator_contract_over_many_seeds():
    for seed in range(1000):
        d = random_read_k(6, 3, 3, 2, seed=seed)
        s, w, k = d.metrics()
        assert s == 3 and w <= 3 and k <= 2
    for seed in range(1000):
        d = dense_pool(5, 2, 4, seed=seed)
        s, w, _ = d.metrics()
        assert s == 5 and w == 2 and d.n == 4


def test_serialization_identical_across_runs():
    texts = {random_read_k(8, 5, 3, 3, seed=77).to_text() for _ in range(5)}
    assert len(texts) == 1


def test_generator_spec_dispatch_and_label():
    spec = GeneratorSpec("tribes", {"w": 2, "t": 3})
    assert spec.build() == tribes(2, 3)
    assert spec.label() == "tribes(t=3,w=2,seed=0)"
    # every integer parameter follows the config's integer rule
    assert GeneratorSpec("tribes", {"w": "2", "t": 3.0}).build() == tribes(2, 3)
    spec2 = GeneratorSpec("random_read_k", {"n": 6, "s": 2, "w": 2, "k": 1}, seed=4)
    assert spec2.build() == random_read_k(6, 2, 2, 1, seed=4)
    with pytest.raises(GenerationError):
        GeneratorSpec("unknown_family")


#: A value for every integer parameter of ``FAMILIES``, by name.
_GEN_VALUES = {"w": 2, "t": 3, "n": 8, "s": 4, "k": 2, "n_terms": 4, "term_width": 2,
               "pool_size": 6}
#: Every boolean parameter of ``FAMILIES``.
_GEN_BOOLS = {name for family in FAMILIES.values() for name in family.bools}


def _flags(names) -> list[str]:
    """gen's flags that give each of ``names`` its value: a boolean's flag
    takes none."""
    flags = []
    for name in names:
        flags.append(f"--{name.replace('_', '-')}")
        if name not in _GEN_BOOLS:
            flags.append(str(_GEN_VALUES[name]))
    return flags


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gen_has_a_flag_for_every_parameter_of_every_family(capsys, family):
    # gen FAMILY --NAME VALUE ... writes the label line and the DNF of the
    # spec those parameters make, so a family added without its flags
    # fails; gen passes each boolean parameter, false unless its flag is given
    ints, bools = FAMILIES[family].ints, FAMILIES[family].bools
    for given in (False, True) if bools else (False,):
        params = {**{name: _GEN_VALUES[name] for name in ints}, **dict.fromkeys(bools, given)}
        assert main(["gen", family, *_flags(ints + bools * given), "--seed", "5"]) == 0
        spec = GeneratorSpec(family, params, 5)
        assert capsys.readouterr().out == f"# {spec.label()}\n" + spec.build().to_text()


def _foreign_flags():
    return [(family, name) for family, spec in sorted(FAMILIES.items())
            for name in [*_GEN_VALUES, *sorted(_GEN_BOOLS)] if name not in spec.ints + spec.bools]


@pytest.mark.parametrize("family, name", _foreign_flags())
def test_gen_rejects_a_flag_its_family_does_not_take(tmp_path, capsys, family, name):
    # as a config rejects such a param: exit 2, the flag named, nothing
    # written, even with every flag the family takes given
    out = tmp_path / "x.dnf"
    assert main(["gen", family, *_flags(FAMILIES[family].ints), *_flags([name]),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: gen {family} takes no --{name.replace('_', '-')}\n"
    assert not out.exists()
