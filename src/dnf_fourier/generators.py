"""Deterministic, seedable DNF instance families.

All randomness comes from SplitMix64, a fixed 64-bit counter-based mixer
(Steele, Lea and Flood's splittable generator).  It is implemented here in
a dozen lines of pure integer arithmetic so that a (parameters, seed) pair
produces byte-identical formulas on every platform and Python version;
no runtime default generator is involved anywhere.

Bounded draws use rejection below the largest multiple of the bound, so
they are unbiased and still deterministic.

``FAMILIES`` declares each family a spec can name, with its params; the
spec's build, its echo and ``dnf-fourier gen``'s flags all read it.  Each
integer of a spec, as of a config, is read by ``as_int``.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from decimal import Decimal

from .bitops import as_int
from .boolfn import N_CAP, _check_n
from .dnf import Dnf, Term


class GenerationError(ValueError):
    """A spec with a bad parameter, or a shape not produced within the
    rejection budget."""


_MASK64 = (1 << 64) - 1

#: Most terms a family draws (``s``, ``n_terms``): each term is drawn one
#: at a time, so a larger count is rejected before any draw.
TERM_CAP = 4096


def _check_terms(name: str, count: int) -> None:
    if count > TERM_CAP:
        raise GenerationError(f"{name}={count} beyond the term cap {TERM_CAP}")


class SplitMix64:
    """The SplitMix64 mixer: state advances by a fixed odd constant and the
    output is a finalizing hash of the state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound

    def coin(self) -> bool:
        return bool(self.below(2))

    def sample(self, pool: list[int], count: int) -> list[int]:
        """count distinct elements of pool, order-insensitive draw."""
        pool = list(pool)
        out = []
        for _ in range(count):
            out.append(pool.pop(self.below(len(pool))))
        return out


def tribes(w: int, t: int) -> Dnf:
    """t disjoint all-positive terms of width exactly w, on n = w*t variables."""
    n = w * t
    if not 1 <= n <= N_CAP:
        raise GenerationError(f"tribes({w},{t}) has n=w*t={n} outside [1, {N_CAP}]")
    terms = []
    for i in range(t):
        mask = ((1 << w) - 1) << (i * w)
        terms.append(Term(mask, 0))
    return Dnf(n, tuple(terms))


def random_read_k(
    n: int,
    s: int,
    w: int,
    k: int,
    exact_width: bool = False,
    seed: int = 0,
    budget: int = 10_000,
) -> Dnf:
    """s random terms of width <= w (= w when exact_width) with every
    variable in at most k terms; literal signs are fair coins.

    Terms are drawn one at a time against per-variable occupancy counters;
    if a term cannot be placed the whole instance is retried, up to
    ``budget`` attempts.
    """
    if not (n >= 1 and s >= 0 and w >= 1 and k >= 1):
        raise GenerationError("need n, w, k >= 1 and s >= 0")
    _check_n(n)   # before the occupancy counters, one per variable
    _check_terms("s", s)
    # a term fills at least one of the n*k variable slots (w with
    # exact_width, from w distinct variables): a shape beyond them would
    # spend the whole budget
    if s * (w if exact_width else 1) > n * k or (exact_width and s and w > n):
        raise GenerationError(f"no read-{k} instance with n={n}, s={s}, w={w} exists")
    rng = SplitMix64(seed)
    for _ in range(budget):
        occupancy = [0] * (n + 1)
        terms: list[Term] = []
        ok = True
        for _ in range(s):
            width = w if exact_width else 1 + rng.below(w)
            available = [v for v in range(1, n + 1) if occupancy[v] < k]
            if len(available) < width:
                ok = False
                break
            chosen = rng.sample(available, width)
            pos = neg = 0
            for v in sorted(chosen):
                occupancy[v] += 1
                if rng.coin():
                    neg |= 1 << (v - 1)
                else:
                    pos |= 1 << (v - 1)
            terms.append(Term(pos, neg))
        if ok:
            dnf = Dnf(n, tuple(terms))
            _validate(dnf, s=s, w_max=w, k_max=k, w_exact=w if exact_width else None)
            return dnf
    raise GenerationError(
        f"no read-{k} instance with n={n}, s={s}, w={w} found in {budget} attempts"
    )


def dense_pool(n_terms: int, term_width: int, pool_size: int, seed: int = 0) -> Dnf:
    """n_terms random terms of width exactly term_width drawn from the first
    pool_size variables; the read is unconstrained and typically high."""
    if term_width > pool_size:
        raise GenerationError(
            f"term width {term_width} exceeds pool size {pool_size}"
        )
    if not 1 <= pool_size <= N_CAP:
        raise GenerationError(f"pool size {pool_size} outside [1, {N_CAP}]")
    _check_terms("n_terms", n_terms)
    rng = SplitMix64(seed)
    terms = []
    for _ in range(n_terms):
        chosen = rng.sample(list(range(1, pool_size + 1)), term_width)
        pos = neg = 0
        for v in sorted(chosen):
            if rng.coin():
                neg |= 1 << (v - 1)
            else:
                pos |= 1 << (v - 1)
        terms.append(Term(pos, neg))
    dnf = Dnf(pool_size, tuple(terms))
    _validate(dnf, s=n_terms, w_max=term_width, k_max=None, w_exact=term_width)
    return dnf


def _validate(dnf: Dnf, s: int, w_max: int, k_max: int | None, w_exact: int | None):
    size, width, read = dnf.metrics()
    if size != s:
        raise GenerationError(f"generated {size} terms, wanted {s}")
    if width > w_max:
        raise GenerationError(f"generated width {width} > {w_max}")
    if w_exact is not None and s > 0 and any(t.width != w_exact for t in dnf.terms):
        raise GenerationError(f"generated a term of width != {w_exact}")
    if k_max is not None and read > k_max:
        raise GenerationError(f"generated read {read} > {k_max}")


#: A family's builder, its integer params, its boolean params (false
#: unless given) and whether it takes the spec's seed.
Family = namedtuple("Family", "build ints bools seeded", defaults=((), True))

#: Every family a spec can name.
FAMILIES = {
    "tribes": Family(tribes, ("w", "t"), seeded=False),
    "random_read_k": Family(random_read_k, ("n", "s", "w", "k"), ("exact_width",)),
    "dense_pool": Family(dense_pool, ("n_terms", "term_width", "pool_size")),
}


def _int_param(name: str, value) -> int:
    """A spec's integer param, read by ``as_int``; one with more digits
    than a report can write (``sys.get_int_max_str_digits``) is rejected
    here, by its name."""
    number = as_int(value)
    try:
        str(number)
    except ValueError:
        raise ValueError(f"{name}={shown(value)} has more digits than a report can write") \
            from None
    return number


def shown(value):
    """A param as a spec's echo shows it; its label prints ``str`` of this.
    A JSON float, read as a ``Decimal``, is a number when its double prints
    as the same text (``2.0``, ``0.1``), and otherwise that text in a
    string (``"1E+400"``, ``"2.00000000000000000001"``), so the echo is
    strict JSON and the label prints the param as it was written."""
    if isinstance(value, Decimal):
        number = float(value)
        return number if repr(number) == str(value) else str(value)
    return value


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    """A named family plus its parameters and seed; builds deterministically."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GenerationError(f"unknown family {self.family!r}; "
                                  f"choose from {sorted(FAMILIES)}")
        # SplitMix64 reads the seed mod 2^64: another seed would build the
        # DNF of its residue under its own label
        if not 0 <= self.seed <= _MASK64:
            raise GenerationError("seed outside [0, 2^64)")

    def build(self) -> Dnf:
        family = FAMILIES[self.family]
        try:
            unknown = sorted(set(self.params) - {*family.ints, *family.bools})
            if unknown:
                raise ValueError(f"unknown parameters {unknown}")
            kwargs = {name: _int_param(name, self.params[name]) for name in family.ints}
            for name in family.bools:
                kwargs[name] = self.params.get(name, False)
                if not isinstance(kwargs[name], bool):
                    raise TypeError(f"{name} {kwargs[name]!r} is not a boolean")
            if family.seeded:
                kwargs["seed"] = self.seed
            return family.build(**kwargs)
        except GenerationError:
            raise
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            bad = f"{self.family} is missing or has a bad parameter: {exc}"
            raise GenerationError(bad) from exc

    def label(self) -> str:
        inner = ",".join(f"{k}={shown(self.params[k])}" for k in sorted(self.params))
        return f"{self.family}({inner},seed={self.seed})"

    def to_dict(self) -> dict:
        params = {k: shown(v) for k, v in self.params.items()}
        return {"family": self.family, "params": params, "seed": self.seed}

    @classmethod
    def from_dict(cls, obj: dict) -> "GeneratorSpec":
        return cls(obj["family"], dict(obj.get("params", {})), as_int(obj.get("seed", 0)))
