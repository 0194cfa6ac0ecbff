"""Mutation gate: each mutant below, applied to a copy of the repository,
must make at least one of its killing tests fail.

    python tools/mutants.py

A mutant replaces one text, which must occur exactly once in its file,
by another.  For each mutant the repository is copied to a temporary
directory (without .git), the text is replaced there, and the killing
tests run with ``pytest -x``; the mutant is killed when one of them
fails (pytest's exit code 1, not a usage or collection error).  The
script prints one line per mutant and exits 1 if any survived.  Tier-1
does not collect it, but ``tests/test_mutants.py`` checks that each old
text still occurs exactly once, so the table follows the code.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the repository root
    old: str           # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]   # pytest ids, relative to the root


_ENCODER = "src/dnf_fourier/encoder.py"
_ROUND_LOOP = "tests/test_encoder.py::test_the_analysis_of_readk16_matches_the_round_loop"
_CORPUS = "tests/test_encoder.py::test_analysis_record_matches_scalar_encoder_on_corpus"

#: The mutants of the encoder that composes a run from its sub-pair's.
MUTANTS = (
    Mutant("a-shifted-by-S", _ENCODER,
           "values | sub_a << s_1.bit_count()", "values | sub_a << s_mask.bit_count()",
           (_CORPUS,)),
    Mutant("rank-prefix-of-the-next-word", _ENCODER,
           "row = prefix[i >> 6] + ", "row = prefix[(i >> 6) + 1] + ",
           (_CORPUS, _ROUND_LOOP)),
    Mutant("rank-counts-its-own-bit", _ENCODER,
           "(words[i >> 6] & ((1 << (i & 63)) - 1))", "(words[i >> 6] & ((2 << (i & 63)) - 1))",
           (_CORPUS, _ROUND_LOOP)),
    Mutant("increasing-cover-check-dropped", _ENCODER,
           "    if covers.first[sub] <= idx:\n", "    if False:\n",
           ("tests/test_encoder.py::test_a_held_sub_pair_whose_cover_starts_too_early_is_caught",)),
    Mutant("union-checked-once-per-cover", _ENCODER,
           "    cid, a = _encode(dnf, s_mask, xsbar_bits, tables, covers)\n"
           "    union = covers.union[cid]\n    if s_mask & ~union:\n",
           "    known = len(covers.first)\n"
           "    cid, a = _encode(dnf, s_mask, xsbar_bits, tables, covers)\n"
           "    union = covers.union[cid]\n    if cid >= known and s_mask & ~union:\n",
           ("tests/test_encoder.py::test_the_union_is_checked_against_each_pair_not_each_cover",)),
    Mutant("sub-pair-scan-skips-T", _ENCODER,
           "_encode(dnf, rest, y, tables, covers, idx)",
           "_encode(dnf, rest, y, tables, covers, idx + 1)",
           ("tests/test_encoder.py::test_a_choice_that_satisfies_the_selected_term_is_caught",)),
    Mutant("held-at-d-max", "src/dnf_fourier/covers.py",
           "if d < self.d_max:", "if d <= self.d_max:",
           ("tests/test_encoder.py::test_the_pass_holds_the_levels_below_d_max_until_it_ends",)),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    return (root / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def killed(mutant: Mutant) -> bool:
    """Whether the mutant's killing tests fail on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"))
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text does not occur exactly once")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              *mutant.tests], cwd=copy, env=env, capture_output=True)
        return run.returncode == 1   # a test failed, not a usage or collection error


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        verdict = killed(mutant)
        print(f"{mutant.name}: {'killed' if verdict else 'SURVIVED'}", flush=True)
        if not verdict:
            survivors.append(mutant.name)
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
