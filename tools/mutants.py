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
_COVERS = "src/dnf_fourier/covers.py"
_RESTRICTIONS = "src/dnf_fourier/restrictions.py"
_ROUND_LOOP = "tests/test_encoder.py::test_the_analysis_of_readk16_matches_the_round_loop"
_CORPUS = "tests/test_encoder.py::test_analysis_record_matches_scalar_encoder_on_corpus"
_DECODE_ORACLE = "tests/test_encoder.py::test_decode_matches_the_oracle_on_every_encoding"
_CONSTRUCTOR = "tests/test_encoder.py::test_the_constructor_rejects_what_a_record_rejects"
_PRUNED = ("tests/test_experiments.py::"
           "test_the_pruned_pass_gives_the_unpruned_passs_counts_families_tails_and_reports")
_EXPERIMENTS = "src/dnf_fourier/experiments.py"
_BOOLFN = "src/dnf_fourier/boolfn.py"


def _at_the_bound(kind: str) -> tuple[str]:
    """The case of ``kind`` that puts its lhs at its bound, at n = 3."""
    return (f"tests/test_check_kinds.py::test_check_holds_at_its_bound_and_fails_one_unit_past"
            f"[3-{kind}]",)


#: The mutants of the encoder that composes a run from its sub-pair's, of
#: the round that each subset's pairs share and the rank index of what
#: the pass holds, of the family analysis's cover counts, of the pass's
#: zero-parent rule and its drop, of the decoder and the encoding's codec,
#: a bound made strict in each row kind whose lhs a test puts at its
#: bound, the middle link of each cover-count chain made strict, and the
#: kernels of the transform, the reconstruction check and the union table.
MUTANTS = (
    Mutant("a-shifted-by-S", _ENCODER,
           "values | sub_a << s_1.bit_count()", "values | sub_a << r.s_mask.bit_count()",
           (_CORPUS,)),
    Mutant("rank-prefix-of-the-next-word", _ENCODER,
           "row = prefix[i >> 6] + ", "row = prefix[(i >> 6) + 1] + ",
           (_CORPUS, _ROUND_LOOP)),
    Mutant("rank-counts-its-own-bit", _ENCODER,
           "(words[i >> 6] & ((1 << (i & 63)) - 1))", "(words[i >> 6] & ((2 << (i & 63)) - 1))",
           (_CORPUS, _ROUND_LOOP)),
    Mutant("rank-prefix-counts-its-own-word", _ENCODER,
           "np.cumsum(counts[:-1], out=prefix[1:])", "np.cumsum(counts, out=prefix)",
           (_CORPUS,)),
    Mutant("increasing-cover-check-dropped", _ENCODER,
           "    if covers.first[sub] <= idx:\n", "    if False:\n",
           ("tests/test_encoder.py::test_a_held_sub_pair_whose_cover_starts_too_early_is_caught",)),
    Mutant("union-checked-once-per-cover", _ENCODER,
           "    cid = covers.intern(idx, sub)\n"
           "    union = covers.union[cid]\n    if s_mask & ~union:\n",
           "    known = len(covers.first)\n"
           "    cid = covers.intern(idx, sub)\n"
           "    union = covers.union[cid]\n    if cid >= known and s_mask & ~union:\n",
           ("tests/test_encoder.py::test_the_union_is_checked_against_each_pair_not_each_cover",)),
    Mutant("sub-pair-checked-against-S", _ENCODER,
           "extract_cover(dnf, rest, xsbar_bits | pdep(values, s_1), sub_round)",
           "extract_cover(dnf, s_mask, xsbar_bits | pdep(values, s_1), sub_round)",
           ("tests/test_encoder.py::test_two_singletons_golden_trace",)),
    Mutant("distinct-covers-counted-per-pair", _COVERS,
           "distinct[u] += 1", "distinct[u] += count",
           (_CORPUS,)),
    Mutant("sub-pair-scan-skips-T", _ENCODER,
           "SubsetRound(self.dnf, rest, tables, self.covers, idx)",
           "SubsetRound(self.dnf, rest, tables, self.covers, idx + 1)",
           ("tests/test_encoder.py::test_a_choice_that_satisfies_the_selected_term_is_caught",)),
    Mutant("held-at-d-max", _COVERS,
           "if d < self.d_max:", "if d <= self.d_max:",
           ("tests/test_encoder.py::test_the_pass_holds_the_levels_below_d_max_until_it_ends",)),
    Mutant("candidates-compressed-with-S-plan", _ENCODER,
           "_lex_choices(compress(s_1, plan))",
           "_lex_choices(compress(s_1, tables.full_depth_entry(self.s_mask)[1]))",
           (_CORPUS, _ROUND_LOOP)),
    Mutant("batch-precondition-of-the-first-pair", _ENCODER,
           "full_depth_rows(s_mask, xsbars)", "full_depth_rows(s_mask, xsbars[:1])",
           ("tests/test_encoder.py::test_the_batch_checks_the_precondition_of_every_pair",)),
    Mutant("round-kept-past-its-subset", _COVERS,
           "            r = SubsetRound(self.dnf, s_mask, tables, covers)\n",
           "            r = SubsetRound(self.dnf, s_mask, tables, covers)\n"
           "            self.__dict__.setdefault(\"rounds\", []).append(r)\n",
           ("tests/test_encoder.py::test_no_table_outlives_the_pass",)),
    Mutant("prune-on-the-lowest-parent-only", _RESTRICTIONS,
           "for i in bit_indices(s_mask)):", "for i in bit_indices(s_mask)[:1]):",
           ("tests/test_restrictions.py::"
            "test_the_pass_gives_a_subset_with_a_zero_parent_count_0_and_no_table",)),
    Mutant("prune-on-a-count-of-1", _RESTRICTIONS,
           "if any(count(s_mask ^ 1 << i) == 0 ", "if any(count(s_mask ^ 1 << i) <= 1 ",
           (_PRUNED,)),
    Mutant("drop-outside-finally", _RESTRICTIONS,
           "        finally:\n            self._by_sbar.clear()\n",
           "        except BaseException:\n            raise\n        self._by_sbar.clear()\n",
           ("tests/test_encoder.py::test_an_abandoned_pass_keeps_no_table",)),
    Mutant("decode-casts-a-huge-x-sat", _ENCODER,
           "    if e.x_sat >> dnf.n:   # before the cast, which a huge x_sat would not survive\n"
           "        raise DecodeError(BITS_BEYOND_N)\n",
           "",
           (_DECODE_ORACLE,)),
    Mutant("row-checks-position-0-only", _ENCODER,
           "(pos < 1).any(axis=1)", "(pos == 0).any(axis=1)",
           (_CONSTRUCTOR,)),
    Mutant("row-checks-1-based-before-distinct", _ENCODER,
           "    fail((np.diff(pos, axis=1) == 0).any(axis=1), SIGMA_NOT_DISTINCT)\n"
           "    fail((pos < 1).any(axis=1), SIGMA_NOT_1_BASED)\n",
           "    fail((pos < 1).any(axis=1), SIGMA_NOT_1_BASED)\n"
           "    fail((np.diff(pos, axis=1) == 0).any(axis=1), SIGMA_NOT_DISTINCT)\n",
           (_CONSTRUCTOR,)),
    Mutant("constructor-checks-distinct-first", _ENCODER,
           "        if self.a >> len(self.sigma):\n"
           "            raise ValueError(TRUTH_VALUES_BEYOND_D)\n"
           "        if len(set(self.sigma)) != len(self.sigma):\n"
           "            raise ValueError(SIGMA_NOT_DISTINCT)\n",
           "        if len(set(self.sigma)) != len(self.sigma):\n"
           "            raise ValueError(SIGMA_NOT_DISTINCT)\n"
           "        if self.a >> len(self.sigma):\n"
           "            raise ValueError(TRUTH_VALUES_BEYOND_D)\n",
           (_CONSTRUCTOR,)),
    Mutant("decode-casts-sigma-to-uint8", _ENCODER,
           "np.array([e.sigma], np.int64)", "np.array([e.sigma], np.uint8)",
           (_DECODE_ORACLE,)),
    Mutant("truth-values-written-reversed", _ENCODER,
           '"a": [a >> t & 1 for t in range(len(sigma))]',
           '"a": [a >> t & 1 for t in reversed(range(len(sigma)))]',
           ("tests/test_encoder.py::test_from_dict_reads_what_to_dict_writes",)),
    Mutant("sparsity-bound-strict", _EXPERIMENTS,
           "self.min_coeffs <= bound)", "self.min_coeffs < bound)",
           _at_the_bound("sparsity_onenorm")),
    Mutant("truncation-bound-strict", _EXPERIMENTS,
           "dist, bound, dist <= bound)", "dist, bound, dist < bound)",
           _at_the_bound("truncation_distance")),
    Mutant("approx-transfer-bound-strict", _EXPERIMENTS,
           "lhs, bound, lhs <= bound)", "lhs, bound, lhs < bound)",
           _at_the_bound("approx_transfer")),
    Mutant("read-cover-chain-bound-strict", _COVERS,
           "count <= bound and chain1 and chain2", "count < bound and chain1 and chain2",
           _at_the_bound("read_cover_chain")),
    Mutant("exact-width-chain-bound-strict", _COVERS,
           "    holds = count <= bound\n", "    holds = count < bound\n",
           _at_the_bound("exact_width_chain")),
    Mutant("read-cover-chain-middle-strict", _COVERS,
           "chain1 = bound <= mid", "chain1 = bound < mid",
           ("tests/test_covers.py::test_read_cover_count_examples",)),
    Mutant("exact-width-chain-middle-strict", _COVERS,
           "holds = holds and left <= mid and holds_top", "holds = holds and left < mid and holds_top",
           ("tests/test_covers.py::test_exact_width_chain_on_random_instances",)),
    Mutant("parseval-as-at-least", _EXPERIMENTS,
           "self.total_weight == mean)", "self.total_weight >= mean)",
           _at_the_bound("parseval")),
    Mutant("lo-plus-hi-as-lo-minus-hi", _BOOLFN,
           "np.add(low, high, out=sixteens[lo:lo + step, 0])",
           "np.subtract(low, high, out=sixteens[lo:lo + step, 0])",
           ("tests/test_boolfn.py::test_transform_matches_oracle_exhaustively_n4",)),
    Mutant("union-table-high-bits-dropped", _RESTRICTIONS,
           "& t.vars_mask & high == 0", "& t.vars_mask == 0",
           ("tests/test_restrictions.py::"
            "test_union_superset_counts_match_the_per_subset_count_in_small_chunks",)),
    Mutant("gray-step-sign-swapped", _EXPERIMENTS,
           "combine = np.subtract if (i & j).bit_count() & 1 else np.add",
           "combine = np.add if (i & j).bit_count() & 1 else np.subtract",
           ("tests/test_experiments.py::"
            "test_reconstructs_every_small_function_and_no_wrong_spectrum",)),
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
