"""Oracle tests for the linear-profile alignment and token-fed sub-columns.

``align_column`` keeps running per-position counters instead of
re-profiling every aligned row, and the vertical DP enumerates each
sub-column from the signatures sliced out of the aligned token rows
(``AlignedColumn.sub_column``) instead of re-lexing joined strings.  Both are answer-preserving
rewrites, checked here against references:

* the quadratic progressive alignment below (a full ``_profile_of`` after
  every row) must produce the same ``values``, ``rows`` and ``weights``;
* for every registry domain at 50 and 400 values, every interval of width
  at most τ must give the same hypothesis space (order included) and the
  same ``column_digest`` whether it is fed the sliced sub-column or the
  strings of ``segment_values``;
* one FMDV-VH inference may add at most one ``tokenize`` memo entry per
  distinct value and none to the signature / run memo tables (the
  sub-values are seen once and would only churn them).

Both paths group values by the same signatures and run the one
enumeration kernel, which lexes each group's joined strings itself;
the kernel is checked against its per-value reference in
``tests/test_enum_kernel.py``.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AutoValidateConfig
from repro.core.alignment import (
    _GAP,
    _ProfileColumn,
    _token_score,
    align_column,
)
from repro.core.enumeration import hypothesis_space
from repro.core.tokenizer import (
    CharClass,
    Token,
    alnum_runs,
    alnum_signature,
    signature,
    tokenize,
)
from repro.datalake.domains import DOMAIN_REGISTRY
from repro.service.cache import column_digest
from repro.util import most_common_stable
from repro.validate import vertical
from repro.validate.combined import FMDVCombined
from repro.validate.vertical import MAX_ALIGNED_WIDTH, FMDVVertical

# -- the quadratic reference ----------------------------------------------------


def reference_align_column(values: Sequence[str]):
    """Progressive alignment that re-profiles all rows after each one.

    Returns ``(values, rows, weights)`` for comparison with
    :class:`repro.core.alignment.AlignedColumn`.
    """
    counter: Counter[str] = Counter(values)
    distinct = sorted(counter, key=lambda v: (-len(tokenize(v)), v))
    if not distinct:
        return [], [], []
    sequences = [tokenize(v) for v in distinct]
    aligned_rows: list[list[Token | None]] = [list(sequences[0])]
    profile = _profile_of(aligned_rows)
    for seq in sequences[1:]:
        new_row, insertions = _reference_align_to_profile(profile, seq)
        for pos in insertions:
            for row in aligned_rows:
                row.insert(pos, None)
        aligned_rows.append(new_row)
        profile = _profile_of(aligned_rows)
    return distinct, [tuple(r) for r in aligned_rows], [counter[v] for v in distinct]


def _profile_of(rows: Sequence[Sequence[Token | None]]) -> list[_ProfileColumn]:
    """Summarize aligned rows into per-position dominant classes."""
    if not rows:
        return []
    profile: list[_ProfileColumn] = []
    for j in range(len(rows[0])):
        classes: Counter[CharClass] = Counter()
        symbol_texts: Counter[str] = Counter()
        for row in rows:
            token = row[j]
            if token is None:
                continue
            classes[token.cls] += 1
            if token.cls is CharClass.SYMBOL:
                symbol_texts[token.text] += 1
        if classes:
            cls = most_common_stable(classes, 1, key=lambda c: c.value)[0][0]
            text = most_common_stable(symbol_texts, 1)[0][0] if symbol_texts else None
        else:
            cls, text = CharClass.SYMBOL, None
        profile.append(_ProfileColumn(cls, text))
    return profile


def _reference_align_to_profile(profile, seq):
    """Plain Needleman-Wunsch with a diagonal-first traceback."""
    n, m = len(profile), len(seq)
    score = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        score[i][0] = score[i - 1][0] + _GAP
    for j in range(1, m + 1):
        score[0][j] = score[0][j - 1] + _GAP
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            score[i][j] = max(
                score[i - 1][j - 1] + _token_score(profile[i - 1], seq[j - 1]),
                score[i - 1][j] + _GAP,
                score[i][j - 1] + _GAP,
            )
    moves: list[tuple[str, Token | None]] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and score[i][j] == score[i - 1][j - 1] + _token_score(
            profile[i - 1], seq[j - 1]
        ):
            moves.append(("diag", seq[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and score[i][j] == score[i - 1][j] + _GAP:
            moves.append(("up", None))
            i -= 1
        else:
            moves.append(("left", seq[j - 1]))
            j -= 1
    moves.reverse()
    row = [token for _, token in moves]
    insertions = [k for k, (move, _) in enumerate(moves) if move == "left"]
    return row, insertions


def assert_same_alignment(values: Sequence[str]) -> None:
    aligned = align_column(values)
    ref_values, ref_rows, ref_weights = reference_align_column(values)
    assert aligned.values == ref_values
    assert aligned.rows == ref_rows
    assert aligned.weights == ref_weights


# -- alignment equals the reference ----------------------------------------------

_PIECES = ["12", "7", "2019", "ab", "XY", "Mar", "-", ":", "/", " ", ".", "_", "é", "a1", "ff0"]


@st.composite
def mixed_shape_values(draw):
    """Values of varying shape: digit, letter and symbol runs in any mix."""
    return "".join(draw(st.lists(st.sampled_from(_PIECES), min_size=0, max_size=8)))


@settings(max_examples=150, deadline=None)
@given(st.lists(mixed_shape_values(), min_size=0, max_size=30))
def test_alignment_matches_quadratic_reference(values):
    assert_same_alignment(values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="ab9Z0:- /", max_size=10), min_size=1, max_size=25))
def test_alignment_matches_reference_on_free_text(values):
    assert_same_alignment(values)


@pytest.mark.parametrize("seed", [0, 1])
def test_alignment_matches_reference_on_registry_domains(seed):
    rng = random.Random(seed)
    for spec in DOMAIN_REGISTRY.values():
        assert_same_alignment(spec.sample_many(rng, 50))


def test_alignment_matches_reference_on_a_composite_mix():
    rng = random.Random(7)
    values = [
        DOMAIN_REGISTRY[name].sample(rng)
        for name in ("datetime_slash", "guid", "ipv4", "phone_us", "unix_path") * 12
    ]
    assert_same_alignment(values)


# -- token-fed sub-columns equal the string path ---------------------------------

_ENUMERATION = AutoValidateConfig().enumeration
_TAU = _ENUMERATION.tau
#: Sub-column coverages: FMDV-VH's 1 - θ (the served variant) and FMDV-V's
#: full coverage.
_VH_COVERAGE = max(1.0 - AutoValidateConfig().theta, 1e-9)
_COVERAGES = (_VH_COVERAGE, 1.0)


def assert_token_fed_spaces_equal(
    values: Sequence[str], coverages: Sequence[float] = _COVERAGES
) -> int:
    """Compare every interval of width <= τ; returns how many were checked."""
    aligned = align_column(values)
    checked = 0
    for start in range(aligned.width):
        for end in range(start, min(start + _TAU, aligned.width)):
            strings = aligned.segment_values(start, end)
            sub = aligned.sub_column(start, end)
            assert len(sub) == len(strings)
            assert sorted(sub) == sorted(strings)
            assert column_digest(sub) == column_digest(strings)
            for coverage in coverages:
                assert hypothesis_space(sub, _ENUMERATION, coverage) == hypothesis_space(
                    strings, _ENUMERATION, coverage
                ), (start, end, coverage)
            checked += 1
    return checked


# The 400-value sweep checks the served coverage only, to keep its cost
# near one cold inference round per seed; the 50-value sweep checks both.
@pytest.mark.parametrize(
    ("n_values", "coverages"), [(50, _COVERAGES), (400, (_VH_COVERAGE,))]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_token_fed_spaces_equal_string_spaces(n_values, coverages, seed):
    rng = random.Random(f"{seed}/{n_values}")
    checked = 0
    for spec in DOMAIN_REGISTRY.values():
        checked += assert_token_fed_spaces_equal(spec.sample_many(rng, n_values), coverages)
    assert checked > len(DOMAIN_REGISTRY)


@settings(max_examples=40, deadline=None)
@given(st.lists(mixed_shape_values(), min_size=1, max_size=20))
def test_token_fed_spaces_equal_on_mixed_shapes(values):
    assert_token_fed_spaces_equal(values)


def test_sub_column_carries_the_lexer_facts():
    aligned = align_column(["b216-57a0", "ff-00", "b216-57a0", "1:02:03 AM"])
    for start in range(aligned.width):
        for end in range(start, aligned.width):
            sub = aligned.sub_column(start, end)
            for text in sub.counts:
                assert sub.signatures[text] == signature(text)
                assert sub.alnum_signatures[text] == alnum_signature(text)


# -- the memo tables are left alone ----------------------------------------------


def test_vh_inference_adds_at_most_one_tokenize_entry_per_distinct_value(
    small_index, small_config
):
    rng = random.Random(5)
    values = [
        DOMAIN_REGISTRY[name].sample(rng)
        for name in ("datetime_slash", "phone_us", "guid", "zip9") * 100
    ]
    assert len(values) == 400
    memo_tables = (signature, alnum_runs, alnum_signature)
    tokenize.cache_clear()
    for table in memo_tables:
        table.cache_clear()
    FMDVCombined(small_index, small_config).infer(values)
    assert tokenize.cache_info().currsize <= len(set(values))
    for table in memo_tables:
        info = table.cache_info()
        assert (info.currsize, info.hits, info.misses) == (0, 0, 0), table.__name__


# -- the width guard runs before alignment ---------------------------------------


def test_over_wide_column_is_refused_without_aligning(
    small_index, small_config, monkeypatch
):
    def no_alignment(values):
        raise AssertionError("an over-wide column must be refused before aligning")

    monkeypatch.setattr(vertical, "align_column", no_alignment)
    wide = ":".join(str(i) for i in range(100)) + ":"
    assert len(tokenize(wide)) == 200
    result = FMDVVertical(small_index, small_config).infer([wide, "1:2"] * 10)
    assert not result.found
    assert "width" in result.reason
    assert str(MAX_ALIGNED_WIDTH) in result.reason
