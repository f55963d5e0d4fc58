"""The per-value reference kernel for Algorithm 1's per-group enumeration.

``repro.core.enumeration`` enumerates each signature group with one
packed-bitset kernel.  The functions below are the straightforward
per-value implementation it must reproduce bit for bit: the same
patterns, the same match counts, in the same order, under budget
truncation too.  Options are boolean masks over the group's distinct
values, supports are ``Counter`` sums, and the DFS intersects masks with
``&``.

:func:`enumerate_group_oracle` has the production kernel's signature, so
a test swaps it in with ``monkeypatch.setattr(enumeration,
"_enumerate_group_vector", enumerate_group_oracle)`` and compares whole
pattern spaces, or whole streamed indexes at ``workers=1``, against the
unpatched run.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro.core.atoms import Atom
from repro.core.enumeration import EnumerationConfig, _Option, _reduce_to_budget
from repro.core.pattern import Pattern
from repro.core.tokenizer import CharClass, Token, alnum_runs, tokenize
from repro.util import most_common_stable


def enumerate_group_oracle(
    counter: dict[str, int],
    min_count: int,
    budget: int,
    config: EnumerationConfig,
    merge_alnum: bool,
) -> dict[Pattern, int]:
    """Drop-in for ``enumeration._enumerate_group_vector``."""
    tokens_fn = alnum_runs if merge_alnum else tokenize
    return _enumerate_group_pure(counter, min_count, budget, config, tokens_fn)


def _enumerate_group_pure(
    counter: dict[str, int],
    min_count: int,
    budget: int,
    config: EnumerationConfig,
    tokens_fn=tokenize,
) -> dict[Pattern, int]:
    """The reference per-value kernel; the vector kernel must match it."""
    distinct = list(counter.keys())
    weights = np.fromiter(counter.values(), dtype=np.int64, count=len(distinct))
    token_rows = [tokens_fn(v) for v in distinct]
    width = len(token_rows[0])
    group_total = int(weights.sum())
    option_floor = max(
        min_count, math.ceil(config.min_option_coverage * group_total)
    )

    options_per_position: list[list[_Option]] = []
    for j in range(width):
        column_tokens = [row[j] for row in token_rows]
        options = _position_options(column_tokens, weights, option_floor, config)
        if not options:
            return {}  # some position admits no atom meeting the threshold
        options_per_position.append(options)

    _reduce_to_budget(options_per_position, budget)

    results: dict[Pattern, int] = {}
    full_mask = np.ones(len(distinct), dtype=bool)

    def dfs(position: int, mask: np.ndarray, prefix: list[Atom]) -> None:
        if len(results) >= budget:
            return
        if position == width:
            results[Pattern(prefix)] = int(weights[mask].sum())
            return
        for option in options_per_position[position]:
            new_mask = mask & option.mask
            if int(weights[new_mask].sum()) < min_count:
                continue
            prefix.append(option.atom)
            dfs(position + 1, new_mask, prefix)
            prefix.pop()
            if len(results) >= budget:
                return

    dfs(0, full_mask, [])
    return results


def _position_options(
    tokens: list[Token],
    weights: np.ndarray,
    option_floor: int,
    config: EnumerationConfig,
) -> list[_Option]:
    """Generalization options at one aligned position, most general first.

    Constant and fixed-length options whose match weight cannot reach
    ``option_floor`` values are dropped immediately (the coverage retention
    step of Algorithm 1, tightened per ``min_option_coverage``).  Frequency
    rankings use :func:`repro.util.most_common_stable` — weight desc, then
    length/text asc — so the retained options are permutation-invariant
    (the determinism contract).
    """
    cls = tokens[0].cls
    n = len(tokens)
    hierarchy = config.hierarchy

    if cls is CharClass.SYMBOL:
        # Within a signature group, symbol runs are identical by definition.
        return [_Option(Atom.const(tokens[0].text), np.ones(n, dtype=bool))]

    if cls is CharClass.ALNUM:
        return _alnum_position_options(tokens, weights, option_floor, config)

    options: list[_Option] = []
    full = np.ones(n, dtype=bool)
    texts = [t.text for t in tokens]
    weight_list = weights.tolist()
    # One vectorized pass per aligned position: lengths as an int array and
    # texts as small-int codes.  Every option mask below is a single numpy
    # comparison against these, instead of a per-option list comprehension
    # over the group's tokens (the old hot loop rebuilt python-level masks
    # for every candidate atom of every position of every column).
    lengths = np.fromiter((len(t) for t in tokens), dtype=np.int64, count=n)
    text_ids: dict[str, int] = {}
    text_codes = np.fromiter(
        (text_ids.setdefault(t, len(text_ids)) for t in texts),
        dtype=np.int64,
        count=n,
    )

    # Most general first: the cross-class and unbounded atoms.
    if hierarchy.use_alnum_plus:
        options.append(_Option(Atom.alnum_plus(), full))
    if cls is CharClass.DIGIT:
        if hierarchy.use_num:
            options.append(_Option(Atom.num(), full))
        options.append(_Option(Atom.digit_plus(), full))
    else:
        options.append(_Option(Atom.letter_plus(), full))

    # Fixed-length options, most frequent lengths first (ties: shorter).
    length_weights: Counter[int] = Counter()
    for length, w in zip(lengths.tolist(), weight_list):
        length_weights[length] += w
    frequent_lengths = [
        length
        for length, w in most_common_stable(length_weights, config.max_length_options)
        if w >= option_floor
    ]
    case_masks = None
    if cls is not CharClass.DIGIT and hierarchy.use_case_classes and frequent_lengths:
        # Case classes are length-independent: build them once per position
        # and intersect per length, instead of re-scanning the texts for
        # every frequent length.
        case_masks = (
            np.fromiter((t.isupper() for t in texts), dtype=bool, count=n),
            np.fromiter((t.islower() for t in texts), dtype=bool, count=n),
        )
    for length in frequent_lengths:
        mask = lengths == length
        if hierarchy.use_alnum_fixed:
            options.append(_Option(Atom.alnum(length), mask))
        if cls is CharClass.DIGIT:
            options.append(_Option(Atom.digit(length), mask))
        else:
            options.append(_Option(Atom.letter(length), mask))
            if case_masks is not None:
                upper_mask = mask & case_masks[0]
                if int(weights[upper_mask].sum()) >= option_floor:
                    options.append(_Option(Atom.upper(length), upper_mask))
                lower_mask = mask & case_masks[1]
                if int(weights[lower_mask].sum()) >= option_floor:
                    options.append(_Option(Atom.lower(length), lower_mask))

    # Constant options, most frequent texts first (ties: lexicographic).
    text_weights: Counter[str] = Counter()
    for text, w in zip(texts, weight_list):
        text_weights[text] += w
    frequent_texts = [
        text
        for text, w in most_common_stable(text_weights, config.max_const_options)
        if w >= option_floor and len(text) <= hierarchy.max_const_length
    ]
    for text in frequent_texts:
        options.append(_Option(Atom.const(text), text_codes == text_ids[text]))

    return options


def _alnum_position_options(
    tokens: list[Token],
    weights: np.ndarray,
    option_floor: int,
    config: EnumerationConfig,
) -> list[_Option]:
    """Options at one merged alphanumeric-run position.

    Fixed-length ``<alphanum>{k}`` options are always considered here
    (independent of ``hierarchy.use_alnum_fixed``, which governs the fine
    level): fixed-width segments are the defining structure of hex
    identifiers, which is the whole point of this granularity.  Frequency
    ties break deterministically, as at the fine level.
    """
    n = len(tokens)
    options: list[_Option] = [_Option(Atom.alnum_plus(), np.ones(n, dtype=bool))]
    weight_list = weights.tolist()

    lengths = np.fromiter((len(t) for t in tokens), dtype=np.int64, count=n)
    length_weights: Counter[int] = Counter()
    for length, w in zip(lengths.tolist(), weight_list):
        length_weights[length] += w
    for length, w in most_common_stable(length_weights, config.max_length_options):
        if w >= option_floor:
            options.append(_Option(Atom.alnum(length), lengths == length))

    texts = [t.text for t in tokens]
    text_ids: dict[str, int] = {}
    text_codes = np.fromiter(
        (text_ids.setdefault(t, len(text_ids)) for t in texts),
        dtype=np.int64,
        count=n,
    )
    text_weights: Counter[str] = Counter()
    for text, w in zip(texts, weight_list):
        text_weights[text] += w
    frequent_texts = [
        text
        for text, w in most_common_stable(text_weights, config.max_const_options)
        if w >= option_floor and len(text) <= config.hierarchy.max_const_length
    ]
    for text in frequent_texts:
        options.append(_Option(Atom.const(text), text_codes == text_ids[text]))

    return options
