"""Multi-sequence alignment over token sequences (Section 3).

The vertical-cut variant aligns the token sequences of all values in a query
column before segmenting.  As the paper notes, MSA is NP-hard in general, so
we follow "a standard approach to greedily align one additional sequence at a
time" — progressive alignment of each sequence against the running profile
with Needleman-Wunsch.  For homogeneous machine-generated data every value
shares one token sequence and the alignment is trivial (Example 7).

The running profile keeps per-position class and symbol-text counters, so
adding a row costs O(w) profile work on top of its O(w²) Needleman-Wunsch:
O(d·w) profile plus O(d·w²) alignment for d distinct values of aligned
width w.  Each distinct value is tokenized once; the vertical DP then reads
every sub-column's hypothesis space from the aligned token rows
(:meth:`AlignedColumn.sub_column`) instead of re-lexing joined strings.

Scoring: aligning two tokens scores +2 when their classes match (symbol runs
must also match textually — symbols are structural), -2 otherwise; gaps cost
-1.  These are conventional sum-of-pairs-style parameters; results are not
sensitive to them for the near-identical sequences this system sees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.core.tokenizer import (
    CharClass,
    Signature,
    Token,
    TokenizedColumn,
    collapse_alnum,
    signature_of,
    tokenize,
)
from repro.util import most_common_stable

_MATCH = 2
_MISMATCH = -2
_GAP = -1


@dataclass(frozen=True)
class _ProfileColumn:
    """One aligned position of the running profile."""

    cls: CharClass
    symbol_text: str | None  # for symbol positions: the dominant run text


def _token_score(column: _ProfileColumn, token: Token) -> int:
    if column.cls is not token.cls:
        return _MISMATCH
    if column.cls is CharClass.SYMBOL and column.symbol_text != token.text:
        return _MISMATCH
    return _MATCH


class AlignedColumn:
    """A column of values aligned to a common token grid.

    Attributes:
        width: number of aligned token positions.
        rows: one row per *distinct* value; each row is a tuple of
            ``Token | None`` of length ``width`` (``None`` marks a gap).
        weights: multiplicity of each distinct value in the original column.
        values: the distinct values, parallel to ``rows``/``weights``.
        tokens: each distinct value's tokens (its row without the gaps),
            parallel to ``values``.
    """

    def __init__(
        self,
        values: Sequence[str],
        rows: Sequence[tuple[Token | None, ...]],
        weights: Sequence[int],
    ):
        if not (len(values) == len(rows) == len(weights)):
            raise ValueError("values, rows and weights must be parallel")
        self.values = list(values)
        self.rows = [tuple(r) for r in rows]
        self.weights = list(weights)
        self.width = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.width for r in self.rows):
            raise ValueError("all aligned rows must share one width")
        self.tokens = [tuple(t for t in r if t is not None) for r in self.rows]
        self._lexed = [_LexedRow(row, tokens) for row, tokens in zip(self.rows, self.tokens)]

    @property
    def total(self) -> int:
        """Total number of values in the original column."""
        return sum(self.weights)

    def segment_values(self, start: int, end: int) -> list[str]:
        """Values of the sub-column for aligned positions [start, end].

        Each original value contributes the concatenation of its tokens that
        map into the segment (gaps contribute nothing); multiplicities are
        preserved by repetition, matching Definition 4's ``C[s, e]``.
        """
        if not 0 <= start <= end < self.width:
            raise IndexError(f"segment [{start}, {end}] out of range 0..{self.width - 1}")
        out: list[str] = []
        for row, weight in zip(self.rows, self.weights):
            text = "".join(t.text for t in row[start : end + 1] if t is not None)
            out.extend([text] * weight)
        return out

    def sub_column(self, start: int, end: int) -> TokenizedColumn:
        """The sub-column ``C[start, end]`` with its values' signatures.

        The same multiset as :meth:`segment_values`, without re-lexing: a
        segment's tokens are the non-gap tokens of ``row[start..end]``.
        They are consecutive runs of one value and neighbouring runs never
        share a class, so they are exactly ``tokenize`` of their joined
        text, and their signature is the matching slice of the value's.
        Distinct sub-values keep their first-occurrence order.
        """
        if not 0 <= start <= end < self.width:
            raise IndexError(f"segment [{start}, {end}] out of range 0..{self.width - 1}")
        counts: dict[str, int] = {}
        signatures: dict[str, Signature] = {}
        alnum_signatures: dict[str, Signature] = {}
        collapsed: dict[Signature, Signature] = {}
        for lexed, weight in zip(self._lexed, self.weights):
            a, b = lexed.before[start], lexed.before[end + 1]
            text = lexed.text[lexed.offsets[a] : lexed.offsets[b]]
            if text in counts:
                counts[text] += weight
                continue
            counts[text] = weight
            sig = lexed.signature[a:b]
            signatures[text] = sig
            alnum = collapsed.get(sig)
            if alnum is None:
                alnum = collapsed[sig] = collapse_alnum(sig)
            alnum_signatures[text] = alnum
        return TokenizedColumn(counts, signatures, alnum_signatures)

    def gap_free(self) -> bool:
        """True when no row contains a gap (identical token structure)."""
        return all(all(t is not None for t in row) for row in self.rows)


class _LexedRow:
    """One aligned row, indexed so any segment's facts are slices.

    ``before[j]`` counts the row's tokens at positions ``< j``, so the
    tokens in positions ``[s, e]`` are the value's tokens
    ``before[s]:before[e + 1]``; ``offsets[k]`` is where token ``k`` starts
    in ``text``.
    """

    __slots__ = ("text", "signature", "offsets", "before")

    def __init__(self, row: tuple[Token | None, ...], tokens: tuple[Token, ...]) -> None:
        self.text = "".join(t.text for t in tokens)
        self.signature = signature_of(tokens)
        self.offsets = [0]
        for token in tokens:
            self.offsets.append(self.offsets[-1] + len(token.text))
        self.before = [0]
        for cell in row:
            self.before.append(self.before[-1] + (cell is not None))


def align_column(values: Sequence[str]) -> AlignedColumn:
    """Progressively align the token sequences of ``values``.

    Distinct values are tokenized and aligned once each (multiplicities are
    retained as weights); sequences are introduced longest-first, which
    keeps the greedy profile stable for machine-generated data.
    """
    counter: Counter[str] = Counter(values)
    sequences = {value: tokenize(value) for value in counter}
    distinct = sorted(counter, key=lambda v: (-len(sequences[v]), v))
    if not distinct:
        return AlignedColumn([], [], [])

    positions: list[_Position] = []
    placed: list[list[tuple[_Position, Token]]] = []
    for value in distinct:
        seq = sequences[value]
        if positions:
            row, insertions = _align_to_profile([p.column for p in positions], seq)
        else:  # the longest sequence seeds the profile
            row, insertions = list(seq), list(range(len(seq)))
        # Insertions are new all-gap positions for the rows placed so far;
        # those rows hold their positions by identity, so nothing shifts.
        fresh = set(insertions)
        kept = iter(positions)
        positions = [_Position() if k in fresh else next(kept) for k in range(len(row))]
        tokens: list[tuple[_Position, Token]] = []
        for position, token in zip(positions, row):
            if token is not None:
                position.add(token)
                tokens.append((position, token))
        placed.append(tokens)

    index = {position: j for j, position in enumerate(positions)}
    rows: list[tuple[Token | None, ...]] = []
    for tokens in placed:
        cells: list[Token | None] = [None] * len(positions)
        for position, token in tokens:
            cells[index[position]] = token
        rows.append(tuple(cells))
    return AlignedColumn(
        values=distinct, rows=rows, weights=[counter[v] for v in distinct]
    )


class _Position:
    """One aligned position of the running profile.

    Keeps running class and symbol-text counts over the tokens aligned to
    it, so adding a row updates only that row's positions instead of
    re-profiling every row.
    """

    __slots__ = ("classes", "symbol_texts", "column")

    def __init__(self) -> None:
        self.classes: Counter[CharClass] = Counter()
        self.symbol_texts: Counter[str] = Counter()
        self.column = _ProfileColumn(CharClass.SYMBOL, None)

    def add(self, token: Token) -> None:
        self.classes[token.cls] += 1
        if token.cls is CharClass.SYMBOL:
            self.symbol_texts[token.text] += 1
            if token.cls is self.column.cls and token.text == self.column.symbol_text:
                return  # both leaders only gained: the column is unchanged
        elif token.cls is self.column.cls:
            return  # the class leader gained; symbol texts did not move
        # Stable tie-break (count desc, then class value / text asc) so
        # profiles are independent of row insertion order (AV104).
        cls = most_common_stable(self.classes, 1, key=lambda c: c.value)[0][0]
        text = (
            most_common_stable(self.symbol_texts, 1)[0][0] if self.symbol_texts else None
        )
        self.column = _ProfileColumn(cls, text)


def _align_to_profile(
    profile: list[_ProfileColumn], seq: tuple[Token, ...]
) -> tuple[list[Token | None], list[int]]:
    """Needleman-Wunsch of one token sequence against the profile.

    Returns the new aligned row (length = len(profile) + #insertions) and the
    sorted positions (in the *new* coordinate system) where an all-gap column
    must be inserted into previously aligned rows.
    """
    n, m = len(profile), len(seq)
    if n == m and all(
        _token_score(column, token) == _MATCH for column, token in zip(profile, seq)
    ):
        # Every diagonal pair matches: the all-diagonal path scores the
        # maximum 2n and the traceback (diagonal first) takes it.
        return list(seq), []
    pair = [[_token_score(column, token) for token in seq] for column in profile]
    # score[i][j]: best score aligning profile[:i] with seq[:j].
    score = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        score[i][0] = score[i - 1][0] + _GAP
    for j in range(1, m + 1):
        score[0][j] = score[0][j - 1] + _GAP
    for i in range(1, n + 1):
        above, here, pair_row = score[i - 1], score[i], pair[i - 1]
        for j in range(1, m + 1):
            here[j] = max(
                above[j - 1] + pair_row[j - 1],
                above[j] + _GAP,  # gap in the sequence
                here[j - 1] + _GAP,  # gap in the profile (insertion)
            )

    # Traceback, preferring diagonal moves for determinism; the row and
    # its insertion flags are collected last cell first.
    row: list[Token | None] = []
    inserted: list[bool] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and score[i][j] == score[i - 1][j - 1] + pair[i - 1][j - 1]:
            row.append(seq[j - 1])
            inserted.append(False)
            i, j = i - 1, j - 1
        elif i > 0 and score[i][j] == score[i - 1][j] + _GAP:
            row.append(None)
            inserted.append(False)
            i -= 1
        else:
            row.append(seq[j - 1])
            inserted.append(True)
            j -= 1
    row.reverse()
    inserted.reverse()
    return row, [position for position, new in enumerate(inserted) if new]
