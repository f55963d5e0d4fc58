"""Coarse lexer: split string values into maximal same-class character runs.

Section 3 of the paper describes the lexer used throughout Auto-Validate:

    "we first use a lexer to tokenize each v in C into coarse-grained
    token-classes (<symbol>, <num>, <letter>), by scanning each v from left
    to right and 'growing' each token until a character of a different class
    is encountered."

A token is therefore a maximal run of characters of one
:class:`CharClass`: digits, letters, or symbols (everything else, including
whitespace).  The token count ``t(v)`` of a value is the number of such runs;
it is the quantity bounded by the token limit ``tau`` during offline indexing
(Section 2.4).
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np


class CharClass(enum.Enum):
    """Coarse character classes distinguished by the lexer.

    ``ALNUM`` is never produced by :func:`char_class`; it only appears in
    the merged runs of :func:`alnum_runs`, where consecutive digit and
    letter runs collapse into one alphanumeric run (the granularity at
    which the paper's ``<alphanum>`` nodes operate).
    """

    DIGIT = "digit"
    LETTER = "letter"
    SYMBOL = "symbol"
    ALNUM = "alnum"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CharClass.{self.name}"


def char_class(ch: str) -> CharClass:
    """Classify a single character into its coarse :class:`CharClass`.

    Only ASCII letters and digits form the ``LETTER``/``DIGIT`` classes (the
    paper targets machine-generated data, which is overwhelmingly ASCII);
    every other character — punctuation, whitespace, unicode — is a symbol.
    """
    if "0" <= ch <= "9":
        return CharClass.DIGIT
    if "a" <= ch <= "z" or "A" <= ch <= "Z":
        return CharClass.LETTER
    return CharClass.SYMBOL


@dataclass(frozen=True)
class Token:
    """A maximal run of same-class characters within a value.

    Attributes:
        cls: the coarse character class of the run.
        text: the run's raw text.
    """

    cls: CharClass
    text: str

    def __len__(self) -> int:
        return len(self.text)

    @property
    def is_upper(self) -> bool:
        """True for letter runs consisting solely of uppercase letters."""
        return self.cls is CharClass.LETTER and self.text.isupper()

    @property
    def is_lower(self) -> bool:
        """True for letter runs consisting solely of lowercase letters."""
        return self.cls is CharClass.LETTER and self.text.islower()


# Signature: the class-level shape of a value.  Two values share a signature
# when their token sequences have the same classes *and* identical symbol
# text (symbols act as structural delimiters and never generalize in the
# hierarchy of Figure 4, so "1-2" and "1:2" are structurally different).
Signature = tuple[str, ...]


def _tokenize_uncached(value: str) -> tuple[Token, ...]:
    tokens: list[Token] = []
    if not value:
        return ()
    start = 0
    current = char_class(value[0])
    for i in range(1, len(value)):
        cls = char_class(value[i])
        if cls is not current:
            tokens.append(Token(current, value[start:i]))
            start = i
            current = cls
    tokens.append(Token(current, value[start:]))
    return tuple(tokens)


@lru_cache(maxsize=65536)
def tokenize(value: str) -> tuple[Token, ...]:
    """Tokenize ``value`` into maximal same-class runs (cached).

    >>> [t.text for t in tokenize("9:07 AM")]
    ['9', ':', '07', ' ', 'AM']
    """
    return _tokenize_uncached(value)


def token_count(value: str) -> int:
    """The token count ``t(v)`` used by the ``tau`` limit of Section 2.4."""
    return len(tokenize(value))


@lru_cache(maxsize=65536)
def signature(value: str) -> Signature:
    """Class-level signature of a value, with symbol runs kept verbatim.

    The signature determines which values can share a (non-trivial) pattern:
    the per-position generalization chains of Figure 4 never cross the
    digit/letter boundary below ``<alnum>``, and symbols never generalize.

    Cached (like :func:`tokenize`): the offline scan computes signatures for
    every distinct value of millions of columns, and machine-generated data
    repeats values heavily.  The component strings are interned so signature
    tuples hash/compare on pointer-equal parts across values — grouping by
    signature is a dict operation in the enumeration hot loop.

    >>> signature("9:07")
    ('D', ':', 'D')
    >>> signature("Mar 02")
    ('L', ' ', 'D')
    """
    return signature_of(tokenize(value))


def signature_of(tokens: Sequence[Token]) -> Signature:
    """:func:`signature` of an already tokenized value (not memoized)."""
    parts: list[str] = []
    for token in tokens:
        if token.cls is CharClass.DIGIT:
            parts.append("D")
        elif token.cls is CharClass.LETTER:
            parts.append("L")
        else:
            parts.append(sys.intern(token.text))
    return tuple(parts)


@lru_cache(maxsize=65536)
def alnum_runs(value: str) -> tuple[Token, ...]:
    """Tokens with consecutive digit/letter runs merged into ALNUM runs.

    This is the coarser granularity at which hex identifiers, GUIDs and
    similar mixed alphanumeric domains become structurally stable: the fine
    token sequence of ``"b216"`` (letter, digits) differs from ``"5720"``
    (digits), but both are a single ``ALNUM`` run.

    >>> [t.text for t in alnum_runs("b216-57a0")]
    ['b216', '-', '57a0']
    """
    merged: list[Token] = []
    for token in tokenize(value):
        if token.cls is CharClass.SYMBOL:
            merged.append(token)
        elif merged and merged[-1].cls is CharClass.ALNUM:
            merged[-1] = Token(CharClass.ALNUM, merged[-1].text + token.text)
        else:
            merged.append(Token(CharClass.ALNUM, token.text))
    return tuple(merged)


# -- whole-group packed tokenization (the vectorized enumeration kernel) -------

#: Class codes used by the packed arrays (uint8).  At the merged
#: alphanumeric granularity only ``CLS_ALNUM``/``CLS_SYMBOL`` occur.
CLS_DIGIT = 0
CLS_LETTER = 1
CLS_SYMBOL = 2
CLS_ALNUM = 3


@dataclass(frozen=True)
class GroupTokenArrays:
    """One signature group tokenized as packed numpy arrays.

    All values of a group share a signature, so every value tokenizes into
    exactly ``width`` runs of the same class sequence.  Instead of
    materializing per-value :class:`Token` tuples and walking them with
    Python loops, the whole group is lexed in a handful of vectorized
    passes over the concatenation of its values:

    * ``starts``/``lengths`` — ``(n, width)`` arrays of token start
      offsets (into ``joined``) and token lengths;
    * ``classes`` — the ``(width,)`` class-code row shared by every value;
    * ``lower_cum``/``upper_cum`` — per-character prefix sums of the
      lower/upper-case indicator, from which any token's case flags are
      two array lookups (a letter run is ``isupper()`` iff it contains no
      lowercase character).

    ``token_text(i, j)`` recovers the raw text of one token — used only
    for the handful of constant atoms that survive frequency ranking,
    never per value.
    """

    joined: str
    width: int
    starts: np.ndarray
    lengths: np.ndarray
    classes: np.ndarray
    lower_cum: np.ndarray
    upper_cum: np.ndarray
    codes: np.ndarray

    def token_text(self, i: int, j: int) -> str:
        start = int(self.starts[i, j])
        return self.joined[start : start + int(self.lengths[i, j])]


def group_token_arrays(
    values: Sequence[str], *, merge_alnum: bool
) -> GroupTokenArrays:
    """Tokenize a whole signature group into :class:`GroupTokenArrays`.

    ``merge_alnum`` selects the granularity: ``True`` merges adjacent
    digit/letter runs into single ``CLS_ALNUM`` runs (:func:`alnum_runs`),
    ``False`` keeps the fine digit/letter runs (:func:`tokenize`).

    The group must be a signature group: non-empty, every value non-empty
    and every value carrying one token-class sequence.  Enumeration groups
    values by signature, so it always passes one; anything else raises
    :class:`ValueError`.
    """
    joined = "".join(values)
    if not joined:
        raise _not_a_signature_group("it has no characters")
    codes = np.frombuffer(
        joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    )
    is_digit = (codes >= 48) & (codes <= 57)
    is_upper = (codes >= 65) & (codes <= 90)
    is_lower = (codes >= 97) & (codes <= 122)
    is_letter = is_upper | is_lower
    cls = np.full(codes.shape, CLS_SYMBOL, dtype=np.uint8)
    if merge_alnum:
        cls[is_digit | is_letter] = CLS_ALNUM
    else:
        cls[is_digit] = CLS_DIGIT
        cls[is_letter] = CLS_LETTER

    value_lens = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    if (value_lens == 0).any():
        raise _not_a_signature_group("it contains an empty value")
    value_starts = np.cumsum(value_lens) - value_lens

    boundary = np.empty(codes.shape, dtype=bool)
    boundary[0] = True
    np.not_equal(cls[1:], cls[:-1], out=boundary[1:])
    boundary[value_starts] = True
    tok_starts = np.flatnonzero(boundary)
    n = len(values)
    if tok_starts.size % n != 0:
        raise _not_a_signature_group("its values differ in token count")
    width = tok_starts.size // n
    starts = tok_starts.reshape(n, width)
    lengths = np.diff(tok_starts, append=codes.size).reshape(n, width)
    # Every row must carry the same class sequence (signature homogeneity).
    classes = cls[starts]
    if not (classes == classes[0]).all():
        raise _not_a_signature_group("its values differ in token classes")

    zero = np.zeros(1, dtype=np.int64)
    lower_cum = np.concatenate([zero, np.cumsum(is_lower, dtype=np.int64)])
    upper_cum = np.concatenate([zero, np.cumsum(is_upper, dtype=np.int64)])
    return GroupTokenArrays(
        joined=joined,
        width=width,
        starts=starts,
        lengths=lengths,
        classes=classes[0],
        lower_cum=lower_cum,
        upper_cum=upper_cum,
        codes=codes,
    )


def _not_a_signature_group(why: str) -> ValueError:
    return ValueError(
        "group_token_arrays needs a signature group (non-empty values sharing "
        f"one token-class sequence), but {why}"
    )


@lru_cache(maxsize=65536)
def alnum_signature(value: str) -> Signature:
    """Class-level signature at the merged alphanumeric-run granularity
    (cached and interned like :func:`signature`).

    >>> alnum_signature("b216-57a0")
    ('A', '-', 'A')
    """
    return collapse_alnum(signature(value))


def collapse_alnum(sig: Signature) -> Signature:
    """:func:`alnum_signature` from a fine :func:`signature`.

    Adjacent ``"D"``/``"L"`` parts become one ``"A"``; symbol parts never
    contain an ASCII letter, so they cannot be mistaken for class parts.

    >>> collapse_alnum(signature("b216-57a0"))
    ('A', '-', 'A')
    """
    parts: list[str] = []
    for part in sig:
        if part == "D" or part == "L":
            if not parts or parts[-1] != "A":
                parts.append("A")
        else:
            parts.append(part)
    return tuple(parts)


class TokenizedColumn(Sequence[str]):
    """A column given by its distinct values' counts and signatures.

    It reads as the list of values it stands for (each distinct value
    repeated ``counts[value]`` times, in ``counts`` order), so any
    consumer of a ``Sequence[str]`` accepts it.  Consumers that know the
    type skip the expansion and the re-lexing: enumeration reads
    ``signatures`` and ``alnum_signatures`` instead of calling the
    memoized lexer, and :func:`repro.service.cache.column_digest` hashes
    ``counts``.

    For every key ``v`` of ``counts`` the two maps must hold
    ``signature(v)`` and ``alnum_signature(v)``; that is what makes both
    paths give the same answers.
    """

    __slots__ = ("counts", "signatures", "alnum_signatures", "_total", "_expanded")

    def __init__(
        self,
        counts: dict[str, int],
        signatures: dict[str, Signature],
        alnum_signatures: dict[str, Signature],
    ) -> None:
        self.counts = counts
        self.signatures = signatures
        self.alnum_signatures = alnum_signatures
        self._total = sum(counts.values())
        self._expanded: list[str] | None = None

    def __len__(self) -> int:
        return self._total

    def _values(self) -> list[str]:
        if self._expanded is None:
            self._expanded = [
                value for value, count in self.counts.items() for _ in range(count)
            ]
        return self._expanded

    def __getitem__(self, index):  # type: ignore[override]
        return self._values()[index]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values())
