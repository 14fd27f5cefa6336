"""Token vocabularies and the plain-text vocabulary/corpus file formats.

A vocabulary file lists one token symbol per line; the line number is the
token id. The symbol ``<eos>`` marks the end-of-sequence token and must be
present. A corpus file holds one sequence per line as whitespace-separated
symbols; the line ``-`` denotes an empty sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InvalidInputError
from .jsondoc import read_text

EOS_SYMBOL = "<eos>"
EMPTY_SEQUENCE_MARK = "-"


@dataclass(frozen=True)
class Vocabulary:
    """A dense set of token ids ``0..size-1`` with a designated eos id."""

    size: int
    eos: int
    tokens: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 2:
            raise InvalidInputError("vocabulary size must be >= 2")
        if not 0 <= self.eos < self.size:
            raise InvalidInputError(f"eos id {self.eos} out of range [0, {self.size})")
        if self.tokens is not None and len(self.tokens) != self.size:
            raise InvalidInputError("token symbol list must match vocabulary size")
        object.__setattr__(self, "_ids", {s: i for i, s in enumerate(self.tokens or ())})
        if len(self._ids) != len(self.tokens or ()):
            raise InvalidInputError("token symbols must be distinct")

    def validate_token(self, token: int) -> None:
        if type(token) is not int:  # bool, numpy integers and other int look-alikes are refused
            raise InvalidInputError(
                f"token id {token!r} has type {type(token).__module__}.{type(token).__qualname__}, not int"
            )
        if not 0 <= token < self.size:
            raise InvalidInputError(f"token id {token!r} out of range [0, {self.size})")

    def validate_sequence(self, tokens: Sequence[int]) -> None:
        """Check every id; a ``TokenSequence`` checked against no larger a size passes at once.

        A list or tuple of in-range ints passes in three C-speed passes;
        any other ``Sequence``, a bad id included, is walked by
        ``validate_token``, which names the first bad id. Any other
        iterable, which a check would consume, is refused by type.
        """
        if isinstance(tokens, TokenSequence) and tokens.size <= self.size:
            return
        if (
            type(tokens) in (list, tuple)
            and set(map(type, tokens)) == {int}
            and 0 <= min(tokens)
            and max(tokens) < self.size
        ):
            return
        if not isinstance(tokens, Sequence):
            raise InvalidInputError(
                f"token sequence has type {type(tokens).__module__}.{type(tokens).__qualname__}, not a Sequence"
            )
        for t in tokens:
            self.validate_token(t)

    def symbol(self, token: int) -> str:
        """Display string for a token id."""
        return self.symbols((token,))[0]

    def symbols(self, tokens: Sequence[int]) -> list[str]:
        """Display strings for a sequence of token ids, checked once."""
        self.validate_sequence(tokens)
        if self.tokens is not None:
            return [self.tokens[t] for t in tokens]
        return [EOS_SYMBOL if t == self.eos else str(t) for t in tokens]

    def id_of(self, symbol: str) -> int:
        """Token id for a symbol (or a bare integer id when symbols are unset)."""
        if self.tokens is not None:
            try:
                return self._ids[symbol]
            except KeyError:
                raise InvalidInputError(f"unknown token symbol {symbol!r}") from None
        if symbol == EOS_SYMBOL:
            return self.eos
        try:
            token = int(symbol)
        except ValueError:
            raise InvalidInputError(f"unknown token symbol {symbol!r}") from None
        self.validate_token(token)
        return token

    def compatible_with(self, other: "Vocabulary") -> bool:
        """Whether two models over these vocabularies can be paired."""
        return self.size == other.size and self.eos == other.eos


class TokenSequence(Sequence[int]):
    """A token sequence whose ids were each checked once, when they entered it.

    The constructor validates its tokens against ``vocabulary``, ``append``
    validates the one token it adds and ``truncate`` drops a tail, so every
    id held is in ``0..size-1``. It is otherwise read-only; iteration and
    slicing return the underlying list's, at C speed.
    """

    __slots__ = ("_tokens", "_vocabulary")

    def __init__(self, tokens: Iterable[int], vocabulary: Vocabulary) -> None:
        self._tokens = list(tokens)
        # a TokenSequence argument can skip the walk; the list copied from it cannot
        vocabulary.validate_sequence(tokens if isinstance(tokens, TokenSequence) else self._tokens)
        self._vocabulary = vocabulary

    @property
    def size(self) -> int:
        """The vocabulary size every id was checked against."""
        return self._vocabulary.size

    def append(self, token: int) -> None:
        self._vocabulary.validate_token(token)
        self._tokens.append(token)

    def truncate(self, n: int) -> None:
        """Keep the first ``n`` tokens."""
        del self._tokens[n:]

    def __len__(self) -> int:
        return len(self._tokens)

    def __getitem__(self, index):
        return self._tokens[index]

    def __iter__(self):
        return iter(self._tokens)


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a vocabulary file (one symbol per line, line number = id)."""
    lines = read_text(path).splitlines()
    symbols = [line.strip() for line in lines if line.strip()]
    if len(symbols) < 2:
        raise InvalidInputError(f"vocabulary file {path} must list at least 2 symbols")
    if len(set(symbols)) != len(symbols):
        raise InvalidInputError(f"vocabulary file {path} has duplicate symbols")
    if EOS_SYMBOL not in symbols:
        raise InvalidInputError(f"vocabulary file {path} must contain {EOS_SYMBOL!r}")
    return Vocabulary(size=len(symbols), eos=symbols.index(EOS_SYMBOL), tokens=tuple(symbols))


def save_vocabulary(vocabulary: Vocabulary, path: str | Path) -> None:
    symbols = vocabulary.symbols(tuple(range(vocabulary.size)))
    Path(path).write_text("\n".join(symbols) + "\n", encoding="utf-8")


def parse_sequence(line: str, vocabulary: Vocabulary) -> list[int]:
    """Parse one corpus line into token ids (``-`` means empty)."""
    line = line.strip()
    if not line or line == EMPTY_SEQUENCE_MARK:
        return []
    return [vocabulary.id_of(sym) for sym in line.split()]


def load_corpus(path: str | Path, vocabulary: Vocabulary) -> list[list[int]]:
    """Read a corpus file: one whitespace-separated sequence per line.

    Blank lines are skipped; use ``-`` for an intentionally empty sequence.
    """
    sequences = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            sequences.append(parse_sequence(line, vocabulary))
        except InvalidInputError as e:
            raise InvalidInputError(f"{path}:{lineno}: {e}") from None
    return sequences


def format_sequence(tokens: Sequence[int], vocabulary: Vocabulary) -> str:
    if not tokens:
        return EMPTY_SEQUENCE_MARK
    return " ".join(vocabulary.symbols(tokens))


def save_corpus(sequences: Iterable[Sequence[int]], vocabulary: Vocabulary, path: str | Path) -> None:
    lines = [format_sequence(seq, vocabulary) for seq in sequences]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
