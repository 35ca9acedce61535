"""Integer partitions as canonical weakly decreasing tuples.

A partition doubles as the isomorphism class of a finite dimensional
nilpotent module: the parts are the Jordan block sizes.  Two commutative
monoid structures live on partitions, componentwise addition and multiset
union, and conjugation exchanges them.

Text is parsed once per process: :func:`parse_partition` returns the same
object for equal texts while anything else holds that object, and its memo
holds each partition only weakly, so it never keeps one alive on its own.
"""

from __future__ import annotations

from itertools import chain, groupby, repeat
from operator import add, index
from typing import Iterable
from weakref import WeakValueDictionary

# Bound on the weight, so no input asks for an unbounded list of parts.
MAX_WEIGHT = 2**20

_DIGITS = "0123456789"
_MAX_DIGITS = len(str(MAX_WEIGHT))


_QUOTE_LIMIT = 60
_QUOTE_RADIUS = 20


class PartitionParseError(ValueError):
    """Raised for text that does not match the partition grammar.

    The message quotes the input whole up to _QUOTE_LIMIT characters;
    a longer input is quoted only around the position, with "..." at
    each cut.  `.text` keeps the full input, `.position` the offset and
    `.reason` the message before the position and quote are added.
    """

    def __init__(self, message: str, text: str, position: int):
        quoted = repr(text)
        if len(text) > _QUOTE_LIMIT:
            start, end = max(0, position - _QUOTE_RADIUS), position + _QUOTE_RADIUS
            cut = repr(text[start:end])
            quoted = "..." * (start > 0) + cut + "..." * (end < len(text))
        super().__init__(f"{message} at position {position} in {quoted}")
        self.reason = message
        self.text = text
        self.position = position

    def __reduce__(self):
        # args holds only the formatted message, so pickle and copy rebuild
        # the error from its parts instead.
        return type(self), (self.reason, self.text, self.position), self.__dict__


class Partition:
    """Weakly decreasing sequence of positive integers.

    Trailing zeros are stripped at construction, so structural equality
    coincides with equality of partitions.  The empty tuple is the zero
    partition.  Input that is not weakly decreasing is rejected rather
    than sorted; use :meth:`from_multiset` to sort an arbitrary multiset
    of parts explicitly.  Instances are immutable and hashable, and equal
    only to partitions.  The weight is summed once, at construction.
    """

    __slots__ = ("parts", "weight", "__weakref__")

    def __init__(self, parts: Iterable[int] = ()) -> None:
        parts = tuple(map(index, parts))
        for i, value in enumerate(parts):
            if value < 0:
                raise ValueError(f"negative part {value} at index {i}")
            if i and parts[i - 1] < value:
                raise ValueError(
                    f"parts not weakly decreasing: {parts[i - 1]} < {value} at index {i}"
                )
        weight = sum(parts)
        if weight > MAX_WEIGHT:
            raise ValueError(f"weight {weight} exceeds the bound {MAX_WEIGHT}")
        # The parts decrease weakly, so the zeros are a suffix.
        object.__setattr__(self, "parts", parts[: len(parts) - parts.count(0)])
        object.__setattr__(self, "weight", weight)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: Partition is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: Partition is immutable")

    def __reduce__(self) -> tuple:
        return (Partition, (self.parts,))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    @classmethod
    def from_multiset(cls, values: Iterable[int]) -> "Partition":
        """Build a partition from parts given in any order."""
        return cls(tuple(sorted(values, reverse=True)))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram: entry i counts parts >= i+1.

        The value k appears parts[k-1] - parts[k] times, so the transpose
        takes time proportional to parts[0] + len(parts)."""
        ends = self.parts + (0,)
        counts = range(len(self.parts), 0, -1)
        return Partition(
            chain.from_iterable(repeat(k, ends[k - 1] - ends[k]) for k in counts)
        )

    def __add__(self, other: "Partition") -> "Partition":
        """Componentwise sum, the shorter operand padded with zeros."""
        if not isinstance(other, Partition):
            return NotImplemented
        a, b = self.parts, other.parts
        if len(a) < len(b):
            a, b = b, a
        return Partition(tuple(map(add, a, b)) + a[len(b) :])

    def union(self, other: "Partition") -> "Partition":
        """Merge of the two multisets of parts, sorted descending."""
        return Partition.from_multiset(self.parts + other.parts)

    def __str__(self) -> str:
        """Canonical text form, e.g. (3^2,2^3,1^4); the zero partition is ()."""
        terms = []
        for value, run in groupby(self.parts):
            count = len(list(run))
            terms.append(f"{value}^{count}" if count > 1 else f"{value}")
        return "(" + ",".join(terms) + ")"

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __bool__(self) -> bool:
        return bool(self.parts)


ZERO = Partition()


def _scan_number(text: str, pos: int, term_start: int) -> tuple[int, int]:
    """The number at pos and the position after it.  A number above
    MAX_WEIGHT, or written with more digits than MAX_WEIGHT has, is
    refused at the start of its term before int() sees it."""
    start = pos
    while pos < len(text) and text[pos] in _DIGITS:
        pos += 1
    if pos == start:
        raise PartitionParseError("expected a digit", text, pos)
    if pos - start > _MAX_DIGITS or int(text[start:pos]) > MAX_WEIGHT:
        raise PartitionParseError(
            f"number exceeds the bound {MAX_WEIGHT} or has over {_MAX_DIGITS} digits",
            text,
            term_start,
        )
    return int(text[start:pos]), pos


def _parse_terms(text: str, pos: int, close: str) -> Partition:
    """Comma-separated terms from `pos` up to `close`: ")" in exponent
    form, where a term may be value^count, or "" (the end of the text) in
    comma form."""
    values: list[int] = []
    prev: int | None = None
    weight = 0
    while True:
        term_start = pos
        value, pos = _scan_number(text, pos, term_start)
        count = 1
        if close and text[pos : pos + 1] == "^":
            count, pos = _scan_number(text, pos + 1, term_start)
        if count:
            if prev is not None and value > prev:
                raise PartitionParseError(
                    f"parts not weakly decreasing ({value} after {prev})",
                    text,
                    term_start,
                )
            prev = value
            weight += value * count
            if weight > MAX_WEIGHT:
                raise PartitionParseError(
                    f"weight exceeds the bound {MAX_WEIGHT}", text, term_start
                )
            # Zero parts are not expanded: Partition drops them anyway.
            if value:
                values.extend([value] * count)
        end = text[pos : pos + 1]
        if end == close:
            if close and pos + 1 != len(text):
                raise PartitionParseError("trailing characters", text, pos + 1)
            return Partition(tuple(values))
        if not end:
            raise PartitionParseError("missing closing parenthesis", text, pos)
        if end != ",":
            raise PartitionParseError(f"unexpected character {end!r}", text, pos)
        pos += 1


# Text -> the partition it parsed to, held weakly: an entry, its text
# included, lives exactly as long as its partition is held somewhere else.
_parsed: WeakValueDictionary[str, Partition] = WeakValueDictionary()


def parse_partition(text: str) -> Partition:
    """Parse comma form ("3,1,1") or exponent form ("(3,1^2)").

    "0" and "()" both denote the zero partition.  Whitespace is not part
    of the grammar and is rejected, and an argument that is not a str
    raises TypeError.

    Each distinct text is scanned once per process: equal texts give the
    identical object for as long as anything else holds it.  The memo
    holds partitions only weakly, so it never keeps one alive; an invalid
    text is never stored and raises at the same position on every call.
    """
    if not isinstance(text, str):
        raise TypeError(f"partition text must be a str, not {type(text).__name__}")
    partition = _parsed.get(text)
    if partition is None:
        partition = _parsed[text] = _scan(text)
    return partition


def _scan(text: str) -> Partition:
    """The partition `text` denotes, or PartitionParseError at the first
    position that breaks the grammar."""
    if not text:
        raise PartitionParseError("empty input", text, 0)
    if text[0] != "(":
        return _parse_terms(text, 0, "")
    if text[1:2] == ")":
        if len(text) != 2:
            raise PartitionParseError("trailing characters", text, 2)
        return ZERO
    return _parse_terms(text, 1, ")")
