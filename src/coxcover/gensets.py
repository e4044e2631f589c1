"""Subsets of the simple generators, stored as plain int bitmasks.

Bit ``i`` of a mask stands for the generator with 0-based index ``i``.
All input and output uses 1-based generator numbers ("1,3" means the
first and third generator); the aliases ``s`` and ``t``, named for the
dihedral generators, are accepted for 1 and 2 in every group.

>>> from_one_based((1, 3))
5
>>> one_based(5)
(1, 3)
>>> format_subset(5)
'{1,3}'
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .coxeter import _decimal


def iter_subsets(rank: int) -> Iterator[int]:
    """All 2**rank subset masks in increasing numeric order."""
    return iter(range(1 << rank))


def bit_indices(mask: int) -> tuple[int, ...]:
    """0-based generator indices of the set bits, ascending."""
    out = []
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            out.append(i)
        i += 1
    return tuple(out)


def from_bits(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def one_based(mask: int) -> tuple[int, ...]:
    """Serialized form of a mask: sorted tuple of 1-based indices."""
    return tuple(i + 1 for i in bit_indices(mask))


def from_one_based(indices: Iterable[int]) -> int:
    return from_bits(i - 1 for i in indices)


def complement(mask: int, rank: int) -> int:
    return ((1 << rank) - 1) & ~mask


def format_subset(mask: int) -> str:
    return "{%s}" % ",".join(str(i) for i in one_based(mask))


def parse_subset(text: str, rank: int) -> int:
    """Parse a comma-separated 1-based subset; '' is the empty set.

    Raises ValueError on malformed input or indices outside 1..rank.
    """
    text = text.strip()
    if not text:
        return 0
    aliases = {"s": 1, "t": 2}
    mask = 0
    for part in text.split(","):
        part = part.strip()
        if part in aliases:
            i = aliases[part]
        else:
            try:
                i = int(part)
            except ValueError:
                raise ValueError(f"bad generator index {_echo(part)}") from None
        if not 1 <= i <= rank:
            shown = _decimal(i) if i >= 0 else "-" + _decimal(-i)
            raise ValueError(f"generator index {shown} outside 1..{rank}")
        mask |= 1 << (i - 1)
    return mask


def _echo(text: str, width: int = 26) -> str:
    """The repr of echoed input (a bad index, a path, a group name), or,
    past `width` bytes, the repr of its first `width // 3` characters or
    fewer and its length, so that a message echoing hostile input stays one
    short line, as `_decimal` keeps a huge number short.  A repr escapes
    line breaks, and the shortened one has at most `width // 3 + 2`
    characters of at most 4 bytes each."""
    shown = repr(text)
    if len(shown.encode()) <= width:
        return shown
    head = text[:width // 3]
    while len(repr(head)) > width // 3 + 2:  # escapes widen a repr
        head = head[:-1]
    return f"{head!r}...({len(text)} characters)"


if __name__ == "__main__":
    import doctest

    doctest.testmod()
