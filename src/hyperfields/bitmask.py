"""Sets of small indices as int bitmasks: bit i set means index i is in.

The finite tables store each addition cell this way, and the compiled
window stores the window members of each hyperset.  A leaf module, so
either layer can read masks without compiling the other.  It also holds
``_Kept``, the one first-use table of the window, the valuation checkers
and the leading-term carriers.
"""

from __future__ import annotations


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cell_to_mask(cell) -> int:
    m = 0
    for i in cell:
        m |= 1 << i
    return m


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _masks_by(keys) -> dict:
    """{key: mask of the positions holding it}, in first-seen order."""
    masks: dict = {}
    for k, key in enumerate(keys):
        masks[key] = masks.get(key, 0) | 1 << k
    return masks


class _Kept(dict):
    """A dict whose missing value is ``make(key)``, made on the first read
    of key and kept.  ``get``, ``in`` and iteration make nothing, and a make
    that raises stores nothing, so it raises again on the next read.  A
    make that referred back to the table's owner would make a reference
    cycle, and the owner would wait for the garbage collector."""

    __slots__ = ("make",)

    def __init__(self, make, items=()):
        super().__init__(items)
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value
