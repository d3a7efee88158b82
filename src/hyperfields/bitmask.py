"""Sets of small indices as int bitmasks: bit i set means index i is in.

The finite tables store each addition cell this way, and the compiled
window stores the window members of each hyperset.  A leaf module, so
either layer can read masks without compiling the other.
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
