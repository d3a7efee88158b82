"""Sets of small indices as int bitmasks: bit i set means index i is in.

The finite tables store each addition cell this way, and the compiled
window stores the window members of each hyperset.  A leaf module, so
either layer can read masks without compiling the other.  It also holds
``_Kept``, the one first-use table of the window, the valuation checkers
and the leading-term carriers, and the size limit both layers build to:
``check_window`` refuses a window or a field table above ``WINDOW_LIMIT``
elements with ``WindowTooLarge``, before it is built.
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


# Largest window a carrier builds, and largest field table: F_q holds q x q
# cells, so q <= 447.  The checkers visit |U|^2 to |U|^4 tuples of a window
# U, so even this is far beyond what they finish.
WINDOW_LIMIT = 200_000


class WindowTooLarge(ValueError):
    """A window above WINDOW_LIMIT elements, refused before it is built; the
    base of every input asking for more than a window or a table may hold."""


def check_window(factor: int, base: int, exp: int) -> None:
    """Refuse a window of factor * base**exp elements above WINDOW_LIMIT."""
    # base**bits > WINDOW_LIMIT for base >= 2, so capping the exponent there
    # keeps the verdict and a huge exponent costs nothing.
    if factor * base ** min(exp, WINDOW_LIMIT.bit_length()) > WINDOW_LIMIT:
        raise WindowTooLarge(f"window too large ({factor} * {base}^{exp} "
                             f"elements, limit {WINDOW_LIMIT})")
