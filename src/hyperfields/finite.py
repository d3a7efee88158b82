"""Finite hyperfields as explicit tables.

A finite hyperfield is stored as a full multiplication table plus one
bitmask per addition cell (bit i set means element i belongs to x+y), so the
exhaustive axiom checks reduce to integer bit algebra.  `validate`, `is_field`
(the mask of 1 - 1, cross-checked by one count of all set bits), quotients,
hyperideals and the morphism checks read the masks directly; `add_cell`
decodes a cell for output.  `validate` decides every axiom on the rows of
0, 1 and the unit generators, one when the units are cyclic, by lemmas its
docstring proves, and falls back to the full scan when a lemma's
prerequisite fails.  The builders hand their masks to `_from_masks`, which
checks them as `__init__` checks cells.  Index 0 is always the additive
zero and index 1 the multiplicative unit.

The module ships the three classical small examples (K, the sign hyperfield
S, the weak sign hyperfield W), finite fields as degenerate hyperfields,
quotients of finite fields by multiplicative subgroups, morphism predicates,
an isomorphism search over the images of unit-group generators,
classification flags, hyperideal enumeration, and an exhaustive enumeration
of all hyperfields of a given small order.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import NamedTuple

from .bitmask import _bits, _cell_to_mask
from .report import ValidationReport

ZERO, ONE = 0, 1


class MalformedTableError(ValueError):
    """Structural defect in a table (a usage error, not an axiom failure)."""


def _mask_to_cell(mask: int) -> tuple[int, ...]:
    return tuple(_bits(mask))


def _sumset(add, mask_a: int, mask_b: int) -> int:
    """Union of a+b over a in mask_a, b in mask_b, on raw mask rows."""
    out = 0
    right = tuple(_bits(mask_b))
    for a in _bits(mask_a):
        row = add[a]
        for b in right:
            out |= row[b]
    return out


def _mul_mask(row, mask: int) -> int:
    """Image of the set mask under a -> row[a] (one row of a mul table)."""
    out = 0
    for a in _bits(mask):
        out |= 1 << row[a]
    return out


def _inverses(mul) -> list:
    """inv[a]: the first unit b with ab = 1, None for 0 and for a unit without one."""
    units = range(1, len(mul))
    return [None] + [next((b for b in units if mul[a][b] == ONE), None) for a in units]


class _MaskImages(dict):
    """mask -> its image under a -> row[a], each computed on first use."""

    def __init__(self, row):
        self.row = row

    def __missing__(self, mask):
        img = self[mask] = _mul_mask(self.row, mask)
        return img


def _hr2_witness(mul):
    """0 absorbing, commutativity and associativity (xy)z = x(yz): the first
    failure in x, y, z order, or None."""
    n = len(mul)
    for x in range(n):
        row = mul[x]
        if row[ZERO] != ZERO:  # 0x != 0 fails commutativity at (x, 0) below
            return (x, 0)
        for y in range(n):
            if row[y] != mul[y][x]:
                return (x, y)
            left, right = mul[row[y]], mul[y]
            for z in range(n):
                if left[z] != row[right[z]]:
                    return (x, y, z)
    return None


def _hr2_lemma_witness(mul, gens):
    """`validate`'s HR2 lemma scan, on a table whose row 1 is the identity:
    row and column 0 are 0, column 1 is the identity, the generators gens
    commute pairwise, and (xg)z = x(gz) for each generator g.  Its first
    failure, or None."""
    n, zeros = len(mul), mul[ZERO]
    for x in range(n):
        row = mul[x]
        if row[ZERO] != ZERO or zeros[x] != ZERO or row[ONE] != x:
            return (x,)
    for g in gens:
        row = mul[g]
        for h in gens:
            if row[h] != mul[h][g]:
                return (g, h)
    for x in range(n):
        row = mul[x]
        for g in gens:
            left, right = mul[row[g]], mul[g]
            for z in range(n):
                if left[z] != row[right[z]]:
                    return (x, g, z)
    return None


def _hr3_witness(mul, add, rows=None):
    """Distributivity x(y+z) = xy + xz on raw mask rows (a sumset of two
    singletons is a single add cell), for x in rows (every x when None): the
    first failing (x, y, z) in x, y, z order, or None.  A table has few
    distinct cell masks, so each one's image under x is computed once per x."""
    n = len(add)
    for x in range(n) if rows is None else rows:
        row, image = mul[x], _MaskImages(mul[x])
        for y in range(n):
            cells, target = add[y], add[row[y]]
            for z in range(n):
                if image[cells[z]] != target[row[z]]:
                    return (x, y, z)
    return None


class _RowSums(dict):
    """mask -> x + mask, the union of row[b] over b in mask for the add row
    of x, each computed on first use."""

    def __init__(self, row):
        self.row = row

    def __missing__(self, mask):
        out = 0
        for b in _bits(mask):
            out |= self.row[b]
        self[mask] = out
        return out


def _ch2_witness(add, rows):
    """Commutativity x + y = y + x for x in rows: the first failing (x, y) in
    x, y order, or None."""
    n = len(add)
    for x in rows:
        row = add[x]
        for y in range(n):
            if row[y] != add[y][x]:
                return (x, y)
    return None


def _zeros(add, rows) -> list:
    """For each x in rows, the y with 0 in x + y, as a tuple."""
    n = len(add)
    return [tuple(y for y in range(n) if add[x][y] & 1) for x in rows]


def _ch4_witness(add, neg):
    """Reversibility on raw mask rows, for the rows x < len(neg), neg[x] =
    -x: the first (x, y, z) in x, y, z order with z in x+y but y not in
    z+(-x), or None."""
    for x, nx in enumerate(neg):
        for y, cell in enumerate(add[x]):
            for z in _bits(cell):
                if not (add[z][nx] >> y & 1):
                    return (x, y, z)
    return None


def _sum_row(add, mask):
    """The row z -> A + z of the set A = mask, as masks."""
    first, *rest = (add[a] for a in _bits(mask))
    if not rest:
        return first
    out = list(first)
    for row in rest:
        for z, m in enumerate(row):
            out[z] |= m
    return out


def _ch1_witness(add, rows=None):
    """Associativity on mask rows, for x in rows (all x when None): the
    first (x, y, z) in x, y, z order with (x+y)+z != x+(y+z).  Row y of
    (x+y)+z is built once, and x + C once per distinct cell mask C."""
    n = len(add)
    for x in range(n) if rows is None else rows:
        row_x = add[x]
        right = _RowSums(row_x)
        for y in range(n):
            left, cells_y = _sum_row(add, row_x[y]), add[y]
            for z in range(n):
                if left[z] != right[cells_y[z]]:
                    return (x, y, z)
    return None


class FiniteHyperfield:
    """Carrier {0, .., size-1} with multivalued addition and a mul table."""

    def __init__(self, names, mul, add_cells, meta: dict | None = None):
        self._load(names, mul, add_cells, meta, cells=True)

    @classmethod
    def _from_masks(cls, names, mul, masks, meta: dict | None = None) -> "FiniteHyperfield":
        """The table whose x+y is the bitmask masks[x][y], with `__init__`'s checks."""
        F = cls.__new__(cls)
        F._load(names, mul, masks, meta)
        return F

    def _load(self, names, mul, masks, meta, cells=False):
        names = tuple(str(s) for s in names)
        n = len(names)
        if n < 2:
            raise MalformedTableError("need at least the elements 0 and 1")
        if len(mul) != n or any(len(row) != n for row in mul):
            raise MalformedTableError("mul table must be size x size")
        if len(masks) != n or any(len(row) != n for row in masks):
            raise MalformedTableError("add table must be size x size")
        mul = tuple(tuple(map(int, row)) for row in mul)
        if any(min(row) < 0 or max(row) >= n for row in mul):
            raise MalformedTableError("mul entry out of range")
        if cells:  # an entry outside 0..n-1 becomes bit n before any shift
            masks = [[_cell_to_mask(v if 0 <= v < n else n for v in map(int, c)) for c in row]
                     for row in masks]
        masks = tuple(map(tuple, masks))
        for row in masks:
            if 0 in row or max(row) >> n:  # the row's first bad cell names the fault
                raise MalformedTableError("add entry out of range" if next(
                    m for m in row if not m or m >> n) else "empty addition cell")
        self.size, self.names, self.mul, self._add = n, names, mul, masks
        self.meta, self._neg, self._inv = dict(meta or {}), None, None

    # -- basic access -----------------------------------------------------

    def add_mask(self, x: int, y: int) -> int:
        return self._add[x][y]

    def add_cell(self, x: int, y: int) -> tuple[int, ...]:
        return _mask_to_cell(self._add[x][y])

    def contains(self, x: int, y: int, z: int) -> bool:
        """Is z a member of x + y?"""
        return bool(self._add[x][y] >> z & 1)

    def neg(self, x: int) -> int:
        if self._neg is None:
            self._neg = [next((b for b, m in enumerate(row) if m & 1), None)
                         for row in self._add]
        v = self._neg[x]
        if v is None:
            raise MalformedTableError(f"element {x} has no additive inverse")
        return v

    def inv(self, x: int) -> int:
        if x == ZERO:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._inv is None:
            self._inv = _inverses(self.mul)
        v = self._inv[x]
        if v is None:
            raise MalformedTableError(f"element {x} has no multiplicative inverse")
        return v

    @property
    def units(self) -> range:
        return range(1, self.size)

    def sumset(self, mask_a: int, mask_b: int) -> int:
        """Union of x+y over x in mask_a, y in mask_b."""
        return _sumset(self._add, mask_a, mask_b)

    def mul_mask(self, x: int, mask: int) -> int:
        return _mul_mask(self.mul[x], mask)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "names": list(self.names),
            "mul": [list(row) for row in self.mul],
            "add": [[list(self.add_cell(x, y)) for y in range(self.size)]
                    for x in range(self.size)],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteHyperfield":
        try:
            names = data["names"]
            mul = data["mul"]
            add = data["add"]
        except (KeyError, TypeError) as e:
            raise MalformedTableError(f"missing field: {e}") from None
        if "size" in data and data["size"] != len(names):
            raise MalformedTableError("declared size disagrees with names")
        return cls(names, mul, add, data.get("meta"))

    def __eq__(self, other):
        return (isinstance(other, FiniteHyperfield)
                and self.size == other.size and self.names == other.names
                and self.mul == other.mul and self._add == other._add
                and self.meta == other.meta)

    def __repr__(self):
        label = self.meta.get("label", "")
        return f"FiniteHyperfield({label or ','.join(self.names)}; size={self.size})"


# -- validation -----------------------------------------------------------

def _products(mul, gens) -> dict:
    """Every product of the generators, reached from 1 by multiplications
    on the right: {y: (x, g)} with y = x*g, in order of discovery, so each
    x is a key before y (1 maps to None)."""
    tree = {ONE: None}
    frontier = [ONE]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul[x][g]
            if y not in tree:
                tree[y] = (x, g)
                frontier.append(y)
    return tree


def _greedy_generators(mul):
    """The units g1 < g2 < .. with each g_k the least unit outside the
    products of the earlier ones, and `_products` of all of them, which
    reaches every unit: so every element is a product of 0, 1 and these.
    `_unit_group_isos` needs this set, not `_generators`: its order argument
    reads "every index below g_k is a product of g1 .. g_(k-1)", which a
    least cyclic generator does not give (in F_q index 2 need not be one)."""
    gens, tree = [], {ONE: None}
    for u in range(1, len(mul)):
        if u not in tree:
            gens.append(u)
            tree = _products(mul, gens)
    return gens, tree


def _generators(mul) -> list:
    """The unit generators `validate`'s lemmas read: [g] for the least unit
    g whose `_products` reach every unit, when there is one (the units form
    a cyclic group, as in every F_q and each of its quotients), else the
    `_greedy_generators`.  Reaching is tested unit by unit: on a table that
    is no hyperfield the products of g can hold 0."""
    units = range(1, len(mul))
    for g in range(2, len(mul)):
        tree = _products(mul, (g,))
        if all(u in tree for u in units):
            return [g]
    return _greedy_generators(mul)[0]


def validate(F: FiniteHyperfield) -> ValidationReport:
    """Exhaustive axiom check: canonical hypergroup (CH1..CH4), multiplication
    (HR2 and the abelian group on nonzero elements), distributivity (HR3).

    Every triple is decided, but no scan visits more than O(n^2 |S|) of
    them, by lemmas on the rows of 0, 1 and S, the `_generators` of the
    units (one when the units are cyclic), whose `_products` reach every
    unit.  Each lemma needs row 1 of mul to be the identity, checked first.
    - HR2 (Light): the a with (xa)y = x(ay) for all x, y are closed under
      products, as (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
      The scan checks that row and column 0 are 0, so a = 0 passes, that
      column 1 is the identity, so a = 1 passes, and a in S: every unit is
      a product of S, so mul is associative.  Then the a commuting with a
      given x are closed under products too, as x(ab) = (ax)b = a(bx), and
      0 and 1 commute with every x: so the scan's check that the members
      of S commute pairwise makes each of them, and then every product of
      them, commute with every element.
    - HR3, once HR2 holds: the x with x(y+z) = xy + xz are closed under
      products, as (ab)(y+z) = a(b(y+z)), so x in S suffices.  Row 1 the
      identity gives x = 1; at x = 0 the sides are 0(y+z) = {0} (no cell
      is empty) and 0 + 0, so x = 0 holds iff 0 + 0 = {0}, checked first.
    - Scaling, once HR2, HF and HR3 hold: for a unit x and any y,
      x + y = x(1 + x^-1 y), by HR3 at (x, 1, x^-1 y).  So each unit x maps
      row 1 onto row x, and CH1..CH4 are decided on the rows x in {0, 1}:
      CH2: a failure (x, y) is one at (y, x), and for units x, y it gives
      x(1 + x^-1 y) != x(x^-1 y + 1), a failure at (1, x^-1 y).
      CH3: as xc = 0 only for c = 0, 0 lies in x + y iff it lies in
      1 + x^-1 y, and y -> x^-1 y permutes the elements, so rows x and 1
      hold equally many zeros.
      CH4, once CH3 holds: 0 lies in x + x(-1) = x(1 - 1), so -x = x(-1);
      with y = xb and z = xc, z in x + y reads c in 1 + b, and y in
      z + (-x) = x(c - 1) reads b in c - 1: CH4 at (x, y, z) is CH4 at
      (1, b, c).
      CH1: a unit u maps (x+y)+z onto (ux+uy)+uz and x+(y+z) onto
      ux+(uy+uz), injectively, so CH1 at (x, y, z) with x != 0 is CH1 at
      (1, y/x, z/x).  When row 0 is neutral, 0 + b = {b}, both sides at
      x = 0 are y + z, and the row x = 1 alone decides CH1.
    Rows 0 and 1 come first in x order, so these scans report the full
    scan's first witness.  When HR2's or HR3's reduced scan or one of its
    prerequisites fails, the full scan runs, so each witness is the first
    failing tuple in x, y, z order."""
    n, mul, add = F.size, F.mul, F._add
    rep = ValidationReport(subject=repr(F), mode="proof by exhaustion")

    gens = _generators(mul)
    # row 1 the identity is every lemma's prerequisite; a failed reduced
    # scan or prerequisite (a truthy witness) runs the full scan
    off = mul[ONE] != tuple(range(n))
    hr2 = (off or _hr2_lemma_witness(mul, gens)) and _hr2_witness(mul)
    hf = next(((x,) for x in F.units if mul[ONE][x] != x
               or ONE not in mul[x][1:] or ZERO in mul[x][1:]), None)
    hr3 = ((off or hr2 or add[ZERO][ZERO] != 1 or _hr3_witness(mul, add, gens))
           and _hr3_witness(mul, add))
    scaled = not (hr2 or hf or hr3)  # x + y = x(1 + x^-1 y): the scaling lemma
    rows = (ZERO, ONE) if scaled else range(n)

    w = _ch2_witness(add, rows)
    rep.add("CH2", w is None, w)

    zeros = _zeros(add, rows)
    w = next(((x, c) for x, c in enumerate(zeros) if len(c) != 1), None)
    rep.add("CH3", w is None, w)

    if w is None:
        w = _ch4_witness(add, [c[0] for c in zeros])
        rep.add("CH4", w is None, w)
    else:
        rep.skipped.append("CH4 (needs CH3 to define -x)")

    neutral = all(m == 1 << b for b, m in enumerate(add[ZERO]))
    ch1 = _ch1_witness(add, (ONE,) if scaled and neutral else rows)
    rep.add("CH1", ch1 is None, ch1)
    w = next((x for x in range(n) if add[x][ZERO] != 1 << x), None)
    rep.add("NEUTRAL", w is None, w, note="x+0={x}; derived from CH2..CH4 but checked directly")
    rep.add("HR2", hr2 is None, hr2, note="0 absorbing, mul commutative semigroup")
    rep.add("HF", hf is None, hf, note="nonzero elements form an abelian group")
    rep.add("HR3", hr3 is None, hr3)
    return rep


def is_field(F: FiniteHyperfield) -> bool:
    """1 - 1 = {0} (that cell's mask is 1) decides fieldness; cross-checked
    against all cells being singletons, read as n^2 set bits in all n^2 masks
    (no cell is empty).  The routes are equivalent for valid hyperfields."""
    primary = F.add_mask(ONE, F.neg(ONE)) == 1
    bits = sum(map(int.bit_count, itertools.chain.from_iterable(F._add)))
    all_single = bits == F.size ** 2
    if primary != all_single:
        raise RuntimeError("1-1={0} disagrees with the singleton criterion; "
                           "the table is not a valid hyperfield")
    return primary


# -- builders ---------------------------------------------------------------

def build_K() -> FiniteHyperfield:
    return FiniteHyperfield(
        ["0", "1"],
        [[0, 0], [0, 1]],
        [[(0,), (1,)], [(1,), (0, 1)]],
        {"label": "K"})


def build_S() -> FiniteHyperfield:
    return FiniteHyperfield(
        ["0", "1", "-1"],
        [[0, 0, 0], [0, 1, 2], [0, 2, 1]],
        [[(0,), (1,), (2,)],
         [(1,), (1,), (0, 1, 2)],
         [(2,), (0, 1, 2), (2,)]],
        {"label": "S"})


def build_W() -> FiniteHyperfield:
    return FiniteHyperfield(
        ["0", "1", "-1"],
        [[0, 0, 0], [0, 1, 2], [0, 2, 1]],
        [[(0,), (1,), (2,)],
         [(1,), (1, 2), (0, 1, 2)],
         [(2,), (0, 1, 2), (1, 2)]],
        {"label": "W"})


def build_finite_field(q: int, modulus: tuple[int, ...] | None = None) -> FiniteHyperfield:
    from .galois import GaloisField  # only a field's builders compile galois
    gf = GaloisField(q, modulus)
    meta = {"label": f"F{q}"}
    if gf.modulus is not None:
        meta["modulus"] = list(gf.modulus)
    bits = [1 << v for v in range(q)]  # one int per bit, shared by every cell holding it
    return FiniteHyperfield._from_masks(
        gf.names(), gf.mul, [list(map(bits.__getitem__, row)) for row in gf.add], meta)


# -- quotients ---------------------------------------------------------------

def subgroup_closure(F: FiniteHyperfield, generators) -> frozenset:
    gens = sorted(set(int(g) for g in generators))
    for g in gens:
        if not (1 <= g < F.size):
            raise ValueError(f"generator {g} is not a unit index")
    return frozenset(_products(F.mul, gens))


def squares_subgroup(F: FiniteHyperfield) -> frozenset:
    return frozenset(F.mul[x][x] for x in F.units)


def quotient_hyperfield(K: FiniteHyperfield, generators) -> FiniteHyperfield:
    """K_T for a finite field K and T the subgroup generated by `generators`:
    carrier is {0} plus the cosets of T, with xT + yT = {(x+yt)T : t in T}."""
    if not is_field(K):
        raise ValueError("quotient construction requires a finite field table")
    T = subgroup_closure(K, generators)
    # Scanning units in increasing order creates the coset of 1 (T itself)
    # first and the remaining cosets in increasing order of least member.
    coset_of = {ZERO: ZERO}
    reps = []
    for u in K.units:
        if u in coset_of:
            continue
        coset = sorted(K.mul[u][t] for t in T)
        for v in coset:
            coset_of[v] = len(reps) + 1  # index 0 is reserved for zero
        reps.append(coset[0])
    assert coset_of[ONE] == 1

    elems = [ZERO] + reps
    names = ["0"] + [f"[{K.names[r]}]" for r in reps]
    mul = [[coset_of[K.mul[a][b]] for b in elems] for a in elems]
    # every cell of K is one bit (is_field): bit[a + u] is the bit of its coset
    bit = {1 << v: 1 << c for v, c in coset_of.items()}
    cosets = [[K.mul[b][t] for t in T] for b in elems]
    add = [[sum({bit[row[u]] for u in bT}) for bT in cosets] for row in (K._add[a] for a in elems)]
    H = FiniteHyperfield._from_masks(
        names, mul, add,
        {"label": f"{K.meta.get('label', 'F')}/T",
         "subgroup": sorted(T),
         "base_field": K.meta.get("label", "")})
    rep_check = validate(H)
    if not rep_check.ok:
        raise RuntimeError(f"quotient table failed validation: {rep_check.failed()}")
    return H


# -- morphisms ----------------------------------------------------------------

class Morphism(namedtuple("Morphism", "source target map")):
    __slots__ = ()

    def __new__(cls, source: FiniteHyperfield, target: FiniteHyperfield, map: tuple):
        if len(map) != source.size:
            raise MalformedTableError("map length must equal source size")
        if any(not (0 <= v < target.size) for v in map):
            raise MalformedTableError("map entry out of range")
        if map[ZERO] != ZERO or map[ONE] != ONE:
            raise MalformedTableError("morphisms must send 0 to 0 and 1 to 1")
        return super().__new__(cls, source, target, map)


def is_homomorphism(m: Morphism) -> bool:
    """s(xy) = s(x)s(y), s(x+y) inside s(x)+s(y), s(1/x) = 1/s(x); the image
    of each distinct add mask is computed once per call."""
    F, G, s = m.source, m.target, m.map
    image = _MaskImages(s)
    for x in range(F.size):
        fmul, gmul, gadd = F.mul[x], G.mul[s[x]], G._add[s[x]]
        for y, cell in enumerate(F._add[x]):
            if s[fmul[y]] != gmul[s[y]] or image[cell] & ~gadd[s[y]]:
                return False
    for x in F.units:
        if s[F.inv(x)] != G.inv(s[x]):
            return False
    return True


def _em1_holds(F: FiniteHyperfield, G: FiniteHyperfield, s) -> bool:
    """sigma(x+y) = sigma x + sigma y: the embedding condition of a bijection s."""
    gadd, image = G._add, _MaskImages(s)
    for x, row in enumerate(F._add):
        grow = gadd[s[x]]
        for y, cell in enumerate(row):
            if image[cell] != grow[s[y]]:
                return False
    return True


def is_isomorphism(m: Morphism) -> bool:
    """Surjective embedding; cross-checked against 'the inverse map is a
    homomorphism', which must agree for bijections."""
    if len(set(m.map)) != m.source.size or m.source.size != m.target.size:
        return False
    hom = is_homomorphism(m)
    primary = hom and _em1_holds(m.source, m.target, m.map)
    inv = [0] * m.target.size
    for i, v in enumerate(m.map):
        inv[v] = i
    via_inverse = is_homomorphism(Morphism(m.target, m.source, tuple(inv))) and hom
    if via_inverse != primary:
        raise RuntimeError("surjective-embedding and inverse-homomorphism "
                           "criteria disagree; tables are not valid hyperfields")
    return primary


def _unit_group_isos(fmul, gmul):
    """Every isomorphism from the units of the mul table fmul onto those of
    gmul, as a full map with 0 -> 0, in lexicographic order of the tuple.
    A map is fixed by the images of the greedy generators g1 < g2 < .. of
    fmul, each a unit of the same order, and extends along the products
    from 1; a choice is kept when it gives a bijection that respects every
    product.  Every index below g_k is a product of g1 .. g_{k-1}, so the
    first generator image where two maps differ decides their order, and
    taking the images in increasing order yields the maps in order.  That
    argument is why this reads `_greedy_generators`, not `validate`'s
    `_generators`: below a least cyclic generator g may lie units that are
    no earlier product, so two maps could first differ at one of those."""
    n = len(fmul)
    if n != len(gmul):
        return
    units = range(1, n)
    of = {x: _mult_order(fmul, x) for x in units}
    og = {y: _mult_order(gmul, y) for y in units}
    gens, tree = _greedy_generators(fmul)
    images = [[y for y in units if og[y] == of[g]] for g in gens]
    for choice in itertools.product(*images):
        s = [ZERO, ONE] + [None] * (n - 2)
        for g, y in zip(gens, choice):
            s[g] = y
        for y, step in tree.items():
            if s[y] is None:  # not 0, 1 or a generator
                x, g = step
                s[y] = gmul[s[x]][s[g]]
        if len(set(s)) == n and all(s[fmul[a][b]] == gmul[s[a]][s[b]]
                                    for a in units for b in units):
            yield tuple(s)


def find_isomorphism(F: FiniteHyperfield, G: FiniteHyperfield) -> Morphism | None:
    """The first multiplicative-group isomorphism (`_unit_group_isos`) that
    satisfies the embedding condition.  They come in lexicographic order, so
    this is the lexicographically least witness."""
    s = next((s for s in _unit_group_isos(F.mul, G.mul) if _em1_holds(F, G, s)), None)
    if s is None:
        return None
    m = Morphism(F, G, s)
    if not is_isomorphism(m):  # unreachable when both tables are hyperfields
        raise MalformedTableError("a unit-group map keeping every sum is no "
                                  "isomorphism: the tables are not hyperfields")
    return m


# -- classification ------------------------------------------------------------

class Classification(NamedTuple):
    is_field: bool
    char2: bool
    cchar1: bool
    stringent: bool
    superiorly_canonical: bool

    def to_json(self) -> dict:
        return self._asdict()


def classify(F: FiniteHyperfield) -> Classification:
    """The classification flags of a table that passes `validate` (as
    `hyperval classify` requires).  Two have exact answers, held in
    tests/test_finite.py.  Stringent: a stringent hyperfield extends a field,
    K or S by an ordered group (Bowler and Su, J. Algebra 2021), torsion-free
    and so trivial here: a finite one is a field, K or S.  Superiorly
    canonical: a finite one is a field, so the flag is `is_field` (the test
    holds it to `window.check_superiorly_canonical`).  Write A(x, y) for
    x + y = {x}, transitive by associativity.  A unit u in 1 - 1 gives 1 in
    1 + u (reversibility), so A(1, u) by SCH1 and A(u^k, u^(k+1)) for all k;
    chaining to u's order m gives A(1, u^(m-1)) and A(u^(m-1), 1), so u = 1,
    1 lies in 1 - 1 and SCH1 gives 1 - 1 = {1}, against 0 in 1 - 1.  So
    1 - 1 = {0} and y - y = {0} for all y; z, z' in x + y give x in z - y and
    z' in (z - y) + y = {z}: every sum is one element."""
    one_plus_one = F.add_mask(ONE, ONE)
    # stringency: every cell without 0 is a singleton
    stringent = all(m & 1 or m.bit_count() == 1
                    for m in itertools.chain.from_iterable(F._add))
    field = is_field(F)
    return Classification(
        is_field=field,
        char2=bool(one_plus_one & 1),
        cchar1=bool(one_plus_one >> ONE & 1),
        stringent=stringent,
        superiorly_canonical=field)


# -- hyperideals ---------------------------------------------------------------

def is_hyperideal(F: FiniteHyperfield, subset) -> bool:
    """0 in S, S - S inside S and xS inside S for every x, on the mask of S."""
    s = frozenset(subset)
    bad = [x for x in s if not (isinstance(x, int) and 0 <= x < F.size)]
    if bad:
        raise ValueError(f"element {bad[0]!r} is not an index in range({F.size})")
    return _is_hyperideal(F, s)


def _is_hyperideal(F: FiniteHyperfield, s: frozenset) -> bool:
    S = _cell_to_mask(s)
    if not S & 1:
        return False
    add, out = F._add, ~S
    for x in s:
        row = add[x]
        if any(row[F.neg(y)] & out for y in s):
            return False
    return not any(_mul_mask(row, S) & out for row in F.mul)


def list_hyperideals(F: FiniteHyperfield) -> list[frozenset]:
    """All hyperideals.  Call u onto when x -> xu hits every element: an
    absorbing S holding an onto u holds every xu, so S = F, by no hyperfield
    axiom.  So the search covers the subsets of 0 and the elements that are
    not onto, then F once; in a hyperfield that is {0} and F."""
    n = F.size
    rest = [u for u in range(1, n) if len({row[u] for row in F.mul}) < n]
    cands = [frozenset((ZERO,) + combo) for r in range(len(rest) + 1)
             for combo in itertools.combinations(rest, r)]
    if len(rest) < n - 1:
        cands.append(frozenset(range(n)))
    return sorted((s for s in cands if _is_hyperideal(F, s)),
                  key=lambda s: (len(s), sorted(s)))


# -- quotient certificates -------------------------------------------------------

def non_quotient_certificate(F: FiniteHyperfield) -> dict | None:
    """Certificate that F is not a quotient of a field, by the reachability
    criterion: 1 not in 1+1, and 0 outside every iterated hypersum
    1+1+...+1.  Returns None when the criterion does not apply."""
    if F.contains(ONE, ONE, ONE):
        return None
    mask = 1 << ONE
    seen = []
    while mask not in seen:
        seen.append(mask)
        mask = F.sumset(mask, 1 << ONE)
    if any(m & 1 for m in seen):
        return None
    return {
        "criterion": "1 not in 1+1 and 0 unreachable by iterated sums of 1",
        "iterated_sums": [list(_mask_to_cell(m)) for m in seen],
    }


def quotient_search(F: FiniteHyperfield, q_max: int):
    """Positive witnesses only: the first (q, subgroup generators) with
    F_q / T isomorphic to F, scanning prime powers in increasing order.
    The units of F_q are cyclic, so for each q at most one subgroup has the
    right index."""
    from .galois import prime_power
    target_units = F.size - 1
    for q in range(2, q_max + 1):
        if prime_power(q) is None:
            continue
        if (q - 1) % target_units:
            continue
        field = build_finite_field(q)
        gen = next(g for g in field.units
                   if _mult_order(field.mul, g) == q - 1)
        t_gen = _pow(field, gen, target_units)
        H = quotient_hyperfield(field, [t_gen])
        if find_isomorphism(H, F) is not None:
            return {"q": q, "generators": [t_gen],
                    "subgroup": sorted(subgroup_closure(field, [t_gen]))}
    return None


def _mult_order(mul, x: int) -> int:
    y = x
    for k in range(1, len(mul)):
        if y == ONE:
            return k
        y = mul[y][x]
    raise MalformedTableError(f"no power of element {x} is 1: the units are no group")


def _pow(F: FiniteHyperfield, x: int, e: int) -> int:
    y = ONE
    for _ in range(e):
        y = F.mul[y][x]
    return y


# -- enumeration -----------------------------------------------------------------

def _abelian_groups(order: int) -> list[tuple[int, ...]]:
    """Invariant-factor style descriptors (as elementary divisor multisets)
    of all abelian groups of the given order."""
    if order == 1:
        return [()]
    factors = {}
    m = order
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1

    def partitions(k):
        if k == 0:
            yield ()
            return
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    per_prime = []
    for p, e in sorted(factors.items()):
        per_prime.append([tuple(p ** a for a in part) for part in partitions(e)])
    out = []
    for combo in itertools.product(*per_prime):
        divisors = tuple(sorted(d for group in combo for d in group))
        out.append(divisors)
    return sorted(set(out))


def _group_mul_table(divisors: tuple[int, ...], order: int) -> list[list[int]]:
    """The (order+1) x (order+1) multiplication table of 0 and the direct
    product of cyclic groups on unit indices 1..order: index 1 is the
    identity, and row and column 0 hold 0."""
    tuples = list(itertools.product(*[range(d) for d in divisors]))
    tuples.sort()
    assert tuples[0] == tuple(0 for _ in divisors)
    idx = {t: i + 1 for i, t in enumerate(tuples)}
    table = [[0] * (order + 1) for _ in range(order + 1)]
    for a in tuples:
        for b in tuples:
            c = tuple((x + y) % d for x, y, d in zip(a, b, divisors))
            table[idx[a]][idx[b]] = idx[c]
    return table


def _mask_images(row) -> list[int]:
    """The image of every mask under a -> row[a], indexed by the mask."""
    out = [0] * (1 << len(row))
    for mask in range(1, len(out)):
        low = mask & -mask
        out[mask] = out[mask ^ low] | 1 << row[low.bit_length() - 1]
    return out


def _least_in_orbit(iota, h, auts) -> bool:
    """Whether no automorphism s, given with its `_mask_images` table, maps
    the candidate (iota, h) to an earlier one: (s(iota), s.h) < (iota, h),
    where (s.h)(s(a)) = s(h(a))."""
    key = (iota, h)
    for s, img in auts:
        image = [0] * len(h)
        for a, mask in enumerate(h):
            image[s[a]] = img[mask]
        if (s[iota], tuple(image)) < key:
            return False
    return True


def enumerate_hyperfields(order: int) -> list[FiniteHyperfield]:
    """Every hyperfield of the given order, up to isomorphism.

    Distributivity forces x+y = x(1 + x^(-1) y), so a structure on a unit
    group is pinned down by -1 = iota and the row h(a) = 1+a, which
    `_candidate_rows` enumerates with reversibility decided on the rows.
    Two candidates on one unit group are isomorphic exactly when an
    automorphism s of the group maps one to the other, s(iota) = iota' and
    s(h(a)) = h'(s(a)); unit groups of different shapes are not isomorphic.
    So a candidate is kept only when it is the least of its orbit in the
    order the loops meet candidates (by iota, then by h), which keeps the
    first table of each class, and reads h alone, before any mask table.
    Commutativity, the unique-inverse axiom, the multiplicative axioms and
    distributivity hold by construction, and row 0 is neutral, so
    associativity is decided on the row x = 1 (`validate`'s CH1 lemma),
    then the full validation runs on every kept table.
    """
    if order < 2:
        raise ValueError("need at least 0 and 1")
    # Row-level CH4 leaves 1,840 candidates at order 7 and 3,926 at order 8;
    # the cap waits on ROADMAP item 8's independent checks of their classes.
    if order > 6:
        raise ValueError(f"order {order} above the enumeration cap 6")
    m, units = order - 1, range(1, order)
    names = ["0", "1"] + [f"a{i}" for i in range(2, order)]
    found: list[FiniteHyperfield] = []
    for divisors in _abelian_groups(m):
        mul = _group_mul_table(divisors, m)
        inv = _inverses(mul)
        img = [_mask_images(row) for row in mul]  # img[x][mask]: x times mask
        auts = [(s, _mask_images(s)) for s in _unit_group_isos(mul, mul)]
        for iota in range(1, order):
            if mul[iota][iota] != ONE:
                continue  # -1 must square to 1
            for h in _candidate_rows(mul, inv, img, iota):
                if not _least_in_orbit(iota, h, auts):
                    continue
                cand = [[1 << y for y in range(order)]] + [  # x+y = x h(x^-1 y)
                    [1 << x] + [img[x][h[mul[inv[x]][y]]] for y in units] for x in units]
                if _ch1_witness(cand, (ONE,)) is not None:
                    continue
                H = FiniteHyperfield._from_masks(names, mul, cand,
                                                 {"label": f"order{order}"})
                if validate(H).ok:
                    found.append(H)
    found.sort(key=lambda H: (H.mul, H._add))
    for i, H in enumerate(found):
        H.meta["label"] = f"order{order}_{i}"
    return found


def _candidate_rows(mul, inv, img, iota):
    """Yield the admissible choices of the rows h(a) = 1+a that are
    reversible (CH4), as tuples h indexed by a with h(0) = {1}, in the
    lexicographic order of the choices; img[x][mask] is x times mask.

    For x != 0 the table sets x+y = x h(x^-1 y).  With a = x^-1 y and
    z = xc, 'y in z - x' reads c^-1 a in h(-c^-1), so CH4 is decided on h:
    for every unit a and unit c in h(a).  The rows with x = 0 or y = 0 hold
    by construction, because h(0) = {1} and 0 lies in h(a) iff a = -1.

    Slot k chooses h(a), a = slots[k], and so h(a^-1) = a^-1 h(a): v lies
    in h(a^-1) iff av lies in h(a).  An instance (a, c) is decided at the
    slot that fixes the later of h(a) and h(t), t = -c^-1.  If h(a) was
    fixed earlier and holds c, the new row must hold c^-1 a (`need`, ORed
    into `must` per node); if h(t) was fixed earlier and misses c^-1 a, the
    new row must miss c (`avoid`, ORed into `ban`); if both are new, the
    instance reads the new row alone and filters the slot's options once
    (`both`).  So an option passes a node exactly when it passes every
    instance decided there, one by one, and the options keep their order."""
    order = len(mul)
    units = range(1, order)
    slots = [a for a in units if a <= inv[a]]  # h(a) also fixes h(a^-1)
    depth = {}
    for k, a in enumerate(slots):
        depth[a] = depth[inv[a]] = k

    def at(k, y, v):  # v in h(y), y fixed at slot k, as an index in h(slots[k])
        return v if y == slots[k] else mul[slots[k]][v]

    need, avoid, both = ([[] for _ in slots] for _ in range(3))
    for a in units:
        for c in units:
            t, w = mul[iota][inv[c]], mul[inv[c]][a]
            k = max(depth[a], depth[t])
            if depth[a] < k:
                need[k].append((a, 1 << c, 1 << at(k, t, w)))
            elif depth[t] < k:
                avoid[k].append((t, 1 << w, 1 << at(k, a, c)))
            else:
                both[k].append((at(k, a, c), at(k, t, w)))
    # h(a) = a h(a^-1) = a h(a) when a is its own inverse
    options = [[mask for mask in range(1, 1 << order)
                if bool(mask & 1) == (a == iota)
                and (a != inv[a] or img[a][mask] == mask)
                and all(mask >> w & 1 or not mask >> c & 1 for c, w in both[k])]
               for k, a in enumerate(slots)]
    h = [1 << ONE] * order  # h(0) = {1}; each slot sets its rows before use

    def extend(k):
        if k == len(slots):
            yield tuple(h)
            return
        a, b = slots[k], inv[slots[k]]
        must = ban = 0
        for x, c, v in need[k]:
            if h[x] & c:
                must |= v
        for t, w, v in avoid[k]:
            if not h[t] & w:
                ban |= v
        for mask in options[k]:
            if mask & must == must and not mask & ban:
                h[a] = mask
                h[b] = img[b][mask]
                yield from extend(k + 1)

    yield from extend(0)
