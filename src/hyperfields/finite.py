"""Finite hyperfields as explicit tables.

A finite hyperfield is stored as a full multiplication table plus one
bitmask per addition cell (bit i set means element i belongs to x+y), so the
exhaustive axiom checks reduce to integer bit algebra.  Index 0 is always
the additive zero and index 1 the multiplicative unit.

The module ships the three classical small examples (K, the sign hyperfield
S, the weak sign hyperfield W), finite fields as degenerate hyperfields,
quotients of finite fields by multiplicative subgroups, morphism predicates,
a brute-force isomorphism search, classification flags, hyperideal
enumeration, and an exhaustive enumeration of all hyperfields of a given
small order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .galois import GaloisField, prime_power
from .report import ValidationReport

ZERO, ONE = 0, 1


class MalformedTableError(ValueError):
    """Structural defect in a table (a usage error, not an axiom failure)."""


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_to_cell(mask: int) -> tuple[int, ...]:
    return tuple(_bits(mask))


def _cell_to_mask(cell) -> int:
    m = 0
    for i in cell:
        m |= 1 << i
    return m


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


def _hr3_witness(mul, add):
    """Distributivity x(y+z) = xy + xz on raw mask rows (a sumset of two
    singletons is a single add cell): the first failing (x, y, z) in x, y, z
    order, or None.  A table has few distinct cell masks, so each one's image
    under x is computed once per x."""
    n = len(add)
    for x in range(n):
        row, image = mul[x], {}
        for y in range(n):
            cells, target = add[y], add[row[y]]
            for z in range(n):
                cell = cells[z]
                img = image.get(cell)
                if img is None:
                    img = image[cell] = _mul_mask(row, cell)
                if img != target[row[z]]:
                    return (x, y, z)
    return None


def _ch4_witness(add, neg):
    """Reversibility on raw mask rows: the first (x, y, z) in x, y, z order
    with z in x+y but y not in z+(-x), or None."""
    n = len(add)
    for x in range(n):
        nx = neg[x]
        for y in range(n):
            for z in _bits(add[x][y]):
                if not (add[z][nx] >> y & 1):
                    return (x, y, z)
    return None


def _ch1_witness(add):
    """Associativity on raw mask rows: the first (x, y, z) in x, y, z order
    with (x+y)+z != x+(y+z), or None."""
    n = len(add)
    cells = [[tuple(_bits(m)) for m in row] for row in add]
    for x in range(n):
        row_x = add[x]
        for y in range(n):
            left, cells_y = cells[x][y], cells[y]
            for z in range(n):
                lhs = 0
                for a in left:
                    lhs |= add[a][z]
                rhs = 0
                for b in cells_y[z]:
                    rhs |= row_x[b]
                if lhs != rhs:
                    return (x, y, z)
    return None


class FiniteHyperfield:
    """Carrier {0, .., size-1} with multivalued addition and a mul table."""

    def __init__(self, names, mul, add_cells, meta: dict | None = None):
        names = tuple(str(s) for s in names)
        n = len(names)
        if n < 2:
            raise MalformedTableError("need at least the elements 0 and 1")
        if len(mul) != n or any(len(row) != n for row in mul):
            raise MalformedTableError("mul table must be size x size")
        if len(add_cells) != n or any(len(row) != n for row in add_cells):
            raise MalformedTableError("add table must be size x size")
        mul = tuple(tuple(int(v) for v in row) for row in mul)
        for row in mul:
            for v in row:
                if not (0 <= v < n):
                    raise MalformedTableError("mul entry out of range")
        masks = []
        for row in add_cells:
            mrow = []
            for cell in row:
                cell = tuple(sorted(set(int(v) for v in cell)))
                if not cell:
                    raise MalformedTableError("empty addition cell")
                if cell[0] < 0 or cell[-1] >= n:
                    raise MalformedTableError("add entry out of range")
                mrow.append(_cell_to_mask(cell))
            masks.append(tuple(mrow))
        self.size = n
        self.names = names
        self.mul = mul
        self._add = tuple(masks)
        self.meta = dict(meta or {})
        self._neg = None
        self._inv = None

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
            neg = []
            for a in range(self.size):
                cands = [b for b in range(self.size) if self.contains(a, b, ZERO)]
                neg.append(cands[0] if cands else None)
            self._neg = neg
        v = self._neg[x]
        if v is None:
            raise MalformedTableError(f"element {x} has no additive inverse")
        return v

    def inv(self, x: int) -> int:
        if x == ZERO:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._inv is None:
            inv = [None] * self.size
            for a in range(1, self.size):
                for b in range(1, self.size):
                    if self.mul[a][b] == ONE:
                        inv[a] = b
                        break
            self._inv = inv
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

def validate(F: FiniteHyperfield) -> ValidationReport:
    """Exhaustive axiom check: canonical hypergroup (CH1..CH4), multiplication
    (HR2 and the abelian group on nonzero elements), distributivity (HR3)."""
    n = F.size
    rep = ValidationReport(subject=repr(F), mode="proof by exhaustion")

    w = next(((x, y) for x in range(n) for y in range(n)
              if F.add_mask(x, y) != F.add_mask(y, x)), None)
    rep.add("CH2", w is None, w)

    ch3_ok = True
    w = None
    for x in range(n):
        cands = [y for y in range(n) if F.contains(x, y, ZERO)]
        if len(cands) != 1:
            ch3_ok, w = False, (x, tuple(cands))
            break
    rep.add("CH3", ch3_ok, w)

    if ch3_ok:
        w = _ch4_witness(F._add, [F.neg(x) for x in range(n)])
        rep.add("CH4", w is None, w)
    else:
        rep.skipped.append("CH4 (needs CH3 to define -x)")

    w = _ch1_witness(F._add)
    rep.add("CH1", w is None, w)

    w = next((x for x in range(n) if F.add_mask(x, ZERO) != 1 << x), None)
    rep.add("NEUTRAL", w is None, w, note="x+0={x}; derived from CH2..CH4 but checked directly")

    w = None
    for x in range(n):
        if F.mul[x][ZERO] != ZERO or F.mul[ZERO][x] != ZERO:
            w = (x, 0)
            break
        for y in range(n):
            if F.mul[x][y] != F.mul[y][x]:
                w = (x, y)
                break
            for z in range(n):
                if F.mul[F.mul[x][y]][z] != F.mul[x][F.mul[y][z]]:
                    w = (x, y, z)
                    break
            if w:
                break
        if w:
            break
    rep.add("HR2", w is None, w, note="0 absorbing, mul commutative semigroup")

    w = None
    for x in F.units:
        if F.mul[ONE][x] != x:
            w = (x,)
            break
        if all(F.mul[x][y] != ONE for y in F.units):
            w = (x,)
            break
        if any(F.mul[x][y] == ZERO for y in F.units):
            w = (x,)
            break
    rep.add("HF", w is None, w, note="nonzero elements form an abelian group")

    w = _hr3_witness(F.mul, F._add)
    rep.add("HR3", w is None, w)
    return rep


def is_field(F: FiniteHyperfield) -> bool:
    """1 - 1 = {0} decides fieldness; cross-checked against all cells being
    singletons (the two are equivalent for valid hyperfields)."""
    primary = F.add_cell(ONE, F.neg(ONE)) == (ZERO,)
    all_single = all(F.add_mask(x, y).bit_count() == 1
                     for x in range(F.size) for y in range(F.size))
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
    gf = GaloisField(q, modulus)
    add = [[(gf.add[x][y],) for y in range(q)] for x in range(q)]
    meta = {"label": f"F{q}"}
    if gf.modulus is not None:
        meta["modulus"] = list(gf.modulus)
    return FiniteHyperfield(gf.names(), gf.mul, add, meta)


# -- quotients ---------------------------------------------------------------

def subgroup_closure(F: FiniteHyperfield, generators) -> frozenset:
    gens = sorted(set(int(g) for g in generators))
    for g in gens:
        if not (1 <= g < F.size):
            raise ValueError(f"generator {g} is not a unit index")
    seen = {ONE}
    frontier = [ONE]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = F.mul[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


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

    n = len(reps) + 1
    names = ["0"] + [f"[{K.names[r]}]" for r in reps]
    mul = [[0] * n for _ in range(n)]
    for i, a in enumerate([ZERO] + reps):
        for j, b in enumerate([ZERO] + reps):
            mul[i][j] = coset_of[K.mul[a][b]]
    add = [[None] * n for _ in range(n)]
    for i, a in enumerate([ZERO] + reps):
        for j, b in enumerate([ZERO] + reps):
            cell = set()
            for t in T:
                s = K.add_cell(a, K.mul[b][t])[0]
                cell.add(coset_of[s])
            add[i][j] = tuple(sorted(cell))
    H = FiniteHyperfield(
        names, mul, add,
        {"label": f"{K.meta.get('label', 'F')}/T",
         "subgroup": sorted(T),
         "base_field": K.meta.get("label", "")})
    rep_check = validate(H)
    if not rep_check.ok:
        raise RuntimeError(f"quotient table failed validation: {rep_check.failed()}")
    return H


# -- morphisms ----------------------------------------------------------------

@dataclass(frozen=True)
class Morphism:
    source: FiniteHyperfield
    target: FiniteHyperfield
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.source.size:
            raise MalformedTableError("map length must equal source size")
        if any(not (0 <= v < self.target.size) for v in self.map):
            raise MalformedTableError("map entry out of range")
        if self.map[ZERO] != ZERO or self.map[ONE] != ONE:
            raise MalformedTableError("morphisms must send 0 to 0 and 1 to 1")


def is_homomorphism(m: Morphism) -> bool:
    F, G, s = m.source, m.target, m.map
    if s[ZERO] != ZERO or s[ONE] != ONE:
        return False
    for x in range(F.size):
        for y in range(F.size):
            if s[F.mul[x][y]] != G.mul[s[x]][s[y]]:
                return False
            target = G.add_mask(s[x], s[y])
            for z in F.add_cell(x, y):
                if not (target >> s[z] & 1):
                    return False
    for x in F.units:
        if s[F.inv(x)] != G.inv(s[x]):
            return False
    return True


def _em1_holds(F: FiniteHyperfield, G: FiniteHyperfield, s, img: int) -> bool:
    """sigma(x+y) = (sigma x + sigma y) intersected with img, the image of s."""
    gadd = G._add
    for x, row in enumerate(F._add):
        grow = gadd[s[x]]
        for y, cell in enumerate(row):
            if _mul_mask(s, cell) != grow[s[y]] & img:
                return False
    return True


def is_embedding(m: Morphism) -> bool:
    injective = len(set(m.map)) == m.source.size
    return injective and is_homomorphism(m) and _em1_holds(
        m.source, m.target, m.map, _cell_to_mask(m.map))


def is_isomorphism(m: Morphism) -> bool:
    """Surjective embedding; cross-checked against 'the inverse map is a
    homomorphism', which must agree for bijections."""
    bijective = (len(set(m.map)) == m.source.size
                 and m.source.size == m.target.size)
    primary = bijective and is_homomorphism(m) and _em1_holds(
        m.source, m.target, m.map, _cell_to_mask(m.map))
    if bijective:
        inv = [0] * m.target.size
        for i, v in enumerate(m.map):
            inv[v] = i
        via_inverse = (is_homomorphism(Morphism(m.target, m.source, tuple(inv)))
                       and is_homomorphism(m))
        if via_inverse != primary:
            raise RuntimeError("surjective-embedding and inverse-homomorphism "
                               "criteria disagree; tables are not valid hyperfields")
    return primary


def _unit_group_isos(F: FiniteHyperfield, G: FiniteHyperfield):
    """All multiplicative-group isomorphisms F^x -> G^x, as full maps with
    0 -> 0, yielded in lexicographic order of the map tuple.  Backtracking
    with element-order and partial-product pruning plus a final full
    multiplicativity check; fine at desk scale."""
    n = F.size
    if n != G.size:
        return

    of = {x: _mult_order(F, x) for x in F.units}
    og = {x: _mult_order(G, x) for x in G.units}
    perm: list[int | None] = [None] * n
    perm[ZERO], perm[ONE] = ZERO, ONE
    used = [False] * n
    used[ZERO] = used[ONE] = True

    def full_check() -> bool:
        for a in range(1, n):
            for b in range(1, n):
                if perm[F.mul[a][b]] != G.mul[perm[a]][perm[b]]:
                    return False
        return True

    def extend(x):
        if x == n:
            if full_check():
                yield tuple(perm)
            return
        for y in range(1, n):
            if used[y] or of[x] != og[y]:
                continue
            ok = True
            for a in range(1, n):
                if perm[a] is None:
                    continue
                p = F.mul[a][x]
                if perm[p] is not None and perm[p] != G.mul[perm[a]][y]:
                    ok = False
                    break
            if ok:
                perm[x] = y
                used[y] = True
                yield from extend(x + 1)
                perm[x] = None
                used[y] = False

    yield from extend(2)


def find_isomorphism(F: FiniteHyperfield, G: FiniteHyperfield) -> Morphism | None:
    """Brute force over multiplicative-group isomorphisms, filtered by the
    embedding condition; returns the lexicographically least witness."""
    if F.size != G.size:
        return None
    best = None
    full = (1 << G.size) - 1  # the image of a bijection
    for s in _unit_group_isos(F, G):
        if _em1_holds(F, G, s, full) and (best is None or s < best):
            best = s
    if best is None:
        return None
    m = Morphism(F, G, best)
    if not is_isomorphism(m):  # belt and braces; should be unreachable
        raise RuntimeError("candidate passed cellwise check but not is_isomorphism")
    return m


# -- classification ------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    is_field: bool
    char2: bool
    cchar1: bool
    stringent: bool
    superiorly_canonical: bool

    def to_json(self) -> dict:
        return {"is_field": self.is_field, "char2": self.char2,
                "cchar1": self.cchar1, "stringent": self.stringent,
                "superiorly_canonical": self.superiorly_canonical}


def _superiorly_canonical(F: FiniteHyperfield) -> bool:
    # A bitmask copy of check_superiorly_canonical(FiniteBackend(F)), which
    # the tests hold it to.  Kept because classify runs it on every table:
    # 2-4 ms instead of 14 ms on F49, 2 us instead of 0.1 ms on the order-3
    # quotients (Xeon, Python 3.11).
    n = F.size
    for x in range(n):
        for y in range(n):
            if F.contains(x, y, x) and F.add_mask(x, y) != 1 << x:
                return False  # SCH1
    masks = [[F.add_mask(x, y) for y in range(n)] for x in range(n)]
    cells = {m for row in masks for m in row}
    for a in cells:
        for b in cells:
            if a & b and not (a | b == a or a | b == b):
                return False  # SCH2
    selfdiff = [F.add_mask(x, F.neg(x)) for x in range(n)]
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            diff = F.add_cell(x, F.neg(y))
            base = None
            for z in diff:
                if base is None:
                    base = selfdiff[z]
                elif selfdiff[z] != base:
                    return False  # SCH3
    for z in range(n):
        sz = selfdiff[z]
        for x in range(n):
            if not (sz >> x & 1):
                continue
            for y in range(n):
                if sz >> y & 1:
                    continue
                if selfdiff[x] & ~selfdiff[y]:
                    return False  # SCH4
    return True


def classify(F: FiniteHyperfield) -> Classification:
    one_plus_one = F.add_mask(ONE, ONE)
    # stringency: every cell without 0 is a singleton
    stringent = True
    for x in range(F.size):
        for y in range(F.size):
            m = F.add_mask(x, y)
            if not (m & 1) and m.bit_count() != 1:
                stringent = False
    return Classification(
        is_field=is_field(F),
        char2=bool(one_plus_one & 1),
        cchar1=bool(one_plus_one >> ONE & 1),
        stringent=stringent,
        superiorly_canonical=_superiorly_canonical(F))


# -- hyperideals ---------------------------------------------------------------

def is_hyperideal(F: FiniteHyperfield, subset) -> bool:
    s = frozenset(subset)
    if ZERO not in s:
        return False
    for x in s:
        for y in s:
            if any(z not in s for z in F.add_cell(x, F.neg(y))):
                return False
    for x in range(F.size):
        for y in s:
            if F.mul[x][y] not in s:
                return False
    return True


def scalar_hyperideal(F: FiniteHyperfield) -> frozenset:
    """Elements s with s - s = {0}; verified to be a hyperideal."""
    s = frozenset(x for x in range(F.size) if F.add_mask(x, F.neg(x)) == 1)
    if not is_hyperideal(F, s):
        raise RuntimeError("scalar set failed the hyperideal test; "
                           "table is not a valid hyperring")
    return s


def list_hyperideals(F: FiniteHyperfield) -> list[frozenset]:
    """All hyperideals, by exhaustive subset search (carrier is small)."""
    out = []
    rest = [x for x in range(F.size) if x != ZERO]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            cand = frozenset((ZERO,) + combo)
            if is_hyperideal(F, cand):
                out.append(cand)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


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
    target_units = F.size - 1
    for q in range(2, q_max + 1):
        if prime_power(q) is None:
            continue
        if (q - 1) % target_units:
            continue
        field = build_finite_field(q)
        gen = next(g for g in field.units
                   if _mult_order(field, g) == q - 1)
        t_gen = _pow(field, gen, target_units)
        H = quotient_hyperfield(field, [t_gen])
        if find_isomorphism(H, F) is not None:
            return {"q": q, "generators": [t_gen],
                    "subgroup": sorted(subgroup_closure(field, [t_gen]))}
    return None


def _mult_order(F: FiniteHyperfield, x: int) -> int:
    y = x
    for k in range(1, F.size):
        if y == ONE:
            return k
        y = F.mul[y][x]
    raise MalformedTableError(f"no power of {F.names[x]!r} is 1: the units are no group")


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
    """Multiplication on unit indices 1..order for the direct product of
    cyclic groups; index 1 is the identity."""
    if order == 1:
        return [[None, None], [None, 1]]
    tuples = list(itertools.product(*[range(d) for d in divisors]))
    tuples.sort()
    assert tuples[0] == tuple(0 for _ in divisors)
    idx = {t: i + 1 for i, t in enumerate(tuples)}
    table = [[None] * (order + 1) for _ in range(order + 1)]
    for a in tuples:
        for b in tuples:
            c = tuple((x + y) % d for x, y, d in zip(a, b, divisors))
            table[idx[a]][idx[b]] = idx[c]
    return table


def enumerate_hyperfields(order: int) -> list[FiniteHyperfield]:
    """Every hyperfield of the given order, up to isomorphism.

    Distributivity forces x+y = x(1 + x^(-1) y), so a structure is pinned
    down by the row h(a) = 1+a; candidate rows are enumerated subject to
    h(0) = {1} and 0 in h(a) iff a = -1, then rebuilt and validated.
    Commutativity, the unique-inverse axiom, the multiplicative axioms and
    distributivity hold by construction, so only associativity and
    reversibility are tested before full validation.
    """
    if order < 2:
        raise ValueError("need at least 0 and 1")
    if order > 6:  # order 7 would search roughly 128^4 candidate rows
        raise ValueError(f"order {order} above the enumeration cap 6")
    m = order - 1
    found: list[FiniteHyperfield] = []
    for divisors in _abelian_groups(m):
        unit_mul = _group_mul_table(divisors, m)
        mul = [[0] * order for _ in range(order)]
        for a in range(1, order):
            for b in range(1, order):
                mul[a][b] = unit_mul[a][b]
        inv = [None] * order
        for a in range(1, order):
            inv[a] = next(b for b in range(1, order) if mul[a][b] == ONE)
        for iota in range(1, order):
            if mul[iota][iota] != ONE:
                continue  # -1 must square to 1
            neg = [mul[iota][x] for x in range(order)]
            for cand in _candidate_tables(order, mul, inv, iota):
                if _ch4_witness(cand, neg) is not None or _ch1_witness(cand) is not None:
                    continue
                names = ["0", "1"] + [f"a{i}" for i in range(2, order)]
                add = [[_mask_to_cell(cand[x][y]) for y in range(order)]
                       for x in range(order)]
                H = FiniteHyperfield(names, mul, add,
                                     {"label": f"order{order}"})
                if not validate(H).ok:
                    continue
                if any(find_isomorphism(H, R) is not None for R in found):
                    continue
                found.append(H)
    found.sort(key=lambda H: (H.mul, tuple(tuple(row) for row in H._add)))
    for i, H in enumerate(found):
        H.meta["label"] = f"order{order}_{i}"
    return found


def _candidate_tables(order, mul, inv, iota):
    """Yield full addition tables (as mask matrices) for each admissible
    choice of the rows h(a) = 1+a."""
    full = (1 << order) - 1
    # img[x][mask] is the image of mask under multiplication by x
    img = []
    for x in range(order):
        row = [0] * (full + 1)
        for mask in range(1, full + 1):
            low = mask & -mask
            row[mask] = row[mask ^ low] | 1 << mul[x][low.bit_length() - 1]
        img.append(row)

    units = list(range(1, order))
    slots = []  # (kind, a) where kind "free" covers a and inv[a]
    done = set()
    for a in units:
        if a in done:
            continue
        done.add(a)
        done.add(inv[a])
        slots.append(a)

    def choices(a):
        if a == inv[a]:
            opts = []
            for mask in range(1, full + 1):
                if bool(mask & 1) != (a == iota):
                    continue
                if img[a][mask] != mask:
                    continue  # h(a) = a h(a^{-1}) = a h(a)
                opts.append(mask)
            return opts
        opts = []
        for mask in range(1, full + 1):
            if bool(mask & 1) != (a == iota):
                continue
            opts.append(mask)
        return opts

    option_lists = [choices(a) for a in slots]
    for combo in itertools.product(*option_lists):
        h = [0] * order
        h[0] = 1 << ONE
        for a, mask in zip(slots, combo):
            h[a] = mask
            if inv[a] != a:
                h[inv[a]] = img[inv[a]][mask]
        add = [[0] * order for _ in range(order)]
        for y in range(order):
            add[0][y] = 1 << y
            add[y][0] = 1 << y
        for x in range(1, order):
            for y in range(order):
                if y == 0:
                    continue
                add[x][y] = img[x][h[mul[inv[x]][y]]]
        yield add

