"""Explicit arithmetic tables for small finite fields F_q, q = p^k.

Elements are indexed 0..q-1 by base-p digit vectors (index = sum d_i p^i),
which pins 0 and 1 at indices 0 and 1.  For k > 1 the digits are the
coefficients of a polynomial in x modulo a monic irreducible of degree k;
if none is supplied the lexicographically least one is found by trial
division, so table contents are deterministic for a given q.  The modulus
need not be primitive: multiplication is read off exp/log tables of the
least index g of multiplicative order q-1, and addition is digitwise.
"""

from __future__ import annotations

import itertools
from math import isqrt
from operator import itemgetter


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int):
    """(p, k) with q = p^k, or None.  q's least divisor d > 1 is prime and
    decides: it is at most isqrt(q) unless q is prime, so d = q then."""
    if q < 2:
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def _poly_mod(f, g, p):
    """f mod g over F_p; g monic: long division from the top coefficient."""
    f, dg = [c % p for c in f], len(g) - 1
    for top in range(len(f) - 1, dg - 1, -1):
        lead, shift = f[top], top - dg
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - lead * c) % p
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def _monic_polys(p: int, deg: int):
    for lower in itertools.product(range(p), repeat=deg):
        yield lower + (1,)


def is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Monic f over F_p, by trial division up to half the degree."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            if not _poly_mod(f, g, p):
                return False
    return True


def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k over F_p."""
    for f in _monic_polys(p, k):
        if is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible of degree {k} over F_{p}")  # unreachable


class GaloisField:
    """F_q with full add/mul/neg/inv tables, for q x q within WINDOW_LIMIT
    (q <= 447): a larger q raises WindowTooLarge before any table is built."""

    def __init__(self, q: int, modulus: tuple[int, ...] | None = None):
        from .bitmask import check_window  # so --q's prime test compiles galois alone
        check_window(q, q, 1)  # the add and mul tables hold q x q cells
        pk = prime_power(q)
        if pk is None:
            raise ValueError(f"{q} is not a prime power")
        self.q, (self.p, self.k) = q, pk
        if self.k == 1:
            if modulus is not None:
                raise ValueError("modulus only applies to proper prime powers")
            self.modulus = None
        else:
            if modulus is None:  # irreducible by construction
                modulus = default_modulus(self.p, self.k)
            else:
                modulus = tuple(c % self.p for c in modulus)
                if len(modulus) != self.k + 1 or modulus[-1] != 1:
                    raise ValueError(f"modulus must be monic of degree {self.k}")
                if not is_irreducible(modulus, self.p):
                    raise ValueError(f"modulus {modulus} is reducible over F_{self.p}")
            self.modulus = modulus
        self._build_tables()

    def _digits(self, i: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(i % self.p)
            i //= self.p
        return tuple(out)

    def _build_tables(self):
        q, p, k = self.q, self.p, self.k
        self.add = small = [[(a + b) % p for b in range(p)] for a in range(p)]
        for _ in range(1, k):  # digitwise, one more base-p digit on top
            big, n = self.add, len(self.add)
            self.add = [[lo + hi for hi in his for lo in row] for his in
                        [[n * h for h in r] for r in small] for row in big]
        add, top, m = self.add, q // p, self.modulus or (0, 1)  # F_p = F_p[x]/(x)
        red = [sum(-d * c % p * p ** i for i, c in enumerate(m[:k])) for d in range(p)]
        xrow = [add[a % top * p][red[a // top]] for a in range(q)]  # x d x^(k-1) = -d (m - x^k)
        for g in range(1, q):  # the least index of order q - 1
            row = [0] * q
            for a in range(1, q):  # g (d + x b) = g (d - 1 + x b) + g, or x (g b) if d = 0
                row[a] = add[row[a - 1]][g] if a % p else xrow[row[a // p]]
            exp, a = [1], g
            while a != 1:
                exp.append(a)
                a = row[a]
            if len(exp) == q - 1:
                break
        self.exp, self.log = exp, [None] * q
        for i, a in enumerate(exp):
            self.log[a] = i
        e2, logs = exp + exp, self.log[1:]
        if k == 1:
            self.mul = [[a * b % p for b in range(q)] for a in range(q)]
        else:  # mul[a][b] = exp[log a + log b]
            self.mul = [[0] * q] + [None] * (q - 1)
            get = itemgetter(*logs)
            for i, a in enumerate(exp):
                self.mul[a] = [0, *get(e2[i:i + q - 1])]
        self.neg = list(self.mul[p - 1])  # times -1
        self.inv = [None] + [e2[q - 1 - i] for i in logs]

    def element_name(self, i: int) -> str:
        if self.k == 1:
            return str(i)
        terms, digits = [], self._digits(i)
        for e in range(self.k - 1, -1, -1):
            c = digits[e]
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                x = "x" if e == 1 else f"x^{e}"
                terms.append(x if c == 1 else f"{c}{x}")
        return "+".join(terms) if terms else "0"

    def names(self) -> list[str]:
        return [self.element_name(i) for i in range(self.q)]
