"""F_q tables: exp/log construction against the polynomial reference."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfields import galois
from hyperfields.bitmask import WindowTooLarge
from hyperfields.galois import (GaloisField, default_modulus, is_irreducible,
                                is_prime, prime_power)

# -- polynomial reference ----------------------------------------------------------
# The tables as they were once built: each of the q^2 products by polynomial
# multiplication and reduction, neg and inv by scanning the tables.


def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(tuple(out))


def _poly_mod(f, g, p):
    """f mod g over F_p; g monic."""
    f = [c % p for c in f]
    dg = len(g) - 1
    while True:
        f = list(_poly_trim(tuple(f)))
        if not f or len(f) - 1 < dg:
            break
        lead = f[-1]
        shift = len(f) - 1 - dg
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - lead * c) % p
    return _poly_trim(tuple(f))


class RefField:
    def __init__(self, q, modulus=None):
        self.q, (self.p, self.k) = q, prime_power(q)
        if self.k > 1 and modulus is None:
            modulus = default_modulus(self.p, self.k)
        self.modulus = modulus
        self._build_tables()

    def _digits(self, i):
        out = []
        for _ in range(self.k):
            out.append(i % self.p)
            i //= self.p
        return tuple(out)

    def _index(self, digits):
        i = 0
        for d in reversed(_poly_trim(tuple(digits)) + (0,) * self.k):
            i = i * self.p + d
        return i

    def _build_tables(self):
        q, p = self.q, self.p
        if self.k == 1:
            self.add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            polys = [self._digits(i) for i in range(q)]
            self.add = [[self._index(tuple((x + y) % p for x, y in zip(polys[a], polys[b])))
                         for b in range(q)] for a in range(q)]
            self.mul = [[self._index(_poly_mod(_poly_mul(polys[a], polys[b], p),
                                               self.modulus, p) + (0,) * self.k)
                         for b in range(q)] for a in range(q)]
        self.neg = [0] * q
        for a in range(q):
            for b in range(q):
                if self.add[a][b] == 0:
                    self.neg[a] = b
                    break
        self.inv = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul[a][b] == 1:
                    self.inv[a] = b
                    break

    def element_name(self, i):
        if self.k == 1:
            return str(i)
        terms = []
        for e in range(self.k - 1, -1, -1):
            c = self._digits(i)[e]
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                x = "x" if e == 1 else f"x^{e}"
                terms.append(x if c == 1 else f"{c}{x}")
        return "+".join(terms) if terms else "0"

    def names(self):
        return [self.element_name(i) for i in range(self.q)]


def _order(mul, a):
    n, x = 1, a
    while x != 1:
        x, n = mul[x][a], n + 1
    return n


def _assert_matches(gf, ref, label):
    for table in ("add", "mul", "neg", "inv"):
        assert getattr(gf, table) == getattr(ref, table), (label, table)
    assert gf.names() == ref.names(), label
    # exp/log of the least index of order q - 1
    q = gf.q
    g = gf.exp[1 % (q - 1)]
    assert _order(ref.mul, g) == q - 1, label
    assert all(_order(ref.mul, a) < q - 1 for a in range(1, g)), label
    assert len(gf.exp) == q - 1 and gf.log[0] is None, label
    for i, a in enumerate(gf.exp):
        assert gf.log[a] == i, label
        assert a == (1 if i == 0 else ref.mul[gf.exp[i - 1]][g]), label


def _irreducible_moduli(p, k):
    for lower in itertools.product(range(p), repeat=k):
        f = lower + (1,)
        if is_irreducible(f, p):
            yield f


def test_tables_match_the_polynomial_reference_up_to_256():
    qs = [q for q in range(2, 257) if prime_power(q)]
    assert len(qs) == 70
    for q in qs:
        _assert_matches(GaloisField(q), RefField(q), q)


def test_tables_match_the_polynomial_reference_for_every_modulus_up_to_64():
    moduli = [(q, f) for q in range(2, 65) if prime_power(q) and prime_power(q)[1] > 1
              for f in _irreducible_moduli(*prime_power(q))]
    assert len(moduli) == 63
    non_primitive = 0
    for q, f in moduli:
        gf, ref = GaloisField(q, f), RefField(q, f)
        assert gf.modulus == f
        _assert_matches(gf, ref, (q, f))
        non_primitive += _order(ref.mul, gf.p) < q - 1  # the order of x
    assert non_primitive > 0  # x^4+x^3+x^2+x+1 over F_2, for one


def test_galois_field_256_fast():
    def timed():
        t0 = time.perf_counter()
        GaloisField(256)
        return time.perf_counter() - t0

    dt = min(timed() for _ in range(3))
    assert dt < 0.1, f"GaloisField(256) took {dt:.3f}s, budget 0.1s"


def test_a_supplied_modulus_is_still_checked():
    # x^2 + 1 = (x + 1)^2 over F_2; coefficients are read mod p first
    for f in ((1, 0, 1), (3, 2, 1)):
        with pytest.raises(ValueError) as info:
            GaloisField(4, f)
        assert str(info.value) == "modulus (1, 0, 1) is reducible over F_2"
    with pytest.raises(ValueError, match="modulus must be monic of degree 2"):
        GaloisField(4, (1, 1, 0, 1))
    # the default modulus is irreducible by construction
    for q in (4, 8, 9, 16, 25, 27, 256):
        gf = GaloisField(q)
        assert gf.modulus == default_modulus(gf.p, gf.k)
        assert is_irreducible(gf.modulus, gf.p)


def test_a_prime_field_takes_no_modulus():
    with pytest.raises(ValueError, match="modulus only applies to proper prime powers"):
        GaloisField(7, (1, 1))
    assert GaloisField(7).modulus is None


def test_constants_are_not_irreducible():
    assert not is_irreducible((1,), 2)
    assert not is_irreducible((), 3)


def test_prime_power_matches_a_sieve():
    powers, composite = {}, set()
    for p in range(2, 3000):
        if p not in composite:
            composite.update(range(p * p, 3000, p))
            k, pk = 1, p
            while pk < 3000:
                powers[pk], k, pk = (p, k), k + 1, pk * p
    assert [prime_power(q) for q in range(-3, 3000)] == [powers.get(q) for q in range(-3, 3000)]
    primes = [q >= 2 and q not in composite for q in range(-3, 3000)]
    assert [is_prime(q) for q in range(-3, 3000)] == primes
    t0 = time.perf_counter()
    assert prime_power(1000000000039) == (1000000000039, 1)  # a 13-digit prime
    assert time.perf_counter() - t0 < 0.5


# The least strong pseudoprimes to the first k prime bases, k = 1..12 (one
# number is least for k = 7, 8 and one for k = 9..11): Miller-Rabin on fewer
# than 13 bases calls one of them prime.  PSI_13, the least to all 13, is the
# bound.
PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                341550071728321, 3825123056546413051, 318665857834031151167461]
PSI_13 = 3317044064679887385961981
MERSENNE = [2 ** 31 - 1, 2 ** 61 - 1]  # primes


def test_primality_is_exact_below_its_bound():
    t0 = time.perf_counter()
    assert not any(is_prime(n) for n in PSEUDOPRIMES)
    assert not any(prime_power(n) for n in PSEUDOPRIMES)
    assert [is_prime(n) for n in MERSENNE] == [True, True]
    assert is_prime(100000000000000003)
    assert not is_prime(MERSENNE[0] * 1000000000039)
    assert not is_prime(PSI_13 - 1)  # even: the largest n the test decides
    assert galois._EXACT_BELOW == PSI_13
    for n in (PSI_13, PSI_13 + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"{n} is not below {PSI_13}, "):
            is_prime(n)
    assert time.perf_counter() - t0 < 0.5


def test_prime_power_takes_the_largest_exact_root():
    p, r = MERSENNE
    assert prime_power(p ** 2) == (p, 2)
    assert prime_power(r ** 3) == (r, 3)
    assert prime_power(3 ** 45) == (3, 45)
    assert prime_power(2 ** 200) == (2, 200)  # above is_prime's bound, its root below
    for q in (p * 1000000000039, p ** 2 * 3, 6 ** 20, 10 ** 30, 2 ** 70 * 3):
        assert prime_power(q) is None, q
    assert prime_power(100000000000000003) == (100000000000000003, 1)
    for q in (PSI_13 + 2, PSI_13 ** 2):  # the root decides, at or above the bound
        with pytest.raises(ValueError, match=f"is not below {PSI_13}, "):
            prime_power(q)
    assert [galois._iroot(n, k) for n, k in ((1, 3), (7, 3), (8, 3), (9, 3), (10 ** 40, 5),
                                             (10 ** 40 - 1, 5), (PSI_13, 1))] == [
        1, 1, 2, 2, 10 ** 8, 10 ** 8 - 1, PSI_13]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_poly_mod_leaves_the_remainder(p, data):
    coeffs = st.integers(0, p - 1)
    g = (*data.draw(st.lists(coeffs, max_size=4)), 1)
    h = data.draw(st.lists(coeffs, max_size=6))
    r = data.draw(st.lists(coeffs, max_size=len(g) - 1))
    gh = list(_poly_mul(g, tuple(h), p))
    f = [(a + b) % p for a, b in itertools.zip_longest(gh, r, fillvalue=0)]
    assert galois._poly_mod(f, g, p) == _poly_trim(tuple(r))


def test_a_field_above_the_window_limit_is_refused_before_any_table(monkeypatch):
    built = []
    monkeypatch.setattr(GaloisField, "_build_tables", lambda self: built.append(self.q))
    assert GaloisField(443).p == 443  # 443^2 = 196,249 cells
    assert built == [443]

    def refuse(q):
        raise AssertionError("the size check comes first")

    monkeypatch.setattr(galois, "prime_power", refuse)
    with pytest.raises(WindowTooLarge, match=r"449 \* 449\^1"):
        GaloisField(449)  # 449^2 = 201,601 cells
    assert built == [443]
