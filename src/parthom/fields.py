"""Small finite fields GF(p^d) as lookup tables, for q <= 32.

An element is an integer 0..q-1 encoding its coefficient vector base p with
c_0 as the least significant digit; the vector (c_0, ..., c_{d-1}) stands for
the polynomial sum c_i x^i in F_p[x] reduced mod the committed modulus.

Moduli are the minimal irreducible monic polynomials under that same integer
encoding of their lower coefficients, found by find_min_modulus and committed
below so the tables never depend on search order; the test suite re-runs the
search and compares.

Building GF(q) takes O(q) polynomial products, not q^2.  The powers of each
candidate element, by multiply-and-reduce, give the smallest primitive
element alpha and its powers alpha^0, ..., alpha^(q-2) (the antilog list);
the product and inverse tables are then read off the logarithms, since
alpha^i * alpha^j = alpha^(i+j mod q-1).  The addition table is digit-wise
addition mod p, built a digit at a time.
"""

from __future__ import annotations

# q -> full ascending coefficient list of the monic modulus, produced by
# find_min_modulus(p, d) for every non-prime prime power up to 32
COMMITTED_MODULI = {
    4: (1, 1, 1),              # x^2 + x + 1
    8: (1, 1, 0, 1),           # x^3 + x + 1
    9: (1, 0, 1),              # x^2 + 1
    16: (1, 1, 0, 0, 1),       # x^4 + x + 1
    25: (2, 0, 1),             # x^2 + 2
    27: (1, 2, 0, 1),          # x^3 + 2x + 1
    32: (1, 0, 1, 0, 0, 1),    # x^5 + x^2 + 1
}


def is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def factor_prime_power(q):
    """Return (p, d) with q = p^d, p prime, or raise ValueError."""
    if q < 2:
        raise ValueError("q must be >= 2, got %d" % q)
    for p in range(2, q + 1):
        if not is_prime(p):
            continue
        if q % p == 0:
            d = 0
            m = q
            while m % p == 0:
                m //= p
                d += 1
            if m != 1:
                raise ValueError("%d is not a prime power" % q)
            return p, d
    raise ValueError("%d is not a prime power" % q)


# -- polynomial helpers over F_p (ascending coefficient tuples) --------------

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        a.pop()
    return _poly_trim(a)


def _all_monic(p, degree):
    """All monic polynomials of exactly this degree, ascending encoding."""
    for enc in range(p ** degree):
        coeffs = []
        m = enc
        for _ in range(degree):
            coeffs.append(m % p)
            m //= p
        yield tuple(coeffs) + (1,)


def is_irreducible(poly, p):
    """Exhaustive trial division by every monic of degree 1..deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    if poly[0] == 0:      # root at 0
        return False
    for d in range(1, deg // 2 + 1):
        for divisor in _all_monic(p, d):
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def find_min_modulus(p, d):
    """Smallest irreducible monic of degree d under the integer encoding."""
    for poly in _all_monic(p, d):
        if is_irreducible(poly, p):
            return poly
    raise ArithmeticError("no irreducible polynomial found for p=%d d=%d" % (p, d))


class GF:
    """The field with q elements; all arithmetic through precomputed tables.

    `alpha` is the smallest primitive element, `log` maps each nonzero
    element to its exponent base alpha, and `add_table`, `mul_table` and
    `inv_table` hold every sum, product and inverse.  The constructor makes
    at most 2q polynomial products: the powers of the candidates 1, 2, ...
    up to their orders, skipping the powers of those that fell short, until
    one has order q-1.  The product and inverse tables come from `log` and
    that element's powers.
    """

    def __init__(self, q):
        p, d = factor_prime_power(q)
        if q > 32:
            raise ValueError("fields larger than 32 elements not supported")
        self.q = q
        self.p = p
        self.d = d
        if d == 1:
            self.modulus = (0, 1)          # F_p[x]/(x)
        else:
            self.modulus = COMMITTED_MODULI.get(q) or find_min_modulus(p, d)
            if not is_irreducible(self.modulus, p):
                raise ArithmeticError("modulus for q=%d is reducible" % q)
        self.zero = 0
        self.one = 1
        self._build_tables()

    # encoding helpers
    def coeffs(self, e):
        out = []
        for _ in range(self.d):
            out.append(e % self.p)
            e //= self.p
        return tuple(out)

    def encode(self, coeffs):
        e = 0
        for c in reversed(coeffs):
            e = e * self.p + (c % self.p)
        return e

    def _build_tables(self):
        q, p = self.q, self.p
        # digit-wise sums: extend the table of the low digits by one digit
        table, size = [[0]], 1
        for _ in range(self.d):
            table = [[x + size * ((hi_a + hi_b) % p)
                      for hi_b in range(p) for x in table[low_a]]
                     for hi_a in range(p) for low_a in range(size)]
            size *= p
        self.add_table = table
        self.alpha, powers = self._find_primitive()
        self.log = {x: k for k, x in enumerate(powers)}
        logs = [self.log[x] for x in range(1, q)]
        twice = powers + powers          # alpha^k for k < 2(q-1)
        self.mul_table = [[0] * q] + [[0] + [twice[i + j] for j in logs]
                                      for i in logs]
        self.inv_table = [None] + [powers[-i % (q - 1)] for i in logs]

    def _find_primitive(self):
        """The smallest element whose powers run through all q-1 nonzero
        ones, with its powers alpha^0, ..., alpha^(q-2).  Each candidate's
        powers are multiplied out until they return to 1, order(a) - 1
        polynomial products for a candidate a; a power of a candidate that
        fell short has a smaller order too, so it is skipped."""
        p, modulus = self.p, self.modulus
        short = set()
        for a in range(1, self.q):
            if a in short:
                continue
            base = _poly_trim(self.coeffs(a))
            powers = [1]
            x = base
            for _ in range(self.q - 1):
                if x == (1,):
                    break
                powers.append(self.encode(x))
                x = _poly_mod(_poly_mul(x, base, p), modulus, p)
            if x == (1,) and len(powers) == self.q - 1:
                return a, powers
            short.update(powers)
        raise ArithmeticError("no primitive element found for q=%d" % self.q)

    # arithmetic
    def add(self, a, b):
        return self.add_table[a][b]

    def neg(self, a):
        row = self.add_table[a]
        for b in range(self.q):
            if row[b] == 0:
                return b
        raise ArithmeticError("no additive inverse for %d" % a)

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return self.inv_table[a]

    def power(self, a, k):
        """a^k for k >= 0."""
        out = 1
        while k:
            if k & 1:
                out = self.mul_table[out][a]
            a = self.mul_table[a][a]
            k >>= 1
        return out

    def frobenius(self, a):
        """The field automorphism x -> x^p."""
        return self.power(a, self.p)
