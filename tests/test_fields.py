"""Finite field tables: axioms, committed moduli, primitive elements, and
every table against a plain multiply-and-reduce construction."""

import pytest

from parthom import fields
from parthom.fields import (
    COMMITTED_MODULI,
    GF,
    factor_prime_power,
    find_min_modulus,
    is_irreducible,
    is_prime,
)

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(25) == (5, 2)
    assert factor_prime_power(17) == (17, 1)
    for bad in [1, 6, 12, 24, 30]:
        with pytest.raises(ValueError):
            factor_prime_power(bad)


def test_committed_moduli_match_search():
    # re-derive every committed modulus by the documented search
    for q, committed in COMMITTED_MODULI.items():
        p, d = factor_prime_power(q)
        assert find_min_modulus(p, d) == committed, "q=%d" % q


def test_committed_moduli_are_irreducible():
    for q, committed in COMMITTED_MODULI.items():
        p, _ = factor_prime_power(q)
        assert is_irreducible(committed, p)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_axioms_exhaustive(q):
    f = GF(q)
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    # associativity and distributivity on all triples for small q, sampled above 9
    triples = ([(a, b, c) for a in els for b in els for c in els]
               if q <= 9 else
               [(a, b, c) for a in range(0, q, 3) for b in range(1, q, 3)
                for c in range(2, q, 3)])
    for a, b, c in triples:
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_primitive_element_generates(q):
    f = GF(q)
    powers = set()
    x = 1
    for _ in range(q - 1):
        powers.add(x)
        x = f.mul(x, f.alpha)
    assert powers == set(range(1, q))
    assert x == 1      # alpha^(q-1) = 1
    # alpha is the smallest generator
    for a in range(1, f.alpha):
        seen = set()
        y = 1
        for _ in range(q - 1):
            y = f.mul(y, a)
            seen.add(y)
        assert len(seen) < q - 1


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_frobenius_is_automorphism(q):
    f = GF(q)
    for a in range(q):
        for b in range(q):
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
    # order of the automorphism is d
    for a in range(q):
        x = a
        for _ in range(f.d):
            x = f.frobenius(x)
        assert x == a


def test_frobenius_trivial_on_prime_fields():
    f = GF(7)
    assert all(f.frobenius(a) == a for a in range(7))


def test_log_consistent():
    f = GF(9)
    for e in range(1, 9):
        assert f.power(f.alpha, f.log[e]) == e


def test_oversize_rejected():
    with pytest.raises(ValueError):
        GF(37 * 37)
    with pytest.raises(ValueError):
        GF(64)


def multiply_and_reduce_tables(q):
    """(add, mul, inv, alpha, log) of GF(q) built the plain way: every sum
    digit by digit, every product as a polynomial product reduced mod the
    field's monic modulus, inverses and the primitive element by search."""
    p, d = factor_prime_power(q)
    modulus = COMMITTED_MODULI.get(q, (0, 1))

    def digits(e):
        return [e // p ** i % p for i in range(d)]

    def number(coeffs):
        return sum(c * p ** i for i, c in enumerate(coeffs))

    def product(a, b):
        out = [0] * (2 * d)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                out[i + j] = (out[i + j] + x * y) % p
        for k in range(len(out) - 1, d - 1, -1):
            lead, out[k] = out[k], 0
            for i, c in enumerate(modulus[:-1]):
                out[k - d + i] = (out[k - d + i] - lead * c) % p
        return number(out[:d])

    add = [[number([(x + y) % p for x, y in zip(digits(a), digits(b))])
            for b in range(q)] for a in range(q)]
    mul = [[product(a, b) for b in range(q)] for a in range(q)]
    inv = [None] + [mul[a].index(1) for a in range(1, q)]

    def powers(a):
        out = [1]
        while mul[out[-1]][a] != 1:
            out.append(mul[out[-1]][a])
        return out

    alpha = next(a for a in range(1, q) if len(powers(a)) == q - 1)
    log = {x: k for k, x in enumerate(powers(alpha))}
    return add, mul, inv, alpha, log


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_tables_match_multiply_and_reduce(q):
    f = GF(q)
    add, mul, inv, alpha, log = multiply_and_reduce_tables(q)
    assert f.add_table == add
    assert f.mul_table == mul
    assert f.inv_table == inv
    assert f.alpha == alpha
    assert f.log == log
    assert list(f.log) == list(log)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_tables_take_at_most_2q_polynomial_products(q, monkeypatch):
    calls = []
    poly_mul = fields._poly_mul

    def counted(a, b, p):
        calls.append(q)
        return poly_mul(a, b, p)
    monkeypatch.setattr(fields, "_poly_mul", counted)
    GF(q)
    assert len(calls) <= 2 * q
