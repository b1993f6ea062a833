"""Direct checks of poly.py's coefficient-array helpers against the plain-list
polynomial arithmetic of tests/oracles.py."""

import random

import numpy as np
import pytest

from groupalg.field import parse_field_spec
from groupalg.errors import SpecError
from groupalg.poly import FPoly, _cmul, _cyclotomic, _divmod, _gcd, _poly_mul, _trim

import oracles
from oracles import OracleField

SPECS = ("gf:2", "gf:5", "gf:2^2", "gf:3^2", "gf:2147483647")  # the last: the int64 edge


def _pairs(q: int, seed: int):
    """(a, b) coefficient lists, low to high: every degree pair up to 4, b of degree 0
    and equal degrees among them, plus zero and constants on either side."""
    rng = random.Random(seed)

    def draw(deg):
        return [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]

    pairs = [(draw(da), draw(db)) for da in range(5) for db in range(5) for _ in range(2)]
    return pairs + [([0], draw(3)), ([0], [1]), (draw(3), [0]), ([1], [1]),
                    ([q - 1], draw(2)), (draw(2), [q - 1])]


def _add(o: OracleField, a: list, b: list) -> list:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return oracles.poly_trim([o.add(x, y) for x, y in zip(a, b)])


def _monic(o: OracleField, b: list) -> list:
    c = o.inv(b[-1])
    return [o.mul(x, c) for x in b]


@pytest.mark.parametrize("spec", SPECS)
def test_product_matches_oracle(spec):
    F = parse_field_spec(spec)
    o = OracleField(F.q)
    for a, b in _pairs(F.q, 1):
        got = _trim(_poly_mul(F, np.array(a), np.array(b))).tolist()
        assert got == oracles.poly_mul(o, oracles.poly_trim(a), oracles.poly_trim(b)), (a, b)


@pytest.mark.parametrize("spec", SPECS)
def test_division_with_remainder_matches_oracle(spec):
    F = parse_field_spec(spec)
    o = OracleField(F.q)
    for a, b in _pairs(F.q, 2):
        b = oracles.poly_trim(b)
        if not b:
            continue
        g = _monic(o, b)
        q, r = _divmod(F, _trim(np.array(a)), np.array(g))
        r = _trim(r).tolist()
        assert r == oracles.poly_mod(o, a, g), (a, g)
        assert len(r) < len(g)
        assert _add(o, oracles.poly_mul(o, _trim(q).tolist(), g), r) == oracles.poly_trim(a)


@pytest.mark.parametrize("spec", SPECS)
def test_gcd_and_cofactor_match_oracle(spec):
    F = parse_field_spec(spec)
    o = OracleField(F.q)
    for a, b in _pairs(F.q, 3):
        b = oracles.poly_trim(b)
        if not b:
            continue
        g, s = _gcd(F, np.array(a), np.array(b), cofactor=True)
        g, s = g.tolist(), _trim(s).tolist()
        assert g == oracles.poly_gcd(o, a, b), (a, b)
        assert len(s) < max(len(b), 2)  # deg s < deg b, or s constant for b constant
        assert oracles.poly_mod(o, oracles.poly_mul(o, s, oracles.poly_trim(a)), b) \
            == oracles.poly_mod(o, g, b), (a, b)
        assert _gcd(F, np.array(a), np.array(b))[0].tolist() == g


@pytest.mark.parametrize("spec", SPECS)
def test_cyclic_product_matches_oracle(spec):
    F = parse_field_spec(spec)
    o = OracleField(F.q)
    rng = random.Random(4)
    for n in (1, 2, 3, 7):
        ring = [o.neg(1)] + [0] * (n - 1) + [1]  # y^n - 1
        for _ in range(6):
            a, b = ([rng.randrange(F.q) for _ in range(n)] for _ in range(2))
            got = oracles.poly_trim(_cmul(F, np.array(a), np.array(b)).tolist())
            want = oracles.poly_mod(o, oracles.poly_mul(o, oracles.poly_trim(a),
                                                        oracles.poly_trim(b)), ring)
            assert got == want, (n, a, b)


def test_fpoly_refuses_non_integral_coefficients():
    f = parse_field_spec("gf:5")
    with pytest.raises(SpecError, match="integers"):
        FPoly(f, [1.7, 2.2, 0.9])  # was (1, 2)
    with pytest.raises(SpecError, match="integers"):
        FPoly.const(f, 2.9)  # was (2,)
    with pytest.raises(SpecError, match="integers"):
        FPoly(f, [1, 2]).scale(1.9)  # scaled by 1
    with pytest.raises(SpecError, match="integers"):
        FPoly.zero(f).scale(1.9)
    with pytest.raises(SpecError):
        FPoly(f, [[1, 2]])
    assert FPoly(f, [1.0, 2, np.int64(3), 0, 0]).coeffs == (1, 2, 3)
    assert FPoly(f, np.array([0, 0])).coeffs == () and FPoly(f, ()).is_zero
    assert FPoly.const(f, 2).coeffs == (2,) and FPoly.const(f, 0).is_zero
    assert FPoly(f, [1, 2]).scale(3).coeffs == (3, 1)


def test_cyclotomic_polynomials_multiply_to_y_n_minus_1():
    # prod over d | n of Phi_d = y^n - 1 fixes every monic Phi_d, by induction on n;
    # Python-int products, so no partial product can overflow
    for n in range(1, 211):
        prod = np.ones(1, dtype=object)
        for d in (d for d in range(1, n + 1) if n % d == 0):
            phi = _cyclotomic(d)
            assert phi[-1] == 1 and len(phi) - 1 == sum(
                1 for j in range(1, d + 1) if np.gcd(j, d) == 1), d
            prod = np.convolve(prod, np.array(phi, dtype=object))
        assert prod.tolist() == [-1] + [0] * (n - 1) + [1], n
    # the first coefficient of absolute value 2 (Migotti 1883)
    phi = _cyclotomic(105)
    assert [i for i, c in enumerate(phi) if abs(c) > 1] == [7, 41] and phi[7] == -2


def test_cyclotomic_is_exact_with_the_most_primes_below_order_cap():
    # 2310 = 2 3 5 7 11 and 9240 = 4 2310 have five primes, the most below ORDER_CAP.
    # With |coefficients| < 2^62, Phi_d(2^64) determines them; compare it with
    # prod over e | d of (B^e - 1)^mu(d/e) in Python ints
    B, off = 1 << 64, 1 << 62
    for d, phi_d in ((105, 48), (2310, 480), (9240, 1920)):
        phi = np.array(_cyclotomic(d), dtype=np.int64)
        assert phi.size == phi_d + 1 and np.abs(phi).max() < off
        value = int.from_bytes((phi + off).astype("<u8").tobytes(), "little") \
            - off * (B ** phi.size - 1) // (B - 1)
        num = den = 1
        for e in range(1, d + 1):
            if d % e == 0 and all((d // e) % (l * l) for l in (2, 3, 5, 7, 11)):
                if (-1) ** sum((d // e) % l == 0 for l in (2, 3, 5, 7, 11)) == 1:
                    num *= B ** e - 1
                else:
                    den *= B ** e - 1
        assert num == value * den, d
