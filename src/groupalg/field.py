"""Exact arithmetic in finite fields GF(p^m) with integer-encoded elements.

An element sum_i c_i x^i of GF(p^m), written in the polynomial basis modulo
a fixed monic irreducible modulus, is encoded as the integer sum_i c_i p^i
in [0, p^m).  Encodings 0 and 1 are the additive and multiplicative
identities, and the natural integer order on encodings is the deterministic
element order used everywhere (interpolation nodes, root searches,
reproducible random draws).

All arithmetic methods accept plain ints or numpy int64 arrays, broadcast
like numpy ufuncs, and are exact.  There is no floating point anywhere.

Prime fields are plain integers mod p up to int64 safety and keep no
per-element state.  Extension fields (m > 1) keep log, antilog and inverse
tables, so their order is capped at 2**20.  Building one is linear algebra
over make_field(p) on poly.py's multiplication matrices mod the modulus:
Rabin's irreducibility test picks the default modulus (the lex-first monic
irreducible) and checks a given one, powers of the candidate's matrix find the
primitive element, and the antilog table is the orbit of 1 under that matrix.
Odd-characteristic extension fields never expand an element into digits: add
and sub are Zech-log gathers (K. Huber, IEEE Trans. IT 36, 1990), and sum and
dot add products as m packed base-p digit lanes of one int64 (J.-G. Dumas,
L. Fousse and B. Salvy, J. Symb. Comp. 46, 2011), each product one gather.
This module holds no polynomial arithmetic of its own.  Field.extension picks
every extension that evaluation nodes live in (Mulmuley's routes and
charpoly_xm) and refuses one past the cap with DomainError, the CLI's exit 3,
before any table is built.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .errors import DomainError, SpecError
from .poly import FPoly, _gcd, _orbit, _prime_factors, _vecpow, _xmat

_EXT_ORDER_LIMIT = 1 << 20   # extension fields need full log/exp tables
_XOR_TABLE_MIN = 1 << 13     # GF(2^m) antilogs by XOR from here: faster than digits
_MAX_PRIME = (1 << 31) - 1    # keeps a*b exact in int64
_DOT_BLOCK = 1 << 14          # cap on the products a block of a dot's inner axis forms
# cap on N * n^3, the products of a stack of N node matrices of size n that
# linalg.xm_charpoly_stacks multiplies (at least one node a stack).  The nine
# Mulmuley-exact inputs of the perfbench sweep (seed 1, 2-core VM) took 136 ms at
# 2^16, 59 ms at 2^18 and 49 ms at 2^20; the tracemalloc peak of S_4 over gf:2 was
# 0.4, 0.7 and 2.7 MiB, as Field.dot forms no stack-sized product array.
_NODE_STACK = 1 << 18


def _ret(x):
    """Collapse 0-d results (0-d arrays and numpy scalars) to plain ints so
    scalars round-trip."""
    if x.ndim == 0:
        return int(x)
    return x


def _integers(values, what: str) -> list:
    """values as Python ints with no array round trip; SpecError on any value
    that is not an integer (a cast alone truncates 1.9 to 1)."""
    values = list(values)
    try:
        out = [int(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != values:
        raise SpecError(f"{what} must be integers")
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _is_irreducible(f, p: int) -> bool:
    """Rabin's test (1980) for a monic f of degree m over F_p: irreducible iff
    x^(p^m) = x mod f and gcd(x^(p^(m/l)) - x, f) = 1 for each prime l | m.  The
    powers x^(p^k) are the orbit of x under the Frobenius matrix of a -> a^p."""
    m = len(f) - 1
    if m == 1:
        return True
    F, f = make_field(p), np.array(f, dtype=np.int64)
    one = np.zeros(m, dtype=np.int64)
    one[0] = 1
    xs = _orbit(F, one, _xmat(F, f), (m - 1) * p + 1)  # row k: x^k mod f
    x, frob = xs[1], xs[::p]  # frob row i: x^(ip) mod f, the image of x^i
    xpow = _orbit(F, x, frob, m + 1)  # row k: x^(p^k) mod f
    if (xpow[m] != x).any():
        return False
    return all(_gcd(F, F.sub(xpow[m // l], x), f)[0].size == 1 for l in _prime_factors(m))


@functools.lru_cache(maxsize=None)
def _default_modulus(p: int, m: int) -> tuple:
    """Smallest monic irreducible of degree m over F_p.

    "Smallest" compares the low-to-high coefficient list (c_0, ..., c_{m-1})
    lexicographically, constant term first.
    """
    if m == 1:
        return (0, 1)
    # product varies the last position fastest: lex order, c_0 != 0 only; a candidate
    # with f(1) = sum c_i = 0 has the factor x - 1 and is skipped before Rabin's test
    for head in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        coeffs = head + (1,)
        if (sum(head) + 1) % p and _is_irreducible(coeffs, p):
            return coeffs
    raise SpecError(f"no irreducible polynomial of degree {m} over F_{p}")  # unreachable


class Field:
    """GF(p^m) with a fixed monic irreducible modulus.

    Elements are integer encodings in [0, q).  Use make_field to construct
    (it validates and caches); arithmetic methods broadcast over numpy
    arrays and return plain ints for scalar inputs.
    """

    def __init__(self, p: int, m: int, modulus=None):
        if not isinstance(p, int) or not _is_prime(p):
            raise SpecError(f"field characteristic must be prime, got {p!r}")
        if p > _MAX_PRIME:
            raise SpecError(f"prime {p} exceeds the supported limit {_MAX_PRIME}")
        if not isinstance(m, int) or m < 1:
            raise SpecError(f"extension degree must be a positive integer, got {m!r}")
        if m > 1 and p ** m > _EXT_ORDER_LIMIT:
            raise SpecError(
                f"extension field order {p}^{m} exceeds the table limit 2^20")
        if modulus is None:
            modulus = _default_modulus(p, m)
        else:
            modulus = tuple(_integers(modulus, "modulus coefficients"))
            if len(modulus) != m + 1:
                raise SpecError(
                    f"modulus must have degree {m} ({m + 1} coefficients), "
                    f"got {len(modulus)}")
            if modulus[-1] != 1:
                raise SpecError("modulus must be monic")
            if any(c < 0 or c >= p for c in modulus):
                raise SpecError(f"modulus coefficients must lie in [0, {p})")
            if not _is_irreducible(modulus, p):
                raise SpecError(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self._pow_vec = p ** np.arange(m, dtype=np.int64)
        # sums run in sum forms: residues (prime fields), encodings under XOR (GF(2^m)),
        # or m packed base-p digit lanes of _bits bits (other extension fields), so a
        # sum of _cap forms, each lane at most p - 1, stays below 2^_bits: exact in int64
        self._op = np.bitwise_xor if p == 2 and m > 1 else np.add
        self._bits = 63 // m if p > 2 and m > 1 else 63
        self._cap = ((1 << self._bits) - 1) // (p - 1)
        self._shifts = self._bits * np.arange(m, dtype=np.int64)
        if m > 1:
            self._build_ext_tables()
        if m > 1 and p > 2:
            self._build_zech_and_lanes()

    # -- construction helpers --

    def _build_ext_tables(self):
        p, m, q, f = self.p, self.m, self.q, self.modulus
        # primitive element: the smallest encoding gen with gen^((q-1)/l) != 1 for each
        # prime l | q-1, read off mat, the matrix of a -> a gen mod f (row i = x^i gen).
        # The constants, encodings below p, have orders dividing p - 1 and are skipped.
        F, one = make_field(p), np.zeros(m, dtype=np.int64)
        one[0] = 1
        xmat = _xmat(F, np.array(f, dtype=np.int64))
        factors = _prime_factors(q - 1)
        for enc in range(p, q):
            mat = _orbit(F, np.array(self.to_coeffs(enc)), xmat, m)
            if all((_vecpow(F, one, mat, (q - 1) // l) != one).any() for l in factors):
                break
        else:
            raise SpecError("no primitive element found")  # unreachable
        # antilog table by doubling: the powers of gen in digit form are the orbit of 1
        # under mat.  GF(2^m) from _XOR_TABLE_MIN on takes XOR doubling instead.
        if p == 2 and q >= _XOR_TABLE_MIN:
            exp = self._xor_antilog(mat @ self._pow_vec)
        else:
            exp = _orbit(F, one, mat, q - 1) @ self._pow_vec
        # log[0] = 2(q-1) and an antilog table of two periods then zeros make
        # mul one gather: a log sum of nonzero elements is below 2(q-1), and
        # one with a zero lands in [2(q-1), 4(q-1)], where the table holds 0
        log = np.full(q, 2 * (q - 1), dtype=np.int64)
        log[exp] = np.arange(q - 1)
        inv = np.zeros(q, dtype=np.int64)
        inv[exp] = exp[(q - 1 - np.arange(q - 1)) % (q - 1)]
        self._exp = np.concatenate([exp, exp, np.zeros(2 * (q - 1) + 1, dtype=np.int64)])
        self._log, self._inv_table, self._sum_table = log, inv, self._exp

    def _build_zech_and_lanes(self):
        """Odd-p tables, with no digit array.  a + b = exp[log a + Z[log b - log a]]:
        Z holds log(1 + g^d) for |d| < q-1 (the encoding of 1 + e is
        e - e mod p + (e mod p + 1) mod p, and 1 + e = 0 gives the sentinel
        2(q-1)), 0 for d >= q-1 (b = 0) and d itself for d <= -(q-1) (a = 0);
        negative d index from the end, as numpy does.  _sum_table holds g^k as
        m lanes of _bits bits, two periods then one zero, which take(mode="clip")
        returns for every log sum with a zero factor."""
        p, m, q, S = self.p, self.m, self.q, 2 * (self.q - 1)
        exp = self._exp[:q - 1]  # in place where it can: each temporary is q words
        low = exp % p
        ones = exp - low
        low += 1
        low %= p
        ones += low
        ones = self._log[ones]
        self._zech = np.zeros(2 * S + 1, dtype=np.int32)
        self._zech[:q - 1], self._zech[-(q - 2):] = ones, ones[1:]
        self._zech[-S:-(q - 1)] = np.arange(-S, -(q - 1))
        del ones
        lanes, rest = np.zeros(S + 1, dtype=np.int64), exp.copy()
        for i in range(m):
            np.remainder(rest, p, out=low)
            low <<= self._bits * i
            lanes[:q - 1] |= low
            rest //= p
        lanes[q - 1:S] = lanes[:q - 1]
        self._sum_table = lanes

    def _xor_antilog(self, img):
        """The doubling above for large GF(2^m), with no digit form: a * gen^k is
        GF(2)-linear in a, the XOR of the images img[i] of x^i over a's set bits."""
        def times(a, img):
            out = np.zeros_like(a)
            for i, v in enumerate(img):
                out ^= ((a >> i) & 1) * v
            return out
        exp = np.ones(1, dtype=np.int64)
        while exp.size < self.q - 1:
            exp = np.concatenate([exp, times(exp[:self.q - 1 - exp.size], img)])
            img = times(img, img)
        return exp

    # -- arithmetic (broadcasts over int64 arrays, exact) --

    def add(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.m == 1:
            return _ret((a + b) % self.p)
        if self.p == 2:
            return _ret(a ^ b)
        la = self._log[a]  # Zech: a + b = a (1 + b/a), see _build_zech_and_lanes
        return _ret(self._exp[la + self._zech[self._log[b] - la]])

    def neg(self, a):
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return _ret(a.copy())
        if self.m == 1:
            return _ret((self.p - a) % self.p)
        # -1 = gen^((q-1)/2); log[0]'s sentinel shifts into the zero region
        return _ret(self._exp[self._log[a] + (self.q - 1) // 2])

    def sub(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.m == 1:
            return _ret((a - b) % self.p)
        if self.p == 2:
            return _ret(a ^ b)
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.m == 1:
            return _ret((a * b) % self.p)
        return _ret(self._exp[self._log[a] + self._log[b]])

    def inv(self, a):
        if type(a) is int:  # scalar fast path: Euclid or a table read, no array round trip
            if not a:
                raise ZeroDivisionError("inversion of zero field element")
            return pow(a, -1, self.p) if self.m == 1 else int(self._inv_table[a])
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.p - 2) if self.m == 1 else _ret(self._inv_table[a])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        # square-and-multiply over mul: residues below 2^31 multiply to less than 2^62,
        # exact in int64.  e is not reduced mod q - 1: 0^e = 0 for e > 0 and 0^0 = 1.
        # e is a Python or numpy integer; a bool, float or str is malformed.
        if isinstance(e, bool):
            raise SpecError(f"exponent must be an int, got {e!r}")
        try:
            e = operator.index(e)
        except TypeError:
            raise SpecError(f"exponent must be an int, got {e!r}") from None
        a = np.asarray(a, dtype=np.int64)
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = np.ones_like(a)
        while e:
            if e & 1:
                out = self.mul(out, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return _ret(np.asarray(out))

    def sum(self, a, axis=None):
        """Field sum along an axis (axis=None sums everything): an integer sum
        mod p over prime fields, an XOR reduction over GF(2^m), and a sum of
        packed digit lanes (two gathers an element) over other extension fields."""
        a = np.asarray(a, dtype=np.int64)
        if axis is None:
            a, axis = a.reshape(-1), 0
        if self.p > 2 and self.m > 1:
            a = self._sum_table.take(self._log[a], mode="clip")
        return _ret(self._settle(self._reduce(a, axis)))

    def dot(self, a, b):
        """Exact product a @ b with numpy's `@` shapes, leading stack axes included.

        This is the one place that forms sums of products over the field.
        Prime fields use one int64 matmul while inner * (p-1)^2 < 2^63.
        Otherwise the inner axis is taken a block at a time, each block at most
        _DOT_BLOCK products (or one inner index's worth), and the block sums
        accumulate into the output in sum form.  Over an extension field each
        product is one gather from its log sum.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        inner = a.shape[-1]
        if b.shape[-2 if b.ndim > 1 else 0] != inner:
            raise ValueError(f"dot shape mismatch: {a.shape} @ {b.shape}")
        if self.m == 1 and inner * (self.p - 1) ** 2 < 1 << 63:
            # inner products of residues < p sum to less than 2^63: exact in int64
            return _ret((a @ b) % self.p)
        va, vb = a.ndim == 1, b.ndim == 1
        a = (a[None] if va else a)[..., None]  # (..., rows, inner, 1)
        b = (b[:, None] if vb else b)[..., None, :, :]  # (..., 1, inner, cols)
        if self.m > 1:
            a, b = self._log[a], self._log[b]
        shape = np.broadcast(a, b).shape  # (..., rows, inner, cols)
        # each block makes at most _DOT_BLOCK products, and its sum of step <= _cap - 1
        # forms joins an output that holds at most one more term
        step = max(1, min(_DOT_BLOCK * inner // max(math.prod(shape), 1), self._cap - 1))
        held = 0
        for k in range(0, max(inner, 1), step):  # one empty block when inner = 0
            x, y = a[..., k:k + step, :], b[..., k:k + step, :]
            prods = x * y % self.p if self.m == 1 else self._sum_table.take(x + y, mode="clip")
            prods = prods[..., 0, :] if prods.shape[-2] == 1 else self._reduce(prods, -2)
            if held + step > self._cap:
                out, held = self._settle(out, final=False), 1
            out = prods if k == 0 else self._op(out, prods, out=out)
            held += step
        shape = shape[:-3] + shape[-3:-2] * (not va) + shape[-1:] * (not vb)
        return _ret(self._settle(out).reshape(shape))

    def _reduce(self, v, axis):
        """Sum forms summed along axis, renormalized every _cap terms."""
        while v.shape[axis] > self._cap:
            starts = np.arange(0, v.shape[axis], self._cap)
            v = self._settle(self._op.reduceat(v, starts, axis=axis), final=False)
        return self._op.reduce(v, axis=axis)

    def _settle(self, v, final=True):
        """Sum forms as elements (final) or as forms of one term: residues mod p,
        GF(2^m) encodings as they are, and each digit lane mod p, placed at p^i
        (final) or back in its lane."""
        if self.m == 1:
            return v % self.p
        if self.p == 2:
            return v
        shifts = self._shifts.reshape((-1,) + (1,) * np.ndim(v))  # lanes first: long loops
        lanes = v >> shifts & (1 << self._bits) - 1
        # lane mod p: numpy's unsigned // by a scalar runs about 3x faster than int64 %
        lanes -= (lanes.view(np.uint64) // self.p).view(np.int64) * self.p
        lanes *= self._pow_vec.reshape(shifts.shape) if final else 1 << shifts
        return lanes.sum(axis=0)

    def extension(self, min_order: int) -> "Field":
        """The smallest GF(q^t), t >= 1, with at least min_order elements.

        Returns self when q >= min_order.  Raises DomainError, before any
        table is built, when that extension is past the 2^20 table limit.
        """
        t = 1
        while self.q ** t < min_order:
            t += 1
        if t == 1:
            return self
        if self.q ** t > _EXT_ORDER_LIMIT:
            raise DomainError(
                f"the nodes need a field with at least {min_order} elements; the smallest "
                f"extension of {self!r} with that many has {self.p}^{self.m * t} elements, "
                f"beyond the table limit 2^20")
        return make_field(self.p, self.m * t)

    # -- encoding helpers --

    def from_coeffs(self, coeffs) -> int:
        coeffs = _integers(coeffs, "coefficients")
        if len(coeffs) > self.m:
            raise SpecError(f"too many coefficients for degree-{self.m} field")
        if any(c < 0 or c >= self.p for c in coeffs):
            raise SpecError(f"coefficients must be integers in [0, {self.p})")
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

    def to_coeffs(self, a: int) -> tuple:
        a = int(a)
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def format_value(self, a) -> str:
        if self.m == 1:
            return str(int(a))
        return ",".join(str(c) for c in self.to_coeffs(a))

    def parse_value(self, text: str) -> int:
        parts = text.split(",")
        try:
            coeffs = [int(t) for t in parts]
        except ValueError:
            raise SpecError(f"bad field element {text!r}") from None
        return self.from_coeffs(coeffs)

    def check_range(self, a) -> None:
        a = np.asarray(a)
        if a.size and (a.min() < 0 or a.max() >= self.q):
            raise SpecError(f"element encoding out of range [0, {self.q})")

    def encodings(self, a) -> np.ndarray:
        """A fresh int64 array of the element encodings in a.  Raises SpecError on
        any value that is not an integer in [0, q): a float or object value must
        equal its int64 cast (a cast alone truncates 1.9 to 1), integer and bool
        input is only range-checked."""
        a = np.asarray(a)
        kind = a.dtype.kind
        try:
            if kind not in "iubfO":
                raise TypeError
            with np.errstate(invalid="ignore"):
                out = a.astype(np.int64)
            if kind in "fO" and not (out == a).all():
                raise TypeError
        except (TypeError, ValueError, OverflowError):
            raise SpecError("element encodings must be integers") from None
        self.check_range(out)
        return out

    # -- identity / ordering --

    @property
    def order(self) -> int:
        return self.q

    def elements(self, count=None):
        """First `count` elements (all, if omitted) in deterministic order."""
        stop = self.q if count is None else min(count, self.q)
        return np.arange(stop, dtype=np.int64)

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


@functools.lru_cache(maxsize=None)
def _field_cached(p, m, modulus):
    return Field(p, m, modulus)


def make_field(p: int, m: int = 1, modulus=None) -> Field:
    """Construct (and cache) GF(p^m).

    Args:
        p: prime characteristic.
        m: extension degree, >= 1.
        modulus: optional monic irreducible coefficient list, low-to-high,
            of length m+1.  Omitted: the smallest monic irreducible in
            lexicographic coefficient order is chosen deterministically.

    Returns:
        A Field instance; repeated calls with equal arguments share it.
    """
    if not isinstance(p, int) or not isinstance(m, int):
        raise SpecError("field parameters must be integers")
    return _field_cached(p, m, None if modulus is None else tuple(modulus))


class Embedding:
    """Field homomorphism GF(p^m) -> GF(p^(m*t)).

    A prime-field source maps by identity: its encodings are the constants of
    every extension (root is 0, the root of its modulus x).  Any other source
    maps by a lookup table, sending its generator to the smallest root (in the
    deterministic element order) of its modulus in the destination.
    """

    def __init__(self, src: Field, dst: Field):
        if src.p != dst.p or dst.m % src.m != 0:
            raise SpecError(
                f"{dst!r} is not an extension of {src!r}")
        self.src, self.dst, self.root, self._table = src, dst, 0, None
        if src.m == 1:
            return
        roots = np.nonzero(FPoly(dst, src.modulus).eval(dst.elements()) == 0)[0]
        if roots.size == 0:
            raise SpecError("modulus has no root in the destination field")
        self.root = int(roots[0])
        rest, table, rpow = np.arange(src.q, dtype=np.int64), 0, 1
        for _ in range(src.m):  # digit i of a maps to digit i times root^i
            table = dst.add(table, dst.mul(rest % src.p, rpow))
            rest, rpow = rest // src.p, dst.mul(rpow, self.root)
        self._table = table

    def __call__(self, a):
        a = np.asarray(a, dtype=np.int64)
        return _ret(a.copy() if self._table is None else self._table[a])


@functools.lru_cache(maxsize=None)
def embedding(src: Field, dst: Field) -> Embedding:
    return Embedding(src, dst)


def embed(src: Field, dst: Field, a):
    """Map an element (or array) of src into dst through the cached embedding."""
    return embedding(src, dst)(a)


def parse_field_spec(spec: str) -> Field:
    """Parse `gf:p`, `gf:p^m`, or `gf:p^m:c0,c1,...,cm` into a Field.

    Args:
        spec: field spec string; modulus coefficients are low-to-high.

    Returns:
        The corresponding (cached) Field.
    """
    parts = spec.split(":")
    if len(parts) < 2 or parts[0] != "gf":
        raise SpecError(f"bad field spec {spec!r} (expected gf:p or gf:p^m)")
    size = parts[1]
    try:
        if "^" in size:
            p_text, m_text = size.split("^", 1)
            p, m = int(p_text), int(m_text)
        else:
            p, m = int(size), 1
    except ValueError:
        raise SpecError(f"bad field size {size!r} in spec {spec!r}") from None
    modulus = None
    if len(parts) == 3:
        try:
            modulus = [int(t) for t in parts[2].split(",")]
        except ValueError:
            raise SpecError(f"bad modulus {parts[2]!r} in spec {spec!r}") from None
    elif len(parts) > 3:
        raise SpecError(f"bad field spec {spec!r} (too many ':' sections)")
    return make_field(p, m, modulus)


def format_field_spec(field: Field) -> str:
    if field.m == 1:
        return f"gf:{field.p}"
    mod = ",".join(str(c) for c in field.modulus)
    return f"gf:{field.p}^{field.m}:{mod}"
