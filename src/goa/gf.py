"""Exact arithmetic in prime fields GF(s) and extension fields GF(s^k).

Elements of GF(s) are the integer labels 0..s-1.  A nonzero element of an
extension GF(s^k) is carried either in power format (the exponent i of
beta^i for a primitive element beta) or in vector format, the length-k
tuple (a_0, ..., a_{k-1}) with

    beta^i = a_0 + a_1*beta + ... + a_{k-1}*beta^{k-1},

so a_0 is the constant coefficient.  Conversion between the formats goes
through log/antilog tables built once per field by repeated multiplication
by beta with reduction modulo the primitive polynomial.

Prime-power level sets (s = p^j with j > 1) are handled by relabelling the
elements of GF(p^j) as 0..s-1 with 0 -> 0 and i -> beta^(i-1) for i >= 1;
`level_field` returns total add/mul tables on those labels so that callers
can stay label-based regardless of whether s is prime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    FormatMismatchError,
    NonPrimeError,
    NotPrimePowerError,
    NotPrimitiveError,
)

DESK_ORDER_LIMIT = 10**6
LEVEL_ORDER_LIMIT = 97  # largest level count s; level_field fills s x s tables in Python


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(s: int) -> tuple[int, int]:
    """Return (p, j) with s = p^j, or raise NotPrimePowerError."""
    if s < 2:
        raise NotPrimePowerError(f"{s} is not a prime power")
    p = 2
    while p * p <= s:
        if s % p == 0:
            j = 0
            n = s
            while n % p == 0:
                n //= p
                j += 1
            if n != 1:
                raise NotPrimePowerError(f"{s} is not a prime power")
            return p, j
        p += 1
    return s, 1


@dataclass(frozen=True)
class Poly:
    """Polynomial over GF(s) with coefficients stored ascending by degree.

    coeffs[i] is the coefficient of x^i.  The CLI/JSON wire format lists
    coefficients descending, e.g. "1,0,0,1,2" for x^4 + x + 2.
    """

    s: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if any(not 0 <= c < self.s for c in self.coeffs):
            raise ValueError(f"coefficients must lie in 0..{self.s - 1}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def monic(self) -> bool:
        return self.coeffs[-1] == 1

    @classmethod
    def parse(cls, text: str, s: int) -> "Poly":
        """Parse the descending-coefficient wire format "b_k,...,b_1,b_0"."""
        parts = [part.strip() for part in text.split(",")]
        try:
            desc = [int(part) for part in parts]
        except ValueError as exc:
            raise ValueError(f"bad polynomial {text!r}") from exc
        return cls(s, tuple(reversed(desc)))

    def format(self) -> str:
        """Descending-coefficient wire format."""
        return ",".join(str(c) for c in reversed(self.coeffs))

    def __str__(self) -> str:
        return self.format()


class GF:
    """Total arithmetic tables on the level labels {0, ..., s-1}.

    Methods accept plain ints or numpy arrays of labels; table lookups
    broadcast like any numpy indexing.
    """

    def __init__(self, s: int, add_table: np.ndarray, mul_table: np.ndarray):
        self.s = s
        self.add_t = add_table
        self.mul_t = mul_table
        self.neg_t = np.empty(s, dtype=np.int64)
        for a in range(s):
            (b,) = np.where(add_table[a] == 0)[0][:1]
            self.neg_t[a] = b
        self.inv_t = np.zeros(s, dtype=np.int64)
        for a in range(1, s):
            hits = np.where(mul_table[a] == 1)[0]
            if hits.size != 1:
                raise NonPrimeError(f"{s} levels do not form a field")
            self.inv_t[a] = hits[0]

    @classmethod
    def prime(cls, s: int) -> "GF":
        if not is_prime(s):
            raise NonPrimeError(f"{s} is not prime")
        if s > LEVEL_ORDER_LIMIT:
            raise ValueError(f"prime modulus {s} above desk-scale bound {LEVEL_ORDER_LIMIT}")
        idx = np.arange(s)
        return cls(s, (idx[:, None] + idx[None, :]) % s, (idx[:, None] * idx[None, :]) % s)

    @classmethod
    def from_ext(cls, ext: "ExtField") -> "GF":
        """Relabel GF(p^j) as 0..p^j-1 with 0 -> 0 and i -> beta^(i-1)."""
        s = ext.order
        vecs = [(0,) * ext.k] + [ext.antilog[i] for i in range(s - 1)]
        label = {v: i for i, v in enumerate(vecs)}
        add = np.zeros((s, s), dtype=np.int64)
        mul = np.zeros((s, s), dtype=np.int64)
        for a in range(s):
            for b in range(s):
                va, vb = vecs[a], vecs[b]
                add[a, b] = label[tuple((x + y) % ext.s for x, y in zip(va, vb))]
                if a and b:
                    mul[a, b] = ((a - 1) + (b - 1)) % (s - 1) + 1
        return cls(s, add, mul)

    def add(self, a, b):
        return self.add_t[a, b]

    def sub(self, a, b):
        return self.add_t[a, self.neg_t[b]]

    def neg(self, a):
        return self.neg_t[a]

    def mul(self, a, b):
        return self.mul_t[a, b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_t[a])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r, base = 1, a
        while e:
            if e & 1:
                r = int(self.mul_t[r, base])
            base = int(self.mul_t[base, base])
            e >>= 1
        return r


def prime_field(s: int) -> GF:
    """Arithmetic on {0,...,s-1} for prime s."""
    return GF.prime(s)


class ExtField:
    """GF(s^k) presented by a primitive polynomial h(x) over prime GF(s).

    Raises NotPrimitiveError when the powers of beta = x close up before
    all s^k - 1 nonzero vectors have been visited; the walk doubles as an
    irreducibility test, so no factoring is needed.
    """

    def __init__(self, s: int, k: int, h):
        if not is_prime(s):
            raise NonPrimeError(f"{s} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if s**k > DESK_ORDER_LIMIT:
            raise ValueError(f"field order {s**k} above desk-scale limit")
        if not isinstance(h, Poly):
            h = Poly(s, tuple(h))
        if h.s != s or h.degree != k or not h.monic:
            raise ValueError(f"need a monic degree-{k} polynomial over GF({s})")
        self.s = s
        self.k = k
        self.h = h
        self.order = s**k
        self.antilog: list[tuple[int, ...]] = []
        self.log: dict[tuple[int, ...], int] = {}
        self._build()

    def _build(self):
        s, k = self.s, self.k
        # x^k = -(b_0 + b_1 x + ... + b_{k-1} x^{k-1}) since h is monic
        red = tuple((-c) % s for c in self.h.coeffs[:k])
        one = (1,) + (0,) * (k - 1)
        v = one
        for i in range(self.order - 1):
            if v in self.log:
                raise NotPrimitiveError(
                    f"beta has order {i} < {self.order - 1} under h = {self.h}"
                )
            self.antilog.append(v)
            self.log[v] = i
            carry = v[k - 1]
            v = tuple(
                ((v[j - 1] if j else 0) + carry * red[j]) % s for j in range(k)
            )
        if v != one:
            raise NotPrimitiveError(f"beta is not a unit under h = {self.h}")

    @property
    def period(self) -> int:
        return self.order - 1

    def vector(self, i: int) -> tuple[int, ...]:
        """Vector format of beta^i."""
        return self.antilog[i % self.period]

    def exponent(self, vec) -> int:
        """Power format of a nonzero vector."""
        key = tuple(int(x) for x in vec)
        if key not in self.log:
            raise FormatMismatchError(f"{key} is not a nonzero element of GF({self.s}^{self.k})")
        return self.log[key]

    def mul_pow(self, i: int, j: int) -> int:
        return (i + j) % self.period

    def mul_vec(self, a, b) -> tuple[int, ...]:
        zero = (0,) * self.k
        a = tuple(int(x) for x in a)
        b = tuple(int(x) for x in b)
        if a == zero or b == zero:
            return zero
        return self.antilog[self.mul_pow(self.log[a], self.log[b])]

    def mul(self, a, b):
        """Product of two elements given in the same format.

        Exponents (ints) multiply by exponent addition mod s^k - 1; vectors
        multiply through the log tables, with the zero vector absorbing.
        """
        a_pow = isinstance(a, (int, np.integer))
        b_pow = isinstance(b, (int, np.integer))
        if a_pow != b_pow:
            raise FormatMismatchError("cannot mix power and vector formats")
        if a_pow:
            return self.mul_pow(int(a), int(b))
        return self.mul_vec(a, b)

    def __repr__(self):
        return f"ExtField(GF({self.s}^{self.k}), h={self.h})"


@lru_cache(maxsize=None)
def _ext_field_cached(s: int, k: int, coeffs: tuple[int, ...]) -> ExtField:
    return ExtField(s, k, Poly(s, coeffs))


def ext_field(s: int, k: int, h) -> ExtField:
    """Cached ExtField constructor; h may be a Poly or ascending coeffs."""
    coeffs = h.coeffs if isinstance(h, Poly) else tuple(h)
    return _ext_field_cached(s, k, coeffs)


@lru_cache(maxsize=None)
def find_primitive_polys(s: int, k: int) -> tuple[Poly, ...]:
    """All monic degree-k primitive polynomials over GF(s).

    Ordered lexicographically by (b_{k-1}, ..., b_0).  The count always
    equals phi(s^k - 1)/k.  Cached, so each candidate field is walked once.
    """
    if not is_prime(s):
        raise NonPrimeError(f"{s} is not prime")
    if s**k > DESK_ORDER_LIMIT:
        raise ValueError(f"field order {s**k} above desk-scale limit")
    found = []
    for high_to_low in itertools.product(range(s), repeat=k):
        coeffs = tuple(reversed(high_to_low)) + (1,)
        if coeffs[0] == 0:
            continue  # beta would not be a unit
        try:
            ext_field(s, k, coeffs)
        except NotPrimitiveError:
            continue
        found.append(Poly(s, coeffs))
    return tuple(found)


@lru_cache(maxsize=None)
def level_field(s: int) -> GF:
    """Canonical GF tables for any prime power s.

    For prime s this is plain mod-s arithmetic; for s = p^j the field
    GF(p^j) is built on the lexicographically first primitive polynomial
    and relabelled as described in the module docstring.
    """
    if s > LEVEL_ORDER_LIMIT:
        raise ValueError(f"level count {s} above desk-scale bound {LEVEL_ORDER_LIMIT}")
    p, j = factor_prime_power(s)
    if j == 1:
        return GF.prime(s)
    return GF.from_ext(ext_field(p, j, find_primitive_polys(p, j)[0]))


# ---------------------------------------------------------------------------
# Linear algebra over a GF table


def row_reduce(gf: GF, m) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column list)."""
    r = np.array(m, dtype=np.int64, copy=True)
    if r.ndim != 2:
        raise ValueError("need a 2-d matrix")
    rows, cols = r.shape
    pivots = []
    rank = 0
    for c in range(cols):
        sel = None
        for i in range(rank, rows):
            if r[i, c]:
                sel = i
                break
        if sel is None:
            continue
        r[[rank, sel]] = r[[sel, rank]]
        r[rank] = gf.mul(gf.inv(int(r[rank, c])), r[rank])
        mask = np.ones(rows, dtype=bool)
        mask[rank] = False
        factors = r[mask, c]
        r[mask] = gf.sub(r[mask], gf.mul(factors[:, None], r[rank][None, :]))
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return r, pivots


def mat_rank(gf: GF, m) -> int:
    return len(row_reduce(gf, m)[1])


def is_nonsingular(gf: GF, m) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and mat_rank(gf, m) == m.shape[0]


def mat_mul(gf: GF, a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[1]):
        out = gf.add(out, gf.mul(a[:, i][:, None], b[i][None, :]))
    return out


def null_space(gf: GF, m) -> np.ndarray:
    """Basis (as rows) of {c : m @ c = 0} over GF(s)."""
    m = np.asarray(m, dtype=np.int64)
    cols = m.shape[1]
    r, pivots = row_reduce(gf, m)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, p in enumerate(pivots):
            basis[i, p] = gf.neg(int(r[row, f]))
    return basis


def row_space_basis(gf: GF, m) -> np.ndarray:
    r, pivots = row_reduce(gf, m)
    return r[: len(pivots)]


def span(gf: GF, basis) -> np.ndarray:
    """All GF-linear combinations of the basis rows.

    Rows come out in lexicographic order of the coefficient tuple
    (c_1, ..., c_d), the first coefficient most significant.
    """
    d = len(basis)
    return mat_mul(gf, list(itertools.product(range(gf.s), repeat=d)), basis)
