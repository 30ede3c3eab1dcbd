"""Exact arithmetic in prime fields GF(s) and extension fields GF(s^k).

Elements of GF(s) are the integer labels 0..s-1.  A nonzero element of an
extension GF(s^k) is carried either in power format (the exponent i of
beta^i for a primitive element beta) or in vector format, the length-k
row (a_0, ..., a_{k-1}) with

    beta^i = a_0 + a_1*beta + ... + a_{k-1}*beta^{k-1},

so a_0 is the constant coefficient.  Conversion between the formats goes
through the log/antilog arrays built once per field by repeated
multiplication by beta with reduction modulo the primitive polynomial;
log is indexed by the integer code a_0 + a_1 s + ... of a vector.

Prime-power level sets (s = p^j with j > 1) are handled by relabelling the
elements of GF(p^j) as 0..s-1 with 0 -> 0 and i -> beta^(i-1) for i >= 1.
`level_field` maps each label to its GF(p) coordinates, derives total
add/mul tables on the labels so that callers can stay label-based
regardless of whether s is prime, and multiplies matrices of labels as
one integer matmul mod p through the regular representation, in which
each element of GF(p^j) acts as a j x j matrix over GF(p).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonPrimeError, NotPrimePowerError, NotPrimitiveError

DESK_ORDER_LIMIT = 10**6
LEVEL_ORDER_LIMIT = 97  # largest level count s; level_field builds s x s tables


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


def code(p: int, vectors: np.ndarray) -> np.ndarray:
    """The integer a_0 + a_1 p + a_2 p^2 + ... of each GF(p) vector
    (a_0, a_1, ...) along the last axis; ExtField.log and GF.lab are
    indexed by it."""
    return vectors @ p ** np.arange(vectors.shape[-1])


class GF:
    """Arithmetic on the level labels {0, ..., s-1} of GF(s), s = p^j.

    vec[a] holds the GF(p) coordinates of label a and lab[code(p, x)] is
    the label of the vector x.  mat[a] is the j x j matrix over GF(p) of
    multiplication by a, so vec[a*b] = mat[a] @ vec[b] mod p.  The add, neg
    and inv tables are derived from vec and mul_t.  Methods accept plain
    ints or numpy arrays of labels; table lookups broadcast like any numpy
    indexing.
    """

    def __init__(self, p: int, vec: np.ndarray, mul_table: np.ndarray):
        s, j = vec.shape
        self.s, self.p = s, p
        self.vec = vec
        self.lab = np.empty(s, dtype=np.int64)
        self.lab[code(p, vec)] = np.arange(s)
        self.add_t = self.lab[code(p, (vec[:, None] + vec[None, :]) % p)]
        self.neg_t = self.lab[code(p, -vec % p)]
        self.mul_t = mul_table
        # column c of mat[a] is vec[a * beta^c]; beta^c has label c + 1
        self.mat = vec[mul_table[:, 1:j + 1]].transpose(0, 2, 1)
        hits = mul_table[1:] == 1
        if (hits.sum(axis=1) != 1).any():
            raise NonPrimeError(f"{s} levels do not form a field")
        self.inv_t = np.concatenate(([0], hits.argmax(axis=1)))

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


class ExtField:
    """GF(s^k) presented by a primitive polynomial h(x) over prime GF(s).

    antilog[i] is the vector of beta^i, an (s^k - 1) x k array; log is
    indexed by code(s, vector) and holds i, or -1 at the zero vector.
    Both are read-only, since fields are cached and shared.

    Raises NotPrimitiveError unless beta = x first returns to 1 after
    s^k - 1 steps; then its powers are s^k - 1 distinct units, so the walk
    doubles as an irreducibility test and no factoring is needed.
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
        self.antilog = self._walk()
        self.log = np.full(self.order, -1, dtype=np.int64)
        self.log[code(s, self.antilog)] = np.arange(self.period)
        self.antilog.flags.writeable = self.log.flags.writeable = False

    def _walk(self) -> np.ndarray:
        s, k = self.s, self.k
        # x^k = -(b_0 + b_1 x + ... + b_{k-1} x^{k-1}) since h is monic
        red = [(-c) % s for c in self.h.coeffs[:k]]
        one = [1] + [0] * (k - 1)
        v = one
        powers = []
        for i in range(self.period):
            if i and v == one:
                raise NotPrimitiveError(
                    f"beta has order {i} < {self.period} under h = {self.h}"
                )
            powers.append(v)
            carry = v[k - 1]
            v = [((v[j - 1] if j else 0) + carry * red[j]) % s for j in range(k)]
        if v != one:
            raise NotPrimitiveError(f"beta is not a unit under h = {self.h}")
        return np.array(powers, dtype=np.int64)

    @property
    def period(self) -> int:
        return self.order - 1

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

    For prime s the labels are the residues mod s; for s = p^j the field
    GF(p^j) is built on the lexicographically first primitive polynomial
    and relabelled as described in the module docstring.
    """
    if s > LEVEL_ORDER_LIMIT:
        raise ValueError(f"level count {s} above desk-scale bound {LEVEL_ORDER_LIMIT}")
    p, j = factor_prime_power(s)
    idx = np.arange(s)
    if j == 1:
        return GF(p, idx[:, None], idx[:, None] * idx % s)
    vec = np.zeros((s, j), dtype=np.int64)
    vec[1:] = ext_field(p, j, find_primitive_polys(p, j)[0]).antilog
    mul = (idx[:, None] + idx - 2) % (s - 1) + 1  # beta^(a-1) beta^(b-1)
    mul[0] = mul[:, 0] = 0
    return GF(p, vec, mul)


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


def mat_mul(gf: GF, a, b) -> np.ndarray:
    """a @ b over the level field, as one integer matmul mod p.

    Cell (i, l) is the label of sum_m mat[b[m, l]] @ vec[a[i, m]] mod p;
    the mat blocks go on b, the short side in span.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    (n, r), q = a.shape, b.shape[1]
    j = gf.vec.shape[1]
    left = gf.vec[a].reshape(n, r * j)
    right = gf.mat[b].transpose(0, 3, 1, 2).reshape(r * j, q * j)
    # the product stays unnamed, so at most two n x q arrays are alive at once
    return gf.lab[code(gf.p, (left @ right).reshape(n, q, j) % gf.p)]


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
