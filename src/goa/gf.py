"""Exact arithmetic in level fields GF(s), s = p^j, and extensions GF(s^k).

Elements of GF(s) are the integer labels 0..s-1.  A nonzero element of an
extension GF(s^k) is carried either in power format (the exponent i of
beta^i for a primitive element beta) or in vector format, the length-k
row of labels (a_0, ..., a_{k-1}) with

    beta^i = a_0 + a_1*beta + ... + a_{k-1}*beta^{k-1},

so a_0 is the constant coefficient.  Conversion between the formats goes
through the log/antilog arrays built once per field; log is indexed by
the integer code a_0 + a_1 s + ... of a vector.

A monic h of degree k is primitive iff x has order s^k - 1 modulo h
(Lidl and Niederreiter, Finite Fields, Thm 3.16); one square-and-multiply
over the lifted companion matrices of a block of candidates decides it.
Only the first primitive polynomial is found that way: the others are the
minimal polynomials of the powers beta^d of its root with d a unit mod
s^k - 1, read off its field by elimination.  antilog is filled by
doubling: rows beta^0..beta^(2^i - 1) times the matrix of beta^(2^i) are
the next 2^i rows, and ExtField reads the order test off them.

Prime-power level sets (s = p^j with j > 1) are handled by relabelling the
elements of GF(p^j) as 0..s-1 with 0 -> 0 and i -> beta^(i-1) for i >= 1.
`level_field` maps each label to its GF(p) coordinates, derives total
add/mul tables on the labels so that callers can stay label-based
regardless of whether s is prime.  A row space is built and checked
on uint8 labels, the dtype of every level matrix: span doubles its rows
one basis row at a time, each step one small mul_t gather and one
GF.add, which sums prime-field labels in uint8 arithmetic and takes
extension-field sums from a uint8 copy of add_t.  Products of matrices go
through the regular representation, in which each element of GF(p^j)
acts as a j x j matrix over GF(p).  `_lift` maps a matrix of labels to
its matrix over GF(p) that way, an injective ring homomorphism (the
identity for prime s), so mat_mul, the order test and the antilog walk
over any level field run as integer matmuls mod p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    LevelLimitError,
    NonPrimeError,
    NotPrimePowerError,
    NotPrimitiveError,
    ParameterRangeError,
)

DESK_ORDER_LIMIT = 10**6
DESK_CELL_LIMIT = 2**27  # largest array, runs x columns, that goa builds
LEVEL_ORDER_LIMIT = 97  # largest level count s; level_field builds s x s tables
# companion-matrix cells per block of candidates, and system cells per
# block of eliminations, in find_primitive_polys
_PRIMITIVE_CELLS = 1 << 14


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n by trial division; empty for n < 2."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


def factor_prime_power(s: int) -> tuple[int, int]:
    """Return (p, j) with s = p^j, or raise NotPrimePowerError."""
    factors = factorize(s)
    if len(factors) != 1:
        raise NotPrimePowerError(f"{s} is not a prime power")
    return next(iter(factors.items()))


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
    return np.einsum("...j,j->...", vectors, p ** np.arange(vectors.shape[-1]))


class GF:
    """Arithmetic on the level labels {0, ..., s-1} of GF(s), s = p^j.

    vec[a] holds the GF(p) coordinates of label a and lab[code(p, x)] is
    the label of the vector x.  mat[a] is the j x j matrix over GF(p) of
    multiplication by a, so vec[a*b] = mat[a] @ vec[b] mod p.  The add_t,
    neg_t, negmul_t (negmul_t[a, b] = -(a b)) and inv_t tables are derived
    from vec and mul_t (inv_t[0] is 0), none larger than s x s; callers
    index them with ints or numpy arrays of labels.  add sums uint8 label
    arrays, the row-space kernels' one addition.
    """

    def __init__(self, p: int, vec: np.ndarray, mul_table: np.ndarray):
        s, j = vec.shape
        self.s, self.p, self.j = s, p, j
        self.vec = vec
        self.lab = np.empty(s, dtype=np.int64)
        self.lab[code(p, vec)] = np.arange(s)
        self.add_t = self.lab[code(p, (vec[:, None] + vec[None, :]) % p)]
        self.neg_t = self.lab[code(p, -vec % p)]
        self.mul_t = mul_table
        self.negmul_t = self.neg_t[mul_table]
        self._add8 = self.add_t.astype(np.uint8).ravel()  # add_t[x, y] at x * s + y
        # column c of mat[a] is vec[a * beta^c]; beta^c has label c + 1
        self.mat = vec[mul_table[:, 1:j + 1]].transpose(0, 2, 1)
        hits = mul_table[1:] == 1
        if (hits.sum(axis=1) != 1).any():
            raise NonPrimeError(f"{s} levels do not form a field")
        self.inv_t = np.concatenate(([0], hits.argmax(axis=1)))

    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x + y of uint8 label arrays, broadcast against each other, as uint8.

        Not a wrapper around add_t: for prime s the labels are residues and
        the sum is formed here, z = x + y in uint8 and then min(z, z - s).
        That is exact since x + y <= 192 for s <= LEVEL_ORDER_LIMIT, so
        z - s wraps above z exactly when z < s; each cell moves one byte,
        where a gather in add_t moves an int64 index.  For s = p^j, j > 1,
        label c + 1 is beta^c, so labels are no bit vectors and XOR is no
        sum: one take in a flat uint8 copy of add_t, at the uint16 index
        x s + y < s^2.
        """
        if self.j == 1:
            z = np.add(x, y, dtype=np.uint8)
            return np.minimum(z, z - self.s, out=z)
        return self._add8.take(x.astype(np.uint16) * self.s + y)


def _lift(gf: GF, m: np.ndarray) -> np.ndarray:
    """The (..., r j, c j) matrices over GF(p) of a (..., r, c) stack of labels.

    Block (a, b) is mat[m[a, b]] transposed, so the GF(p) coordinates of a
    row of labels times the lift are the coordinates of the row times m.
    The map is an injective ring homomorphism, the identity for prime s.
    """
    *batch, r, c = m.shape
    return np.moveaxis(gf.mat[m], -1, -3).reshape(*batch, r * gf.j, c * gf.j)


def check_order(s: int, k: int) -> GF:
    """The level field of s, once GF(s^k) is known to be of desk scale.
    Since s >= 2, a k of DESK_ORDER_LIMIT's bit length or more is refused
    before s^k is computed."""
    gf = level_field(s)
    if k < 1:
        raise ParameterRangeError(f"extension degree must be >= 1, got {k}")
    if k >= DESK_ORDER_LIMIT.bit_length() or s**k > DESK_ORDER_LIMIT:
        raise ParameterRangeError(f"field order {s}^{k} above desk-scale limit")
    return gf


def check_cells(what: str, runs: int, cols: int) -> None:
    """Refuse, before it is built, an array of more than DESK_CELL_LIMIT cells."""
    if runs * cols > DESK_CELL_LIMIT:
        raise ParameterRangeError(f"{what}: {runs} x {cols} cells, above the desk-scale "
                                  f"limit of {DESK_CELL_LIMIT}")


def _companion(gf: GF, coeffs: np.ndarray) -> np.ndarray:
    """Lifted companion matrix M of x^k + b_{k-1} x^{k-1} + ... + b_0 for
    each row b_0..b_{k-1} of coeffs: row i is x^(i+1) mod h, so v @ M is x v."""
    mats = np.repeat(np.eye(coeffs.shape[1], k=1, dtype=np.int64)[None], len(coeffs), axis=0)
    mats[:, -1] = gf.neg_t[coeffs]
    return _lift(gf, mats)


def _primitive(gf: GF, coeffs: np.ndarray) -> np.ndarray:
    """Which rows b_0..b_{k-1} of coeffs give a primitive h over GF(gf.s).

    x has order n = s^k - 1 modulo h iff the companion matrix has M^n = I
    and M^(n/q) != I for each prime q | n; a reducible h, or b_0 = 0,
    leaves fewer than n units.  One square-and-multiply pass mod p raises
    the whole stack of lifted matrices to all these exponents.
    """
    k = coeffs.shape[1]
    n = gf.s**k - 1
    exps = [n] + [n // q for q in factorize(n)]
    step = _companion(gf, coeffs)
    eye = np.eye(k * gf.j, dtype=np.int64)
    powers = np.broadcast_to(eye, (len(exps), *step.shape)).copy()
    for bit in range(n.bit_length()):
        odd = [i for i, e in enumerate(exps) if e >> bit & 1]
        powers[odd] = powers[odd] @ step % gf.p
        step = step @ step % gf.p
    is_one = (powers == eye).all(axis=(2, 3))
    return is_one[0] & ~is_one[1:].any(axis=0)


class ExtField:
    """GF(s^k) presented by a primitive polynomial h(x) over level field GF(s).

    antilog[i] is the vector of labels of beta^i, an (s^k - 1) x k array;
    log is indexed by code(s, vector) and holds i, or -1 at the zero
    vector.  Both are read-only, since fields are cached and shared.
    antilog is filled by doubling on lifted rows mod p, as the module
    docstring says, and mapped back to labels once.  The rows x^0, ...,
    x^(n-1) mod h, n = s^k - 1, then hold the order test of _primitive: h
    is primitive iff x^n = 1 and x^(n/q) != 1 for each prime q | n (else
    NotPrimitiveError).
    """

    def __init__(self, s: int, k: int, h):
        gf = check_order(s, k)
        if not isinstance(h, Poly):
            h = Poly(s, tuple(h))
        if h.s != s or h.degree != k or h.coeffs[-1] != 1:
            raise ValueError(f"need a monic degree-{k} polynomial over GF({s})")
        self.s, self.k, self.h, self.order = s, k, h, s**k
        n, x = self.period, _companion(gf, np.array([h.coeffs[:k]], dtype=np.int64))[0]
        rows, step = np.eye(1, k * gf.j, dtype=np.int64), x
        while len(rows) < n:
            rows = np.concatenate([rows, rows[:n - len(rows)] @ step % gf.p])
            step = step @ step % gf.p
        if (rows[-1] @ x % gf.p != rows[0]).any() or any(
                (rows[n // q] == rows[0]).all() for q in factorize(n)):
            raise NotPrimitiveError(f"x does not have order {n} modulo h = {h}")
        self.antilog = gf.lab[code(gf.p, rows.reshape(-1, k, gf.j))]
        self.log = np.full(self.order, -1, dtype=np.int64)
        self.log[code(s, self.antilog)] = np.arange(self.period)
        self.antilog.flags.writeable = self.log.flags.writeable = False

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


class PrimitivePolys(tuple):
    """The Polys find_primitive_polys returns, a tuple in lexicographic
    order.  decimations[i] is the d for which the i-th is the minimal
    polynomial of beta^d, beta the root x of the first."""

    decimations: tuple[int, ...]

    def __new__(cls, polys=(), decimations=()):
        out = super().__new__(cls, polys)
        out.decimations = tuple(decimations)
        return out


@lru_cache(maxsize=None)
def find_primitive_polys(s: int, k: int) -> PrimitivePolys:
    """All monic degree-k primitive polynomials over GF(s), count phi(s^k - 1)/k.

    Candidate c has the base-s digits of c as b_0..b_{k-1}, so the order is
    lexicographic by (b_{k-1}, ..., b_0).  _primitive tests candidates in
    blocks until the first primitive h_0, and one field, ext_field(s, k,
    h_0), gives all the others: with beta its root x and n = s^k - 1, the
    primitive polynomials are the minimal polynomials of beta^d, one per
    cyclotomic coset {d, ds, ds^2, ...} of the units d mod n, taken at its
    least member d.  Each is solved from beta^(dk) = -(b_0 + b_1 beta^d +
    ... + b_(k-1) beta^(d(k-1))) by _eliminate, in blocks of systems.
    """
    gf = check_order(s, k)
    most = max(1, _PRIMITIVE_CELLS // (k * gf.j) ** 2)
    digits = s ** np.arange(k)
    start, block = 0, min(8, most)  # h_0 comes early: blocks double from 8 candidates
    while True:
        coeffs = np.arange(start, min(start + block, s**k))[:, None] // digits % s
        coeffs = coeffs[coeffs[:, 0] > 0]  # b_0 = 0 makes x no unit
        hits = coeffs[_primitive(gf, coeffs)]
        if len(hits):
            break
        start, block = start + block, min(2 * block, most)
    antilog = ext_field(s, k, (*hits[0].tolist(), 1)).antilog
    n = len(antilog)
    units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)  # [0] when n = 1
    least, orbit = units.copy(), units.copy()
    for _ in range(k - 1):
        orbit = orbit * s % n
        np.minimum(least, orbit, out=least)
    ds = units[least == units]
    per = max(1, _PRIMITIVE_CELLS // (k * (k + 1)))
    found = []
    for lo in range(0, len(ds), per):
        d = ds[lo:lo + per]
        # row c of each system is coordinate c of beta^0, beta^d, ..., beta^(dk)
        system = antilog[d[:, None] * np.arange(k + 1) % n].transpose(0, 2, 1)
        system[:, :, k] = gf.neg_t[system[:, :, k]]
        solved = _eliminate(gf, system)  # k pivots: row with pivot c ends in b_c
        coeffs = np.empty((len(d), k), dtype=np.int64)
        np.put_along_axis(coeffs, (solved[:, :, :k] != 0).argmax(axis=2), solved[:, :, k], axis=1)
        found.append(coeffs)
    coeffs = np.concatenate(found)
    order = np.argsort(coeffs @ digits)
    return PrimitivePolys((Poly(s, (*c, 1)) for c in coeffs[order].tolist()),
                          ds[order].tolist())


@lru_cache(maxsize=None)
def level_field(s: int) -> GF:
    """Canonical GF tables for any prime power s.

    For prime s the labels are the residues mod s; for s = p^j the field
    GF(p^j) is built on the lexicographically first primitive polynomial
    and relabelled as described in the module docstring.
    """
    if s > LEVEL_ORDER_LIMIT:
        raise LevelLimitError(f"level count {s} above desk-scale bound {LEVEL_ORDER_LIMIT}")
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
#
# One elimination loop, _eliminate, serves a matrix and a stack of them:
# row_reduce runs it to the reduced form on a stack of one, mat_rank to a
# row echelon form on a (..., rows, cols) stack.  Each clearing step is two
# flat takes, one in negmul_t and one in add_t, over the whole stack.


def _eliminate(gf: GF, r: np.ndarray, rank_only: bool = False) -> np.ndarray:
    """Gauss-Jordan elimination of each matrix in a (B, rows, cols) stack.

    Row by row: the pivot of row i is its first nonzero entry once the
    earlier pivot rows have been cleared out of it.  The row is scaled to a
    leading 1 and its column cleared from every other row, x -> x + (-(a b))
    for pivot-column entry a and pivot-row entry b, as flat takes in
    negmul_t and add_t for all B matrices in one step.  A zero row has
    pivot entry 0, so inv_t scales it to zero and it clears nothing.  The
    result's nonzero rows are the pivot rows, each with its pivot as its
    leading entry; the input is not written to.

    rank_only stops at a row echelon form: the pivot column is cleared only
    from the rows below the pivot row, which is all a later pivot reads, and
    the last row, with no rows below it, takes no step.  The nonzero rows
    then have distinct pivots, each zero in the rows after it, so they are
    independent and still number the rank.
    """
    s, at = gf.s, np.arange(len(r))
    r = r.transpose(1, 2, 0).copy()  # the batch axis last, for long inner loops
    for i in range(r.shape[0] - rank_only if r.shape[1] else 0):  # no columns, no pivots
        row = r[i]
        c = (row != 0).argmax(axis=0)
        row = gf.mul_t.take(gf.inv_t[row[c, at]] * s + row)
        rest = r[i + 1:] if rank_only else r
        step = gf.negmul_t.take(rest[:, c, at][:, None] * s + row)
        rest[...] = gf.add_t.take(rest * s + step)
        r[i] = row  # row i cleared itself to zero above
    return r.transpose(2, 0, 1)


def row_reduce(gf: GF, m) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column list).

    _eliminate on a stack of one; sorting the pivot rows by column gives
    the RREF.  A matrix has only one, so R and the pivots do not depend on
    the order of elimination.  Raises ValueError unless m is 2-d.
    """
    r = np.asarray(m, dtype=np.int64)
    if r.ndim != 2:
        raise ValueError("need a 2-d matrix")
    r = _eliminate(gf, r[None])[0]
    # a True column past the last puts a zero row's lead at cols, after every pivot
    lead = np.hstack([r != 0, np.ones((len(r), 1), dtype=bool)]).argmax(axis=1)
    order = lead.argsort()
    return r[order], [c for c in lead[order].tolist() if c < r.shape[1]]


def mat_rank(gf: GF, m) -> int | np.ndarray:
    """Rank over the level field of a matrix (an int) or of each matrix in
    a (..., rows, cols) stack (an int array of the batch shape).

    Row rank equals column rank, so matrices taller than wide are reduced
    as their transposes, and _eliminate takes each stack to a row echelon
    form; the rank is the number of nonzero rows it leaves.
    Raises ValueError when m has fewer than 2 axes.
    """
    m = np.asarray(m, dtype=np.int64)
    if m.ndim < 2:
        raise ValueError("need a matrix or a stack of matrices")
    if m.shape[-2] > m.shape[-1]:
        m = m.swapaxes(-1, -2)
    *batch, rows, cols = m.shape
    stack = m.reshape(math.prod(batch), rows, cols)
    ranks = _eliminate(gf, stack, rank_only=True).any(axis=2).sum(axis=1)
    return ranks.reshape(batch) if batch else int(ranks[0])


def mat_mul(gf: GF, a, b) -> np.ndarray:
    """a @ b over the level field, as one integer matmul mod p.

    Cell (i, l) is the label of sum_m mat[b[m, l]] @ vec[a[i, m]] mod p:
    the coordinates of each row of a times the lift of b.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    (n, r), q = a.shape, b.shape[1]
    left = gf.vec[a].reshape(n, r * gf.j)
    # the product stays unnamed, so at most two n x q arrays are alive at once
    return gf.lab[code(gf.p, (left @ _lift(gf, b)).reshape(n, q, gf.j) % gf.p)]


def null_space(gf: GF, m) -> np.ndarray:
    """Basis (as rows) of {c : m @ c = 0} over GF(s)."""
    r, pivots = row_reduce(gf, m)
    free = [c for c in range(r.shape[1]) if c not in pivots]
    basis = np.eye(r.shape[1], dtype=np.int64)[free]
    basis[:, pivots] = gf.neg_t[r[:len(pivots)][:, free]].T
    return basis


def span(gf: GF, basis) -> np.ndarray:
    """All GF-linear combinations of the (d, m) basis rows, as s^d uint8
    rows of labels, a level matrix.

    Rows come out in lexicographic order of the coefficient tuple
    (c_1, ..., c_d), the first coefficient most significant.  By doubling
    from the zero row: the span of b_i, ..., b_d lists c b_i plus the span
    of b_(i+1), ..., b_d for c = 0, ..., s-1: per basis row, from the last
    to the first, one gather of its s multiples mul_t[:, b_i] and one
    GF.add of uint8 labels.  The gather is a take, which keeps the span
    row-major, the order of the rows it is compared with (_span_test).
    """
    basis = np.asarray(basis, dtype=np.int64)
    rows = np.zeros((1, basis.shape[1]), dtype=np.uint8)
    for row in basis[::-1]:
        multiples = gf.mul_t.take(row, axis=1).astype(np.uint8)
        rows = gf.add(multiples[:, None], rows).reshape(-1, basis.shape[1])
    return rows
