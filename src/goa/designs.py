"""Design objects and the verification primitives everything else leans on.

Nothing in this module trusts a construction; every claim is decided from
the level matrix.  Strength is read off the dual distance when the rows form
a linear space over GF(s), each vector repeated equally often (one test per
design, inherited by every column projection): such an array has strength
d⊥ - 1, one less than the first nonzero A_j of its wordlength pattern.  An
array that is not linear is checked combinatorially, by projecting onto
column subsets and counting level combinations; the same count finds the
lexicographically first failing columns of any failed claim.  While s^t <=
64 the count follows the face rule: if every (t - 1)-column face of a
t-tuple holds each of its cells N / s^(t-1) times, the tuple holds each of
its s^t cells N / s^t times iff each of its (s - 1)^t top-free cells, those
with no coordinate at s - 1, does; so only those are counted, and the
faces, found on demand down to t = 1, decide the rest.  Every count on
a design is made in one check context per call (_CheckContext): the
bitsets are built once, and every tuple's verdict is kept one way, by its
sorted columns of the full matrix, so a tuple is decided once for the
whole array, its groups and their p while the memo of its width fits; a
walk counts a list of columns of the full matrix in place, its witnesses
named by positions in that list.  The context is also the one place
where a pattern settles a claim or the subject is counted.  Wordlength
patterns are read off the weights of the rows themselves by the
MacWilliams transform, for a whole stack of subjects (the array, or all
its groups) at once by read_subjects.  The strength-3 triple proportion
p(D) is an exact rational: read off A_3 where the rows are linear with
A_1 = A_2 = 0, else counted triple by triple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import gf as gflib
from .errors import (
    EmptySelectionError,
    LevelLimitError,
    NotPrimePowerError,
    RankDeficientError,
    TooFewColumnsError,
)

# int64 cells per projection-counting chunk; for a popcount chunk, uint64
# words of the AND block; for a step of the span check of _span_test, bytes
# of each uint8 or bool temporary (the sums, and their mismatches, reduced
# over the row axis first)
_CHUNK_CELLS = 1 << 14
# cells of the largest verdict memo of _CheckContext, n^j for the j-tuples of
# n columns, one byte each
_FACE_MEMO_CELLS = 1 << 22
# subject x weight (or x pattern length) cells per block of wlp_from_weights
_KRAWTCHOUK_CELLS = 1 << 16


def level_matrix(matrix, s: int) -> np.ndarray:
    """matrix as a uint8 level matrix, the one dtype every level matrix is
    held in (no level field has more than gf.LEVEL_ORDER_LIMIT = 97 levels).

    The levels are range-checked in the dtype they come in, and only then
    narrowed, so a level of 300 is refused (ValueError), not wrapped to 44;
    no s lets a level past 255 in.  A uint8 matrix is returned as it is.
    Arithmetic on the levels must widen them first: a Python int times a
    uint8 array stays uint8.
    """
    matrix = np.asarray(matrix)
    top = min(s, 256)
    if matrix.size and (matrix.min() < 0 or matrix.max() >= top):
        raise ValueError(f"levels must lie in 0..{top - 1}")
    return matrix.astype(np.uint8, copy=False)


@dataclass
class Design:
    """An N x n level matrix with entries in {0, ..., s-1}, held as uint8
    (level_matrix)."""

    s: int
    matrix: np.ndarray
    origin: str = "external"

    def __post_init__(self):
        matrix = np.asarray(self.matrix)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ValueError("design matrix must be 2-d and nonempty")
        self.matrix = level_matrix(matrix, self.s)

    @property
    def runs(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]


@dataclass
class GeneratorMatrix:
    """k x m full-row-rank matrix over GF(s) generating a regular design."""

    s: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int64)

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    def row_strings(self) -> list[str]:
        """Rows as digit strings, the shape design tables are printed in;
        for s > 10, where a level can take two digits, the cells are
        separated by commas."""
        sep = "," if self.s > 10 else ""
        return [sep.join(str(int(x)) for x in row) for row in self.matrix]


@dataclass
class Group:
    """One column group of a grouped design with its claims and findings."""

    columns: list[int]
    claimed_strength: int
    verified_strength: int | None = None
    wlp: tuple[int, ...] | None = None
    p: Fraction | None = None

    @property
    def size(self) -> int:
        return len(self.columns)


@dataclass
class GroupedDesign:
    """A design plus an ordered partition of (a prefix of) its columns."""

    design: Design
    groups: list[Group]
    claimed_t0: int = 2
    verified_t0: int | None = None
    generator: GeneratorMatrix | None = None

    def __post_init__(self):
        seen: set[int] = set()
        for grp in self.groups:
            if seen & set(grp.columns):
                raise ValueError("groups must be pairwise disjoint")
            seen |= set(grp.columns)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(g.size for g in self.groups)

    def label(self) -> str:
        """GOA(N, (m_1,...,m_g), (t_1,...,t_g), s, t0) notation."""
        sizes = ",".join(str(g.size) for g in self.groups)
        strengths = ",".join(str(g.verified_strength) for g in self.groups)
        return (
            f"GOA({self.design.runs}, ({sizes}), ({strengths}), "
            f"{self.design.s}, {self.verified_t0})"
        )


@dataclass
class StrengthCheck:
    ok: bool
    t: int
    witness: tuple[int, ...] | None = None
    counts: np.ndarray | None = None
    expected: int | None = None


def expand_generator(gen: GeneratorMatrix, origin: str | None = None) -> Design:
    """All s^k GF(s)-linear combinations of the rows of the generator.

    Rows are emitted in lexicographic order of the coefficient vector, so
    the same generator always produces the same file.
    """
    field = gflib.level_field(gen.s)
    if gflib.mat_rank(field, gen.matrix) != gen.k:
        raise RankDeficientError(f"generator rank < {gen.k}")
    rows = gflib.span(field, gen.matrix)
    return Design(gen.s, rows, origin or "expanded")


def _level_bitsets(matrix: np.ndarray, levels: int) -> np.ndarray:
    """n x levels x W uint64 words; bit r of [c, a] is set iff
    matrix[r, c] == a, for each level a < levels.  The rows are
    zero-padded to whole words."""
    rows = np.zeros((matrix.shape[1], levels, -(-matrix.shape[0] // 64) * 64), dtype=bool)
    rows[:, :, :matrix.shape[0]] = matrix.T[:, None, :] == np.arange(levels)[:, None]
    return np.packbits(rows, axis=-1).view(np.uint64)


def _combinations(n: int, t: int, size: int, most: int | None = None):
    """Yield itertools.combinations(range(n), t) as intp chunks: the first
    of size tuples, each next one twice as long up to most (size when
    None), the last one shorter."""
    most = size if most is None else max(size, most)
    combos = itertools.combinations(range(n), t)
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(combos, size))
        tuples = np.fromiter(flat, dtype=np.intp).reshape(-1, t)
        if not len(tuples):
            return
        yield tuples
        size = min(2 * size, most)


# _FACE_COLUMNS[j][i]: the columns of a j-tuple that its face i keeps, for
# the j <= 6 of s^j <= 64
_FACE_COLUMNS = [np.array([[c for c in range(j) if c != i] for i in range(j)],
                          dtype=np.intp).reshape(j, max(j - 1, 0)) for j in range(7)]


class _CheckContext:
    """Every count made on one design, for one call: annotate,
    verify_claims, or one check_strength, max_strength or p_of_d.  A
    subject is a list of columns of the full matrix; a walk counts its
    projections in place and names its tuples by their positions in that
    list.  No verdict outlives the call: the matrix may change between
    calls.

    The face rule.  A face of a j-tuple is one of its (j - 1)-column
    sub-tuples, and a top-free cell is a level combination with no
    coordinate at s - 1.  If every face holds each of its cells N /
    s^(j-1) times, the tuple holds each of its cells N / s^j times iff each
    of its (s - 1)^j top-free cells does: by induction on the number i of
    coordinates at s - 1, such a cell holds a face's count less s - 1 cells
    with i - 1 of them, N / s^(j-1) - (s - 1) N / s^j.  So only levels
    0..s-2 get row bitsets, built for every column on the first popcount
    walk (never when patterns settle every claim), the count of top-free
    cell (a_1, ..., a_j) on columns (c_1, ..., c_j) is the popcount of
    bits[c_1, a_1] & ... & bits[c_j, a_j], (s - 1)^j W words for W words of
    64 rows, and a tuple fails iff a top-free cell is off or a face fails.
    The one face of a column, the empty tuple, always holds.

    Verdicts are found on demand and kept one way: a tuple's verdict
    depends on neither its order nor its subject, so memo[j] holds the
    verdicts of j-tuples of columns of the full matrix, sorted, by code
    c_1 n^(j-1) + ... + c_j, built the first time a j-tuple asks while n^j
    <= _FACE_MEMO_CELLS.  Past that size, the distinct tuples of each batch
    are found once for that batch.  Unknown tuples are counted in batches
    of at most _CHUNK_CELLS words.

    The context is the one place where a wordlength pattern settles a
    claim or the subject is counted (strength, highest, p), and it holds
    the group readings it read (read_groups) for p."""

    def __init__(self, design: Design):
        self.s, self.matrix = design.s, design.matrix
        self.runs, self.n = design.matrix.shape
        self.bits = None  # levels 0..s-2 of every column, on the first popcount walk
        # memo[j][code]: 0 unknown, 1 holds, 2 fails
        self.memo: dict[int, np.ndarray] = {}
        self.readings: dict[tuple[int, ...], Reading] = {}

    def read_groups(self, subjects, tops, linear: bool) -> list[Reading]:
        """read_subjects of the groups, each reading held for p, which reads
        its A_3: a group's top reaches 3 wherever its p may be measured."""
        subjects = [list(c) for c in subjects]
        out = read_subjects(self.s, self.matrix, subjects, tops, linear=linear)
        self.readings.update(zip(map(tuple, subjects), out))
        return out

    def size(self, j: int) -> int:
        """j-tuples per batch: an AND block of at most _CHUNK_CELLS words."""
        return max(1, _CHUNK_CELLS // ((self.s - 1)**j * self.bits.shape[2]))

    def counts(self, tuples: np.ndarray) -> np.ndarray:
        """(len(tuples), (s - 1)^j) top-free counts of the j-tuples of
        columns, cell a_1 (s - 1)^(j-1) + ... + a_j."""
        block = self.bits[tuples[:, 0]]
        for i in range(1, tuples.shape[1]):
            block = (block[:, :, None] & self.bits[tuples[:, i], None]).reshape(
                len(tuples), -1, block.shape[2])
        # summed word slice by word slice in int64: a reduce of the short
        # inner word axis is slow
        return np.einsum("tcw->tc", np.bitwise_count(block), dtype=np.int64)

    def tables(self, tuples: np.ndarray) -> np.ndarray:
        """(len(tuples), s^t) full count tables of the t-tuples of columns,
        cell a_1 s^(t-1) + ... + a_t: row i of tuple k is coded with an
        offset of k s^t, and one bincount counts them all."""
        cells = self.s**tuples.shape[1]
        enc = np.arange(len(tuples))
        for i in range(tuples.shape[1]):
            enc = enc * self.s + self.matrix[:, tuples[:, i]]
        return np.bincount(enc.ravel(), minlength=len(tuples) * cells).reshape(-1, cells)

    def verdicts(self, tuples: np.ndarray) -> np.ndarray:
        """Which sorted j-tuples of columns hold every cell N / s^j times;
        faces are asked for only when some tuple's top-free cells hold."""
        j = tuples.shape[1]
        ok = (self.counts(tuples) == self.runs // self.s**j).all(axis=1)
        if j > 1 and ok.any():
            ok &= self.holds(tuples[:, _FACE_COLUMNS[j]].reshape(-1, j - 1)).reshape(
                -1, j).all(axis=1)
        return ok

    def holds(self, tuples: np.ndarray) -> np.ndarray:
        """Which sorted j-tuples of columns hold: kept verdicts, and each
        distinct unknown tuple found once."""
        j = tuples.shape[1]
        table = self.memo.get(j)
        if table is None:
            if self.n**j > _FACE_MEMO_CELLS:
                keys = np.ascontiguousarray(tuples).view(np.dtype((np.void, j * tuples.itemsize)))
                fresh, back = np.unique(keys[:, 0], return_inverse=True)
                return self._decide(fresh.view(np.intp).reshape(-1, j))[back]
            table = self.memo[j] = np.zeros(self.n**j, dtype=np.uint8)
        radix = self.n ** np.arange(j - 1, -1, -1)
        codes = tuples @ radix
        state = table[codes]
        fresh = np.sort(codes[state == 0])
        if len(fresh):
            first = np.ones(len(fresh), dtype=bool)
            np.not_equal(fresh[1:], fresh[:-1], out=first[1:])
            fresh = fresh[first]
            table[fresh] = 2 - self._decide(fresh[:, None] // radix % self.n)
            state = table[codes]
        return state == 1

    def _decide(self, tuples: np.ndarray) -> np.ndarray:
        """Which sorted j-tuples hold, found by verdicts in batches of size(j)."""
        size = self.size(tuples.shape[1])
        if len(tuples) <= size:
            return self.verdicts(tuples)
        return np.concatenate([self.verdicts(tuples[lo:lo + size])
                               for lo in range(0, len(tuples), size)])

    def walk(self, columns, t: int):
        """Yield (tuples, ok) chunks of the t-column projections of the
        subject columns, with s^t dividing N, in itertools.combinations
        order of their positions: ok says which tuples hold each of their
        s^t level combinations N / s^t times.

        This one walk serves check_strength, max_strength, p_of_d,
        annotate and verify_claims.  While s^t <= 64 the face rule decides:
        a tuple holds iff its (t - 1)-column faces hold and its (s - 1)^t
        top-free cells each hold N / s^t, popcounts of an AND block of
        (s - 1)^t W words a tuple for W words of 64 rows.  Each chunk's
        tuples are sorted to columns of the full matrix once, and kept in
        the context's memo with their faces while n^t fits it, so a
        group's strength-3 check and its p count each triple once.  The
        first chunk is _CHUNK_CELLS // (s^t W) tuples, what full tables
        would fit in _CHUNK_CELLS words, so that an early failure scans no
        more tuples than that; each next chunk is twice as long, up to a
        block of _CHUNK_CELLS words.  For larger s^t, a popcount costs more
        words per 64 rows than one bincount cell per row, so a chunk of
        _CHUNK_CELLS // max(N, s^t) tuples is counted in full tables by one
        bincount (tables).
        """
        cols = np.asarray(columns, dtype=np.intp)
        m, cells = len(cols), self.s**t
        if cells <= 64:
            if self.bits is None:
                self.bits = _level_bitsets(self.matrix, self.s - 1)
            decide = self.holds if self.n**t <= _FACE_MEMO_CELLS else self.verdicts
            first = max(1, _CHUNK_CELLS // (cells * self.bits.shape[2]))
            for tuples in _combinations(m, t, first, self.size(t)):
                yield tuples, decide(np.sort(cols[tuples], axis=1))
            return
        for tuples in _combinations(m, t, max(1, _CHUNK_CELLS // max(self.runs, cells))):
            yield tuples, (self.tables(cols[tuples]) == self.runs // cells).all(axis=1)

    def check(self, columns, t: int) -> StrengthCheck:
        """check_strength at t <= len(columns) of the subject columns: the
        witness is the lexicographically first failing tuple of positions
        in columns, its table counted on their columns in tuple order.
        When s^t does not divide N, the first tuple fails uncounted, its
        table counted only while s^t <= gf.DESK_CELL_LIMIT."""
        cols = np.asarray(columns, dtype=np.intp)
        want, rem = divmod(self.runs, self.s**t)
        if rem:
            witness = tuple(range(t))
            if self.s**t > gflib.DESK_CELL_LIMIT:
                return StrengthCheck(False, t, witness, None, want)
        else:
            witness = next((tuple(tuples[np.argmin(ok)].tolist())
                            for tuples, ok in self.walk(cols, t) if not ok.all()), None)
            if witness is None:
                return StrengthCheck(True, t)
        return StrengthCheck(False, t, witness, self.tables(cols[np.array([witness])])[0], want)

    def strength(self, columns, t: int, pattern: tuple[int, ...] | None) -> StrengthCheck:
        """The strength-t claim on the subject columns.  When pattern, their
        wordlength pattern, holds A_1..A_t, it holds iff they all vanish
        (strength d⊥ - 1) and nothing is counted; rows that are not linear
        (pattern None) and a failure are counted (check), the failure for
        its witness."""
        if pattern is not None and t <= len(pattern) and not any(pattern[:t]):
            return StrengthCheck(True, t)
        return self.check(columns, t)

    def highest(self, columns, cap: int | None = None,
                pattern: tuple[int, ...] | None = None) -> int:
        """The largest t <= cap (all the columns when None) of strength t on
        the subject columns; 0 if even t = 1 fails.  Linear rows, whose
        pattern runs to A_cap, have min(cap, d⊥ - 1), read off it.  Any
        other subject is counted from the cap down, since strength t implies
        every lower strength: a t with s^t not dividing N is skipped
        uncounted, so cap=None never builds s^cols-cell tables."""
        cols = list(columns)
        limit = len(cols) if cap is None else min(cap, len(cols))
        if pattern is not None:
            return strength_from_wlp(pattern[:limit])
        for t in range(limit, 0, -1):
            if self.runs % self.s**t == 0 and self.check(cols, t).ok:
                return t
        return 0

    def p(self, columns) -> Fraction:
        """p_of_d of the subject columns, read off the reading held for
        them (read_groups), or read here to A_3."""
        cols = list(columns)
        if len(cols) < 3:
            raise TooFewColumnsError("p(D) needs at least three columns")
        if self.runs % self.s**3:
            return Fraction(0)
        triples = math.comb(len(cols), 3)
        reading = self.readings.get(tuple(cols))
        if reading is None:
            reading = read_subjects(self.s, self.matrix, [cols], [3])[0]
        pattern = reading.pattern
        if pattern is not None and not any(pattern[:2]):
            return 1 - Fraction(pattern[2], triples)
        return Fraction(sum(int(ok.sum()) for _, ok in self.walk(cols, 3)), triples)


def check_strength(design: Design, t: int) -> StrengthCheck:
    """Exhaustive strength-t check.

    Passes iff every t-column projection holds each of the s^t level
    combinations exactly N/s^t times; while s^t <= 64 that is decided by
    the face rule (_CheckContext), from each tuple's (s - 1)^t top-free
    cells and the verdicts of its (t - 1)-column faces.  Chunks are scanned
    in lexicographic order, so on failure the witness is still the
    lexicographically first offending column set, with its full count
    table from one bincount; failure is a value.  When s^t does not divide
    N, the first column set fails uncounted but for its table, and past
    gf.DESK_CELL_LIMIT cells it gets none: counts is None.
    """
    if not 1 <= t <= design.cols:
        raise ValueError(f"need 1 <= t <= {design.cols}")
    return _CheckContext(design).check(range(design.cols), t)


def max_strength(design: Design, cap: int | None = None) -> int:
    """Largest t for which check_strength passes; 0 if even t=1 fails.

    Strength t implies every lower strength, so the search starts at the
    cap and steps down only on failure.  A t with s^t not dividing N is
    skipped uncounted, so cap=None never builds s^cols-cell tables.
    """
    return _CheckContext(design).highest(range(design.cols), cap)


class Reading(NamedTuple):
    """One subject's reading.  pattern is its wordlength pattern A_1..A_t,
    None when its rows are not a linear space over GF(s); basis is the row
    space's RREF basis when the rows were tested and found linear, None
    otherwise (also when linearity was given, not tested)."""

    pattern: tuple[int, ...] | None
    basis: np.ndarray | None


def read_subjects(s: int, matrix: np.ndarray, subjects, tops=None,
                  linear: bool = False) -> list[Reading]:
    """Read a stack of subjects of one N x n uint8 level matrix at once.

    A subject is a list of columns: the whole array or one group.  Subject
    g's pattern stops at A_tops[g] (all of it when tops or tops[g] is
    None).  linear=True says the subjects' rows are known to be linear, as
    every projection of an array found linear is, and skips the test.  A
    level count with no field has no linear subjects.

    The G subjects are one (N, G, M) uint8 stack, M the widest subject.
    The whole array as the only subject is read in place, as the view
    matrix[:, None, :]; other subjects are gathered by one take, and zero
    padded only when their widths differ: trailing zero columns change
    neither the row order, nor linearity, nor the weights.  The matrix is
    never written to.

    Linear test.  Sorted, the s^r vectors sum_i c_i b_i of a space with
    RREF basis b_1..b_r come in the order of (c_1, ..., c_r): the entries
    before the pivot of b_i depend on c_1..c_(i-1) alone, and the pivot
    entry is c_i.  So one sort of each subject's rows decides it, keyed by
    each row's base-s integer code, first column most significant, while
    s^M < 2^63 (in uint16, radix sorted, while s^M <= 2^16), and by its
    bytes above (_row_keys): both orders are that of the digits.  The
    distinct rows must number c = s^r, r found by one searchsorted in the
    powers of s, begin exactly at the multiples of N/c (equal
    multiplicities), and be the span of the distinct rows s^(r-1), ...,
    s, 1 in the order of its coefficient tuples.  That equality also
    proves those r rows independent, and makes them the RREF basis.  The
    span check runs on the uint8 labels: in that order, distinct row a = d
    s^e + a', d its leading base-s digit, is d times row s^e plus row a',
    and row 0 is zero.  Each step (e, d) is one mul_t gather of row s^e and
    one GF.add against the rows a' < s^e, for all candidates with one r at
    once, in temporaries of at most _CHUNK_CELLS bytes by subjects and by
    rows, its mismatches reduced over the leading row axis first; a
    subject that fails a step takes no later one.

    Patterns, read only when some subject is linear.  With B_i rows of
    weight i, the defining words of length j number sum_i B_i K_j(i) / N
    (MacWilliams), K_j the Krawtchouk polynomial, one per scalar multiple,
    so each sum divides by N (s - 1).
    Row weights are summed over the column axis by one einsum of stack !=
    0, not by a reduce of that short inner axis, in uint16 while M < 2^16
    and in intp above, so every weight is exact; one bincount makes the
    (G, M + 1) weight histogram, and wlp_from_weights reads every pattern
    off it by one recurrence
    (j + 1) K_{j+1}(i) = ((s - 1)(m - j) + j - s i) K_j(i)
    - (s - 1)(m - j + 1) K_{j-1}(i), in exact integers over the weights
    that occur, with each subject's own m: O(M t) per subject.
    """
    cols = [list(c) for c in subjects]
    count, n = len(cols), len(matrix)
    try:
        field = gflib.level_field(s)
    except (LevelLimitError, NotPrimePowerError):
        return [Reading(None, None)] * count
    if not count:
        return []
    matrix = np.asarray(matrix, dtype=np.uint8)  # as it is when uint8
    widths = np.array([len(c) for c in cols], dtype=np.intp)
    width = max(1, int(widths.max()))
    if count == 1 and width == matrix.shape[1] and cols[0] == list(range(width)):
        stack = matrix[:, None, :]  # the whole array, read in place
    else:
        pad = np.arange(width) >= widths[:, None]
        index = np.zeros((count, width), dtype=np.intp)
        index[~pad] = np.fromiter(itertools.chain.from_iterable(cols), dtype=np.intp,
                                  count=int(widths.sum()))
        stack = np.take(matrix, index, axis=1)  # (N, G, M): row axis first
        if widths.min() < width:
            stack[:, pad] = 0
    if linear:
        ok, bases = np.ones(count, dtype=bool), [None] * count
    else:
        ok, bases = _span_test(field, stack, widths)
    out = [Reading(None, None)] * count
    found = np.flatnonzero(ok)
    if not len(found):
        return out  # nothing linear: no weights to read

    caps = widths if tops is None else np.minimum(
        widths, [w if top is None else top for top, w in zip(tops, widths.tolist())])
    nonzero = (stack if len(found) == count else stack[:, found]) != 0
    # no weight exceeds width: uint16 sums are exact below 2^16
    weights = np.einsum("ngm->ng", nonzero, dtype=np.uint16 if width < 1 << 16 else np.intp)
    weights = weights + (width + 1) * np.arange(len(found))
    hist = np.bincount(weights.ravel(), minlength=len(found) * (width + 1)).reshape(-1, width + 1)
    patterns = wlp_from_weights(s, n, hist, widths[found], caps[found])
    for g, pattern in zip(found.tolist(), patterns):
        out[g] = Reading(pattern, bases[g])
    return out


def wlp_from_weights(s: int, n: int, hist: np.ndarray, widths, tops) -> list[tuple[int, ...]]:
    """Wordlength patterns from row weights, the MacWilliams transform of
    read_subjects: subject g has n rows, a linear space over GF(s) with
    each vector repeated equally often, widths[g] columns, and
    hist[g, i] rows of weight i; its pattern stops at A_tops[g].

    Subjects of one width share their Krawtchouk values: the recurrence
    runs once per width, over the weights that occur, for blocks of about
    _KRAWTCHOUK_CELLS cells of subjects, each step one product with the
    block's counts.  It runs in int64 where _krawtchouk_fits shows that no
    value it forms can overflow, else in Python ints.
    """
    widths, tops = np.asarray(widths), np.asarray(tops)
    out: list[tuple[int, ...]] = [()] * len(hist)
    scale = n * (s - 1)
    per = max(1, _KRAWTCHOUK_CELLS // max(hist.shape[1], int(tops.max(initial=0))))
    for m in sorted(set(widths.tolist())):
        run = np.flatnonzero(widths == m)
        for lo in range(0, len(run), per):
            at = run[lo:lo + per]
            block, t = hist[at], tops[at]
            steps = int(t.max())
            exact = np.int64 if _krawtchouk_fits(s, n, m, steps) else object
            present = np.flatnonzero(block.any(axis=0))
            counts = block[:, present].astype(exact)
            # (j + 1) K_{j+1}(i) = grow[j] K_j(i) - (s - 1)(m - j + 1) K_{j-1}(i)
            grow = (((s - 1) * m - s * present).astype(exact)
                    + (2 - s) * np.arange(steps, dtype=exact)[:, None])
            prev, cur = np.zeros(len(present), dtype=exact), np.ones(len(present), dtype=exact)
            sums = np.zeros((len(at), steps), dtype=exact)
            for j in range(steps):
                prev, cur = cur, (grow[j] * cur - (s - 1) * (m - j + 1) * prev) // (j + 1)
                sums[:, j] = counts @ cur
            # every A_j of a linear subject is a count, also past its top
            if (sums % scale).any():
                raise AssertionError("weight count not divisible by N(s-1)")
            for g, row, top in zip(at.tolist(), (sums // scale).tolist(), t.tolist()):
                out[g] = tuple(row[:top])
    return out


def _krawtchouk_fits(s: int, n: int, m: int, steps: int) -> bool:
    """Whether the Krawtchouk pass of wlp_from_weights runs in int64: every
    product and sum it forms is at most s m (s - 1)^j C(m, j) N for some
    j <= steps, m the subjects' width, since |K_j(i)| <= (s - 1)^j C(m, j)
    and each recurrence coefficient is at most s m; below 2^62 that leaves
    room for the sum of the recurrence's two terms.  (s - 1)^j C(m, j)
    grows while (s - 1)(m - j + 1) >= j, so over j <= steps it is largest
    at j = min(steps, (s - 1)(m + 1) // s), which is at most m."""
    j = min(steps, (s - 1) * (m + 1) // s)
    return s * m * (s - 1) ** j * math.comb(m, j) * n < 1 << 62


def _row_keys(stack: np.ndarray, s: int) -> np.ndarray:
    """(G, N) sort keys of the rows of the (N, G, M) stack, in the order of
    their digits, first column first: each row's base-s integer code, in
    uint16 while s^M <= 2^16 and in int64 while s^M < 2^63, else its M bytes
    as one np.void."""
    width = stack.shape[2]
    if s**width >= 1 << 63:
        return np.ascontiguousarray(stack.transpose(1, 0, 2)).view(
            np.dtype((np.void, width)))[..., 0]
    code = np.uint16 if s**width <= 1 << 16 else np.int64
    return np.einsum("ngm,m->gn", stack, s ** np.arange(width - 1, -1, -1, dtype=code),
                     dtype=code)


def _span_test(field: gflib.GF, stack: np.ndarray,
               widths: np.ndarray) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Which subjects of the (N, G, M) uint8 stack have linear rows (see
    read_subjects), and the RREF basis of each that has, else None.  The
    stack is left as it is: each subject's rows are ordered by argsort of
    their keys (_row_keys; a radix sort for uint16 keys), and only the s^r
    sampled distinct rows are gathered from it, as one (s^r, G', M) uint8
    array per rank r.  The rank is found by one searchsorted of the distinct
    row counts in the powers of s.  Step (q, d), q = s^e, checks rows[d
    q:(d + 1) q] == GF.add(rows[:q], mul_t[d][rows[q]]) in chunks of `run`
    rows by `per` subjects, each temporary at most _CHUNK_CELLS bytes, its
    mismatches reduced over the leading row axis first; the subjects that
    fail a step are dropped before the next."""
    s = field.s
    n, count, width = stack.shape
    bases: list[np.ndarray | None] = [None] * count
    keys = _row_keys(stack, s)
    order = np.argsort(keys, axis=1, kind="stable" if keys.dtype == np.uint16 else None)
    keys = np.take(keys, order + n * np.arange(count)[:, None])
    new = np.ones((count, n), dtype=bool)
    new[:, 1:] = keys[:, 1:] != keys[:, :-1]
    distinct = new.sum(axis=1)
    powers = [1]
    while powers[-1] < n:
        powers.append(powers[-1] * s)
    # r = the least with s^r >= the distinct rows; linear rows need equality
    rank = np.searchsorted(powers, distinct)
    ok = (np.array(powers)[rank] == distinct) & (n % distinct == 0)
    mul = field.mul_t.astype(np.uint8)
    for r in sorted(set(rank[ok].tolist())):
        members = np.flatnonzero(ok & (rank == r))
        ok[members] = False
        # distinct row i of a subject must begin sorted row i N / s^r: then
        # each is repeated N / s^r times
        step = n // s**r
        live = members[new[members, ::step].all(axis=1)]
        # (s^r, G', M): distinct row a of subject live[g] is rows[a, g]
        rows = stack.reshape(-1, width).take(order[live, ::step].T * count + live, axis=0)
        zero = ~rows[0].any(axis=1)
        if not zero.all():
            live, rows = live[zero], rows[:, zero]
        for q in (s**e for e in range(r)):
            # a' rows by subjects per temporary of at most _CHUNK_CELLS bytes
            run = min(q, max(1, _CHUNK_CELLS // width))
            per = max(1, _CHUNK_CELLS // (run * width))
            for d in range(1, s):
                keep = np.ones(len(live), dtype=bool)
                for lo in range(0, len(live), per):
                    scaled = mul[d].take(rows[q, lo:lo + per])
                    for a in range(0, q, run):
                        b = min(a + run, q)
                        got = field.add(rows[a:b, lo:lo + per], scaled)
                        # reduced over the leading row axis first: a reduce of
                        # the short inner column axis is slow
                        keep[lo:lo + per] &= ~(got != rows[d * q + a:d * q + b, lo:lo + per]
                                               ).any(axis=0).any(axis=1)
                if not keep.all():
                    live, rows = live[keep], rows[:, keep]
        ok[live] = True
        # (G', r, M): the basis rows s^(r-1), ..., s, 1 of each live subject
        block = np.ascontiguousarray(rows[s ** np.arange(r - 1, -1, -1)].transpose(1, 0, 2),
                                     dtype=np.int64)
        for at, g in enumerate(live.tolist()):
            bases[g] = block[at, :, :widths[g]]
    return ok, bases


def wlp(gen: GeneratorMatrix) -> tuple[int, ...]:
    """Wordlength pattern (A_1, ..., A_m) of a regular design, read off the
    s^k rows the generator spans; a rank-deficient generator repeats each
    row equally often, which read_subjects allows."""
    rows = gflib.span(gflib.level_field(gen.s), gen.matrix)
    return read_subjects(gen.s, rows, [range(gen.m)], linear=True)[0].pattern


def strength_from_wlp(pattern: tuple[int, ...]) -> int:
    for j, a in enumerate(pattern, start=1):
        if a:
            return j - 1
    return len(pattern)


def wlp_of_columns(design: Design, columns) -> tuple[int, ...] | None:
    """Wordlength pattern recovered from the design matrix itself.

    Returns None when the projected rows do not form a linear space (see
    read_subjects), i.e. the projection is not regular and has no
    wordlength pattern.
    """
    return read_subjects(design.s, design.matrix, [columns])[0].pattern


def p_of_d(design: Design, columns=None) -> Fraction:
    """Exact proportion of column triples that form a strength-3 subarray.

    The columns (all of them when None) are read to A_3 (read_subjects).
    When their rows are linear and A_1 = A_2 = 0, a triple lacks strength 3
    iff a word of length 3 lives on it, and that word is unique up to
    scalars (two that are not would combine into a shorter one), so p = 1 -
    A_3 / C(m, 3) and nothing is counted.  Any other subject is counted by
    the same projection walk as check_strength (_CheckContext): while s^3
    <= 64, by the face rule, a triple holds iff its three pairs hold (each
    pair decided once, from its (s - 1)^2 top-free cells and its columns)
    and its (s - 1)^3 top-free cells hold N / s^3 each.  annotate and
    verify_claims measure p in the context of their other checks, from
    the group readings and verdicts found there, so a triple counted for
    a strength-3 check is not counted again.
    """
    return _CheckContext(design).p(range(design.cols) if columns is None else columns)


def pg_points(ext: gflib.ExtField) -> np.ndarray:
    """The (s^k-1)/(s-1) points of PG(k-1, s) as the rows beta^0, beta^1, ..."""
    return ext.antilog[:(ext.order - 1) // (ext.s - 1)]


def generator_from_exponents(ext: gflib.ExtField, exps) -> GeneratorMatrix:
    return GeneratorMatrix(ext.s, ext.antilog[np.asarray(exps, dtype=np.int64) % ext.period].T)


def annotate(gd: GroupedDesign, verified_t0: int | None = None) -> GroupedDesign:
    """Fill verified strengths, capped at the claims; shortfalls are
    recorded, not raised.  A regular design, one that carries a generator,
    also gets each group's wordlength pattern as grp.wlp.

    Two readings (read_subjects) serve every subject.  The first tests the
    whole array for linear rows and reads its A_1..A_t0 alone; the second
    reads all the groups at once, and tests them only when the array is
    not linear, since a projection of a linear array is linear.  A linear
    subject's strength is min(claim, d⊥ - 1), read off its pattern; a
    subject that is not linear is credited only what its count confirms.
    Every count is made in one check context (_CheckContext), which builds
    the bitsets and decides each tuple of columns at most once for the
    whole array and all its groups while the memo of its width fits.  A
    group's full pattern is read only when it is recorded, else its
    A_1..A_claim, and A_3 for its p.  A given verified_t0 is the whole
    array's verdict at this claim, already found for another grouping of
    the same array, and is not found again.
    """
    return _annotate(gd, _CheckContext(gd.design), verified_t0)


def _annotate(gd: GroupedDesign, ctx: _CheckContext,
              verified_t0: int | None = None) -> GroupedDesign:
    """annotate, counting in ctx, the check context of gd.design, which
    then holds the group readings for p."""
    design = gd.design
    regular = gd.generator is not None
    every = range(design.cols)
    whole = read_subjects(design.s, design.matrix, [every], [gd.claimed_t0])[0].pattern
    gd.verified_t0 = (ctx.highest(every, gd.claimed_t0, whole) if verified_t0 is None
                      else verified_t0)
    readings = ctx.read_groups([grp.columns for grp in gd.groups],
                               None if regular else [max(grp.claimed_strength, 3)
                                                     for grp in gd.groups],
                               linear=whole is not None)
    for grp, (pattern, _) in zip(gd.groups, readings):
        grp.verified_strength = ctx.highest(grp.columns, grp.claimed_strength, pattern)
        if regular:
            grp.wlp = pattern
    return gd


def regular_goa(gen: GeneratorMatrix, groups: list[Group], origin: str) -> GroupedDesign:
    """The grouped design generated by gen, annotated, which records each
    group's wordlength pattern."""
    return annotate(GroupedDesign(expand_generator(gen, origin=origin), groups,
                                  claimed_t0=2, generator=gen))


def claims_ok(gd: GroupedDesign) -> bool:
    if gd.verified_t0 is None or gd.verified_t0 < gd.claimed_t0:
        return False
    return all(
        g.verified_strength is not None and g.verified_strength >= g.claimed_strength
        for g in gd.groups
    )


@dataclass
class ClaimCheck:
    subject: str
    claim: str
    ok: bool
    detail: str = ""


@dataclass
class VerifyReport:
    """The checks of verify_claims, and the check context they were made
    in (_CheckContext), which holds the group readings and every verdict
    found, so that a caller can go on to measure a group's p
    (context.p) without reading or counting anything again."""

    ok: bool
    checks: list[ClaimCheck]
    context: _CheckContext

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "PASS" if c.ok else "FAIL"
            detail = f" ({c.detail})" if c.detail else ""
            out.append(f"{c.subject}: {c.claim}: {mark}{detail}")
        return out


def _strength_claim(checks: list[ClaimCheck], subject: str, ctx: _CheckContext, columns,
                    t: int, pattern: tuple[int, ...] | None) -> bool:
    """Append the check of a strength-t claim on the subject columns and
    return whether it holds.  It fails uncounted when s^t does not divide
    N, so a large t never sizes s^t-cell tables; else the subject's pattern
    decides it when the rows are linear, and the columns are counted in
    place otherwise (ctx.strength)."""
    if ctx.runs % ctx.s**t:
        ok, detail = False, "s^t does not divide N"
    else:
        res = ctx.strength(columns, t, pattern)
        ok, detail = res.ok, "" if res.ok else f"witness columns {res.witness}"
    checks.append(ClaimCheck(subject, f"strength {t}", ok, detail))
    return ok


def _stored_claim(checks: list[ClaimCheck], subject: str, claim: str, stored, found, how: str):
    """Append the check that a stored value equals the one found again."""
    ok = found == stored
    checks.append(ClaimCheck(subject, claim, ok, "" if ok else f"stored {stored} {how} {found}"))


def verify_claims(gd: GroupedDesign) -> VerifyReport:
    """Re-verify every claim a design file carries, from the matrix alone.

    Checks, in order: generator consistency (a stored generator has k
    independent rows and N = s^k, and its span must be the row multiset),
    the whole-array strength claim, then per group the strength claim, the
    stored wordlength pattern (the MacWilliams transform of the weights of
    the projected rows, which must form a linear space) and the stored p
    value.  Any mismatch makes the report fail; recomputation stops early
    only within a failed check.

    Two readings (read_subjects) serve every subject: one of the whole
    array, and one of all the groups at once, which tests them for linear
    rows only when the array is not linear.  A strength-t claim reads
    A_1..A_t only when s^t | N, else it fails uncounted.  A generator of
    k independent rows spans a linear space with each row once, so it
    passes iff the rows are linear with a basis B of k rows, N = s^k, and
    G spans B's rows.  B is in RREF, so a vector of its span is its
    entries at B's pivot columns times B: G spans B's rows iff G = C B
    (one mat_mul), C = G at the pivot columns, and the k x k C has rank k
    (one mat_rank); nothing is expanded.  A generator whose rows are
    dependent fails, even where its combinations, each repeated, are the
    stored rows.  On a linear subject a strength-t claim holds iff
    A_1..A_t vanish, and it is counted only to find a failure's witness;
    on any other subject it is counted.  A group's one reading serves its
    strength claim, its stored pattern and its p: it is the full pattern
    when one is stored, else it runs to A_t, and to at least A_3 when s^3
    | N.  Every count is made in one check context (_CheckContext), whose
    bitsets and kept tuple verdicts are found once for the array and all
    its groups; the report returns it, so a caller that goes on to
    measure p reads and counts nothing twice.  A failure's witness names
    positions in its subject's columns.  The strength checked is the
    larger of the claimed and the stored one; like annotate, it is
    recorded as verified on each subject where it holds.
    """
    checks: list[ClaimCheck] = []
    design, s = gd.design, gd.design.s
    ctx = _CheckContext(design)

    def top(t: int) -> int:
        """How much of the pattern a strength-t claim reads."""
        return t if t >= 1 and design.runs % s**t == 0 else 0

    every = range(design.cols)
    t0 = max(gd.claimed_t0, gd.verified_t0 or 0)
    whole = read_subjects(s, design.matrix, [every], [top(t0)])[0]

    if gd.generator is not None:
        gen, basis = gd.generator.matrix, whole.basis
        k = len(gen)
        same = bool(basis is not None and len(basis) == k and s**k == design.runs
                    and gen.shape[1] == design.cols)
        if same:
            # a row of the basis's span is its pivot entries times the basis,
            # and G's rows are independent iff those k x k coefficients are
            field, coeffs = gflib.level_field(s), gen[:, (basis != 0).argmax(axis=1)]
            same = bool((gflib.mat_mul(field, coeffs, basis) == gen).all()
                        and gflib.mat_rank(field, coeffs) == k)
        checks.append(ClaimCheck("array", "generator reproduces rows", same))

    if t0 < 1 or _strength_claim(checks, "array", ctx, every, t0, whole.pattern):
        gd.verified_t0 = t0

    strengths = [max(grp.claimed_strength, grp.verified_strength or 0) for grp in gd.groups]
    readings = ctx.read_groups(
        [grp.columns for grp in gd.groups],
        [None if grp.wlp is not None else max(top(t), top(3))
         for grp, t in zip(gd.groups, strengths)],
        linear=whole.pattern is not None)
    for idx, (grp, t, reading) in enumerate(zip(gd.groups, strengths, readings)):
        name = f"group {idx + 1} ({grp.size} cols)"
        if t < 1 or _strength_claim(checks, name, ctx, grp.columns, t, reading.pattern):
            grp.verified_strength = t
        if grp.wlp is not None:
            _stored_claim(checks, name, "wordlength pattern", tuple(grp.wlp), reading.pattern,
                          "recomputed")
        if grp.p is not None:
            _stored_claim(checks, name, "triple proportion p", grp.p,
                          ctx.p(grp.columns) if grp.size >= 3 else None, "measured")

    return VerifyReport(all(c.ok for c in checks), checks, ctx)


def subset_design(design: Design, keep) -> Design:
    keep = list(keep)
    if not keep:
        raise EmptySelectionError("no columns kept")
    return Design(design.s, design.matrix[:, keep], design.origin)


def subset_columns(obj, keep):
    """Column projection for a Design or GroupedDesign.

    For a grouped design the groups are intersected with the kept set
    (empty intersections vanish), claims are capped at the new group sizes
    and verified strengths are recomputed.  A generator is projected too,
    and dropped when the projection loses rank k.
    """
    keep = list(keep)
    if isinstance(obj, Design):
        return subset_design(obj, keep)
    gd: GroupedDesign = obj
    design = subset_design(gd.design, keep)
    pos = {old: new for new, old in enumerate(keep)}
    groups = []
    for grp in gd.groups:
        cols = [pos[c] for c in grp.columns if c in pos]
        if not cols:
            continue
        groups.append(Group(cols, min(grp.claimed_strength, len(cols))))
    gen = None
    if gd.generator is not None:
        block = gd.generator.matrix[:, keep]
        if gflib.mat_rank(gflib.level_field(gd.generator.s), block) == gd.generator.k:
            gen = GeneratorMatrix(gd.generator.s, block)
    out = GroupedDesign(design, groups, min(gd.claimed_t0, len(keep)), None, gen)
    return annotate(out)
