"""Explicit grouped-orthogonal-array constructions.

Covers the oval-based s^3-run construction, the Ebert cap partition of
PG(3, s) for s^4 runs, difference-scheme Kronecker recursions with the
exact strength-3 triple-proportion bound, consecutive-powers groupings with
their defining relations, and the ranking of primitive polynomials by the
wordlength pattern of their groups.  Every output's claims are checked from
its matrix, once, before it is labelled (see goa.designs.annotate); no
construction is trusted.  The strength-3 prerequisites of the Kronecker
constructions, on the base or on each base group, are one annotate of a
throwaway grouping of the input, so a group too narrow for strength 3 is
refused like any weak one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import gf as gflib
from .designs import (
    Design,
    GeneratorMatrix,
    Group,
    GroupedDesign,
    _annotate,
    _CheckContext,
    annotate,
    generator_from_exponents,
    level_matrix,
    pg_points,
    regular_goa,
    strength_from_wlp,
    wlp_from_weights,
)
from .errors import (
    BadBlockSizeError,
    DegenerateSizeError,
    LevelMismatchError,
    NotPrimitiveError,
    ParameterRangeError,
    SearchExhaustedError,
    StrengthPrereqError,
    TooFewGroupsError,
    UnsupportedShapeError,
    WrongDegreeError,
)
from ._ds_tables import STORED_SCHEMES

DS_SEARCH_CELL_LIMIT = 64
DS_SEARCH_COLUMN_LIMIT = 1 << 20  # balanced columns ds_search may enumerate


# ---------------------------------------------------------------------------
# Difference schemes


@dataclass
class DifferenceScheme:
    """r x c matrix over GF(s) whose column differences are balanced, held
    as uint8 (level_matrix)."""

    s: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = level_matrix(self.matrix, self.s)

    @property
    def r(self) -> int:
        return self.matrix.shape[0]

    @property
    def c(self) -> int:
        return self.matrix.shape[1]


def is_difference_scheme(matrix: np.ndarray, s: int) -> bool:
    """Check that every column-pair difference hits each element r/s times,
    i.e. that the columns of pairwise differences have strength 1: one
    bincount of difference column i, element e at i s + e."""
    matrix = np.asarray(matrix)
    r, c = matrix.shape
    if r % s:
        return False
    if c < 2:
        return True
    u, v = np.array(list(itertools.combinations(range(c), 2))).T
    field = gflib.level_field(s)
    diffs = field.add_t[matrix[:, u], field.neg_t[matrix[:, v]]]
    counts = np.bincount((np.arange(len(u)) * s + diffs).ravel(), minlength=len(u) * s)
    return bool((counts == r // s).all())


def _balanced_columns(s: int, r: int) -> np.ndarray:
    """The columns holding each of the s elements exactly r/s times and 0 in
    row 0, in lexicographic order, grown one entry at a time.  They are
    uint8: ds_search enumerates them only for c >= 3 columns, so every
    level and count is at most r <= DS_SEARCH_CELL_LIMIT / 3."""
    per = r // s
    cols = np.zeros((1, 1), dtype=np.uint8)
    counts = np.zeros((1, s), dtype=np.uint8)
    counts[0, 0] = 1
    for _ in range(1, r):
        # C-order nonzero extends each prefix by its admissible elements in
        # increasing order, so the rows stay sorted
        prefix, e = np.nonzero(counts < per)
        cols = np.column_stack([cols[prefix], e.astype(np.uint8)])
        counts = counts[prefix]
        counts[np.arange(len(e)), e] += 1
    return cols


def ds_search(s: int, r: int, c: int) -> DifferenceScheme:
    """Exhaustive depth-first search for a DS(r, c, s) in normal form.

    The normal form is lossless, since adding a constant to a column and
    permuting rows or columns keep a difference scheme: column 0 is all
    zero (subtract it from every column), row 0 is all zero (translate each
    other column by minus its row-0 entry), column 1 is the sorted balanced
    column (permute rows 1..r-1), and columns 2..c-1 are distinct balanced
    columns in increasing order (two equal columns have a zero difference).
    A node passes its child only the candidates after its own that stay
    balanced against it, and is pruned when fewer remain than columns are
    still needed.  Deterministic; raises SearchExhaustedError when the
    tree holds no scheme, and ValueError, before any work, above
    DS_SEARCH_CELL_LIMIT cells or, when c > 2 needs the balanced columns
    enumerated, above DS_SEARCH_COLUMN_LIMIT of them.
    """
    if r * c > DS_SEARCH_CELL_LIMIT:
        raise ValueError(f"search shape {r}x{c} above desk-scale cell limit")
    if r % s or c < 1:
        raise SearchExhaustedError(f"no DS({r},{c},{s}): need s | r")
    field = gflib.level_field(s)
    want = r // s
    zero = np.zeros((r, 1), dtype=np.uint8)
    if c <= 2:
        column = np.repeat(np.arange(s, dtype=np.uint8), want)[:, None]
        return _certified(np.hstack([zero, column])[:, :c], s)
    if math.factorial(r) // math.factorial(r // s) ** s > DS_SEARCH_COLUMN_LIMIT:
        raise ValueError(f"search shape {r}x{c} above desk-scale column limit")
    candidates = _balanced_columns(s, r)  # row 0 is the sorted column
    add = field.add_t.astype(np.uint8)

    def viable_after(viable, col):
        diff = add[candidates[viable], field.neg_t[col]]
        ok = np.ones(viable.shape[0], dtype=bool)
        for e in range(s):
            ok &= (diff == e).sum(axis=1) == want
        return viable[ok]

    def dfs(chosen, viable):
        # chosen holds the candidate indices of columns 1, 2, ...
        need = c - 1 - len(chosen)
        if need == 0:
            return chosen
        if len(viable) < need:
            return None
        for pos, idx in enumerate(viable):
            found = dfs(chosen + [idx], viable_after(viable[pos + 1:], candidates[idx]))
            if found is not None:
                return found
        return None

    found = dfs([0], viable_after(np.arange(1, len(candidates)), candidates[0]))
    if found is None:
        raise SearchExhaustedError(f"exhaustive search: no DS({r},{c},{s}) exists")
    return _certified(np.hstack([zero, candidates[found].T]), s)


def _certified(matrix, s) -> DifferenceScheme:
    if not is_difference_scheme(matrix, s):
        raise AssertionError("search produced an unbalanced scheme")
    return DifferenceScheme(s, matrix)


def ds_catalog(s: int, r: int, c: int) -> DifferenceScheme:
    """A verified difference scheme of a supported shape.

    (s, s, s) is the GF(s) multiplication table, whose column differences
    are scalar multiples of the element column and hence balanced.
    (2s, 2s, s) for s in {2, 3, 4, 5} comes from stored search-certified
    schemes.  Every returned scheme is re-verified here.
    """
    if (r, c) == (s, s):
        return _certified(gflib.level_field(s).mul_t.copy(), s)
    if (r, c) == (2 * s, 2 * s) and (s, r, c) in STORED_SCHEMES:
        return _certified(np.array(STORED_SCHEMES[(s, r, c)]), s)
    raise UnsupportedShapeError(f"no catalogued DS({r},{c},{s})")


# ---------------------------------------------------------------------------
# Kronecker-sum recursions


def kronecker_sum(a: DifferenceScheme, b: Design, origin: str | None = None) -> Design:
    """Kronecker sum D = A (+) B under GF(s) addition.

    Rows are indexed by (row of A, row of B) and columns by (column of A,
    column of B), so the n columns descending from one column of A stay
    contiguous.
    """
    if a.s != b.s:
        raise LevelMismatchError(f"level mismatch: {a.s} vs {b.s}")
    r, c = a.matrix.shape
    n_runs, n_cols = b.matrix.shape
    gflib.check_cells("Kronecker sum", r * n_runs, c * n_cols)
    blocks = gflib.level_field(b.s).add(a.matrix[:, None, :, None], b.matrix[None, :, None, :])
    return Design(b.s, blocks.reshape(r * n_runs, c * n_cols),
                  origin or f"kronecker({r}x{c} (+) {n_runs}x{n_cols})")


def p_bound(c: int, n: int) -> Fraction:
    """Lower bound on p(A (+) B): 1 - (c-1)(c-2)/((cn-1)(cn-2)).

    Exact equality holds whenever the difference scheme's row count is not
    a multiple of s^2.
    """
    if c < 1 or n < 1 or c * n < 3:
        raise DegenerateSizeError(f"need c*n >= 3, got c={c}, n={n}")
    return 1 - Fraction((c - 1) * (c - 2), (c * n - 1) * (c * n - 2))


def _kronecker_goa(design: Design, n: int, parts, verified_t0: int | None = None) -> GroupedDesign:
    """A Kronecker sum A (+) B over an n-column base, grouped by parts, one
    (scheme columns js, base columns ws, claimed strength) per group: the
    group takes the columns j*n + w for j in js and w in ws.  The claims are
    annotated, the whole array's strength read as verified_t0 when another
    grouping has proven it, and p is measured for groups claimed below 3
    in the check context of the annotation, from its group readings and the
    pairs it decided."""
    groups = [Group([j * n + w for j in js for w in ws], claimed_strength=t)
              for js, ws, t in parts]
    ctx = _CheckContext(design)
    gd = _annotate(GroupedDesign(design, groups, claimed_t0=2), ctx, verified_t0)
    for grp in gd.groups:
        if grp.claimed_strength < 3:
            grp.p = ctx.p(grp.columns)
    return gd


def construct_prop1(ds: DifferenceScheme, blocks, b: Design) -> GroupedDesign:
    """Strength-3 groups from one- or two-column blocks of a difference scheme.

    Group i is A_i (+) B where A_i holds the block's columns; because a
    one- or two-column block has p = 1, each group is a strength-3 array of
    n or 2n columns, while the whole Kronecker sum keeps strength 2.
    """
    for block in blocks:
        if len(block) not in (1, 2):
            raise BadBlockSizeError(f"block {block} must have one or two columns")
    covered = sorted(c for block in blocks for c in block)
    if covered != list(range(ds.c)):
        raise BadBlockSizeError("blocks must partition the scheme's columns")
    if annotate(GroupedDesign(b, [], claimed_t0=3)).verified_t0 < 3:
        raise StrengthPrereqError("input design is not of strength 3")
    design = kronecker_sum(ds, b, f"prop1(ds={ds.r}x{ds.c}x{ds.s}, b={b.origin})")
    return _kronecker_goa(design, b.cols, [(block, range(b.cols), 3) for block in blocks])


def grouped_kronecker(ds: DifferenceScheme, blocks, b: Design,
                      origin: str | None = None) -> GroupedDesign:
    """Kronecker sum grouped by arbitrary blocks of scheme columns.

    The per-group strength-3 proportion is measured exactly and stored;
    this generalises construct_prop1 to blocks wider than two columns,
    where groups are only of near strength 3.
    """
    parts = [(block, range(b.cols), min(2, len(block) * b.cols)) for block in blocks]
    return _kronecker_goa(kronecker_sum(ds, b, origin), b.cols, parts)


@dataclass
class Thm2Result:
    """Coarse grouping A (+) B_i with measured p, plus the nested
    strength-3 regrouping from one/two-column scheme blocks."""

    grouped: GroupedDesign
    nested: GroupedDesign
    bounds: list[Fraction]


def construct_thm2(ds: DifferenceScheme, b: GroupedDesign) -> Thm2Result:
    """Recursive construction from a scheme and a GOA with strength-3 groups.

    Group i of the output is A (+) B_i with c*m_i columns; its measured
    p(D_i) is stored next to the bound 1 - (c-1)(c-2)/((cm_i-1)(cm_i-2)).
    A scheme of one or two columns has bound 1: its groups are claimed at
    strength 3, as in construct_prop1, and store no p.  The nested
    regrouping pairs scheme columns (the last odd one alone).  A base with
    no groups has none to build on and is refused.
    """
    if not b.groups:
        raise StrengthPrereqError("the base has no groups")
    prereq = annotate(GroupedDesign(b.design, [Group(grp.columns, 3) for grp in b.groups],
                                    claimed_t0=0))
    for grp in prereq.groups:
        if grp.verified_strength < 3:
            raise StrengthPrereqError(f"group {grp.columns} is not of strength 3")
    bounds = [p_bound(ds.c, grp.size) for grp in b.groups]
    design = kronecker_sum(ds, b.design, f"thm2(ds={ds.r}x{ds.c}x{ds.s}, b={b.design.origin})")
    t = 3 if ds.c <= 2 else 2
    coarse = _kronecker_goa(design, b.design.cols,
                            [(range(ds.c), grp.columns, t) for grp in b.groups])
    blocks = [range(j, min(j + 2, ds.c)) for j in range(0, ds.c, 2)]
    nested = _kronecker_goa(design, b.design.cols,
                            [(block, grp.columns, 3) for grp in b.groups for block in blocks],
                            coarse.verified_t0)
    return Thm2Result(coarse, nested, bounds)


# ---------------------------------------------------------------------------
# Oval and cap constructions


def construct_thm1(s: int) -> GroupedDesign:
    """s^3-run GOA with strength-3 groups from an oval in PG(2, s).

    The first group's generator has columns (1, w_i, w_i^2) plus (0, 0, 1);
    group i >= 1 shifts the quadratic row by w_i.  For non-prime s the
    elements w_i are the labels of gflib.level_field(s): w_0 = 0 and
    w_i = beta^(i-1).
    """
    field = gflib.level_field(s)  # raises NotPrimePowerError
    gflib.check_cells(f"thm1(s={s})", s**3, s * s + 1)
    cols = [(1, w, int(field.mul_t[w, w])) for w in range(s)] + [(0, 0, 1)]
    groups = [list(range(s + 1))]
    for i in range(1, s):
        start = len(cols)
        cols += [(1, w, int(field.add_t[i, field.mul_t[w, w]])) for w in range(s)]
        groups.append(list(range(start, start + s)))
    gen = GeneratorMatrix(s, np.array(cols, dtype=np.int64).T)
    return regular_goa(gen, [Group(g, claimed_strength=min(3, len(g))) for g in groups],
                       f"thm1(s={s})")


def construct_ebert(ext: gflib.ExtField) -> GroupedDesign:
    """s^4-run GOA from the partition of PG(3, s) into s+1 caps.

    G_0 takes every (s+1)-th power of beta; G_i = beta^i G_0.  The s+1
    blocks together use every PG(3, s) point exactly once, which is
    asserted structurally before the strength checks run.
    """
    if ext.k != 4:
        raise WrongDegreeError(f"need GF(s^4), got degree {ext.k}")
    s = ext.s
    m, g = s * s + 1, s + 1
    gflib.check_cells(f"ebert(s={s})", ext.order, g * m)
    exps = [i + j * g for i in range(g) for j in range(m)]
    if sorted(exps) != list(range(len(pg_points(ext)))):
        raise AssertionError("cap blocks do not partition PG(3, s)")
    groups = [Group(list(range(i * m, (i + 1) * m)), claimed_strength=3) for i in range(g)]
    return regular_goa(generator_from_exponents(ext, exps), groups, f"ebert(s={s},h={ext.h})")


# ---------------------------------------------------------------------------
# Consecutive powers of a primitive element


def construct_consecutive(ext: gflib.ExtField, m: int) -> GroupedDesign:
    """GOA whose groups are consecutive blocks of m points of PG(k-1, s).

    All groups share one wordlength pattern (translation by a power of
    beta preserves it), which group_wlp_for_poly reads for the claim.  For
    m <= k each group is a full factorial of strength m; for m > k the
    group's defining words are spanned by the m - k shifted copies of the
    primitive polynomial's coefficients.
    """
    if m < 2:
        raise ParameterRangeError(f"need m >= 2, got {m}")
    s, k = ext.s, ext.k
    v = (ext.order - 1) // (s - 1)
    g = v // m
    if g < 1:
        raise TooFewGroupsError(f"group size {m} exceeds the {v} PG points")
    gflib.check_cells(f"consecutive(s={s},k={k},m={m})", ext.order, g * m)
    gen = generator_from_exponents(ext, range(g * m))
    claimed = strength_from_wlp(group_wlp_for_poly(s, k, ext.h, m))
    groups = [Group(list(range(i * m, (i + 1) * m)), claimed_strength=claimed)
              for i in range(g)]
    return regular_goa(gen, groups, f"consecutive(s={s},k={k},h={ext.h},m={m})")


# ---------------------------------------------------------------------------
# Primitive-polynomial ranking
#
# The rows of a consecutive-powers group are the values of the linear maps
# L: GF(s^k) -> GF(s) at gamma^0, ..., gamma^(m-1), gamma a root of h.
# Every nonzero L is x -> L_0(gamma^e x) for one e mod n = s^k - 1, L_0
# the first coordinate, so the nonzero rows are the n cyclic windows of
# length m of the m-sequence L_0(gamma^i).  For gamma = beta^d, beta the
# root of the first primitive polynomial, that sequence is the first
# column of its antilog decimated by d (Golomb, Shift Register Sequences;
# Lidl and Niederreiter, Finite Fields, ch. 8): one field serves every
# polynomial of degree k.

_WINDOW_CELLS = 1 << 20  # decimated-sequence cells per block of _window_wlps


@lru_cache(maxsize=None)
def _window_wlps(s: int, k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Wordlength pattern of the consecutive-powers group of size m of each
    primitive polynomial of degree k over GF(s), in the order of
    find_primitive_polys; cached, as the ranking and the construction of
    its winner both read it.

    Row weights are the nonzero counts of the cyclic windows of the
    decimated m-sequence (see above), one cumsum per block of about
    _WINDOW_CELLS cells, plus the zero row; wlp_from_weights reads the
    patterns off their histograms.
    """
    polys = gflib.find_primitive_polys(s, k)
    nonzero = gflib.ext_field(s, k, polys[0]).antilog[:, 0] != 0
    n = len(nonzero)
    # d s^i reads the same windows from another start, and -d reads them
    # backwards (the reciprocal polynomial): one pass per class of d
    orbit = np.array(polys.decimations, dtype=np.int64)[:, None] * s ** np.arange(k) % n
    least, which = np.unique(np.minimum(orbit, -orbit % n).min(axis=1), return_inverse=True)
    at = np.arange(n + m - 1)
    per = max(1, _WINDOW_CELLS // max(1, len(at)))
    patterns: list[tuple[int, ...]] = []
    for lo in range(0, len(least), per):
        d = least[lo:lo + per]
        ones = np.zeros((len(d), n + m), dtype=np.int64)
        np.cumsum(nonzero[d[:, None] * at % n], axis=1, out=ones[:, 1:])
        weights = ones[:, m:] - ones[:, :n] + (m + 1) * np.arange(len(d))[:, None]
        hist = np.bincount(weights.ravel(), minlength=len(d) * (m + 1)).reshape(-1, m + 1)
        hist[:, 0] += 1  # the zero row
        patterns += wlp_from_weights(s, n + 1, hist, [m] * len(d), [m] * len(d))
    return tuple(patterns[i] for i in which.tolist())


def group_wlp_for_poly(s: int, k: int, h: gflib.Poly, m: int) -> tuple[int, ...]:
    """Wordlength pattern of one consecutive-powers group under h.

    The group's rows satisfy c_(j+k) = -(b_0 c_j + ... + b_(k-1) c_(j+k-1)),
    since x^(j+k) is that combination of x^j, ..., x^(j+k-1) modulo h.  h
    must be primitive (else NotPrimitiveError): its nonzero rows are then
    the windows of its m-sequence, the sequence of the first primitive
    polynomial decimated by h's d (_window_wlps).
    """
    polys = gflib.find_primitive_polys(s, k)
    try:
        at = polys.index(h)
    except ValueError:
        raise NotPrimitiveError(
            f"{h} is no primitive polynomial of degree {k} over GF({s})") from None
    return _window_wlps(s, k, m)[at]


def rank_primitive_polys(s: int, k: int, m: int) -> list[tuple[gflib.Poly, tuple[int, ...]]]:
    """Primitive polynomials ranked by group aberration at group size m.

    The key is the group wordlength pattern's (A_3, A_4, ...), minimised
    sequentially; ties keep the lexicographic enumeration order of the
    coefficients.  At m = k+1 and m = k+2 this is the order the paper's
    Prop. 2 reads off the coefficients.  Every pattern comes from one
    window pass over the decimations of one m-sequence (_window_wlps), in
    the field find_primitive_polys built.
    """
    ranked = list(zip(gflib.find_primitive_polys(s, k), _window_wlps(s, k, m)))
    ranked.sort(key=lambda item: item[1][2:])
    return ranked
