import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from goa import constructions as cx
from goa import designs as dz
from goa import evalsim as ev
from goa import expand as ex
from goa import gf
from goa.cli import main as cli_main
from goa.errors import LevelLimitError, NotPrimePowerError

# `pytest --hypothesis-profile=ci` replays the same examples on every run
settings.register_profile("ci", derandomize=True, deadline=None)


def counted_checks():
    """A spy on every strength check counted in a check context, whatever
    called it: each call's args are (context, columns, t).  A difference
    scheme's own check (is_difference_scheme) is one bincount, made in no
    context, so it is not among them."""
    return mock.patch.object(dz._CheckContext, "check", autospec=True,
                             side_effect=dz._CheckContext.check)


def assert_built_nothing_from(gen, span, expand):
    """That a verify spied on by span (on gf.span) and expand (on
    designs.expand_generator) built no row from gen, the stored generator's
    array it held: the linear test spans the rows' own basis (span ran), no
    call of gf.span received gen or a view of it, and nothing was expanded.
    (The rows' RREF basis may equal gen in value: a consecutive generator
    is in RREF.)"""
    assert span.called
    assert not any(np.shares_memory(np.asarray(call.args[1]), gen)
                   for call in span.call_args_list)
    assert not expand.called


@pytest.fixture(scope="session")
def catalog_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("catalog")
    assert cli_main(["catalog", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="session")
def thm1_3():
    return cx.construct_thm1(3)


@pytest.fixture(scope="session")
def ebert3():
    return cx.construct_ebert(gf.ext_field(3, 4, (2, 1, 0, 0, 1)))


@pytest.fixture(scope="session")
def ebert2():
    return cx.construct_ebert(gf.ext_field(2, 4, gf.find_primitive_polys(2, 4)[0]))


@pytest.fixture(scope="session")
def oa_81_10_3_3(ebert3):
    """Strength-3 base array: the first Ebert cap of GF(3^4)."""
    return dz.subset_design(ebert3.design, range(10))


@pytest.fixture(scope="session")
def oa_27_4_3_3(thm1_3):
    """Strength-3 base array: the oval group of the 27-run construction."""
    return dz.subset_design(thm1_3.design, range(4))


@pytest.fixture(scope="session")
def eq21_generator():
    return dz.GeneratorMatrix(2, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])


def oracle_wlp(gen: dz.GeneratorMatrix) -> tuple[int, ...]:
    """Brute-force wordlength pattern: try every nonzero coefficient vector.

    Independent of the MacWilliams transform used by the library; only
    feasible for s^m up to a few thousand.
    """
    field = gf.level_field(gen.s)
    m = gen.m
    coeffs = np.array(list(itertools.product(range(gen.s), repeat=m)), dtype=np.int64)
    acc = np.zeros((len(coeffs), gen.k), dtype=np.int64)
    for j in range(m):
        acc = field.add_t[acc, field.mul_t[coeffs[:, j][:, None], gen.matrix[:, j][None, :]]]
    words = coeffs[1:][~acc[1:].any(axis=1)]
    counts = np.bincount(np.count_nonzero(words, axis=1), minlength=m + 1)
    pattern = []
    for j in range(1, m + 1):
        q, r = divmod(int(counts[j]), gen.s - 1)
        assert r == 0
        pattern.append(q)
    return tuple(pattern)


def oracle_mat_mul(field: gf.GF, a, b) -> np.ndarray:
    """a @ b over the level field by table gathers, one inner index at a time.

    The reference for the library's integer matmul mod p.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[1]):
        out = field.add_t[out, field.mul_t[a[:, i][:, None], b[i][None, :]]]
    return out


def oracle_span(field: gf.GF, basis) -> np.ndarray:
    """All s^d combinations of the d basis rows, as the product of every
    coefficient tuple, in lexicographic order, with the basis through
    gf.mat_mul.  The reference for the library's doubling through the
    label tables."""
    coeffs = list(itertools.product(range(field.s), repeat=len(basis)))
    return gf.mat_mul(field, coeffs, basis)


def oracle_generator_check(field: gf.GF, gen, basis) -> bool:
    """Whether the k x n generator spans the row space of the k independent
    basis rows with k independent rows of its own: G, and G stacked over
    the basis, both have rank k, found by one elimination of the (2, 2k, n)
    stack [G over k zero rows, G over the basis].  The reference for
    verify_claims' check at the basis's pivot columns."""
    gen, k = np.asarray(gen), len(gen)
    stack = np.stack([np.vstack([gen, np.zeros_like(basis)]), np.vstack([gen, basis])])
    return bool((gf.mat_rank(field, stack) == k).all())


def oracle_row_reduce(field: gf.GF, m) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form, one pivot column at a time through the
    add/mul tables; returns (R, pivot column list).

    The reference for the library's row-wise elimination.
    """
    r = np.array(m, dtype=np.int64, copy=True)
    if r.ndim != 2:
        raise ValueError("need a 2-d matrix")
    rows, cols = r.shape
    pivots = []
    rank = 0
    for c in range(cols):
        sel = next((i for i in range(rank, rows) if r[i, c]), None)
        if sel is None:
            continue
        r[[rank, sel]] = r[[sel, rank]]
        r[rank] = field.mul_t[field.inv_t[r[rank, c]], r[rank]]
        others = np.arange(rows) != rank
        r[others] = field.add_t[r[others],
                                field.neg_t[field.mul_t[r[others, c][:, None], r[rank][None, :]]]]
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return r, pivots


def oracle_ext_field_walk(s: int, k: int, coeffs) -> np.ndarray | None:
    """beta^0, ..., beta^(s^k - 2) for beta = x modulo the monic h with
    ascending coeffs over the level field of s, one multiplication by x at
    a time through the label add/mul tables; None unless beta first
    returns to 1 after s^k - 1 steps.

    The reference for the library's batched order test and for the
    doubling on lifted matrices that fills ExtField.antilog.
    """
    field = gf.level_field(s)
    add, mul = field.add_t.tolist(), field.mul_t.tolist()
    # x^k = -(b_0 + b_1 x + ... + b_{k-1} x^{k-1}) since h is monic
    red = [int(field.neg_t[c]) for c in coeffs[:k]]
    one = [1] + [0] * (k - 1)
    v = one
    powers = []
    for i in range(s**k - 1):
        if i and v == one:
            return None
        powers.append(v)
        carry = v[k - 1]
        v = [add[v[j - 1] if j else 0][mul[carry][red[j]]] for j in range(k)]
    return np.array(powers, dtype=np.int64) if v == one else None


def _oracle_counts(matrix: np.ndarray, cols, s: int) -> np.ndarray:
    enc = matrix[:, cols[0]].astype(np.int64)  # a uint8 level matrix would wrap
    for c in cols[1:]:
        enc = enc * s + matrix[:, c]
    return np.bincount(enc, minlength=s ** len(cols))


def oracle_check_strength(design: dz.Design, t: int) -> dz.StrengthCheck:
    """Exhaustive strength-t check, one column tuple at a time.

    The reference for the library's chunked kernel: same contract, with the
    lexicographically first failing tuple and its count table as witness.
    """
    want, rem = divmod(design.runs, design.s**t)
    for cols in itertools.combinations(range(design.cols), t):
        counts = _oracle_counts(design.matrix, cols, design.s)
        if rem != 0 or not np.all(counts == want):
            return dz.StrengthCheck(False, t, cols, counts, want)
    return dz.StrengthCheck(True, t)


def oracle_is_linear(design: dz.Design) -> bool:
    """Whether the distinct rows form a linear space over GF(s), each
    repeated equally often: a + c b must be a row again for any two rows a,
    b and any nonzero scalar c, tried one row a at a time through the
    add/mul tables.

    The reference for the library's linear-space test.
    """
    field = gf.level_field(design.s)
    rows, counts = np.unique(design.matrix, axis=0, return_counts=True)
    if (counts != counts[0]).any():
        return False
    present = {tuple(row) for row in rows.tolist()}
    scaled = field.mul_t[np.arange(1, design.s)[:, None, None], rows[None]]
    return all(tuple(v) in present
               for a in rows for v in field.add_t[a, scaled].reshape(-1, design.cols).tolist())


def oracle_linear_basis(s: int, matrix: np.ndarray) -> np.ndarray | None:
    """RREF basis of the row space when the distinct rows of matrix form a
    linear space over GF(s), each repeated equally often; None otherwise.

    One subject at a time: the distinct rows must number s^r with equal
    counts, the rows s^(r-1), ..., s, 1 of their sorted list must have
    rank r, and every distinct row must lie in the span of those rows'
    RREF.  The reference for the batched linear test of
    designs.read_subjects.
    """
    try:
        field = gf.level_field(s)
    except (LevelLimitError, NotPrimePowerError):
        return None
    matrix = np.asarray(matrix, dtype=np.int64).reshape(len(matrix), -1)
    rows, counts = np.unique(matrix, axis=0, return_counts=True)
    r = round(math.log(len(rows), s))
    if len(rows) != s**r or (counts != counts[0]).any():
        return None
    basis, pivots = oracle_row_reduce(field, rows[s ** np.arange(r - 1, -1, -1)])
    if len(pivots) < r:
        return None
    if (rows != oracle_mat_mul(field, rows[:, pivots], basis)).any():
        return None
    return basis


def _krawtchouk(j: int, i: int, m: int, s: int) -> int:
    """K_j(i; m, s) = sum_h (-1)^h (s-1)^(j-h) C(i, h) C(m-i, j-h), term by term."""
    return sum((-1) ** h * (s - 1) ** (j - h) * math.comb(i, h) * math.comb(m - i, j - h)
               for h in range(j + 1))


def oracle_wlp_of_rows(s: int, rows: np.ndarray, t: int | None = None) -> tuple[int, ...]:
    """Wordlength pattern (A_1, ..., A_t) of the N rows of a linear space
    over GF(s), each vector repeated equally often, by the MacWilliams
    transform of the row weights: A_j = sum_i B_i K_j(i) / N(s - 1).

    One subject at a time; the reference for the batched Krawtchouk
    recurrence of designs.read_subjects.
    """
    n, m = rows.shape
    hist = np.bincount(np.count_nonzero(rows, axis=1), minlength=m + 1).tolist()
    pattern = []
    for j in range(1, (m if t is None else t) + 1):
        total = sum(b * _krawtchouk(j, i, m, s) for i, b in enumerate(hist))
        q, r = divmod(total, n * (s - 1))
        assert r == 0, "weight count not divisible by N(s-1)"
        pattern.append(q)
    return tuple(pattern)


def oracle_gwlp(matrix: np.ndarray, s: int) -> tuple[int, ...]:
    """N^2 times the generalized wordlength pattern (A_1, ..., A_n) of any
    N x n matrix of s levels, in exact ints: N^2 A_j = sum_i H_i K_j(i; n, s),
    H_i the number of ordered row pairs at Hamming distance i (Xu,
    Statistica Sinica 13, 2003).  Strength t holds iff A_1 = ... = A_t = 0
    (Xu & Wu, Ann. Statist. 29, 2001), and no column tuple is read, so it
    checks the projection walk from outside.  On a linear space, and on
    any relabelling of its columns' levels, A_j is s - 1 times the
    wordlength pattern.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[1]
    dist = (matrix[:, None, :] != matrix[None, :, :]).sum(axis=2)
    hist = np.bincount(dist.ravel(), minlength=n + 1).tolist()
    return tuple(sum(h * _krawtchouk(j, i, n, s) for i, h in enumerate(hist) if h)
                 for j in range(1, n + 1))


def shifted_word_basis(h: gf.Poly, m: int) -> np.ndarray:
    """The m-k shifted copies of h's coefficient vector as length-m words,
    a basis of the defining words of h's consecutive-powers group of size m."""
    k = h.degree
    words = np.zeros((m - k, m), dtype=np.int64)
    for r in range(m - k):
        words[r, r : r + k + 1] = h.coeffs
    return words


def oracle_group_wlp_for_poly(s: int, k: int, h: gf.Poly, m: int) -> tuple[int, ...]:
    """Wordlength pattern of the consecutive-powers group of size m under
    h: its s^k rows are the length-m sequences whose first k entries run
    over GF(s)^k and whose later entries follow
    c_(j+k) = -(b_0 c_j + ... + b_(k-1) c_(j+k-1)), one gf.mat_mul per
    column; the pattern is the term-by-term MacWilliams transform.  The
    reference for constructions.group_wlp_for_poly at any m."""
    field = gf.level_field(s)
    rows = np.zeros((s**k, m), dtype=np.int64)
    rows[:, :k] = oracle_span(field, np.eye(k, dtype=np.int64))[:, :m]
    low = np.array(h.coeffs[:k])[:, None]
    for j in range(k, m):
        rows[:, j] = field.neg_t[gf.mat_mul(field, rows[:, j - k:j], low)[:, 0]]
    return oracle_wlp_of_rows(s, rows)


def oracle_max_strength(design: dz.Design, cap: int | None = None) -> int:
    """Largest strength, proven bottom-up from t = 1 until a check fails."""
    limit = design.cols if cap is None else min(cap, design.cols)
    best = 0
    for t in range(1, limit + 1):
        if design.runs % design.s**t or not oracle_check_strength(design, t).ok:
            break
        best = t
    return best


def oracle_p_of_d(design: dz.Design, columns=None) -> Fraction:
    """Proportion of strength-3 column triples, one triple at a time."""
    cols = list(range(design.cols)) if columns is None else list(columns)
    want, rem = divmod(design.runs, design.s**3)
    if rem:
        return Fraction(0)
    hits = total = 0
    for triple in itertools.combinations(cols, 3):
        total += 1
        if np.all(_oracle_counts(design.matrix, triple, design.s) == want):
            hits += 1
    return Fraction(hits, total)


def oracle_ds_search(s: int, r: int, c: int) -> np.ndarray | None:
    """An r x c difference scheme over GF(s), or None when none exists.

    Depth-first over every balanced column of length r: column 0 is all
    zero and column 1 the sorted balanced column, both lossless, and each
    later column is tried from the full list of columns still balanced
    against all chosen ones, in any order.  The reference for the library's
    normal-form search.
    """
    field = gf.level_field(s)
    want = r // s
    zero = np.zeros(r, dtype=np.int64)
    canon = np.repeat(np.arange(s), want)
    if c <= 2:
        return np.array([zero, canon][:c], dtype=np.int64).T
    cols = []

    def balanced(prefix, remaining):
        if len(prefix) == r:
            cols.append(prefix)
            return
        for e in range(s):
            if remaining[e]:
                remaining[e] -= 1
                balanced(prefix + (e,), remaining)
                remaining[e] += 1

    balanced((), [want] * s)
    candidates = np.array(cols, dtype=np.int64)

    def viable_after(viable, col):
        diff = field.add_t[candidates[viable], field.neg_t[col[None, :]]]
        ok = np.ones(viable.shape[0], dtype=bool)
        for e in range(s):
            ok &= (diff == e).sum(axis=1) == want
        return viable[ok]

    def dfs(chosen, viable):
        if len(chosen) == c:
            return np.array(chosen, dtype=np.int64).T
        for idx in viable:
            found = dfs(chosen + [candidates[idx]],
                        viable_after(viable[viable != idx], candidates[idx]))
            if found is not None:
                return found
        return None

    viable = np.arange(len(candidates))
    (start,) = np.flatnonzero((candidates == canon).all(axis=1))
    return dfs([zero, canon], viable_after(viable[viable != start], canon))


def oracle_best_restart(gen: dz.GeneratorMatrix, cfg, exts) -> tuple[int, int, list]:
    """(g, polynomial index, groups) of the best alg42 restart, one restart
    at a time: redraw H until its GF rank is k, look each column of H G up
    in a vector -> exponent dict built from the antilog rows, and scan the
    shifts against a set of used exponents.

    The reference for the library's chunked restart engine, with the same
    rng streams and the same first-restart-wins tie rule.
    """
    s, k = gen.s, gen.k
    field = gf.level_field(s)
    v = (s**k - 1) // (s - 1)
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(restart,)))
        which = int(rng.integers(len(exts))) if len(exts) > 1 else 0
        log = {tuple(vec): i for i, vec in enumerate(exts[which].antilog.tolist())}
        while True:
            h_mat = rng.integers(0, s, size=(k, k))
            if len(oracle_row_reduce(field, h_mat)[1]) == k:
                break
        hg = oracle_mat_mul(field, h_mat, gen.matrix)
        base = tuple(log[tuple(int(x) for x in col)] % v for col in hg.T)
        used = set(base)
        groups = [base]
        for j in range(1, v):
            translate = tuple((e + j) % v for e in base)
            if used.isdisjoint(translate):
                used.update(translate)
                groups.append(translate)
        if best is None or len(groups) > best[0]:
            best = (len(groups), which, groups)
    return best


def oracle_shift_exponents(ext: gf.ExtField, exps, j: int) -> tuple[int, ...]:
    """Translate PG exponents by j, reduced to representatives mod v."""
    v = (ext.order - 1) // (ext.s - 1)
    return tuple((e + j) % v for e in exps)


def oracle_prop2_i(h: gf.Poly) -> bool:
    """All of b_0, ..., b_{k-1} nonzero (minimum aberration at m = k+1)."""
    return all(c != 0 for c in h.coeffs[:-1])


def oracle_f_statistics(h: gf.Poly) -> tuple[tuple[int, ...], int, int]:
    """Prop. 2's adjacent-coefficient statistics (f, f_s, f_star) of h.

    With sentinels b_{-1} = b_{k+1} = 0 there are k+2 adjacent pairs; f[i]
    counts pairs with ratio b_j/b_{j-1} equal to element i, f_s counts
    zero-to-nonzero steps and f_star counts zero pairs, so the counts sum
    to k+2.
    """
    field = gf.level_field(h.s)
    padded = (0,) + tuple(h.coeffs) + (0,)
    f = [0] * h.s
    f_s = 0
    f_star = 0
    for prev, cur in zip(padded, padded[1:]):
        if prev == 0 and cur == 0:
            f_star += 1
        elif prev == 0:
            f_s += 1
        else:
            f[field.mul_t[cur, field.inv_t[prev]]] += 1
    return tuple(f), f_s, f_star


def oracle_proxy_key(h: gf.Poly, m: int) -> tuple[int, ...]:
    """Prop. 2's ranking key at m = k+1 (more nonzero low coefficients
    first) and m = k+2 (the sorted f-statistics shifted by f_star)."""
    k = h.degree
    if m == k + 1:
        return (-sum(1 for c in h.coeffs[:k] if c),)
    assert m == k + 2, "Prop. 2 ranks group sizes k+1 and k+2 only"
    f, f_s, f_star = oracle_f_statistics(h)
    return tuple(f_star + x for x in sorted((*f, f_s), reverse=True))


def oracle_prop2_ii(h: gf.Poly) -> bool:
    """f_star = 0 and the f counts differ by at most 1 (MA at m = k+2)."""
    f, f_s, f_star = oracle_f_statistics(h)
    vals = (*f, f_s)
    return f_star == 0 and max(vals) - min(vals) <= 1


def oracle_wlp_rank_key(pattern: tuple[int, ...]):
    """Sequential-minimization key over (A_3, A_4, ...)."""
    return tuple(pattern[2:])


def oracle_ma_regular_oa(s: int, k: int, m: int) -> tuple[dz.GeneratorMatrix, tuple[int, ...]]:
    """Minimum-aberration regular OA(s^k, m, s, 2) by exhausting all
    m-subsets of the PG(k-1, s) points; at most 500,000 of them."""
    ext = gf.ext_field(s, k, gf.find_primitive_polys(s, k)[0])
    points = dz.pg_points(ext)
    assert math.comb(len(points), m) <= 500_000, "too many subsets to exhaust"
    best = None
    for subset in itertools.combinations(range(len(points)), m):
        gen = dz.GeneratorMatrix(s, points[list(subset)].T)
        pattern = dz.wlp(gen)
        if best is None or pattern < best[1]:
            best = (gen, pattern)
    return best


def oracle_model_matrix(design: dz.Design, groups=None, interactions: bool = False) -> np.ndarray:
    """The main-effects model matrix, one column and one pair at a time:
    the intercept, then (linear, quadratic) per factor, then for each pair
    of each group, in itertools.combinations order, its ll, lq, ql and qq
    products.  The reference for evalsim.model_matrix's array blocks."""
    n = design.cols
    lin = np.empty((design.runs, n))
    quad = np.empty((design.runs, n))
    for j in range(n):
        lin[:, j], quad[:, j] = ev.contrast_columns(design.matrix[:, j])
    cols = [np.ones((design.runs, 1))]
    for j in range(n):
        cols.append(lin[:, j : j + 1])
        cols.append(quad[:, j : j + 1])
    if interactions:
        for group in groups if groups is not None else [list(range(n))]:
            for j1, j2 in itertools.combinations(group, 2):
                cols.append((lin[:, j1] * lin[:, j2])[:, None])
                cols.append((lin[:, j1] * quad[:, j2])[:, None])
                cols.append((quad[:, j1] * lin[:, j2])[:, None])
                cols.append((quad[:, j1] * quad[:, j2])[:, None])
    return np.hstack(cols)


def oracle_clarity_check(gd: dz.GroupedDesign) -> ev.ClarityReport:
    """The clarity report with its same-group mask filled entry by entry
    from a column -> group dict and a list of interaction labels.  The
    reference for evalsim.clarity_check's broadcast mask."""
    groups = [list(g.columns) for g in gd.groups] or [list(range(gd.design.cols))]
    full = oracle_model_matrix(gd.design, groups, interactions=True)
    n = gd.design.cols
    mains = full[:, 1:1 + 2 * n]
    inters = full[:, 1 + 2 * n:]
    if inters.shape[1] == 0:
        return ev.ClarityReport(0.0, 0.0, mains.shape[1], 0)
    cross = np.abs(mains.T @ inters)
    group_of = {}
    for gi, group in enumerate(groups):
        for col in group:
            group_of[col] = gi
    inter_group = []
    for gi, group in enumerate(groups):
        inter_group += [gi] * (4 * len(list(itertools.combinations(group, 2))))
    main_group = [group_of.get(j // 2, -1) for j in range(2 * n)]
    same = np.array([[mg == ig for ig in inter_group] for mg in main_group], dtype=bool)
    max_same = float(cross[same].max()) if same.any() else 0.0
    return ev.ClarityReport(float(cross.max()), max_same, mains.shape[1], inters.shape[1])


def oracle_rotate_columns(gd: dz.GroupedDesign) -> np.ndarray:
    """Twice the rotated levels, one 4-column half at a time: each group's
    doubled +-1 columns split in two, each half times ROTATION_Q, the
    pieces joined in group order.  The reference for expand.rotate_columns'
    one (N, 2g, 4) product."""
    doubled = 2 * gd.design.matrix.astype(np.int64) - 1
    pieces = []
    for grp in gd.groups:
        block = doubled[:, grp.columns]
        pieces.append(block[:, :4] @ ex.ROTATION_Q)
        pieces.append(block[:, 4:] @ ex.ROTATION_Q)
    return np.hstack(pieces)


def oracle_verify_claims(gd: dz.GroupedDesign) -> list[bool]:
    """The verdict of each check designs.verify_claims makes, in its order,
    decided by the exhaustive oracles alone; gd is only read.

    - A stored generator has k independent rows and N = s^k, and its span
      is the row multiset: its s^k combinations (oracle_span) are distinct
      and, sorted, are the sorted rows.
    - A strength-t claim, t the larger of the claimed and the verified
      strength and at least 1, on the whole array and then on each group:
      oracle_check_strength.
    - A group's stored pattern: its rows are linear (oracle_is_linear) and
      oracle_wlp_of_rows reads that pattern.
    - A group's stored p: the group has three columns or more and
      oracle_p_of_d measures that p.
    """
    design, s = gd.design, gd.design.s
    verdicts = []
    if gd.generator is not None:
        gen = gd.generator.matrix
        ok = gen.shape[1] == design.cols and s ** len(gen) == design.runs
        if ok:
            spanned = sorted(map(tuple, oracle_span(gf.level_field(s), gen).tolist()))
            ok = (len(set(spanned)) == len(spanned)
                  and spanned == sorted(map(tuple, design.matrix.tolist())))
        verdicts.append(ok)
    t0 = max(gd.claimed_t0, gd.verified_t0 or 0)
    if t0 >= 1:
        verdicts.append(oracle_check_strength(design, t0).ok)
    for grp in gd.groups:
        sub = dz.Design(s, design.matrix[:, grp.columns])
        t = max(grp.claimed_strength, grp.verified_strength or 0)
        if t >= 1:
            verdicts.append(oracle_check_strength(sub, t).ok)
        if grp.wlp is not None:
            verdicts.append(oracle_is_linear(sub)
                            and oracle_wlp_of_rows(s, sub.matrix) == tuple(grp.wlp))
        if grp.p is not None:
            verdicts.append(grp.size >= 3 and oracle_p_of_d(design, grp.columns) == grp.p)
    return verdicts
