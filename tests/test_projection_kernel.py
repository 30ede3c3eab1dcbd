"""The chunked projection-counting kernel against the per-tuple oracle.

check_strength, max_strength and p_of_d all count through one chunked
walk of a check context; these properties compare each with the exhaustive one-tuple-at-a-time
loop in conftest on random small designs, at chunk caps down to one tuple
per chunk so that chunk boundaries fall everywhere.  The strength of a
linear design is read off its dual distance instead, and is compared with
the same oracle; the batched reading behind it, read_subjects, is compared
subject by subject with the one-subject linear test and pattern oracles.
"""

import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goa import cli
from goa import constructions as cx
from goa import designs as dz
from goa import gf
from goa import serialize as io
from goa.errors import StrengthPrereqError

from conftest import (
    _oracle_counts,
    counted_checks,
    oracle_check_strength,
    oracle_gwlp,
    oracle_is_linear,
    oracle_linear_basis,
    oracle_max_strength,
    oracle_p_of_d,
    oracle_wlp_of_rows,
)

# a t-tuple counts by popcount while s^t <= 64 and by bincount above: pairs
# by popcount for s <= 8 and by bincount for s = 9, triples by popcount for
# s <= 4
MAX_K = {2: 4, 3: 3, 4: 2, 5: 2, 7: 2, 8: 2, 9: 2}
CHUNK_CAPS = st.sampled_from([1, 16, 256, dz._CHUNK_CELLS])
# labels per column block of the linear test's span: one column a block, a
# few columns (1 to 16 for the spans drawn here), so that block edges fall
# inside subjects, and the default
SPAN_BLOCKS = st.sampled_from([1, 32, dz._SPAN_CELLS])


@st.composite
def designs(draw, min_cols=1, min_extra=0):
    """A regular design (the span of a random, possibly rank-deficient
    basis, stacked once or twice), plus up to two random extra rows and at
    most one corrupted cell, so that both passing and failing tuples occur."""
    s = draw(st.sampled_from(sorted(MAX_K)))
    k = draw(st.integers(1, MAX_K[s]))
    n = draw(st.integers(min_cols, 6))
    row = st.lists(st.integers(0, s - 1), min_size=n, max_size=n)
    basis = draw(st.lists(row, min_size=k, max_size=k))
    rows = np.tile(gf.span(gf.level_field(s), basis), (draw(st.integers(1, 2)), 1))
    extra = draw(st.lists(row, min_size=min_extra, max_size=2))
    if extra:
        rows = np.vstack([rows, extra])
    if draw(st.booleans()):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, n - 1))
        rows[r, c] = (rows[r, c] + 1) % s
    return dz.Design(s, rows)


def assert_same_check(got: dz.StrengthCheck, want: dz.StrengthCheck):
    assert got.ok == want.ok
    assert got.t == want.t
    assert got.witness == want.witness
    assert got.expected == want.expected
    if want.counts is None:
        assert got.counts is None
    else:
        assert np.array_equal(got.counts, want.counts)


def largest_dividing_t(design: dz.Design) -> int:
    t = 0
    while design.runs % design.s ** (t + 1) == 0:
        t += 1
    return t


class TestCheckStrength:
    @settings(deadline=None)
    @given(designs(), CHUNK_CAPS)
    def test_matches_oracle(self, d, cells):
        with mock.patch.object(dz, "_CHUNK_CELLS", cells):
            for t in range(1, d.cols + 1):
                assert_same_check(dz.check_strength(d, t), oracle_check_strength(d, t))

    @settings(deadline=None)
    @given(designs(min_extra=1), CHUNK_CAPS)
    def test_runs_not_divisible(self, d, cells):
        t = largest_dividing_t(d) + 1
        if t <= d.cols:
            with mock.patch.object(dz, "_CHUNK_CELLS", cells):
                res = dz.check_strength(d, t)
            assert not res.ok
            assert_same_check(res, oracle_check_strength(d, t))

    def test_first_failure_past_first_chunk(self):
        # 512 x 511 strength-2 array (every nonzero vector of GF(2)^9 as a
        # column); one flipped cell in column 400 makes (0, 400) the first
        # failing pair, 399 pairs in, past the first chunk.
        points = np.array(gf.span(gf.level_field(2), np.eye(9, dtype=np.int64))[1:])
        d = dz.expand_generator(dz.GeneratorMatrix(2, points.T))
        assert dz._CHUNK_CELLS // d.runs < 399
        assert dz.check_strength(d, 2).ok
        d.matrix[0, 400] ^= 1
        res = dz.check_strength(d, 2)
        assert res.witness == (0, 400)
        assert_same_check(res, oracle_check_strength(d, 2))

    def test_wide_two_level_late_column(self):
        # 8 runs x 200 balanced two-level columns, one cell of column 190
        # corrupted; with one-tuple-wide chunks it lies 190 chunks in.
        base = gf.span(gf.level_field(2), np.eye(3, dtype=np.int64))
        d = dz.Design(2, base[:, np.arange(200) % 3])
        d.matrix[5, 190] ^= 1
        for cells in (1, 16, dz._CHUNK_CELLS):
            with mock.patch.object(dz, "_CHUNK_CELLS", cells):
                res = dz.check_strength(d, 1)
            assert res.witness == (190,)
            assert_same_check(res, oracle_check_strength(d, 1))


def assert_matches_oracle_at_caps(d: dz.Design, t: int):
    """check_strength at t against the oracle, at chunk caps of one
    tuple, of 16 cells and the default; a run where s^t divides N counts
    by popcount exactly when s^t <= 64, and one where it does not counts
    nothing."""
    want = oracle_check_strength(d, t)
    for cells in (1, 16, dz._CHUNK_CELLS):
        with mock.patch.object(dz, "_CHUNK_CELLS", cells), \
                mock.patch.object(dz, "_level_bitsets", wraps=dz._level_bitsets) as spy:
            assert_same_check(dz.check_strength(d, t), want)
        assert spy.called == (d.s**t <= 64 and d.runs % d.s**t == 0)


def tiled(base: np.ndarray, runs: int, s: int) -> list[np.ndarray]:
    """base tiled and cut to the run count (balanced when len(base)
    divides it), and a copy with the last cell of the last column
    corrupted."""
    rows = np.tile(base, (-(-runs // len(base)), 1))[:runs]
    corrupt = rows.copy()
    corrupt[-1, -1] = (corrupt[-1, -1] + 1) % s
    return [rows, corrupt]


class TestPairBitsetWords:
    """t = 2 counts popcounts of 64-row words while s^2 <= 64 and bincounts
    above; run counts on both sides of the byte and word boundaries, each
    at several chunk caps."""

    @pytest.mark.parametrize("s", [2, 3, 5, 7, 9, 11, 13])
    @pytest.mark.parametrize("runs", [1, 7, 8, 9, 63, 64, 65, 129])
    def test_matches_oracle(self, runs, s):
        # the s + 1 columns of OA(s^2, s + 1, s, 2)
        field = gf.level_field(s)
        points = np.vstack([[[0, 1]], np.column_stack([np.ones(s, dtype=np.int64),
                                                       np.arange(s)])])
        for matrix in tiled(gf.span(field, points.T), runs, s):
            assert_matches_oracle_at_caps(dz.Design(s, matrix), 2)


class TestBitsetWords:
    """Every t counts popcounts of the AND of t level bitsets while
    s^t <= 64 and bincounts above; (s, t) on both sides of 64 cells, run
    counts on both sides of the word boundaries."""

    @pytest.mark.parametrize("s,t", [(2, 1), (8, 1), (2, 4), (2, 6), (2, 7),
                                     (3, 3), (4, 3), (5, 3)])
    @pytest.mark.parametrize("runs", [1, 7, 8, 63, 64, 65, 129])
    def test_matches_oracle(self, runs, s, t):
        # the t + 1 columns of OA(s^t, t + 1, s, t): the t coordinates of
        # GF(s)^t and their sum
        field = gf.level_field(s)
        points = np.vstack([np.eye(t, dtype=np.int64), np.ones((1, t), dtype=np.int64)])
        for matrix in tiled(gf.span(field, points.T), runs, s):
            assert_matches_oracle_at_caps(dz.Design(s, matrix), t)


def assert_kernel_matches_oracles(d: dz.Design):
    """check_strength at every t, max_strength and (with three or more
    columns) p_of_d against the oracles at chunk caps of one tuple, of 16
    cells and the default."""
    for cells in (1, 16, dz._CHUNK_CELLS):
        with mock.patch.object(dz, "_CHUNK_CELLS", cells):
            for t in range(1, d.cols + 1):
                assert_same_check(dz.check_strength(d, t), oracle_check_strength(d, t))
            assert dz.max_strength(d) == oracle_max_strength(d)
            if d.cols >= 3:
                assert dz.p_of_d(d) == oracle_p_of_d(d)


def sum_columns(s: int) -> np.ndarray:
    """Rows (x_1, x_2, x_1 + x_2) over GF(s), stacked s times: every pair
    of columns holds each of its s^2 cells s = N / s^2 times, while the
    triple's top-free cell (0, 0, 0) holds s against N / s^3 = 1."""
    field = gf.level_field(s)
    x1, x2 = np.divmod(np.arange(s * s), s)
    rows = np.column_stack([x1, x2, field.add_t[x1, x2]])
    return np.tile(rows, (s, 1))


class TestFaceRule:
    """While s^t <= 64 a tuple holds iff its faces hold and its (s - 1)^t
    top-free cells do: cases where only one of the two fails, and a
    failure found early that counts no face of a tuple past the chunk that
    holds it."""

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_faces_hold_top_free_cell_off(self, s):
        d = dz.Design(s, sum_columns(s))
        table = _oracle_counts(d.matrix, (0, 1, 2), s).reshape(s, s, s)
        assert table[0, 0, 0] == s
        for pair in ((0, 1), (0, 2), (1, 2)):
            assert (_oracle_counts(d.matrix, pair, s) == s).all()
        assert not dz.check_strength(d, 3).ok
        assert_kernel_matches_oracles(d)

    @pytest.mark.parametrize("stacked", [1, 2])
    def test_top_free_cells_exact_face_off(self, stacked):
        # cell (0, 0) holds N / 4, the one top-free cell of a binary pair,
        # while column 0 holds level 0 once and level 1 three times
        rows = np.tile([[0, 0], [1, 1], [1, 1], [1, 0]], (stacked, 1))
        if stacked > 1:
            rows = np.column_stack([rows, np.arange(len(rows)) % 2])
        d = dz.Design(2, rows)
        assert _oracle_counts(d.matrix, (0, 1), 2)[0] == len(rows) // 4
        res = dz.check_strength(d, 2)
        assert res.witness == (0, 1)
        assert_kernel_matches_oracles(d)

    @settings(deadline=None)
    @given(designs(), CHUNK_CAPS, st.booleans())
    def test_without_face_memo(self, d, cells, pairs):
        # every face found again for each batch that asks for it; or, with
        # a memo of d.cols^2 cells, columns and pairs kept and triples and
        # wider tuples found per batch
        with mock.patch.object(dz, "_FACE_MEMO_CELLS", d.cols**2 if pairs else 0), \
                mock.patch.object(dz, "_CHUNK_CELLS", cells):
            for t in range(1, d.cols + 1):
                assert_same_check(dz.check_strength(d, t), oracle_check_strength(d, t))
            if d.cols >= 3:
                assert dz.p_of_d(d) == oracle_p_of_d(d)

    @pytest.mark.parametrize("cells", [1, dz._CHUNK_CELLS])
    def test_early_exit_counts_only_faces_of_scanned_tuples(self, catalog_dir, cells):
        # the survey-s2-k9-m13 rows (512 x 507) lack strength 3 first at
        # (0, 1, 93); the walk stops in the chunk that holds it, and every
        # pair it counted is a face of a triple it scanned, and every column
        # a face of a pair it counted
        d = io.load_json(catalog_dir / "survey-s2-k9-m13.json").design
        counted = {1: set(), 2: set(), 3: []}
        real = dz._CheckContext.counts

        def spy(rule, tuples):
            if tuples.shape[1] == 3:
                counted[3].extend(map(tuple, tuples.tolist()))
            else:
                counted[tuples.shape[1]].update(map(tuple, tuples.tolist()))
            return real(rule, tuples)

        with mock.patch.object(dz, "_CHUNK_CELLS", cells), \
                mock.patch.object(dz._CheckContext, "counts", spy):
            res = dz.check_strength(d, 3)
        assert res.witness == (0, 1, 93)
        assert_same_check(res, oracle_check_strength(d, 3))
        scanned = counted[3]
        assert scanned == list(itertools.islice(itertools.combinations(range(d.cols), 3),
                                                len(scanned)))
        assert (0, 1, 93) in scanned
        if cells == 1:
            assert scanned[-1] == (0, 1, 93)
        faces = {face for triple in scanned for face in itertools.combinations(triple, 2)}
        assert counted[2] <= faces
        assert counted[1] <= {(c,) for pair in counted[2] for c in pair}
        assert len(counted[2]) < math.comb(d.cols, 2) // 50


class TestCombinations:
    """The walk's column tuples in lexicographic chunks, each twice as long
    as the one before up to a cap."""

    @pytest.mark.parametrize("n", range(0, 9))
    @pytest.mark.parametrize("size, most", [(1, None), (2, None), (3, 3), (1, 8), (2, 5),
                                            (50, None)])
    def test_lexicographic_chunks(self, n, size, most):
        top = size if most is None else most
        for t in range(1, n + 1):
            chunks = list(dz._combinations(n, t, size, most))
            want = list(itertools.combinations(range(n), t))
            assert [tuple(c) for chunk in chunks for c in chunk.tolist()] == want
            assert all(chunk.dtype == np.intp and chunk.shape[1] == t for chunk in chunks)
            assert [len(c) for c in chunks[:-1]] == [min(size * 2**k, top)
                                                     for k in range(len(chunks) - 1)]


class TestMaxStrength:
    @settings(deadline=None)
    @given(designs(), st.integers(-1, 1), CHUNK_CAPS)
    def test_top_down_matches_bottom_up(self, d, offset, cells):
        top = largest_dividing_t(d)
        with mock.patch.object(dz, "_CHUNK_CELLS", cells):
            for cap in (None, top + offset):
                assert dz.max_strength(d, cap) == oracle_max_strength(d, cap)

    def test_cap_none_on_wide_design(self):
        # 16 x 40: the top-down search must skip t = 40 .. 5 without
        # counting, never asking for a table of more than 16 cells.
        rng = np.random.default_rng(0)
        base = gf.span(gf.level_field(2), np.eye(4, dtype=np.int64))
        d = dz.Design(2, base[:, rng.integers(0, 4, size=40)])
        with counted_checks() as spy:
            got = dz.max_strength(d)
        assert got == oracle_max_strength(d)
        assert all(2 ** call.args[2] <= d.runs for call in spy.call_args_list)


@st.composite
def linear_designs(draw, max_k=MAX_K, min_k=1):
    """The span of a random, possibly rank-deficient basis of min_k to
    max_k[s] rows over GF(s), with up to two columns zeroed and up to two
    copied onto others, stacked one to three times."""
    s = draw(st.sampled_from(sorted(max_k)))
    k = draw(st.integers(min_k, max_k[s]))
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, s - 1), min_size=n, max_size=n)
    basis = np.array(draw(st.lists(row, min_size=k, max_size=k)), dtype=np.int64)
    col = st.integers(0, n - 1)
    for c in draw(st.lists(col, max_size=2)):
        basis[:, c] = 0
    for a, b in draw(st.lists(st.tuples(col, col), max_size=2)):
        basis[:, b] = basis[:, a]
    rows = gf.span(gf.level_field(s), basis)
    return dz.Design(s, np.tile(rows, (draw(st.integers(1, 3)), 1)))


class TestPofD:
    @settings(deadline=None)
    @given(designs(min_cols=3), CHUNK_CAPS)
    def test_matches_oracle(self, d, cells):
        with mock.patch.object(dz, "_CHUNK_CELLS", cells):
            assert dz.p_of_d(d) == oracle_p_of_d(d)

    @settings(deadline=None)
    @given(designs(min_cols=3), st.data())
    def test_column_subset_matches_oracle(self, d, data):
        cols = data.draw(st.lists(st.integers(0, d.cols - 1), min_size=3,
                                  max_size=d.cols, unique=True))
        assert dz.p_of_d(d, cols) == oracle_p_of_d(d, cols)

    @settings(deadline=None)
    @given(linear_designs({2: 5, 3: 4, 4: 3, 5: 3}, min_k=3).filter(lambda d: d.cols >= 3),
           st.data(), CHUNK_CAPS)
    def test_linear_read_off_pattern(self, d, data, cells):
        # k >= 3, so that s^3 divides N and triples can have strength 3:
        # p = 1 - A_3 / C(m, 3) with nothing counted where A_1 = A_2 = 0,
        # while a zero or a copied column among the subset makes it count
        cols = data.draw(st.lists(st.integers(0, d.cols - 1), min_size=3,
                                  max_size=d.cols, unique=True))
        counted = any(oracle_wlp_of_rows(d.s, d.matrix[:, cols], 2))
        with mock.patch.object(dz, "_CHUNK_CELLS", cells), \
                mock.patch.object(dz._CheckContext, "walk", autospec=True,
                                  side_effect=dz._CheckContext.walk) as spy:
            assert dz.p_of_d(d, cols) == oracle_p_of_d(d, cols)
        assert spy.called == counted

    @settings(deadline=None)
    @given(st.one_of(designs(min_cols=3),
                     st.deferred(lambda: broken_linear_designs()).filter(lambda d: d.cols >= 3),
                     linear_designs({2: 5, 3: 4, 4: 3, 5: 3}, min_k=3).filter(
                         lambda d: d.cols >= 3)),
           st.data())
    def test_held_reading(self, d, data):
        # the group reading a check context holds, to A_3 or whole, is used
        # as it is: linear rows, rows that are not linear, and linear rows
        # whose zero or copied columns give A_1 or A_2 > 0 (then p is counted)
        cols = data.draw(st.lists(st.integers(0, d.cols - 1), min_size=3,
                                  max_size=d.cols, unique=True))
        top = data.draw(st.sampled_from([3, None]))
        ctx = dz._CheckContext(d)
        ctx.read_groups([cols], [top], linear=False)
        with mock.patch.object(dz, "read_subjects", wraps=dz.read_subjects) as read:
            assert ctx.p(cols) == oracle_p_of_d(d, cols)
        assert not read.called

    def test_held_readings_reach_a3(self):
        # a group claimed below strength 3 is read to A_3 by annotate, and
        # p is measured from that reading; columns the context holds no
        # reading for are read once, to A_3
        d = dz.Design(3, gf.span(gf.level_field(3),
                                 [[1, 0, 0, 1, 1], [0, 1, 0, 1, 2], [0, 0, 1, 2, 1]]))
        cols = list(range(5))
        ctx = dz._CheckContext(d)
        dz._annotate(dz.GroupedDesign(d, [dz.Group(cols, 2)]), ctx)
        assert len(ctx.readings[tuple(cols)].pattern) == 3
        with mock.patch.object(dz, "read_subjects", wraps=dz.read_subjects) as read:
            assert ctx.p(cols) == oracle_p_of_d(d, cols)
            assert not read.called
            assert dz.p_of_d(d, cols) == oracle_p_of_d(d, cols)
        assert [call.args[3] for call in read.call_args_list] == [[3]]


@st.composite
def broken_linear_designs(draw):
    """A linear design with one cell shifted, one row dropped or one row
    repeated; nearly always no longer linear."""
    d = draw(linear_designs())
    rows = d.matrix
    r = draw(st.integers(0, len(rows) - 1))
    how = draw(st.sampled_from(["flip", "drop", "repeat"]))
    if how == "flip":
        c = draw(st.integers(0, d.cols - 1))
        rows[r, c] = (rows[r, c] + draw(st.integers(1, d.s - 1))) % d.s
    elif how == "drop":
        rows = np.delete(rows, r, axis=0)
    else:
        rows = np.vstack([rows, rows[r]])
    return dz.Design(d.s, rows)


@st.composite
def reading_cases(draw):
    """A design and a stack of subjects of it, with a cap on each pattern.

    The design is linear, broken-linear, linear with some rows repeated,
    or linear with the levels of one or two columns permuted, which keeps
    s^r distinct rows each repeated equally often yet is usually not
    linear; a constant column is sometimes appended.  Subjects are random
    column lists, one-column and empty ones included."""
    kind = draw(st.sampled_from(["linear", "broken", "repeated", "permuted"]))
    d = draw(broken_linear_designs() if kind == "broken" else linear_designs())
    rows, s = d.matrix, d.s
    if kind == "repeated":
        picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3))
        rows = np.vstack([rows, rows[picks]])
    elif kind == "permuted":
        for c in draw(st.lists(st.integers(0, d.cols - 1), min_size=1, max_size=2)):
            rows[:, c] = np.array(draw(st.permutations(range(s))))[rows[:, c]]
    if draw(st.booleans()):
        rows = np.column_stack([rows, np.full(len(rows), draw(st.integers(0, s - 1)))])
    cols = st.lists(st.integers(0, rows.shape[1] - 1), max_size=rows.shape[1], unique=True)
    subjects = draw(st.lists(st.one_of(cols, st.integers(0, rows.shape[1] - 1).map(lambda c: [c])),
                             min_size=1, max_size=5))
    tops = draw(st.none() | st.lists(st.none() | st.integers(0, 6),
                                     min_size=len(subjects), max_size=len(subjects)))
    return dz.Design(s, rows), subjects, tops


# s = 97 rows are the span of one row: 97 of them
STACK_K = {2: 4, 3: 3, 4: 2, 5: 2, 8: 2, 9: 2, 97: 1}


@st.composite
def stack_cases(draw):
    """A design over GF(s), s in STACK_K, and subjects in one of the three
    stack shapes of read_subjects: the whole array as the only subject,
    read in place; groups of one width, which need no zero padding; and
    ragged groups, which do.  Every column in a drawn order, as the only
    subject, is a group: it is read in place only in the identity order.
    The design is linear, has one cell shifted, one row repeated, or the
    levels of one column permuted."""
    d = draw(linear_designs(STACK_K))
    rows, s = d.matrix, d.s
    how = draw(st.sampled_from(["linear", "shifted", "repeated", "permuted"]))
    r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, d.cols - 1))
    if how == "shifted":
        rows[r, c] = (rows[r, c] + draw(st.integers(1, s - 1))) % s
    elif how == "repeated":
        rows = np.vstack([rows, rows[r]])
    elif how == "permuted":
        rows[:, c] = np.array(draw(st.permutations(range(s))), dtype=np.uint8)[rows[:, c]]
    shape = draw(st.sampled_from(["whole", "reordered", "equal", "ragged"]))
    n = rows.shape[1]
    if shape == "whole":
        subjects = [list(range(n))]
    elif shape == "reordered":
        subjects = [draw(st.permutations(range(n)))]
    else:
        widths = (draw(st.lists(st.integers(1, n), min_size=2, max_size=5)) if shape == "ragged"
                  else [draw(st.integers(1, n))] * draw(st.integers(1, 5)))
        if shape == "ragged" and len(set(widths)) == 1:
            widths[0] = 0 if widths[0] > 1 else 2
        subjects = [draw(st.permutations(range(n)))[:w] for w in widths]
    tops = draw(st.none() | st.lists(st.none() | st.integers(0, 6),
                                     min_size=len(subjects), max_size=len(subjects)))
    return dz.Design(s, rows), subjects, tops


class TestReadSubjects:
    """The batched reading of a stack of subjects against the one-subject
    oracles: the linear test and RREF basis, and the MacWilliams pattern."""

    @settings(max_examples=300, deadline=None)
    @given(reading_cases(), SPAN_BLOCKS)
    def test_matches_oracles(self, case, cells):
        d, subjects, tops = case
        with mock.patch.object(dz, "_SPAN_CELLS", cells):
            readings = dz.read_subjects(d.s, d.matrix, subjects, tops)
        assert len(readings) == len(subjects)
        every = tops or [None] * len(subjects)
        for cols, top, (pattern, basis) in zip(subjects, every, readings):
            rows = d.matrix[:, cols]
            want = oracle_linear_basis(d.s, rows)
            if want is None:
                assert pattern is None and basis is None
                continue
            assert np.array_equal(basis, want)
            assert pattern == oracle_wlp_of_rows(d.s, rows, None if top is None
                                                 else min(top, len(cols)))

    @settings(max_examples=300, deadline=None)
    @given(stack_cases(), SPAN_BLOCKS)
    def test_stack_shapes_match_oracles(self, case, cells):
        # the matrix is read-only: the whole array is read in place, and no
        # shape may write to it
        d, subjects, tops = case
        matrix = d.matrix.copy()
        matrix.flags.writeable = False
        with mock.patch.object(dz, "_SPAN_CELLS", cells):
            readings = dz.read_subjects(d.s, matrix, subjects, tops)
        assert np.array_equal(matrix, d.matrix)
        assert len(readings) == len(subjects)
        for cols, top, (pattern, basis) in zip(subjects, tops or [None] * len(subjects),
                                               readings):
            rows = d.matrix[:, cols]
            want = oracle_linear_basis(d.s, rows)
            if want is None:
                assert pattern is None and basis is None
                continue
            assert np.array_equal(basis, want)
            assert pattern == oracle_wlp_of_rows(d.s, rows, None if top is None
                                                 else min(top, len(cols)))

    def test_weights_past_two_bytes(self):
        # the span of the all-ones row of 70,000 columns: a row weight of
        # 70,000 must be summed exactly, so A_2 = C(70000, 2)
        matrix = np.zeros((2, 70_000), dtype=np.uint8)
        matrix[1] = 1
        (reading,) = dz.read_subjects(2, matrix, [range(70_000)], [2])
        assert reading.pattern == (0, 2_449_965_000) == (0, math.comb(70_000, 2))
        assert np.array_equal(reading.basis, matrix[1:])

    @settings(deadline=None)
    @given(reading_cases())
    def test_given_linear_reads_the_same_patterns(self, case):
        d, subjects, tops = case
        if oracle_linear_basis(d.s, d.matrix) is None:
            return
        tested = dz.read_subjects(d.s, d.matrix, subjects, tops)
        assumed = dz.read_subjects(d.s, d.matrix, subjects, tops, linear=True)
        assert [r.pattern for r in assumed] == [r.pattern for r in tested]
        assert all(r.basis is None for r in assumed)

    @pytest.mark.parametrize("cells", [1, 16, 18, 256, 16384, dz._SPAN_CELLS])
    def test_last_distinct_row_decides(self, cells):
        # the span of two rows over GF(3), and a copy whose last sorted
        # distinct row (2, 2, 1) is moved off the space to (2, 2, 2): both
        # have nine distinct rows, each once, so only the span of their
        # basis, in its last row, tells them apart, in blocks of one column
        # (cells 1 and 16), of two (18: edges inside each subject), and of
        # the whole stack (256 up to the default)
        space = gf.span(gf.level_field(3), [[1, 0, 1], [0, 1, 1]])
        broken = space.copy()
        assert broken[-1].tolist() == [2, 2, 1]
        broken[-1, 2] = 2
        matrix = np.hstack([space, broken, space])
        subjects = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        assert [oracle_linear_basis(3, matrix[:, c]) is None for c in subjects] == [
            False, True, False]
        with mock.patch.object(dz, "_SPAN_CELLS", cells):
            first, middle, last = dz.read_subjects(3, matrix, subjects)
        assert middle == dz.Reading(None, None)
        for reading in (first, last):
            assert np.array_equal(reading.basis, [[1, 0, 1], [0, 1, 1]])
            assert reading.pattern == (0, 0, 1)

    @pytest.mark.parametrize("subjects", [[range(10)], [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]])
    def test_nothing_linear_reads_no_weights(self, thm1_3, subjects):
        # column 0 shifted to (x + 1) mod 3: neither the whole array nor any
        # subject holding column 0 is linear; the groups without it are, so
        # a stack of those and the shifted group still reads their patterns
        matrix = thm1_3.design.matrix.copy()
        matrix[:, 0] = (matrix[:, 0] + 1) % 3
        shifted = [list(subjects[0])]
        with mock.patch.object(dz, "wlp_from_weights",
                               side_effect=AssertionError("weights were read")):
            assert dz.read_subjects(3, matrix, shifted) == [dz.Reading(None, None)]
        readings = dz.read_subjects(3, matrix, subjects)
        for cols, (pattern, basis) in zip(subjects, readings):
            want = oracle_linear_basis(3, matrix[:, list(cols)])
            assert (basis is None) == (want is None) == (0 in cols)
            assert pattern == (None if want is None
                               else oracle_wlp_of_rows(3, matrix[:, list(cols)]))

    @pytest.mark.parametrize("s", [101, 6])
    def test_no_field_no_pattern(self, s):
        assert dz.read_subjects(s, np.zeros((4, 2), dtype=np.int64), [[0], [1], []]) == [
            dz.Reading(None, None)] * 3

    def test_power_of_s_rows_not_linear(self):
        # {(a, a)} over GF(5) with levels 1 and 2 of column 1 swapped: five
        # distinct rows, each once, yet (1, 2) + (1, 2) = (2, 4) is no row
        rows = np.array([[a, [0, 2, 1, 3, 4][a]] for a in range(5)] * 2, dtype=np.uint8)
        assert oracle_linear_basis(5, rows) is None
        both, first, second = dz.read_subjects(5, rows, [[0, 1], [0], [1]])
        assert both == dz.Reading(None, None)
        assert first.pattern == second.pattern == (0,)

    def test_constant_subjects(self):
        # a zero column is the space {0}, r = 0; a nonzero constant is its coset
        m = np.array([[0, 1], [0, 1], [0, 1]])
        (zero, ones, empty) = dz.read_subjects(3, m, [[0], [1], []])
        assert zero.pattern == (1,) and zero.basis.shape == (0, 1)
        assert ones == dz.Reading(None, None)
        assert empty.pattern == () and empty.basis.shape == (0, 0)


def random_basis(s: int, width: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k random independent rows of GF(s)^width."""
    while gf.mat_rank(gf.level_field(s), basis := rng.integers(0, s, (k, width))) < k:
        pass
    return basis


def boundary_matrix(s: int, width: int, k: int, seed: int) -> np.ndarray:
    """Four blocks of `width` columns and 2 s^k rows over one random rank-k
    space: linear (each row twice); uneven (one row three times, another
    once); a coset (a vector off the space added to every row, so row 0 is
    not zero); and the space with its last sorted distinct row moved by
    one cell, which keeps s^k distinct rows, each twice, in the draws the
    tests make."""
    rng = np.random.default_rng(seed)
    field = gf.level_field(s)
    basis = random_basis(s, width, k + 1, rng)
    space = gf.span(field, basis[:k])
    linear = np.vstack([space, space])
    uneven = linear.copy()
    uneven[len(space) + 1] = space[2]
    coset = field.add_t[linear, basis[k]]
    last = linear.copy()
    top = np.lexsort(space.T[::-1])[-1]
    last[[top, len(space) + top], -1] = field.add_t[space[top, -1], 1]
    return np.hstack([linear, uneven, coset, last]).astype(np.uint8)  # a level matrix


def span_check_blocks(s: int, k: int) -> np.ndarray:
    """Four blocks of k + 2 columns over one rank-k space whose basis is
    (I_k | random), so the first k cells fix a row: linear; a coset (row 0
    nonzero); the space with its last sorted row moved by one cell, which
    keeps s^k distinct rows and differs from the span of its basis only in
    that row; and the space with rows repeated."""
    field = gf.level_field(s)
    rng = np.random.default_rng(s)
    basis = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, s, (k, 2))])
    space = gf.span(field, basis)
    coset = field.add_t[space, rng.integers(1, s, k + 2)]
    last = space.copy()
    assert space[-1, :k].tolist() == [s - 1] * k  # the last in sorted order
    last[-1, -1] = field.add_t[last[-1, -1], 1]
    doubled = np.vstack([space[::2], space[1::2]])
    return np.hstack([space, coset, last, doubled]).astype(np.uint8)  # a level matrix


class TestSpanCheck:
    """The linear test's comparison of the rows with gf.span of their
    basis, in uint8 over every kind of level field, against the one-subject
    oracles: verdicts, RREF bases and patterns of a stack that holds failing
    subjects among passing ones, in column blocks of one column, blocks
    whose edges fall inside subjects, and the default; and one subject
    wider than a default block.  cells is _SPAN_CELLS, the labels of a
    block's span."""

    @pytest.mark.parametrize("cells", [1, 256, 16384, dz._SPAN_CELLS])
    @pytest.mark.parametrize("s, k", [(2, 5), (3, 3), (4, 3), (5, 2), (8, 2), (9, 2), (97, 2)])
    def test_matches_oracles(self, s, k, cells):
        matrix = span_check_blocks(s, k)
        w = k + 2
        linear, coset, last, doubled = (list(range(b * w, (b + 1) * w)) for b in range(4))
        # failing subjects in the middle of the stack, and projections of lower rank
        kinds = [linear, last, doubled, coset, linear[1:], last, linear[k:] + linear[:1], linear]
        subjects = kinds * 2
        tops = [None if i % 3 else 3 for i in range(len(subjects))]
        # _SPAN_CELLS // s^k columns a block at rank k: one at cells 1, and 1
        # to 10 at 256, so that block edges fall inside subjects; at 16384 and
        # at the default, the whole stack but at s = 97
        with mock.patch.object(dz, "_SPAN_CELLS", cells):
            readings = dz.read_subjects(s, matrix, subjects, tops)
        wants = {}
        for cols, top, (pattern, basis) in zip(subjects, tops, readings):
            rows = matrix[:, cols]
            key = tuple(cols)
            if key not in wants:
                wants[key] = oracle_linear_basis(s, rows)
            want = wants[key]
            if want is None:
                assert pattern is None and basis is None
                continue
            assert basis.dtype == np.int64 and np.array_equal(basis, want)
            assert pattern == oracle_wlp_of_rows(s, rows, None if top is None
                                                 else min(top, len(cols)))
        assert [wants[tuple(c)] is not None for c in kinds] == [
            True, False, True, False, True, False, True, True]

    def test_subject_wider_than_a_block(self):
        # 2^12 distinct rows, so a default block spans 256 columns and each
        # 300-column subject two blocks or more: linear, uneven, a coset, and
        # the space with its last sorted row moved in its last column, past
        # its first block
        s, width, k = 2, 300, 12
        assert dz._SPAN_CELLS // s**k < width
        matrix = boundary_matrix(s, width, k, seed=width)
        subjects = [range(b * width, (b + 1) * width) for b in range(4)]
        linear, *failing = dz.read_subjects(s, matrix, subjects, [3] * 4)
        rows = matrix[:, subjects[0]]
        assert np.array_equal(linear.basis, oracle_linear_basis(s, rows))
        assert linear.pattern == oracle_wlp_of_rows(s, rows, 3)
        for cols, reading in zip(subjects[1:], failing):
            assert oracle_linear_basis(s, matrix[:, cols]) is None
            assert reading == dz.Reading(None, None)


class TestPopcountWords:
    """The popcount walk, over W = 1, 2, 8 and 10 words of 64 rows: every
    tuple's (s - 1)^t top-free counts against those cells of the oracle's
    table, and its verdict against the oracle's, where s^t divides N; and
    check_strength against the oracle, its witness the lexicographically
    first failing tuple."""

    @pytest.mark.parametrize("runs, s, words", [(64, 2, 1), (65, 2, 2), (72, 2, 2),
                                                (486, 3, 8), (640, 2, 10), (640, 4, 10)])
    def test_matches_oracle(self, runs, s, words):
        # OA(s^3, 4, s, 3), the coordinates of GF(s)^3 and their sum, tiled
        field = gf.level_field(s)
        points = np.vstack([np.eye(3, dtype=np.int64), np.ones((1, 3), dtype=np.int64)])
        base = gf.span(field, points.T)
        for matrix in tiled(np.hstack([base, base[:, ::-1]]), runs, s):
            matrix[7, 5] = (matrix[7, 5] + 1) % s
            assert dz._level_bitsets(matrix, s).shape[2] == words
            d = dz.Design(s, matrix)
            for t in (1, 2, 3):
                assert s**t <= 64
                if runs % s**t == 0:
                    want = runs // s**t
                    ctx = dz._CheckContext(d)
                    for tuples, ok in ctx.walk(range(d.cols), t):
                        counts = ctx.counts(tuples)
                        for cols, count, holds in zip(tuples.tolist(), counts, ok):
                            table = _oracle_counts(matrix, cols, s).reshape((s,) * t)
                            top_free = table[(slice(0, s - 1),) * t].ravel()
                            assert np.array_equal(count, top_free)
                            assert holds == (table == want).all()
                assert_matches_oracle_at_caps(d, t)


class TestRowKeys:
    """The linear test keys each row by its base-s integer code while
    s^M < 2^63 for a stack M columns wide, and by its bytes above; both
    sort the rows in the order of their digits, and the readings match
    the oracles on either side of the limit."""

    @pytest.mark.parametrize("s, width, k, kind", [
        (2, 62, 4, "i"), (2, 63, 4, "V"), (2, 64, 4, "V"),
        (3, 39, 3, "i"), (3, 40, 3, "V"),
        (97, 9, 2, "i"), (97, 10, 2, "V"),
    ])
    def test_either_side_of_the_code_limit(self, s, width, k, kind):
        matrix = boundary_matrix(s, width, k, seed=width)
        coset = matrix[:, 2 * width:3 * width]
        keys = dz._row_keys(coset[:, None, :].astype(np.uint8), s)
        assert keys.dtype.kind == kind
        assert np.array_equal(coset[np.argsort(keys[0])], coset[np.lexsort(coset.T[::-1])])
        # one zero-padded stack `width` wide: the four whole blocks, and
        # narrower projections of the linear and uneven blocks
        blocks = [list(range(b * width, (b + 1) * width)) for b in range(4)]
        subjects = blocks + [blocks[0][:-1], blocks[0][:3], blocks[1][:5], []]
        tops = [None, 3, 3, 3, 4, None, None, None]
        readings = dz.read_subjects(s, matrix, subjects, tops)
        verdicts = []
        for cols, top, (pattern, basis) in zip(subjects, tops, readings):
            rows = matrix[:, cols]
            want = oracle_linear_basis(s, rows)
            verdicts.append(want is not None)
            if want is None:
                assert pattern is None and basis is None
                continue
            assert np.array_equal(basis, want)
            assert pattern == oracle_wlp_of_rows(s, rows, None if top is None
                                                 else min(top, len(cols)))
        assert verdicts[:4] == [True, False, False, False]


class TestKrawtchoukDtype:
    """The Krawtchouk pass of read_subjects runs in int64 only where
    _krawtchouk_fits shows that nothing it forms can reach 2^63, and its
    patterns match the oracle on either side of that bound."""

    @settings(deadline=None)
    @given(st.sampled_from([2, 3, 4, 5, 7, 97]), st.integers(0, 70), st.data())
    def test_bound_covers_every_value(self, s, m, data):
        # the bound is max over j <= steps of s m (s - 1)^j C(m, j) N < 2^62,
        # and where it holds no value of the pass reaches 2^63
        steps = data.draw(st.integers(0, m))
        n = data.draw(st.integers(1, 1 << 20))
        stated = max(s * m * (s - 1) ** j * math.comb(m, j) * n for j in range(steps + 1))
        assert dz._krawtchouk_fits(s, n, m, steps) == (stated < 1 << 62)
        if stated >= 1 << 62:
            return
        weights = range(m + 1)
        prev, cur = [0] * (m + 1), [1] * (m + 1)
        most = n
        for j in range(steps):
            a = [((s - 1) * (m - j) + j - s * i) * c for i, c in zip(weights, cur)]
            b = [(s - 1) * (m - j + 1) * c for c in prev]
            prev, cur = cur, [(x - y) // (j + 1) for x, y in zip(a, b)]
            # the weighted sums are at most n max |K_j(i)|
            most = max(most, *map(abs, a), *map(abs, b),
                       *(abs(x - y) for x, y in zip(a, b)), n * max(map(abs, cur)))
        assert most < 1 << 63

    @pytest.mark.parametrize("s, k, sizes", [
        # a wide binary subject's full pattern, where (s - 1)^j C(m, j)
        # peaks at C(m, m/2), crosses the bound at some width m
        (2, 4, [(m, m) for m in range(1, 100)]),
        # a 40-column ternary subject's pattern crosses it at some top t
        (3, 3, [(40, t) for t in range(1, 41)]),
    ], ids=["binary-full", "ternary-top"])
    def test_patterns_either_side_of_the_bound(self, s, k, sizes):
        n = s**k
        fits = [dz._krawtchouk_fits(s, n, m, t) for m, t in sizes]
        edge = fits.index(False)
        assert edge and not any(fits[edge:])
        rng = np.random.default_rng(s)
        for m, t in sizes[edge - 1:edge + 1]:
            rows = gf.span(gf.level_field(s), random_basis(s, m, k, rng))
            with mock.patch.object(dz, "_krawtchouk_fits", wraps=dz._krawtchouk_fits) as spy:
                pattern = dz.read_subjects(s, rows, [range(m)], [t], linear=True)[0].pattern
            assert spy.call_args.args == (s, n, m, t)
            assert pattern == oracle_wlp_of_rows(s, rows, t)


def read_all(d: dz.Design, t: int | None = None, linear: bool = False) -> dz.Reading:
    """The reading of the whole design as one subject."""
    return dz.read_subjects(d.s, d.matrix, [range(d.cols)], [t], linear=linear)[0]


class TestDualDistance:
    """A linear design's strength is d⊥ - 1, read off its wordlength
    pattern with nothing counted; any other design is counted."""

    @settings(deadline=None)
    @given(linear_designs())
    def test_linear_strength_matches_oracle(self, d):
        basis = read_all(d).basis
        assert basis is not None
        assert np.array_equal(basis, oracle_linear_basis(d.s, d.matrix))
        assert d.s ** len(basis) == len(np.unique(d.matrix, axis=0))
        assert gf.mat_rank(gf.level_field(d.s), np.vstack([basis, d.matrix])) == len(basis)
        with counted_checks() as spy:
            gd = dz.annotate(dz.GroupedDesign(d, [dz.Group(list(range(d.cols)), d.cols)],
                                              claimed_t0=d.cols))
        assert gd.verified_t0 == gd.groups[0].verified_strength == oracle_max_strength(d)
        assert not spy.called
        for t in range(1, d.cols + 1):
            want = oracle_check_strength(d, t)
            with counted_checks() as spy:
                # a failure is counted, for check_strength's witness
                pattern = read_all(d, t, linear=True).pattern
                assert pattern == oracle_wlp_of_rows(d.s, d.matrix, t)
                assert_same_check(dz._CheckContext(d).strength(range(d.cols), t, pattern), want)
            assert spy.call_count == (not want.ok)

    @settings(deadline=None)
    @given(broken_linear_designs())
    def test_nonlinear_design_is_counted(self, d):
        linear = oracle_is_linear(d)
        assert (read_all(d).basis is not None) == linear
        assert (oracle_linear_basis(d.s, d.matrix) is not None) == linear
        for t in range(1, d.cols + 1):
            want = oracle_check_strength(d, t)
            with counted_checks() as spy:
                pattern = read_all(d, t).pattern
                assert pattern == (oracle_wlp_of_rows(d.s, d.matrix, t) if linear else None)
                assert_same_check(dz._CheckContext(d).strength(range(d.cols), t, pattern), want)
            if not linear:
                assert spy.call_count == 1
        with counted_checks() as spy:
            gd = dz.annotate(dz.GroupedDesign(d, [], claimed_t0=d.cols))
        assert gd.verified_t0 == oracle_max_strength(d, d.cols)
        if linear:
            assert not spy.called


@functools.cache
def thm1_rows(s: int) -> np.ndarray:
    return cx.construct_thm1(s).design.matrix


@st.composite
def relabelled_thm1(draw):
    """(design, base, broken): a column subset base of thm1 at s in
    {2, 3, 4, 5}, each column's levels permuted at random and, when
    broken (half the time), one cell set to (x + 1) mod s."""
    s = draw(st.sampled_from([2, 3, 4, 5]))
    rows = thm1_rows(s)
    cols = draw(st.lists(st.integers(0, rows.shape[1] - 1), min_size=1, unique=True))
    base = rows[:, cols].astype(np.int64)
    perms = np.array(draw(st.lists(st.permutations(range(s)), min_size=len(cols),
                                   max_size=len(cols))))
    matrix = perms[np.arange(len(cols)), base]
    broken = draw(st.booleans())
    if broken:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(cols) - 1))
        matrix[i, j] = (matrix[i, j] + 1) % s
    return dz.Design(s, matrix), base, broken


class TestGeneralizedPattern:
    """Strength t holds iff A_1 = ... = A_t = 0 of the generalized
    wordlength pattern, which the oracle reads off the distances between
    rows, not off any projection; the designs are mostly not linear, so
    they are counted."""

    @settings(deadline=None, max_examples=40)
    @given(relabelled_thm1())
    def test_strength_is_a_vanishing_head(self, case):
        d, base, broken = case
        gwlp = oracle_gwlp(d.matrix, d.s)
        if not broken:
            assert gwlp == tuple((d.s - 1) * d.runs**2 * a
                                 for a in oracle_wlp_of_rows(d.s, base))
        vanish = [not any(gwlp[:t]) for t in range(d.cols + 1)]
        for t in range(1, d.cols + 1):
            if d.runs % d.s**t == 0:
                assert dz.check_strength(d, t).ok == vanish[t]
        assert dz.max_strength(d) == max(t for t in range(d.cols + 1) if vanish[t])


@st.composite
def grouped_bases(draw):
    """A linear, broken-linear or thm1 design cut into disjoint groups of
    one to six columns, which need not cover every column.  Few random
    linear designs reach strength 3; the thm1 arrays, whose groups have it
    and whose other triples often lack it, supply the groups that pass."""
    d = draw(st.one_of(linear_designs(), broken_linear_designs(),
                       st.sampled_from([2, 3, 4]).map(lambda s: cx.construct_thm1(s).design)))
    cols = draw(st.permutations(range(d.cols)))
    groups, at = [], 0
    for width in draw(st.lists(st.integers(1, 6), min_size=1, max_size=d.cols)):
        if at < d.cols:
            groups.append(cols[at:at + width])
            at += width
    return dz.GroupedDesign(d, [dz.Group(g, min(3, len(g))) for g in groups], claimed_t0=0)


def refused(build) -> bool:
    try:
        build()
    except StrengthPrereqError:
        return True
    return False


class TestStrengthPrereqs:
    """prop1 and thm2 take a base, or each base group, only at strength 3:
    a group narrower than three columns is refused like any weak one."""

    @settings(deadline=None)
    @given(grouped_bases())
    def test_refused_exactly_below_strength3(self, b):
        bases = [dz.Design(b.design.s, b.design.matrix[:, g.columns]) for g in b.groups]
        weak = [base.cols < 3 or not oracle_check_strength(base, 3).ok for base in bases]
        one = cx.DifferenceScheme(b.design.s, [[0]])  # A (+) B is B itself
        assert refused(lambda: cx.construct_thm2(one, b)) == any(weak)
        for base, want in zip(bases, weak):
            assert refused(lambda: cx.construct_prop1(one, [[0]], base)) == want


class TestOneContext:
    """Every count on one design goes through one check context: the
    bitsets are built once, each tuple of columns decided once while its
    memo fits, for the whole array, its groups and their p, and a group's
    witness names positions in its own columns, which may come in any
    order."""

    def test_verify_decides_each_pair_once(self, catalog_dir, capsys):
        # goa486-thm2 (486 x 108, groups of 30, 30, 24 and 24 columns) is
        # not linear: the array's strength 2, each group's and each group's
        # p are all counted
        counted = {1: [], 2: [], 3: []}
        real = dz._CheckContext.counts

        def spy(ctx, tuples):
            counted[tuples.shape[1]].extend(map(tuple, tuples.tolist()))
            return real(ctx, tuples)

        with mock.patch.object(dz._CheckContext, "counts", spy), \
                mock.patch.object(dz, "_level_bitsets", wraps=dz._level_bitsets) as bits:
            assert cli.main(["verify", str(catalog_dir / "goa486-thm2.json")]) == 0
        assert capsys.readouterr().out.endswith("all claims hold\n")
        assert bits.call_count == 1
        assert sorted(counted[1]) == [(c,) for c in range(108)]
        assert sorted(counted[2]) == list(itertools.combinations(range(108), 2))
        assert len(counted[2]) == 5778

    def test_strength_and_p_share_their_triples(self, thm1_3):
        # group 0 of thm1-s3 (27 x 10, columns 0..3) with column 0 shifted
        # to (x + 1) mod 3: its rows are not linear, so its strength 3 and
        # its p are both counted, and p finds its four triples kept; only
        # the group's four columns are decided, on demand
        matrix = thm1_3.design.matrix.copy()
        matrix[:, 0] = (matrix[:, 0] + 1) % 3
        d = dz.Design(3, matrix)
        cols = thm1_3.groups[0].columns
        counted = {1: [], 2: [], 3: []}
        real = dz._CheckContext.counts

        def spy(ctx, tuples):
            counted[tuples.shape[1]].extend(map(tuple, tuples.tolist()))
            return real(ctx, tuples)

        ctx = dz._CheckContext(d)
        with mock.patch.object(dz._CheckContext, "counts", spy):
            assert ctx.check(cols, 3).ok
            assert ctx.p(cols) == oracle_p_of_d(d, cols) == 1
        assert sorted(counted[3]) == list(itertools.combinations(cols, 3))
        assert sorted(counted[2]) == list(itertools.combinations(cols, 2))
        assert sorted(counted[1]) == [(c,) for c in cols]

    def test_kronecker_p_in_the_annotation_context(self, ebert3):
        # thm2's two groupings of one A (+) B: each is annotated and its p
        # measured in one context, so neither reads a group again nor
        # builds a second set of bitsets; the linear base builds none
        ds = cx.ds_catalog(3, 6, 6)
        with mock.patch.object(dz, "read_subjects", wraps=dz.read_subjects) as read, \
                mock.patch.object(dz, "_level_bitsets", wraps=dz._level_bitsets) as bits:
            out = cx.construct_thm2(ds, ebert3)
        groups = [len(ebert3.groups), len(out.grouped.groups), len(out.nested.groups)]
        assert [len(c.args[2]) for c in read.call_args_list] == [
            n for g in groups for n in (1, g)]
        assert bits.call_count == 2
        assert all(grp.p == oracle_p_of_d(out.grouped.design, grp.columns)
                   for grp in out.grouped.groups)

    @settings(deadline=None)
    @given(grouped_bases(), CHUNK_CAPS)
    def test_groups_match_the_gathered_oracle(self, gd, cells):
        # annotate, then verify_claims of the same claims and of each
        # group's p, after the whole array's pairs are decided
        d = gd.design
        subs = [dz.Design(d.s, d.matrix[:, grp.columns]) for grp in gd.groups]
        gd.claimed_t0 = min(2, d.cols)
        with mock.patch.object(dz, "_CHUNK_CELLS", cells):
            dz.annotate(gd)
            for grp, sub in zip(gd.groups, subs):
                assert grp.verified_strength == oracle_max_strength(sub, grp.claimed_strength)
                grp.p = oracle_p_of_d(d, grp.columns) if grp.size >= 3 else None
            gd.verified_t0 = None
            report = dz.verify_claims(gd)
        for idx, (grp, sub) in enumerate(zip(gd.groups, subs)):
            name = f"group {idx + 1} ({grp.size} cols)"
            [check] = [c for c in report.checks if c.subject == name and
                       c.claim.startswith("strength ")]
            t = grp.claimed_strength
            assert check.claim == f"strength {t}"
            if d.runs % d.s**t:
                assert (check.ok, check.detail) == (False, "s^t does not divide N")
            else:
                want = oracle_check_strength(sub, t)
                assert check.ok == want.ok
                assert check.detail == ("" if want.ok else f"witness columns {want.witness}")
            if grp.p is not None:
                assert [c.ok for c in report.checks
                        if c.subject == name and c.claim == "triple proportion p"] == [True]
        # the report's context, all those verdicts kept, checks each group
        # at every t as the oracle checks it gathered, its witness and table
        with mock.patch.object(dz, "_CHUNK_CELLS", cells):
            for grp, sub in zip(gd.groups, subs):
                for t in range(1, grp.size + 1):
                    assert_same_check(report.context.check(grp.columns, t),
                                      oracle_check_strength(sub, t))
