import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goa import constructions as cx
from goa import designs as dz
from goa import gf
from goa.errors import (
    BadBlockSizeError,
    DegenerateSizeError,
    LevelMismatchError,
    NotPrimePowerError,
    ParameterRangeError,
    SearchExhaustedError,
    StrengthPrereqError,
    TooFewGroupsError,
    UnsupportedShapeError,
    WrongDegreeError,
)

from conftest import (
    oracle_ds_search,
    oracle_ext_field_walk,
    oracle_f_statistics,
    oracle_group_wlp_for_poly,
    oracle_ma_regular_oa,
    oracle_prop2_i,
    oracle_prop2_ii,
    oracle_proxy_key,
    oracle_wlp,
    oracle_wlp_rank_key,
    shifted_word_basis,
)

OVAL_S5_ROWS = [
    ["111110", "012340", "014411"],
    ["11111", "01234", "12002"],
    ["11111", "01234", "23113"],
    ["11111", "01234", "34224"],
    ["11111", "01234", "40330"],
]

CAP_S3_ROWS = [
    ["1111201121", "0210110202", "0010021122", "0002220212"],
    ["0002220212", "1112011212", "0210110202", "0010021122"],
    ["0010021122", "0022202120", "1112011212", "0210110202"],
    ["0210110202", "0100211220", "0022202120", "1112011212"],
]


def generator_blocks(gd):
    out = []
    for grp in gd.groups:
        block = gd.generator.matrix[:, grp.columns]
        out.append(["".join(str(int(x)) for x in row) for row in block])
    return out


class TestThm1:
    def test_s5_generator_frozen(self):
        assert generator_blocks(cx.construct_thm1(5)) == OVAL_S5_ROWS

    def test_s3_label(self, thm1_3):
        assert thm1_3.group_sizes == (4, 3, 3)
        assert all(g.verified_strength == 3 for g in thm1_3.groups)
        assert thm1_3.verified_t0 == 2

    def test_s2_degenerate_group(self):
        gd = cx.construct_thm1(2)
        assert gd.group_sizes == (3, 2)
        assert [g.verified_strength for g in gd.groups] == [3, 2]
        assert gd.verified_t0 == 2

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_strengths_all_s(self, s):
        gd = cx.construct_thm1(s)
        assert gd.design.runs == s**3
        assert gd.group_sizes == (s + 1,) + (s,) * (s - 1)
        for grp in gd.groups:
            assert grp.verified_strength == min(3, grp.size)
        assert gd.verified_t0 == 2

    def test_not_prime_power(self):
        with pytest.raises(NotPrimePowerError):
            cx.construct_thm1(6)


class TestEbert:
    def test_s3_generator_frozen(self, ebert3):
        assert generator_blocks(ebert3) == CAP_S3_ROWS

    def test_s2(self, ebert2):
        assert ebert2.design.runs == 16
        assert ebert2.group_sizes == (5, 5, 5)
        assert all(g.verified_strength == 3 for g in ebert2.groups)

    def test_caps_partition_pg(self, ebert3):
        cols = {tuple(col) for col in ebert3.generator.matrix.T}
        pts = set(map(tuple, dz.pg_points(gf.ext_field(3, 4, (2, 1, 0, 0, 1))).tolist()))
        assert cols == pts and len(cols) == 40

    def test_wrong_degree(self):
        with pytest.raises(WrongDegreeError):
            cx.construct_ebert(gf.ext_field(3, 3, gf.find_primitive_polys(3, 3)[0]))


# every shape ds_search admits with r*c <= 36 cells: s a prime power, s | r,
# at most DS_SEARCH_COLUMN_LIMIT balanced columns
ORACLE_DS_SHAPES = [
    (s, r, c) for s in range(2, 37) if len(gf.factorize(s)) == 1
    for r in range(s, 37, s)
    if math.factorial(r) // math.factorial(r // s) ** s <= cx.DS_SEARCH_COLUMN_LIMIT
    for c in range(1, 36 // r + 1)
]


class TestDifferenceSchemes:
    def test_sss_catalog(self):
        for s in (2, 3, 4, 5):
            ds = cx.ds_catalog(s, s, s)
            assert cx.is_difference_scheme(ds.matrix, s)

    def test_2s_catalog(self):
        for s in (2, 3, 4, 5):
            ds = cx.ds_catalog(s, 2 * s, 2 * s)
            assert cx.is_difference_scheme(ds.matrix, s)

    def test_unsupported_shape(self):
        with pytest.raises(UnsupportedShapeError):
            cx.ds_catalog(3, 9, 6)

    def test_search_finds_3_3_3(self):
        ds = cx.ds_search(3, 3, 3)
        assert cx.is_difference_scheme(ds.matrix, 3)

    def test_search_finds_6_6_3(self):
        ds = cx.ds_search(3, 6, 6)
        assert ds.matrix.shape == (6, 6)
        assert cx.is_difference_scheme(ds.matrix, 3)

    def test_unbalanced_scheme_fails(self):
        matrix = cx.ds_catalog(3, 6, 6).matrix.copy()
        matrix[0, 1] = (matrix[0, 1] + 1) % 3
        assert not cx.is_difference_scheme(matrix, 3)
        assert cx.is_difference_scheme(matrix[:, :1], 3)

    def test_search_deterministic(self):
        a = cx.ds_search(3, 6, 6)
        b = cx.ds_search(3, 6, 6)
        assert np.array_equal(a.matrix, b.matrix)

    def test_search_3_15_3_in_narrow_columns(self):
        # 252,252 balanced columns of 15 cells, one byte a cell: the first
        # filter pass peaked at 92 MB traced when they were int64
        tracemalloc.start()
        try:
            got = cx.ds_search(3, 15, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ["".join(map(str, col)) for col in got.matrix.T] == [
            "000000000000000", "000001111122222", "000002222211111"]
        assert peak < 24 << 20

    def test_no_ds_6_7_3(self):
        with pytest.raises(SearchExhaustedError):
            cx.ds_search(3, 6, 7)

    def test_first_column_zero(self):
        assert not cx.ds_search(3, 6, 6).matrix[:, 0].any()

    @pytest.mark.parametrize("s,r,c", ORACLE_DS_SHAPES)
    def test_search_matches_oracle(self, s, r, c):
        want = oracle_ds_search(s, r, c)
        try:
            got = cx.ds_search(s, r, c).matrix
        except SearchExhaustedError:
            assert want is None
            return
        assert want is not None and got.shape == (r, c)
        assert cx.is_difference_scheme(got, s)
        # the normal form: column 0 and row 0 zero, column 1 sorted, the
        # later columns distinct and in increasing order
        assert not got[:, 0].any() and not got[0].any()
        assert (np.diff(got[:, 1:2].astype(np.int64), axis=0) >= 0).all()  # uint8 would wrap
        assert [tuple(col) for col in got.T[1:]] == sorted(set(map(tuple, got.T[1:])))

    @pytest.mark.parametrize("s,r,c", [(4, 16, 4), (5, 15, 3), (3, 21, 3)])
    def test_search_refuses_too_many_columns(self, s, r, c):
        # 63,063,000 / 168,168,000 / 399,072,960 balanced columns, each shape
        # inside the cell limit: refused before one column is enumerated
        enumerated = AssertionError("balanced columns were enumerated")
        with mock.patch.object(cx, "_balanced_columns", side_effect=enumerated), \
                pytest.raises(ValueError, match="desk-scale column limit"):
            cx.ds_search(s, r, c)

    @pytest.mark.parametrize("s,r,c", [(5, 15, 2), (2, 32, 2), (5, 15, 1)])
    def test_two_columns_need_no_column_limit(self, s, r, c):
        # above the column limit, but c <= 2 enumerates no balanced column
        enumerated = AssertionError("balanced columns were enumerated")
        with mock.patch.object(cx, "_balanced_columns", side_effect=enumerated):
            got = cx.ds_search(s, r, c).matrix
        assert got.shape == (r, c) and cx.is_difference_scheme(got, s)

    def test_search_admits_369600_columns(self):
        # (4, 12, 5): 12!/(3!)^4 balanced columns, under the limit
        admitted = AssertionError("admitted")
        with mock.patch.object(cx, "_balanced_columns", side_effect=admitted), \
                pytest.raises(AssertionError, match="admitted"):
            cx.ds_search(4, 12, 5)


class TestKronecker:
    def test_identity(self, oa_27_4_3_3):
        d = cx.kronecker_sum(cx.DifferenceScheme(3, [[0]]), oa_27_4_3_3)
        assert np.array_equal(d.matrix, oa_27_4_3_3.matrix)

    def test_level_mismatch(self, oa_27_4_3_3):
        with pytest.raises(LevelMismatchError):
            cx.kronecker_sum(cx.ds_catalog(2, 2, 2), oa_27_4_3_3)

    @pytest.mark.parametrize("cell", [-1, 3, 4])
    def test_scheme_cells_are_levels(self, cell):
        # the sum is formed on uint8 labels, so a cell outside 0..s-1 is refused first
        with pytest.raises(ValueError, match="levels must lie in 0..2"):
            cx.DifferenceScheme(3, [[0, cell]])

    def test_strength2_product(self):
        gen = dz.GeneratorMatrix(3, [[1, 0, 1, 1], [0, 1, 1, 2]])
        b = dz.expand_generator(gen)  # OA(9, 4, 3, 2)
        d = cx.kronecker_sum(cx.ds_catalog(3, 3, 3), b)
        assert d.matrix.shape == (27, 12)
        assert dz.check_strength(d, 2).ok

    def test_ds66_kronecker_shape(self, oa_81_10_3_3):
        d = cx.kronecker_sum(cx.ds_catalog(3, 6, 6), oa_81_10_3_3)
        assert d.matrix.shape == (486, 60)
        assert dz.check_strength(d, 2).ok


class TestPBound:
    def test_three_column_blocks(self):
        assert cx.p_bound(3, 4) == 1 - Fraction(2, 110)

    def test_c_one_is_exact_one(self):
        assert cx.p_bound(1, 7) == 1

    def test_six_column_scheme(self):
        assert cx.p_bound(6, 5) == 1 - Fraction(20, 812)

    def test_degenerate(self):
        with pytest.raises(DegenerateSizeError):
            cx.p_bound(1, 2)


class TestProp1:
    def test_pair_blocks_486_runs(self, oa_81_10_3_3):
        gd = cx.construct_prop1(cx.ds_catalog(3, 6, 6), [[0, 1], [2, 3], [4, 5]],
                                oa_81_10_3_3)
        assert gd.design.runs == 486
        assert gd.group_sizes == (20, 20, 20)
        assert all(g.verified_strength == 3 for g in gd.groups)
        assert gd.verified_t0 == 2

    def test_s2_instance(self, ebert2):
        b = dz.subset_design(ebert2.design, range(5))
        gd = cx.construct_prop1(cx.ds_catalog(2, 4, 4), [[0, 1], [2, 3]], b)
        assert gd.design.runs == 64
        assert gd.group_sizes == (10, 10)
        assert all(g.verified_strength == 3 for g in gd.groups)

    def test_single_column_blocks(self, oa_27_4_3_3):
        gd = cx.construct_prop1(cx.ds_catalog(3, 3, 3), [[0], [1], [2]], oa_27_4_3_3)
        assert gd.design.runs == 81
        assert gd.group_sizes == (4, 4, 4)
        assert all(g.verified_strength == 3 for g in gd.groups)

    def test_bad_block_size(self, oa_27_4_3_3):
        with pytest.raises(BadBlockSizeError):
            cx.construct_prop1(cx.ds_catalog(3, 3, 3), [[0, 1, 2]], oa_27_4_3_3)

    def test_strength_prereq(self):
        weak = dz.expand_generator(dz.GeneratorMatrix(3, [[1, 0, 1, 1], [0, 1, 1, 2]]))
        with pytest.raises(StrengthPrereqError):
            cx.construct_prop1(cx.ds_catalog(3, 3, 3), [[0], [1], [2]], weak)


class TestThm2:
    def test_trivial_scheme_keeps_p_one(self, ebert3):
        # p = 1 is strength 3: the groups claim and verify it, and store no p
        res = cx.construct_thm2(cx.DifferenceScheme(3, [[0]]), ebert3)
        design = res.grouped.design
        for g in res.grouped.groups:
            assert (g.claimed_strength, g.verified_strength, g.p) == (3, 3, None)
            assert dz.p_of_d(design, g.columns) == 1

    def test_measured_p_equals_bound(self, ebert3):
        keep = (ebert3.groups[0].columns[:5] + ebert3.groups[1].columns[:5]
                + ebert3.groups[2].columns[:4] + ebert3.groups[3].columns[:4])
        base = dz.subset_columns(ebert3, keep)
        res = cx.construct_thm2(cx.ds_catalog(3, 6, 6), base)
        assert res.grouped.group_sizes == (30, 30, 24, 24)
        assert [g.p for g in res.grouped.groups] == [
            1 - Fraction(20, 812), 1 - Fraction(20, 812),
            1 - Fraction(20, 506), 1 - Fraction(20, 506),
        ]
        assert [g.p for g in res.grouped.groups] == res.bounds
        # nested regrouping has strength-3 groups of 10 and 8 columns
        assert sorted(res.nested.group_sizes) == [8] * 6 + [10] * 6
        assert all(g.verified_strength == 3 for g in res.nested.groups)

    def test_strength_prereq(self, oa_27_4_3_3):
        weak = dz.GroupedDesign(
            cx.kronecker_sum(cx.ds_catalog(3, 3, 3), oa_27_4_3_3),
            [dz.Group(list(range(12)), claimed_strength=3)],
        )
        with pytest.raises(StrengthPrereqError):
            cx.construct_thm2(cx.ds_catalog(3, 3, 3), weak)


class TestKroneckerGrouping:
    """prop1, grouped_kronecker and both thm2 groupings share one ending."""

    def test_columns_claims_and_p(self, ebert3, oa_27_4_3_3):
        ds = cx.ds_catalog(3, 3, 3)
        with mock.patch.object(cx, "annotate", wraps=dz.annotate) as annotate, \
                mock.patch.object(cx, "_annotate", wraps=dz._annotate) as in_context:
            prop1 = cx.construct_prop1(ds, [[0], [1, 2]], oa_27_4_3_3)
            wide = cx.grouped_kronecker(ds, [[0, 1, 2]], oa_27_4_3_3)
            thm2 = cx.construct_thm2(ds, ebert3)
        # one call per Kronecker grouping, annotated in the context its p is
        # measured in; the prerequisite readings claim t0 = 3 or 0
        kronecker = [c for c in annotate.call_args_list + in_context.call_args_list
                     if c.args[0].claimed_t0 == 2]
        assert len(kronecker) == 4
        n = oa_27_4_3_3.cols
        assert [g.columns for g in prop1.groups] == [
            [w for w in range(n)], [j * n + w for j in (1, 2) for w in range(n)]]
        assert wide.groups[0].columns == list(range(3 * n))
        n = ebert3.design.cols
        assert [g.columns for g in thm2.grouped.groups] == [
            [j * n + w for j in range(3) for w in grp.columns] for grp in ebert3.groups]
        assert [g.columns for g in thm2.nested.groups] == [
            [j * n + w for j in block for w in grp.columns]
            for grp in ebert3.groups for block in ([0, 1], [2])]
        # p is measured exactly for the groups claimed below strength 3
        for gd in (prop1, wide, thm2.grouped, thm2.nested):
            assert gd.claimed_t0 == gd.verified_t0 == 2
            for grp in gd.groups:
                assert grp.verified_strength == grp.claimed_strength
                if grp.claimed_strength < 3:
                    assert grp.p == dz.p_of_d(gd.design, grp.columns)
                else:
                    assert grp.p is None
        assert [g.claimed_strength for g in wide.groups + thm2.grouped.groups] == [2] * 5
        assert np.array_equal(thm2.grouped.design.matrix, thm2.nested.design.matrix)

    def test_one_sum_per_construction(self, ebert3, oa_27_4_3_3):
        # each construction builds its A (+) B once; thm2's groupings share it
        ds = cx.ds_catalog(3, 3, 3)
        for build in (lambda: cx.construct_prop1(ds, [[0], [1, 2]], oa_27_4_3_3),
                      lambda: cx.grouped_kronecker(ds, [[0, 1, 2]], oa_27_4_3_3),
                      lambda: cx.construct_thm2(ds, ebert3)):
            with mock.patch.object(cx, "kronecker_sum", wraps=cx.kronecker_sum) as kron:
                built = build()
            assert kron.call_count == 1
        assert built.grouped.design is built.nested.design


class TestDeskLimit:
    """Sizes past gf.DESK_CELL_LIMIT are refused from their shape, unbuilt."""

    @pytest.mark.parametrize("build,args", [
        (cx.construct_thm1, lambda: [97]),
        (cx.construct_consecutive,  # h = x^16 + x^12 + x^3 + x + 1
         lambda: [gf.ext_field(2, 16, gf.Poly.parse("1,0,0,0,1,0,0,0,0,0,0,0,0,1,0,1,1", 2)),
                  17]),
        (cx.kronecker_sum, lambda: [cx.DifferenceScheme(97, np.zeros((97, 97))),
                                    dz.Design(97, np.zeros((200, 200), dtype=np.int64))]),
    ], ids=["thm1-s97", "consecutive-k16-m17", "kronecker-sum"])
    def test_refused_unbuilt(self, build, args):
        args = args()
        tracemalloc.start()
        try:
            with pytest.raises(ParameterRangeError, match="desk-scale limit"):
                build(*args)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_consecutive_needs_two_columns_a_group(self):
        ext = gf.ext_field(2, 4, gf.find_primitive_polys(2, 4)[0])
        with pytest.raises(ParameterRangeError, match="need m >= 2, got 1"):
            cx.construct_consecutive(ext, 1)


class TestConsecutive:
    def test_m6_structure(self):
        ext = gf.ext_field(3, 5, gf.Poly.parse("1,1,1,1,2,1", 3))
        gd = cx.construct_consecutive(ext, 6)
        assert gd.design.runs == 243
        assert len(gd.groups) == 20
        assert all(g.wlp == (0, 0, 0, 0, 0, 1) for g in gd.groups)
        assert all(g.verified_strength == 5 for g in gd.groups)

    def test_m7_structure(self):
        ext = gf.ext_field(3, 5, gf.Poly.parse("1,0,1,2,2,1", 3))
        gd = cx.construct_consecutive(ext, 7)
        assert len(gd.groups) == 17
        assert all(g.verified_strength == 4 for g in gd.groups)

    def test_m_le_k_full_factorial_groups(self):
        ext = gf.ext_field(2, 4, gf.find_primitive_polys(2, 4)[0])
        gd = cx.construct_consecutive(ext, 3)
        assert all(g.verified_strength == 3 for g in gd.groups)
        assert all(g.wlp == (0, 0, 0) for g in gd.groups)

    def test_null_space_spanned_by_shifted_words(self):
        for h_text, m in (("1,1,1,1,2,1", 6), ("1,0,1,2,2,1", 7)):
            h = gf.Poly.parse(h_text, 3)
            ext = gf.ext_field(3, 5, h)
            gd = cx.construct_consecutive(ext, m)
            f3 = gf.level_field(3)
            words = shifted_word_basis(h, m)
            for grp in gd.groups:
                sub = gd.generator.matrix[:, grp.columns]
                assert not gf.mat_mul(f3, sub, words.T).any()
                assert gf.mat_rank(f3, words) == m - 5
                assert gf.null_space(f3, sub).shape[0] == m - 5

    def test_too_few_groups(self):
        ext = gf.ext_field(3, 2, gf.find_primitive_polys(3, 2)[0])
        with pytest.raises(TooFewGroupsError):
            cx.construct_consecutive(ext, 5)


class TestFStats:
    def test_known_balanced_polynomial(self):
        f, f_s, f_star = oracle_f_statistics(gf.Poly.parse("1,0,1,2,2,1", 3))
        assert f == (2, 1, 2)
        assert f_s == 2
        assert f_star == 0

    def test_part_i_polynomial_all_nonzero(self):
        h = gf.Poly.parse("1,1,1,1,2,1", 3)
        assert oracle_prop2_i(h)

    def test_counts_sum_to_k_plus_2(self):
        for h in gf.find_primitive_polys(3, 5):
            f, f_s, f_star = oracle_f_statistics(h)
            assert sum(f) + f_s + f_star == 7

    def test_ma_condition_counts(self):
        polys = gf.find_primitive_polys(3, 5)
        assert sum(oracle_prop2_i(h) for h in polys) == 4
        assert sum(oracle_prop2_ii(h) for h in polys) == 6


# Prop. 2's grid: (s, k) with the group sizes k+1 and k+2 it ranks
PROP2_GRID = ([(2, k) for k in range(3, 9)] + [(3, k) for k in range(2, 6)]
              + [(4, k) for k in range(2, 5)] + [(5, 2), (5, 3), (7, 2), (8, 2), (9, 2)])


def _oracle_cost(s, k, m):
    """About the work of oracle_group_wlp_for_poly: the recurrence rows and
    the term-by-term transform."""
    return m * (s**k + m * m)


# (s, k) with s^k <= 2,500, each with the m in k < m <= v + k whose oracle
# pattern is quick; the rank check runs where all the polynomials' oracles are
CROSS_GRID = {(s, k): [m for m in range(k + 1, (s**k - 1) // (s - 1) + k + 1)
                       if _oracle_cost(s, k, m) <= 200_000]
              for s in (2, 3, 4, 5, 7, 8, 9) for k in range(1, 12) if s**k <= 2500}
RANK_COST = 2_000_000


class TestRanking:
    @pytest.mark.parametrize("m", [6, 7])
    def test_proxy_matches_wlp_preorder(self, m):
        polys = gf.find_primitive_polys(3, 5)
        proxy = {h.coeffs: oracle_proxy_key(h, m) for h in polys}
        pattern = {h.coeffs: oracle_wlp_rank_key(cx.group_wlp_for_poly(3, 5, h, m)) for h in polys}
        for a in polys:
            for b in polys:
                assert (proxy[a.coeffs] < proxy[b.coeffs]) == (
                    pattern[a.coeffs] < pattern[b.coeffs]
                )

    @pytest.mark.parametrize("s,k", PROP2_GRID)
    def test_prop2_order_is_the_ranking(self, s, k):
        # the ranking sorts by the pattern alone; Prop. 2's coefficient key
        # must give the same preorder and, sorted stably, the same list
        polys = gf.find_primitive_polys(s, k)
        for m in (k + 1, k + 2):
            ranked = cx.rank_primitive_polys(s, k, m)
            proxy = {h.coeffs: oracle_proxy_key(h, m) for h in polys}
            key = {h.coeffs: oracle_wlp_rank_key(pat) for h, pat in ranked}
            for a in polys:
                for b in polys:
                    assert (proxy[a.coeffs] < proxy[b.coeffs]) == (
                        key[a.coeffs] < key[b.coeffs]
                    ), f"m={m}: {a} vs {b}"
            by_proxy = sorted(polys, key=lambda h: proxy[h.coeffs])
            assert [h.coeffs for h, _ in ranked] == [h.coeffs for h in by_proxy]

    def test_best_m6_satisfies_prop2i(self):
        best, head = cx.rank_primitive_polys(3, 5, 6)[0]
        assert oracle_prop2_i(best)
        assert head == (0, 0, 0, 0, 0, 1)

    def test_generic_m_ranked_by_wlp(self):
        ranked = cx.rank_primitive_polys(2, 5, 8)
        keys = [oracle_wlp_rank_key(pat) for _, pat in ranked]
        assert keys == sorted(keys)

    def test_wlp_against_oracle(self):
        h = gf.find_primitive_polys(3, 3)[0]
        ext = gf.ext_field(3, 3, h)
        gen = dz.generator_from_exponents(ext, range(5))
        assert cx.group_wlp_for_poly(3, 3, h, 5) == oracle_wlp(gen)

    @pytest.mark.parametrize("s,k", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
    def test_wlp_against_oracle_every_m(self, s, k):
        # m <= k, the shifted words (m - k <= k) and the recurrence rows
        h = gf.find_primitive_polys(s, k)[-1]
        ext = gf.ext_field(s, k, h)
        for m in range(2, (s**k - 1) // (s - 1) + 1):
            if s**m > 4096:
                break
            gen = dz.generator_from_exponents(ext, range(m))
            assert cx.group_wlp_for_poly(s, k, h, m) == oracle_wlp(gen)

    @pytest.mark.parametrize("s,k", [(2, k) for k in range(2, 9)] + [(3, k) for k in range(2, 6)]
                             + [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (7, 2), (8, 2), (8, 3),
                                (9, 2), (9, 3)])
    def test_wlp_against_recurrence_oracle(self, s, k):
        # every primitive polynomial at m = k+1..k+4, where the shifted
        # words are enumerated, and at m = 2k+1, where the rows are
        for h in gf.find_primitive_polys(s, k):
            for m in sorted({k + 1, k + 2, k + 3, k + 4, 2 * k + 1}):
                assert cx.group_wlp_for_poly(s, k, h, m) == oracle_group_wlp_for_poly(s, k, h, m)

    def test_ranking_builds_one_field(self):
        # the ranking and the enumeration ask for the first polynomial's
        # field alone (nothing at all once their results are cached)
        asked, real = [], gf.ext_field

        def record(s, k, h):
            asked.append((s, k, tuple(h.coeffs if isinstance(h, gf.Poly) else h)))
            return real(s, k, h)

        with mock.patch.object(gf, "ext_field", side_effect=record):
            ranked = cx.rank_primitive_polys(2, 8, 10)
        polys = gf.find_primitive_polys(2, 8)
        assert len(ranked) == len(polys)
        assert set(asked) <= {(2, 8, polys[0].coeffs)}

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9])
    def test_degree_one_matches_walk(self, s):
        # n = s - 1 units, each its own cyclotomic coset; n = 1 at s = 2
        walks = [(b0, 1) for b0 in range(1, s) if oracle_ext_field_walk(s, 1, (b0, 1)) is not None]
        assert [h.coeffs for h in gf.find_primitive_polys.__wrapped__(s, 1)] == walks

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), field=st.sampled_from(sorted(CROSS_GRID)))
    def test_windows_match_recurrence_oracle(self, data, field):
        # m > v repeats PG points in the group, and past n the windows wrap
        s, k = field
        m = data.draw(st.sampled_from(CROSS_GRID[field]))
        polys = gf.find_primitive_polys(s, k)
        h = data.draw(st.sampled_from(polys))
        assert cx.group_wlp_for_poly(s, k, h, m) == oracle_group_wlp_for_poly(s, k, h, m)
        if len(polys) * _oracle_cost(s, k, m) <= RANK_COST:
            oracle = sorted(((h, oracle_group_wlp_for_poly(s, k, h, m)) for h in polys),
                            key=lambda item: oracle_wlp_rank_key(item[1]))  # stable: ties in order
            assert cx.rank_primitive_polys(s, k, m) == oracle


class TestMaRegular:
    def test_oa_27_10(self):
        gen, pattern = oracle_ma_regular_oa(3, 3, 10)
        assert gen.matrix.shape == (3, 10)
        assert pattern[:2] == (0, 0)
        d = dz.expand_generator(gen)
        assert dz.check_strength(d, 2).ok
        # no 10-column subset of PG(2,3) does better sequentially
        assert pattern[2] > 0 or pattern[3] > 0


class TestKroneckerOracle:
    def test_matches_elementwise_definition(self, oa_27_4_3_3):
        # independent slow path: explicit block loop with mod-s addition
        ds = cx.ds_catalog(3, 3, 3)
        fast = cx.kronecker_sum(ds, oa_27_4_3_3).matrix
        r, c = ds.matrix.shape
        n_runs, n_cols = oa_27_4_3_3.matrix.shape
        slow = np.zeros((r * n_runs, c * n_cols), dtype=np.int64)
        for i in range(r):
            for u in range(n_runs):
                for j in range(c):
                    for w in range(n_cols):
                        slow[i * n_runs + u, j * n_cols + w] = (
                            ds.matrix[i, j] + oa_27_4_3_3.matrix[u, w]
                        ) % 3
        assert np.array_equal(fast, slow)
