import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goa import constructions as cx
from goa import designs as dz
from goa import gf
from goa.errors import (
    EmptySelectionError,
    RankDeficientError,
    TooFewColumnsError,
)

from conftest import (
    oracle_check_strength,
    oracle_generator_check,
    oracle_shift_exponents,
    oracle_wlp,
    oracle_wlp_of_rows,
)


class TestExpandGenerator:
    def test_eq21_rows(self, eq21_generator):
        d = dz.expand_generator(eq21_generator)
        expected = [
            [0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0],
            [1, 0, 0, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1],
        ]
        assert sorted(d.matrix.tolist()) == sorted(expected)

    def test_identity_gives_full_factorial(self):
        d = dz.expand_generator(dz.GeneratorMatrix(3, np.eye(2, dtype=int)))
        assert d.runs == 9
        assert len({tuple(r) for r in d.matrix}) == 9

    def test_single_generator_gf3(self):
        d = dz.expand_generator(dz.GeneratorMatrix(3, [[1]]))
        assert d.matrix.ravel().tolist() == [0, 1, 2]

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientError):
            dz.expand_generator(dz.GeneratorMatrix(2, [[1, 1], [1, 1]]))

    def test_rows_closed_under_addition(self):
        rng = np.random.default_rng(7)
        gen = dz.GeneratorMatrix(3, [[1, 0, 1, 2], [0, 1, 1, 1]])
        d = dz.expand_generator(gen)
        rows = {tuple(r) for r in d.matrix}
        for _ in range(30):
            a = d.matrix[rng.integers(d.runs)]
            b = d.matrix[rng.integers(d.runs)]
            assert tuple((a + b) % 3) in rows


class TestStrength:
    def test_eq21_strength3(self, eq21_generator):
        d = dz.expand_generator(eq21_generator)
        assert dz.check_strength(d, 3).ok

    def test_eq21_strength4_witness(self, eq21_generator):
        d = dz.expand_generator(eq21_generator)
        res = dz.check_strength(d, 4)
        assert not res.ok
        assert res.witness == (0, 1, 2, 3)  # 8 runs cannot fill 2^4 cells

    def test_full_factorial_max(self):
        d = dz.expand_generator(dz.GeneratorMatrix(2, np.eye(3, dtype=int)))
        assert dz.max_strength(d) == 3

    def test_eq21_max(self, eq21_generator):
        assert dz.max_strength(dz.expand_generator(eq21_generator)) == 3

    def test_constant_column(self):
        assert dz.max_strength(dz.Design(2, [[0], [0]])) == 0

    def test_thm1_whole_array_strength_two(self, thm1_3):
        assert dz.max_strength(thm1_3.design) == 2

    def test_witness_is_lexicographically_first(self):
        # column 2 constant, so (0, 2) is the first failing pair
        d = dz.Design(2, [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]])
        res = dz.check_strength(d, 2)
        assert not res.ok and res.witness == (0, 2)

    @pytest.mark.parametrize("t", [7, 40])
    def test_uncounted_failure_is_a_value(self, t):
        # 64 runs fill neither 2^7 nor 2^40 cells: the first tuple fails
        # uncounted, its 128-cell table counted as the oracle counts it, and
        # no table sized past gf.DESK_CELL_LIMIT cells (2^40 int64 cells
        # would be 8 TiB)
        d = dz.Design(2, np.random.default_rng(0).integers(0, 2, (64, 40)))
        res = dz.check_strength(d, t)
        assert (res.ok, res.t, res.witness, res.expected) == (False, t, tuple(range(t)), 0)
        if 2**t > gf.DESK_CELL_LIMIT:
            assert res.counts is None
        else:
            assert np.array_equal(res.counts, oracle_check_strength(d, t).counts)


class TestWlp:
    def test_eq21(self, eq21_generator):
        assert dz.wlp(eq21_generator) == (0, 0, 0, 1)

    def test_identity_all_zero(self):
        gen = dz.GeneratorMatrix(2, np.eye(4, dtype=int))
        assert dz.wlp(gen) == (0, 0, 0, 0)

    def test_matches_oracle(self, eq21_generator):
        assert dz.wlp(eq21_generator) == oracle_wlp(eq21_generator)

    def test_matches_oracle_gf3(self):
        ext = gf.ext_field(3, 3, gf.find_primitive_polys(3, 3)[0])
        gen = dz.generator_from_exponents(ext, range(5))
        assert dz.wlp(gen) == oracle_wlp(gen)

    def test_wide_null_space(self):
        # the defining words of a single all-ones row are the even-weight
        # vectors: 2^19 of them, read off two distinct rows
        gen = dz.GeneratorMatrix(2, [[1] * 20])
        assert dz.wlp(gen) == tuple(math.comb(20, j) if j % 2 == 0 else 0
                                    for j in range(1, 21))

    def test_strength_wlp_consistency(self):
        # strength t iff A_1 = ... = A_t = 0, on a spread of small designs
        rng = np.random.default_rng(3)
        cases = 0
        while cases < 25:
            s = int(rng.choice([2, 3]))
            k = int(rng.integers(2, 4))
            m = int(rng.integers(k, k + 3))
            mat = rng.integers(0, s, size=(k, m))
            gen = dz.GeneratorMatrix(s, mat)
            if gf.mat_rank(gf.level_field(s), mat) != k:
                continue
            cases += 1
            d = dz.expand_generator(gen)
            pattern = dz.wlp(gen)
            assert dz.max_strength(d, cap=m) == dz.strength_from_wlp(pattern)

    def test_wlp_of_columns_from_matrix(self, eq21_generator):
        d = dz.expand_generator(eq21_generator)
        assert dz.wlp_of_columns(d, range(4)) == (0, 0, 0, 1)
        d.matrix[:, 0] ^= 1  # the odd-weight coset
        assert dz.wlp_of_columns(d, range(4)) is None

    def test_wlp_of_columns_nonregular(self):
        d = dz.Design(2, [[0, 0], [0, 1], [1, 0], [1, 0]])
        assert dz.wlp_of_columns(d, range(2)) is None

    def test_wlp_of_columns_unequal_multiplicity(self):
        d = dz.Design(2, [[0, 0], [0, 1], [1, 0], [1, 1], [0, 0], [0, 1], [1, 0], [0, 0]])
        assert dz.wlp_of_columns(d, range(2)) is None

    def test_wlp_of_columns_not_closed(self):
        # four distinct rows, each once, whose span has eight
        d = dz.Design(2, [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
        assert dz.wlp_of_columns(d, range(3)) is None

    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_wlp_of_columns_coset(self, s):
        # the first thm1 group with one column shifted x -> x+1 mod s is a
        # coset of the group's row space, which holds no unit vector
        gd = cx.construct_thm1(s)
        cols = gd.groups[0].columns
        assert dz.wlp_of_columns(gd.design, cols) == gd.groups[0].wlp
        d = dz.Design(s, gd.design.matrix.copy())
        d.matrix[:, cols[1]] = (d.matrix[:, cols[1]] + 1) % s
        assert dz.wlp_of_columns(d, cols) is None

    def test_wlp_of_columns_no_columns(self, eq21_generator):
        assert dz.wlp_of_columns(dz.expand_generator(eq21_generator), []) == ()


# s^m <= 4096 keeps the brute-force oracle small
MAX_M = {2: 12, 3: 7, 4: 6, 5: 5, 7: 4, 8: 4, 9: 3}


@st.composite
def generators(draw, max_k=4):
    """A k x m generator over GF(s), often rank deficient: random rows,
    then optionally a scalar multiple of the first row appended."""
    s = draw(st.sampled_from(sorted(MAX_M)))
    m = draw(st.integers(1, MAX_M[s]))
    row = st.lists(st.integers(0, s - 1), min_size=m, max_size=m)
    rows = draw(st.lists(row, min_size=1, max_size=max_k))
    if draw(st.booleans()):
        c = draw(st.integers(0, s - 1))
        rows.append(gf.level_field(s).mul_t[c, np.array(rows[0])].tolist())
    return dz.GeneratorMatrix(s, rows)


class TestWlpOracle:
    @settings(deadline=None)
    @given(generators())
    def test_wlp_matches_oracle(self, gen):
        want = oracle_wlp(gen)
        assert dz.wlp(gen) == want
        rows = gf.span(gf.level_field(gen.s), gen.matrix)
        for t in range(gen.m + 1):
            got = dz.read_subjects(gen.s, rows, [range(gen.m)], [t], linear=True)[0].pattern
            assert got == oracle_wlp_of_rows(gen.s, rows, t) == want[:t]

    @settings(deadline=None)
    @given(generators(max_k=3), st.data())
    def test_wlp_of_columns_matches_wlp(self, gen, data):
        # any column projection of a regular design is regular
        assume(gf.mat_rank(gf.level_field(gen.s), gen.matrix) == gen.k)
        cols = data.draw(st.lists(st.integers(0, gen.m - 1), min_size=1,
                                  max_size=gen.m, unique=True))
        d = dz.expand_generator(gen)
        want = dz.wlp(dz.GeneratorMatrix(gen.s, gen.matrix[:, cols]))
        assert dz.wlp_of_columns(d, cols) == want


class TestRegularGoa:
    def test_repeated_columns_give_a_word(self):
        # columns 0 and 1 repeat, so only the first group has a defining word
        gen = dz.GeneratorMatrix(2, [[1, 1, 1, 0], [0, 0, 0, 1]])
        groups = [dz.Group([0, 1], 2), dz.Group([2, 3], 2)]
        gd = dz.regular_goa(gen, groups, "repeat")
        assert [g.wlp for g in gd.groups] == [(0, 1), (0, 0)]
        assert [g.verified_strength for g in gd.groups] == [1, 2]
        assert gd.generator is gen and gd.verified_t0 == 1
        assert (gd.design.runs, gd.design.origin) == (4, "repeat")


class TestPofD:
    def test_strength3_gives_one(self, oa_27_4_3_3):
        assert dz.p_of_d(oa_27_4_3_3) == 1

    def test_too_few_columns(self):
        with pytest.raises(TooFewColumnsError):
            dz.p_of_d(dz.Design(2, [[0, 1], [1, 0]]))

    def test_p_one_iff_strength3(self, oa_27_4_3_3):
        d = cx.kronecker_sum(cx.ds_catalog(3, 3, 3), oa_27_4_3_3)
        p = dz.p_of_d(d)
        assert (p == 1) == dz.check_strength(d, 3).ok
        assert p == cx.p_bound(3, 4)  # r=3 is not a multiple of 9, so equality


class TestPgPoints:
    def test_gf2_cubed_is_all_nonzero(self):
        ext = gf.ext_field(2, 3, gf.find_primitive_polys(2, 3)[0])
        pts = dz.pg_points(ext)
        assert sorted(map(tuple, pts.tolist())) == sorted(
            p for p in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)] if any(p)
        )

    def test_gf3_squared(self):
        ext = gf.ext_field(3, 2, gf.find_primitive_polys(3, 2)[0])
        assert len(dz.pg_points(ext)) == 4

    def test_gf3_fourth_pairwise_independent(self):
        ext = gf.ext_field(3, 4, (2, 1, 0, 0, 1))
        pts = dz.pg_points(ext)
        assert len(pts) == 40
        f3 = gf.level_field(3)
        for i in range(40):
            for j in range(i + 1, 40):
                assert gf.mat_rank(f3, np.array([pts[i], pts[j]])) == 2


class TestShift:
    def test_identity_shift(self):
        ext = gf.ext_field(3, 2, gf.find_primitive_polys(3, 2)[0])
        assert oracle_shift_exponents(ext, (0, 1, 2), 0) == (0, 1, 2)

    def test_wraps_mod_v(self):
        ext = gf.ext_field(3, 2, gf.find_primitive_polys(3, 2)[0])
        assert oracle_shift_exponents(ext, (0, 3), 2) == (2, 1)

    def test_consecutive_group2_is_shift_of_group1(self):
        ext = gf.ext_field(3, 5, gf.Poly.parse("1,1,1,1,2,1", 3))
        gd = cx.construct_consecutive(ext, 6)
        assert tuple(gd.groups[1].columns) == oracle_shift_exponents(ext, gd.groups[0].columns, 6)


class TestSubset:
    def test_keep_all_is_identity(self, oa_27_4_3_3):
        out = dz.subset_columns(oa_27_4_3_3, range(4))
        assert np.array_equal(out.matrix, oa_27_4_3_3.matrix)

    def test_empty_selection(self, oa_27_4_3_3):
        with pytest.raises(EmptySelectionError):
            dz.subset_columns(oa_27_4_3_3, [])

    def test_ebert_projection_keeps_strength3(self, ebert3):
        out = dz.subset_columns(ebert3, ebert3.groups[0].columns[:5])
        assert out.groups[0].verified_strength == 3
        assert dz.check_strength(out.design, 3).ok

    def test_two_columns_keep_strength2(self, thm1_3):
        out = dz.subset_columns(thm1_3.design, [0, 5])
        assert dz.check_strength(out, 2).ok

    def test_regular_projection_carries_group_patterns(self, ebert3):
        # a design with a generator is regular: annotate records each kept
        # group's pattern, read off the projected rows
        keep = ebert3.groups[0].columns[:6] + ebert3.groups[2].columns
        out = dz.subset_columns(ebert3, keep)
        assert out.generator is not None and out.group_sizes == (6, 10)
        for grp in out.groups:
            assert grp.wlp == dz.wlp_of_columns(out.design, grp.columns)
        assert out.groups[1].wlp == ebert3.groups[2].wlp

    def test_rank_losing_projection_stores_no_generator(self, thm1_3):
        # two columns of a rank-3 generator have rank 2: they span 9 of the
        # 27 rows, so the projection keeps no generator, and verifies
        out = dz.subset_columns(thm1_3, [0, 1])
        assert out.generator is None and out.groups[0].wlp is None
        report = dz.verify_claims(out)
        assert report.ok, report.lines()

    def test_projection_monotonicity(self, thm1_3):
        rng = np.random.default_rng(11)
        parent = dz.max_strength(thm1_3.design)
        for _ in range(10):
            size = int(rng.integers(2, 6))
            keep = sorted(rng.choice(thm1_3.design.cols, size=size, replace=False).tolist())
            sub = dz.subset_columns(thm1_3.design, keep)
            assert dz.max_strength(sub) >= min(parent, size)


class TestVerifyClaims:
    def test_good_design_passes(self, thm1_3):
        assert dz.verify_claims(thm1_3).ok

    def test_mutation_fails(self, thm1_3):
        import copy

        bad = copy.deepcopy(thm1_3)
        bad.design.matrix[5, 2] = (bad.design.matrix[5, 2] + 1) % 3
        report = dz.verify_claims(bad)
        assert not report.ok
        assert any(not c.ok for c in report.checks)

    def test_records_the_strengths_it_proved(self, thm1_3):
        import copy

        gd = copy.deepcopy(thm1_3)
        gd.verified_t0 = gd.groups[0].verified_strength = None
        gd.groups[1].claimed_strength, gd.groups[1].verified_strength = 0, None
        gd.groups[2].verified_strength = 1
        # one cell of group 3 (columns 7-9) breaks its claim and the array's
        row = next(r for r in range(27) if gd.design.matrix[r, 8] == 0)
        gd.design.matrix[row, 8] = 1
        assert not dz.verify_claims(gd).ok
        # proved: group 1 at its claim, group 2 claims none; failed: kept
        assert gd.verified_t0 is None
        assert [g.verified_strength for g in gd.groups] == [3, 0, 1]

    def test_generator_of_another_row_space_fails(self, thm1_3):
        # G with two columns swapped still has rank 3 and spans 27 rows, but
        # not these; the verdict comes from ranks, with nothing expanded
        import copy

        gd = copy.deepcopy(thm1_3)
        gen = gd.generator.matrix
        gen[:, [1, 4]] = gen[:, [4, 1]]
        field = gf.level_field(3)
        assert gf.mat_rank(field, gen) == 3
        assert gf.mat_rank(field, np.vstack([gen, thm1_3.generator.matrix])) > 3
        with mock.patch.object(gf, "span", side_effect=AssertionError("span was called")):
            report = dz.verify_claims(gd)
        assert [(c.claim, c.ok) for c in report.checks if not c.ok] == [
            ("generator reproduces rows", False)]

    def test_generator_ranks_its_pivot_columns(self, thm1_3):
        # G is checked against the row basis the linear test found: one
        # product of G at the basis's pivot columns with the basis, and one
        # rank, of that k x k matrix
        import copy

        gd = copy.deepcopy(thm1_3)
        gen = gd.generator.matrix
        basis = dz.read_subjects(3, gd.design.matrix, [range(gd.design.cols)])[0].basis
        pivots = (basis != 0).argmax(axis=1)
        with (mock.patch.object(gf, "mat_rank", wraps=gf.mat_rank) as rank,
              mock.patch.object(gf, "mat_mul", wraps=gf.mat_mul) as mul):
            report = dz.verify_claims(gd)
        assert report.checks[0] == dz.ClaimCheck("array", "generator reproduces rows", True)
        (call,) = rank.call_args_list
        assert call.args[1].shape == (len(gen), len(gen))
        assert np.array_equal(call.args[1], gen[:, pivots])
        (call,) = mul.call_args_list
        assert np.array_equal(call.args[1], gen[:, pivots])
        assert np.array_equal(call.args[2], basis)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5, 8, 9]), st.data())
    def test_generator_verdict_matches_oracle(self, s, data):
        # a random full-rank G over GF(s), its design, and generators that
        # may or may not span its rows: G itself, G times an invertible
        # matrix, G with a dependent row, a G of another random space of
        # the same dimension, G with two columns swapped, and G with one
        # cell changed
        field = gf.level_field(s)
        k = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(k, k + 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def full_rank(rows: int, cols: int) -> np.ndarray:
            while gf.mat_rank(field, m := rng.integers(0, s, (rows, cols))) < rows:
                pass
            return m

        gen = full_rank(k, n)
        design = dz.expand_generator(dz.GeneratorMatrix(s, gen))
        i, j, c = rng.integers(0, k), rng.integers(0, n, 2), rng.integers(1, s)
        dependent, coeffs = gen.copy(), rng.integers(0, s, (1, k))
        coeffs[0, i] = 0
        dependent[i] = gf.mat_mul(field, coeffs, gen)[0]
        swapped = gen.copy()
        swapped[:, j] = swapped[:, j[::-1]]
        changed = gen.copy()
        changed[i, j[0]] = field.add_t[changed[i, j[0]], c]
        variants = [gen, gf.mat_mul(field, full_rank(k, k), gen), dependent,
                    full_rank(k, n), swapped, changed]
        for variant in variants:
            gd = dz.GroupedDesign(design, [], claimed_t0=0,
                                  generator=dz.GeneratorMatrix(s, variant))
            (check,) = dz.verify_claims(gd).checks
            assert check.ok == oracle_generator_check(field, variant, gen)

    def test_dependent_generator_rows_fail(self):
        # a stored generator has k independent rows and N = s^k: these three
        # rows over GF(3) have rank 2, so their 27 combinations are the nine
        # vectors of GF(3)^2 three times each, the very rows stored, and
        # still the generator does not reproduce them
        gen = dz.GeneratorMatrix(3, [[1, 0], [0, 1], [1, 1]])
        rows = gf.span(gf.level_field(3), gen.matrix)
        distinct, counts = np.unique(rows, axis=0, return_counts=True)
        assert len(rows) == 27 and len(distinct) == 9 and (counts == 3).all()
        gd = dz.GroupedDesign(dz.Design(3, rows), [dz.Group([0, 1], 2)], generator=gen)
        report = dz.verify_claims(gd)
        assert [(c.claim, c.ok) for c in report.checks if not c.ok] == [
            ("generator reproduces rows", False)]

    def test_inflated_claim_fails(self, oa_27_4_3_3):
        gd = dz.GroupedDesign(oa_27_4_3_3, [dz.Group([0, 1, 2, 3], claimed_strength=4)],
                              claimed_t0=2)
        assert not dz.verify_claims(gd).ok

    def test_undividable_claims_fail_uncounted(self, monkeypatch):
        # 64 x 63, every nonzero vector of GF(2)^6: 2^50 and 2^7 do not
        # divide 64, so neither claim may size a table or count a tuple
        points = gf.span(gf.level_field(2), np.eye(6, dtype=np.int64))[1:]
        design = dz.expand_generator(dz.GeneratorMatrix(2, points.T))
        gd = dz.GroupedDesign(design, [dz.Group(list(range(10)), claimed_strength=7)],
                              claimed_t0=50)
        monkeypatch.setattr(dz, "check_strength", None)
        report = dz.verify_claims(gd)
        assert not report.ok
        assert [(c.claim, c.ok, c.detail) for c in report.checks] == [
            ("strength 50", False, "s^t does not divide N"),
            ("strength 7", False, "s^t does not divide N"),
        ]


class TestReplicatedProjections:
    def test_wlp_recovered_with_multiplicity(self):
        # projecting 16 runs onto 3 of the columns repeats each row twice;
        # the row space still reconstructs and the pattern stays all-zero
        ext = gf.ext_field(2, 4, gf.find_primitive_polys(2, 4)[0])
        gd = cx.construct_consecutive(ext, 3)
        assert dz.wlp_of_columns(gd.design, gd.groups[0].columns) == (0, 0, 0)
        assert dz.verify_claims(gd).ok
