from unittest import mock

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goa import constructions as cx
from goa import designs as dz
from goa import expand as ex
from goa import gf
from goa.errors import ShapeMismatchError, StrengthPrereqError

from conftest import oracle_rotate_columns


@pytest.fixture(scope="module")
def goa32():
    best, _ = cx.rank_primitive_polys(2, 5, 8)[0]
    return cx.construct_consecutive(gf.ext_field(2, 5, best), 8)


@functools.cache
def survey_s2_k9_m10() -> dz.GroupedDesign:
    """The catalog's survey-s2-k9-m10 entry, 512 x 510."""
    best, _ = cx.rank_primitive_polys(2, 9, 10)[0]
    return cx.construct_consecutive(gf.ext_field(2, 9, best), 10)


class TestLhd:
    def test_columns_are_permutations(self, thm1_3):
        real = ex.oa_to_lhd(thm1_3.design, seed=3)
        for c in range(real.cols):
            assert np.array_equal(np.sort(real.int_matrix[:, c]), np.arange(27))

    def test_ranks_past_a_byte(self):
        # 512 runs: fine ranks up to 511 do not fit the uint8 level matrix
        design = survey_s2_k9_m10().design
        real = ex.oa_to_lhd(design, seed=5)
        assert real.int_matrix.dtype == np.int64
        for c in range(real.cols):
            assert np.array_equal(np.sort(real.int_matrix[:, c]), np.arange(512))
        assert np.array_equal(real.int_matrix // 256, design.matrix)

    def test_strata_recover_parent(self, thm1_3):
        real = ex.oa_to_lhd(thm1_3.design, seed=3)
        assert np.array_equal(real.int_matrix // 9, thm1_3.design.matrix)

    def test_centered_range(self, thm1_3):
        real = ex.oa_to_lhd(thm1_3.design, seed=0)
        assert real.matrix.min() >= -0.5 and real.matrix.max() <= 0.5

    def test_deterministic(self, thm1_3):
        a = ex.oa_to_lhd(thm1_3.design, seed=12)
        b = ex.oa_to_lhd(thm1_3.design, seed=12)
        assert np.array_equal(a.int_matrix, b.int_matrix)

    def test_projection_stratification(self, thm1_3):
        # any pair of columns keeps 9 points per 2-d stratum cell (strength 2)
        real = ex.oa_to_lhd(thm1_3.design, seed=5)
        cell = real.int_matrix[:, [0, 4]] // 9
        enc = cell[:, 0] * 3 + cell[:, 1]
        assert np.all(np.bincount(enc, minlength=9) == 3)


@functools.cache
def eight_column_bases() -> tuple[dz.GroupedDesign, ...]:
    """Two-level designs whose groups are 8 columns of strength 3: 32 runs
    with 3 groups and 64 runs with 7."""
    return tuple(cx.construct_consecutive(gf.ext_field(2, k, cx.rank_primitive_polys(2, k, 8)[0][0]), 8)
                 for k in (5, 6))


@st.composite
def rotatable(draw):
    """Some groups of a base, in random order, each with its columns
    shuffled, placed among the base's other columns at random positions,
    with the rows shuffled and some columns' levels swapped: all of which
    keep each group's strength 3."""
    base = draw(st.sampled_from(eight_column_bases()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picked = draw(st.lists(st.sampled_from(base.groups), min_size=1, unique_by=id))
    matrix = base.design.matrix[rng.permutation(base.design.runs)]
    matrix = np.where(rng.integers(0, 2, size=base.design.cols).astype(bool), 1 - matrix, matrix)
    perm = rng.permutation(base.design.cols)  # new position -> base column
    where = np.argsort(perm)  # base column -> new position
    groups = [dz.Group(where[rng.permutation(grp.columns)].tolist(), 3) for grp in picked]
    return dz.GroupedDesign(dz.Design(2, matrix[:, perm]), groups, claimed_t0=0)


class TestRotationMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(gd=rotatable())
    def test_one_product_matches_per_half_loop(self, gd):
        real = ex.rotate_columns(gd)
        want = oracle_rotate_columns(gd)
        assert real.int_matrix.shape == want.shape
        assert real.int_matrix.tobytes() == want.tobytes()
        assert real.matrix.tobytes() == (want / 2.0).tobytes()
        assert real.normalized.tobytes() == (want / 14.0).tobytes()


class TestRotation:
    def test_q_gram(self):
        q = ex.ROTATION_Q
        assert np.array_equal(q.T @ q, 21 * np.eye(4, dtype=np.int64))

    def test_rotation_orthogonal(self, goa32):
        real = ex.rotate_columns(goa32)
        gram = real.int_matrix.T @ real.int_matrix
        assert real.int_matrix.shape == (32, 24)
        assert not (gram - np.diag(np.diag(gram))).any()

    def test_eight_levels(self, goa32):
        real = ex.rotate_columns(goa32)
        for c in range(real.cols):
            assert sorted(set(real.int_matrix[:, c])) == [-7, -5, -3, -1, 1, 3, 5, 7]
        assert np.all(np.abs(real.normalized) <= 0.5)

    def test_elementwise_product_orthogonality(self, goa32):
        real = ex.rotate_columns(goa32)
        for i in range(3):
            block = real.int_matrix[:, 8 * i : 8 * (i + 1)]
            for u in range(8):
                for v in range(u + 1, 8):
                    prod = block[:, u] * block[:, v]
                    for w in range(8):
                        if w not in (u, v):
                            assert prod @ block[:, w] == 0

    def test_linear_groups_are_not_counted(self, goa32):
        with mock.patch.object(dz._CheckContext, "check", side_effect=AssertionError("counted")):
            assert ex.rotate_columns(goa32).int_matrix.shape == (32, 24)

    def test_requires_two_levels(self, thm1_3):
        with pytest.raises(ShapeMismatchError):
            ex.rotate_columns(thm1_3)

    def test_requires_eight_column_groups(self, ebert2):
        with pytest.raises(ShapeMismatchError):
            ex.rotate_columns(ebert2)

    def test_requires_strength3(self):
        # 8 pairwise-independent columns with a dependent triple: strength 2 only
        d = dz.expand_generator(dz.GeneratorMatrix(2, [
            [1, 0, 1, 0, 1, 0, 1, 0],
            [0, 1, 1, 0, 0, 1, 1, 0],
            [0, 0, 0, 1, 1, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
        ]))
        gd = dz.GroupedDesign(d, [dz.Group(list(range(8)), claimed_strength=2)])
        with pytest.raises(StrengthPrereqError):
            ex.rotate_columns(gd)
