import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goa import constructions as cx
from goa import designs as dz
from goa import evalsim as ev
from goa.errors import GoaError, ParameterRangeError, WrongLevelCountError

from conftest import oracle_clarity_check, oracle_ma_regular_oa, oracle_model_matrix


@pytest.fixture(scope="module")
def goa81(oa_27_4_3_3):
    """GOA(81, 4x3, 3x3, 3, 2): single-column scheme blocks over OA(27,4,3,3)."""
    return cx.construct_prop1(cx.ds_catalog(3, 3, 3), [[0], [1], [2]], oa_27_4_3_3)


class TestModelMatrix:
    def test_contrast_values(self):
        lin, quad = ev.contrast_columns(np.array([0, 1, 2]))
        s6, s2 = math.sqrt(6) / 2, math.sqrt(2) / 2
        assert np.allclose(lin, [-s6, 0.0, s6])
        assert np.allclose(quad, [s2, -math.sqrt(2), s2])
        assert np.allclose((lin**2).sum(), 3.0)
        assert np.allclose((quad**2).sum(), 3.0)

    def test_column_counts(self, thm1_3):
        groups = [g.columns for g in thm1_3.groups]
        main = ev.model_matrix(thm1_3.design, groups)
        full = ev.model_matrix(thm1_3.design, groups, interactions=True)
        assert main.shape[1] == 1 + 20
        assert full.shape[1] == 1 + 20 + 24 + 12 + 12

    def test_full_factorial_orthogonality(self):
        d = dz.expand_generator(dz.GeneratorMatrix(3, np.eye(3, dtype=int)))
        x = ev.model_matrix(d, [[0, 1, 2]], interactions=True)
        gram = x.T @ x
        assert np.allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-9)

    def test_wrong_level_count(self):
        with pytest.raises(WrongLevelCountError):
            ev.model_matrix(dz.Design(2, [[0], [1]]))

    def test_ols_reduces_to_inner_products(self, thm1_3):
        # strength 2 makes the main-effects matrix orthogonal: X'X = N I
        groups = [g.columns for g in thm1_3.groups]
        x = ev.model_matrix(thm1_3.design, groups)
        gram = x.T @ x
        assert np.allclose(gram, 27 * np.eye(x.shape[1]), atol=1e-9)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(27)
        direct = x.T @ y / 27
        lstsq = np.linalg.lstsq(x, y, rcond=None)[0]
        assert np.allclose(direct, lstsq, atol=1e-10)


@st.composite
def grouped_three_level(draw):
    """A random three-level design of 9, 27 or 81 runs and 1-8 columns, and
    a random disjoint grouping of some of its columns: singletons and
    ungrouped columns included, and no groups at all."""
    runs = draw(st.sampled_from([9, 27, 81]))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = dz.Design(3, rng.integers(0, 3, size=(runs, n)))
    labels = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))  # -1: ungrouped
    order = draw(st.permutations(range(n)))
    groups = [[c for c in order if labels[c] == g] for g in range(4)]
    return design, [g for g in groups if g]


ARRAY_BLOCKS = settings(max_examples=150, deadline=None)


class TestArrayBlocks:
    """model_matrix and clarity_check against their per-column, per-pair
    oracles, bit for bit."""

    @ARRAY_BLOCKS
    @given(case=grouped_three_level(), given_groups=st.booleans())
    def test_model_matrix_matches_oracle(self, case, given_groups):
        design, groups = case
        groups = groups if given_groups else None
        for interactions in (False, True):
            got = ev.model_matrix(design, groups, interactions=interactions)
            want = oracle_model_matrix(design, groups, interactions=interactions)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @ARRAY_BLOCKS
    @given(case=grouped_three_level())
    def test_clarity_check_matches_oracle(self, case):
        design, groups = case
        gd = dz.GroupedDesign(design, [dz.Group(g, len(g)) for g in groups])
        assert ev.clarity_check(gd) == oracle_clarity_check(gd)


class TestClarity:
    def test_goa81_clear(self, goa81):
        rep = ev.clarity_check(goa81)
        assert rep.max_abs <= 1e-12

    def test_goa27_cross_group_bias(self, thm1_3):
        rep = ev.clarity_check(thm1_3)
        assert rep.max_abs_same_group <= 1e-12
        assert rep.max_abs > 1.0

    def test_full_factorial_clear(self):
        d = dz.expand_generator(dz.GeneratorMatrix(3, np.eye(3, dtype=int)))
        gd = dz.GroupedDesign(d, [dz.Group([0, 1, 2], claimed_strength=3)])
        assert ev.clarity_check(gd).max_abs <= 1e-12

    @pytest.mark.parametrize("runs,what", [(3, "clarity cross-Gram"), (729, "model matrix")])
    def test_wide_ungrouped_design_refused_unbuilt(self, runs, what):
        # 364 columns in one group: 264,264 interaction contrasts, so the
        # cross-Gram is 728 x 264,264 cells and the model 729 x 264,993
        gd = dz.GroupedDesign(dz.Design(3, np.zeros((runs, 364), dtype=np.int64)), [])
        tracemalloc.start()
        try:
            with pytest.raises(ParameterRangeError, match=what):
                if what == "model matrix":
                    ev.model_matrix(gd.design, None, interactions=True)
                else:
                    ev.clarity_check(gd)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()


class TestBiasStudy:
    def test_zero_noise_zero_error(self, goa81):
        res = ev.run_bias_study([("goa81", goa81)], [0.0],
                                ev.SimModel(noise_sd=0.0, reps=20, seed=1))
        assert res[0].mean <= 1e-10

    def test_flat_across_sigma_when_clear(self, goa81):
        res = ev.run_bias_study([("goa81", goa81)], [1.0, 10.0],
                                ev.SimModel(reps=50, seed=2))
        lo, hi = res[0], res[1]
        assert abs(lo.mean - hi.mean) < 3 * math.hypot(lo.se, hi.se)

    def test_reproducible(self, goa81):
        a = ev.run_bias_study([("x", goa81)], [5.0], ev.SimModel(reps=10, seed=4))
        b = ev.run_bias_study([("x", goa81)], [5.0], ev.SimModel(reps=10, seed=4))
        assert np.array_equal(a[0].values, b[0].values)

    @pytest.mark.parametrize("reps", [0, 1])
    def test_needs_two_replicates(self, goa81, reps):
        # a standard error needs two replicates; fewer would report nan
        with pytest.raises(GoaError, match="at least 2 replicates"):
            ev.run_bias_study([("x", goa81)], [5.0], ev.SimModel(reps=reps))

    def test_goa_beats_ma_at_large_sigma(self, thm1_3):
        gen, _ = oracle_ma_regular_oa(3, 3, 10)
        d = dz.expand_generator(gen, origin="ma-oa-27-10")
        perm = np.random.default_rng(0).permutation(10)
        d = dz.subset_design(d, perm.tolist())
        ma = dz.GroupedDesign(
            d,
            [dz.Group(list(range(4)), 2), dz.Group(list(range(4, 7)), 2),
             dz.Group(list(range(7, 10)), 2)],
        )
        res = ev.run_bias_study([("goa", thm1_3), ("ma", ma)], [10.0],
                                ev.SimModel(reps=200, seed=3))
        by = {r.design: r for r in res}
        assert by["goa"].mean < by["ma"].mean


class TestNoiseFloor:
    def test_clear_design_error_is_noise_only(self, goa81):
        # orthogonal main-effects columns of squared norm N make the
        # estimator error pure noise: E[e^2] = 1/N, so e_rms = 1/9 at N=81
        res = ev.run_bias_study([("goa81", goa81)], [10.0],
                                ev.SimModel(reps=400, seed=6))
        rms = math.sqrt(float((res[0].values ** 2).mean()))
        assert abs(rms - 1.0 / 9.0) < 0.01
