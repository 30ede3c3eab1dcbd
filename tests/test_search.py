import numpy as np
import pytest

from goa import designs as dz
from goa import search as sx
from goa.errors import GoaError, NoGroupingError, RankDeficientError


class TestAlgorithm42:
    def test_seed_wlps(self):
        assert dz.wlp(sx.SEED_GENERATORS["oa16-5-ma"]) == (0, 0, 0, 0, 1)
        assert dz.wlp(sx.SEED_GENERATORS["oa16-5-ma-alt"]) == (0, 0, 0, 0, 1)
        assert dz.wlp(sx.SEED_GENERATORS["oa243-6-ma"]) == (0, 0, 0, 0, 0, 1)

    def test_finds_grouping(self):
        gd = sx.algorithm_42(sx.SEED_GENERATORS["oa16-5-ma"],
                             sx.SearchConfig(restarts=2000, seed=1))
        assert len(gd.groups) >= 2
        assert all(g.wlp == (0, 0, 0, 0, 1) for g in gd.groups)
        assert all(g.verified_strength == 4 for g in gd.groups)
        assert gd.verified_t0 == 2

    def test_groups_disjoint(self):
        gd = sx.algorithm_42(sx.SEED_GENERATORS["oa16-5-ma"],
                             sx.SearchConfig(restarts=500, seed=2))
        cols = [c for g in gd.groups for c in g.columns]
        assert len(cols) == len(set(cols))

    def test_reproducible(self):
        cfg = sx.SearchConfig(restarts=300, seed=9)
        a = sx.algorithm_42(sx.SEED_GENERATORS["oa16-5-ma"], cfg)
        b = sx.algorithm_42(sx.SEED_GENERATORS["oa16-5-ma"], cfg)
        assert np.array_equal(a.design.matrix, b.design.matrix)
        assert a.design.origin == b.design.origin

    def test_min_groups(self):
        with pytest.raises(NoGroupingError):
            sx.algorithm_42(sx.SEED_GENERATORS["oa16-5-ma"],
                            sx.SearchConfig(restarts=1, seed=0, min_groups=99))

    def test_rank_deficient_seed(self):
        bad = dz.GeneratorMatrix(2, [[1, 0, 1], [1, 0, 1]])
        with pytest.raises(RankDeficientError):
            sx.algorithm_42(bad, sx.SearchConfig(restarts=1))


class TestSurvey:
    def test_row_2_5_6(self):
        rows = {r.m: r for r in sx.survey(2, 5)}
        assert rows[6].g == 5
        assert rows[6].wlp_head[2] >= 1  # the groups carry a length-5 word

    def test_row_3_5_6(self):
        rows = {r.m: r for r in sx.survey(3, 5)}
        assert rows[6].g == 20
        assert rows[6].wlp_head == (0, 0, 0, 1)
        assert rows[6].t == 5

    def test_group_count_bound(self):
        for s, k in ((2, 4), (2, 5), (3, 3), (3, 4)):
            v = (s**k - 1) // (s - 1)
            for row in sx.survey(s, k):
                assert row.g <= v // row.m

    def test_run_size_bound(self):
        with pytest.raises(GoaError):
            sx.survey(2, 10)

    def test_empty_m_values_give_no_rows(self):
        assert sx.survey(2, 3, range(4, 4)) == []
        assert sx.survey(2, 3, []) == []

    def test_table_renders(self):
        text = sx.survey_table(sx.survey(2, 4))
        assert "A3" in text and "1,0" in text
