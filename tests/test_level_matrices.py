"""Level matrices are uint8 end to end.

Every loader, every construction and gf.span returns a uint8 matrix equal
to the values of an int64 oracle; levels are range-checked in the dtype
they come in, before anything narrows them, so a level of 300 is refused
and not wrapped to 44.
"""

import contextlib
import io as stdio
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from goa import cli
from goa import constructions as cx
from goa import designs as dz
from goa import gf
from goa import serialize as io
from goa.search import SEED_GENERATORS, SearchConfig, algorithm_42

from conftest import oracle_span

FIELDS = [2, 3, 4, 5, 7, 8, 9]


def assert_levels(matrix: np.ndarray, want) -> None:
    """matrix is a uint8 level matrix holding the int64 values want."""
    want = np.asarray(want, dtype=np.int64)
    assert matrix.dtype == np.uint8
    assert matrix.shape == want.shape
    assert np.array_equal(matrix.astype(np.int64), want)


def oracle_kronecker(s: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A (+) B in int64, one block of B per cell of A, through add_t."""
    add = gf.level_field(s).add_t
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    return np.block([[add[x, b] for x in row] for row in a])


def oracle_rows(gd: dz.GroupedDesign) -> np.ndarray:
    """The int64 span of a regular design's stored generator."""
    return oracle_span(gf.level_field(gd.design.s), gd.generator.matrix)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS + [97]), st.data())
def test_span_is_uint8_oracle(s, data):
    d = data.draw(st.integers(0, 2 if s == 97 else 4))
    m = data.draw(st.integers(1, 6))
    basis = data.draw(hnp.arrays(np.int64, (d, m), elements=st.integers(0, s - 1)))
    field = gf.level_field(s)
    assert_levels(gf.span(field, basis), oracle_span(field, basis))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 97]), st.data())
def test_loaders_return_uint8(s, data):
    # the byte path (s <= 10), json.loads (spaced text, two-digit levels) and CSV
    shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    want = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, s - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        canonical, spaced, csv = (Path(tmp) / name for name in ("c.json", "s.json", "d.csv"))
        io.save_json(dz.GroupedDesign(dz.Design(s, want), [], claimed_t0=0), canonical)
        spaced.write_text(json.dumps(json.loads(canonical.read_text()), indent=1))
        csv.write_text("".join(",".join(map(str, row)) + "\n" for row in want.tolist()))
        for path in (canonical, spaced):
            assert_levels(io.load_json(path).design.matrix, want)
            assert_levels(io.load_design_file(path).design.matrix, want)
        assert_levels(io.load_csv(csv, s).matrix, want)
        assert_levels(io.load_design_file(csv, s).design.matrix, want)


class TestConstructions:
    """Each construction's array, and each difference scheme, against its
    int64 oracle: a regular design is the span of its generator, a
    Kronecker sum is add_t of every cell of A with B."""

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(FIELDS))
    def test_thm1(self, s):
        gd = cx.construct_thm1(s)
        assert_levels(gd.design.matrix, oracle_rows(gd))

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_ebert(self, s, data):
        h = data.draw(st.sampled_from(gf.find_primitive_polys(s, 4)))
        gd = cx.construct_ebert(gf.ext_field(s, 4, h))
        assert_levels(gd.design.matrix, oracle_rows(gd))

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([(2, 4), (2, 5), (3, 3), (4, 2), (5, 2)]), st.data())
    def test_consecutive(self, sk, data):
        s, k = sk
        h = data.draw(st.sampled_from(gf.find_primitive_polys(s, k)))
        m = data.draw(st.integers(2, (s**k - 1) // (s - 1)))
        gd = cx.construct_consecutive(gf.ext_field(s, k, h), m)
        assert_levels(gd.design.matrix, oracle_rows(gd))

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(sorted(SEED_GENERATORS)), st.integers(0, 2**32))
    def test_alg42(self, name, seed):
        gd = algorithm_42(SEED_GENERATORS[name], SearchConfig(restarts=20, seed=seed))
        assert_levels(gd.design.matrix, oracle_rows(gd))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(FIELDS + [97]), st.data())
    def test_kronecker_sum(self, s, data):
        a = data.draw(hnp.arrays(np.int64, data.draw(st.tuples(st.integers(1, 4),
                                                                st.integers(1, 4))),
                                 elements=st.integers(0, s - 1)))
        b = data.draw(hnp.arrays(np.int64, data.draw(st.tuples(st.integers(1, 5),
                                                                st.integers(1, 5))),
                                 elements=st.integers(0, s - 1)))
        got = cx.kronecker_sum(cx.DifferenceScheme(s, a), dz.Design(s, b))
        assert_levels(got.matrix, oracle_kronecker(s, a, b))

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 97])
    def test_catalogued_schemes(self, s):
        assert_levels(cx.ds_catalog(s, s, s).matrix, gf.level_field(s).mul_t)
        if s <= 5:
            assert_levels(cx.ds_catalog(s, 2 * s, 2 * s).matrix,
                          cx.STORED_SCHEMES[(s, 2 * s, 2 * s)])

    @pytest.mark.parametrize("s, r, c", [(2, 4, 1), (3, 3, 2), (2, 4, 4), (3, 6, 6)])
    def test_searched_schemes(self, s, r, c):
        # prime s: a scheme's column differences, in int64 mod s, are balanced
        got = cx.ds_search(s, r, c).matrix
        assert got.dtype == np.uint8 and got.shape == (r, c)
        wide = got.astype(np.int64)
        for i, j in itertools.combinations(range(c), 2):
            assert (np.bincount((wide[:, i] - wide[:, j]) % s, minlength=s) == r // s).all()

    def test_recursions(self, thm1_3, ebert3):
        base = dz.subset_design(thm1_3.design, range(4))
        ds = cx.ds_catalog(3, 6, 6)
        want = oracle_kronecker(3, ds.matrix, base.matrix)
        for gd in (cx.construct_prop1(ds, [[0, 1], [2, 3], [4, 5]], base),
                   cx.grouped_kronecker(ds, [[0, 1, 2], [3, 4, 5]], base)):
            assert_levels(gd.design.matrix, want)
        result = cx.construct_thm2(ds, thm1_3)
        for gd in (result.grouped, result.nested):
            assert_levels(gd.design.matrix, oracle_kronecker(3, ds.matrix, thm1_3.design.matrix))
        sub = dz.subset_columns(ebert3, range(12))
        assert_levels(sub.design.matrix, oracle_rows(ebert3)[:, :12])


def verify_exit(path: Path, *flags: str) -> tuple[int, str]:
    err = stdio.StringIO()
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(path), *flags])
    return code, err.getvalue()


class TestRangeBeforeCast:
    """A level outside 0..s-1 is refused in the dtype it came in.  Narrowed
    first, 300 would read 44, 256 would read 0 and -255 would read 1, each
    a level of 97-level designs."""

    @pytest.mark.parametrize("s, cell", [(97, "300"), (97, "256"), (97, "-255"), (3, "256"),
                                         (3, "-1"), (97, "99999999999999999999")])
    def test_csv_level_exits_2(self, tmp_path, s, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"{cell},0\n0,1\n1,2\n")
        code, err = verify_exit(path, "--s", str(s))
        assert code == 2
        assert f"levels must lie in 0..{s - 1}" in err

    @pytest.mark.parametrize("s", [3, 97])
    @pytest.mark.parametrize("cell", [256, -1, -255, 300, 2**64])
    def test_json_cell_exits_2(self, tmp_path, s, cell):
        gd = dz.GroupedDesign(dz.Design(s, [[0, 1], [2, 0], [1, 2]]), [], claimed_t0=0)
        doc = json.loads(io.dumps(gd))
        doc["matrix"][0][0] = cell
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc, separators=(",", ":")))
        code, err = verify_exit(path)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("kind", [dz.Design, cx.DifferenceScheme])
    @pytest.mark.parametrize("cell", [300, 256, -255])
    def test_constructors_check_before_narrowing(self, kind, cell):
        with pytest.raises(ValueError, match=r"0\.\.96"):
            kind(97, np.array([[cell, 0], [0, 1]]))
        # no level count fits a level past 255 into a byte
        with pytest.raises(ValueError, match=r"0\.\.255"):
            kind(300, np.array([[299, 0], [0, 1]]))

    def test_uint8_input_is_kept(self, thm1_3):
        matrix = thm1_3.design.matrix
        assert dz.Design(3, matrix).matrix is matrix
