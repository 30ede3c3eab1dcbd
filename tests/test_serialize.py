import contextlib
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from goa import constructions as cx
from goa import designs as dz
from goa import serialize as io
from goa.errors import FileFormatError

COMPACT = (",", ":")


def read_both(path) -> list:
    """load_json of path through the matrix codec and through json.loads
    alone: each the design's dumps text or the FileFormatError message."""
    outcomes = []
    for forced in (contextlib.nullcontext(),
                   mock.patch.object(io, "_canonical_doc", return_value=None)):
        with forced:
            try:
                outcomes.append(io.dumps(io.load_json(path)))
            except FileFormatError as exc:
                outcomes.append(f"FileFormatError: {exc}")
    return outcomes


class TestJsonRoundTrip:
    def test_byte_identical(self, tmp_path, ebert3):
        path = tmp_path / "d.json"
        io.save_json(ebert3, path)
        first = path.read_bytes()
        io.save_json(io.load_json(path), path)
        assert path.read_bytes() == first

    def test_fractions_survive(self, tmp_path, thm1_3):
        gd = dz.GroupedDesign(
            thm1_3.design,
            [dz.Group([0, 1, 2, 3], 3, 3, (0, 0, 0, 1), Fraction(54, 55))],
            claimed_t0=2,
            verified_t0=2,
        )
        path = tmp_path / "p.json"
        io.save_json(gd, path)
        back = io.load_json(path)
        assert back.groups[0].p == Fraction(54, 55)
        assert back.groups[0].wlp == (0, 0, 0, 1)

    def test_generator_survives(self, tmp_path, thm1_3):
        path = tmp_path / "g.json"
        io.save_json(thm1_3, path)
        back = io.load_json(path)
        assert np.array_equal(back.generator.matrix, thm1_3.generator.matrix)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            io.load_json(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"s": 2}')
        with pytest.raises(FileFormatError):
            io.load_json(path)


class TestCsv:
    def test_round_trip_through_json(self, tmp_path, thm1_3):
        csv_path = tmp_path / "d.csv"
        io.save_csv(thm1_3.design, csv_path)
        loaded = io.load_csv(csv_path, 3)
        assert np.array_equal(loaded.matrix, thm1_3.design.matrix)
        json_path = tmp_path / "d.json"
        io.save_json(dz.GroupedDesign(loaded, [], claimed_t0=0), json_path)
        again = io.load_json(json_path)
        assert np.array_equal(again.design.matrix, thm1_3.design.matrix)

    def test_no_header(self, tmp_path, thm1_3):
        path = tmp_path / "d.csv"
        io.save_csv(thm1_3.design, path)
        first = path.read_text().splitlines()[0]
        assert set(first.split(",")) <= {"0", "1", "2"}

    def test_csv_needs_level_count(self, tmp_path, thm1_3):
        path = tmp_path / "d.csv"
        io.save_csv(thm1_3.design, path)
        with pytest.raises(FileFormatError):
            io.load_design_file(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0,1,2\n0,1\n")
        with pytest.raises(FileFormatError):
            io.load_csv(path, 3)

    def test_out_of_range_levels_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0,1\n2,0\n")
        with pytest.raises(FileFormatError):
            io.load_csv(path, 2)


class TestRealDesign:
    def test_real_json(self, tmp_path):
        m = np.array([[0.25, -0.25], [0.5, 0.0]])
        io.save_real_json(m, "test", tmp_path / "r.json", np.array([[1, -1], [2, 0]]))
        import json

        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["real_matrix"][0][0] == 0.25
        assert doc["int_matrix"][1] == [2, 0]


def in_grid(key, change):
    """An edit of a design text that applies change to its grid after the
    first key: its generator or its matrix."""
    def edit(text):
        start = text.index(f',"{key}":[') + len(f',"{key}":')
        end = text.index("]]", start) + 2
        return text[:start] + change(text[start:end]) + text[end:]
    return edit


def generator_last(text: str) -> str:
    """The generator moved from in front of the matrix to after it."""
    start = text.index(',"generator":[')
    end = text.index("]]", start) + 2
    rest = text[:start] + text[end:]
    at = rest.index(',"origin":')
    return rest[:at] + text[start:end] + rest[at:]


def move_cell(matrix: str) -> str:
    """The last cell of row 1 moved to the front of row 2: the same bytes,
    rows of different lengths."""
    rows = matrix.split("],[")
    rows[1], cell = rows[1].rsplit(",", 1)
    rows[2] = f"{cell},{rows[2]}"
    return "],[".join(rows)


class TestMatrixCodec:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                      elements=st.one_of(st.integers(-1000, 1000),
                                         st.integers(-2**63, 2**63 - 1))))
    def test_writer_matches_json(self, m):
        assert io._int_text(m) == json.dumps(m.tolist(), separators=COMPACT).encode()
        if m.size:
            lines = [",".join(str(int(x)) for x in row) for row in m]
            assert io._int_text(m, csv=True) == ("\n".join(lines) + "\n").encode()

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)))
    def test_uint8_writer_matches_json(self, m):
        # a level matrix is written in its own dtype, two- and three-digit cells too
        assert io._int_text(m) == json.dumps(m.tolist(), separators=COMPACT).encode()
        if m.size:
            lines = [",".join(str(int(x)) for x in row) for row in m]
            assert io._int_text(m, csv=True) == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("m", [
        [[7]], [[0], [3], [9]], [[0, 9, 5], [1, 2, 3]],
        [[-1]], [[-3], [12], [0]], [[10, 99, 100], [255, 256, -255]],
        [[2**31, -2**31, 65535]], [[-2**63, 2**63 - 1]],
    ], ids=["digit-1x1", "digits-Nx1", "digits", "signed-1x1", "signed-Nx1", "multi-digit",
            "32-bit", "int64-limits"])
    def test_cells_and_shapes(self, m):
        # one-digit matrices are written as a grid of rows, all others cell by cell
        m = np.array(m, dtype=np.int64)
        lines = [",".join(str(int(x)) for x in row) for row in m]
        for view in (m, np.asfortranarray(m), np.repeat(m, 2, axis=1)[:, ::2]):
            assert io._int_text(view) == json.dumps(m.tolist(), separators=COMPACT).encode()
            assert io._int_text(view, csv=True) == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("s", [2, 3, 13])
    def test_csv_and_int_matrix_bytes_pinned(self, tmp_path, s):
        # the per-cell writers these files had before the matrix codec
        matrix = cx.construct_thm1(s).design.matrix
        io.save_csv(dz.Design(s, matrix), tmp_path / "d.csv")
        lines = [",".join(str(int(x)) for x in row) for row in matrix]
        assert (tmp_path / "d.csv").read_text() == "\n".join(lines) + "\n"
        centered = matrix.astype(np.int64) - s // 2  # negative cells; uint8 would wrap
        io.save_real_json(centered / s, "test", tmp_path / "r.json", centered)
        doc = {"runs": int(matrix.shape[0]), "cols": int(matrix.shape[1]),
               "real_matrix": [[float(x) for x in row] for row in centered / s],
               "origin": "test", "int_matrix": centered.tolist()}
        assert (tmp_path / "r.json").read_text() == json.dumps(doc, separators=COMPACT) + "\n"

    @pytest.mark.parametrize("s", [2, 3, 4, 11, 13, 16])
    def test_round_trip(self, tmp_path, s):
        # one-digit levels take the byte path in, two-digit ones json.loads
        text = io.dumps(cx.construct_thm1(s))
        path = tmp_path / "d.json"
        path.write_text(text)
        assert (io._canonical_doc(text.encode()) is not None) == (s <= 10)
        fast, forced = read_both(path)
        assert fast == forced == text

    def test_catalog_files_take_the_byte_path(self, catalog_dir):
        generators = 0
        for path in sorted(catalog_dir.glob("*.json")):
            text = path.read_text()
            doc = io._canonical_doc(path.read_bytes())
            assert doc is not None, path.name
            assert doc["matrix"].dtype == np.uint8
            if json.loads(text)["generator"] is not None:
                assert doc["generator"].dtype == np.uint8, path.name
                generators += 1
            else:
                assert doc["generator"] is None
            assert io.dumps(io.load_json(path)) == text
        assert generators

    @pytest.mark.parametrize("edit", [
        in_grid("matrix", lambda m: m.replace("],[", "], [", 1)),
        in_grid("matrix", lambda m: m.replace("[[0,", "[[00,", 1)),
        in_grid("matrix", lambda m: m.replace("[[0,", "[[", 1)),
        in_grid("matrix", move_cell),
        in_grid("matrix", lambda m: m.replace("[[0,", "[[-0,", 1)),
        in_grid("matrix", lambda m: m.replace("[[0,", "[[10,", 1)),
        # a second top-level "matrix" after the first, canonical or spaced
        lambda t: t.replace(',"origin"', ',"matrix":[[0]],"origin"'),
        lambda t: t.replace(',"origin"', ', "matrix": [[0]],"origin"'),
        # the top-level matrix spaced, a canonical one nested in a group
        lambda t: t.replace(',"matrix":[', ',"matrix": [').replace(
            '"claimed_strength"', '"matrix":[[0,1]],"claimed_strength"', 1),
        # the generator's grid: out of the canonical form as a matrix can
        # leave it, nested in a group, a second top-level one, after the matrix
        in_grid("generator", lambda g: g.replace("],[", "], [", 1)),
        in_grid("generator", lambda g: "[[0" + g[2:]),
        in_grid("generator", move_cell),
        in_grid("generator", lambda g: "[[1" + g[2:]),
        lambda t: t.replace('"claimed_strength"', '"generator":[[0,1]],"claimed_strength"', 1),
        lambda t: t.replace(',"matrix":[', ',"generator":[[0]],"matrix":[', 1),
        generator_last,
        # another JSON constant, before the grids or after them, and json
        # errors, outside the grids
        lambda t: t.replace('"claimed_t0":2', '"claimed_t0":NaN'),
        lambda t: t.replace('"origin":"thm1(s=3)"', '"origin":Infinity'),
        lambda t: t.replace('"claimed_t0":2', '"claimed_t0":'),
        lambda t: t.rstrip()[:-1],
    ], ids=["whitespace", "leading-zero", "short-row", "ragged-same-length", "sign",
            "two-digit", "duplicate", "duplicate-spaced", "nested", "generator-whitespace",
            "generator-leading-zero", "generator-ragged", "generator-two-digit",
            "generator-nested", "generator-duplicate", "generator-after-matrix", "nan",
            "infinity-after-grids", "json-error", "unclosed"])
    def test_every_other_form_reads_as_json_does(self, tmp_path, thm1_3, edit):
        text = io.dumps(thm1_3)
        changed = edit(text)
        assert changed != text
        assert io._canonical_doc(changed.encode()) is None
        path = tmp_path / "d.json"
        path.write_text(changed)
        fast, forced = read_both(path)
        assert fast == forced


def json_reference(path) -> str:
    """What load_json must give for path: the dumps text of
    grouped_from_dict(json.loads(text)), text decoded as read_text does, or
    the FileFormatError message."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        return f"FileFormatError: {path}: {exc}"
    try:
        return io.dumps(io.grouped_from_dict(doc))
    except FileFormatError as exc:
        return f"FileFormatError: {exc}"


def loaded(path) -> str:
    try:
        gd = io.load_json(path)
    except FileFormatError as exc:
        return f"FileFormatError: {exc}"
    assert gd.design.matrix.dtype == np.uint8
    return io.dumps(gd)


def last_row(text: str) -> tuple[int, int]:
    """Where the matrix's last row '[d,...,d]' starts and ends in text."""
    end = text.index("]]", text.index(',"matrix":[')) + 1
    return text.rindex("[", 0, end), end


def edit_last_row(change):
    def edit(text):
        start, end = last_row(text)
        return text[:start] + change(text[start:end]) + text[end:]
    return edit


def middle_row(change):
    def edit(text):
        first = text.index(',"matrix":[') + len(',"matrix":[')
        rows = text[first:last_row(text)[1]].split("],[")
        rows[len(rows) // 2] = change(rows[len(rows) // 2])
        return text[:first] + "],[".join(rows) + text[last_row(text)[1]:]
    return edit


def matrix_last(text: str) -> str:
    """The "origin" key moved in front of "matrix", so the matrix closes
    the document."""
    at = text.index(',"origin":')
    origin = text[at:text.rindex("}")]
    head = text[:at]
    key = head.index(',"matrix":[')
    return head[:key] + origin + head[key:] + text[text.rindex("}"):]


LOADER_EDITS = {
    "unchanged": lambda t: t,
    "brackets-in-origin": lambda t: t.replace(',"origin":"', ',"origin":"]]', 1),
    "matrix-last": matrix_last,
    "last-row-truncated": lambda t: t[:last_row(t)[0] + 2],
    "last-row-short": edit_last_row(lambda r: r[:-3] + "]"),
    "last-row-long": edit_last_row(lambda r: r[:-1] + ",0]"),
    "middle-row-short": middle_row(lambda r: r[:-2]),
    "two-digit-cell": middle_row(lambda r: r[:-1] + "10"),
    "space-after-comma": middle_row(lambda r: r.replace(",", ", ", 1)),
    "matrix-closed-by-brace": lambda t: t[:last_row(t)[1]] + "}" + t[last_row(t)[1] + 1:],
    "no-trailing-newline": lambda t: t.rstrip("\n"),
    "two-trailing-newlines": lambda t: t + "\n",
}


class TestLoaderAgainstJson:
    """load_json, which reads a canonical matrix straight from the bytes,
    against grouped_from_dict(json.loads(text)) on every catalog file and
    edits of it that bring the end of the matrix into question."""

    @pytest.mark.parametrize("edit", list(LOADER_EDITS), ids=list(LOADER_EDITS))
    def test_catalog_edits(self, tmp_path, catalog_dir, edit):
        for src in sorted(catalog_dir.glob("*.json")):
            text = src.read_text()
            changed = LOADER_EDITS[edit](text)
            assert (changed == text) == (edit == "unchanged"), src.name
            path = tmp_path / src.name
            path.write_text(changed)
            assert loaded(path) == json_reference(path), (edit, src.name)

    @pytest.mark.parametrize("data", [
        lambda t: t.replace(",", ",\r\n", 3).encode(),
        lambda t: t.replace(',"origin":"', ',"origin":"\u00e9', 1).encode(),
        lambda t: t.replace(',"matrix":[[', ',\r"matrix":[[', 1).encode(),
    ], ids=["crlf", "non-ascii", "cr-before-matrix"])
    def test_decoded_as_read_text(self, tmp_path, thm1_3, data):
        path = tmp_path / "d.json"
        path.write_bytes(data(io.dumps(thm1_3)))
        assert loaded(path) == json_reference(path)

    def test_undecodable_bytes(self, tmp_path, thm1_3):
        path = tmp_path / "d.json"
        path.write_bytes(io.dumps(thm1_3).encode()[:-3] + b"\xff}\n")
        with pytest.raises(FileFormatError, match="can't decode byte 0xff"):
            io.load_json(path)


def group_doc(gd: dz.GroupedDesign) -> dict:
    return json.loads(io.dumps(gd))


class TestGroupFieldMessages:
    """The messages of a bad group column, a bad wlp entry and an
    out-of-range column, each at the first, a middle and the last place."""

    @pytest.mark.parametrize("at", [0, 1, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [1.0, "2", True, None], ids=["float", "str", "bool", "null"])
    def test_column_type(self, thm1_3, at, bad):
        doc = group_doc(thm1_3)
        doc["groups"][1]["columns"][at] = bad
        with pytest.raises(FileFormatError) as err:
            io.grouped_from_dict(doc)
        assert str(err.value) == f"groups[1].columns: expected int, got {bad!r}"

    @pytest.mark.parametrize("at", [0, 1, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [0.0, "0", False], ids=["float", "str", "bool"])
    def test_wlp_type(self, thm1_3, at, bad):
        doc = group_doc(thm1_3)
        doc["groups"][0]["wlp"] = [0, 0, 0, 1]
        doc["groups"][0]["wlp"][at] = bad
        with pytest.raises(FileFormatError) as err:
            io.grouped_from_dict(doc)
        assert str(err.value) == f"groups[0].wlp: expected int, got {bad!r}"

    @pytest.mark.parametrize("at", [0, 1, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [-1, 10, 11], ids=["negative", "cols", "past-cols"])
    def test_column_range(self, thm1_3, at, bad):
        doc = group_doc(thm1_3)
        assert doc["cols"] == 10
        doc["groups"][1]["columns"][at] = bad
        with pytest.raises(FileFormatError) as err:
            io.grouped_from_dict(doc)
        assert str(err.value) == f"groups[1].columns: {bad} outside 0..9"

    def test_first_bad_column_named(self, thm1_3):
        doc = group_doc(thm1_3)
        doc["groups"][0]["columns"] = [0, 12, -3, 1]
        with pytest.raises(FileFormatError, match=r"^groups\[0\]\.columns: 12 outside 0\.\.9$"):
            io.grouped_from_dict(doc)
        doc["groups"][0]["columns"] = [0, 1.5, "x", 1]
        with pytest.raises(FileFormatError, match=r"^groups\[0\]\.columns: expected int, got 1\.5$"):
            io.grouped_from_dict(doc)
