"""Bit-exact JSON/CSV file formats for designs.

The JSON container stores only integers, strings and "num/den" rational
strings, so a load/save round trip is byte identical.  CSV files carry one
run per line as comma-separated levels with no header.

Integer matrices, the level matrix and the generator, never pass through
json on the way out: _int_text writes them from the array, in its own
dtype, and save_json writes the text piece by piece as bytes.  On the way
in, each is read straight from the file's bytes as a uint8 grid when it is
in the canonical form dumps writes for s <= 10, and any other document is
left to json.loads.
"""

from __future__ import annotations

import io
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import gf as gflib
from .designs import Design, GeneratorMatrix, Group, GroupedDesign
from .errors import FileFormatError, LevelLimitError, NotPrimePowerError


def fraction_to_str(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def fraction_from_str(text: str) -> Fraction:
    try:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    except Exception as exc:
        raise FileFormatError(f"bad rational {text!r}") from exc


def grouped_to_dict(gd: GroupedDesign) -> dict:
    """The fields of a design document; "generator" and "matrix" are the
    integer arrays themselves, which _json_text writes with _int_text."""
    groups = []
    for grp in gd.groups:
        groups.append(
            {
                "columns": [int(c) for c in grp.columns],
                "claimed_strength": grp.claimed_strength,
                "verified_strength": grp.verified_strength,
                "wlp": list(grp.wlp) if grp.wlp is not None else None,
                "p": fraction_to_str(grp.p) if grp.p is not None else None,
            }
        )
    return {
        "s": gd.design.s,
        "runs": gd.design.runs,
        "cols": gd.design.cols,
        "claimed_t0": gd.claimed_t0,
        "verified_t0": gd.verified_t0,
        "groups": groups,
        "generator": gd.generator.matrix if gd.generator is not None else None,
        "matrix": gd.design.matrix,
        "origin": gd.design.origin,
    }


# the keys grouped_to_dict writes ("generator" may be left out): any other,
# such as a renamed "genertor", is refused, not dropped with what it holds
_DOC_KEYS = {"s", "runs", "cols", "claimed_t0", "verified_t0", "groups", "generator", "matrix",
             "origin"}
_GROUP_KEYS = {"columns", "claimed_strength", "verified_strength", "wlp", "p"}


def grouped_from_dict(doc: dict) -> GroupedDesign:
    try:
        s = _level_count(doc["s"])
        design = Design(s, _int_matrix(doc["matrix"], "matrix"),
                        _typed(doc["origin"], str, "origin"))
        if (design.runs != _typed(doc["runs"], int, "runs")
                or design.cols != _typed(doc["cols"], int, "cols")):
            raise FileFormatError("matrix shape disagrees with runs/cols header")
        groups = []
        for i, g in enumerate(_typed(doc["groups"], list, "groups")):
            where = f"groups[{i}]"
            groups.append(
                Group(
                    columns=_int_list(g["columns"], f"{where}.columns"),
                    claimed_strength=_typed(g["claimed_strength"], int,
                                            f"{where}.claimed_strength"),
                    verified_strength=_opt_int(g["verified_strength"],
                                               f"{where}.verified_strength"),
                    wlp=(tuple(_int_list(g["wlp"], f"{where}.wlp"))
                         if g["wlp"] is not None else None),
                    p=fraction_from_str(g["p"]) if g["p"] is not None else None,
                )
            )
            if other := sorted(g.keys() - _GROUP_KEYS):
                raise FileFormatError(f"{where}: unknown keys {other}")
        claimed_t0 = _typed(doc["claimed_t0"], int, "claimed_t0")
        verified_t0 = _opt_int(doc["verified_t0"], "verified_t0")
        _check_claims(design.cols, claimed_t0, verified_t0, groups)
        if other := sorted(doc.keys() - _DOC_KEYS):
            raise FileFormatError(f"document: unknown keys {other}")
        gen = None
        if doc.get("generator") is not None:
            gen = GeneratorMatrix(s, _level_matrix(doc["generator"], "generator", s))
        return GroupedDesign(design, groups, claimed_t0, verified_t0, gen)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"bad design document: {exc}") from exc


def _typed(value, kind: type, name: str):
    """A field that JSON gave as exactly kind (int, list or str): booleans
    and floats are no integers, and a string or object is no list."""
    if type(value) is not kind:
        raise FileFormatError(f"{name}: expected {kind.__name__}, got {value!r}")
    return value


def _int_list(value, name: str) -> list[int]:
    """A field that JSON gave as a list of ints, each checked as _typed
    checks it: the types of the whole list at once, and the elements
    walked only to name the first that is no int."""
    _typed(value, list, name)
    if set(map(type, value)) - {int}:
        for item in value:
            _typed(item, int, name)
    return value


def _opt_int(value, name: str) -> int | None:
    return None if value is None else _typed(value, int, name)


def _int_matrix(rows, name: str) -> np.ndarray:
    """A list of integer rows as int64, or the uint8 array _canonical_doc
    read from the bytes; one boolean, float or string cell rejects a list.
    Its levels are not checked here: Design checks them before it narrows
    the matrix to uint8."""
    if type(rows) is np.ndarray and rows.dtype == np.uint8:
        return rows
    if set(map(type, itertools.chain.from_iterable(rows))) - {int}:
        raise FileFormatError(f"{name}: every cell must be an integer")
    return np.array(rows, dtype=np.int64)


def _level_matrix(rows, name: str, s: int) -> np.ndarray:
    """A 2-d integer matrix whose cells are all levels 0..s-1."""
    matrix = _int_matrix(rows, name)
    if matrix.ndim != 2 or matrix.size and not 0 <= matrix.min() <= matrix.max() < s:
        raise FileFormatError(f"{name}: expected rows of levels 0..{s - 1}")
    return matrix


def _level_count(value) -> int:
    """The level count s: one whose field gflib.level_field builds."""
    s = _typed(value, int, "s")
    try:
        gflib.level_field(s)
    except (LevelLimitError, NotPrimePowerError) as exc:
        raise FileFormatError(f"s: {exc}") from exc
    return s


def _check_claims(cols: int, claimed_t0: int, verified_t0: int | None,
                  groups: list[Group]) -> None:
    """Reject group columns and strengths that no design of this shape can hold."""
    for name, t in (("claimed_t0", claimed_t0), ("verified_t0", verified_t0)):
        if t is not None and not 0 <= t <= cols:
            raise FileFormatError(f"{name} {t} outside 0..{cols}")
    for i, grp in enumerate(groups):
        where = f"groups[{i}]"
        if not grp.columns:
            raise FileFormatError(f"{where}.columns: a group needs at least one column")
        if not 0 <= min(grp.columns) <= max(grp.columns) < cols:
            bad = next(c for c in grp.columns if not 0 <= c < cols)
            raise FileFormatError(f"{where}.columns: {bad} outside 0..{cols - 1}")
        if len(set(grp.columns)) != grp.size:
            raise FileFormatError(f"{where}.columns: duplicate column")
        for name in ("claimed_strength", "verified_strength"):
            t = getattr(grp, name)
            if t is not None and not 0 <= t <= grp.size:
                raise FileFormatError(f"{where}.{name} {t} outside 0..{grp.size}")


def _int_text(matrix: np.ndarray, csv: bool = False) -> memoryview:
    """An integer matrix as ASCII: byte for byte
    json.dumps(matrix.tolist(), separators=(",", ":")), or with csv one line
    of comma-separated cells per row.  The text is one uint8 array, handed
    out as a memoryview, which a file writes and bytes.join joins without a
    copy, and which compares equal to the same bytes.

    The matrix is read in its own dtype and never widened.  When every cell
    is one digit 0..9, every row has the same bytes but its digits, and the
    text is filled in as one grid of such rows.  Else every cell gets one
    slot of sign, digits (most significant first) and separator, as wide as
    the widest cell needs, the digits computed in the narrowest unsigned
    dtype that holds the largest magnitude.  Slot bytes that a cell leaves
    unused, a plus sign, leading zeros and the separator after a row's last
    cell, stay NUL and are dropped at the end, as are the brackets of csv
    rows.
    """
    matrix = np.asarray(matrix)
    runs, cols = matrix.shape
    low, high = (int(matrix.min()), int(matrix.max())) if matrix.size else (0, 0)
    if matrix.size and 0 <= low and high <= 9:
        return _digit_text(matrix, csv)
    # unsigned, so a signed matrix, the only one with a sign to flip, is copied
    mag = matrix.astype(np.min_scalar_type(max(high, -low)), copy=False)
    if low < 0:
        negative = matrix < 0
        np.negative(mag, out=mag, where=negative)  # |x|, since it fits the dtype
    width = len(str(max(high, -low)))
    sign = int(low < 0)
    slot = sign + width + 1
    # the text with its NULs: an opening byte, then each row's opening
    # byte, cells, closing byte and row end, then a closing byte
    flat = np.zeros(runs * (cols * slot + 3) + 2, dtype=np.uint8)
    grid = flat[1:-1].reshape(runs, cols * slot + 3)
    cells = grid[:, 1:-2].reshape(runs, cols, slot, copy=False)
    if sign:
        cells[..., 0] = np.where(negative, ord("-"), 0)
    for place in range(width):
        mag, rem = np.divmod(mag, 10)
        digit = rem.astype(np.uint8) + ord("0")
        if place:
            digit[(mag == 0) & (rem == 0)] = 0
        cells[..., -2 - place] = digit
    cells[..., -1] = ord(",")
    cells[:, -1:, -1] = 0
    if not csv:
        flat[0], flat[-1] = ord("["), ord("]")
        grid[:, 0], grid[:, -2], grid[:, -1] = ord("["), ord("]"), ord(",")
        if runs:
            grid[-1, -1] = 0
    else:
        grid[:, -1] = ord("\n")
    return memoryview(flat[flat != 0])


def _digit_text(matrix: np.ndarray, csv: bool) -> memoryview:
    """_int_text of a nonempty matrix of digits 0..9: rows "[d,...,d],"
    after an opening "[", the last row's "," made the closing "]", or with
    csv rows "d,...,d\n"."""
    runs, cols = matrix.shape
    first = int(not csv)  # the "[" before each json row's digits
    text = np.empty(runs * (2 * cols + 2 * first) + first, dtype=np.uint8)
    grid = text[first:].reshape(runs, -1)
    np.add(matrix, ord("0"), out=grid[:, first:first + 2 * cols:2], casting="unsafe")
    grid[:, first + 1:first + 2 * cols - 1:2] = ord(",")
    if csv:
        grid[:, -1] = ord("\n")
    else:
        text[0] = grid[:, 0] = ord("[")
        grid[:, -2:] = np.frombuffer(b"],", np.uint8)
        grid[-1, -1] = ord("]")
    return memoryview(text)


def _json_text(doc: dict):
    """Yield json.dumps(doc, separators=(",", ":")) + "\n" as bytes-like
    pieces, with each array in doc (a 2-d integer matrix) standing for its
    list of rows: each array one piece from _int_text, never handed to json,
    and each other field encoded by json on its own."""
    yield b"{"
    for i, (k, v) in enumerate(doc.items()):
        comma = b"," if i else b""
        if type(v) is np.ndarray:
            yield comma + json.dumps(k).encode() + b":"
            yield _int_text(v)
        else:
            yield comma + json.dumps({k: v}, separators=(",", ":"))[1:-1].encode()
    yield b"}\n"


def dumps(gd: GroupedDesign) -> str:
    return b"".join(_json_text(grouped_to_dict(gd))).decode()


def save_json(gd: GroupedDesign, path) -> None:
    """Write the text of dumps(gd) to path, piece by piece as bytes: the
    generator and the level matrix are written from _int_text's arrays,
    with no str of the whole text, no join and no encode."""
    with open(path, "wb") as fh:
        fh.writelines(_json_text(grouped_to_dict(gd)))


def load_json(path) -> GroupedDesign:
    """A design JSON file; one that cannot be read, decoded as read_text
    decodes it or parsed (nesting too deep for the parser included) is a
    FileFormatError that names the path.  The file is read once, as
    bytes."""
    try:
        raw = Path(path).read_bytes()
        doc = _canonical_doc(raw)
        if doc is None:
            # decoded as Path.read_text decodes: the default encoding, universal newlines
            text = io.TextIOWrapper(io.BytesIO(raw), encoding=io.text_encoding(None)).read()
            doc = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return grouped_from_dict(doc)


def _canonical_doc(raw: bytes) -> dict | None:
    """The document of the file bytes raw, its level grids read straight
    from them as uint8 arrays (_level_grid), when they are in the form dumps
    writes for s <= 10; None for any other text, which json.loads then
    decides.

    The grids are the text after the first ',"generator":[', if there is
    one, and after the first ',"matrix":[' past it: the generator is
    optional and must come before the matrix.  json decodes the rest of
    the text with the constant NaN in each grid's place, and the arrays
    count only if those NaNs, the only constants json met, came back in
    order as the top-level "generator" and "matrix": not one nested in a
    group, and not one that a later key of the same name overrides.
    """
    if not raw.isascii():
        return None
    grids, at = {}, 0
    for key in ("generator", "matrix"):
        head = f',"{key}":['.encode()
        start = raw.find(head, at)
        if start < 0:
            continue
        grid = _level_grid(raw, start + len(head))
        if grid is None:
            return None
        at = grid[0]
        grids[key] = (start, *grid)
    if "matrix" not in grids:
        return None
    pieces, at = [], 0
    for key, (start, end, _) in grids.items():
        pieces += [raw[at:start], f',"{key}":NaN'.encode()]
        at = end
    pieces.append(raw[at:])
    markers = []

    def constant(name):
        markers.append(object())
        return markers[-1]

    try:
        doc = json.loads(b"".join(pieces).decode("ascii"), parse_constant=constant)
    except (ValueError, RecursionError):
        return None
    # any other NaN or Infinity in the text adds a marker
    if (len(markers) != len(grids) or type(doc) is not dict
            or any(doc.get(key) is not marker for key, marker in zip(grids, markers))):
        return None
    for key, (_, _, cells) in grids.items():
        doc[key] = cells
    return doc


def _level_grid(raw: bytes, first: int) -> tuple[int, np.ndarray] | None:
    """The end of the level grid that begins at raw[first], just past its
    closing ']', and its digits as a uint8 array; None unless it is in the
    form dumps writes for s <= 10.

    That form is rows '[d,...,d]' joined by ',' and a closing ']', every
    cell one digit and every row laid out byte for byte like the first, so
    that each holds as many cells.  Whitespace, a leading zero, a cell of
    two digits, a sign or a ragged row leave it.  The grid ends at the
    first row, at the first row's stride, whose last byte is no ',': that
    byte must be the closing ']'.  The digits are checked on the uint8 grid
    and kept in it.
    """
    row = raw.find(b"]", first) - first + 2  # '[d,...,d],' of the first row
    if row < 4 or row % 2 or len(raw) - first < row:
        return None
    whole = np.frombuffer(raw, np.uint8, (len(raw) - first) // row * row, first).reshape(-1, row)
    last = int(np.argmax(whole[:, -1] != ord(",")))
    if whole[last, -1] != ord("]"):
        return None
    grid = whole[:last + 1]
    marks = np.frombuffer(b"[" + b"," * (row // 2 - 2) + b"]", np.uint8)
    cells = grid[:, 1:row - 2:2] - np.uint8(ord("0"))  # a byte below '0' wraps past 9
    if not ((cells <= 9).all() and (grid[:, 0:row - 1:2] == marks).all()):
        return None
    return first + len(grid) * row, cells


def save_csv(design: Design, path) -> None:
    Path(path).write_bytes(_int_text(design.matrix, csv=True))


def load_csv(path, s: int) -> Design:
    rows = []
    try:
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            rows.append([int(tok) for tok in line.split(",")])
    except (OSError, ValueError) as exc:  # a UnicodeDecodeError is a ValueError
        raise FileFormatError(f"{path}: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise FileFormatError(f"{path}: ragged or empty CSV")
    try:
        # Python ints, int64 or wider, range-checked by Design before it narrows them
        return Design(s, np.array(rows), origin="external")
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_design_file(path, s: int | None = None) -> GroupedDesign:
    """Load either container.  CSV needs the level count supplied, and it
    must be one, as a JSON file's s must; a JSON file must agree with a
    level count that is supplied."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        if s is None:
            raise FileFormatError("loading CSV requires the level count (--s)")
        return GroupedDesign(load_csv(path, _level_count(s)), [], claimed_t0=0)
    gd = load_json(path)
    if s is not None and s != gd.design.s:
        raise FileFormatError(f"{path}: the level count given is {s}, "
                              f"the file's s is {gd.design.s}")
    return gd


def save_real_json(matrix: np.ndarray, origin: str, path,
                   int_matrix: np.ndarray | None = None) -> None:
    doc = {
        "runs": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "real_matrix": [[float(x) for x in row] for row in matrix],
        "origin": origin,
    }
    if int_matrix is not None:
        doc["int_matrix"] = int_matrix
    with open(path, "wb") as fh:
        fh.writelines(_json_text(doc))


def save_real_csv(matrix: np.ndarray, path) -> None:
    lines = [",".join(repr(float(x)) for x in row) for row in matrix]
    Path(path).write_text("\n".join(lines) + "\n")
