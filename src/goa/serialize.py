"""Bit-exact JSON/CSV file formats for designs.

The JSON container stores only integers, strings and "num/den" rational
strings, so a load/save round trip is byte identical.  CSV files carry one
run per line as comma-separated levels with no header.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import gf as gflib
from .designs import Design, GeneratorMatrix, Group, GroupedDesign
from .errors import FileFormatError, NotPrimePowerError


def fraction_to_str(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def fraction_from_str(text: str) -> Fraction:
    try:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    except Exception as exc:
        raise FileFormatError(f"bad rational {text!r}") from exc


def grouped_to_dict(gd: GroupedDesign) -> dict:
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
        "generator": gd.generator.matrix.tolist() if gd.generator is not None else None,
        "matrix": gd.design.matrix.tolist(),
        "origin": gd.design.origin,
    }


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
                    columns=[_typed(c, int, f"{where}.columns")
                             for c in _typed(g["columns"], list, f"{where}.columns")],
                    claimed_strength=_typed(g["claimed_strength"], int,
                                            f"{where}.claimed_strength"),
                    verified_strength=_opt_int(g["verified_strength"],
                                               f"{where}.verified_strength"),
                    wlp=(tuple(_typed(a, int, f"{where}.wlp")
                               for a in _typed(g["wlp"], list, f"{where}.wlp"))
                         if g["wlp"] is not None else None),
                    p=fraction_from_str(g["p"]) if g["p"] is not None else None,
                )
            )
        claimed_t0 = _typed(doc["claimed_t0"], int, "claimed_t0")
        verified_t0 = _opt_int(doc["verified_t0"], "verified_t0")
        _check_claims(design.cols, claimed_t0, verified_t0, groups)
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


def _opt_int(value, name: str) -> int | None:
    return None if value is None else _typed(value, int, name)


def _int_matrix(rows, name: str) -> np.ndarray:
    """A list of integer rows; one boolean, float or string cell rejects it."""
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
    except (ValueError, NotPrimePowerError) as exc:
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
        bad = [c for c in grp.columns if not 0 <= c < cols]
        if bad:
            raise FileFormatError(f"{where}.columns: {bad[0]} outside 0..{cols - 1}")
        if len(set(grp.columns)) != grp.size:
            raise FileFormatError(f"{where}.columns: duplicate column")
        for name in ("claimed_strength", "verified_strength"):
            t = getattr(grp, name)
            if t is not None and not 0 <= t <= grp.size:
                raise FileFormatError(f"{where}.{name} {t} outside 0..{grp.size}")


def dumps(gd: GroupedDesign) -> str:
    return json.dumps(grouped_to_dict(gd), separators=(",", ":")) + "\n"


def save_json(gd: GroupedDesign, path) -> None:
    Path(path).write_text(dumps(gd))


def load_json(path) -> GroupedDesign:
    """A design JSON file; one that cannot be read, decoded as UTF-8 or
    parsed (nesting too deep for the parser included) is a FileFormatError
    that names the path."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return grouped_from_dict(doc)


def save_csv(design: Design, path) -> None:
    lines = [",".join(str(int(x)) for x in row) for row in design.matrix]
    Path(path).write_text("\n".join(lines) + "\n")


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
        return Design(s, np.array(rows, dtype=np.int64), origin="external")
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_design_file(path, s: int | None = None) -> GroupedDesign:
    """Load either container; CSV needs the level count supplied, and a
    JSON file must agree with one that is."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        if s is None:
            raise FileFormatError("loading CSV requires the level count (--s)")
        return GroupedDesign(load_csv(path, s), [], claimed_t0=0)
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
        doc["int_matrix"] = int_matrix.tolist()
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def save_real_csv(matrix: np.ndarray, path) -> None:
    lines = [",".join(repr(float(x)) for x in row) for row in matrix]
    Path(path).write_text("\n".join(lines) + "\n")
