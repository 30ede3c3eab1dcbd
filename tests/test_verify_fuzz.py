"""Fuzz `goa verify` with single-field mutations of small design files.

The verifier must not crash on any document, must not pass a matrix with
one changed cell, and must pass a changed generator exactly when it spans
the row space of the original.  Byte mutations of the files goa writes, in
their generator and matrix grids or anywhere, must read the same through
the level-grid codec as through json alone.
"""

import contextlib
import functools
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from goa import cli
from goa import constructions as cx
from goa import gf
from goa import serialize

FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# replacement values: in and out of level range, wrong JSON types, huge
# integers, and short containers
VALUES = st.one_of(
    st.integers(-2, 9),
    st.sampled_from([None, True, False, 0.5, "1/2", "1/0", "x", 2**63, 10**30, {}]),
    st.lists(st.integers(-1, 3), max_size=4),
    st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), max_size=3),
)


@functools.cache
def docs() -> dict[str, dict]:
    survey = gf.ext_field(2, 4, cx.rank_primitive_polys(2, 4, 5)[0][0])
    built = {
        "thm1-s2": cx.construct_thm1(2),
        "thm1-s3": cx.construct_thm1(3),
        "ebert-s2": cx.construct_ebert(gf.ext_field(2, 4, gf.find_primitive_polys(2, 4)[0])),
        "survey-s2-k4-m5": cx.construct_consecutive(survey, 5),
    }
    return {name: json.loads(serialize.dumps(gd)) for name, gd in built.items()}


def paths(node, prefix=()):
    """Every field of a document: containers, their items and the leaves,
    with matrix rows but not matrix cells."""
    yield prefix
    if prefix == ("matrix",):
        yield from (("matrix", i) for i in range(len(node)))
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, (*prefix, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from paths(value, (*prefix, i))


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def verify(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "design.json"

    def run(doc) -> int:
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["verify", str(path)])

    return run


def test_unmutated_documents_verify(verify):
    assert [verify(doc) for doc in docs().values()] == [0] * len(docs())


@FUZZ
@given(data=st.data())
def test_any_field_mutation_exits_0_or_2(verify, data):
    doc = docs()[data.draw(st.sampled_from(sorted(docs())))]
    path = data.draw(st.sampled_from(list(paths(doc))))
    assert verify(mutated(doc, path, data.draw(VALUES))) in (0, 2)


@FUZZ
@given(data=st.data())
def test_no_single_cell_matrix_mutation_verifies(verify, data):
    doc = docs()[data.draw(st.sampled_from(sorted(docs())))]
    i = data.draw(st.integers(0, doc["runs"] - 1))
    j = data.draw(st.integers(0, doc["cols"] - 1))
    old = doc["matrix"][i][j]
    value = data.draw(VALUES.filter(lambda v: v != old or type(v) is not int))
    assert verify(mutated(doc, ("matrix", i, j), value)) == 2


@FUZZ
@given(data=st.data())
def test_mutated_generator_verifies_iff_same_row_space(verify, data):
    doc = docs()[data.draw(st.sampled_from(sorted(docs())))]
    s, gen = doc["s"], np.array(doc["generator"])
    field = gf.level_field(s)
    k, m = gen.shape
    i = data.draw(st.integers(0, k - 1))
    if data.draw(st.booleans()):
        # one cell, to any other level
        j = data.draw(st.integers(0, m - 1))
        value = data.draw(st.integers(0, s - 1).filter(lambda v: v != gen[i, j]))
        path, new = ("generator", i, j), gen.copy()
        new[i, j] = value
    else:
        # one row, to a combination of the rows or to any vector
        if data.draw(st.booleans()):
            a = data.draw(st.lists(st.integers(0, s - 1), min_size=k, max_size=k))
            row = gf.mat_mul(field, np.array([a]), gen)[0]
        else:
            row = np.array(data.draw(st.lists(st.integers(0, s - 1), min_size=m, max_size=m)))
        path, new = ("generator", i), gen.copy()
        new[i] = row
        value = [int(x) for x in row]
    same = gf.mat_rank(field, new) == k and gf.mat_rank(field, np.vstack([gen, new])) == k
    assert verify(mutated(doc, path, value)) == (0 if same else 2)


# bytes of the canonical matrix form and of what leaves it
MUTATION_BYTES = st.sampled_from(list(b'0123456789[],:" -{}N\n') + [0xC3])


@functools.cache
def files() -> dict[str, bytes]:
    """The documents as the bytes goa writes."""
    return {name: (json.dumps(doc, separators=(",", ":")) + "\n").encode()
            for name, doc in docs().items()}


@pytest.fixture(scope="module")
def verify_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("bytes") / "design.json"

    def run(raw: bytes) -> tuple[int, str, str]:
        path.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", str(path)])
        return code, out.getvalue(), err.getvalue()

    return run


def test_written_files_take_the_byte_path():
    for raw in files().values():
        assert serialize._canonical_doc(raw) is not None


@FUZZ
@given(data=st.data())
def test_byte_mutation_verifies_as_through_json(verify_bytes, data):
    raw = bytearray(files()[data.draw(st.sampled_from(sorted(files())))])
    grids = [(start, raw.index(b"]]", start) + 2)
             for start in (raw.index(key) for key in (b',"generator":[', b',"matrix":['))]
    for _ in range(data.draw(st.integers(1, 2))):
        # half the edits land in the generator or the matrix and its key; a
        # digit replaced by a digit there keeps the canonical form
        lo, hi = data.draw(st.sampled_from(grids)) if data.draw(st.booleans()) else (0, len(raw))
        at = data.draw(st.integers(lo, min(hi, len(raw)) - 1))
        op = data.draw(st.sampled_from(["replace", "replace", "insert", "delete"]))
        if op == "delete":
            del raw[at]
        elif op == "insert":
            raw.insert(at, data.draw(MUTATION_BYTES))
        else:
            raw[at] = data.draw(MUTATION_BYTES)
    fast = verify_bytes(bytes(raw))
    with mock.patch.object(serialize, "_canonical_doc", return_value=None):
        assert verify_bytes(bytes(raw)) == fast
