"""Stored difference schemes, one fixed table per shape.

Keys are (s, r, c).  Each entry has an all-zero first column; its rows
are not in the normal form that `constructions.ds_search` returns, and
nothing rebuilds them.  ds_catalog re-verifies the balance property
before handing a scheme out, so a corrupted entry cannot leak.
"""

STORED_SCHEMES: dict[tuple[int, int, int], list[list[int]]] = {
    (2, 4, 4): [
        [0, 1, 0, 1],
        [0, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 1],
    ],
    (3, 6, 6): [
        [0, 2, 0, 1, 2, 1],
        [0, 0, 2, 1, 1, 2],
        [0, 0, 1, 0, 2, 0],
        [0, 1, 0, 0, 0, 2],
        [0, 1, 1, 2, 1, 1],
        [0, 2, 2, 2, 0, 0],
    ],
    (4, 8, 8): [
        [0, 3, 0, 3, 0, 0, 3, 3],
        [0, 0, 1, 1, 3, 0, 1, 2],
        [0, 2, 1, 0, 2, 3, 3, 1],
        [0, 1, 0, 2, 1, 3, 1, 0],
        [0, 3, 3, 2, 2, 2, 0, 2],
        [0, 2, 2, 1, 0, 1, 0, 0],
        [0, 0, 2, 0, 1, 2, 2, 3],
        [0, 1, 3, 3, 3, 1, 2, 1],
    ],
    (5, 10, 10): [
        [0, 3, 2, 1, 0, 0, 4, 3, 0, 1],
        [0, 0, 0, 4, 1, 4, 1, 3, 1, 0],
        [0, 1, 1, 3, 0, 1, 3, 1, 1, 3],
        [0, 4, 2, 2, 2, 4, 2, 2, 3, 3],
        [0, 2, 0, 3, 2, 3, 4, 4, 4, 2],
        [0, 0, 1, 1, 4, 2, 0, 4, 3, 4],
        [0, 3, 4, 0, 1, 1, 2, 0, 4, 4],
        [0, 1, 3, 0, 3, 2, 1, 2, 0, 2],
        [0, 2, 4, 2, 3, 0, 0, 1, 2, 0],
        [0, 4, 3, 4, 4, 3, 3, 0, 2, 1],
    ],
}
