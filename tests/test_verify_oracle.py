"""verify_claims against an exhaustive oracle verifier, check by check.

Every shortcut under verify_claims (the linear reading that groups inherit
from a linear array, the top(t) cut of a pattern, the generator test by
ranks, a strength claim read off a pattern) must reach the verdicts that
the exhaustive oracles reach one tuple, one triple and one row at a time.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from goa import designs as dz
from goa import gf

from conftest import (oracle_is_linear, oracle_max_strength, oracle_p_of_d, oracle_span,
                      oracle_verify_claims, oracle_wlp_of_rows)

# (s, k) with s^k <= 64 runs before any repetition
FIELDS = [(2, k) for k in range(1, 7)] + [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
                                           (5, 1), (5, 2)]
KINDS = ["linear", "repeated", "broken", "level-permuted", "random", "kronecker"]


def _rows(kind: str, field: gf.GF, gen: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The level matrix of one design kind, built on the span of gen."""
    s, m = field.s, gen.shape[1]
    rows = oracle_span(field, gen)
    if kind == "repeated":
        rows = np.tile(rows, (int(rng.integers(2, 4)), 1))
    elif kind == "broken":
        i, j = rng.integers(len(rows)), rng.integers(m)
        rows[i, j] = (rows[i, j] + rng.integers(1, s)) % s
    elif kind == "level-permuted":
        perms = np.array([rng.permutation(s) for _ in range(m)])
        rows = perms[np.arange(m), rows]
    elif kind == "random":
        rows = rng.integers(0, s, size=rows.shape)
    elif kind == "kronecker":
        shift = rng.integers(0, s, size=(int(rng.integers(2, 4)), m))
        rows = field.add_t[shift[:, None, :], rows[None, :, :]].reshape(-1, m)
    return rows[rng.permutation(len(rows))]


def _claim(draw, true: int, cap: int) -> int:
    """A claim at the true strength -1, 0 or +1, inside 0..cap."""
    return min(max(true + draw(st.sampled_from([-1, 0, 1])), 0), cap)


def _stored_wlp(draw, s: int, rows: np.ndarray):
    right = oracle_wlp_of_rows(s, rows) if oracle_is_linear(dz.Design(s, rows)) else None
    how = draw(st.sampled_from(["none", "right", "perturbed"]))
    if how == "none":
        return None
    if right is None:  # no pattern is right: store any
        return tuple(draw(st.lists(st.integers(0, 3), min_size=rows.shape[1],
                                   max_size=rows.shape[1])))
    if how == "right":
        return right
    j = draw(st.integers(0, len(right) - 1))
    return right[:j] + (right[j] + 1,) + right[j + 1:]


def _stored_p(draw, design: dz.Design, cols: list[int]):
    how = draw(st.sampled_from(["none", "right", "perturbed", "half"]))
    if how == "none":
        return None
    if how == "half" or len(cols) < 3:
        return Fraction(1, 2)
    right = oracle_p_of_d(design, cols)
    if how == "right":
        return right
    return right + Fraction(draw(st.sampled_from([-1, 1])), math.comb(len(cols), 3))


def _stored_generator(draw, field: gf.GF, gen: np.ndarray, rng: np.random.Generator):
    how = draw(st.sampled_from(["none", "right", "one-cell", "random"]))
    if how == "none":
        return None
    stored = gen.copy()
    if how == "one-cell":
        i, j = rng.integers(gen.shape[0]), rng.integers(gen.shape[1])
        stored[i, j] = (stored[i, j] + rng.integers(1, field.s)) % field.s
    elif how == "random":
        k = max(1, gen.shape[0] + draw(st.sampled_from([-1, 0, 0, 1])))
        stored = rng.integers(0, field.s, size=(k, gen.shape[1]))
    return dz.GeneratorMatrix(field.s, stored)


@st.composite
def claimed_designs(draw) -> dz.GroupedDesign:
    """A design of one kind over s in {2, 3, 4, 5}, a random disjoint
    grouping, claims at each subject's true strength -1, 0 and +1, and
    stored patterns, p values and a generator that are right or not."""
    s, k = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 7))
    field = gf.level_field(s)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gen = rng.integers(0, s, size=(k, m))  # its rank may fall short of k
    design = dz.Design(s, _rows(draw(st.sampled_from(KINDS)), field, gen, rng))

    labels = draw(st.lists(st.integers(-1, 2), min_size=m, max_size=m))  # -1: ungrouped
    order = draw(st.permutations(range(m)))
    groups = []
    for cols in ([c for c in order if labels[c] == g] for g in range(3)):
        if not cols:
            continue
        sub = design.matrix[:, cols]
        true = oracle_max_strength(dz.Design(s, sub))
        verified = draw(st.sampled_from([None, _claim(draw, true, len(cols))]))
        groups.append(dz.Group(cols, _claim(draw, true, len(cols)), verified,
                               _stored_wlp(draw, s, sub), _stored_p(draw, design, cols)))
    true0 = oracle_max_strength(design)
    verified0 = draw(st.sampled_from([None, _claim(draw, true0, m)]))
    return dz.GroupedDesign(design, groups, _claim(draw, true0, m), verified0,
                            _stored_generator(draw, field, gen, rng))


@settings(max_examples=300, deadline=None)
@given(gd=claimed_designs())
def test_verdicts_match_the_oracle_verifier(gd):
    want = oracle_verify_claims(gd)  # before verify_claims records its findings in gd
    report = dz.verify_claims(gd)
    assert [c.ok for c in report.checks] == want
    assert report.ok == all(want)
