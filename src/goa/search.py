"""Randomized grouping search and the consecutive-powers survey driver.

The grouping algorithm starts from a generator matrix of a regular
minimum-aberration design, rewrites its columns as powers of a primitive
element under a randomly chosen primitive polynomial and a random
non-singular change of basis, and then greedily collects translates of the
exponent set that are pairwise disjoint.  Translation preserves the
wordlength pattern, so every group inherits the seed's aberration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf as gflib
from .designs import (
    _CHUNK_CELLS,
    GeneratorMatrix,
    Group,
    GroupedDesign,
    generator_from_exponents,
    pg_points,
    regular_goa,
    strength_from_wlp,
    wlp,
)
from .errors import FormatMismatchError, GoaError, NoGroupingError, RankDeficientError
from .constructions import rank_primitive_polys

# Two generator matrices for the minimum-aberration OA(16, 5, 2, 4); they
# span the same wordlength pattern from different independent columns.
SEED_GENERATORS: dict[str, GeneratorMatrix] = {
    "oa16-5-ma": GeneratorMatrix(
        2,
        [
            [1, 0, 0, 0, 1],
            [0, 1, 0, 0, 1],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 1, 1],
        ],
    ),
    "oa16-5-ma-alt": GeneratorMatrix(
        2,
        [
            [1, 1, 1, 0, 1],
            [0, 0, 0, 1, 1],
            [1, 0, 1, 1, 1],
            [1, 1, 0, 0, 0],
        ],
    ),
    # MA OA(243, 6, 3, 5): single defining word of length six.
    "oa243-6-ma": GeneratorMatrix(
        3,
        [
            [1, 0, 0, 0, 0, 2],
            [0, 1, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 2],
            [0, 0, 0, 1, 0, 2],
            [0, 0, 0, 0, 1, 2],
        ],
    ),
}


@dataclass
class SearchConfig:
    """Knobs for the grouping search; identical configs give identical output."""

    restarts: int = 10_000
    seed: int = 0
    min_groups: int = 1


def algorithm_42(gen: GeneratorMatrix, cfg: SearchConfig) -> GroupedDesign:
    """Grouping by translated exponent sets (greedy over all shifts).

    Per restart: draw a primitive polynomial uniformly, draw a non-singular
    k x k matrix H by rejection, write the columns of H G as PG exponents
    mod v, then scan shifts j = 1, ..., v-1 and keep every translate
    disjoint from what has been collected.  The best restart (largest group
    count, first found on ties) is expanded, re-verified and returned.
    """
    s, k = gen.s, gen.k
    if not gflib.is_prime(s):
        raise gflib.NonPrimeError(f"grouping search needs a prime level count, got {s}")
    if cfg.restarts < 1:
        raise GoaError(f"restarts must be at least 1, got {cfg.restarts}")
    if gflib.mat_rank(gflib.level_field(s), gen.matrix) != k:
        raise RankDeficientError("seed generator must have full row rank")
    if not gen.matrix.any(axis=0).all():
        raise FormatMismatchError("seed generator has a zero column, which is no PG point")
    exts = [gflib.ext_field(s, k, h) for h in gflib.find_primitive_polys(s, k)]
    g_count, which, groups = _best_restart(gen, cfg, exts)
    if g_count < cfg.min_groups:
        raise NoGroupingError(f"best grouping has g={g_count} < {cfg.min_groups}")
    ext = exts[which]
    m = gen.m
    claimed = strength_from_wlp(wlp(gen))
    out_gen = generator_from_exponents(ext, [e for grp in groups for e in grp])
    out_groups = [Group(list(range(i * m, (i + 1) * m)), claimed_strength=claimed)
                  for i in range(g_count)]
    return regular_goa(
        out_gen, out_groups,
        f"alg42(s={s},k={k},m={m},h={ext.h},restarts={cfg.restarts},seed={cfg.seed})")


def _best_restart(gen: GeneratorMatrix, cfg: SearchConfig,
                  exts: list[gflib.ExtField]) -> tuple[int, int, list[tuple[int, ...]]]:
    """(g, polynomial index, groups) of the best restart, the first on ties.

    Restarts run in chunks of _CHUNK_CELLS // (k v), each on its own rng
    stream.  H is singular iff H x = 0 for some PG point x, and the
    translates j' + B and j + B meet iff j - j' is a difference of B.
    """
    s, k = gen.s, gen.k
    field = gflib.level_field(s)
    v = (s**k - 1) // (s - 1)
    points = pg_points(exts[0]).T
    logs = np.stack([ext.log for ext in exts])
    size = max(1, _CHUNK_CELLS // (k * v))
    best = None
    for start in range(0, cfg.restarts, size):
        rngs = [np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(r,)))
                for r in range(start, min(start + size, cfg.restarts))]
        n = len(rngs)
        which = np.array([int(rng.integers(len(exts))) if len(exts) > 1 else 0 for rng in rngs])
        h_mats = np.empty((n, k, k), dtype=np.int64)
        todo = np.arange(n)
        while len(todo):
            h_mats[todo] = [rngs[r].integers(0, s, size=(k, k)) for r in todo]
            hx = gflib.mat_mul(field, h_mats[todo].reshape(-1, k), points).reshape(-1, k, v)
            todo = todo[(hx == 0).all(axis=1).any(axis=1)]
        hg = gflib.mat_mul(field, h_mats.reshape(-1, k), gen.matrix).reshape(n, k, -1)
        exps = logs[which[:, None], gflib.code(s, hg.transpose(0, 2, 1))] % v
        pairs = (exps[:, :, None] - exps[:, None, :]).reshape(n, -1) % v
        diffs = np.zeros((n, v), dtype=bool)
        diffs[np.arange(n)[:, None], pairs] = True
        wrapped = np.tile(diffs, 2)  # wrapped[:, v-j:2v-j] is diffs shifted by j
        blocked = np.zeros_like(diffs)
        kept = np.zeros_like(diffs)
        for j in range(v):
            kept[:, j] = keep = ~blocked[:, j]
            blocked |= wrapped[:, v - j:2 * v - j] & keep[:, None]
        g = kept.sum(axis=1)
        r = int(np.argmax(g))
        if best is None or g[r] > best[0]:
            base = exps[r].tolist()
            groups = [tuple((e + j) % v for e in base) for j in np.flatnonzero(kept[r]).tolist()]
            best = (int(g[r]), int(which[r]), groups)
    return best


@dataclass
class SurveyRow:
    s: int
    k: int
    m: int
    t: int
    g: int
    wlp_head: tuple[int, int, int, int]  # (A_3, A_4, A_5, A_6), zero padded
    h: gflib.Poly


def survey(s: int, k: int, m_values=None) -> list[SurveyRow]:
    """Best consecutive-powers grouping per group size m in (k, k+4].

    For each m the primitive polynomials are ranked and the winner's group
    parameters are reported; rows whose group count would be zero are
    skipped.  The group count is the ceiling floor(v/m), which the
    consecutive construction attains by design.
    """
    if s**k >= 1000:
        raise ValueError("survey covers run sizes below 1000")
    v = (s**k - 1) // (s - 1)
    rows = []
    for m in m_values or range(k + 1, k + 5):
        g = v // m
        if g < 1:
            continue
        best, pattern = rank_primitive_polys(s, k, m)[0]
        padded = pattern + (0,) * max(0, 6 - len(pattern))
        rows.append(
            SurveyRow(
                s=s, k=k, m=m,
                t=strength_from_wlp(pattern),
                g=g,
                wlp_head=tuple(padded[2:6]),
                h=best,
            )
        )
    return rows


def survey_table(rows: list[SurveyRow]) -> str:
    header = f"{'s':>2} {'k':>2} {'m':>3} {'t':>2} {'g':>4}  {'A3':>4} {'A4':>4} {'A5':>4} {'A6':>4}  h"
    lines = [header]
    for row in rows:
        a3, a4, a5, a6 = row.wlp_head
        lines.append(
            f"{row.s:>2} {row.k:>2} {row.m:>3} {row.t:>2} {row.g:>4}"
            f"  {a3:>4} {a4:>4} {a5:>4} {a6:>4}  {row.h.format()}"
        )
    return "\n".join(lines)
