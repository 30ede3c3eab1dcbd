"""Randomized grouping search and the consecutive-powers survey driver.

The grouping algorithm starts from a generator matrix of a regular
minimum-aberration design, rewrites its columns as powers of a primitive
element under a randomly chosen primitive polynomial and a random
non-singular change of basis, and then greedily collects translates of the
exponent set that are pairwise disjoint.  Translation preserves the
wordlength pattern, so every group inherits the seed's aberration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf as gflib
from .designs import (
    GeneratorMatrix,
    Group,
    GroupedDesign,
    generator_from_exponents,
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


# the share of restarts whose first word block may hold no non-singular H
_REDRAW_SHARE = 1 / 16
# bytes one chunk of restarts may hold at once: its words and their Lemire
# products, the H stacks under elimination and the scan masks (1.25 MiB, some
# 330 restarts; larger chunks save little time and raise the peak RSS)
_CHUNK_BYTES = 5 << 18


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
    count, first found on ties) is expanded, re-verified and returned.  A
    seed whose phi(s^k - 1)/k fields of s^k elements, one per primitive
    polynomial, would exceed DESK_ORDER_LIMIT cells is refused before any
    is built.
    """
    s, k = gen.s, gen.k
    if cfg.restarts < 1:
        raise GoaError(f"restarts must be at least 1, got {cfg.restarts}")
    if gflib.mat_rank(gflib.level_field(s), gen.matrix) != k:
        raise RankDeficientError("seed generator must have full row rank")
    if not gen.matrix.any(axis=0).all():
        raise FormatMismatchError("seed generator has a zero column, which is no PG point")
    cells = s**k
    if cells <= gflib.DESK_ORDER_LIMIT:  # else one field is already too large to factor n
        n = cells - 1
        primes = gflib.factorize(n)
        cells *= n // math.prod(primes) * math.prod(q - 1 for q in primes) // k  # phi(n) / k
    if cells > gflib.DESK_ORDER_LIMIT:
        raise GoaError(f"alg42 over GF({s}^{k}) needs {cells} field table cells, "
                       f"above the desk-scale limit of {gflib.DESK_ORDER_LIMIT}")
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

    Restart r reads the stream of numpy's
    default_rng(SeedSequence(cfg.seed, spawn_key=(r,))): one
    Generator.integers(len(exts)) for the polynomial (none when there is
    one), then Generator.integers(0, s, (k, k)) until H is non-singular.
    goa computes that stream itself, a chunk of restarts at a time
    (_pcg_seeds, _stream_words, _bounded); the tests pin it to numpy's.
    H is kept iff gf.mat_rank says it has rank k, and the translates
    j' + B and j + B meet iff j - j' is a difference of B.
    """
    s, k = gen.s, gen.k
    field = gflib.level_field(s)
    v = (s**k - 1) // (s - 1)
    logs = np.stack([ext.log for ext in exts])
    attempts, size = _chunking(s, k)
    best = None
    for start in range(0, cfg.restarts, size):
        seeds = _pcg_seeds(cfg.seed, range(start, min(start + size, cfg.restarts)))
        which, h_mats = _draw_restarts(field, k, len(exts), seeds, attempts)
        n = len(which)
        hg = gflib.mat_mul(field, h_mats.reshape(-1, k), gen.matrix).reshape(n, k, -1)
        exps = logs[which[:, None], gflib.code(s, hg.transpose(0, 2, 1))] % v
        pairs = (exps[:, :, None] - exps[:, None, :]).reshape(n, -1) % v
        diffs = np.zeros((v, n), dtype=bool)
        diffs[pairs, np.arange(n)[:, None]] = True
        # bit r % 64 of word r // 64 in each row is restart r; pad bits are never blocked
        diffs = np.packbits(diffs, axis=1, bitorder="little")
        diffs = np.pad(diffs, ((0, 0), (0, -n % 64 // 8))).view("<u8")
        blocked = np.zeros_like(diffs)
        kept = np.empty_like(diffs)
        for j in range(v):
            kept[j] = keep = ~blocked[j]
            blocked[j + 1:] |= diffs[1:v - j] & keep  # only shifts after j read blocked again
        kept = np.unpackbits(kept.view(np.uint8), axis=1, count=n, bitorder="little")
        g = kept.sum(axis=0)
        r = int(np.argmax(g))
        if best is None or g[r] > best[0]:
            base = exps[r].tolist()
            groups = [tuple((e + j) % v for e in base) for j in np.flatnonzero(kept[:, r]).tolist()]
            best = (int(g[r]), int(which[r]), groups)
    return best


def _chunking(s: int, k: int) -> tuple[int, int]:
    """(H attempts in a restart's first word block, restarts per chunk).

    A random k x k H over GF(s) is singular with probability
    1 - prod_i (1 - s^-i); the attempts leave at most _REDRAW_SHARE of
    restarts without a non-singular one.  A restart holds about 24 bytes
    per 32-bit word drawn (the word, its Lemire product and mask, the cell
    kept), 46 per cell of H and 3 per shift.  A rank call stacks
    ceil(chunk / open) attempts of each open restart at 32 bytes a cell
    (the gathered attempt and the elimination's stacks): one per restart
    at first, then q ceil(1/q) per restart with a share q of restarts
    still open, about 1.4 at most (over GF(2), where q is about 0.7; 1.3
    over GF(3), where q is about 0.44).  The sweep holds the
    difference rows and kept as bytes, and its packed words at an eighth
    of a byte each.
    """
    singular = 1 - np.prod(1 - float(s) ** -np.arange(1, k + 1))
    attempts = max(1, int(np.ceil(np.log(_REDRAW_SHARE) / np.log(singular))))
    v = (s**k - 1) // (s - 1)
    return attempts, max(1, _CHUNK_BYTES // (24 * (2 + attempts * k * k) + 46 * k * k + 3 * v))


def _draw_restarts(field: gflib.GF, k: int, polys: int,
                   seeds: list[tuple[int, int]], attempts: int) -> tuple[np.ndarray, np.ndarray]:
    """(polynomial index, H) of each seeded restart.

    A restart's first word block holds the index and `attempts` H draws.
    The cell words Lemire's rule keeps after the index word are gathered
    at one cumsum offset per restart, and attempt a is kept cells
    a k^2, ..., (a + 1) k^2 - 1.  Each gf.mat_rank call tests the next
    ceil(len(seeds) / open) attempts of every restart still open, so it
    holds about a chunk of k x k matrices, and a restart keeps its first
    attempt of rank k in stream order; later attempts tested in the same
    call are dropped.  A restart whose attempts are all singular draws a
    block twice as long and tests the attempts it adds.
    The 32-bit halves are read low half first, as numpy's PCG64 hands
    them to Generator.integers.
    """
    s, cells = field.s, k * k
    which = np.zeros(len(seeds), dtype=np.int64)
    h_mats = np.empty((len(seeds), cells), dtype=np.int64)
    todo = np.arange(len(seeds))
    tested = np.zeros(len(seeds), dtype=np.int64)  # leading attempts known singular
    while len(todo):
        u = _stream_words([seeds[i] for i in todo], (2 + attempts * cells) // 2).view("<u4")
        start = np.zeros(len(todo), dtype=np.int64)
        if polys > 1:
            value, ok = _bounded(u, polys)
            first = ok.argmax(axis=1)
            which[todo] = value[np.arange(len(todo)), first]
            start = np.where(ok.any(axis=1), first + 1, u.shape[1])
            del value, ok  # free them before the next block-sized arrays
        value, ok = _bounded(u, s)
        ok &= np.arange(u.shape[1]) >= start[:, None]
        count = ok.sum(axis=1)
        flat, offset = value[ok], np.cumsum(count) - count
        del u, value, ok  # free the block before the rank calls' stacks
        drawn = np.minimum(count // cells, attempts)
        done = tested[todo]
        open_ = np.ones(len(todo), dtype=bool)
        while len(test := np.flatnonzero(open_ & (done < drawn))):
            b = np.minimum(-(-len(seeds) // open_.sum()), drawn[test] - done[test])
            of = np.repeat(test, b)  # the restart of each attempt tested, in stream order
            a = done[of] + np.arange(len(of)) - np.repeat(np.cumsum(b) - b, b)
            h = flat[offset[of, None] + a[:, None] * cells + np.arange(cells)]
            ok = np.flatnonzero(gflib.mat_rank(field, h.reshape(-1, k, k)) == k)
            first = ok[np.diff(of[ok], prepend=-1) != 0]  # each restart's first non-singular H
            h_mats[todo[of[first]]] = h[first]
            open_[of[first]] = False
            done[test] += b
        tested[todo] = drawn
        todo = todo[open_]
        attempts *= 2
    return which, h_mats.reshape(-1, k, k)


# numpy's SeedSequence mixing (pool size 4) and PCG64 multiplier; NEP 19
# keeps the streams they define stable across numpy releases
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative int, low first."""
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg_seeds(seed: int, restarts) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence(seed, spawn_key=(r,))) for each r.

    The entropy is the seed's words, zero padded to the pool size, then r's
    one or two words.  The pool after the seed's words is shared, so only
    the spawn words are hashed per r, in uint32 arrays (the same code runs
    on Python ints masked to 32 bits).  PCG64 is seeded from the
    generated state by two 128-bit LCG steps.
    """
    if seed < 0:
        raise GoaError(f"the rng seed must be non-negative, got {seed}")
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    r = np.asarray(restarts, dtype=np.uint64)
    const = _INIT_A

    def hashmix(x):
        nonlocal const
        x = x ^ const
        const = const * _MULT_A & _MASK32
        x = x * const & _MASK32
        return x ^ x >> 16

    def mix(x, y):
        x = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for i in range(_POOL_SIZE):
        for j in range(_POOL_SIZE):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for w in entropy[_POOL_SIZE:]:
        pool = [mix(x, hashmix(w)) for x in pool]
    pool = [mix(x, hashmix((r & _MASK32).astype(np.uint32))) for x in pool]
    high = (r >> np.uint64(32)).astype(np.uint32)
    pool = [np.where(high > 0, mix(x, hashmix(high)), x) for x in pool]
    const, state = _INIT_B, []
    for i in range(2 * _POOL_SIZE):
        x = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        x = x * const & _MASK32
        state.append((x ^ x >> 16).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (state[2 * i] | state[2 * i + 1] << np.uint64(32)).tolist() for i in range(4))
    seeds = []
    for a, b, c, d in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        seeds.append(((((a << 64 | b) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return seeds


def _stream_words(seeds: list[tuple[int, int]], length: int) -> np.ndarray:
    """The first `length` uint64 outputs of PCG64 from each (state, inc)."""
    bitgen = np.random.PCG64(0)
    out = np.empty((len(seeds), length), dtype="<u8")
    for i, (state, inc) in enumerate(seeds):
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        out[i] = bitgen.random_raw(length)
    return out


def _bounded(u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Generator.integers(0, n) read off 32-bit words: each word's value and
    whether Lemire's rule keeps it, as numpy's buffered_bounded_lemire_uint32
    does (value (u n) >> 32; rejected iff (u n) mod 2^32 < 2^32 mod n)."""
    m = u.astype(np.uint64)
    m *= np.uint64(n)
    ok = (m & np.uint64(_MASK32)) >= (1 << 32) % n
    m >>= np.uint64(32)
    return m, ok


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
    consecutive construction attains by design.  An empty m_values gives
    no rows; s must be a level count and k at least 1.
    """
    if k < 1:
        raise GoaError(f"survey needs k >= 1, got {k}")
    if s**k >= 1000:
        raise GoaError("survey covers run sizes below 1000")
    gflib.level_field(s)  # raises NotPrimePowerError
    v = (s**k - 1) // (s - 1)
    rows = []
    for m in range(k + 1, k + 5) if m_values is None else m_values:
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
