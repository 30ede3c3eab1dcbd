"""The chunked alg42 restart engine against the one-restart-at-a-time oracle.

search._best_restart draws and scans a whole chunk of restarts at once;
these tests compare its winner (group count, polynomial index, groups) with
the per-restart loop in conftest, and compare the design file that
algorithm_42 writes with the one it writes when the oracle picks the
winner, at restart counts on both sides of a chunk boundary, at chunk
caps small enough that chunks hold one or a few restarts, and with
restarts that draw several word blocks.

The draw itself (_pcg_seeds, _stream_words, _bounded, _draw_restarts) is
checked word for word against numpy's SeedSequence, PCG64 and
Generator.integers, the oracle's streams, and Lemire's rejection branch,
which random words reach about once in 2^32 draws, against a transcription
of numpy's buffered_bounded_lemire_uint32 on crafted words.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goa import designs as dz
from goa import gf
from goa import search as sx
from goa import serialize
from goa.errors import FormatMismatchError

from conftest import oracle_best_restart, oracle_row_reduce

# s4: the first group of `construct consecutive --s 4 --k 3 --m 5`, over GF(4)
SEEDS = {**sx.SEED_GENERATORS, "s5": dz.GeneratorMatrix(5, [[1, 0, 1], [0, 1, 1]]),
         "s4": dz.GeneratorMatrix(4, [[1, 0, 0, 2, 2], [0, 1, 0, 1, 3], [0, 0, 1, 1, 0]])}
# rng seeds of one to ten 32-bit words (the SeedSequence pool holds four)
RNG_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**320))
# restart indices of one and two 32-bit words
RESTARTS = st.one_of(st.integers(0, 10_000), st.integers(0, 2**64 - 16))
# 22 is the number of primitive quintics over GF(3)
BOUNDS = st.sampled_from([2, 3, 5, 7, 22])


def chunk_size(gen: dz.GeneratorMatrix) -> int:
    return sx._chunking(gen.s, gen.k)[1]


def all_exts(gen: dz.GeneratorMatrix) -> list[gf.ExtField]:
    return [gf.ext_field(gen.s, gen.k, h) for h in gf.find_primitive_polys(gen.s, gen.k)]


def default_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))


def lemire(words, n: int) -> int:
    """numpy's buffered_bounded_lemire_uint32 for Generator.integers(0, n),
    one value, reading 32-bit words from an iterator."""
    rng = n - 1
    m = next(words) * (rng + 1)
    leftover = m & 0xFFFFFFFF
    if leftover < rng + 1:
        threshold = (0xFFFFFFFF - rng) % (rng + 1)
        while leftover < threshold:
            m = next(words) * (rng + 1)
            leftover = m & 0xFFFFFFFF
    return m >> 32


def rejected(n: int) -> list[int]:
    """Every 32-bit word u that Lemire's rule rejects for bound n:
    (u n) mod 2^32 < 2^32 mod n."""
    return [(j << 32 | d) // n for j in range(n) for d in range((1 << 32) % n)
            if (j << 32 | d) % n == 0]


def per_attempt_draw(field: gf.GF, k: int, polys: int, seeds, attempts: int):
    """(polynomial index, H) of each seeded restart, with one rank call per
    attempt index over the restarts still open: the reference for
    _draw_restarts, whose rank calls take several attempts of a restart."""
    s, cells = field.s, k * k
    which = np.zeros(len(seeds), dtype=np.int64)
    h_mats = np.empty((len(seeds), cells), dtype=np.int64)
    todo = np.arange(len(seeds))
    tested = np.zeros(len(seeds), dtype=np.int64)
    while len(todo):
        u = sx._stream_words([seeds[i] for i in todo], (2 + attempts * cells) // 2).view("<u4")
        start = np.zeros(len(todo), dtype=np.int64)
        if polys > 1:
            value, ok = sx._bounded(u, polys)
            first = ok.argmax(axis=1)
            which[todo] = value[np.arange(len(todo)), first]
            start = np.where(ok.any(axis=1), first + 1, u.shape[1])
        value, ok = sx._bounded(u, s)
        ok &= np.arange(u.shape[1]) >= start[:, None]
        count = ok.sum(axis=1)
        flat, offset = value[ok], np.cumsum(count) - count
        open_ = np.ones(len(todo), dtype=bool)
        for a in range(int(tested[todo].min()), min(attempts, int(count.max()) // cells)):
            test = np.flatnonzero(open_ & (count >= (a + 1) * cells) & (tested[todo] <= a))
            h = flat[offset[test, None] + a * cells + np.arange(cells)]
            ok = gf.mat_rank(field, h.reshape(-1, k, k)) == k
            h_mats[todo[test[ok]]] = h[ok]
            open_[test[ok]] = False
            if not open_.any():
                break
        tested[todo] = np.minimum(count // cells, attempts)
        todo = todo[open_]
        attempts *= 2
    return which, h_mats.reshape(-1, k, k)


def assert_same_file(gen: dz.GeneratorMatrix, cfg: sx.SearchConfig):
    got = serialize.dumps(sx.algorithm_42(gen, cfg))
    with mock.patch.object(sx, "_best_restart", oracle_best_restart):
        want = serialize.dumps(sx.algorithm_42(gen, cfg))
    assert got == want


@pytest.mark.parametrize("name", sorted(SEEDS))
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_winner_at_chunk_boundary(name, offset):
    gen = SEEDS[name]
    cfg = sx.SearchConfig(restarts=chunk_size(gen) + offset, seed=3)
    exts = all_exts(gen)
    assert sx._best_restart(gen, cfg, exts) == oracle_best_restart(gen, cfg, exts)


@pytest.mark.parametrize("name", ["oa16-5-ma", "oa243-6-ma"])
@pytest.mark.parametrize("restarts", [1, 63, 64, 65, "chunk + 1"])
def test_winner_at_word_boundary(name, restarts):
    # the sweep packs 64 restarts to a word: a chunk of 63, 64 or 65 fills
    # a word but for one bit, exactly, or spills one bit into a second
    gen = SEEDS[name]
    if restarts == "chunk + 1":
        restarts = chunk_size(gen) + 1
    cfg = sx.SearchConfig(restarts=restarts, seed=11)
    exts = all_exts(gen)
    assert sx._best_restart(gen, cfg, exts) == oracle_best_restart(gen, cfg, exts)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draw_batches_rank_calls(seed):
    # one full chunk of oa16-5-ma, where each H is singular with probability
    # 0.69: a handful of rank calls, each holding about a chunk of attempts,
    # and the same draw as one rank call per attempt index
    gen = SEEDS["oa16-5-ma"]
    field = gf.level_field(gen.s)
    polys = len(gf.find_primitive_polys(gen.s, gen.k))
    attempts, size = sx._chunking(gen.s, gen.k)
    seeds = sx._pcg_seeds(seed, range(size))
    calls = []
    rank = gf.mat_rank

    def counted(f, m):
        calls.append(len(m))
        return rank(f, m)

    with mock.patch.object(sx.gflib, "mat_rank", counted):
        which, h_mats = sx._draw_restarts(field, gen.k, polys, seeds, attempts)
    assert len(calls) <= 8
    want_which, want_h = per_attempt_draw(field, gen.k, polys, seeds, attempts)
    assert np.array_equal(which, want_which)
    assert np.array_equal(h_mats, want_h)


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_single_restart(name):
    gen = SEEDS[name]
    for seed in range(5):
        cfg = sx.SearchConfig(restarts=1, seed=seed)
        exts = all_exts(gen)
        assert sx._best_restart(gen, cfg, exts) == oracle_best_restart(gen, cfg, exts)


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_same_file_past_first_chunk(name):
    gen = SEEDS[name]
    assert_same_file(gen, sx.SearchConfig(restarts=chunk_size(gen) + 1, seed=7))


@pytest.mark.parametrize("kib", [1, 64])
@pytest.mark.parametrize("name", sorted(SEEDS))
def test_small_chunk_caps(name, kib):
    # 1 KiB holds one restart of each seed (two of s5), 64 KiB from 16 (oa16-5-ma, oa243-6-ma)
    # to 148 (s5)
    gen = SEEDS[name]
    cfg = sx.SearchConfig(restarts=40, seed=1)
    exts = all_exts(gen)
    with mock.patch.object(sx, "_CHUNK_BYTES", kib << 10):
        assert sx._best_restart(gen, cfg, exts) == oracle_best_restart(gen, cfg, exts)
        assert_same_file(gen, cfg)


def test_pinned_polynomial():
    # with one polynomial no index is drawn
    gen = SEEDS["oa243-6-ma"]
    cfg = sx.SearchConfig(restarts=chunk_size(gen) + 1, seed=0)
    exts = [gf.ext_field(3, 5, gf.find_primitive_polys(3, 5)[4])]
    got = sx._best_restart(gen, cfg, exts)
    assert got == oracle_best_restart(gen, cfg, exts)
    assert got[1] == 0


def test_zero_column_seed_rejected():
    gen = dz.GeneratorMatrix(2, [[1, 0, 0, 1, 0], [0, 1, 0, 1, 0], [0, 0, 1, 1, 0]])
    with pytest.raises(FormatMismatchError):
        sx.algorithm_42(gen, sx.SearchConfig(restarts=1))


@pytest.mark.parametrize("share", [sx._REDRAW_SHARE, 0.5, 0.99])
def test_redrawn_restarts(share):
    # over GF(2) with k = 4 each H is singular with probability 0.69; at
    # share 0.99 a first block holds one attempt, and restarts run through
    # several word blocks within their chunk
    gen = SEEDS["oa16-5-ma"]
    cfg = sx.SearchConfig(restarts=400, seed=5)
    exts = all_exts(gen)
    blocks = []
    stream = sx._stream_words

    def counted(seeds, length):
        blocks.append((len(seeds), length))
        return stream(seeds, length)

    with mock.patch.object(sx, "_REDRAW_SHARE", share), \
            mock.patch.object(sx, "_stream_words", counted):
        assert sx._best_restart(gen, cfg, exts) == oracle_best_restart(gen, cfg, exts)
    redrawn = sum(n for n, _ in blocks) - cfg.restarts
    assert redrawn >= {sx._REDRAW_SHARE: 5, 0.5: 100, 0.99: 200}[share]
    if share == 0.99:
        assert len({length for _, length in blocks}) >= 4


@settings(deadline=None)
@given(seed=RNG_SEEDS, r=RESTARTS)
@example(seed=2**200 + 12345, r=2**32 - 1)
@example(seed=2**64 + 5, r=2**32)
@example(seed=0, r=2**64 - 1)
def test_stream_words_match_pcg64(seed, r):
    got = sx._stream_words(sx._pcg_seeds(seed, [r]), 8)
    want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(r,))).random_raw(8)
    assert got[0].tolist() == want.tolist()


@settings(deadline=None)
@given(seed=RNG_SEEDS, r=RESTARTS, n=BOUNDS)
def test_bounded_matches_generator_integers(seed, r, n):
    u = sx._stream_words(sx._pcg_seeds(seed, [r]), 16).view("<u4")[0]
    value, ok = sx._bounded(u, n)
    assert value[ok].tolist() == default_rng(seed, r).integers(0, n, size=ok.sum()).tolist()


@settings(deadline=None, max_examples=40)
@given(seed=RNG_SEEDS, start=RESTARTS, polys=st.sampled_from([1, 2, 3, 5, 7, 22]),
       name=st.sampled_from(sorted(SEEDS)))
@example(seed=20260808, start=2**32 - 3, polys=22, name="oa243-6-ma")
def test_draw_matches_generator_integers(seed, start, polys, name):
    # the polynomial index, then (k, k) draws until H has rank k
    gen = SEEDS[name]
    s, k = gen.s, gen.k
    field = gf.level_field(s)
    rs = range(start, start + 6)
    which, h_mats = sx._draw_restarts(field, k, polys, sx._pcg_seeds(seed, rs),
                                      sx._chunking(s, k)[0])
    for r, got_which, got_h in zip(rs, which.tolist(), h_mats):
        rng = default_rng(seed, r)
        assert got_which == (int(rng.integers(polys)) if polys > 1 else 0)
        while True:
            h = rng.integers(0, s, size=(k, k))
            if len(oracle_row_reduce(field, h)[1]) == k:
                break
        assert np.array_equal(got_h, h)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 22])
def test_bounded_rejects_as_numpy(n):
    # rejected words, each next to the accepted words around it
    words = [w for u in rejected(n) for w in (u, (u + 1) & 0xFFFFFFFF, (u - 1) & 0xFFFFFFFF)]
    words += [0xFFFFFFFF, 3 << 30, 12345]
    value, ok = sx._bounded(np.array(words, dtype=np.uint32), n)
    it = iter(words)
    want = []
    while True:
        try:
            want.append(lemire(it, n))
        except StopIteration:
            break
    assert value[ok].tolist() == want
    assert (~ok).sum() == len(rejected(n))
    assert rejected(3) == [0] and rejected(2) == []
    assert rejected(22) == [0, 976128931, 1 << 31, 3123612579]


@settings(deadline=None, max_examples=60)
@given(prefix=st.lists(st.sampled_from(rejected(22) + rejected(3) + [1, 2, 3 << 30]), max_size=60),
       seed=st.integers(0, 2**40))
def test_draw_on_rejected_words(prefix, seed):
    # restarts of oa243-6-ma (22 polynomials, s = 3) whose streams start with
    # crafted words: rejected index words move every H cell, and rejected
    # cells shorten a word block until it is drawn again
    gen = SEEDS["oa243-6-ma"]
    field = gf.level_field(gen.s)
    seeds = sx._pcg_seeds(seed, range(4))
    streams = {}
    for i, pcg in enumerate(seeds):
        head = prefix[i:] + [0] * ((len(prefix) - i) % 2)
        tail = sx._stream_words([pcg], 1000).view("<u4")[0].tolist()
        streams[pcg] = head + tail

    def crafted(pcgs, length):
        return np.array([streams[p][:2 * length] for p in pcgs], dtype="<u4").view("<u8")

    with mock.patch.object(sx, "_stream_words", crafted):
        which, h_mats = sx._draw_restarts(field, gen.k, 22, seeds, 1)
    for pcg, got_which, got_h in zip(seeds, which.tolist(), h_mats):
        it = iter(streams[pcg])
        assert got_which == lemire(it, 22)
        while True:
            h = np.array([lemire(it, 3) for _ in range(25)]).reshape(5, 5)
            if len(oracle_row_reduce(field, h)[1]) == 5:
                break
        assert np.array_equal(got_h, h)
