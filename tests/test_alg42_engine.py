"""The chunked alg42 restart engine against the one-restart-at-a-time oracle.

search._best_restart draws and scans a whole chunk of restarts at once;
these tests compare its winner (group count, polynomial index, groups) with
the per-restart loop in conftest, and compare the design file that
algorithm_42 writes with the one it writes when the oracle picks the
winner, at restart counts on both sides of a chunk boundary and at chunk
caps small enough that every chunk holds a single restart.
"""

from unittest import mock

import pytest

from goa import designs as dz
from goa import gf
from goa import search as sx
from goa import serialize
from goa.errors import FormatMismatchError

from conftest import oracle_best_restart

SEEDS = {**sx.SEED_GENERATORS, "s5": dz.GeneratorMatrix(5, [[1, 0, 1], [0, 1, 1]])}


def chunk_size(gen: dz.GeneratorMatrix) -> int:
    v = (gen.s**gen.k - 1) // (gen.s - 1)
    return max(1, sx._CHUNK_CELLS // (gen.k * v))


def all_exts(gen: dz.GeneratorMatrix) -> list[gf.ExtField]:
    return [gf.ext_field(gen.s, gen.k, h) for h in gf.find_primitive_polys(gen.s, gen.k)]


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


@pytest.mark.parametrize("cells", [1, 64])
@pytest.mark.parametrize("name", sorted(SEEDS))
def test_small_chunk_caps(name, cells):
    gen = SEEDS[name]
    cfg = sx.SearchConfig(restarts=40, seed=1)
    exts = all_exts(gen)
    with mock.patch.object(sx, "_CHUNK_CELLS", cells):
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
