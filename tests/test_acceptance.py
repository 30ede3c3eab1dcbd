"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time (run with -s to see them on success).

Every tolerance is pinned here: exact equality for table matches, counts,
rationals and integer orthogonality; the simulation criteria use the
structural assertions (clarity, flatness in combined standard errors,
paired ordering) rather than any printed decimals, which are RNG-bound.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from goa import constructions as cx
from goa import designs as dz
from goa import evalsim as ev
from goa import expand as ex
from goa import gf
from goa import search as sx
from goa import serialize as io
from goa.cli import main

from conftest import (
    oracle_ma_regular_oa,
    oracle_prop2_i,
    oracle_prop2_ii,
    oracle_proxy_key,
    oracle_shift_exponents,
    oracle_wlp_rank_key,
    shifted_word_basis,
)
from test_constructions import CAP_S3_ROWS, OVAL_S5_ROWS, generator_blocks


@contextmanager
def criterion(num, desc, limit_s):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2}] FAIL  {desc}")
        raise
    elapsed = time.time() - start
    print(f"[criterion {num:2}] PASS  {desc}  ({elapsed:.1f}s / limit {limit_s}s)")
    assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s budget"


def test_c01_oval_generator_exact(tmp_path):
    with criterion(1, "frozen oval generator rows match `construct thm1 --s 5`", 1.0):
        out = tmp_path / "thm1-s5.json"
        assert main(["construct", "thm1", "--s", "5", "--out", str(out)]) == 0
        gd = io.load_json(out)
        assert generator_blocks(gd) == OVAL_S5_ROWS
        assert sum(len(rows) for rows in OVAL_S5_ROWS) == 15


def test_c02_cap_generator_exact(tmp_path):
    with criterion(2, "frozen cap generator rows match `construct ebert --s 3 --h 1,0,0,1,2`", 1.0):
        out = tmp_path / "ebert-s3.json"
        assert main(["construct", "ebert", "--s", "3", "--h", "1,0,0,1,2",
                     "--out", str(out)]) == 0
        assert generator_blocks(io.load_json(out)) == CAP_S3_ROWS


def test_c03_strength_suite():
    with criterion(3, "strength checks: thm1 s in 2..5 and ebert s in 2..3", 30.0):
        for s in (2, 3, 4, 5):
            gd = cx.construct_thm1(s)
            assert gd.verified_t0 == 2
            for grp in gd.groups:
                want = 3 if grp.size >= 3 else 2  # the two-column s=2 group
                assert grp.verified_strength == want
        for s in (2, 3):
            ext = gf.ext_field(s, 4, gf.find_primitive_polys(s, 4)[0])
            gd = cx.construct_ebert(ext)
            assert gd.verified_t0 == 2
            assert all(g.verified_strength == 3 for g in gd.groups)


def test_c04_triple_proportion_equality(ebert3):
    with criterion(4, "p(DS(6,6,3) (+) OA(81,10,3,3)) equals 1 - 20/(59*58) exactly", 60.0):
        ds = cx.ds_search(3, 6, 6)  # verifier-certified scheme
        b = dz.subset_design(ebert3.design, range(10))
        d = cx.kronecker_sum(ds, b)
        assert dz.p_of_d(d) == 1 - Fraction(20, 59 * 58)


def test_c05_block_grouping_rationals(ebert3, oa_27_4_3_3):
    with criterion(5, "block-grouping rationals: 1-2/110 and 97.5%/96.0% exactly", 120.0):
        ds = cx.ds_catalog(3, 6, 6)
        regrouped = cx.grouped_kronecker(ds, [[0, 1, 2], [3, 4, 5]], oa_27_4_3_3)
        assert [g.p for g in regrouped.groups] == [1 - Fraction(2, 110)] * 2
        assert round(float(regrouped.groups[0].p) * 1000) / 10 == 98.2

        keep = (ebert3.groups[0].columns[:5] + ebert3.groups[1].columns[:5]
                + ebert3.groups[2].columns[:4] + ebert3.groups[3].columns[:4])
        res = cx.construct_thm2(ds, dz.subset_columns(ebert3, keep))
        by_size = {}
        for grp in res.grouped.groups:
            by_size.setdefault(grp.size, set()).add(grp.p)
        assert by_size[30] == {1 - Fraction(20, 812)}
        assert by_size[24] == {1 - Fraction(20, 506)}
        assert round(float(1 - Fraction(20, 812)) * 1000) / 10 == 97.5
        assert round(float(1 - Fraction(20, 506)) * 1000) / 10 == 96.0


def test_c06_primitive_poly_counts():
    with criterion(6, "22 primitive polynomials; 4 satisfy Prop2(i), 6 satisfy Prop2(ii)", 60.0):
        polys = gf.find_primitive_polys(3, 5)
        assert len(polys) == 22
        assert sum(oracle_prop2_i(h) for h in polys) == 4
        assert sum(oracle_prop2_ii(h) for h in polys) == 6


def test_c07_prop2_vs_oracle():
    with criterion(7, "f-statistic ranking = brute-force WLP ranking at m=k+1, k+2", 120.0):
        polys = gf.find_primitive_polys(3, 5)
        for m in (6, 7):
            proxy = {h.coeffs: oracle_proxy_key(h, m) for h in polys}
            brute = {
                h.coeffs: oracle_wlp_rank_key(cx.group_wlp_for_poly(3, 5, h, m)) for h in polys
            }
            for a in polys:
                for b in polys:
                    assert (proxy[a.coeffs] < proxy[b.coeffs]) == (
                        brute[a.coeffs] < brute[b.coeffs]
                    ), f"preorders disagree at m={m} for {a} vs {b}"


def test_c08_consecutive_structure():
    with criterion(8, "consecutive powers: 20 groups WLP (0,...,0,1); 17 groups strength 4", 120.0):
        f3 = gf.level_field(3)
        h6 = gf.Poly.parse("1,1,1,1,2,1", 3)
        gd6 = cx.construct_consecutive(gf.ext_field(3, 5, h6), 6)
        assert len(gd6.groups) == 20
        assert all(g.wlp == (0, 0, 0, 0, 0, 1) for g in gd6.groups)

        h7 = gf.Poly.parse("1,0,1,2,2,1", 3)
        gd7 = cx.construct_consecutive(gf.ext_field(3, 5, h7), 7)
        assert len(gd7.groups) == 17
        assert all(g.verified_strength == 4 for g in gd7.groups)

        for gd, h, m in ((gd6, h6, 6), (gd7, h7, 7)):
            words = shifted_word_basis(h, m)
            assert gf.mat_rank(f3, words) == m - 5
            for grp in gd.groups:
                sub = gd.generator.matrix[:, grp.columns]
                assert not gf.mat_mul(f3, sub, words.T).any()
                assert gf.null_space(f3, sub).shape[0] == m - 5


def test_c09_shift_invariance():
    with criterion(9, "shift invariance: 200 random translations leave the WLP unchanged", 60.0):
        rng = np.random.default_rng(2026)
        pool = [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]
        polys = {sk: gf.find_primitive_polys(*sk) for sk in pool}
        for _ in range(200):
            s, k = pool[rng.integers(len(pool))]
            ext = gf.ext_field(s, k, polys[(s, k)][rng.integers(len(polys[(s, k)]))])
            v = (s**k - 1) // (s - 1)
            m = int(rng.integers(k + 1, min(k + 3, v) + 1))
            exps = tuple(sorted(rng.choice(v, size=m, replace=False).tolist()))
            j = int(rng.integers(1, v))
            a = dz.wlp(dz.generator_from_exponents(ext, exps))
            b = dz.wlp(dz.generator_from_exponents(ext, oracle_shift_exponents(ext, exps, j)))
            assert a == b, f"s={s} k={k} exps={exps} j={j}"


def test_c10_algorithm42():
    with criterion(10, "alg42: R=1e5 from the embedded seed gives g>=2, WLP (0,0,0,0,1); alt seed matches", 180.0):
        gd1 = sx.algorithm_42(sx.SEED_GENERATORS["oa16-5-ma"],
                              sx.SearchConfig(restarts=100_000, seed=20260808))
        assert len(gd1.groups) >= 2
        assert all(g.wlp == (0, 0, 0, 0, 1) for g in gd1.groups)
        gd2 = sx.algorithm_42(sx.SEED_GENERATORS["oa16-5-ma-alt"],
                              sx.SearchConfig(restarts=100_000, seed=20260808))
        assert {g.wlp for g in gd2.groups} == {g.wlp for g in gd1.groups}


def test_c10_reference_243_groups():
    # reference point for the 243-run seed: the algorithm reaches at least
    # g=16 at R=1e5 (consecutive powers attains 20; the gap is inherent to
    # the randomized scan)
    with criterion("10b", "alg42 reference: 243-run MA seed reaches g >= 16 at R=1e5", 180.0):
        gd = sx.algorithm_42(sx.SEED_GENERATORS["oa243-6-ma"],
                             sx.SearchConfig(restarts=100_000, seed=20260808))
        assert len(gd.groups) >= 16
        assert all(g.wlp == (0, 0, 0, 0, 0, 1) for g in gd.groups)


def test_c11_rotation():
    with criterion(11, "rotation of GOA(32,8x3,3x3,2,2): diagonal Gram, product orthogonality", 10.0):
        best, _ = cx.rank_primitive_polys(2, 5, 8)[0]
        goa32 = cx.construct_consecutive(gf.ext_field(2, 5, best), 8)
        assert goa32.group_sizes == (8, 8, 8)
        assert all(g.verified_strength == 3 for g in goa32.groups)
        real = ex.rotate_columns(goa32)
        assert real.int_matrix.shape == (32, 24)
        gram = real.int_matrix.T @ real.int_matrix
        assert not (gram - np.diag(np.diag(gram))).any()
        for i in range(3):
            block = real.int_matrix[:, 8 * i : 8 * (i + 1)]
            for u in range(8):
                for v in range(u + 1, 8):
                    prod = block[:, u] * block[:, v]
                    for w in range(8):
                        if w not in (u, v):
                            assert prod @ block[:, w] == 0


def test_c12_simulation_structure(thm1_3, oa_27_4_3_3):
    with criterion(12, "clear main effects: clarity 0, flat bias, GOA beats MA at sigma=10", 300.0):
        goa81 = cx.construct_prop1(cx.ds_catalog(3, 3, 3), [[0], [1], [2]], oa_27_4_3_3)
        assert goa81.design.runs == 81 and goa81.group_sizes == (4, 4, 4)
        assert ev.clarity_check(goa81).max_abs <= 1e-12

        flat = ev.run_bias_study([("goa81", goa81)], [1.0, 10.0],
                                 ev.SimModel(reps=300, seed=81))
        lo, hi = flat[0], flat[1]
        assert abs(lo.mean - hi.mean) < 3 * math.hypot(lo.se, hi.se)

        gen, _ = oracle_ma_regular_oa(3, 3, 10)
        ma_design = dz.expand_generator(gen, origin="ma-oa(27,10,3,2)")
        perm = np.random.default_rng(27).permutation(10).tolist()
        ma_design = dz.subset_design(ma_design, perm)
        ma = dz.GroupedDesign(
            ma_design,
            [dz.Group(list(range(4)), 2), dz.Group(list(range(4, 7)), 2),
             dz.Group(list(range(7, 10)), 2)],
        )
        res = ev.run_bias_study([("goa27", thm1_3), ("ma27", ma)], [10.0],
                                ev.SimModel(reps=1000, seed=27))
        by = {r.design: r for r in res}
        assert by["goa27"].mean < by["ma27"].mean


def test_c13_verification_integrity(catalog_dir, tmp_path):
    with criterion(13, "50 random single-cell mutations all flip cmd_verify to exit 2", 120.0):
        files = sorted(catalog_dir.glob("*.json"))
        assert len(files) >= 50
        rng = np.random.default_rng(13)
        for trial in range(50):
            path = files[rng.integers(len(files))]
            doc = json.loads(path.read_text())
            row = int(rng.integers(doc["runs"]))
            col = int(rng.integers(doc["cols"]))
            old = doc["matrix"][row][col]
            doc["matrix"][row][col] = int((old + 1 + rng.integers(doc["s"] - 1)) % doc["s"])
            assert doc["matrix"][row][col] != old
            bad = tmp_path / f"mutated-{trial}.json"
            bad.write_text(json.dumps(doc))
            assert main(["verify", str(bad)]) == 2, f"mutation of {path.name} not caught"
