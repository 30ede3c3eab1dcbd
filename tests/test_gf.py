import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from goa import constructions, designs, gf, search
from goa.errors import NotPrimePowerError, NotPrimitiveError, ParameterRangeError

from conftest import oracle_ext_field_walk, oracle_mat_mul, oracle_row_reduce, oracle_span

LEVELS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81]


class TestPrimeField:
    def test_mod3_arithmetic(self):
        f = gf.level_field(3)
        assert f.add_t[2, 2] == 1
        assert f.mul_t[2, 2] == 1
        assert f.inv_t[2] == 2

    def test_mod5_inverse(self):
        assert gf.level_field(5).inv_t[3] == 2

    def test_mod2_addition(self):
        assert gf.level_field(2).add_t[1, 1] == 0

    def test_composite_rejected(self):
        with pytest.raises(NotPrimePowerError):
            gf.level_field(6)

    @pytest.mark.parametrize("s", [2, 3, 5, 7])
    def test_field_axioms(self, s):
        f = gf.level_field(s)
        els = range(s)
        assert all(f.add_t[a, b] == f.add_t[b, a] for a, b in itertools.product(els, repeat=2))
        assert all(f.mul_t[a, f.mul_t[b, c]] == f.mul_t[f.mul_t[a, b], c]
                   for a, b, c in itertools.product(els, repeat=3))
        assert all(f.mul_t[a, f.inv_t[a]] == 1 for a in range(1, s))


class TestPoly:
    def test_parse_descending(self):
        h = gf.Poly.parse("1,0,0,1,2", 3)
        assert h.coeffs == (2, 1, 0, 0, 1)
        assert h.degree == 4
        assert h.format() == "1,0,0,1,2"

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            gf.Poly(3, (1, 2, 0))


class TestExtField:
    def test_known_powers_under_x4_x_2(self):
        # beta^4 = 2*beta + 1 under x^4 + x + 2, so the vector is (1,2,0,0)
        f = gf.ext_field(3, 4, gf.Poly.parse("1,0,0,1,2", 3))
        assert f.antilog[4].tolist() == [1, 2, 0, 0]
        assert f.antilog[8].tolist() == [1, 1, 1, 0]

    def test_antilog_zero_is_one(self):
        for s, k in [(2, 3), (3, 2), (5, 2)]:
            h = gf.find_primitive_polys(s, k)[0]
            assert gf.ext_field(s, k, h).antilog[0].tolist() == [1] + [0] * (k - 1)

    def test_antilog_covers_nonzero_vectors_once(self):
        f = gf.ext_field(3, 3, gf.find_primitive_polys(3, 3)[0])
        seen = set(map(tuple, f.antilog.tolist()))
        assert f.antilog.shape == (26, 3)
        assert len(seen) == 26
        assert (0, 0, 0) not in seen

    def test_polynomial_root(self):
        # substituting beta back into h gives the zero vector
        for s, k in [(2, 4), (3, 4), (5, 3)]:
            h = gf.find_primitive_polys(s, k)[0]
            f = gf.ext_field(s, k, h)
            acc = np.zeros(k, dtype=np.int64)
            for i, b in enumerate(h.coeffs):
                acc = (acc + b * f.antilog[i]) % s
            assert not acc.any()

    def test_not_primitive_reducible(self):
        with pytest.raises(NotPrimitiveError):
            gf.ExtField(3, 4, gf.Poly.parse("1,0,0,1,1", 3))  # divisible by x-1

    def test_not_primitive_low_order(self):
        # x^2 + 1 is irreducible over GF(3) but beta has order 4, not 8
        with pytest.raises(NotPrimitiveError):
            gf.ExtField(3, 2, gf.Poly.parse("1,0,1", 3))

    def test_not_primitive_zero_constant(self):
        # x^3 + x: beta = x is no unit
        with pytest.raises(NotPrimitiveError):
            gf.ExtField(2, 3, gf.Poly.parse("1,0,1,0", 2))

    def test_mul_exponents(self):
        # label i + 1 of level_field(81) is beta^i: exponents add mod 80
        f = gf.level_field(81)
        assert f.mul_t[5, 5] == 9
        assert f.mul_t[40, 3] == 42
        assert f.mul_t[80, 2] == 1

    def test_mul_vectors_and_zero(self):
        # vec[a * b] = mat[a] @ vec[b] mod p; label 5 is beta^4
        f = gf.level_field(81)
        assert ((f.mat[5] @ f.vec[5]) % 3).tolist() == f.vec[9].tolist()
        assert not ((f.mat[0] @ f.vec[6]) % 3).any()
        assert not ((f.mat[6] @ f.vec[0]) % 3).any()

    def test_exponent_inverse_of_vector(self):
        f = gf.ext_field(3, 4, gf.Poly.parse("1,0,0,1,2", 3))
        for i in (0, 1, 17, 53, 79):
            assert f.log[gf.code(3, f.antilog[i])] == i
        assert f.log[0] == -1  # the zero vector has no exponent
        assert f.log[3] == 1  # beta = (0, 1, 0, 0) has code 0 + 1*3


class TestPrimitiveEnumeration:
    def test_count_gf3_5(self):
        assert len(gf.find_primitive_polys(3, 5)) == 22

    def test_degree_one_gf2(self):
        polys = gf.find_primitive_polys(2, 1)
        assert [p.coeffs for p in polys] == [(1, 1)]

    def test_contains_x4_plus_x_plus_2(self):
        assert (2, 1, 0, 0, 1) in {p.coeffs for p in gf.find_primitive_polys(3, 4)}

    @pytest.mark.parametrize("s,k", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2),
                                     (4, 2), (4, 3), (4, 4), (8, 2), (9, 2)])
    def test_totient_identity(self, s, k):
        n = s**k - 1
        phi = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        assert len(gf.find_primitive_polys(s, k)) == phi // k

    def test_lex_order(self):
        polys = gf.find_primitive_polys(3, 4)
        keys = [tuple(reversed(p.coeffs[:-1])) for p in polys]
        assert keys == sorted(keys)

    def test_cached_and_immutable(self):
        polys = gf.find_primitive_polys(2, 5)
        assert isinstance(polys, tuple)
        assert gf.find_primitive_polys(2, 5) is polys


# every prime s <= 13 with s^k <= 2,500, extensions of GF(4), GF(8) and
# GF(9), then s = 97
ORACLE_FIELDS = [(s, k) for s in (2, 3, 5, 7, 11, 13) for k in range(1, 12)
                 if s**k <= 2500] + [(4, 2), (4, 3), (4, 4), (8, 2), (9, 2), (97, 1), (97, 2)]


class TestPrimitivityOracle:
    @pytest.mark.parametrize("s,k", ORACLE_FIELDS)
    def test_matches_walk(self, s, k, monkeypatch):
        # GF(97^2) walks only the candidates with b_1 in a few residues:
        # walking all 9,409 would cost more than all other fields together
        b1 = range(s) if s**k <= 2500 else (0, 1, 2, 48, 96)

        def kept(coeffs):
            return k == 1 or coeffs[1] in b1

        walks = {}
        for high_to_low in itertools.product(range(s), repeat=k):
            coeffs = (*reversed(high_to_low), 1)
            if coeffs[0] and kept(coeffs):
                powers = oracle_ext_field_walk(s, k, coeffs)
                if powers is not None:
                    walks[coeffs] = powers
        # blocks of 1 and 7 candidates too, on the fields where that is quick
        for cells in (gf._PRIMITIVE_CELLS, 1, 7 * k * k)[:1 if s**k > 1000 else 3]:
            monkeypatch.setattr(gf, "_PRIMITIVE_CELLS", cells)
            polys = gf.find_primitive_polys.__wrapped__(s, k)
            assert [h.coeffs for h in polys if kept(h.coeffs)] == list(walks)
        weights = s ** np.arange(k)
        for coeffs, powers in walks.items():
            ext = gf.ExtField(s, k, coeffs)
            assert np.array_equal(ext.antilog, powers)
            log = np.full(s**k, -1)
            log[powers @ weights] = np.arange(s**k - 1)
            assert np.array_equal(ext.log, log)

    def test_enumeration_builds_one_field(self, monkeypatch):
        # the one field is the first polynomial's, built here unless an
        # earlier call cached it
        built, real = [], gf.ExtField

        def record(s, k, h):
            built.append((s, k, h.coeffs))
            return real(s, k, h)

        cached = gf._ext_field_cached.cache_info().currsize
        monkeypatch.setattr(gf, "ExtField", record)
        polys = gf.find_primitive_polys.__wrapped__(2, 12)
        assert len(polys) == 144
        assert set(built) <= {(2, 12, polys[0].coeffs)}
        assert gf._ext_field_cached.cache_info().currsize == cached + len(built)
        hits = gf._ext_field_cached.cache_info().hits
        gf.ext_field(2, 12, polys[0])
        assert gf._ext_field_cached.cache_info().hits == hits + 1

    @pytest.mark.parametrize("n,prime,power", [
        (0, False, None), (1, False, None), (-3, False, None), (2, True, (2, 1)),
        (6, False, None), (81, False, (3, 4)), (91, False, None), (97, True, (97, 1)),
        (1_000_003, True, (1_000_003, 1)),
    ])
    def test_is_prime_and_factor_prime_power(self, n, prime, power):
        assert (gf.factorize(n) == {n: 1}) is prime
        if power is None:
            with pytest.raises(NotPrimePowerError):
                gf.factor_prime_power(n)
        else:
            assert gf.factor_prime_power(n) == power


class TestLevelField:
    def test_gf4_labels(self):
        f = gf.level_field(4)
        # label 1 is beta^0 = 1; multiplication cycles the nonzero labels
        assert f.mul_t[2, 2] == 3
        assert f.mul_t[2, 3] == 1
        assert f.add_t[2, 3] == 1  # beta + beta^2 = 1 under x^2 + x + 1

    def test_non_prime_power_rejected(self):
        with pytest.raises(Exception):
            gf.level_field(6)

    def test_prime_power_above_bound_rejected(self):
        # 128 = 2^7 would fill two 128 x 128 tables cell by cell
        with pytest.raises(ValueError):
            gf.level_field(128)

    def test_extension_of_a_prime_above_bound_rejected(self):
        # an extension field multiplies through level_field(s), and no
        # design has more than LEVEL_ORDER_LIMIT levels to use it on
        with pytest.raises(ValueError):
            gf.find_primitive_polys(101, 1)
        with pytest.raises(ValueError):
            gf.ext_field(101, 1, (99, 1))

    @pytest.mark.parametrize("k", [0, 20, 10**12], ids=["k0", "k20", "k1e12"])
    def test_order_refused_before_it_is_computed(self, k):
        # 2^20 is past DESK_ORDER_LIMIT, so no k of 20 or more computes s^k
        with pytest.raises(ParameterRangeError):
            gf.find_primitive_polys(2, k)

    @pytest.mark.parametrize("module", [designs, constructions, search])
    def test_no_caller_picks_the_labelling(self, module):
        # a design file stores labels, so level_field(s) alone may fix them
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                params = inspect.signature(fn).parameters
                assert not {"field", "level_ext"} & set(params), name


class TestLinearAlgebra:
    def test_rank_and_null_space(self):
        f2 = gf.level_field(2)
        m = np.array([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
        assert gf.mat_rank(f2, m) == 3
        basis = gf.null_space(f2, m)
        assert basis.shape == (1, 4)
        assert not gf.mat_mul(f2, m, basis.T).any()

    def test_null_space_gf3(self):
        f3 = gf.level_field(3)
        m = np.array([[1, 2, 0], [0, 0, 1]])
        basis = gf.null_space(f3, m)
        assert basis.shape == (1, 3)
        assert not gf.mat_mul(f3, m, basis.T).any()

    def test_span_order_and_closure(self):
        f3 = gf.level_field(3)
        rows = gf.span(f3, np.array([[1, 1], [0, 1]]))
        assert rows.shape == (9, 2)
        assert rows[0].tolist() == [0, 0]
        assert rows[1].tolist() == [0, 1]  # last coefficient least significant
        seen = {tuple(r) for r in rows}
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rows[rng.integers(9)], rows[rng.integers(9)]
            assert tuple((a + b) % 3) in seen

    def test_span_of_empty_basis_is_the_zero_row(self):
        rows = gf.span(gf.level_field(3), np.zeros((0, 4), dtype=np.int64))
        assert rows.tolist() == [[0, 0, 0, 0]]

    def test_is_nonsingular(self):
        f2 = gf.level_field(2)
        assert gf.mat_rank(f2, np.eye(3, dtype=int)) == 3
        assert gf.mat_rank(f2, np.ones((3, 3), dtype=int)) < 3


class TestPrimePowerLevelFields:
    @pytest.mark.parametrize("s", [4, 8, 9, 16, 25, 27])
    def test_field_axioms(self, s):
        f = gf.level_field(s)
        p, j = gf.factor_prime_power(s)
        ext = gf.ext_field(p, j, gf.find_primitive_polys(p, j)[0])
        assert not f.vec[0].any()
        assert f.vec[1:].tolist() == ext.antilog.tolist()  # label i is beta^(i-1)
        els = range(s)
        assert all(f.add_t[a, b] == f.add_t[b, a] for a in els for b in els)
        assert all(f.mul_t[a, b] == f.mul_t[b, a] for a in els for b in els)
        for a in els:
            for b in els:
                for c in (0, 1, s - 1):
                    assert f.mul_t[a, f.mul_t[b, c]] == f.mul_t[f.mul_t[a, b], c]
                    assert f.mul_t[a, f.add_t[b, c]] == f.add_t[f.mul_t[a, b], f.mul_t[a, c]]
        assert all(f.mul_t[a, f.inv_t[a]] == 1 for a in range(1, s))
        assert all(f.add_t[a, f.neg_t[a]] == 0 for a in els)


class TestSpanOracle:
    def test_matches_bruteforce_combination(self):
        f = gf.level_field(4)
        basis = np.array([[1, 2, 0], [0, 3, 1]])
        fast = gf.span(f, basis)
        rows = []
        for c1 in range(4):
            for c2 in range(4):
                row = [f.add_t[f.mul_t[c1, basis[0][j]], f.mul_t[c2, basis[1][j]]]
                       for j in range(3)]
                rows.append(row)
        assert fast.tolist() == rows


def label_matrix(data, s, rows, cols):
    cell = st.integers(0, s - 1)
    drawn = data.draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
    return np.array(drawn, dtype=np.int64).reshape(rows, cols)


class TestMatMulOracle:
    """gf.mat_mul and gf.span against the table-gather loop in conftest."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), s=st.sampled_from(LEVELS),
           n=st.integers(1, 5), r=st.integers(0, 6), q=st.integers(1, 5))
    def test_mat_mul(self, data, s, n, r, q):
        f = gf.level_field(s)
        a, b = label_matrix(data, s, n, r), label_matrix(data, s, r, q)
        assert np.array_equal(gf.mat_mul(f, a, b), oracle_mat_mul(f, a, b))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), s=st.sampled_from(LEVELS), m=st.integers(1, 5))
    def test_span(self, data, s, m):
        # inner dimension d up to 6, while s^d stays at most 6561 rows
        d = data.draw(st.integers(0, max(e for e in range(7) if s**e <= 6561)))
        f = gf.level_field(s)
        basis = label_matrix(data, s, d, m)
        coeffs = list(itertools.product(range(s), repeat=d))
        assert np.array_equal(gf.span(f, basis), oracle_mat_mul(f, coeffs, basis))


@st.composite
def span_bases(draw):
    """(s, basis): d in 0..5 rows of labels, some of them zero, repeats of
    another row, or combinations of two others."""
    s = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    f = gf.level_field(s)
    d, m = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    basis = np.array(draw(st.lists(st.lists(st.integers(0, s - 1), min_size=m, max_size=m),
                                   min_size=d, max_size=d)), dtype=np.int64).reshape(d, m)
    for i in range(d):
        kind = draw(st.sampled_from(["free", "zero", "repeat", "combination"]))
        a, b = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if kind == "zero":
            basis[i] = 0
        elif kind == "repeat":
            basis[i] = basis[a]
        elif kind == "combination":
            c, e = draw(st.integers(0, s - 1)), draw(st.integers(0, s - 1))
            basis[i] = f.add_t[f.mul_t[c, basis[a]], f.mul_t[e, basis[b]]]
    return s, basis


@settings(max_examples=300, deadline=None)
@given(span_bases())
def test_span_matches_oracle(case):
    # the same rows in the same order as every coefficient tuple times the basis,
    # as a uint8 level matrix
    s, basis = case
    f = gf.level_field(s)
    got, want = gf.span(f, basis), oracle_span(f, basis)
    assert got.dtype == np.uint8
    assert got.shape == want.shape == (s ** len(basis), basis.shape[1])
    assert np.array_equal(got, want)
    if len(basis):  # a list of rows spans the same
        assert np.array_equal(gf.span(f, basis.tolist()), want)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 97]),
       shape=st.lists(st.integers(0, 5), min_size=1, max_size=3))
def test_code_matches_matmul(data, p, shape):
    vectors = data.draw(arrays(np.int64, shape, elements=st.integers(0, p - 1)))
    got = gf.code(p, vectors)
    want = vectors @ p ** np.arange(shape[-1])
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


class TestRowReduceOracle:
    """gf.row_reduce, mat_rank and null_space against the column-by-column
    elimination in conftest, over prime and prime-power level fields."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), s=st.sampled_from(LEVELS),
           rows=st.integers(0, 8), cols=st.integers(0, 8))
    def test_matches_oracle(self, data, s, rows, cols):
        f = gf.level_field(s)
        k = data.draw(st.integers(0, 3))
        if data.draw(st.booleans()):  # rank at most k
            m = oracle_mat_mul(f, label_matrix(data, s, rows, k), label_matrix(data, s, k, cols))
        else:
            m = label_matrix(data, s, rows, cols)
        if rows:
            m[data.draw(st.integers(0, rows - 1))] = 0
            m[data.draw(st.integers(0, rows - 1))] = m[data.draw(st.integers(0, rows - 1))]
        want_r, want_pivots = oracle_row_reduce(f, m)
        r, pivots = gf.row_reduce(f, m)
        assert pivots == want_pivots
        assert np.array_equal(r, want_r)
        assert gf.mat_rank(f, m) == gf.mat_rank(f, m.T) == len(want_pivots)
        # the null space basis is the identity on the free columns, which
        # fixes it given the space
        basis = gf.null_space(f, m)
        free = [c for c in range(cols) if c not in want_pivots]
        assert np.array_equal(basis[:, free], np.eye(len(free), dtype=np.int64))
        assert not oracle_mat_mul(f, m, basis.T).any()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), s=st.sampled_from(LEVELS), b1=st.integers(0, 3), b2=st.integers(0, 3),
           rows=st.integers(0, 6), cols=st.integers(0, 6))
    def test_stack_ranks_match_oracle(self, data, s, b1, b2, rows, cols):
        f = gf.level_field(s)
        n = b1 * b2 * rows
        if data.draw(st.booleans()):  # every matrix of rank at most k
            k = data.draw(st.integers(0, 3))
            flat = oracle_mat_mul(f, label_matrix(data, s, n, k), label_matrix(data, s, k, cols))
        else:
            flat = label_matrix(data, s, n, cols)
        stack = flat.reshape(b1, b2, rows, cols)
        ranks = gf.mat_rank(f, stack)
        assert ranks.shape == (b1, b2)
        assert ranks.tolist() == [[len(oracle_row_reduce(f, m)[1]) for m in row] for row in stack]
        for m in stack.reshape(b1 * b2, rows, cols):
            one = gf.mat_rank(f, m[None])
            rank = gf.mat_rank(f, m)
            assert type(rank) is int and one.tolist() == [rank]

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9, 16, 27, 97])
    def test_square_stack_ranks_match_oracle(self, s):
        # alg42's shape: stacks of small square matrices, which mat_rank
        # takes only to a row echelon form
        f = gf.level_field(s)
        rng = np.random.default_rng(s)
        for k in range(1, 6):
            stack = rng.integers(0, s, size=(300, k, k))
            stack[::3, -1] = stack[::3, 0]  # a repeated row: singular for k > 1
            stack[1::7, :, -1] = 0  # a zero column
            want = [len(oracle_row_reduce(f, m)[1]) for m in stack]
            assert gf.mat_rank(f, stack).tolist() == want

    def test_tables_hold_at_most_s_squared_cells(self):
        # the elimination reads -(a b) from an s x s table, not x - a b from an s^3 one
        f = gf.level_field(97)
        tables = {name: a.size for name, a in vars(f).items() if isinstance(a, np.ndarray)}
        assert "negmul_t" in tables
        assert max(tables.values()) <= 97**2

    # the 3-d case of mat_rank is a stack: test_stack_ranks_match_oracle
    @pytest.mark.parametrize("fn, m", [
        pytest.param(gf.row_reduce, [1, 0, 2], id="m0-row_reduce"),
        pytest.param(gf.mat_rank, [1, 0, 2], id="m0-mat_rank"),
        pytest.param(gf.row_reduce, np.zeros((2, 2, 2), dtype=np.int64), id="m1-row_reduce"),
    ])
    def test_needs_a_2d_matrix(self, fn, m):
        with pytest.raises(ValueError):
            fn(gf.level_field(3), m)


# every level field: the prime powers up to LEVEL_ORDER_LIMIT
LEVEL_FIELDS = [s for s in range(2, gf.LEVEL_ORDER_LIMIT + 1) if len(gf.factorize(s)) == 1]


class TestAdd:
    """GF.add, the uint8 sum of the row-space kernels, against add_t:
    uint8 arithmetic for prime s, a take in a uint8 table for s = p^j."""

    @pytest.mark.parametrize("s", LEVEL_FIELDS)
    def test_every_pair_matches_add_t(self, s):
        f = gf.level_field(s)
        labels = np.arange(s, dtype=np.uint8)
        got = f.add(labels[:, None], labels[None, :])
        assert got.dtype == np.uint8
        assert np.array_equal(got, f.add_t)

    @pytest.mark.parametrize("s", [2, 3, 4, 8, 9, 97])
    def test_broadcast_shapes(self, s):
        f = gf.level_field(s)
        rng = np.random.default_rng(s)
        x = rng.integers(0, s, (5, 1, 6), dtype=np.uint8)
        y = rng.integers(0, s, (4, 6), dtype=np.uint8)
        got = f.add(x, y)
        assert got.shape == (5, 4, 6) and got.dtype == np.uint8
        assert np.array_equal(got, f.add_t[x, y])
        # strided views, as the span check slices its stack
        assert np.array_equal(f.add(x[::2, :, 1::2], y[::3, 1::2]), f.add_t[x[::2, :, 1::2],
                                                                           y[::3, 1::2]])

    def test_largest_sum_stays_in_uint8(self):
        # 96 + 96 = 192 is the largest sum below LEVEL_ORDER_LIMIT
        f = gf.level_field(97)
        got = f.add(np.array([96, 96, 0], dtype=np.uint8), np.array([96, 1, 0], dtype=np.uint8))
        assert got.tolist() == [95, 0, 0]


@pytest.mark.parametrize("s,k", ORACLE_FIELDS + [(8, 3), (9, 3)])
def test_span_bytes_match_oracle(s, k):
    # byte for byte, as uint8 labels, on a random k-row basis two columns wider
    f = gf.level_field(s)
    basis = np.random.default_rng(s * 100 + k).integers(0, s, (k, k + 2))
    got, want = gf.span(f, basis), oracle_span(f, basis)
    assert got.dtype == np.uint8
    assert got.shape == want.shape == (s**k, k + 2)
    assert 0 <= want.min() <= want.max() < s
    assert got.tobytes() == want.astype(np.uint8).tobytes()
