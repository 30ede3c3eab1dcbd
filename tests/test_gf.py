import inspect
import itertools
import math

import numpy as np
import pytest

from goa import constructions, designs, gf, search
from goa.errors import FormatMismatchError, NonPrimeError, NotPrimitiveError


class TestPrimeField:
    def test_mod3_arithmetic(self):
        f = gf.prime_field(3)
        assert f.add(2, 2) == 1
        assert f.mul(2, 2) == 1
        assert f.inv(2) == 2

    def test_mod5_inverse(self):
        assert gf.prime_field(5).inv(3) == 2

    def test_mod2_addition(self):
        assert gf.prime_field(2).add(1, 1) == 0

    def test_composite_rejected(self):
        with pytest.raises(NonPrimeError):
            gf.prime_field(6)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            gf.prime_field(5).inv(0)

    @pytest.mark.parametrize("s", [2, 3, 5, 7])
    def test_field_axioms(self, s):
        f = gf.prime_field(s)
        els = range(s)
        assert all(f.add(a, b) == f.add(b, a) for a, b in itertools.product(els, repeat=2))
        assert all(f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                   for a, b, c in itertools.product(els, repeat=3))
        assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, s))

    def test_pow(self):
        f = gf.prime_field(7)
        assert f.pow(3, 6) == 1
        assert f.pow(3, 0) == 1
        assert f.pow(3, -1) == f.inv(3)


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
        assert f.vector(4) == (1, 2, 0, 0)
        assert f.vector(8) == (1, 1, 1, 0)

    def test_antilog_zero_is_one(self):
        for s, k in [(2, 3), (3, 2), (5, 2)]:
            h = gf.find_primitive_polys(s, k)[0]
            assert gf.ext_field(s, k, h).vector(0) == (1,) + (0,) * (k - 1)

    def test_antilog_covers_nonzero_vectors_once(self):
        f = gf.ext_field(3, 3, gf.find_primitive_polys(3, 3)[0])
        seen = set(f.antilog)
        assert len(f.antilog) == 26
        assert len(seen) == 26
        assert (0, 0, 0) not in seen

    def test_polynomial_root(self):
        # substituting beta back into h gives the zero vector
        for s, k in [(2, 4), (3, 4), (5, 3)]:
            h = gf.find_primitive_polys(s, k)[0]
            f = gf.ext_field(s, k, h)
            acc = np.zeros(k, dtype=np.int64)
            for i, b in enumerate(h.coeffs):
                acc = (acc + b * np.array(f.vector(i))) % s
            assert not acc.any()

    def test_not_primitive_reducible(self):
        with pytest.raises(NotPrimitiveError):
            gf.ExtField(3, 4, gf.Poly.parse("1,0,0,1,1", 3))  # divisible by x-1

    def test_not_primitive_low_order(self):
        # x^2 + 1 is irreducible over GF(3) but beta has order 4, not 8
        with pytest.raises(NotPrimitiveError):
            gf.ExtField(3, 2, gf.Poly.parse("1,0,1", 3))

    def test_mul_exponents(self):
        f = gf.ext_field(3, 4, gf.Poly.parse("1,0,0,1,2", 3))
        assert f.mul(4, 4) == 8
        assert f.mul(39, 2) == 41
        assert f.mul(79, 1) == 0

    def test_mul_vectors_and_zero(self):
        f = gf.ext_field(3, 4, gf.Poly.parse("1,0,0,1,2", 3))
        assert f.mul_vec(f.vector(4), f.vector(4)) == f.vector(8)
        assert f.mul((0, 0, 0, 0), f.vector(5)) == (0, 0, 0, 0)

    def test_mixed_formats_rejected(self):
        f = gf.ext_field(2, 3, gf.find_primitive_polys(2, 3)[0])
        with pytest.raises(FormatMismatchError):
            f.mul(3, (1, 0, 0))

    def test_exponent_inverse_of_vector(self):
        f = gf.ext_field(3, 4, gf.Poly.parse("1,0,0,1,2", 3))
        for i in (0, 1, 17, 53, 79):
            assert f.exponent(f.vector(i)) == i


class TestPrimitiveEnumeration:
    def test_count_gf3_5(self):
        assert len(gf.find_primitive_polys(3, 5)) == 22

    def test_degree_one_gf2(self):
        polys = gf.find_primitive_polys(2, 1)
        assert [p.coeffs for p in polys] == [(1, 1)]

    def test_contains_x4_plus_x_plus_2(self):
        assert (2, 1, 0, 0, 1) in {p.coeffs for p in gf.find_primitive_polys(3, 4)}

    @pytest.mark.parametrize("s,k", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
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


class TestLevelField:
    def test_gf4_labels(self):
        f = gf.level_field(4)
        # label 1 is beta^0 = 1; multiplication cycles the nonzero labels
        assert f.mul(2, 2) == 3
        assert f.mul(2, 3) == 1
        assert f.add(2, 3) == 1  # beta + beta^2 = 1 under x^2 + x + 1

    def test_non_prime_power_rejected(self):
        with pytest.raises(Exception):
            gf.level_field(6)

    def test_prime_power_above_bound_rejected(self):
        # 128 = 2^7 would fill two 128 x 128 tables cell by cell
        with pytest.raises(ValueError):
            gf.level_field(128)

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
        f2 = gf.prime_field(2)
        m = np.array([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
        assert gf.mat_rank(f2, m) == 3
        basis = gf.null_space(f2, m)
        assert basis.shape == (1, 4)
        assert not gf.mat_mul(f2, m, basis.T).any()

    def test_null_space_gf3(self):
        f3 = gf.prime_field(3)
        m = np.array([[1, 2, 0], [0, 0, 1]])
        basis = gf.null_space(f3, m)
        assert basis.shape == (1, 3)
        assert not gf.mat_mul(f3, m, basis.T).any()

    def test_span_order_and_closure(self):
        f3 = gf.prime_field(3)
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
        rows = gf.span(gf.prime_field(3), np.zeros((0, 4), dtype=np.int64))
        assert rows.tolist() == [[0, 0, 0, 0]]

    def test_is_nonsingular(self):
        f2 = gf.prime_field(2)
        assert gf.is_nonsingular(f2, np.eye(3, dtype=int))
        assert not gf.is_nonsingular(f2, np.ones((3, 3), dtype=int))


class TestPrimePowerLevelFields:
    @pytest.mark.parametrize("s", [4, 8, 9])
    def test_field_axioms(self, s):
        f = gf.level_field(s)
        els = range(s)
        assert all(f.add(a, b) == f.add(b, a) for a in els for b in els)
        assert all(f.mul(a, b) == f.mul(b, a) for a in els for b in els)
        for a in els:
            for b in els:
                for c in (0, 1, s - 1):
                    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, s))
        assert all(f.add(a, f.neg(a)) == 0 for a in els)


class TestSpanOracle:
    def test_matches_bruteforce_combination(self):
        f = gf.level_field(4)
        basis = np.array([[1, 2, 0], [0, 3, 1]])
        fast = gf.span(f, basis)
        rows = []
        for c1 in range(4):
            for c2 in range(4):
                row = [f.add(f.mul(c1, basis[0][j]), f.mul(c2, basis[1][j]))
                       for j in range(3)]
                rows.append(row)
        assert fast.tolist() == rows
