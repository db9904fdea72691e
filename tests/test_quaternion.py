import numpy as np
import pytest

from qtfa import qconj, qmatmul, qmul, qnorm, quat, unit_exp
from qtfa.errors import ParameterError

ONE = quat(1)
I = quat(0, 1)
J = quat(0, 0, 1)
K = quat(0, 0, 0, 1)


def table_mul(p, q):
    """16-term multiplication-table oracle, written out longhand."""
    basis = [ONE, I, J, K]
    # products of basis elements: table[a][b] = e_a * e_b
    table = [
        [ONE, I, J, K],
        [I, -ONE, K, -J],
        [J, -K, -ONE, I],
        [K, J, -I, -ONE],
    ]
    out = np.zeros(4)
    for a in range(4):
        for b in range(4):
            out = out + p[a] * q[b] * table[a][b]
    return out


class TestMulTable:
    @pytest.mark.parametrize("a,b,expect", [
        (I, I, -ONE), (J, J, -ONE), (K, K, -ONE),
        (I, J, K), (J, I, -K),
        (J, K, I), (K, J, -I),
        (K, I, J), (I, K, -J),
    ])
    def test_units(self, a, b, expect):
        assert np.array_equal(qmul(a, b), expect)

    def test_identity_element(self, rng):
        q = rng.standard_normal((50, 4))
        assert np.allclose(qmul(q, ONE), q, atol=0)
        assert np.allclose(qmul(ONE, q), q, atol=0)

    def test_one_plus_i_times_one_plus_j(self):
        # expand via the table oracle
        p = quat(1, 1, 0, 0)
        q = quat(1, 0, 1, 0)
        expect = table_mul(p, q)
        assert np.array_equal(expect, quat(1, 1, 1, 1))
        assert np.allclose(qmul(p, q), expect, atol=1e-15)

    def test_matches_table_oracle_on_random_pairs(self, rng):
        for _ in range(200):
            p, q = rng.standard_normal((2, 4))
            assert np.allclose(qmul(p, q), table_mul(p, q), atol=1e-13)


class TestConj:
    def test_flips_vector_part(self):
        assert np.array_equal(qconj(quat(1, 1, 1, 1)), quat(1, -1, -1, -1))

    def test_real_fixed_point(self):
        assert np.array_equal(qconj(quat(2.5)), quat(2.5))

    def test_involution(self, rng):
        q = rng.standard_normal((100, 4))
        assert np.array_equal(qconj(qconj(q)), q)

    def test_antiautomorphism(self, rng):
        p, q = rng.standard_normal((2, 500, 4))
        assert np.max(np.abs(qconj(qmul(p, q)) - qmul(qconj(q), qconj(p)))) < 1e-13


class TestNorm:
    def test_unit_vector_parts(self):
        assert qnorm(quat(0, 1, 1, 1)) == pytest.approx(np.sqrt(3), abs=0)

    def test_zero(self):
        assert qnorm(quat()) == 0.0

    def test_norm_squared_is_scalar_of_q_qconj(self, rng):
        q = rng.standard_normal((200, 4))
        prod = qmul(q, qconj(q))
        assert np.max(np.abs(prod[:, 1:])) < 1e-13
        assert np.allclose(prod[:, 0], qnorm(q) ** 2, rtol=1e-13)

    def test_multiplicative(self, rng):
        p, q = rng.standard_normal((2, 1000, 4))
        lhs = qnorm(qmul(p, q))
        rhs = qnorm(p) * qnorm(q)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_scalar_part_cyclic(rng):
    p, q, l = rng.standard_normal((3, 1000, 4))
    s1 = qmul(qmul(p, q), l)[..., 0]
    s2 = qmul(qmul(q, l), p)[..., 0]
    s3 = qmul(qmul(l, p), q)[..., 0]
    assert np.max(np.abs(s1 - s2)) < 1e-12
    assert np.max(np.abs(s1 - s3)) < 1e-12


class TestUnitExp:
    def test_zero_angle(self):
        assert np.array_equal(unit_exp("i", 0.0), ONE)

    def test_quarter_turn(self):
        assert np.allclose(unit_exp("i", np.pi / 2), I, atol=1e-16)

    def test_j_eighth_turn(self):
        expect = np.sqrt(2) / 2 * (ONE + J)
        assert np.allclose(unit_exp("j", np.pi / 4), expect, atol=1e-15)

    def test_unit_norm_and_angle_addition(self, rng):
        theta = rng.uniform(-10, 10, 100)
        for axis in ("i", "j"):
            e = unit_exp(axis, theta)
            assert np.allclose(qnorm(e), 1.0, atol=1e-15)
            both = qmul(unit_exp(axis, theta), unit_exp(axis, 0.7))
            assert np.allclose(both, unit_exp(axis, theta + 0.7), atol=1e-14)

    def test_rejects_other_axes(self):
        with pytest.raises(ParameterError):
            unit_exp("k", 1.0)


def test_qmatmul_matches_elementwise_products(rng):
    a = rng.standard_normal((5, 7, 4))
    b = rng.standard_normal((7, 3, 4))
    out = qmatmul(a, b)
    for i in range(5):
        for j in range(3):
            acc = np.zeros(4)
            for k in range(7):
                acc = acc + qmul(a[i, k], b[k, j])
            assert np.allclose(out[i, j], acc, atol=1e-13)
