"""Complex, quaternion and octonion arithmetic against hand-written oracles.

The unit multiplication tables are spelled out literally below (or taken
from Python's ``complex``) so the package tables are checked against an
independent transcription, not against themselves.
"""

import numpy as np

from oracle import (
    oct_conj,
    oct_multiply,
    quat_conj,
    quat_matrix_conj_transpose,
    quat_matrix_multiply,
    quat_multiply,
)
from symcone.hypercomplex import COMPLEX_TABLE, embed_quat_matrix, extract_quat_matrix

ATOL = 1e-12

# Products of the quaternion units 1, i, j, k, written out by hand.
# Entry [a][b] is the unit-index result with sign, encoding e_a * e_b.
_QUAT_UNIT_PRODUCTS = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def _unit(dim, k):
    v = np.zeros(dim)
    v[k] = 1.0
    return v


def test_complex_table_multiplies_like_python_complex():
    rng = np.random.default_rng(2)
    for x, y in rng.standard_normal((20, 2, 2)):
        got = np.einsum("p,q,pqr->r", x, y, COMPLEX_TABLE)
        want = complex(*x) * complex(*y)
        np.testing.assert_allclose(got, [want.real, want.imag], atol=ATOL)


def test_quat_unit_table_matches_hand_oracle():
    for (a, b), (sign, c) in _QUAT_UNIT_PRODUCTS.items():
        got = quat_multiply(_unit(4, a), _unit(4, b))
        np.testing.assert_allclose(got, sign * _unit(4, c), atol=ATOL)


def test_quat_norm_composition():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 4))
    y = rng.standard_normal((50, 4))
    prod = quat_multiply(x, y)
    lhs = np.linalg.norm(prod, axis=-1)
    rhs = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_quat_conj_reverses_products():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    lhs = quat_conj(quat_multiply(x, y))
    rhs = quat_multiply(quat_conj(y), quat_conj(x))
    np.testing.assert_allclose(lhs, rhs, atol=ATOL)


def test_quat_associativity():
    rng = np.random.default_rng(5)
    x, y, z = rng.standard_normal((3, 4))
    lhs = quat_multiply(quat_multiply(x, y), z)
    rhs = quat_multiply(x, quat_multiply(y, z))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_oct_embeds_quaternions():
    # The first four octonion units multiply exactly like quaternions.
    rng = np.random.default_rng(6)
    x4 = rng.standard_normal(4)
    y4 = rng.standard_normal(4)
    x8 = np.concatenate([x4, np.zeros(4)])
    y8 = np.concatenate([y4, np.zeros(4)])
    got = oct_multiply(x8, y8)
    np.testing.assert_allclose(got[:4], quat_multiply(x4, y4), atol=ATOL)
    np.testing.assert_allclose(got[4:], 0.0, atol=ATOL)


def test_oct_norm_composition():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 8))
    y = rng.standard_normal((50, 8))
    prod = oct_multiply(x, y)
    lhs = np.linalg.norm(prod, axis=-1)
    rhs = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_oct_alternative_but_not_associative():
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((2, 8))
    # Alternative laws hold ...
    np.testing.assert_allclose(
        oct_multiply(x, oct_multiply(x, y)),
        oct_multiply(oct_multiply(x, x), y),
        atol=1e-10,
    )
    np.testing.assert_allclose(
        oct_multiply(oct_multiply(y, x), x),
        oct_multiply(y, oct_multiply(x, x)),
        atol=1e-10,
    )
    # ... while full associativity genuinely fails.
    z = rng.standard_normal(8)
    lhs = oct_multiply(oct_multiply(x, y), z)
    rhs = oct_multiply(x, oct_multiply(y, z))
    assert np.linalg.norm(lhs - rhs) > 1e-3


def test_oct_conj_norm():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(8)
    prod = oct_multiply(x, oct_conj(x))
    expected = np.zeros(8)
    expected[0] = np.dot(x, x)
    np.testing.assert_allclose(prod, expected, atol=1e-12)


def test_quat_matrix_embedding_is_ring_homomorphism():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((3, 3, 4))
    Y = rng.standard_normal((3, 3, 4))
    lhs = embed_quat_matrix(quat_matrix_multiply(X, Y))
    rhs = embed_quat_matrix(X) @ embed_quat_matrix(Y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_quat_matrix_embed_round_trip():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((2, 2, 4))
    back = extract_quat_matrix(embed_quat_matrix(X))
    np.testing.assert_allclose(back, X, atol=ATOL)


def test_quat_matrix_conj_transpose_matches_complex_dagger():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((2, 2, 4))
    lhs = embed_quat_matrix(quat_matrix_conj_transpose(X))
    rhs = embed_quat_matrix(X).conj().T
    np.testing.assert_allclose(lhs, rhs, atol=ATOL)
