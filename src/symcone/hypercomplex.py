"""Quaternion and octonion arithmetic on component arrays.

Quaternions are stored as arrays whose last axis has length 4 (components
1, i, j, k) and octonions as arrays whose last axis has length 8. All
products are driven by explicit structure tensors so that the arithmetic is
deterministic and easy to audit: ``QUATERNION_TABLE[p, q, r]`` is the
coefficient of unit r in the product of units p and q. The octonion table is
produced by the Cayley-Dickson doubling (a, b)(c, d) = (ac - conj(d) b,
d a + b conj(c)) applied to the quaternion table.

Hermitian quaternionic matrices are handled through the complex embedding
q = z + w j -> [[z, w], [-conj(w), conj(z)]], applied entrywise, which is a
ring homomorphism and doubles eigenvalue multiplicities.
"""

from __future__ import annotations

import numpy as np


def _build_quaternion_table() -> np.ndarray:
    table = np.zeros((4, 4, 4))
    table[0, 0, 0] = 1.0
    for p in range(1, 4):
        table[0, p, p] = 1.0
        table[p, 0, p] = 1.0
        table[p, p, 0] = -1.0
    # i j = k and cyclic permutations, anti-symmetric in the first two slots.
    for p, q, r in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        table[p, q, r] = 1.0
        table[q, p, r] = -1.0
    return table


QUATERNION_TABLE = _build_quaternion_table()

_QUAT_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
_OCT_CONJ_SIGNS = np.array([1.0] + [-1.0] * 7)


def quat_conj(x: np.ndarray) -> np.ndarray:
    return x * _QUAT_CONJ_SIGNS


def quat_multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Componentwise quaternion product, broadcasting over leading axes."""
    return np.einsum("...p,...q,pqr->...r", x, y, QUATERNION_TABLE)


def _build_octonion_table() -> np.ndarray:
    table = np.zeros((8, 8, 8))
    units = np.eye(4)
    for p in range(8):
        a, b = (units[p], np.zeros(4)) if p < 4 else (np.zeros(4), units[p - 4])
        for q in range(8):
            c, d = (units[q], np.zeros(4)) if q < 4 else (np.zeros(4), units[q - 4])
            first = quat_multiply(a, c) - quat_multiply(quat_conj(d), b)
            second = quat_multiply(d, a) + quat_multiply(b, quat_conj(c))
            table[p, q, :4] = first
            table[p, q, 4:] = second
    return table


OCTONION_TABLE = _build_octonion_table()


def oct_conj(x: np.ndarray) -> np.ndarray:
    return x * _OCT_CONJ_SIGNS


def oct_multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Componentwise octonion product, broadcasting over leading axes."""
    return np.einsum("...p,...q,pqr->...r", x, y, OCTONION_TABLE)


# ---------------------------------------------------------------------------
# Quaternionic matrices, stored as (..., n, n, 4) real arrays.
# ---------------------------------------------------------------------------


def quat_matrix_conj_transpose(mat: np.ndarray) -> np.ndarray:
    return quat_conj(np.swapaxes(mat, -3, -2))


def embed_quat_matrix(mat: np.ndarray) -> np.ndarray:
    """Complex 2n x 2n image of an n x n quaternionic matrix.

    Entry q = a + b i + c j + d k maps to the 2 x 2 block
    [[a + b i, c + d i], [-c + d i, a - b i]]; blocks are interleaved so that
    row 2 i + s of the output corresponds to matrix row i, slot s.
    """
    z = mat[..., 0] + 1j * mat[..., 1]
    w = mat[..., 2] + 1j * mat[..., 3]
    n = mat.shape[-2]
    out = np.zeros(mat.shape[:-3] + (2 * n, 2 * n), dtype=complex)
    out[..., 0::2, 0::2] = z
    out[..., 0::2, 1::2] = w
    out[..., 1::2, 0::2] = -np.conj(w)
    out[..., 1::2, 1::2] = np.conj(z)
    return out


def extract_quat_matrix(cmat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`embed_quat_matrix`, averaging the redundant slots.

    The average projects onto the image of the embedding, which removes
    floating-point asymmetry from matrices that are only numerically in the
    image (spectral projectors, for instance).
    """
    z00 = cmat[..., 0::2, 0::2]
    z01 = cmat[..., 0::2, 1::2]
    z10 = cmat[..., 1::2, 0::2]
    z11 = cmat[..., 1::2, 1::2]
    comp_1 = (z00.real + z11.real) / 2.0
    comp_i = (z00.imag - z11.imag) / 2.0
    comp_j = (z01.real - z10.real) / 2.0
    comp_k = (z01.imag + z10.imag) / 2.0
    return np.stack([comp_1, comp_i, comp_j, comp_k], axis=-1)


def quat_matrix_multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return extract_quat_matrix(embed_quat_matrix(x) @ embed_quat_matrix(y))


# ---------------------------------------------------------------------------
# Octonionic matrices, stored as (..., n, n, 8) real arrays.
# ---------------------------------------------------------------------------


def oct_matrix_multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...ikp,...kjq,pqr->...ijr", x, y, OCTONION_TABLE)
