"""Unit tables of the Cayley-Dickson algebras and the quaternionic matrix
embedding.

Complex numbers, quaternions and octonions are stored as component arrays
whose last axis has length 2, 4 or 8 (components 1, i, j, k, ... in that
order). ``QUATERNION_TABLE[p, q, r]`` is the coefficient of unit r in the
product of units p and q. Every table is built from the reals by the
Cayley-Dickson doubling (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)):
once for the complex table, twice for the quaternion table and three times
for the octonion table. ``UNIT_TABLES`` holds them by width (1, 2, 4, 8);
the structure constants of the matrix families are read off them.

Hermitian quaternionic matrices are handled through the complex embedding
q = z + w j -> [[z, w], [-conj(w), conj(z)]], applied entrywise, which is a
ring homomorphism and doubles eigenvalue multiplicities.
"""

from __future__ import annotations

import numpy as np


def _conj_signs(width: int) -> np.ndarray:
    """Component signs of conjugation: the real unit keeps its sign."""
    return np.array([1.0] + [-1.0] * (width - 1))


def _doubled(table: np.ndarray) -> np.ndarray:
    """Unit table of the Cayley-Dickson double of an algebra of ``width``
    units, whose units are (e_p, 0) and then (0, e_p)."""
    w = table.shape[0]
    signs = _conj_signs(w)
    # (e_p, 0)(e_q, 0) = (e_p e_q, 0), (e_p, 0)(0, e_q) = (0, e_q e_p),
    # (0, e_p)(e_q, 0) = (0, e_p conj(e_q)), (0, e_p)(0, e_q) = (-conj(e_q) e_p, 0)
    out = np.zeros((2 * w, 2 * w, 2 * w))
    out[:w, :w, :w] = table
    out[:w, w:, w:] = table.transpose(1, 0, 2)
    out[w:, :w, w:] = table * signs[:, None]
    out[w:, w:, :w] = -(table * signs[:, None, None]).transpose(1, 0, 2)
    # negating a zero gives -0.0; adding 0.0 turns it back into 0.0, so no
    # signed zero reaches a product
    return out + 0.0


REAL_TABLE = np.ones((1, 1, 1))
COMPLEX_TABLE = _doubled(REAL_TABLE)
QUATERNION_TABLE = _doubled(COMPLEX_TABLE)
OCTONION_TABLE = _doubled(QUATERNION_TABLE)
UNIT_TABLES = {
    t.shape[0]: t for t in (REAL_TABLE, COMPLEX_TABLE, QUATERNION_TABLE, OCTONION_TABLE)
}


# ---------------------------------------------------------------------------
# Quaternionic matrices, stored as (..., n, n, 4) real arrays.
# ---------------------------------------------------------------------------


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
