"""Reference arithmetic the tests check the package against.

Nothing here is used by the package. It holds the plain quaternion and
octonion arithmetic, quaternionic and octonionic matrix products, and the
direct way of building structure constants: every pair of basis matrices
that share an index multiplied and symmetrized, with the nonzero
coordinates of each product kept. It also holds the minimal-polynomial
spectral decomposition, which needs nothing family-specific beyond the
Jordan product, the Pauli map from spin 3 onto complex 2, and the sampled
forms of trace associativity and of the composites' multiplication-operator
and pairing-factorization identities.
"""

import numpy as np

from symcone import hypercomplex as hc
from symcone.algebra import (
    _ENTRY_WIDTH,
    KERNEL_CHUNK_TERMS,
    Element,
    Family,
    _context,
    _from_rep,
    _from_view,
    _left_mult_matrix,
    _make_constants,
    _norms,
    _product_batch,
    _product_coords,
    _to_rep,
    _to_view,
    from_matrix,
    make_algebra,
    norm,
    unit,
)
from symcone.composites import _embedded_lifts
from symcone.spectral import SpectralDecomposition, _group_indices


def quat_conj(x: np.ndarray) -> np.ndarray:
    return x * hc._conj_signs(4)


def quat_multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Componentwise quaternion product, broadcasting over leading axes."""
    return np.einsum("...p,...q,pqr->...r", x, y, hc.QUATERNION_TABLE)


def oct_conj(x: np.ndarray) -> np.ndarray:
    return x * hc._conj_signs(8)


def oct_multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Componentwise octonion product, broadcasting over leading axes."""
    return np.einsum("...p,...q,pqr->...r", x, y, hc.OCTONION_TABLE)


def quat_matrix_conj_transpose(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of (..., n, n, 4) quaternionic matrices."""
    return quat_conj(np.swapaxes(mat, -3, -2))


def quat_matrix_multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return hc.extract_quat_matrix(hc.embed_quat_matrix(x) @ hc.embed_quat_matrix(y))


def oct_matrix_multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of (..., n, n, 8) octonionic matrices."""
    return np.einsum("...ikp,...kjq,pqr->...ijr", x, y, hc.OCTONION_TABLE)


def constants_from_dense(table: np.ndarray):
    """Constants of a dense (dim, dim, dim) table: its exact nonzeros."""
    I, J, K = np.nonzero(table)
    return _make_constants(table.shape[0], I, J, K, table[I, J, K])


def sym_product_rep(desc, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Coordinates of (x y + y x) / 2, computed row by row in the matrix
    representation (quaternionic through its complex embedding)."""
    n, width = desc.size, _ENTRY_WIDTH[desc.family]
    if width == 8:
        a, b = _to_rep(xs, n, width), _to_rep(ys, n, width)
        prod = oct_matrix_multiply(a, b) + oct_matrix_multiply(b, a)
        return _from_rep(0.5 * prod, n, width)
    a, b = _to_view(xs, n, width), _to_view(ys, n, width)
    return _from_view(0.5 * (a @ b + b @ a), n, width)


def matrix_constants_by_products(desc):
    """Constants of a matrix or octonionic family, multiplying the basis
    pairs that share a matrix index (all other products vanish)."""
    dim, n = desc.dim, desc.size
    diag = np.repeat(np.arange(n)[:, None], 2, axis=1)
    off = np.repeat(
        np.stack(np.triu_indices(n, k=1), axis=1), _ENTRY_WIDTH[desc.family], axis=0
    )
    touches = np.zeros((dim, n), dtype=bool)
    touches[np.arange(dim)[:, None], np.concatenate([diag, off])] = True
    left, right = np.nonzero(np.triu(touches @ touches.T))
    eye = np.eye(dim)
    step = max(1, KERNEL_CHUNK_TERMS // (16 * dim))
    parts = []
    for lo in range(0, left.size, step):
        a, b = left[lo : lo + step], right[lo : lo + step]
        coords = sym_product_rep(desc, eye[a], eye[b])
        pair, k = np.nonzero(coords)
        parts.append((a[pair], b[pair], k, coords[pair, k]))
    I, J, K, V = (np.concatenate(arrays) for arrays in zip(*parts))
    mirror = I != J
    return _make_constants(
        dim,
        np.concatenate([I, J[mirror]]),
        np.concatenate([J, I[mirror]]),
        np.concatenate([K, K[mirror]]),
        np.concatenate([V, V[mirror]]),
    )


def oracle_constants(desc):
    """Structure constants of any descriptor built without the closed form:
    matrix families by basis products, spin factors from the dense table of
    (s, x) o (t, y) = (s t + x . y, s y + t x), sums block by block."""
    if desc.family is Family.SPIN:
        dim = desc.dim
        idx, vec = np.arange(dim), np.arange(1, dim)
        table = np.zeros((dim, dim, dim))
        table[0, idx, idx] = table[idx, 0, idx] = table[vec, vec, 0] = 1.0
        return constants_from_dense(table)
    if desc.family is Family.SUM:
        parts, start = [], 0
        for summand in desc.summands:
            sc = oracle_constants(summand)
            parts.append((sc.I + start, sc.J + start, sc.K + start, sc.V))
            start += summand.dim
        return _make_constants(desc.dim, *(np.concatenate(x) for x in zip(*parts)))
    return matrix_constants_by_products(desc)


def generic_decompose(a: Element, tol: float) -> SpectralDecomposition:
    """Minimal polynomial route, valid in every family.

    Powers of a single element associate, so the subalgebra generated by a is
    a polynomial ring; the first dependence among u, a, a^2, ... gives the
    minimal polynomial, whose roots are the distinct eigenvalues.
    """
    ctx = _context(a.algebra)
    rank = a.algebra.rank
    scale = norm(a)
    if scale == 0.0:
        return SpectralDecomposition(np.array([0.0]), [unit(a.algebra)], True)
    coords = a.coords / scale
    raw_powers = [ctx.unit_coords.copy()]
    current = coords.copy()
    for degree in range(1, rank + 1):
        raw_powers.append(current.copy())
        stacked = np.stack(raw_powers, axis=1)
        sv = np.linalg.svd(stacked, compute_uv=False)
        # the minimal polynomial has degree at most rank, so a^rank is fitted
        # by the lower powers whether or not the test calls it dependent
        if sv[-1] < 1e-10 * sv[0] or degree == rank:
            target = raw_powers[degree]
            coeffs = np.linalg.lstsq(stacked[:, :degree], target, rcond=None)[0]
            break
        current = _product_coords(ctx.constants, coords, current)
    # monic polynomial: lambda^degree - sum_k coeffs[k] lambda^k
    poly = np.zeros(degree + 1)
    poly[0] = 1.0
    poly[1:] = -coeffs[::-1]
    roots = np.roots(poly)
    roots = np.real(roots)
    # one Newton polish per root, kept only where it shrinks the value
    # (near multiple roots the raw step divides noise by noise)
    deriv = np.polyder(poly)
    vals = np.polyval(poly, roots)
    dvals = np.polyval(deriv, roots)
    safe = np.abs(dvals) > 1e-30
    trial = roots.copy()
    trial[safe] = roots[safe] - vals[safe] / dvals[safe]
    better = np.abs(np.polyval(poly, trial)) < np.abs(vals)
    roots = np.where(better, trial, roots)
    roots = np.sort(roots) * scale
    groups = _group_indices(roots, tol)
    eigenvalues = np.array([roots[g].mean() for g in groups])
    degenerate = any(g.size > 1 for g in groups)
    unit_coords = ctx.unit_coords
    idempotents = []
    if eigenvalues.size == 1:
        idempotents.append(unit(a.algebra))
        degenerate = degenerate or rank > 1
    else:
        for i, lam in enumerate(eigenvalues):
            prod = unit_coords.copy()
            for j, mu in enumerate(eigenvalues):
                if j == i:
                    continue
                factor = (a.coords - mu * unit_coords) / (lam - mu)
                prod = _product_coords(ctx.constants, prod, factor)
            idempotents.append(Element(a.algebra, prod))
    return SpectralDecomposition(eigenvalues, idempotents, degenerate)


def spin_qubit_isomorphism() -> tuple[np.ndarray, float]:
    """Coordinate isomorphism from the three-dimensional spin factor onto
    complex hermitian 2x2 matrices, with its worst product-table residual.

    The unit maps to the identity and the three vector units map to the
    hermitian involutions sigma_x, sigma_y, sigma_z; both sides have the
    same trace form, so the table residual is the whole story.
    """
    spin = make_algebra("spin", 3)
    qubit = make_algebra("complex", 2)
    sigma = [
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    ]
    images = [np.eye(2, dtype=complex)] + sigma
    mat = np.stack([from_matrix(qubit, im).coords for im in images], axis=1)  # (4, 4)
    ctx_s = _context(spin)
    ctx_q = _context(qubit)
    # push every spin basis product through the map and compare it with the
    # qubit product of the mapped factors
    left, right = (idx.ravel() for idx in np.indices((4, 4)))
    eye = np.eye(4)
    mapped = _product_batch(ctx_s.constants, eye[left], eye[right]) @ mat.T
    direct = _product_batch(ctx_q.constants, mat.T[left], mat.T[right])
    residual = float(np.abs(mapped - direct).max())
    # trace forms must agree as well
    gram_push = mat.T @ np.diag(ctx_q.gram) @ mat
    residual = max(residual, float(np.abs(gram_push - np.diag(ctx_s.gram)).max()))
    return mat, residual


def sampled_tensor_lmap(cs, samples: int = 50, seed: int = 0):
    """The identity of ``tensor_lmap_check`` on random draws instead of the
    basis: per round, a standard normal x on each side, scored
    max|L(E(x (x) u_B)) E - E (L_x (x) id)| / (1 + max|x|), and the mirror
    image on side B. Returns the draws of each side, shape (samples, dim),
    and their scores, shape (samples,)."""
    ctx_c = _context(cs.carrier)
    ctx_a = _context(cs.part_a.algebra)
    ctx_b = _context(cs.part_b.algebra)
    lift_a, lift_b = _embedded_lifts(cs)
    sides = (
        (ctx_a.constants, lambda x: cs.pair_coords(x, ctx_b.unit_coords), lift_a),
        (ctx_b.constants, lambda x: cs.pair_coords(ctx_a.unit_coords, x), lift_b),
    )
    rng = np.random.default_rng(seed)
    draws, scores = ([], []), ([], [])
    for _ in range(samples):
        for side, (sc, pair, lift) in enumerate(sides):
            x = rng.standard_normal(sc.dim)
            lhs = _left_mult_matrix(ctx_c.constants, pair(x)[0]) @ cs.embed
            rhs = lift(_left_mult_matrix(sc, x))
            draws[side].append(x)
            scores[side].append(float(np.abs(lhs - rhs).max() / (1.0 + np.abs(x).max())))
    return [np.array(d) for d in draws], [np.array(s) for s in scores]


def sampled_trace_associativity(sc, gram, xs, ys, zs) -> np.ndarray:
    """Residuals of <x o y, z> = <y, x o z> under the product ``sc``, one
    per row of the draws, relative to 1 + |x| |y| |z|."""
    lhs = np.sum(_product_batch(sc, xs, ys) * gram * zs, axis=1)
    rhs = np.sum(ys * gram * _product_batch(sc, xs, zs), axis=1)
    scale = 1.0 + _norms(xs, gram) * _norms(ys, gram) * _norms(zs, gram)
    return np.abs(lhs - rhs) / scale


def sampled_factorization(cs, samples: int = 500, seed: int = 0) -> np.ndarray:
    """The identity of ``factorization_check`` on random draws (a, b, c, d):
    |<a x b, c x d> - <a, c><b, d>| / (1 + |<a, c><b, d>|), one per draw."""
    gram_a = _context(cs.part_a.algebra).gram
    gram_b = _context(cs.part_b.algebra).gram
    gram_c = _context(cs.carrier).gram
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((samples, cs.part_a.algebra.dim))
    B = rng.standard_normal((samples, cs.part_b.algebra.dim))
    C = rng.standard_normal((samples, cs.part_a.algebra.dim))
    D = rng.standard_normal((samples, cs.part_b.algebra.dim))
    lhs = np.sum(cs.pair_coords(A, B) * gram_c * cs.pair_coords(C, D), axis=1)
    rhs = np.sum(A * gram_a * C, axis=1) * np.sum(B * gram_b * D, axis=1)
    return np.abs(lhs - rhs) / (1.0 + np.abs(rhs))
