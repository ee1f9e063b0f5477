"""Spectral decomposition, idempotents, and Jordan frames.

Matrix families decompose through a hermitian eigensolver (the quaternionic
case through its complex embedding, where every eigenvalue appears twice);
spin factors have a closed form; the octonionic algebra and any other case go
through the generic route: find the first linear dependence among the Jordan
powers u, a, a o a, ..., read eigenvalues off the resulting minimal
polynomial, and build the spectral idempotents by Lagrange interpolation in
Jordan products. The generic route is available for every family through
``method="generic"`` and is cross-checked against the direct solvers in the
test suite.

Eigenvalues closer than MERGE_TOL_SCALE * (1 + ||a||) are merged into one
group; the decomposition then returns the (possibly non-primitive) group
projector and sets the ``degenerate`` flag. Frame sampling resamples rather
than refining degenerate projections, since any refinement would be
basis-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hypercomplex as hc
from .algebra import (
    AlgebraDescriptor,
    Element,
    Family,
    _complex_from_rep,
    _complex_to_rep,
    _context,
    _left_mult_batch,
    _product_batch,
    _product_coords,
    _quat_from_rep,
    _quat_to_rep,
    _real_from_rep,
    _real_to_rep,
    norm,
    random_element,
    trace_of,
    unit,
)

__all__ = [
    "SpectralDecomposition",
    "spectral_decompose",
    "eigenvalues_batch",
    "is_idempotent",
    "is_primitive",
    "random_jordan_frame",
    "canonical_regular_element",
    "canonical_frame",
    "frame_pool",
    "spectral_reconstruction_residual",
]

MERGE_TOL_SCALE = 1e-8
FRAME_SEPARATION = 1e-6
MAX_FRAME_ATTEMPTS = 20


@dataclass
class SpectralDecomposition:
    """Distinct eigenvalues (ascending) with their spectral idempotents."""

    eigenvalues: np.ndarray
    idempotents: list[Element]
    degenerate: bool

    def reconstruct(self) -> Element:
        coords = sum(
            lam * e.coords for lam, e in zip(self.eigenvalues, self.idempotents)
        )
        return Element(self.idempotents[0].algebra, coords)


def _merge_groups(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Indices of ``values`` (assumed ascending) grouped within ``tol``."""
    groups: list[list[int]] = [[0]]
    for k in range(1, values.size):
        if values[k] - values[groups[-1][-1]] < tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return [np.asarray(g) for g in groups]


def spectral_decompose(
    a: Element, merge_tol: float | None = None, method: str = "auto"
) -> SpectralDecomposition:
    desc = a.algebra
    scale_tol = MERGE_TOL_SCALE * (1.0 + norm(a)) if merge_tol is None else merge_tol
    if method not in ("auto", "generic"):
        raise ValueError(f"unknown spectral method {method!r}")
    if method == "generic":
        return _generic_decompose(a, scale_tol)
    if desc.family is Family.REAL_SYM:
        return _matrix_decompose(a, scale_tol, complex_entries=False)
    if desc.family is Family.COMPLEX_HERM:
        return _matrix_decompose(a, scale_tol, complex_entries=True)
    if desc.family is Family.QUAT_HERM:
        return _quat_decompose(a, scale_tol)
    if desc.family is Family.SPIN:
        return _spin_decompose(a, scale_tol)
    if desc.family is Family.ALBERT:
        return _generic_decompose(a, scale_tol)
    if desc.family is Family.SUM:
        return _sum_decompose(a, scale_tol)
    raise ValueError(f"unsupported family {desc.family}")


def _matrix_decompose(
    a: Element, tol: float, complex_entries: bool
) -> SpectralDecomposition:
    n = a.algebra.size
    if complex_entries:
        mat = _complex_to_rep(a.coords, n)
        from_rep = lambda m: _complex_from_rep(m, n)
    else:
        mat = _real_to_rep(a.coords, n)
        from_rep = lambda m: _real_from_rep(m, n)
    evals, vecs = np.linalg.eigh(mat)
    groups = _merge_groups(evals, tol)
    eigenvalues = np.array([evals[g].mean() for g in groups])
    idempotents = []
    for g in groups:
        block = vecs[:, g]
        proj = block @ block.conj().T
        idempotents.append(Element(a.algebra, from_rep(proj)))
    degenerate = any(g.size > 1 for g in groups)
    return SpectralDecomposition(eigenvalues, idempotents, degenerate)


def _quat_decompose(a: Element, tol: float) -> SpectralDecomposition:
    n = a.algebra.size
    emb = hc.embed_quat_matrix(_quat_to_rep(a.coords, n))
    evals, vecs = np.linalg.eigh(emb)
    groups = _merge_groups(evals, tol)
    eigenvalues = np.array([evals[g].mean() for g in groups])
    idempotents = []
    degenerate = False
    for g in groups:
        if g.size % 2:
            # A numerically split double eigenvalue landed across group
            # boundaries; treat as degenerate and merge with the neighbor.
            return _quat_decompose_regrouped(a, emb, evals, vecs, tol)
        if g.size > 2:
            degenerate = True
        block = vecs[:, g]
        proj = hc.extract_quat_matrix(block @ block.conj().T)
        idempotents.append(Element(a.algebra, _quat_from_rep(proj, n)))
    return SpectralDecomposition(eigenvalues, idempotents, degenerate)


def _quat_decompose_regrouped(a, emb, evals, vecs, tol) -> SpectralDecomposition:
    n = a.algebra.size
    groups = _merge_groups(evals, 10.0 * tol)
    if any(g.size % 2 for g in groups):
        groups = [np.arange(2 * k, 2 * k + 2) for k in range(n)]
    eigenvalues = np.array([evals[g].mean() for g in groups])
    idempotents = []
    for g in groups:
        block = vecs[:, g]
        proj = hc.extract_quat_matrix(block @ block.conj().T)
        idempotents.append(Element(a.algebra, _quat_from_rep(proj, n)))
    return SpectralDecomposition(eigenvalues, idempotents, True)


def _spin_decompose(a: Element, tol: float) -> SpectralDecomposition:
    t, x = a.coords[0], a.coords[1:]
    r = float(np.linalg.norm(x))
    if 2.0 * r < tol:
        return SpectralDecomposition(
            np.array([t]), [unit(a.algebra)], degenerate=True
        )
    xhat = x / r
    lo = np.concatenate([[0.5], -0.5 * xhat])
    hi = np.concatenate([[0.5], 0.5 * xhat])
    return SpectralDecomposition(
        np.array([t - r, t + r]),
        [Element(a.algebra, lo), Element(a.algebra, hi)],
        degenerate=False,
    )


def _sum_decompose(a: Element, tol: float) -> SpectralDecomposition:
    ctx = _context(a.algebra)
    pieces: list[tuple[float, np.ndarray]] = []
    degenerate = False
    for desc, sl in zip(a.algebra.summands, ctx.block_slices):
        part = Element(desc, a.coords[sl])
        dec = spectral_decompose(part, merge_tol=tol)
        degenerate = degenerate or dec.degenerate
        for lam, e in zip(dec.eigenvalues, dec.idempotents):
            coords = np.zeros(a.algebra.dim)
            coords[sl] = e.coords
            pieces.append((float(lam), coords))
    pieces.sort(key=lambda item: item[0])
    values = np.array([p[0] for p in pieces])
    groups = _merge_groups(values, tol)
    eigenvalues = np.array([values[g].mean() for g in groups])
    idempotents = []
    for g in groups:
        coords = sum(pieces[k][1] for k in g)
        idempotents.append(Element(a.algebra, coords))
        if g.size > 1:
            degenerate = True
    return SpectralDecomposition(eigenvalues, idempotents, degenerate)


def _generic_decompose(a: Element, tol: float) -> SpectralDecomposition:
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
    powers = [ctx.unit_coords / np.sqrt(float(np.sum(ctx.unit_coords**2)))]
    raw_powers = [ctx.unit_coords.copy()]
    current = coords.copy()
    degree = rank
    coeffs = None
    for d in range(1, rank + 1):
        raw_powers.append(current.copy())
        powers.append(current / max(float(np.linalg.norm(current)), 1e-300))
        stacked = np.stack(raw_powers, axis=1)
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[-1] < 1e-10 * sv[0]:
            degree = d
            sol, *_ = np.linalg.lstsq(stacked[:, :d], raw_powers[d], rcond=None)
            coeffs = sol
            break
        current = _product_coords(ctx.constants, coords, current)
    if coeffs is None:
        degree = rank
        stacked = np.stack(raw_powers[:rank], axis=1)
        target = _product_coords(ctx.constants, coords, raw_powers[rank - 1]) \
            if len(raw_powers) <= rank else raw_powers[rank]
        sol, *_ = np.linalg.lstsq(stacked, target, rcond=None)
        coeffs = sol
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
    groups = _merge_groups(roots, tol)
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


# ---------------------------------------------------------------------------
# Batched eigenvalues (full spectrum with multiplicity) for membership scans.
# ---------------------------------------------------------------------------


def eigenvalues_batch(algebra: AlgebraDescriptor, coords: np.ndarray) -> np.ndarray:
    """Spectral eigenvalues, ascending, for a batch of coordinate rows.

    Returns shape (batch, rank); multiplicities are repeated so each row
    always carries ``rank`` entries.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    fam = algebra.family
    if fam is Family.REAL_SYM:
        return np.linalg.eigvalsh(_real_to_rep(coords, algebra.size))
    if fam is Family.COMPLEX_HERM:
        return np.linalg.eigvalsh(_complex_to_rep(coords, algebra.size))
    if fam is Family.QUAT_HERM:
        ev = np.linalg.eigvalsh(hc.embed_quat_matrix(_quat_to_rep(coords, algebra.size)))
        return ev[:, ::2]
    if fam is Family.SPIN:
        t = coords[:, 0]
        r = np.linalg.norm(coords[:, 1:], axis=1)
        return np.stack([t - r, t + r], axis=1)
    if fam is Family.ALBERT:
        return _albert_eigenvalues_batch(coords)
    if fam is Family.SUM:
        ctx = _context(algebra)
        parts = [
            eigenvalues_batch(desc, coords[:, sl])
            for desc, sl in zip(algebra.summands, ctx.block_slices)
        ]
        return np.sort(np.concatenate(parts, axis=1), axis=1)
    raise ValueError(f"unsupported family {fam}")


def _albert_eigenvalues_batch(coords: np.ndarray) -> np.ndarray:
    """Eigenvalues of rank-3 elements via their multiplication operators.

    Going through characteristic-polynomial coefficients loses half the
    digits at multiple roots, so instead use that L_a is symmetric (the
    trace form is associative and the basis orthonormal) and its spectrum
    consists of the midpoints (lambda_i + lambda_j) / 2. The smallest and
    largest midpoints are the extreme element eigenvalues, and the trace
    supplies the middle one exactly.
    """
    desc = AlgebraDescriptor(Family.ALBERT, 3)
    ctx = _context(desc)
    lops = _left_mult_batch(ctx.constants, coords)
    spec = np.linalg.eigvalsh(lops)
    lmin = spec[:, 0]
    lmax = spec[:, -1]
    lmid = coords @ ctx.unit_coords - lmin - lmax
    return np.sort(np.stack([lmin, lmid, lmax], axis=1), axis=1)


# ---------------------------------------------------------------------------
# Idempotents and frames.
# ---------------------------------------------------------------------------


def is_idempotent(p: Element, tol: float = 1e-9) -> bool:
    from .algebra import jordan_product

    gap = norm(jordan_product(p, p) - p)
    return gap <= tol * (1.0 + norm(p) ** 2)


def is_primitive(p: Element, tol: float = 1e-9) -> bool:
    if not is_idempotent(p, tol):
        return False
    return abs(trace_of(p) - 1.0) <= tol * (1.0 + p.algebra.rank)


def random_jordan_frame(
    algebra: AlgebraDescriptor, seed: int | np.random.Generator = 0
) -> list[Element]:
    """A frame of ``rank`` primitive idempotents from a random regular element.

    Draws whose spectrum is not cleanly separated are redrawn (primitive
    refinement of a merged projector would be basis-dependent); raises after
    MAX_FRAME_ATTEMPTS consecutive near-degenerate draws.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for _ in range(MAX_FRAME_ATTEMPTS):
        x = random_element(algebra, rng)
        dec = spectral_decompose(x)
        if dec.degenerate or dec.eigenvalues.size != algebra.rank:
            continue
        gaps = np.diff(dec.eigenvalues)
        scale = 1.0 + float(np.abs(dec.eigenvalues).max())
        if gaps.size and gaps.min() < FRAME_SEPARATION * scale:
            continue
        return dec.idempotents
    raise RuntimeError(
        f"no cleanly separated spectrum in {MAX_FRAME_ATTEMPTS} draws on {algebra}"
    )


def canonical_regular_element(algebra: AlgebraDescriptor, offset: int = 0) -> Element:
    """A fixed element with spectrum offset+1, ..., offset+rank.

    Used to pin one deterministic frame per algebra independent of any seed.
    """
    fam = algebra.family
    dim = algebra.dim
    coords = np.zeros(dim)
    if fam in (Family.REAL_SYM, Family.COMPLEX_HERM, Family.QUAT_HERM):
        coords[: algebra.size] = np.arange(1, algebra.size + 1) + offset
    elif fam is Family.SPIN:
        coords[0] = offset + 1.5
        coords[1] = 0.5
    elif fam is Family.ALBERT:
        coords[:3] = np.arange(1, 4) + offset
    elif fam is Family.SUM:
        ctx = _context(algebra)
        shift = offset
        parts = []
        for desc, sl in zip(algebra.summands, ctx.block_slices):
            parts.append((sl, canonical_regular_element(desc, shift).coords))
            shift += desc.rank
        for sl, c in parts:
            coords[sl] = c
    else:
        raise ValueError(f"unsupported family {fam}")
    return Element(algebra, coords)


def canonical_frame(algebra: AlgebraDescriptor) -> list[Element]:
    dec = spectral_decompose(canonical_regular_element(algebra))
    return dec.idempotents


# ---------------------------------------------------------------------------
# Batched pools of primitive idempotents (sampled frames, flattened).
# ---------------------------------------------------------------------------


def frame_pool(
    algebra: AlgebraDescriptor, n_frames: int, seed: int | np.random.Generator = 0
) -> np.ndarray:
    """Coordinates of the primitive idempotents of ``n_frames`` random frames.

    Shape (n_frames * rank, dim). Draws are independent of any element being
    tested; the pool is what frame-sampled dual membership quantifies over.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    fam = algebra.family
    dim = algebra.dim
    if fam is Family.SPIN:
        d = algebra.size
        dirs = rng.standard_normal((n_frames, d))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        dirs /= norms
        out = np.zeros((2 * n_frames, dim))
        out[:, 0] = 0.5
        out[:n_frames, 1:] = 0.5 * dirs
        out[n_frames:, 1:] = -0.5 * dirs
        return out
    if fam is Family.REAL_SYM:
        n = algebra.size
        mats = _real_to_rep(rng.standard_normal((n_frames, dim)), n)
        _, vecs = np.linalg.eigh(mats)
        projs = np.einsum("fik,fjk->fkij", vecs, vecs)
        return _real_from_rep(projs, n).reshape(n_frames * n, dim)
    if fam is Family.COMPLEX_HERM:
        n = algebra.size
        mats = _complex_to_rep(rng.standard_normal((n_frames, dim)), n)
        _, vecs = np.linalg.eigh(mats)
        projs = np.einsum("fik,fjk->fkij", vecs, np.conj(vecs))
        return _complex_from_rep(projs, n).reshape(n_frames * n, dim)
    if fam is Family.QUAT_HERM:
        n = algebra.size
        embs = hc.embed_quat_matrix(_quat_to_rep(rng.standard_normal((n_frames, dim)), n))
        _, vecs = np.linalg.eigh(embs)
        paired = vecs.reshape(n_frames, 2 * n, n, 2)
        projs = np.einsum("fikp,fjkp->fkij", paired, np.conj(paired))
        quat = hc.extract_quat_matrix(projs)
        return _quat_from_rep(quat, n).reshape(n_frames * n, dim)
    if fam is Family.ALBERT:
        return _albert_frame_pool(n_frames, rng)
    if fam is Family.SUM:
        ctx = _context(algebra)
        blocks = []
        for desc, sl in zip(algebra.summands, ctx.block_slices):
            part = frame_pool(desc, n_frames, rng)
            padded = np.zeros((part.shape[0], dim))
            padded[:, sl] = part
            blocks.append(padded)
        return np.concatenate(blocks, axis=0)
    raise ValueError(f"unsupported family {fam}")


def _albert_frame_pool(n_frames: int, rng: np.random.Generator) -> np.ndarray:
    desc = AlgebraDescriptor(Family.ALBERT, 3)
    ctx = _context(desc)
    coords = rng.standard_normal((n_frames, 27))
    lam = _albert_eigenvalues_batch(coords)
    gaps = np.diff(lam, axis=1).min(axis=1)
    keep = gaps > FRAME_SEPARATION * (1.0 + np.abs(lam).max(axis=1))
    coords, lam = coords[keep], lam[keep]
    u = ctx.unit_coords
    idems = []
    for k in range(3):
        j, l = [m for m in range(3) if m != k]
        f1 = coords - lam[:, j, None] * u
        f2 = coords - lam[:, l, None] * u
        prod = _product_batch(ctx.constants, f1, f2)
        denom = (lam[:, k] - lam[:, j]) * (lam[:, k] - lam[:, l])
        idems.append(prod / denom[:, None])
    return np.concatenate(idems, axis=0)


def spectral_reconstruction_residual(a: Element) -> dict[str, float]:
    """Residuals of the defining properties of a spectral decomposition."""
    from .algebra import jordan_product, trace_form

    dec = spectral_decompose(a)
    scale = 1.0 + norm(a)
    recon = norm(dec.reconstruct() - a) / scale
    total = dec.idempotents[0]
    for e in dec.idempotents[1:]:
        total = total + e
    partition = norm(total - unit(a.algebra)) / (1.0 + a.algebra.rank)
    ortho = 0.0
    idem = 0.0
    for i, e in enumerate(dec.idempotents):
        idem = max(idem, norm(jordan_product(e, e) - e))
        for f in dec.idempotents[i + 1 :]:
            ortho = max(ortho, abs(trace_form(e, f)))
    return {
        "reconstruction": recon,
        "partition_of_unit": partition,
        "orthogonality": ortho,
        "idempotency": idem,
        "degenerate": float(dec.degenerate),
    }
