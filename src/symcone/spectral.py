"""Spectral decomposition, idempotents, and Jordan frames.

One batched core, ``_spectrum``, is the only decomposition route: matrix
families go through a hermitian eigensolver (the quaternionic case through
its complex embedding), spin factors have a closed form, the octonionic
algebra takes its eigenvalues as the roots of the characteristic cubic,
read off the power traces p1, p2, p3 of each row (off its multiplication
operator near multiple roots), and its idempotents off closed forms in the
row and the unit, and direct sums go blockwise. It returns the eigenvalues
of a batch of coordinate rows, ascending and repeated by multiplicity,
and, when asked, one idempotent slot per eigenvalue; membership scans ask
for eigenvalues only, which skips the eigenvectors. Rows go in bounded
chunks.

The spectral projectors of a Jordan algebra element are polynomials in it
(Faraut and Koranyi, Analysis on Symmetric Cones, Thm III.1.2), so a
multiple root needs no second algorithm: where an octonionic row's
eigenvalues merge, the merged projector itself fills the group's first
slot and the group's other slots are zero.

``spectral_decompose`` is the core on one row with eigenvalues closer than
MERGE_TOL_SCALE * (1 + ||a||) merged into one group, whose (possibly
non-primitive) projector is the sum of its slots; merging sets the
``degenerate`` flag. ``_top_group`` applies the same merge rule to a batch
of rows from their eigenvalues alone, and ``_idempotent_rows`` tests a
batch of rows for (primitive) idempotency.

``_interior_rows`` is the interior screen: it certifies, without an
eigensolve, rows whose least eigenvalue exceeds INTERIOR_TOL_SCALE * (1 +
|a|), by the characteristic coefficients read off the power traces (rank at
most 3) or a batched Cholesky factorization (matrix families of higher
rank). The margin is five orders above the screen's rounding, so a certified
row is interior for certain; a row it does not certify decides nothing.

Frames are the idempotents of random standard-normal elements. Draws whose
spectrum is not cleanly separated are redrawn rather than refined, since
any refinement of a merged projector would be basis-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    _ENTRY_WIDTH,
    KERNEL_CHUNK_TERMS,
    AlgebraDescriptor,
    Element,
    Family,
    _context,
    _Context,
    _cubic_trace,
    _from_view,
    _left_mult_batch,
    _norms,
    _product_batch,
    _square_batch,
    _to_view,
)

__all__ = [
    "INTERIOR_TOL_SCALE",
    "SpectralDecomposition",
    "spectral_decompose",
    "eigenvalues_batch",
    "is_primitive",
    "random_jordan_frame",
    "canonical_frame",
    "frame_pool",
]

MERGE_TOL_SCALE = 1e-8
INTERIOR_TOL_SCALE = 1e-8
FRAME_SEPARATION = 1e-6
MAX_FRAME_ATTEMPTS = 20
ROOT_GAP_GATE = 1e-2


@dataclass
class SpectralDecomposition:
    """Distinct eigenvalues (ascending) with their spectral idempotents."""

    eigenvalues: np.ndarray
    idempotents: list[Element]
    degenerate: bool


def _merge_groups(lam: np.ndarray, tol) -> np.ndarray:
    """Group labels of ascending eigenvalue rows, counting up from 0: an
    eigenvalue within its row's ``tol`` (scalar or per row) of its
    predecessor joins the predecessor's group."""
    lam = np.atleast_2d(lam)
    starts = ~(np.diff(lam, axis=1) < np.reshape(tol, (-1, 1)))
    first = np.zeros((lam.shape[0], 1), dtype=np.intp)
    return np.concatenate([first, np.cumsum(starts, axis=1)], axis=1)


def _group_indices(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Indices of one ascending row of ``values``, split by ``_merge_groups``."""
    labels = _merge_groups(values, tol)[0]
    return np.split(np.arange(values.size), np.flatnonzero(np.diff(labels)) + 1)


def spectral_decompose(a: Element) -> SpectralDecomposition:
    # the rule of _top_group
    scale = _norms(a.coords[None, :], _context(a.algebra).gram)[0]
    lam, idem = _spectrum(a.algebra, a.coords[None, :], idempotents=True)
    groups = _group_indices(lam[0], MERGE_TOL_SCALE * (1.0 + scale))
    return SpectralDecomposition(
        np.array([lam[0, g].mean() for g in groups]),
        [Element(a.algebra, idem[0, g].sum(axis=0)) for g in groups],
        degenerate=any(g.size > 1 for g in groups),
    )


# ---------------------------------------------------------------------------
# The batched spectral core.
# ---------------------------------------------------------------------------


def _spectrum(
    algebra: AlgebraDescriptor, coords: np.ndarray, idempotents: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues and, if asked, idempotents of a batch of coordinate rows.

    Returns eigenvalues of shape (n, rank), ascending and repeated by
    multiplicity, and with ``idempotents`` one idempotent slot per
    eigenvalue, shape (n, rank, dim), else None. The slots of a group of
    equal eigenvalues sum to its spectral projector; with a separated
    spectrum they are the primitive idempotents of the row's frame. An
    octonionic block whose eigenvalues merge holds each merged projector in
    its group's first slot and zeros in the group's other slots.

    Rows go in chunks that hold at most KERNEL_CHUNK_TERMS idempotent
    entries, so eigensolver inputs and projectors stay a few megabytes
    whatever the batch; the octonionic multiplication operators, dim^2
    entries a row, are built in smaller chunks of their own.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    n, width = coords.shape[0], algebra.rank * algebra.dim
    lam = np.empty((n, algebra.rank))
    idem = np.empty((n, algebra.rank, algebra.dim)) if idempotents else None
    step = max(1, KERNEL_CHUNK_TERMS // width)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        lam[rows], part = _spectrum_rows(algebra, coords[rows], idempotents)
        if idempotents:
            idem[rows] = part
    return lam, idem


def _spectrum_rows(
    algebra: AlgebraDescriptor, xs: np.ndarray, idempotents: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    fam, n = algebra.family, algebra.size
    if fam is Family.SPIN:
        t, vec = xs[:, 0], xs[:, 1:]
        r = np.linalg.norm(vec, axis=1)
        lam = np.stack([t - r, t + r], axis=1)
        if not idempotents:
            return lam, None
        half = 0.5 * vec / np.where(r > 0.0, r, 1.0)[:, None]
        idem = np.empty((xs.shape[0], 2, algebra.dim))
        idem[:, :, 0] = 0.5
        idem[:, 0, 1:] = -half
        idem[:, 1, 1:] = half
        return lam, idem
    if fam is Family.ALBERT:
        return _albert_spectrum(algebra, xs, idempotents)
    if fam is Family.SUM:
        return _sum_spectrum(algebra, xs, idempotents)
    width = _ENTRY_WIDTH[fam]
    mats = _to_view(xs, n, width)
    # the quaternionic embedding repeats every eigenvalue twice
    pair = 2 if width == 4 else 1
    if not idempotents:
        return np.linalg.eigvalsh(mats)[:, ::pair], None
    lam, vecs = np.linalg.eigh(mats)
    paired = vecs.reshape(vecs.shape[:2] + (n, pair))
    projs = np.einsum("mikp,mjkp->mkij", paired, paired.conj())
    return lam[:, ::pair], _from_view(projs, n, width)


def _albert_spectrum(
    algebra: AlgebraDescriptor, xs: np.ndarray, idempotents: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Octonionic spectra as the roots of the characteristic cubic, with the
    multiplication operators as the fallback.

    The eigenvalues (``_root_spectrum``) are the roots of t^3 - e1 t^2 + e2
    t - e3, whose coefficients come from the power traces p1, p2, p3 as in
    the interior screen. On the rows the gate passes, those whose centred
    and scaled row has every gap at least ROOT_GAP_GATE (1 + max |mu|), they
    err by about eps / gap relative to 1 + max |lambda|: 1e-15 at a gap of
    0.5, 5e-15 next to the gate at 0.02, far inside every tolerance. A
    double root costs the roots half their digits, so rows that fail the
    gate, among them unit multiples and frame idempotents, take the full
    operator route: L_a is symmetric (the trace form is associative and
    the basis orthonormal), the spectrum of L_a consists of the midpoints
    (lambda_i + lambda_j) / 2, its smallest and largest are the extreme
    element eigenvalues, and the trace supplies the middle one exactly.

    The idempotents are closed forms, after grouping the eigenvalues with
    ``_merge_groups`` at MERGE_TOL_SCALE * (1 + |a|), the rule of
    ``spectral_decompose`` (a block's norm is at most its sum row's, so a
    block never merges coarser than the whole row):

    * three groups: the Lagrange products (a - lambda_j u) o (a - lambda_l
      u) / ((lambda_k - lambda_j) (lambda_k - lambda_l));
    * two groups: the Lagrange product of the eigenvalue k that is alone in
      its group, which is e_k exactly however far apart lambda_j and
      lambda_l are, and u - e_k in the merged group's first slot, zero in
      its other slot; with the group's mean as its eigenvalue the point is
      rebuilt to within half the group's spread;
    * one group: u in the first slot.
    """
    ctx = _context(algebra)
    lam = _root_spectrum(ctx, xs)
    # each operator takes dim^2 entries, so the fallback goes a few rows at a time
    step = max(1, KERNEL_CHUNK_TERMS // algebra.dim**2)
    redo = np.flatnonzero(np.isnan(lam[:, 0]))
    for lo in range(0, redo.size, step):
        rows = redo[lo : lo + step]
        spec = np.linalg.eigvalsh(_left_mult_batch(ctx.constants, xs[rows]))
        lmin, lmax = spec[:, 0], spec[:, -1]
        lmid = xs[rows] @ ctx.unit_coords - lmin - lmax
        lam[rows] = np.sort(np.stack([lmin, lmid, lmax], axis=1), axis=1)
    if not idempotents:
        return lam, None
    u = ctx.unit_coords
    labels = _merge_groups(lam, MERGE_TOL_SCALE * (1.0 + _norms(xs, ctx.gram)))
    alone = (labels[:, :, None] == labels[:, None, :]).sum(axis=2) == 1
    idem = np.empty((xs.shape[0], 3, algebra.dim))
    for k in range(3):
        j, l = [m for m in range(3) if m != k]
        prod = _product_batch(
            ctx.constants, xs - lam[:, j, None] * u, xs - lam[:, l, None] * u
        )
        denom = (lam[:, k] - lam[:, j]) * (lam[:, k] - lam[:, l])
        idem[:, k] = prod / np.where(alone[:, k], denom, 1.0)[:, None]
    idem[~alone] = 0.0
    # the merged group's first slot is 1 when slot 0 is alone, else 0
    merged = np.flatnonzero(~alone.all(axis=1))
    idem[merged, alone[merged, 0].astype(np.intp)] = u - idem[merged].sum(axis=1)
    return lam, idem


def _root_spectrum(ctx: _Context, xs: np.ndarray) -> np.ndarray:
    """Ascending Albert eigenvalues as the roots of the characteristic cubic,
    NaN on rows the gate sends to the operator route.

    With shift = tr a / 3 and c = (a - shift u) / |a - shift u|, tr c = 0
    and <c, c> = 1, so c's eigenvalues mu solve mu^3 - mu / 2 - p3 / 3 = 0
    with p3 = <c o c, c>. Viete's trigonometric form gives them as
    sqrt(2/3) cos((arccos(sqrt(6) p3) - 2 pi k) / 3), ascending for k = 2,
    1, 0, and lambda = shift + |a - shift u| mu. A row passes when its
    centred part is nonzero and every gap of mu is at least ROOT_GAP_GATE
    (1 + max |mu|); rounding that breaks the order near a double root
    fails that test too.
    """
    u = ctx.unit_coords
    shift = xs @ u / 3.0
    centred = xs - shift[:, None] * u
    scale = np.linalg.norm(centred, axis=1)
    c = centred / np.where(scale > 0.0, scale, 1.0)[:, None]
    theta = np.arccos(np.clip(np.sqrt(6.0) * _cubic_trace(ctx, c), -1.0, 1.0))
    k = np.arange(2, -1, -1)
    mu = np.sqrt(2.0 / 3.0) * np.cos((theta[:, None] - 2.0 * np.pi * k) / 3.0)
    gaps = np.diff(mu, axis=1).min(axis=1)
    ok = (scale > 0.0) & (gaps >= ROOT_GAP_GATE * (1.0 + np.abs(mu).max(axis=1)))
    return np.where(ok[:, None], shift[:, None] + scale[:, None] * mu, np.nan)


def _sum_spectrum(
    algebra: AlgebraDescriptor, xs: np.ndarray, idempotents: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Blockwise spectra of a direct sum, merged in ascending order."""
    blocks = list(zip(algebra.summands, _context(algebra).block_slices))
    parts = [_spectrum_rows(desc, xs[:, sl], idempotents) for desc, sl in blocks]
    lam = np.concatenate([part[0] for part in parts], axis=1)
    order = np.argsort(lam, axis=1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=1)
    if not idempotents:
        return lam, None
    idem = np.zeros((xs.shape[0], algebra.rank, algebra.dim))
    first = 0
    for (desc, sl), (_, block) in zip(blocks, parts):
        idem[:, first : first + desc.rank, sl] = block
        first += desc.rank
    return lam, np.take_along_axis(idem, order[:, :, None], axis=1)


def eigenvalues_batch(algebra: AlgebraDescriptor, coords: np.ndarray) -> np.ndarray:
    """Spectral eigenvalues, ascending, for a batch of coordinate rows.

    Returns shape (batch, rank); multiplicities are repeated so each row
    always carries ``rank`` entries.
    """
    return _spectrum(algebra, coords)[0]


def _interior_rows(
    algebra: AlgebraDescriptor, coords: np.ndarray, scale: np.ndarray | None = None
) -> np.ndarray:
    """Rows certified to have lambda_min > INTERIOR_TOL_SCALE * s, where s is
    ``scale`` or else 1 + the trace norm, so that s >= 1 + max |lambda|.
    False decides nothing: the row may still be interior.

    Each test is exact arithmetic's test for a margin delta s that is five
    orders above the rounding it makes, so a passing row is interior for
    certain, and an eigensolve would have put its lambda_min above 0 too.

    * Rank r <= 3 (spin factors, the octonionic algebra, matrix families of
      size up to 3): the elementary symmetric polynomials of the
      eigenvalues, from the power traces p1 = tr a, p2 = <a, a> and p3 =
      <a o a, a> (Faraut and Koranyi, Analysis on Symmetric Cones, ch. II),
      e1 = p1, e2 = (p1^2 - p2) / 2 and e3 = (p1^3 - 3 p1 p2 + 2 p3) / 6,
      exceed delta s, delta s^2 and delta s^3 up to e_r. Then the
      characteristic polynomial has no root <= 0, and the least root is e_r
      over the product of the other r - 1, each below s.
    * Matrix families of rank >= 4: the unblocked Cholesky factorization
      of the matrix view minus delta s I completes with positive pivots. A
      completed factorization is the exact one of a matrix within a small
      multiple of n^2 eps s (Higham, Accuracy and Stability of Numerical
      Algorithms, ch. 10). It runs over the batch, one pivot per step, so a
      failing row fails alone (``np.linalg.cholesky`` raises for the whole
      stack).
    * Direct sums: every block passes against the whole row's s.
    """
    ctx = _context(algebra)
    if scale is None:
        scale = 1.0 + _norms(coords, ctx.gram)
    floor = INTERIOR_TOL_SCALE * scale
    if algebra.family is Family.SUM:
        ok = np.ones(coords.shape[0], dtype=bool)
        for desc, sl in zip(algebra.summands, ctx.block_slices):
            ok &= _interior_rows(desc, coords[:, sl], scale)
        return ok
    rank = algebra.rank
    if rank <= 3:
        p1 = coords @ (ctx.gram * ctx.unit_coords)
        ok = p1 > floor
        if rank >= 2:
            p2 = np.sum(coords * ctx.gram * coords, axis=1)
            ok &= 0.5 * (p1 * p1 - p2) > floor * scale
        if rank == 3:
            p3 = _cubic_trace(ctx, coords)
            ok &= (p1**3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0 > floor * scale**2
        return ok
    mats = _to_view(coords, algebra.size, _ENTRY_WIDTH[algebra.family])
    diag = np.arange(mats.shape[-1])
    mats[:, diag, diag] -= floor[:, None]
    ok = np.ones(coords.shape[0], dtype=bool)
    for k in diag:
        pivot = mats[:, k, k].real
        ok &= pivot > 0.0
        # a failed row's column goes to 0, which freezes the rest of it
        col = mats[:, k + 1 :, k] / np.sqrt(np.where(ok, pivot, np.inf))[:, None]
        mats[:, k + 1 :, k + 1 :] -= col[:, :, None] * col[:, None, :].conj()
    return ok


def _top_group(
    algebra: AlgebraDescriptor, coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and size of the top eigenvalue group of each row, merged as in
    ``spectral_decompose``. The group's projector is an idempotent whose
    trace is that size, so it is primitive exactly when the size is 1."""
    lam = eigenvalues_batch(algebra, coords)
    tol = MERGE_TOL_SCALE * (1.0 + _norms(coords, _context(algebra).gram))
    labels = _merge_groups(lam, tol)
    top = labels == labels[:, -1:]
    size = top.sum(axis=1)
    return np.where(top, lam, 0.0).sum(axis=1) / size, size


def _separated(lam: np.ndarray) -> np.ndarray:
    """Rows of ascending spectra with every gap at least FRAME_SEPARATION
    * (1 + max |lambda|)."""
    gaps = np.diff(lam, axis=1).min(axis=1, initial=np.inf)
    return gaps >= FRAME_SEPARATION * (1.0 + np.abs(lam).max(axis=1))


def _frames(
    algebra: AlgebraDescriptor, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Primitive idempotents of ``count`` random frames, (count, rank, dim).

    Each frame is the spectral frame of a standard-normal coordinate draw,
    its idempotents in ascending eigenvalue order. Draws whose spectrum is
    not cleanly separated are redrawn (primitive refinement of a merged
    projector would be basis-dependent); raises when a frame is still
    missing after MAX_FRAME_ATTEMPTS rounds.
    """
    frames = np.empty((count, algebra.rank, algebra.dim))
    todo = np.arange(count)
    for _ in range(MAX_FRAME_ATTEMPTS):
        if not todo.size:
            break
        draws = rng.standard_normal((todo.size, algebra.dim))
        lam, idem = _spectrum(algebra, draws, idempotents=True)
        ok = _separated(lam)
        frames[todo[ok]] = idem[ok]
        todo = todo[~ok]
    if todo.size:
        raise RuntimeError(
            f"no cleanly separated spectrum in {MAX_FRAME_ATTEMPTS} draws on {algebra}"
        )
    return frames


# ---------------------------------------------------------------------------
# Idempotents and frames.
# ---------------------------------------------------------------------------


def _idempotent_rows(
    algebra: AlgebraDescriptor, coords: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Whether each row p is idempotent, |p o p - p| <= tol (1 + |p|^2) in
    the trace norm, and whether it is primitive: also of trace 1 within
    tol (1 + rank)."""
    ctx = _context(algebra)
    gaps = _norms(_square_batch(ctx.constants, coords) - coords, ctx.gram)
    idempotent = gaps <= tol * (1.0 + _norms(coords, ctx.gram) ** 2)
    traces = coords @ (ctx.gram * ctx.unit_coords)
    return idempotent, idempotent & (np.abs(traces - 1.0) <= tol * (1.0 + algebra.rank))


def is_primitive(p: Element, tol: float = 1e-9) -> bool:
    return bool(_idempotent_rows(p.algebra, p.coords[None, :], tol)[1][0])


def random_jordan_frame(
    algebra: AlgebraDescriptor, seed: int | np.random.Generator = 0
) -> list[Element]:
    """A frame of ``rank`` primitive idempotents from a random regular element.

    Near-degenerate draws are redrawn; raises after MAX_FRAME_ATTEMPTS
    consecutive ones.
    """
    frame = _frames(algebra, 1, np.random.default_rng(seed))[0]
    return [Element(algebra, e) for e in frame]


def canonical_frame(algebra: AlgebraDescriptor) -> list[Element]:
    """One fixed frame per algebra, written down: the diagonal units of a
    matrix family or the octonionic algebra, (u - e_1)/2 and (u + e_1)/2 of
    a spin factor, and each summand's frame in turn in a direct sum."""
    return [Element(algebra, row) for row in _canonical_frame_rows(algebra)]


def _canonical_frame_rows(algebra: AlgebraDescriptor) -> np.ndarray:
    rows = np.zeros((algebra.rank, algebra.dim))
    if algebra.family is Family.SUM:
        first = 0
        for desc, sl in zip(algebra.summands, _context(algebra).block_slices):
            rows[first : first + desc.rank, sl] = _canonical_frame_rows(desc)
            first += desc.rank
    elif algebra.family is Family.SPIN:
        rows[:, 0] = 0.5
        rows[:, 1] = (-0.5, 0.5)
    else:
        # the diagonal coordinates come first
        rows[:, : algebra.size] = np.eye(algebra.size)
    return rows


# ---------------------------------------------------------------------------
# Batched pools of primitive idempotents (sampled frames, flattened).
# ---------------------------------------------------------------------------


def frame_pool(
    algebra: AlgebraDescriptor, n_frames: int, seed: int | np.random.Generator = 0
) -> np.ndarray:
    """Coordinates of the primitive idempotents of ``n_frames`` random frames.

    Shape (n_frames * rank, dim), frame-major: rows f * rank to
    (f + 1) * rank are the idempotents of frame f and sum to the unit.
    Draws are independent of any element being tested; the pool is what
    frame-sampled dual membership quantifies over.
    """
    frames = _frames(algebra, n_frames, np.random.default_rng(seed))
    return frames.reshape(n_frames * algebra.rank, algebra.dim)

