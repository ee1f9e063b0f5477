"""Spectral decomposition, idempotents, and Jordan frames.

One batched core, ``_spectrum``, is the only code that knows the families:
matrix families go through a hermitian eigensolver (the quaternionic case
through its complex embedding), spin factors have a closed form, the
octonionic algebra reads its eigenvalues off a Rayleigh-Ritz step on the
power span of each row (off its multiplication operator near multiple
roots) and its idempotents off Lagrange interpolation, and direct sums go
blockwise. It returns the eigenvalues of a batch of coordinate rows,
ascending and repeated by multiplicity, and, when asked, one idempotent per
eigenvalue; membership scans ask for eigenvalues only, which skips the
eigenvectors. Rows go in bounded chunks.

``spectral_decompose`` is the core on one row with eigenvalues closer than
MERGE_TOL_SCALE * (1 + ||a||) merged into one group, whose (possibly
non-primitive) projector is the sum of its idempotents; merging sets the
``degenerate`` flag. An element whose octonionic block has no separated
spectrum goes through the generic route instead: find the first linear
dependence among the Jordan powers u, a, a o a, ..., read eigenvalues off
the resulting minimal polynomial, and build the spectral idempotents by
Lagrange interpolation in Jordan products. The generic route is available
for every family through ``method="generic"`` and is the reference the
test suite checks the core against. ``_top_group`` applies the same merge
rule to a batch of rows from their eigenvalues alone, and
``_idempotent_rows`` tests a batch of rows for (primitive) idempotency.

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
    _from_view,
    _left_mult_batch,
    _norms,
    _product_batch,
    _product_coords,
    _to_view,
    jordan_product,
    norm,
    trace_form,
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
RITZ_GATE = 1e-2


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


def spectral_decompose(
    a: Element, merge_tol: float | None = None, method: str = "auto"
) -> SpectralDecomposition:
    scale_tol = MERGE_TOL_SCALE * (1.0 + norm(a)) if merge_tol is None else merge_tol
    if method not in ("auto", "generic"):
        raise ValueError(f"unknown spectral method {method!r}")
    if method == "auto":
        lam, idem = _spectrum(a.algebra, a.coords[None, :], idempotents=True)
        # NaN idempotents mark an octonionic block without a separated spectrum
        if np.isfinite(idem).all():
            groups = _group_indices(lam[0], scale_tol)
            return SpectralDecomposition(
                np.array([lam[0, g].mean() for g in groups]),
                [Element(a.algebra, idem[0, g].sum(axis=0)) for g in groups],
                degenerate=any(g.size > 1 for g in groups),
            )
    return _generic_decompose(a, scale_tol)


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


# ---------------------------------------------------------------------------
# The batched spectral core.
# ---------------------------------------------------------------------------


def _spectrum(
    algebra: AlgebraDescriptor, coords: np.ndarray, idempotents: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues and, if asked, idempotents of a batch of coordinate rows.

    Returns eigenvalues of shape (n, rank), ascending and repeated by
    multiplicity, and with ``idempotents`` one idempotent per eigenvalue,
    shape (n, rank, dim), else None. The idempotents of equal eigenvalues
    sum to their spectral projector; with a separated spectrum they are the
    primitive idempotents of the row's frame. Rows whose octonionic block
    has no separated spectrum get NaN idempotents.

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
    """Octonionic spectra by Rayleigh-Ritz, with the multiplication
    operators as the fallback.

    L_a is symmetric (the trace form is associative and the basis
    orthonormal), and the subalgebra span{u, a, a o a} is invariant under
    it, where it acts as a on its own frame. So the Ritz values of L_c on
    span{u, c, c o c}, for the centred and scaled row c, are c's eigenvalues
    whenever that span has dimension 3 (``_ritz_spectrum``). Near a double
    root the span's third direction is computed to about eps / gap and the
    Ritz values err by about its square: 3e-15 at gaps from 1e-1 to 1e-9,
    but 2e-13 at 1e-10 and 6e-9 at 1e-12. (Forming the Ritz matrix through
    R^-1 instead loses eps / gap, 7e-9 at a gap of 1e-8.) The gate is
    RITZ_GATE = 1e-2 and not sqrt(eps): it already sends only a few of
    20 000 cone images to the fallback, so a lower gate saves nothing and
    would spend the margin to the gaps where the error shows. Rows that
    fail it, among them unit multiples and frame idempotents, take the
    full operator route: the spectrum of L_a consists of the midpoints
    (lambda_i + lambda_j) / 2, its smallest and largest are the extreme
    element eigenvalues, and the trace supplies the middle one exactly.
    (Going through characteristic-polynomial coefficients instead would
    lose half the digits at multiple roots.)

    The idempotents are the Lagrange products (a - lambda_j u) o (a -
    lambda_l u) / ((lambda_k - lambda_j) (lambda_k - lambda_l)), set to NaN
    where gaps fall below FRAME_SEPARATION.
    """
    ctx = _context(algebra)
    # each operator takes dim^2 entries, and a row's Ritz step fewer, so
    # both go a few rows at a time
    step = max(1, KERNEL_CHUNK_TERMS // algebra.dim**2)
    lam = np.empty((xs.shape[0], 3))
    for lo in range(0, xs.shape[0], step):
        lam[lo : lo + step] = _ritz_spectrum(ctx, xs[lo : lo + step])
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
    separated = _separated(lam)
    idem = np.empty((xs.shape[0], 3, algebra.dim))
    for k in range(3):
        j, l = [m for m in range(3) if m != k]
        prod = _product_batch(
            ctx.constants, xs - lam[:, j, None] * u, xs - lam[:, l, None] * u
        )
        denom = (lam[:, k] - lam[:, j]) * (lam[:, k] - lam[:, l])
        idem[:, k] = prod / np.where(separated, denom, 1.0)[:, None]
    idem[~separated] = np.nan
    return lam, idem


def _ritz_spectrum(ctx: _Context, xs: np.ndarray) -> np.ndarray:
    """Ascending Albert eigenvalues from Rayleigh-Ritz on the power span,
    NaN on rows the gate sends to the operator route.

    With c = (a - (tr a / 3) u) / |.|, Gram-Schmidt QR of [u, c, c o c]
    (twice over for the last column) gives the orthonormal q0, q1, q2 and
    R's diagonal. The Ritz matrix is H = Q^T [L_c q0, L_c q1, L_c q2], where
    L_c q0 = c / sqrt(3) and L_c q1 follows from c o c, so only L_c q2
    needs a second product; no R^-1 is formed. A row passes when R11 and
    R22 are at least RITZ_GATE (else the span is degenerate and q2 rounding
    noise) and its Ritz values have every gap at least RITZ_GATE (1 +
    max |mu|).
    """
    sc, u = ctx.constants, ctx.unit_coords
    lam = np.full((xs.shape[0], 3), np.nan)
    shift = xs @ u / 3.0
    centred = xs - shift[:, None] * u
    scale = np.linalg.norm(centred, axis=1)
    c = centred / np.where(scale > 0.0, scale, 1.0)[:, None]
    q0 = u / np.sqrt(3.0)
    a01 = c @ q0
    v1 = c - a01[:, None] * q0
    r11 = np.linalg.norm(v1, axis=1)
    q1 = v1 / np.where(r11 > 0.0, r11, 1.0)[:, None]
    cc = _product_batch(sc, c, c)
    v2 = cc
    for _ in range(2):
        v2 = v2 - (v2 @ q0)[:, None] * q0
        v2 = v2 - np.sum(v2 * q1, axis=1, keepdims=True) * q1
    r22 = np.linalg.norm(v2, axis=1)
    live = np.flatnonzero((r11 >= RITZ_GATE) & (r22 >= RITZ_GATE))
    c, q1, q2 = c[live], q1[live], v2[live] / r22[live, None]
    images = np.stack([
        c / np.sqrt(3.0),
        (cc[live] - a01[live, None] * c / np.sqrt(3.0)) / r11[live, None],
        _product_batch(sc, c, q2),
    ], axis=1)
    q = np.stack([np.broadcast_to(q0, c.shape), q1, q2], axis=1)
    h = q @ np.swapaxes(images, 1, 2)
    mu = np.linalg.eigvalsh(0.5 * (h + np.swapaxes(h, 1, 2)))
    gaps = np.diff(mu, axis=1).min(axis=1)
    ok = gaps >= RITZ_GATE * (1.0 + np.abs(mu).max(axis=1))
    rows = live[ok]
    lam[rows] = shift[rows, None] + scale[rows, None] * mu[ok]
    return lam


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
    gaps = _norms(_product_batch(ctx.constants, coords, coords) - coords, ctx.gram)
    idempotent = gaps <= tol * (1.0 + _norms(coords, ctx.gram) ** 2)
    traces = coords @ (ctx.gram * ctx.unit_coords)
    return idempotent, idempotent & (np.abs(traces - 1.0) <= tol * (1.0 + algebra.rank))


def is_idempotent(p: Element, tol: float = 1e-9) -> bool:
    return bool(_idempotent_rows(p.algebra, p.coords[None, :], tol)[0][0])


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


def canonical_regular_element(algebra: AlgebraDescriptor, offset: int = 0) -> Element:
    """A fixed element with spectrum offset+1, ..., offset+rank.

    Used to pin one deterministic frame per algebra independent of any seed.
    """
    fam = algebra.family
    coords = np.zeros(algebra.dim)
    if fam is Family.SPIN:
        coords[0] = offset + 1.5
        coords[1] = 0.5
    elif fam is Family.SUM:
        shift = offset
        for desc, sl in zip(algebra.summands, _context(algebra).block_slices):
            coords[sl] = canonical_regular_element(desc, shift).coords
            shift += desc.rank
    else:
        # matrix families: the diagonal coordinates come first
        coords[: algebra.size] = np.arange(1, algebra.size + 1) + offset
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

    Shape (n_frames * rank, dim), frame-major: rows f * rank to
    (f + 1) * rank are the idempotents of frame f and sum to the unit.
    Draws are independent of any element being tested; the pool is what
    frame-sampled dual membership quantifies over.
    """
    frames = _frames(algebra, n_frames, np.random.default_rng(seed))
    return frames.reshape(n_frames * algebra.rank, algebra.dim)


def spectral_reconstruction_residual(a: Element) -> dict[str, float]:
    """Residuals of the defining properties of a spectral decomposition."""
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
