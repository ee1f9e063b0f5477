"""Geometry of the cone of squares: membership, self-duality, homogeneity.

The cone of an algebra is the set of elements with nonnegative spectrum,
equivalently the squares. Two membership routes are kept deliberately
separate so they can certify each other:

* spectral membership reads the minimum eigenvalue;
* dual membership pairs the element against primitive idempotents from
  sampled random frames (the extreme rays) and never looks at the element's
  own spectrum. It is a one-sided probabilistic certificate: a negative
  pairing is an exact witness of non-membership, while acceptance depends on
  the sampled pool.

Homogeneity is witnessed constructively: for interior w, the quadratic
representation of the square root, g = P(w^{1/2}), is a cone automorphism
with g(u) = w, and P(w^{-1/2}) is its inverse (Faraut & Koranyi, Analysis on
Symmetric Cones, ch. III). Every check that an operator preserves the cone
goes through ``_cone_image``, which scores the images of sampled squares by
their least relative eigenvalue clamped at 0. Images the spectral interior
screen certifies (least eigenvalue above INTERIOR_TOL_SCALE * (1 + |a|),
defined in ``spectral`` and re-exported here) would score above 0 anyway, so
only the rest reach the eigensolver.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    KERNEL_CHUNK_TERMS,
    AlgebraDescriptor,
    Element,
    LinearOperator,
    _context,
    _metric_adjoint,
    _norms,
    _quadratic_batch,
    _square_batch,
    norm,
)
from .certificates import ConeCertificate, _require_draws
from .spectral import (
    INTERIOR_TOL_SCALE,
    _frames,
    _interior_rows,
    eigenvalues_batch,
    frame_pool,
    spectral_decompose,
)

__all__ = [
    "PSD_TOL",
    "INTERIOR_TOL_SCALE",
    "min_eigenvalue",
    "cone_contains",
    "is_interior",
    "dual_cone_contains",
    "check_self_duality",
    "automorphism_to_point",
    "adjoint",
    "check_homogeneity",
    "check_order_unit",
    "random_interior_point",
]

PSD_TOL = 1e-9
MAX_BOUNDARY_ROUNDS = 200
# primitive-idempotent frames in the pool of check_membership_agreement
MEMBERSHIP_FRAMES = 512
# the transport residual |P(w^1/2) u - w| / (1 + |w|) check_homogeneity allows
HOMOGENEITY_TOL = 1e-8


def min_eigenvalue(a: Element) -> float:
    return float(eigenvalues_batch(a.algebra, a.coords[None, :])[0, 0])


def cone_contains(a: Element, tol: float = PSD_TOL) -> bool:
    return min_eigenvalue(a) >= -tol


def is_interior(w: Element) -> bool:
    return min_eigenvalue(w) > INTERIOR_TOL_SCALE * (1.0 + norm(w))


def dual_cone_contains(
    a: Element,
    sample_count: int = 64,
    seed: int = 0,
    tol: float = PSD_TOL,
) -> bool:
    """True iff a pairs nonnegatively with every sampled extreme ray."""
    pool = frame_pool(a.algebra, sample_count, seed)
    gram = _context(a.algebra).gram
    pairings = pool @ (gram * a.coords)
    return float(pairings.min()) >= -tol


def random_interior_point(
    algebra: AlgebraDescriptor,
    seed: int | np.random.Generator = 0,
    low: float = 0.5,
    high: float = 2.0,
) -> Element:
    """Interior point with spectrum sampled uniformly inside [low, high]."""
    rng = np.random.default_rng(seed)
    frame = _frames(algebra, 1, rng)[0]
    return Element(algebra, rng.uniform(low, high, size=algebra.rank) @ frame)


def boundary_margin(algebra: AlgebraDescriptor) -> float:
    """Width of the just-outside-the-boundary band excluded from agreement
    sampling.

    Frame-sampled dual membership is one-sided: an element whose minimum
    eigenvalue is negative but tiny violates the dual inequality only on a
    vanishing cap of extreme rays, which no element-independent pool can hit
    at desk scale. The band is half a typical eigenvalue magnitude wide.
    """
    return 0.85 * float(np.sqrt(algebra.dim / algebra.rank))


def sample_off_boundary(
    algebra: AlgebraDescriptor,
    count: int,
    rng: np.random.Generator,
    membership_map: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian coordinate rows redrawn out of the boundary margin band, and
    the minimum eigenvalue of each (after ``membership_map`` if given).

    Rows are kept when that eigenvalue is either nonnegative or below
    -boundary_margin. The draws stay independent of any frame pool they are
    later paired against. Raises after MAX_BOUNDARY_ROUNDS rounds of
    ``count`` draws that keep fewer than ``count`` rows.
    """
    margin = boundary_margin(algebra)
    rows, mins = [], []
    kept = 0
    for _ in range(MAX_BOUNDARY_ROUNDS):
        if kept >= count:
            break
        xs = rng.standard_normal((count, algebra.dim))
        probe = xs if membership_map is None else xs @ membership_map.T
        lam_min = eigenvalues_batch(algebra, probe)[:, 0]
        keep = (lam_min >= 0.0) | (lam_min <= -margin)
        rows.append(xs[keep])
        mins.append(lam_min[keep])
        kept += rows[-1].shape[0]
    if kept < count:
        raise RuntimeError("boundary-margin resampling failed to converge")
    return np.concatenate(rows)[:count], np.concatenate(mins)[:count]


def _pairing_minima(
    xs: np.ndarray, ys: np.ndarray, gram: np.ndarray, normalize: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Row minima of the trace pairings <x_i, y_j> and the first j attaining
    each; with ``normalize`` every pairing is divided by 1 + |x_i| |y_j|.

    Rows go in chunks of at most KERNEL_CHUNK_TERMS pairings, so memory
    grows with the number of rows, not with their product.
    """
    weighted = (ys * gram).T
    if normalize:
        x_norms, y_norms = _norms(xs, gram), _norms(ys, gram)
    mins = np.empty(xs.shape[0])
    cols = np.empty(xs.shape[0], dtype=np.intp)
    step = max(1, KERNEL_CHUNK_TERMS // ys.shape[0])
    for lo in range(0, xs.shape[0], step):
        rows = slice(lo, lo + step)
        block = xs[rows] @ weighted
        if normalize:
            block /= 1.0 + np.outer(x_norms[rows], y_norms)
        cols[rows] = np.argmin(block, axis=1)
        mins[rows] = np.take_along_axis(block, cols[rows, None], axis=1)[:, 0]
    return mins, cols


def check_self_duality(
    algebra: AlgebraDescriptor,
    samples: int = 200,
    seed: int = 0,
    tol: float = PSD_TOL,
    transform: np.ndarray | None = None,
) -> ConeCertificate:
    """Two-sided sampled certificate that the cone equals its dual cone.

    Direction one: pairs of cone members must pair nonnegatively in the
    trace form. Direction two: sampled elements whose pairings against all
    sampled extreme rays are nonnegative must pass spectral membership;
    candidates come from the off-boundary sampler, since dual acceptance is
    only a probabilistic certificate near the boundary.

    ``transform`` deforms the cone to T(cone) while keeping the trace form
    fixed; any non-orthogonal image breaks self-duality and the certificate
    is expected to fail with an explicit witness pair.
    """
    _require_draws(samples)
    ctx = _context(algebra)
    rng = np.random.default_rng(seed)
    dim = algebra.dim
    tmat = np.eye(dim) if transform is None else np.asarray(transform, dtype=float)
    tinv = np.linalg.inv(tmat)

    xs = rng.standard_normal((samples, dim))
    members = _square_batch(ctx.constants, xs) @ tmat.T
    rel_min, partner = _pairing_minima(members, members, ctx.gram, normalize=True)
    i = int(np.argmin(rel_min))
    worst_pairing = float(rel_min[i])
    witnesses: list[list[float]] = []
    if worst_pairing < -tol:
        witnesses = [members[i].tolist(), members[partner[i]].tolist()]

    rays = frame_pool(algebra, max(samples, 256), rng) @ tmat.T
    cand, cand_min = sample_off_boundary(algebra, samples, rng, membership_map=tinv)
    accepted = _pairing_minima(cand, rays, ctx.gram)[0] >= -tol
    worst_member = 0.0
    if accepted.any():
        lam_min = cand_min[accepted]
        worst_member = float(lam_min.min())
        if worst_member < -tol:
            bad = np.where(accepted)[0][np.argmin(lam_min)]
            witnesses.append(cand[bad].tolist())

    passed = worst_pairing >= -tol and worst_member >= -tol
    return ConeCertificate(
        check_name="self_duality",
        passed=passed,
        samples=samples,
        seed=seed,
        tol=tol,
        worst_residual=min(worst_pairing, worst_member),
        witnesses=witnesses,
        details={
            "worst_pairing": worst_pairing,
            "worst_dual_accepted_eigenvalue": worst_member,
            "boundary_margin": boundary_margin(algebra),
            "transformed": transform is not None,
        },
    )


def check_membership_agreement(
    algebra: AlgebraDescriptor,
    samples: int = 500,
    seed: int = 0,
    tol: float = PSD_TOL,
) -> ConeCertificate:
    """Spectral membership versus frame-sampled dual membership, two-sided.

    Elements come from the off-boundary sampler; the pool of
    MEMBERSHIP_FRAMES frames is drawn independently of them. Any
    disagreement is recorded with its witness.
    """
    _require_draws(samples)
    ctx = _context(algebra)
    rng = np.random.default_rng(seed)
    pool = frame_pool(algebra, MEMBERSHIP_FRAMES, rng)
    cand, lam_min = sample_off_boundary(algebra, samples, rng)
    spectral_in = lam_min >= -tol
    dual_in = _pairing_minima(cand, pool, ctx.gram)[0] >= -tol
    disagree = spectral_in != dual_in
    witnesses = [cand[i].tolist() for i in np.where(disagree)[0][:4]]
    return ConeCertificate(
        check_name="membership_agreement",
        passed=not disagree.any(),
        samples=samples,
        seed=seed,
        tol=tol,
        worst_residual=float(disagree.sum()),
        witnesses=witnesses,
        details={
            "disagreements": int(disagree.sum()),
            "in_cone": int(spectral_in.sum()),
            "frames": MEMBERSHIP_FRAMES,
            "boundary_margin": boundary_margin(algebra),
        },
    )


def automorphism_to_point(w: Element) -> LinearOperator:
    """The cone automorphism g = P(w^{1/2}) carrying the unit to interior w,
    built by ``_transports`` from the spectral decomposition of w."""
    if not is_interior(w):
        raise ValueError("automorphism_to_point requires an interior point")
    dec = spectral_decompose(w)
    frame = np.stack([e.coords for e in dec.idempotents])
    forward = _transports(w.algebra, frame[None], np.sqrt(dec.eigenvalues)[None])
    return LinearOperator(forward[0], w.algebra, w.algebra)


def adjoint(algebra: AlgebraDescriptor, g: LinearOperator) -> LinearOperator:
    """Adjoint with respect to the trace form (Gram-weighted transpose)."""
    mat = _metric_adjoint(_context(algebra).gram, g.matrix)
    return LinearOperator(mat, algebra, algebra)


def _cone_image(
    algebra: AlgebraDescriptor, ops: np.ndarray, xs: np.ndarray, tol: float
) -> tuple[float, np.ndarray | None]:
    """How far operators carry sampled squares out of the cone.

    ``xs`` (m, k, dim) holds draws; each operator ops[i, q] of the stack
    (m, q, dim, dim) maps the squares of the draws xs[i]. Returns the least
    lambda_min / (1 + max |lambda|) over all images, clamped at 0, and the
    square whose image scores lowest under the first operator that goes
    below -tol, or None when none does.

    It scores the whole stack it is handed, so the caller bounds its size:
    the squares, all m q k images in one batched product, one call of the
    interior screen ``spectral._interior_rows`` on them, and one
    ``eigenvalues_batch`` call on the images the screen does not certify.
    A certified image has lambda_min above INTERIOR_TOL_SCALE (1 + |image|)
    less its rounding, so an eigensolve would have scored it above 0 as
    well: the clamped least and the witness equal those of an eigensolve of
    every image.
    """
    m, k, dim = xs.shape
    sc = _context(algebra).constants
    squares = _square_batch(sc, xs.reshape(-1, dim)).reshape(m, k, dim)
    images = (squares[:, None] @ np.swapaxes(ops, -1, -2)).reshape(-1, dim)
    rest = np.flatnonzero(~_interior_rows(algebra, images))
    lam = eigenvalues_batch(algebra, images[rest])
    rel = np.full(len(images), np.inf)
    rel[rest] = lam[:, 0] / (1.0 + np.abs(lam).max(axis=1))
    rel = rel.reshape(-1, k)
    failing = np.flatnonzero(rel.min(axis=1) < -tol)
    witness = None
    if failing.size:
        first = failing[0]
        witness = squares[first // ops.shape[1], np.argmin(rel[first])]
    return min(0.0, float(rel.min(initial=np.inf))), witness


def _transports(
    algebra: AlgebraDescriptor, frames: np.ndarray, spectra: np.ndarray
) -> np.ndarray:
    """The quadratic representations P(sum_k spectra[k] frames[k]), batched
    over axis 0.

    With spectra the square roots of the eigenvalues of w = sum_k lam_k
    frames[k], this is the transport P(w^{1/2}) that carries the unit to w;
    with their inverses it is P(w^{-1/2}) = P(w^{1/2})^{-1}, since P(a)^{-1}
    = P(a^{-1}). A frame may hold the projectors of merged eigenvalues
    instead of idempotents.
    """
    points = np.einsum("sr,srd->sd", spectra, frames)
    return _quadratic_batch(_context(algebra).constants, points)


def check_homogeneity(
    algebra: AlgebraDescriptor,
    samples: int = 100,
    seed: int = 0,
    directions: int = 100,
) -> ConeCertificate:
    """Transitivity witness: P(w^{1/2}) carries u to w and preserves the cone.

    The interior points w come from one batched frame draw, with spectra
    uniform in [0.5, 2]; the same frames give w^{1/2} and w^{-1/2}, and
    ``_transports`` builds P(w^{1/2}) and P(w^{-1/2}) = P(w^{1/2})^{-1}
    batched as 2 L^2 - L_{a o a}. Each point gets ``directions`` sampled
    squares, and their images under both operators must stay in the cone.
    The transport residual must be within HOMOGENEITY_TOL and the images'
    least relative eigenvalue within PSD_TOL.

    One loop takes the points in chunks of at most KERNEL_CHUNK_TERMS
    entries, and each chunk goes to ``_cone_image`` whole. A point counts
    dim times the largest of: 6 dim, for building its operators (both of
    them and the four dim^2 temporaries of building one); 2 dim + 4
    directions, for its operators, draws, squares and both images; and 2
    rank directions, for the interior screen's work of about rank dim on
    each image. On 100 points and 100 directions with a warm context the
    traced peak is 1.3-3.1 MiB on desk's algebras and 1.4 MiB on real 8,
    where the draw of the frames sets it at every direction count. The
    draws come from one generator in point order and every score is a
    point's own, so the certificate does not depend on the chunk size.
    """
    _require_draws(samples)
    _require_draws(directions, "directions")
    ctx = _context(algebra)
    rng = np.random.default_rng(seed)
    dim = algebra.dim
    frames = _frames(algebra, samples, rng)
    lams = rng.uniform(0.5, 2.0, size=(samples, algebra.rank))
    worst_transport = 0.0
    worst_cone = 0.0
    witnesses: list[list[float]] = []
    per_point = dim * max(6 * dim, 2 * dim + 4 * directions, 2 * algebra.rank * directions)
    step = max(1, KERNEL_CHUNK_TERMS // per_point)
    for lo in range(0, samples, step):
        rows = slice(lo, lo + step)
        roots = np.sqrt(lams[rows])
        ops = np.stack([_transports(algebra, frames[rows], r) for r in (roots, 1 / roots)], axis=1)
        points = np.einsum("sr,srd->sd", lams[rows], frames[rows])
        gaps = _norms(ops[:, 0] @ ctx.unit_coords - points, ctx.gram)
        residual = gaps / (1.0 + _norms(points, ctx.gram))
        worst_transport = max(worst_transport, float(residual.max()))
        xs = rng.standard_normal((len(ops), directions, dim))
        least, witness = _cone_image(algebra, ops, xs, PSD_TOL)
        worst_cone = min(worst_cone, least)
        if witness is not None and not witnesses:
            witnesses.append(witness.tolist())
    passed = worst_transport <= HOMOGENEITY_TOL and worst_cone >= -PSD_TOL
    return ConeCertificate(
        check_name="homogeneity_transport",
        passed=passed,
        samples=samples,
        seed=seed,
        tol=HOMOGENEITY_TOL,
        worst_residual=max(worst_transport, -worst_cone),
        witnesses=witnesses,
        details={
            "worst_transport_residual": worst_transport,
            "worst_cone_eigenvalue": worst_cone,
        },
    )


def check_order_unit(
    algebra: AlgebraDescriptor,
    samples: int = 200,
    seed: int = 0,
    tol: float = PSD_TOL,
) -> ConeCertificate:
    """Every element sits below a multiple of the unit: max-eigenvalue bound."""
    _require_draws(samples)
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((samples, algebra.dim))
    lam = eigenvalues_batch(algebra, xs)
    top = lam[:, -1]
    ctx = _context(algebra)
    shifted = top[:, None] * ctx.unit_coords[None, :] - xs
    lam_shift = eigenvalues_batch(algebra, shifted)
    rel = lam_shift[:, 0] / (1.0 + np.abs(top))
    worst = float(rel.min())
    return ConeCertificate(
        check_name="order_unit",
        passed=worst >= -tol,
        samples=samples,
        seed=seed,
        tol=tol,
        worst_residual=worst,
    )
