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
with g(u) = w.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    LinearOperator,
    _context,
    _product_batch,
    norm,
    quadratic_representation,
    unit,
)
from .certificates import ConeCertificate
from .spectral import eigenvalues_batch, frame_pool, spectral_decompose

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
    "check_adjoint_automorphism",
    "check_homogeneity",
    "check_order_unit",
    "effect_interval_check",
    "random_interior_point",
]

PSD_TOL = 1e-9
INTERIOR_TOL_SCALE = 1e-8


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
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    from .spectral import random_jordan_frame

    frame = random_jordan_frame(algebra, rng)
    lams = rng.uniform(low, high, size=len(frame))
    coords = sum(l * e.coords for l, e in zip(lams, frame))
    return Element(algebra, coords)


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
    max_rounds: int = 200,
) -> np.ndarray:
    """Gaussian coordinate rows redrawn out of the boundary margin band.

    Rows are kept when their minimum eigenvalue (after ``membership_map`` if
    given) is either nonnegative or below -boundary_margin. The draws stay
    independent of any frame pool they are later paired against.
    """
    margin = boundary_margin(algebra)
    out = np.empty((0, algebra.dim))
    for _ in range(max_rounds):
        if out.shape[0] >= count:
            break
        xs = rng.standard_normal((count, algebra.dim))
        probe = xs if membership_map is None else xs @ membership_map.T
        lam_min = eigenvalues_batch(algebra, probe)[:, 0]
        keep = (lam_min >= 0.0) | (lam_min <= -margin)
        out = np.concatenate([out, xs[keep]], axis=0)
    if out.shape[0] < count:
        raise RuntimeError("boundary-margin resampling failed to converge")
    return out[:count]


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
    ctx = _context(algebra)
    rng = np.random.default_rng(seed)
    dim = algebra.dim
    tmat = np.eye(dim) if transform is None else np.asarray(transform, dtype=float)
    tinv = np.linalg.inv(tmat)

    xs = rng.standard_normal((samples, dim))
    members = _product_batch(ctx.constants, xs, xs) @ tmat.T
    pair_matrix = members @ (ctx.gram[:, None] * members.T)
    norms = np.sqrt(np.sum(members**2 * ctx.gram, axis=1))
    rel = pair_matrix / (1.0 + np.outer(norms, norms))
    worst_pairing = float(rel.min())
    witnesses: list[list[float]] = []
    if worst_pairing < -tol:
        i, j = np.unravel_index(np.argmin(rel), rel.shape)
        witnesses = [members[i].tolist(), members[j].tolist()]

    rays = frame_pool(algebra, max(samples, 256), rng) @ tmat.T
    cand = sample_off_boundary(algebra, samples, rng, membership_map=tinv)
    pairings = cand @ (ctx.gram[:, None] * rays.T)
    accepted = pairings.min(axis=1) >= -tol
    worst_member = 0.0
    if accepted.any():
        lam_min = eigenvalues_batch(algebra, cand[accepted] @ tinv.T)[:, 0]
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
    frames: int = 512,
) -> ConeCertificate:
    """Spectral membership versus frame-sampled dual membership, two-sided.

    Elements come from the off-boundary sampler; the frame pool is drawn
    independently of them. Any disagreement is recorded with its witness.
    """
    ctx = _context(algebra)
    rng = np.random.default_rng(seed)
    pool = frame_pool(algebra, frames, rng)
    cand = sample_off_boundary(algebra, samples, rng)
    lam_min = eigenvalues_batch(algebra, cand)[:, 0]
    spectral_in = lam_min >= -tol
    pairings = cand @ (ctx.gram[:, None] * pool.T)
    dual_in = pairings.min(axis=1) >= -tol
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
            "frames": frames,
            "boundary_margin": boundary_margin(algebra),
        },
    )


def automorphism_to_point(w: Element) -> LinearOperator:
    """The cone automorphism g = P(w^{1/2}) carrying the unit to interior w."""
    if not is_interior(w):
        raise ValueError("automorphism_to_point requires an interior point")
    dec = spectral_decompose(w)
    root = sum(np.sqrt(lam) * e.coords for lam, e in zip(dec.eigenvalues, dec.idempotents))
    return quadratic_representation(Element(w.algebra, root))


def adjoint(algebra: AlgebraDescriptor, g: LinearOperator) -> LinearOperator:
    """Adjoint with respect to the trace form (Gram-weighted transpose)."""
    gram = _context(algebra).gram
    mat = (g.matrix.T * gram[None, :]) / gram[:, None]
    return LinearOperator(mat, algebra, algebra)


def check_adjoint_automorphism(
    algebra: AlgebraDescriptor,
    g: LinearOperator,
    samples: int = 100,
    seed: int = 0,
    tol: float = PSD_TOL,
) -> ConeCertificate:
    """The trace-form adjoint of a cone automorphism preserves the cone."""
    ctx = _context(algebra)
    rng = np.random.default_rng(seed)
    adj = adjoint(algebra, g)

    xs = rng.standard_normal((samples, algebra.dim))
    squares = _product_batch(ctx.constants, xs, xs)
    mapped = squares @ adj.matrix.T
    lam = eigenvalues_batch(algebra, mapped)
    scales = 1.0 + np.abs(lam).max(axis=1)
    rel_min = float((lam[:, 0] / scales).min())

    ys = rng.standard_normal((samples, algebra.dim))
    zs = rng.standard_normal((samples, algebra.dim))
    lhs = np.sum((ys @ g.matrix.T) * ctx.gram * zs, axis=1)
    rhs = np.sum(ys * ctx.gram * (zs @ adj.matrix.T), axis=1)
    pairing_gap = float(np.abs(lhs - rhs).max() / (1.0 + np.abs(lhs).max()))

    witnesses = []
    if rel_min < -tol:
        bad = int(np.argmin(lam[:, 0] / scales))
        witnesses.append(squares[bad].tolist())
    passed = rel_min >= -tol and pairing_gap <= tol
    return ConeCertificate(
        check_name="adjoint_automorphism",
        passed=passed,
        samples=samples,
        seed=seed,
        tol=tol,
        worst_residual=min(rel_min, -pairing_gap),
        witnesses=witnesses,
        details={"cone_min_eigenvalue": rel_min, "pairing_gap": pairing_gap},
    )


def check_homogeneity(
    algebra: AlgebraDescriptor,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
    directions: int = 100,
) -> ConeCertificate:
    """Transitivity witness: P(w^{1/2}) carries u to w and preserves the cone.

    For each sampled interior point the automorphism and its inverse (from
    the inverse point w^{-1}) are applied to sampled squares; both images
    must stay in the cone.
    """
    ctx = _context(algebra)
    rng = np.random.default_rng(seed)
    worst_transport = 0.0
    worst_cone = 0.0
    witnesses: list[list[float]] = []
    for _ in range(samples):
        w = random_interior_point(algebra, rng)
        g = automorphism_to_point(w)
        residual = norm(g(unit(algebra)) - w) / (1.0 + norm(w))
        worst_transport = max(worst_transport, residual)

        dec = spectral_decompose(w)
        inv_coords = sum(
            (1.0 / lam) * e.coords for lam, e in zip(dec.eigenvalues, dec.idempotents)
        )
        ginv = automorphism_to_point(Element(algebra, inv_coords))
        xs = rng.standard_normal((directions, algebra.dim))
        squares = _product_batch(ctx.constants, xs, xs)
        for op in (g, ginv):
            lam = eigenvalues_batch(algebra, squares @ op.matrix.T)
            rel = lam[:, 0] / (1.0 + np.abs(lam).max(axis=1))
            m = float(rel.min())
            if m < worst_cone:
                worst_cone = m
                if m < -PSD_TOL and not witnesses:
                    witnesses.append(squares[int(np.argmin(rel))].tolist())
    passed = worst_transport <= tol and worst_cone >= -PSD_TOL
    return ConeCertificate(
        check_name="homogeneity_transport",
        passed=passed,
        samples=samples,
        seed=seed,
        tol=tol,
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


def effect_interval_check(a: Element, tol: float = PSD_TOL) -> bool:
    """Membership in the order interval [0, u]."""
    if min_eigenvalue(a) < -tol:
        return False
    return min_eigenvalue(unit(a.algebra) - a) >= -tol
