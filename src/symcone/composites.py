"""Candidate composites of two cone models and their audit certificates.

Two matrix-family systems of the same ground field combine into a candidate
carrier of that family whose size is the product of the part sizes. The
embedding sends a pair of effects to the (symmetrized, entrywise) Kronecker
product of their representing matrices. Over the reals and the complexes
this is the familiar tensor product and the embedding is a bijection on
coordinates; over the quaternions the dimensions already refuse to match,
and the audits below quantify exactly which composite requirements survive.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import hypercomplex as hc
from .algebra import (
    _ENTRY_WIDTH,
    AlgebraDescriptor,
    Element,
    Family,
    _context,
    _from_rep,
    _left_mult_matrix,
    _metric_adjoint,
    _product_batch,
    _to_rep,
    format_descriptor,
    from_matrix,
    make_algebra,
    unit,
)
from .certificates import ConeCertificate
from .cone import _cone_image, _point_transports, random_interior_point
from .models import ProbModel, State, _outcome_rows, make_model, uniform_state
from .reconstruction import STRUCTURE_RANK_TOL
from .spectral import _frames, eigenvalues_batch

__all__ = [
    "CompositeSystem",
    "candidate_composite",
    "product_effect",
    "product_state",
    "product_test",
    "local_tomography_audit",
    "product_tests_check",
    "nonsignaling_check",
    "factorization_check",
    "tensor_adjoint_check",
    "tensor_lmap_check",
    "check_unit_factor_products",
    "maximally_entangled_state",
    "spin_qubit_isomorphism",
    "qubit_witness",
]

# the relative gap |<a x b, c x d> - <a, c><b, d>| factorization_check allows
FACTORIZATION_TOL = 1e-10


@dataclass
class CompositeSystem:
    part_a: ProbModel
    part_b: ProbModel
    carrier: AlgebraDescriptor
    carrier_model: ProbModel
    embed: np.ndarray  # (dim_carrier, dim_a * dim_b)
    embed_rank: int

    @property
    def locally_tomographic(self) -> bool:
        product = self.part_a.algebra.dim * self.part_b.algebra.dim
        return self.carrier.dim == product and self.embed_rank == product

    def pair_coords(self, coords_a: np.ndarray, coords_b: np.ndarray) -> np.ndarray:
        """Carrier coordinates of elementwise pairs; batched over axis 0."""
        coords_a = np.atleast_2d(coords_a)
        coords_b = np.atleast_2d(coords_b)
        kron = coords_a[:, :, None] * coords_b[:, None, :]
        return kron.reshape(coords_a.shape[0], -1) @ self.embed.T


def _embedded_lifts(
    cs: CompositeSystem,
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The maps m -> E (m x id_B) and m -> E (id_A x m) for the embedding E,
    by one matmul each on E reshaped to (carrier dim, dim A, dim B), with
    no Kronecker matrix formed."""
    dim_c = cs.embed.shape[0]
    cube = cs.embed.reshape(dim_c, cs.part_a.algebra.dim, cs.part_b.algebra.dim)
    rows = cs.embed.reshape(-1, cs.part_b.algebra.dim)
    return (
        lambda m: (m.T @ cube).reshape(dim_c, -1),
        lambda m: (rows @ m).reshape(dim_c, -1),
    )


def _kron_columns(part_a: AlgebraDescriptor, part_b: AlgebraDescriptor) -> np.ndarray:
    """Embedding matrix columns: carrier coordinates of basis pair products,
    whose entries are the symmetrized products of the parts' entries."""
    width = _ENTRY_WIDTH[part_a.family]
    table = hc.UNIT_TABLES[width]
    sym = 0.5 * (table + np.swapaxes(table, 0, 1))
    ra, rb = (_to_rep(np.eye(p.dim), p.size, width) for p in (part_a, part_b))
    mn = part_a.size * part_b.size
    prod = np.einsum("aikp,bjlq,pqr->abijklr", ra, rb, sym, optimize=True)
    return _from_rep(prod.reshape(-1, mn, mn, width), mn, width).T


def candidate_composite(part_a: ProbModel, part_b: ProbModel) -> CompositeSystem:
    """Same-family candidate carrier with the entrywise product embedding.

    A trivial (one-dimensional) part leaves the other algebra as carrier.
    Mixed families, spin factors, octonionic algebras and direct sums have
    no same-family matrix carrier and are rejected. The carrier's model
    draws its two tests from seed 0.
    """
    A = part_a.algebra
    B = part_b.algebra
    if A.dim == 1 or B.dim == 1:
        other = B if A.dim == 1 else A
        embed = np.eye(other.dim)
        carrier = other
    else:
        if A.family is not B.family:
            raise ValueError(
                "no candidate carrier for mixed families "
                f"({format_descriptor(A)} and {format_descriptor(B)})"
            )
        if A.family not in (Family.REAL_SYM, Family.COMPLEX_HERM, Family.QUAT_HERM):
            raise ValueError(
                f"family {A.family.value!r} has no entrywise matrix composite"
            )
        carrier = make_algebra(A.family, A.size * B.size)
        embed = _kron_columns(A, B)
    sv = np.linalg.svd(embed, compute_uv=False)
    rank = int((sv > STRUCTURE_RANK_TOL).sum())
    carrier_model = make_model(carrier, count=2, seed=0)
    return CompositeSystem(part_a, part_b, carrier, carrier_model, embed, rank)


def product_effect(cs: CompositeSystem, a: Element, b: Element) -> Element:
    coords = cs.pair_coords(a.coords, b.coords)[0]
    return Element(cs.carrier, coords)


def product_state(cs: CompositeSystem, sa: State, sb: State) -> State:
    w = product_effect(cs, sa.representer, sb.representer)
    return State(cs.carrier_model, w)


def product_test(cs: CompositeSystem, test_a, test_b) -> tuple[Element, ...]:
    return tuple(
        product_effect(cs, x, y) for x in tuple(test_a) for y in tuple(test_b)
    )


def local_tomography_audit(cs: CompositeSystem, seed: int = 0) -> ConeCertificate:
    """Exact dimension count: the composite is locally tomographic when the
    carrier dimension equals the product of part dimensions and the
    embedding has full product rank."""
    dim_a = cs.part_a.algebra.dim
    dim_b = cs.part_b.algebra.dim
    product = dim_a * dim_b
    return ConeCertificate(
        check_name="local_tomography",
        passed=cs.locally_tomographic,
        samples=0,
        seed=seed,
        tol=0.0,
        worst_residual=float(abs(cs.carrier.dim - product) + (product - cs.embed_rank)),
        details={
            "dim_part_a": dim_a,
            "dim_part_b": dim_b,
            "dim_product": product,
            "dim_carrier": cs.carrier.dim,
            "embed_rank": cs.embed_rank,
        },
    )


def product_tests_check(
    cs: CompositeSystem, tol: float = 1e-9, seed: int = 0
) -> ConeCertificate:
    """Product tests must consist of carrier effects resolving the unit.

    An outcome scores its least eigenvalue, negated and relative to
    1 + its largest absolute eigenvalue; a product test scores the largest
    gap between its sum and the unit, relative to 1 + the carrier rank. A
    failing certificate's witness is the carrier coordinates that set the
    worst score: the outcome, or the summed product test.
    """
    u = unit(cs.carrier)
    worst = 0.0
    witness = None
    n_outcomes = 0
    for ta in cs.part_a.tests:
        for tb in cs.part_b.tests:
            outcomes = product_test(cs, ta, tb)
            n_outcomes += len(outcomes)
            stack = np.stack([x.coords for x in outcomes])
            lam = eigenvalues_batch(cs.carrier, stack)
            least = lam[:, 0] / (1.0 + np.abs(lam).max(axis=1))
            i = int(np.argmin(least))
            total = stack.sum(axis=0)
            gap = float(np.abs(total - u.coords).max()) / (1.0 + cs.carrier.rank)
            for score, coords in ((-float(least[i]), stack[i]), (gap, total)):
                if score > worst:
                    worst, witness = score, coords
    return ConeCertificate(
        check_name="product_tests_resolve_unit",
        passed=worst <= tol,
        samples=n_outcomes,
        seed=seed,
        tol=tol,
        worst_residual=worst,
        witnesses=[list(witness)] if worst > tol else [],
    )


def nonsignaling_check(
    cs: CompositeSystem,
    states: list[State] | None = None,
    tol: float = 1e-10,
    seed: int = 0,
) -> ConeCertificate:
    """Marginal outcome probabilities do not depend on the far-side test.

    Runs over every pair of tests of the far side, for each supplied carrier
    state (uniform plus an interior sample by default, plus the maximally
    entangled state when the carrier is complex with equal parts).
    """
    if states is None:
        states = [uniform_state(cs.carrier_model)]
        w = random_interior_point(cs.carrier, seed=seed + 1)
        states.append(State(cs.carrier_model, Element(cs.carrier, w.coords / np.dot(
            w.coords * _context(cs.carrier).gram, _context(cs.carrier).unit_coords
        ))))
        if (
            cs.carrier.family is Family.COMPLEX_HERM
            and cs.part_a.algebra.size == cs.part_b.algebra.size
            and cs.part_a.algebra.dim > 1
        ):
            states.append(maximally_entangled_state(cs))
    gram = _context(cs.carrier).gram
    n_a, n_b = len(cs.part_a.tests), len(cs.part_b.tests)
    far_pairs = n_a * (n_a - 1) // 2 + n_b * (n_b - 1) // 2
    # every outcome of a side, and the sum of the outcomes of each test
    rows, sums = [], []
    for part in (cs.part_a, cs.part_b):
        outcomes, owner = _outcome_rows(part.tests, part.algebra.dim)
        rows.append(outcomes)
        sums.append(np.add.reduceat(outcomes, np.searchsorted(owner, range(len(part.tests)))))
    worst = 0.0
    for state in states:
        wvec = cs.embed.T @ (gram * state.representer.coords)
        wmat = wvec.reshape(cs.part_a.algebra.dim, cs.part_b.algebra.dim)
        # marginals of each outcome of side A across the tests of side B
        # (one column each), and vice versa
        for margins in (rows[0] @ wmat @ sums[1].T, rows[1] @ wmat.T @ sums[0].T):
            worst = max(worst, float(np.max(margins.max(axis=1) - margins.min(axis=1))))
    pairs = len(states) * (n_a * n_b * (n_b - 1) // 2 + n_b * n_a * (n_a - 1) // 2)
    return ConeCertificate(
        check_name="nonsignaling_marginals",
        passed=worst <= tol,
        samples=pairs,
        seed=seed,
        tol=tol,
        worst_residual=worst,
        details={"states": len(states), "far_test_pairs": far_pairs},
    )


def factorization_check(
    cs: CompositeSystem, samples: int = 500, seed: int = 0
) -> ConeCertificate:
    """Trace pairings of pair products factor into part pairings, up to
    FACTORIZATION_TOL relative to 1 + |<a, c><b, d>|."""
    ctx_a = _context(cs.part_a.algebra)
    ctx_b = _context(cs.part_b.algebra)
    gram_c = _context(cs.carrier).gram
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((samples, cs.part_a.algebra.dim))
    B = rng.standard_normal((samples, cs.part_b.algebra.dim))
    C = rng.standard_normal((samples, cs.part_a.algebra.dim))
    D = rng.standard_normal((samples, cs.part_b.algebra.dim))
    left = cs.pair_coords(A, B)
    right = cs.pair_coords(C, D)
    lhs = np.sum(left * gram_c * right, axis=1)
    rhs = np.sum(A * ctx_a.gram * C, axis=1) * np.sum(B * ctx_b.gram * D, axis=1)
    rel = np.abs(lhs - rhs) / (1.0 + np.abs(rhs))
    worst = float(rel.max())
    witnesses = []
    if worst > FACTORIZATION_TOL:
        k = int(np.argmax(rel))
        witnesses = [list(A[k]), list(B[k]), list(C[k]), list(D[k])]
    return ConeCertificate(
        check_name="pairing_factorization",
        passed=worst <= FACTORIZATION_TOL,
        samples=samples,
        seed=seed,
        tol=FACTORIZATION_TOL,
        worst_residual=worst,
        witnesses=witnesses,
    )


def tensor_adjoint_check(
    cs: CompositeSystem, samples: int = 10, seed: int = 0, tol: float = 1e-9
) -> ConeCertificate:
    """Adjoints pass through the tensor factors: (g x id)^* = g^* x id.

    Requires a locally tomographic composite, where the embedding is a
    change of coordinates and the lifted map is defined on all of the
    carrier. Each g is a generically non-self-adjoint product P(w1^{1/2})
    P(w2^{1/2}) of batched transports to interior points with spectra in
    [0.5, 2]. The adjoint is also verified to preserve the carrier cone on
    sampled squares.
    """
    if not cs.locally_tomographic:
        raise ValueError("adjoint lifting needs a locally tomographic composite")
    rng = np.random.default_rng(seed)
    gram_c = _context(cs.carrier).gram
    dim = cs.carrier.dim
    sides = []
    for part, lift in zip((cs.part_a.algebra, cs.part_b.algebra), _embedded_lifts(cs)):
        frames = _frames(part, 2 * samples, rng)
        lams = rng.uniform(0.5, 2.0, size=(2 * samples, part.rank))
        roots = _point_transports(part, frames, lams)[1]
        sides.append((part, roots[0::2] @ roots[1::2], lift))
    inv_embed = np.linalg.inv(cs.embed)
    worst = 0.0
    min_eig = 0.0
    xs = rng.standard_normal((samples, 2, 8, dim))
    # one sample's two carrier operators at a time: a stack of all of them
    # is the largest array of the check
    ops = np.empty((2, 1, dim, dim))
    for i in range(samples):
        for side, (part, g, lift) in enumerate(sides):
            g_adj = _metric_adjoint(_context(part).gram, g[i])
            big = lift(g[i]) @ inv_embed
            big_adj = _metric_adjoint(gram_c, big)
            lifted = lift(g_adj) @ inv_embed
            scale = 1.0 + float(np.abs(big).max())
            worst = max(worst, float(np.abs(big_adj - lifted).max()) / scale)
            ops[side, 0] = big_adj
        min_eig = min(min_eig, _cone_image(cs.carrier, ops, xs[i], tol)[0])
    passed = worst <= tol and min_eig >= -tol
    return ConeCertificate(
        check_name="tensor_adjoint",
        passed=passed,
        samples=samples,
        seed=seed,
        tol=tol,
        worst_residual=max(worst, -min_eig),
        details={"adjoint_identity": worst, "adjoint_cone_min_eig": min_eig},
    )


def tensor_lmap_check(
    cs: CompositeSystem, samples: int = 50, seed: int = 0, tol: float = 1e-9
) -> ConeCertificate:
    """Multiplication by an embedded one-sided element acts factorwise.

    On the embedded subspace, L(a x u) composed with the embedding must
    agree with the embedding composed with L(a) x id, and symmetrically for
    the right factor. For a tomographic composite this determines the whole
    operator; otherwise the identity is only tested on the embedded
    subspace and the certificate says so in its name.
    """
    ctx_c = _context(cs.carrier)
    rng = np.random.default_rng(seed)
    ctx_a = _context(cs.part_a.algebra)
    ctx_b = _context(cs.part_b.algebra)
    lift_a, lift_b = _embedded_lifts(cs)
    # per side: the part's constants, its element paired with the other
    # side's unit, and the embedded factorwise lift of its multiplication
    # operator
    sides = (
        (ctx_a.constants, lambda x: cs.pair_coords(x, ctx_b.unit_coords), lift_a),
        (ctx_b.constants, lambda x: cs.pair_coords(ctx_a.unit_coords, x), lift_b),
    )
    worst = 0.0
    for _ in range(samples):
        for sc, pair, lift in sides:
            x = rng.standard_normal(sc.dim)
            lhs = _left_mult_matrix(ctx_c.constants, pair(x)[0]) @ cs.embed
            rhs = lift(_left_mult_matrix(sc, x))
            gap = float(np.abs(lhs - rhs).max()) / (1.0 + float(np.abs(x).max()))
            worst = max(worst, gap)
    name = "tensor_lmap" if cs.locally_tomographic else "tensor_lmap_embedded"
    return ConeCertificate(
        check_name=name,
        passed=worst <= tol,
        samples=samples,
        seed=seed,
        tol=tol,
        worst_residual=worst,
    )


def check_unit_factor_products(
    cs: CompositeSystem, samples: int = 500, seed: int = 0, tol: float = 1e-9
) -> ConeCertificate:
    """Products against one-sided units act on a single factor:
    (a x u) o (b x v) = (a o b) x v and (u x v) o (a x w) = a x (v o w).

    On failure the witness is every factor of the worst sample of the
    identity that sets the worst residual: (a, b, v) for the first and
    (v, a, w) for the second."""
    ctx_a = _context(cs.part_a.algebra)
    ctx_b = _context(cs.part_b.algebra)
    ctx_c = _context(cs.carrier)
    rng = np.random.default_rng(seed)
    n = samples
    A = rng.standard_normal((n, cs.part_a.algebra.dim))
    B = rng.standard_normal((n, cs.part_a.algebra.dim))
    V = rng.standard_normal((n, cs.part_b.algebra.dim))
    W = rng.standard_normal((n, cs.part_b.algebra.dim))
    u_a = np.broadcast_to(ctx_a.unit_coords, A.shape)
    u_b = np.broadcast_to(ctx_b.unit_coords, V.shape)

    lhs1 = _product_batch(ctx_c.constants, cs.pair_coords(A, u_b), cs.pair_coords(B, V))
    rhs1 = cs.pair_coords(_product_batch(ctx_a.constants, A, B), V)
    rel1 = np.abs(lhs1 - rhs1).max(axis=1) / (1.0 + np.abs(rhs1).max(axis=1))
    res1 = rel1.max()

    lhs2 = _product_batch(ctx_c.constants, cs.pair_coords(u_a, V), cs.pair_coords(A, W))
    rhs2 = cs.pair_coords(A, _product_batch(ctx_b.constants, V, W))
    rel2 = np.abs(lhs2 - rhs2).max(axis=1) / (1.0 + np.abs(rhs2).max(axis=1))
    res2 = rel2.max()

    worst = float(max(res1, res2))
    witnesses = []
    if worst > tol:
        rel, factors = (rel1, (A, B, V)) if res1 >= res2 else (rel2, (V, A, W))
        k = int(np.argmax(rel))
        witnesses = [list(x[k]) for x in factors]
    return ConeCertificate(
        check_name="unit_factor_products",
        passed=worst <= tol,
        samples=samples,
        seed=seed,
        tol=tol,
        worst_residual=worst,
        witnesses=witnesses,
        details={"left_unit_residual": float(res2), "right_unit_residual": float(res1)},
    )


def maximally_entangled_state(cs: CompositeSystem) -> State:
    """Rank-one carrier state |psi><psi| with psi = sum_i |ii> / sqrt(m)."""
    if cs.carrier.family is not Family.COMPLEX_HERM:
        raise ValueError("maximally entangled construction needs a complex carrier")
    m = cs.part_a.algebra.size
    n = cs.part_b.algebra.size
    if m != n:
        raise ValueError("maximally entangled construction needs equal part sizes")
    psi = np.zeros(m * n)
    for i in range(m):
        psi[i * n + i] = 1.0
    psi /= np.sqrt(m)
    return State(cs.carrier_model, from_matrix(cs.carrier, np.outer(psi, psi)))


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


def qubit_witness(theory, tol: float = 1e-9) -> bool:
    """Whether some system in the theory is a qubit in disguise: natively
    complex of size two, or a three-dimensional spin factor (exhibited by an
    explicit product-preserving isomorphism).

    Accepts a single algebra descriptor or model, or an iterable of them.
    """
    if isinstance(theory, AlgebraDescriptor) or hasattr(theory, "algebra"):
        theory = [theory]
    for entry in theory:
        algebra = entry.algebra if hasattr(entry, "algebra") else entry
        if algebra.family is Family.COMPLEX_HERM and algebra.size == 2:
            return True
        if algebra.family is Family.SPIN and algebra.size == 3:
            _, residual = spin_qubit_isomorphism()
            if residual <= tol:
                return True
    return False
