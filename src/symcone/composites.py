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

import functools
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import hypercomplex as hc
from .algebra import (
    _ENTRY_WIDTH,
    KERNEL_CHUNK_TERMS,
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
)
from .certificates import ConeCertificate, _require_draws
from .cone import _cone_image, _transports
from .models import ProbModel, State, _outcome_rows, make_model
from .reconstruction import STRUCTURE_RANK_TOL, _close_span
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
    "qubit_witness",
]

# the relative gap |<a x b, c x d> - <a, c><b, d>| factorization_check allows
FACTORIZATION_TOL = 1e-10


@dataclass
class CompositeSystem:
    """Two part models, a carrier algebra and the embedding of pairs of part
    coordinates into carrier coordinates. Everything else is derived from
    these on first use, so a replaced embedding brings its own rank."""

    part_a: ProbModel
    part_b: ProbModel
    carrier: AlgebraDescriptor
    embed: np.ndarray  # (dim_carrier, dim_a * dim_b)

    @functools.cached_property
    def embed_rank(self) -> int:
        sv = np.linalg.svd(self.embed, compute_uv=False)
        return int((sv > STRUCTURE_RANK_TOL).sum())

    @functools.cached_property
    def carrier_model(self) -> ProbModel:
        """The carrier's model: one test, the carrier's canonical frame."""
        return make_model(self.carrier, count=0)

    @property
    def locally_tomographic(self) -> bool:
        product = self.part_a.algebra.dim * self.part_b.algebra.dim
        return self.carrier.dim == product and self.embed_rank == product

    def pair_coords(self, coords_a: np.ndarray, coords_b: np.ndarray) -> np.ndarray:
        """Carrier coordinates of elementwise pairs; batched over axis 0."""
        coords_a = np.atleast_2d(coords_a)
        coords_b = np.atleast_2d(coords_b)
        kron = coords_a[:, :, None] * coords_b[:, None, :]
        return kron.reshape(len(kron), -1) @ self.embed.T

    @functools.cached_property
    def _unit_factor_pass(
        self,
    ) -> tuple[tuple[float, float, tuple[np.ndarray, ...]], ...]:
        """The one basis pass of ``tensor_lmap_check`` and
        ``check_unit_factor_products``, side A then side B.

        For each basis element e_i of side A it forms the gap
        L(E(e_i x u_B)) E - E (L_{e_i} x id) for the embedding E, whose
        column (j, l) is (e_i x u_B) o (e_j x f_l) - (e_i o e_j) x f_l; for
        each f_i of side B the mirror image, whose column (j, l) is
        (u_A x f_i) o (e_j x f_l) - e_j x (f_i o f_l). Per side it keeps
        max|gap| / 2, and the worst column score
        max_k |gap| / (1 + max_k |rhs|) with the basis triple
        (basis_i, e_j, f_l) that sets it.
        """
        ctx_c = _context(self.carrier)
        ctx_a = _context(self.part_a.algebra)
        ctx_b = _context(self.part_b.algebra)
        eye_a, eye_b = np.eye(ctx_a.constants.dim), np.eye(ctx_b.constants.dim)
        lift_a, lift_b = _embedded_lifts(self)
        # per side: the part's constants and basis, each basis element paired
        # with the other side's unit, and the embedded factorwise lift of its
        # multiplication operator
        sides = (
            (ctx_a.constants, eye_a, self.pair_coords(eye_a, ctx_b.unit_coords), lift_a),
            (ctx_b.constants, eye_b, self.pair_coords(ctx_a.unit_coords, eye_b), lift_b),
        )
        scores = []
        for sc, basis, pairs, lift in sides:
            lmap = worst = 0.0
            factors = ()
            # one carrier operator at a time: a stack of a side's gaps holds
            # dim * d_c * dim A * dim B floats, tens of megabytes on real 10 x 4
            for x, pair in zip(basis, pairs):
                rhs = lift(_left_mult_matrix(sc, x))
                gap = _left_mult_matrix(ctx_c.constants, pair) @ self.embed
                gap -= rhs
                cols = np.abs(gap, out=gap).max(axis=0)
                lmap = max(lmap, float(cols.max()) / 2.0)
                cols /= 1.0 + np.abs(rhs).max(axis=0)
                col = int(np.argmax(cols))
                if cols[col] > worst:
                    j, l = divmod(col, len(eye_b))
                    worst, factors = float(cols[col]), (x, eye_a[j], eye_b[l])
            scores.append((lmap, worst, factors))
        return tuple(scores)


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
    no same-family matrix carrier and are rejected.
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
    return CompositeSystem(part_a, part_b, carrier, embed)


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


def local_tomography_audit(cs: CompositeSystem) -> ConeCertificate:
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


def _side_rows(cs: CompositeSystem) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each side's outcome rows, test after test, and the sum of the
    outcomes of each of its tests."""
    rows, sums = [], []
    for part in (cs.part_a, cs.part_b):
        outcomes, owner = _outcome_rows(part.tests, part.algebra.dim)
        rows.append(outcomes)
        sums.append(np.add.reduceat(outcomes, np.searchsorted(owner, range(len(part.tests)))))
    return rows, sums


def _pair_stacks(
    cs: CompositeSystem, rows_a: np.ndarray, rows_b: np.ndarray
) -> Iterator[np.ndarray]:
    """Carrier coordinates of every pair (rows_a[i], rows_b[j]), i major, in
    chunks of at most KERNEL_CHUNK_TERMS terms (a pair holds its Kronecker
    row and its carrier row), so a chunk stays about a megabyte whatever the
    number of pairs."""
    step = max(1, KERNEL_CHUNK_TERMS // (cs.embed.shape[1] + cs.carrier.dim))
    count = len(rows_a) * len(rows_b)
    for lo in range(0, count, step):
        i, j = np.divmod(np.arange(lo, min(lo + step, count)), len(rows_b))
        yield cs.pair_coords(rows_a[i], rows_b[j])


def _worst_pair(
    cs: CompositeSystem,
    jobs: tuple[tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray]], ...],
) -> tuple[float, np.ndarray | None]:
    """The worst score of every pair (rows_a[i], rows_b[j]) over the jobs
    (rows_a, rows_b, score), scored a pair stack at a time, and the carrier
    coordinates of the pair that sets it (None while no score is positive)."""
    worst = 0.0
    witness = None
    for rows_a, rows_b, score in jobs:
        for stack in _pair_stacks(cs, rows_a, rows_b):
            scores = score(stack)
            i = int(np.argmax(scores))
            if scores[i] > worst:
                worst, witness = float(scores[i]), stack[i]
    return worst, witness


def product_tests_check(cs: CompositeSystem, tol: float = 1e-9) -> ConeCertificate:
    """Product tests must consist of carrier effects resolving the unit.

    An outcome scores its least eigenvalue, negated and relative to
    1 + its largest absolute eigenvalue; a product test scores the largest
    gap between its sum and the unit, relative to 1 + the carrier rank. A
    failing certificate's witness is the carrier coordinates that set the
    worst score: the outcome, or the summed product test. Every pair of part
    outcomes is scored in one flat pass; the pairing is bilinear, so a
    product test's sum is the pair of its part tests' sums.
    """
    u = _context(cs.carrier).unit_coords
    outcomes, sums = _side_rows(cs)

    def outcome_scores(stack: np.ndarray) -> np.ndarray:
        lam = eigenvalues_batch(cs.carrier, stack)
        return -lam[:, 0] / (1.0 + np.abs(lam).max(axis=1))

    def unit_gaps(stack: np.ndarray) -> np.ndarray:
        return np.abs(stack - u).max(axis=1) / (1.0 + cs.carrier.rank)

    worst, witness = _worst_pair(cs, ((*outcomes, outcome_scores), (*sums, unit_gaps)))
    return ConeCertificate(
        check_name="product_tests_resolve_unit",
        passed=worst <= tol,
        samples=len(outcomes[0]) * len(outcomes[1]),
        tol=tol,
        worst_residual=worst,
        witnesses=[list(witness)] if worst > tol else [],
    )


def nonsignaling_check(cs: CompositeSystem, tol: float = 1e-10) -> ConeCertificate:
    """Marginal outcome probabilities do not depend on the far-side test.

    Under a carrier state w, a near outcome a and a far test F have the
    marginal sum_{b in F} w(a x b) = w(a x S_F), with S_F the sum of F's
    outcomes; it must equal w(a x u) for the far unit u. The gap is linear
    in w, so its largest size over every carrier state is the largest
    |eigenvalue| of the carrier element a x (S_F - u). One eigenvalue pass
    over every near outcome and far test, for each side as the near one,
    decides the row; it reads exactly 0 when each far test sums to the unit.
    Any two far tests' marginals then differ by at most twice the residual.
    A failing certificate's witness is the carrier coordinates of the
    element that sets the residual.
    """
    rows, sums = _side_rows(cs)
    gap_a, gap_b = (
        total - _context(part.algebra).unit_coords
        for total, part in zip(sums, (cs.part_a, cs.part_b))
    )

    def spreads(stack: np.ndarray) -> np.ndarray:
        return np.abs(eigenvalues_batch(cs.carrier, stack)).max(axis=1)

    worst, witness = _worst_pair(cs, ((rows[0], gap_b, spreads), (gap_a, rows[1], spreads)))
    n_a, n_b = len(gap_a), len(gap_b)
    return ConeCertificate(
        check_name="nonsignaling_marginals",
        passed=worst <= tol,
        samples=len(rows[0]) * n_b + n_a * len(rows[1]),
        tol=tol,
        worst_residual=worst,
        witnesses=[list(witness)] if worst > tol else [],
        details={"far_test_pairs": n_a * (n_a - 1) // 2 + n_b * (n_b - 1) // 2},
    )


def factorization_check(cs: CompositeSystem) -> ConeCertificate:
    """Trace pairings of pair products factor into part pairings:
    <a x b, c x d> = <a, c><b, d>.

    Both sides are linear in each factor, so the basis quadruples
    (e_i, f_j, e_k, f_l) decide the identity: the Gram matrix of the
    embedded basis pairs must equal the Kronecker product of the parts'
    Gram matrices, which are diagonal. Each entry scores its gap relative to
    1 + |<e_i, e_k><f_j, f_l>|, against FACTORIZATION_TOL; a failing
    certificate's witness is the quadruple of the worst entry.
    """
    dim_b = cs.part_b.algebra.dim
    gram_a = _context(cs.part_a.algebra).gram
    gram_b = _context(cs.part_b.algebra).gram
    lhs = cs.embed.T @ (_context(cs.carrier).gram[:, None] * cs.embed)
    rhs = np.diag(np.outer(gram_a, gram_b).ravel())
    rel = np.abs(lhs - rhs) / (1.0 + np.abs(rhs))
    worst = float(rel.max())
    witnesses = []
    if worst > FACTORIZATION_TOL:
        # pair column i dim_b + j embeds (e_i, f_j)
        row, col = np.unravel_index(np.argmax(rel), rel.shape)
        (i, j), (k, l) = divmod(int(row), dim_b), divmod(int(col), dim_b)
        eye_a, eye_b = np.eye(len(gram_a)), np.eye(dim_b)
        witnesses = [list(eye_a[i]), list(eye_b[j]), list(eye_a[k]), list(eye_b[l])]
    return ConeCertificate(
        check_name="pairing_factorization",
        passed=worst <= FACTORIZATION_TOL,
        samples=rel.size,
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
    _require_draws(samples)
    if not cs.locally_tomographic:
        raise ValueError("adjoint lifting needs a locally tomographic composite")
    rng = np.random.default_rng(seed)
    gram_c = _context(cs.carrier).gram
    dim = cs.carrier.dim
    sides = []
    for part, lift in zip((cs.part_a.algebra, cs.part_b.algebra), _embedded_lifts(cs)):
        frames = _frames(part, 2 * samples, rng)
        lams = rng.uniform(0.5, 2.0, size=(2 * samples, part.rank))
        roots = _transports(part, frames, np.sqrt(lams))
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


def tensor_lmap_check(cs: CompositeSystem, tol: float = 1e-9) -> ConeCertificate:
    """Multiplication by an embedded one-sided element acts factorwise.

    On the embedded subspace, L(a x u) composed with the embedding must
    agree with the embedding composed with L(a) x id, and symmetrically for
    the right factor. For a tomographic composite this determines the whole
    operator; otherwise the identity is only tested on the embedded
    subspace and the certificate says so in its name. Both sides are linear
    in a, so the basis elements of each factor decide the identity; each
    scores its largest gap over 1 + max|e_i| = 2.
    """
    worst = max(side[0] for side in cs._unit_factor_pass)
    name = "tensor_lmap" if cs.locally_tomographic else "tensor_lmap_embedded"
    return ConeCertificate(
        check_name=name,
        passed=worst <= tol,
        samples=cs.part_a.algebra.dim + cs.part_b.algebra.dim,
        tol=tol,
        worst_residual=worst,
    )


def check_unit_factor_products(cs: CompositeSystem, tol: float = 1e-9) -> ConeCertificate:
    """Products against one-sided units act on a single factor:
    (a x u) o (b x v) = (a o b) x v and (u x v) o (a x w) = a x (v o w).

    Both sides are linear in each factor, so the basis triples decide the
    identities; each scores max|lhs - rhs| / (1 + max|rhs|), and ``samples``
    counts them. They are the columns of the gaps that ``tensor_lmap_check``
    reads, from the same basis pass. On failure the witness is the basis
    triple that sets the worst residual: (a, b, v) for the first identity
    and (v, a, w) for the second."""
    (_, res1, factors1), (_, res2, factors2) = cs._unit_factor_pass
    worst = max(res1, res2)
    witnesses = []
    if worst > tol:
        witnesses = [list(x) for x in (factors1 if res1 >= res2 else factors2)]
    dim_a, dim_b = cs.part_a.algebra.dim, cs.part_b.algebra.dim
    return ConeCertificate(
        check_name="unit_factor_products",
        passed=worst <= tol,
        samples=(dim_a + dim_b) * dim_a * dim_b,
        tol=tol,
        worst_residual=worst,
        witnesses=witnesses,
        details={"left_unit_residual": res2, "right_unit_residual": res1},
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


def _power_rank(algebra: AlgebraDescriptor) -> int:
    """Rank of the algebra read off its products: the dimension of the span
    of the powers of a generic element x, grown from the normalized unit by
    multiplication with x. The rows are orthonormalized as they join (an
    Arnoldi pass), since raw powers are a Vandermonde basis and undercount.
    """
    ctx = _context(algebra)
    x = np.random.default_rng(0).standard_normal(algebra.dim)
    x /= np.linalg.norm(x)
    unit = ctx.unit_coords / np.linalg.norm(ctx.unit_coords)

    def times_x(basis: np.ndarray, lo: int, hi: int) -> Iterator[np.ndarray]:
        yield _product_batch(ctx.constants, np.broadcast_to(x, (hi - lo, x.size)), basis[lo:hi])

    return _close_span(unit[None, :], times_x, STRUCTURE_RANK_TOL).shape[0]


def qubit_witness(theory) -> bool:
    """Whether some system in the theory is a qubit: an algebra of
    dimension 4 whose rank, computed from its products, is 2. The algebras
    of rank 2 are the spin factors and R + R = spin 1, so by the
    Jordan-von Neumann-Wigner classification that is complex 2 or its
    isomorph spin 3, the spin factor of dimension 4.

    Accepts a single algebra descriptor or model, or an iterable of them.
    """
    if isinstance(theory, AlgebraDescriptor) or hasattr(theory, "algebra"):
        theory = [theory]
    return any(
        a.dim == 4 and _power_rank(a) == 2
        for a in (getattr(entry, "algebra", entry) for entry in theory)
    )
