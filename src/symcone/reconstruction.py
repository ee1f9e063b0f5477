"""Recovering the Jordan product from the cone's symmetry group.

The automorphism group of a homogeneous self-dual cone has a Lie algebra
that splits, with respect to the trace metric, into a symmetric part p and a
skew part k. The skew part is exactly the stabilizer direction (X u = 0),
the map X -> X u identifies p with the algebra carrier, and pulling the
symmetric generators back through that map recovers multiplication
operators, hence the product itself: a o b = L_a b where L_a is the unique
symmetric generator with L_a u = a.

Everything here is numerical: the group is represented by the structure Lie
algebra generated by the left-multiplications. Its span is grown from them
in one pass that brackets each basis operator with the generators once, as
it joins, and all memberships are certified by rank and residual
thresholds.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    KERNEL_CHUNK_TERMS,
    AlgebraDescriptor,
    _context,
    _draws,
    _jordan_identity_core,
    _left_mult_batch,
    _left_mult_matrix,
    _make_constants,
    _metric_adjoint,
    _metric_exp,
    _trace_form_gaps,
)
from .certificates import ConeCertificate, _require_draws
from .cone import _cone_image

__all__ = [
    "STRUCTURE_RANK_TOL",
    "CONDITION_LIMIT",
    "RECONSTRUCTION_TOL",
    "EXP_GENERATOR_MAGNITUDE",
    "LieAlgebraBasis",
    "PEIsomorphism",
    "ReconstructionReport",
    "group_lie_generators",
    "lie_closure",
    "structure_lie_basis",
    "check_unit_stabilizer_split",
    "check_p_bracket",
    "p_to_E_isomorphism",
    "reconstruct_product",
    "check_exp_preserves_cone",
]

STRUCTURE_RANK_TOL = 1e-8
CONDITION_LIMIT = 1e6
# the worst residual and table deviation a reconstruction may show
RECONSTRUCTION_TOL = 1e-6
# the norm of the symmetric generators that check_exp_preserves_cone exponentiates
EXP_GENERATOR_MAGNITUDE = 0.5


@dataclass
class LieAlgebraBasis:
    """Orthonormal basis of the closed Lie span, split by metric symmetry."""

    algebra: AlgebraDescriptor
    basis: np.ndarray       # (g, d, d)
    sym_basis: np.ndarray   # (p, d, d)
    skew_basis: np.ndarray  # (k, d, d)
    split_residual: float

    @property
    def dims(self) -> dict[str, int]:
        return {
            "lie_algebra": int(self.basis.shape[0]),
            "symmetric_part": int(self.sym_basis.shape[0]),
            "skew_part": int(self.skew_basis.shape[0]),
        }


@dataclass
class PEIsomorphism:
    """The evaluation X -> X u restricted to the symmetric part."""

    matrix: np.ndarray
    condition_number: float
    invertible: bool


@dataclass
class ReconstructionReport:
    algebra: AlgebraDescriptor
    dims: dict[str, int]
    condition_number: float
    residuals: dict[str, float] = field(default_factory=dict)
    max_deviation: float = float("nan")
    table: np.ndarray | None = None

    def passed(self) -> bool:
        """Whether every residual and the table deviation are within
        RECONSTRUCTION_TOL."""
        worst = max(self.residuals.values(), default=float("inf"))
        return max(worst, self.max_deviation) <= RECONSTRUCTION_TOL


def group_lie_generators(algebra: AlgebraDescriptor) -> np.ndarray:
    """The multiplication operators L_i of the basis, which generate the
    structure Lie algebra under brackets."""
    return _left_mult_batch(_context(algebra).constants, np.eye(algebra.dim))


def _orthonormal_rows(stack: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the row span of ``stack`` (rows, or a stack of
    operators flattened to rows), returned in the shape of the stack's
    items: the right singular vectors whose singular value is above the
    absolute ``tol``, so an empty or zero stack, or one of rounding noise,
    has none."""
    rows = stack.reshape(stack.shape[0], math.prod(stack.shape[1:]))
    sv, vt = np.linalg.svd(rows, full_matrices=False)[1:]
    return vt[sv > tol].reshape(-1, *stack.shape[1:])


def _close_span(
    basis: np.ndarray,
    act: Callable[[np.ndarray, int, int], Iterable[np.ndarray]],
    tol: float,
) -> np.ndarray:
    """Smallest span holding the orthonormal rows ``basis`` that ``act``
    maps into itself.

    Basis rows are taken in the order they join the span, and
    ``act(basis, lo, hi)`` yields, in blocks, the candidate rows owed by
    rows ``lo`` to ``hi``, so each candidate is formed once. Candidate rows
    must be on the unit scale of the seed rows, since ``tol`` is absolute.
    A block is projected onto the span as it stands, and its rows whose
    norm is still above ``tol`` are projected once more, which keeps them
    orthogonal to the span up to rounding. The directions of those rows
    with singular value above ``tol`` are appended. One pass per block is
    enough: each kept row is then within the largest dropped singular
    value, at most ``tol``, of the new span, which is the test the norm
    filter applies. Once the rows span their whole space no further block
    is asked for. Returns the basis rows, the seed rows first. The
    residuals are formed in place, so the blocks that ``act`` yields may be
    overwritten.
    """
    lo = 0
    while lo < basis.shape[0] < basis.shape[1]:
        hi = basis.shape[0]
        for resid in act(basis, lo, hi):
            resid -= (resid @ basis.T) @ basis
            resid = resid[np.linalg.norm(resid, axis=1) > tol]
            if resid.shape[0]:
                resid -= (resid @ basis.T) @ basis
                basis = np.concatenate([basis, _orthonormal_rows(resid, tol)])
            del resid  # not held while act forms the next block
            if basis.shape[0] >= basis.shape[1]:
                break
        lo = hi
    return basis


def lie_closure(generators: np.ndarray) -> np.ndarray:
    """Close a set of operators under commutators up to numerical rank.

    A direction counts when its singular value is above the absolute
    STRUCTURE_RANK_TOL. The generators are orthonormalized under that cut,
    and a bracket of two unit operators has Frobenius norm at most 2, so
    every candidate is on the unit scale the cut assumes.

    Returns the orthonormalized basis, the orthonormalized generators G_i
    first. A span that holds the generators and is mapped into itself by
    each ad G_i holds every bracket of them, so each basis operator B_j is
    bracketed with the G_i once, when it joins, never with the rest of the
    basis; since [G_j, G_i] = -[G_i, G_j], among the generators each pair
    is bracketed once.
    """
    generators = np.asarray(generators, dtype=float)
    d = generators.shape[-1]
    gens = _orthonormal_rows(generators, STRUCTURE_RANK_TOL)
    step = max(1, KERNEL_CHUNK_TERMS // (d * d))

    def brackets(basis: np.ndarray, lo: int, hi: int) -> Iterator[np.ndarray]:
        ops = basis.reshape(-1, d, d)
        for i, x in enumerate(gens):  # one generator against a slice of rows
            for a in range(max(lo, i + 1), hi, step):
                y = ops[a : min(a + step, hi)]
                out = x @ y
                out -= y @ x
                yield out.reshape(-1, d * d)
                del out  # not held while the next block is formed

    return _close_span(gens.reshape(-1, d * d), brackets, STRUCTURE_RANK_TOL).reshape(-1, d, d)


_LIE_CACHE: dict[AlgebraDescriptor, LieAlgebraBasis] = {}


def structure_lie_basis(algebra: AlgebraDescriptor) -> LieAlgebraBasis:
    cached = _LIE_CACHE.get(algebra)
    if cached is not None:
        return cached
    ctx = _context(algebra)
    basis = lie_closure(group_lie_generators(algebra))
    adj = _metric_adjoint(ctx.gram, basis)
    sym = _orthonormal_rows(0.5 * (basis + adj), STRUCTURE_RANK_TOL)
    skew = _orthonormal_rows(0.5 * (basis - adj), STRUCTURE_RANK_TOL)
    split_residual = abs(sym.shape[0] + skew.shape[0] - basis.shape[0])
    for arr in (basis, sym, skew):
        arr.flags.writeable = False
    result = LieAlgebraBasis(algebra, basis, sym, skew, float(split_residual))
    _LIE_CACHE[algebra] = result
    return result


def check_unit_stabilizer_split(lie: LieAlgebraBasis, tol: float = 1e-9) -> ConeCertificate:
    """Skew generators are exactly the unit stabilizer, both directions.

    Forward: every skew basis operator kills the unit. Converse: the kernel
    of the evaluation X -> X u on the whole Lie span has no symmetric
    component.
    """
    ctx = _context(lie.algebra)
    u = ctx.unit_coords
    skew_res = float(np.abs(lie.skew_basis @ u).max(initial=0.0))

    sv, vt = np.linalg.svd((lie.basis @ u).T)[1:]  # the evaluation map X -> X u
    rank = int((sv > STRUCTURE_RANK_TOL).sum())
    kernel = vt[rank:]  # combinations of basis ops killing u
    ops = np.tensordot(kernel, lie.basis, axes=(1, 0))
    sym_parts = 0.5 * (ops + _metric_adjoint(ctx.gram, ops))
    converse_res = float(np.abs(sym_parts).max(initial=0.0))
    passed = skew_res <= tol and converse_res <= tol
    return ConeCertificate(
        check_name="unit_stabilizer_split",
        passed=passed,
        samples=lie.basis.shape[0],
        tol=tol,
        worst_residual=max(skew_res, converse_res),
        details={
            "skew_kills_unit": skew_res,
            "kernel_is_skew": converse_res,
            "kernel_dim": int(kernel.shape[0]),
        },
    )


def check_p_bracket(
    lie: LieAlgebraBasis, samples: int = 50, seed: int = 0, tol: float = 1e-9
) -> ConeCertificate:
    """Commutators of symmetric generators land in the skew part."""
    _require_draws(samples)
    rng = np.random.default_rng(seed)
    p = lie.sym_basis.shape[0]
    d = lie.algebra.dim
    skew_flat = lie.skew_basis.reshape(-1, d * d)
    coeffs = rng.standard_normal((samples, 2, p))
    x, y = (np.tensordot(coeffs[:, i], lie.sym_basis, axes=(1, 0)) for i in (0, 1))
    comm = (x @ y - y @ x).reshape(samples, d * d)
    # relative to the factors' Frobenius norms, not to the bracket, which is
    # rounding noise where the symmetric part commutes
    scale = 1.0 + np.sqrt(np.einsum("sij,sij->s", x, x) * np.einsum("sij,sij->s", y, y))
    resid = comm - (comm @ skew_flat.T) @ skew_flat
    worst = float((np.linalg.norm(resid, axis=1) / scale).max(initial=0.0))
    return ConeCertificate(
        check_name="sym_bracket_in_skew",
        passed=worst <= tol,
        samples=samples,
        seed=seed,
        tol=tol,
        worst_residual=worst,
    )


def p_to_E_isomorphism(lie: LieAlgebraBasis) -> PEIsomorphism:
    """Evaluation matrix of X -> X u on the symmetric part, with condition."""
    ctx = _context(lie.algebra)
    phi = (lie.sym_basis @ ctx.unit_coords).T  # (d, p)
    if phi.shape[0] != phi.shape[1]:
        return PEIsomorphism(phi, float("inf"), False)
    sv = np.linalg.svd(phi, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return PEIsomorphism(phi, cond, cond < CONDITION_LIMIT)


def reconstruct_product(
    algebra: AlgebraDescriptor,
    lie: LieAlgebraBasis | None = None,
    samples: int = 200,
    seed: int = 0,
) -> ReconstructionReport:
    """Rebuild the product table from the symmetric generators alone.

    For each basis element b the unique symmetric generator with X u = b is
    found through the evaluation map; the recovered multiplication operators
    define a candidate product table. Commutativity is read off the whole
    table. The unit law, trace associativity and the defining quartic
    identity run on the table's entries at the native constants' pattern:
    the first two are decided on the basis, the quartic identity on
    ``samples`` random pairs. ``max_deviation`` compares every entry of the
    table with the native constants, so any mass off that pattern counts
    against the verdict there.
    """
    _require_draws(samples)
    ctx = _context(algebra)
    if lie is None:
        lie = structure_lie_basis(algebra)
    iso = p_to_E_isomorphism(lie)
    if not iso.invertible:
        raise ValueError(
            "evaluation map is not invertible; the symmetric part does not "
            f"match the carrier (condition {iso.condition_number:.3e})"
        )
    d = algebra.dim
    coeffs = np.linalg.solve(iso.matrix, np.eye(d))  # (p, d)
    lefts = np.einsum("pb,pij->bij", coeffs, lie.sym_basis)  # (d, d, d)
    table = np.swapaxes(lefts, 1, 2)  # table[i, j, k] = (L_i)_{k j}

    xs, ys = _draws(algebra, 2, samples, seed)
    native = ctx.constants
    pattern = (native.I, native.J, native.K)
    rebuilt = _make_constants(d, *pattern, table[pattern])
    commutativity = float(np.abs(table - np.swapaxes(table, 0, 1)).max())
    unit_law = float(
        np.abs(_left_mult_matrix(rebuilt, ctx.unit_coords) - np.eye(d)).max()
    )
    jordan = float(_jordan_identity_core(rebuilt, ctx.gram, xs, ys).max())
    trace_assoc = float(_trace_form_gaps(rebuilt, ctx.gram).max())

    # table minus the native table, read off the native constants
    gap = table.copy()
    gap[pattern] -= native.V
    deviation = float(np.abs(gap).max())
    return ReconstructionReport(
        algebra=algebra,
        dims=lie.dims,
        condition_number=iso.condition_number,
        residuals={
            "commutativity": commutativity,
            "unit_law": unit_law,
            "jordan_identity": jordan,
            "trace_associativity": trace_assoc,
        },
        max_deviation=deviation,
        table=table,
    )


def check_exp_preserves_cone(
    algebra: AlgebraDescriptor,
    lie: LieAlgebraBasis | None = None,
    samples: int = 40,
    seed: int = 0,
    tol: float = 1e-9,
) -> ConeCertificate:
    """One-parameter subgroups from the symmetric part map the cone into
    itself. The generators are random symmetric ones of norm
    EXP_GENERATOR_MAGNITUDE. The exponentials come from the eigenvectors of
    the metric-scaled generators, accurate to rounding; a generator's
    departure from metric symmetry counts against the certificate."""
    _require_draws(samples)
    if lie is None:
        lie = structure_lie_basis(algebra)
    p, d = lie.sym_basis.shape[0], algebra.dim
    draws = np.random.default_rng(seed).standard_normal((samples, p + 16 * d))
    scale = EXP_GENERATOR_MAGNITUDE / np.maximum(np.linalg.norm(draws[:, :p], axis=1), 1e-30)
    gens = np.tensordot(draws[:, :p] * scale[:, None], lie.sym_basis, axes=(1, 0))
    exps, departure = _metric_exp(_context(algebra).gram, gens, skew=False)
    xs = draws[:, p:].reshape(samples, 16, d)
    least, witness = _cone_image(algebra, exps[:, None], xs, tol)
    worst = min(least, -float(departure.max(initial=0.0)))
    return ConeCertificate(
        check_name="exp_preserves_cone",
        passed=worst >= -tol,
        samples=samples,
        seed=seed,
        tol=tol,
        worst_residual=worst,
        witnesses=[] if witness is None else [witness.tolist()],
        details={"generator_magnitude": EXP_GENERATOR_MAGNITUDE},
    )
