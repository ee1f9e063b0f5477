"""Measurement models over a symmetric cone: tests, states, sharpness.

A model fixes a finite set of tests. Each test is a tuple of outcome
effects, elements of the positive cone that sum to the order unit, so every
state (normalized cone element) assigns it a probability vector. The
default construction samples spectral frames, whose outcomes are primitive
idempotents, but explicitly supplied tests may use any effects; that is how
degenerate outcome designs enter the checks below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reconstruction
from .algebra import (
    AlgebraDescriptor,
    Element,
    _context,
    _metric_exp,
    _norms,
    _product_coords,
    trace_form,
    trace_of,
    unit,
)
from .certificates import ConeCertificate, _require_draws
from .cone import cone_contains
from .spectral import (
    _frames,
    _idempotent_rows,
    _top_group,
    canonical_frame,
    eigenvalues_batch,
    frame_pool,
    is_primitive,
)

__all__ = [
    "MODEL_TOL",
    "ProbModel",
    "State",
    "make_model",
    "model_from_tests",
    "uniform_state",
    "pure_state_of",
    "state_from_coords",
    "random_state",
    "mix",
    "evaluate",
    "certify_unital_sharp",
    "check_unital_outcomes_primitive",
    "check_cauchy_schwarz",
    "check_reversible_stabilizer",
]

MODEL_TOL = 1e-8
# how far a pairing of primitive idempotents may leave [0, 1]
PAIRING_BOUND_TOL = 1e-10
# check_unital_outcomes_primitive's screens: how far, times the rank, an
# outcome's trace may be from rank / len(test) in a uniform model; how far
# below 1 an outcome's largest eigenvalue may be and still count as unital;
# and the least tolerance of its primitive-idempotent test
UNIFORM_TRACE_TOL = 1e-7
UNITAL_SCREEN = 1e-6
IDEMPOTENT_TOL_FLOOR = 1e-8


@dataclass
class ProbModel:
    algebra: AlgebraDescriptor
    tests: tuple[tuple[Element, ...], ...]
    outcomes: tuple[Element, ...]  # pooled across tests, deduplicated


@dataclass
class State:
    model: ProbModel
    representer: Element


def _dedup_outcomes(tests: tuple[tuple[Element, ...], ...]) -> tuple[Element, ...]:
    """Pooled outcomes in first-seen order, each dropped when an outcome kept
    before it lies within MODEL_TOL in every coordinate.

    Only rows within MODEL_TOL in the widest-spread coordinate can match, so
    the rows are sorted on it and each kept row is compared with its window
    there only; rows alone in their window are never visited.
    """
    outcomes = [x for test in tests for x in test]
    if not outcomes:
        return ()
    coords = np.array([x.coords for x in outcomes])
    kept = np.ones(len(outcomes), dtype=bool)
    key = int(np.argmax(np.ptp(coords, axis=0)))
    order = np.argsort(coords[:, key], kind="stable")
    values = coords[order, key]
    # a window of twice the tolerance, so that rounding in values +- tol
    # cannot leave a match outside it; the exact test below decides
    starts = np.searchsorted(values, values - 2.0 * MODEL_TOL, side="left")
    ends = np.searchsorted(values, values + 2.0 * MODEL_TOL, side="right")
    where = np.empty_like(order)
    where[order] = np.arange(order.size)
    for i in np.sort(order[ends - starts > 1]):
        if kept[i]:
            window = order[starts[where[i]] : ends[where[i]]]
            later = window[window > i]
            gaps = np.abs(coords[later] - coords[i]).max(axis=1)
            kept[later[gaps <= MODEL_TOL]] = False
    return tuple(x for x, keep in zip(outcomes, kept) if keep)


def _outcome_rows(tests, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of every outcome of ``tests``, test by test, shape
    (outcomes, dim), and the index of each row's test."""
    coords = np.array([x.coords for test in tests for x in test]).reshape(-1, dim)
    return coords, np.repeat(np.arange(len(tests)), [len(test) for test in tests])


def model_from_tests(algebra: AlgebraDescriptor, tests) -> ProbModel:
    """Build a model from explicit tests, validating each one.

    Every outcome must lie in the positive cone and each test must resolve
    the order unit, both within MODEL_TOL. Effects need not be idempotents.
    """
    checked = tuple(tuple(test) for test in tests)
    for idx, test in enumerate(checked):
        if not test:
            raise ValueError(f"test {idx} has no outcomes")
        if any(x.algebra != algebra for x in test):
            raise ValueError(f"test {idx} mixes algebras")
    coords, owner = _outcome_rows(checked, algebra.dim)
    # one spectral batch for every outcome, with cone_contains's test
    lam_min = eigenvalues_batch(algebra, coords)[:, 0]
    outside = owner[~(lam_min >= -MODEL_TOL)]
    ctx = _context(algebra)
    totals = np.zeros((len(checked), algebra.dim))
    np.add.at(totals, owner, coords)
    u = ctx.unit_coords[None, :]
    gaps = _norms(totals - u, ctx.gram) > MODEL_TOL * (1.0 + _norms(u, ctx.gram)[0])
    failing = [*outside[:1], *np.flatnonzero(gaps)[:1]]
    if failing:
        idx = min(failing)
        if outside.size and outside[0] == idx:
            raise ValueError(f"test {idx} has an outcome outside the cone")
        raise ValueError(f"test {idx} does not resolve the order unit")
    return ProbModel(algebra, checked, _dedup_outcomes(checked))


def make_model(
    algebra: AlgebraDescriptor, count: int = 8, seed: int = 0
) -> ProbModel:
    """Model whose tests are a canonical frame and then ``count`` frames
    drawn from one random stream seeded by ``seed``, so models whose seeds
    differ, however close, draw unrelated frames."""
    tests = [tuple(canonical_frame(algebra))]
    for frame in _frames(algebra, count, np.random.default_rng(seed)):
        tests.append(tuple(Element(algebra, e) for e in frame))
    return model_from_tests(algebra, tests)


def state_from_coords(model: ProbModel, coords) -> State:
    """The state with representer ``coords``, which must lie in the cone and
    have trace 1, both within MODEL_TOL."""
    w = Element(model.algebra, np.asarray(coords, dtype=float))
    if not cone_contains(w, MODEL_TOL):
        raise ValueError("state representer is outside the cone")
    if abs(trace_of(w) - 1.0) > MODEL_TOL * model.algebra.rank:
        raise ValueError("state representer is not normalized")
    return State(model, w)


def uniform_state(model: ProbModel) -> State:
    u = unit(model.algebra)
    return State(model, Element(model.algebra, u.coords / model.algebra.rank))


def pure_state_of(model: ProbModel, e: Element) -> State:
    """The pure state of ``e``, which must be a primitive idempotent within
    MODEL_TOL."""
    if not is_primitive(e, MODEL_TOL):
        raise ValueError("pure states are represented by primitive idempotents")
    return State(model, e)


def random_state(model: ProbModel, seed: int = 0) -> State:
    rng = np.random.default_rng(seed)
    ctx = _context(model.algebra)
    x = rng.standard_normal(model.algebra.dim)
    sq = _product_coords(ctx.constants, x, x)
    sq = sq + 1e-6 * ctx.unit_coords  # keep clear of the boundary
    tr = float(np.dot(sq * ctx.gram, ctx.unit_coords))
    return State(model, Element(model.algebra, sq / tr))


def mix(a: State, b: State, weight: float) -> State:
    if a.model is not b.model:
        raise ValueError("cannot mix states of different models")
    if not 0.0 <= weight <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    coords = weight * a.representer.coords + (1.0 - weight) * b.representer.coords
    return State(a.model, Element(a.model.algebra, coords))


def _find_test(model: ProbModel, test) -> tuple[Element, ...]:
    """The model's own test equal to ``test``: the model's tuple itself is
    found by identity, before any outcome coordinates are compared."""
    test = tuple(test)
    if any(candidate is test for candidate in model.tests):
        return test
    for candidate in model.tests:
        if len(candidate) == len(test) and all(
            np.array_equal(x.coords, y.coords) for x, y in zip(candidate, test)
        ):
            return candidate
    raise ValueError("test does not belong to the state's model")


def evaluate(state: State, test) -> np.ndarray:
    """Probability vector of a model test in the given state."""
    test = _find_test(state.model, test)
    return np.array([trace_form(state.representer, x) for x in test])


def certify_unital_sharp(model: ProbModel, tol: float = 1e-9) -> ConeCertificate:
    """Each pooled outcome attains probability one on exactly one state.

    An outcome is unital when its largest eigenvalue is 1; the states
    certifying it are supported on the top eigenspace, so the certifying
    state is unique precisely when the top eigenvalue group has one member.
    That idempotent e pairs with x to <e, x> = lambda_max, so |lambda_max - 1|
    is the whole residual. The certificate fails when some outcome is not
    unital or its certifying face is bigger than a point; the first such
    outcome is the witness.
    """
    coords = np.array([x.coords for x in model.outcomes])
    lam_max, size = _top_group(model.algebra, coords)
    gaps = np.abs(lam_max - 1.0)
    sharp = (gaps <= tol * model.algebra.rank) & (size == 1)
    failing = np.flatnonzero(~sharp)
    n_sharp = int(sharp.sum())
    return ConeCertificate(
        check_name="unital_sharp_outcomes",
        passed=n_sharp == len(model.outcomes),
        samples=len(model.outcomes),
        tol=tol,
        worst_residual=float(gaps.max()),
        witnesses=[list(coords[failing[0]])] if failing.size else [],
        details={"outcomes": len(model.outcomes), "certified": n_sharp},
    )


def check_unital_outcomes_primitive(model: ProbModel, tol: float = 1e-9) -> ConeCertificate:
    """In a uniform model every unital outcome must be a primitive idempotent.

    Precondition (raises when violated): the uniform state weights each test
    evenly, i.e. tr(x) = rank / len(test) for every outcome. Outcomes whose
    largest eigenvalue stays below 1 are merely counted; they make no claim.
    """
    ctx = _context(model.algebra)
    rank = model.algebra.rank
    rows, owner = _outcome_rows(model.tests, model.algebra.dim)
    traces = rows @ (ctx.gram * ctx.unit_coords)
    expected = rank / np.bincount(owner)[owner]
    off = np.flatnonzero(np.abs(traces - expected) > UNIFORM_TRACE_TOL * rank)
    if off.size:
        i = off[0]
        raise ValueError(
            f"model is not uniform: test {owner[i]} has an outcome with "
            f"trace {traces[i]:.6f}, expected {expected[i]:.6f}"
        )
    coords = np.array([x.coords for x in model.outcomes])
    lam_max = _top_group(model.algebra, coords)[0]
    unital = lam_max >= 1.0 - UNITAL_SCREEN
    primitive = _idempotent_rows(model.algebra, coords, max(tol, IDEMPOTENT_TOL_FLOOR))[1]
    failing = np.flatnonzero(unital & ~primitive)
    worst = float(np.abs(lam_max[unital] - 1.0).max(initial=0.0))
    return ConeCertificate(
        check_name="uniform_unital_outcomes_primitive",
        passed=failing.size == 0 and worst <= tol * rank,
        samples=len(model.outcomes),
        tol=tol,
        worst_residual=worst,
        witnesses=[list(coords[failing[0]])] if failing.size else [],
        details={
            "unital_outcomes": int(unital.sum()),
            "non_unital_outcomes": int((~unital).sum()),
            "non_primitive_unital": int(failing.size),
        },
    )


def check_cauchy_schwarz(
    algebra: AlgebraDescriptor,
    samples: int = 1000,
    seed: int = 0,
) -> ConeCertificate:
    """Pairings of primitive idempotents stay within [0, 1], up to
    PAIRING_BOUND_TOL.

    The distance identity |e - f|^2 = 2 (1 - <e, f>) pins the equality case
    to e = f; its sampled residual is reported alongside the bounds.
    """
    _require_draws(samples)
    ctx = _context(algebra)
    n_frames = max(2, (samples // max(algebra.rank, 1)) + 1)
    pool = frame_pool(algebra, n_frames, seed=seed)
    rng = np.random.default_rng(seed + 1)
    i = rng.integers(0, pool.shape[0], size=samples)
    j = rng.integers(0, pool.shape[0], size=samples)
    vals = np.sum(pool[i] * ctx.gram * pool[j], axis=1)
    dist_sq = np.sum((pool[i] - pool[j]) ** 2 * ctx.gram, axis=1)
    identity_gap = float(np.abs(dist_sq - 2.0 * (1.0 - vals)).max())
    upper = float(vals.max() - 1.0)
    lower = float(-vals.min())
    worst = max(upper, lower, 0.0)
    witnesses = []
    if worst > PAIRING_BOUND_TOL:
        k = int(np.argmax(np.maximum(vals - 1.0, -vals)))
        witnesses = [list(pool[i[k]]), list(pool[j[k]])]
    return ConeCertificate(
        check_name="primitive_pairing_bounds",
        passed=worst <= PAIRING_BOUND_TOL,
        samples=samples,
        seed=seed,
        tol=PAIRING_BOUND_TOL,
        worst_residual=worst,
        witnesses=witnesses,
        details={
            "max_pairing": float(vals.max()),
            "min_pairing": float(vals.min()),
            "distance_identity_gap": identity_gap,
        },
    )


def check_reversible_stabilizer(
    algebra: AlgebraDescriptor,
    samples: int = 20,
    seed: int = 0,
    tol: float = 1e-9,
) -> ConeCertificate:
    """Skew generators exponentiate to metric isometries fixing the uniform
    state; symmetric generators demonstrably do neither."""
    _require_draws(samples)
    ctx = _context(algebra)
    # looked up on the module, so a basis substituted there is the one used
    lie = reconstruction.structure_lie_basis(algebra)
    u, g_diag = ctx.unit_coords, ctx.gram
    k, p = lie.skew_basis.shape[0], lie.sym_basis.shape[0]
    coeffs = np.random.default_rng(seed).standard_normal((samples, k + p))
    worst = 0.0
    parts = ((coeffs[:, :k], lie.skew_basis, True), (coeffs[:, k:], lie.sym_basis, False))
    moves = []
    for c, basis, skew in parts:
        c = c / np.maximum(np.linalg.norm(c, axis=1, keepdims=True), 1e-30)
        e, departure = _metric_exp(g_diag, np.tensordot(c, basis, axes=(1, 0)), skew)
        worst = max(worst, float(departure.max(initial=0.0)))
        gap = np.swapaxes(e, 1, 2) @ (g_diag[:, None] * e) - np.diag(g_diag)
        moves.append((e @ u - u, np.abs(gap).max(axis=(1, 2))))
    (k_moved, k_gap), (s_moved, s_gap) = moves
    worst = max(worst, float(np.abs(k_moved).max(initial=0.0)), float(k_gap.max(initial=0.0)))
    moved_floor = float(
        np.maximum(np.linalg.norm(s_moved, axis=1), s_gap).min(initial=np.inf)
    )
    passed = worst <= tol and moved_floor > 1e-6
    return ConeCertificate(
        check_name="reversible_stabilizer",
        passed=passed,
        samples=samples,
        seed=seed,
        tol=tol,
        worst_residual=worst,
        details={
            "skew_fix_residual": worst,
            "sym_displacement_floor": moved_floor,
            "skew_dim": k,
            "sym_dim": p,
        },
    )
