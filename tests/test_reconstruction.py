"""Recovering the product from the cone's symmetry Lie algebra.

Expected Lie-algebra dimensions come from the classical series: the skew
(stabilizer) parts are so(n) for real symmetric matrices, su(n) for complex
hermitian, sp(n) for quaternionic hermitian, so(d) for spin factors, and the
52-dimensional exceptional algebra for the 27-dimensional family. The
symmetric part always matches the carrier dimension.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from symcone import (
    Element,
    direct_sum,
    format_descriptor,
    jordan_product,
    make_algebra,
    random_element,
    unit,
)
from symcone import reconstruction
from symcone.algebra import _context, _metric_exp
from symcone.reconstruction import (
    _LIE_CACHE,
    STRUCTURE_RANK_TOL,
    LieAlgebraBasis,
    check_exp_preserves_cone,
    check_p_bracket,
    check_unit_stabilizer_split,
    group_lie_generators,
    lie_closure,
    p_to_E_isomorphism,
    reconstruct_product,
    structure_lie_basis,
)

from test_algebra import ALL_FAMILIES

# (descriptor args, expected skew dim): sym dim always equals carrier dim.
SKEW_DIMS = [
    (("real", 2), 1),        # so(2)
    (("real", 3), 3),        # so(3)
    (("complex", 2), 3),     # su(2)
    (("complex", 3), 8),     # su(3)
    (("quaternion", 2), 10), # sp(2)
    (("spin", 3), 3),        # so(3)
    (("spin", 8), 28),       # so(8)
    (("albert", 3), 52),     # f4
    (("spin", 10), 45),      # so(10): more new directions than generators
    (("complex", 1), 0),     # the line R: only the identity
    (("spin", 1), 0),        # R + R: commuting generators, a skew part of rounding only
]

RECON_TARGETS = [
    make_algebra("real", 2),
    make_algebra("real", 3),
    make_algebra("complex", 2),
    make_algebra("complex", 3),
    make_algebra("quaternion", 2),
    make_algebra("spin", 3),
]


@pytest.mark.parametrize("spec,skew", SKEW_DIMS)
def test_lie_algebra_dimensions(spec, skew):
    desc = make_algebra(*spec)
    lie = structure_lie_basis(desc)
    dims = lie.dims
    assert dims["symmetric_part"] == desc.dim
    assert dims["skew_part"] == skew
    assert dims["lie_algebra"] == desc.dim + skew
    assert lie.split_residual == 0.0


def test_rank_one_generators_are_the_identity():
    desc = make_algebra("real", 1)
    gens = group_lie_generators(desc)
    assert gens.shape == (1, 1, 1)
    np.testing.assert_allclose(gens[0], [[1.0]])
    lie = structure_lie_basis(desc)
    assert lie.dims == {"lie_algebra": 1, "symmetric_part": 1, "skew_part": 0}


def test_closure_of_identity_is_one_dimensional():
    basis = lie_closure(np.eye(3)[None, :, :])
    assert basis.shape == (1, 3, 3)


def test_closure_grows_until_stable():
    # Seeding with the multiplication operators alone forces the closure to
    # discover the commutators itself and still land on the same span.
    desc = make_algebra("complex", 2)
    lefts_only = group_lie_generators(desc)[: desc.dim]
    basis = lie_closure(lefts_only)
    assert basis.shape[0] == 7
    # Closed: every commutator stays inside the span.
    flat = basis.reshape(basis.shape[0], -1)
    for i in range(basis.shape[0]):
        for j in range(i + 1, basis.shape[0]):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            coeffs = flat @ comm.reshape(-1)
            residual = comm - (coeffs[:, None, None] * basis).sum(axis=0)
            assert np.abs(residual).max() < 1e-8


def test_closure_stops_once_it_fills_the_space():
    # Two generic operators generate all of gl(3). Once the basis holds nine
    # rows nothing more is appended, and the nine are orthonormal.
    pair = np.random.default_rng(1).standard_normal((2, 3, 3))
    flat = lie_closure(pair).reshape(-1, 9)
    np.testing.assert_allclose(flat @ flat.T, np.eye(9), rtol=0, atol=1e-12)


def test_span_keeps_no_direction_of_an_in_span_block():
    # 200 orthonormal rows of R^512 and one block of 8 rows inside their span,
    # scaled by 1e5: the first projection leaves rounding just above tol, the
    # second far below it, and rounding must not be normalized into new rows
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((512, 200)))[0].T
    block = 1e5 * (np.random.default_rng(1).standard_normal((8, 200)) @ basis)

    def act(rows, lo, hi):
        if lo == 0:
            yield block.copy()

    closed = reconstruction._close_span(basis.copy(), act, 1e-9)
    assert closed.shape == (200, 512)


def test_noise_has_no_orthonormal_rows():
    noise = 1e-12 * np.random.default_rng(2).standard_normal((3, 10))
    assert reconstruction._orthonormal_rows(noise, 1e-9).shape == (0, 10)
    assert reconstruction._orthonormal_rows(np.zeros((2, 2, 2)), 1e-9).shape == (0, 2, 2)


def test_empty_stack_closes_to_no_rows():
    assert reconstruction._orthonormal_rows(np.empty((0, 5)), 1e-9).shape == (0, 5)
    assert lie_closure(np.empty((0, 3, 3))).shape == (0, 3, 3)


def test_span_asks_for_no_block_once_it_fills_the_space():
    # seed e0 in R^3; each row owes the block {e1, e2}, so the first block
    # fills the space and no further one is formed
    blocks = []

    def act(rows, lo, hi):
        for _ in range(lo, hi):
            blocks.append(1)
            yield np.eye(3)[1:]

    closed = reconstruction._close_span(np.eye(3)[:1], act, STRUCTURE_RANK_TOL)
    np.testing.assert_allclose(closed @ closed.T, np.eye(3), rtol=0, atol=1e-15)
    assert len(blocks) == 1


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=format_descriptor)
def test_closed_span_holds_the_bracket_of_every_basis_pair(desc):
    # The closure brackets the generators against the basis only, and pairs
    # of generators once; the span must still hold [B_i, B_j] for all pairs.
    gens = group_lie_generators(desc)
    basis = lie_closure(gens)
    d, g = desc.dim, basis.shape[0]
    flat = basis.reshape(g, d * d)
    np.testing.assert_allclose(flat @ flat.T, np.eye(g), rtol=0, atol=1e-12)
    # the orthonormalized generators are the first rows (L_x u = x, so the
    # d generators are independent)
    gens = gens.reshape(d, d * d)
    assert np.abs(gens - (gens @ flat[:d].T) @ flat[:d]).max() <= 1e-12
    left, right = np.triu_indices(g, 1)
    for lo in range(0, left.size, 256):
        x, y = basis[left[lo : lo + 256]], basis[right[lo : lo + 256]]
        comm = (x @ y - y @ x).reshape(-1, d * d)
        resid = comm - (comm @ flat.T) @ flat
        assert np.linalg.norm(resid, axis=1).max() <= 1e-9


@pytest.mark.parametrize(
    "spec,formed", [(("real", 8), 1638), (("albert", 3), 1755), (("spin", 10), 550)]
)
def test_closure_forms_each_bracket_once(monkeypatch, spec, formed):
    # m generators and a g-dimensional algebra: each generator pair once and
    # each later row against the m generators once, m g - m (m + 1) / 2
    rows = []
    close = reconstruction._close_span

    def counting_close(basis, act, tol):
        def counted(basis, lo, hi):
            for block in act(basis, lo, hi):
                rows.append(block.shape[0])
                yield block

        return close(basis, counted, tol)

    monkeypatch.setattr(reconstruction, "_close_span", counting_close)
    basis = lie_closure(group_lie_generators(make_algebra(*spec)))
    g, m = basis.shape[0], basis.shape[-1]  # the d operators L_i are independent
    assert sum(rows) == m * g - m * (m + 1) // 2 == formed


def test_rebuilt_lie_basis_is_bit_identical():
    # The closure forms and appends its brackets in a fixed order, so a
    # second build of the same algebra gives the same basis, not just the
    # same span.
    desc = make_algebra("albert", 3)
    first = structure_lie_basis(desc)
    _LIE_CACHE.pop(desc)
    second = structure_lie_basis(desc)
    assert second is not first
    for name in ("basis", "sym_basis", "skew_basis"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_closure_memory_stays_bounded():
    # The closure never holds all pairwise brackets of the basis: real 10
    # (d = 55, a 100-dimensional algebra) stays far below the g^2 d^2 stack.
    desc = make_algebra("real", 10)
    _context(desc)
    _LIE_CACHE.pop(desc, None)
    tracemalloc.start()
    try:
        lie = structure_lie_basis(desc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lie.dims == {"lie_algebra": 100, "symmetric_part": 55, "skew_part": 45}
    assert peak < 160 * 2**20


@pytest.mark.parametrize("desc", RECON_TARGETS, ids=format_descriptor)
def test_skew_part_stabilizes_unit(desc):
    lie = structure_lie_basis(desc)
    if lie.skew_basis.shape[0]:
        moved = lie.skew_basis @ unit(desc).coords
        assert np.abs(moved).max() < 1e-9
    cert = check_unit_stabilizer_split(lie)
    assert cert.passed, cert.details


@pytest.mark.parametrize(
    "desc",
    RECON_TARGETS
    + [
        # associative: the symmetric generators commute, so every bracket
        # is rounding noise and the skew part is empty
        make_algebra("spin", 1),
        direct_sum(make_algebra("real", 1), make_algebra("spin", 1)),
    ],
    ids=format_descriptor,
)
def test_sym_bracket_lands_in_skew(desc):
    cert = check_p_bracket(structure_lie_basis(desc), samples=30, seed=71)
    assert cert.passed, cert.details


def test_sym_bracket_check_fails_without_the_skew_part():
    lie = structure_lie_basis(make_algebra("complex", 2))
    emptied = dataclasses.replace(lie, skew_basis=lie.skew_basis[:0])
    cert = check_p_bracket(emptied, samples=30, seed=71)
    assert not cert.passed and cert.worst_residual > 1e-2


@pytest.mark.parametrize("desc", RECON_TARGETS, ids=format_descriptor)
def test_evaluation_map_is_well_conditioned(desc):
    iso = p_to_E_isomorphism(structure_lie_basis(desc))
    assert iso.invertible
    assert iso.condition_number < 1e6


@pytest.mark.parametrize("desc", RECON_TARGETS, ids=format_descriptor)
def test_reconstruction_matches_native_product(desc):
    report = reconstruct_product(desc, samples=100, seed=72)
    assert report.max_deviation < 1e-6
    assert max(report.residuals.values()) < 1e-6
    assert report.passed()


def test_reconstructed_table_reproduces_spin_closed_form():
    desc = make_algebra("spin", 3)
    report = reconstruct_product(desc, samples=50, seed=73)
    rng = np.random.default_rng(74)
    a = rng.standard_normal(desc.dim)
    b = rng.standard_normal(desc.dim)
    got = np.einsum("i,j,ijk->k", a, b, report.table)
    want = jordan_product(Element(desc, a), Element(desc, b)).coords
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_dropped_generators_are_flagged():
    # Keeping only the multiplication operators of the unit and one basis
    # element does not act transitively; the evaluation map cannot be square.
    desc = make_algebra("complex", 2)
    full = structure_lie_basis(desc)
    crippled_sym = full.sym_basis[:2]
    crippled = LieAlgebraBasis(
        algebra=desc,
        basis=full.basis,
        sym_basis=crippled_sym,
        skew_basis=full.skew_basis,
        split_residual=0.0,
    )
    iso = p_to_E_isomorphism(crippled)
    assert not iso.invertible
    assert iso.condition_number == float("inf")
    with pytest.raises(ValueError, match="not invertible"):
        reconstruct_product(desc, lie=crippled)


def test_product_off_the_native_pattern_fails_through_the_deviation():
    # Push the rebuilt L_{b_0} of real 2 by 1e-5 at entry (0, 2): b_0 o b_2
    # has no b_0 component, so the native table has no entry there, and the
    # unit does not see the push. The residual cores run on the native
    # pattern; max_deviation reads the whole table and must catch it.
    desc = make_algebra("real", 2)
    lie = structure_lie_basis(desc)
    push = np.zeros((desc.dim, desc.dim))
    push[0, 2] = 1e-5
    assert not (push @ _context(desc).unit_coords).any()
    # sym[p] = sum_b phi[b, p] L_b for the evaluation matrix phi, which the
    # push leaves unchanged
    phi = p_to_E_isomorphism(lie).matrix
    pushed = dataclasses.replace(lie, sym_basis=lie.sym_basis + phi[0][:, None, None] * push)
    report = reconstruct_product(desc, lie=pushed, samples=50, seed=76)
    # the whole push, up to rounding
    assert report.max_deviation == pytest.approx(1e-5, rel=1e-9)
    assert not report.passed()


def test_structure_basis_is_cached():
    desc = make_algebra("spin", 3)
    assert structure_lie_basis(desc) is structure_lie_basis(desc)


@pytest.mark.parametrize("desc", RECON_TARGETS, ids=format_descriptor)
def test_exp_of_sym_preserves_cone(desc):
    cert = check_exp_preserves_cone(desc, samples=20, seed=75)
    assert cert.passed, cert.details


EXP_TARGETS = [
    make_algebra("spin", 4),
    make_algebra("albert", 3),
    make_algebra("complex", 3),
    direct_sum(make_algebra("spin", 3), make_algebra("real", 2)),
]


@pytest.mark.parametrize("desc", EXP_TARGETS, ids=format_descriptor)
@pytest.mark.parametrize("skew", [False, True], ids=["sym", "skew"])
def test_metric_exp_matches_scaling_and_squaring(desc, skew):
    expm = pytest.importorskip("scipy.linalg").expm
    lie = structure_lie_basis(desc)
    basis = lie.skew_basis if skew else lie.sym_basis
    rng = np.random.default_rng(77)
    coeffs = rng.standard_normal((6, basis.shape[0]))
    # unit-norm generators, as the certificates draw them, and shorter and longer ones
    coeffs *= np.array([0.25, 0.5, 1.0, 1.0, 1.0, 2.0])[:, None] / np.linalg.norm(
        coeffs, axis=1, keepdims=True
    )
    ops = np.tensordot(coeffs, basis, axes=(1, 0))
    got, departure = _metric_exp(_context(desc).gram, ops, skew)
    want = np.stack([expm(op) for op in ops])
    rel = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert rel.max() < 1e-13
    assert departure.shape == (6,)
    assert departure.max() < 1e-13


def test_sym_generator_off_metric_symmetry_fails_exp_certificate():
    # A metric-skew push of 1e-6 is invisible to an eigenvector exponential
    # of the symmetric part; the departure has to count instead.
    desc = make_algebra("complex", 2)
    lie = structure_lie_basis(desc)
    push = 1e-6 * lie.skew_basis[0] / np.abs(lie.skew_basis[0]).max()
    pushed = dataclasses.replace(lie, sym_basis=lie.sym_basis + push)
    cert = check_exp_preserves_cone(desc, lie=pushed, samples=10, seed=75)
    assert not cert.passed
    assert cert.worst_residual <= -1e-7


def test_report_is_a_dataclass_with_dims():
    report = reconstruct_product(make_algebra("real", 2), samples=20, seed=76)
    assert dataclasses.is_dataclass(report)
    assert report.dims["symmetric_part"] == 3
    assert report.table.shape == (3, 3, 3)
