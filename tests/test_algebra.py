"""Core algebra operations checked against matrix-arithmetic oracles.

Every matrix-family identity is recomputed here from raw numpy matrix
products (anti-commutators, traces, triples), so the structure tables are
validated against independent arithmetic rather than against themselves.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symcone.algebra
from oracle import (
    quat_matrix_conj_transpose,
    quat_matrix_multiply,
    sampled_formal_reality,
    sampled_trace_associativity,
)
from symcone import (
    AlgebraDescriptor,
    Element,
    Family,
    basis_elements,
    direct_sum,
    format_descriptor,
    from_matrix,
    jordan_product,
    left_mult_operator,
    make_algebra,
    quadratic_representation,
    random_element,
    to_matrix,
    trace_form,
    trace_of,
    unit,
)
from symcone.algebra import (
    _context,
    _draws,
    _left_mult_batch,
    _make_constants,
    certify_formal_reality,
    commutativity_residuals,
    jordan_identity_residuals,
    trace_associativity_residuals,
    unit_law_residuals,
)
from symcone.models import make_model
from symcone.runner import _CHECKS, RunConfig

ATOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

MATRIX_FAMILIES = [
    make_algebra("real", 3),
    make_algebra("complex", 2),
    make_algebra("complex", 3),
    make_algebra("quaternion", 2),
]

ALL_FAMILIES = MATRIX_FAMILIES + [
    make_algebra("spin", 4),
    make_algebra("albert"),
    direct_sum(make_algebra("real", 1), make_algebra("complex", 2)),
]


# Dimension and rank of each hermitian family, counted by hand:
# real n -> n(n+1)/2, complex n -> n^2, quaternion n -> n(2n-1),
# spin d -> d+1 (rank 2), albert -> 27 (rank 3).
DIM_RANK_TABLE = [
    (("real", 1), 1, 1),
    (("real", 4), 10, 4),
    (("complex", 2), 4, 2),
    (("complex", 3), 9, 3),
    (("quaternion", 2), 6, 2),
    (("quaternion", 3), 15, 3),
    (("spin", 5), 6, 2),
    (("albert", 3), 27, 3),
]


def _anticommutator(x, y):
    return 0.5 * (x @ y + y @ x)


@pytest.mark.parametrize("spec,dim,rank", DIM_RANK_TABLE)
def test_dimension_and_rank_table(spec, dim, rank):
    desc = make_algebra(*spec)
    assert desc.dim == dim
    assert desc.rank == rank
    assert trace_of(unit(desc)) == pytest.approx(rank, abs=ATOL)


@pytest.mark.parametrize("desc", MATRIX_FAMILIES, ids=format_descriptor)
def test_product_matches_matrix_anticommutator(desc):
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = random_element(desc, rng)
        b = random_element(desc, rng)
        got = to_matrix(jordan_product(a, b))
        amat, bmat = to_matrix(a), to_matrix(b)
        if desc.family is Family.QUAT_HERM:
            want = 0.5 * (
                quat_matrix_multiply(amat, bmat) + quat_matrix_multiply(bmat, amat)
            )
        else:
            want = _anticommutator(amat, bmat)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_anticommuting_paulis_multiply_to_zero():
    desc = make_algebra("complex", 2)
    a = from_matrix(desc, SIGMA_X)
    b = from_matrix(desc, SIGMA_Y)
    prod = jordan_product(a, b)
    np.testing.assert_allclose(prod.coords, 0.0, atol=ATOL)


def test_spin_product_closed_form():
    # (t=1, x=(1,0)) * (s=1, y=(0,1)) = (ts + x.y, ty + sx) = (1, (1,1)).
    desc = make_algebra("spin", 2)
    a = Element(desc, np.array([1.0, 1.0, 0.0]))
    b = Element(desc, np.array([1.0, 0.0, 1.0]))
    got = jordan_product(a, b)
    np.testing.assert_allclose(got.coords, [1.0, 1.0, 1.0], atol=ATOL)


def test_spin_product_general_closed_form():
    rng = np.random.default_rng(22)
    desc = make_algebra("spin", 6)
    for _ in range(10):
        t, s = rng.standard_normal(2)
        x, y = rng.standard_normal((2, 6))
        a = Element(desc, np.concatenate([[t], x]))
        b = Element(desc, np.concatenate([[s], y]))
        want = np.concatenate([[t * s + x @ y], t * y + s * x])
        np.testing.assert_allclose(jordan_product(a, b).coords, want, atol=ATOL)


def test_left_mult_of_sigma_z_has_expected_spectrum():
    # a = diag(1, -1) has eigenvalues {1, -1}; L_a's spectrum is the set of
    # pairwise averages, i.e. {1, -1, 0, 0}.
    desc = make_algebra("complex", 2)
    a = from_matrix(desc, SIGMA_Z)
    lop = left_mult_operator(a)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(lop.matrix)), [-1.0, 0.0, 0.0, 1.0], atol=1e-10
    )


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=format_descriptor)
def test_left_mult_is_trace_symmetric(desc):
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = random_element(desc, rng)
        b = random_element(desc, rng)
        c = random_element(desc, rng)
        lhs = trace_form(jordan_product(a, b), c)
        rhs = trace_form(b, jordan_product(a, c))
        assert abs(lhs - rhs) < 1e-9


def test_trace_form_matches_matrix_trace():
    # Complex family: <a, b> is the real part of tr(AB). Quaternions are
    # checked through the complex embedding, whose trace double-counts.
    rng = np.random.default_rng(24)
    for desc in (make_algebra("complex", 3), make_algebra("real", 3)):
        a = random_element(desc, rng)
        b = random_element(desc, rng)
        want = np.trace(to_matrix(a) @ to_matrix(b)).real
        assert trace_form(a, b) == pytest.approx(want, abs=1e-10)

    from symcone.hypercomplex import embed_quat_matrix

    desc = make_algebra("quaternion", 2)
    a = random_element(desc, rng)
    b = random_element(desc, rng)
    want = np.trace(embed_quat_matrix(to_matrix(a)) @ embed_quat_matrix(to_matrix(b))).real / 2.0
    assert trace_form(a, b) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=format_descriptor)
def test_basis_gram_is_diagonal_positive(desc):
    be = basis_elements(desc)
    gram = np.array([[trace_form(x, y) for y in be] for x in be])
    off = gram - np.diag(np.diag(gram))
    np.testing.assert_allclose(off, 0.0, atol=ATOL)
    assert np.diag(gram).min() > 0.0


def test_primitive_idempotent_has_unit_pairing():
    desc = make_algebra("complex", 3)
    e = from_matrix(desc, np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert trace_form(e, e) == pytest.approx(1.0, abs=ATOL)
    assert trace_form(e, unit(desc)) == pytest.approx(1.0, abs=ATOL)


def test_quadratic_representation_matrix_oracle():
    desc = make_algebra("complex", 3)
    rng = np.random.default_rng(25)
    a = random_element(desc, rng)
    b = random_element(desc, rng)
    got = to_matrix(quadratic_representation(a)(b))
    amat = to_matrix(a)
    np.testing.assert_allclose(got, amat @ to_matrix(b) @ amat, atol=1e-10)


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=format_descriptor)
def test_quadratic_representation_of_unit_and_on_unit(desc):
    rng = np.random.default_rng(26)
    pu = quadratic_representation(unit(desc))
    np.testing.assert_allclose(pu.matrix, np.eye(desc.dim), atol=ATOL)
    a = random_element(desc, rng)
    np.testing.assert_allclose(
        quadratic_representation(a)(unit(desc)).coords,
        jordan_product(a, a).coords,
        atol=1e-10,
    )


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=format_descriptor)
def test_residual_suites_are_tiny(desc):
    assert jordan_identity_residuals(desc, 50, seed=1).max() < 1e-10
    assert commutativity_residuals(desc, 50, seed=1).max() < 1e-12
    assert unit_law_residuals(desc).max() < 1e-12
    assert trace_associativity_residuals(desc).max() < 1e-10


def _dense_trace_gaps(desc):
    """|T[i, j, k] g[k] - T[i, k, j] g[j]| / (1 + |b_i| |b_j| |b_k|) over
    every basis triple, from the dense table T[i, j, k] = L_i[k, j]."""
    ctx = _context(desc)
    table = np.swapaxes(_left_mult_batch(ctx.constants, np.eye(desc.dim)), 1, 2)
    g, root = ctx.gram, np.sqrt(ctx.gram)
    gaps = table * g - np.swapaxes(table, 1, 2) * g[:, None]
    return np.abs(gaps) / (1.0 + np.multiply.outer(np.multiply.outer(root, root), root))


@pytest.mark.parametrize(
    "desc",
    ALL_FAMILIES + [direct_sum(make_algebra("albert"), make_algebra("complex", 2))],
    ids=format_descriptor,
)
def test_trace_form_gaps_match_the_dense_table(desc):
    got = trace_associativity_residuals(desc)
    dense = _dense_trace_gaps(desc)
    assert got.max() == dense.max()
    # every nonzero gap of the dense table, and no other, is one triple's
    np.testing.assert_array_equal(np.sort(got[got > 0]), np.sort(dense[dense > 0]))


def bump_constant(monkeypatch, desc, rows):
    """Install ``desc``'s context with 1e-3 added to the first of its
    constants picked by the mask ``rows(sc)``, and return those constants."""
    ctx = _context(desc)
    sc = ctx.constants
    values = sc.V.copy()
    values[int(np.flatnonzero(rows(sc))[0])] += 1e-3
    bad = _make_constants(desc.dim, sc.I, sc.J, sc.K, values)
    monkeypatch.setitem(symcone.algebra._CONTEXT_CACHE, desc, dataclasses.replace(ctx, constants=bad))
    return bad


def test_a_perturbed_constant_fails_trace_associativity(monkeypatch):
    desc = make_algebra("real", 3)
    gram = _context(desc).gram
    # a constant with J != K: at J = K both sides of its triple are itself
    bad = bump_constant(monkeypatch, desc, lambda sc: sc.J != sc.K)
    (row,) = [check for check in _CHECKS if check.name == "trace_associativity"]
    cert = row.run(make_model(desc, count=0), RunConfig(), 0)
    assert not cert.passed
    # a unit gap of 1e-3 on three basis elements of norm 1
    assert cert.worst_residual == pytest.approx(1e-3 / 2, rel=1e-12)
    xs, ys, zs = _draws(desc, 3, 50, 1)
    assert sampled_trace_associativity(bad, gram, xs, ys, zs).max() > cert.tol


def test_formal_reality_pauli_example():
    desc = make_algebra("complex", 2)
    a = from_matrix(desc, SIGMA_X)
    b = from_matrix(desc, SIGMA_Y)
    total = jordan_product(a, a) + jordan_product(b, b)
    np.testing.assert_allclose(total.coords, 2.0 * unit(desc).coords, atol=ATOL)
    assert sampled_formal_reality(desc, a.coords[None, :], b.coords[None, :], 1e-9).all()


@pytest.mark.parametrize(
    "desc",
    ALL_FAMILIES
    + [
        direct_sum(make_algebra("albert"), make_algebra("complex", 2)),
        direct_sum(make_algebra("real", 1), make_algebra("spin", 2)),
    ],
    ids=format_descriptor,
)
def test_formal_reality_random_pairs(desc):
    # the sampled trace-form route agrees with the basis-pair certificate
    pairs = np.random.default_rng(27).standard_normal((20, 2, desc.dim))
    assert sampled_formal_reality(desc, pairs[:, 0], pairs[:, 1], 1e-9).all()
    cert = certify_formal_reality(desc)
    assert cert.passed and cert.worst_residual < 1e-15
    # every off-diagonal output has a zero trace, so only the pairs (I, I)
    # have a nonzero side
    assert (cert.samples, cert.seed, cert.tol) == (desc.dim, None, 1e-9)


def test_a_bumped_trace_constant_fails_formal_reality(monkeypatch):
    desc = make_algebra("real", 3)
    # O o O -> D: an off-diagonal square onto a diagonal output, which the
    # trace reads
    bump_constant(monkeypatch, desc, lambda sc: (sc.I >= 3) & (sc.I == sc.J) & (sc.K < 3))
    cert = certify_formal_reality(desc)
    assert not cert.passed
    # a trace gap of 1e-3 on two basis elements of norm 1
    assert cert.worst_residual == pytest.approx(1e-3 / 2, rel=1e-12)
    # the sampled norm bound has slack of order |x|^2, so it misses the bump
    pairs = np.random.default_rng(3).standard_normal((50, 2, desc.dim))
    assert sampled_formal_reality(desc, pairs[:, 0], pairs[:, 1], 1e-9).all()


def test_a_bumped_off_diagonal_output_is_left_to_trace_associativity(monkeypatch):
    desc = make_algebra("real", 3)
    # an off-diagonal output has no trace, so formal reality cannot see it
    bump_constant(monkeypatch, desc, lambda sc: sc.K >= 3)
    assert certify_formal_reality(desc).passed
    assert trace_associativity_residuals(desc).max() == pytest.approx(1e-3 / 2, rel=1e-12)


def test_a_zero_gram_entry_fails_formal_reality(monkeypatch):
    desc = make_algebra("spin", 2)
    ctx = _context(desc)
    gram = ctx.gram.copy()
    gram[1] = 0.0
    monkeypatch.setitem(
        symcone.algebra._CONTEXT_CACHE, desc, dataclasses.replace(ctx, gram=gram)
    )
    assert not certify_formal_reality(desc).passed


def test_direct_sum_is_blockwise():
    left = make_algebra("complex", 2)
    right = make_algebra("spin", 3)
    both = direct_sum(left, right)
    assert both.dim == left.dim + right.dim
    assert both.rank == left.rank + right.rank
    rng = np.random.default_rng(28)
    a1, a2 = random_element(left, rng), random_element(right, rng)
    b1, b2 = random_element(left, rng), random_element(right, rng)
    a = Element(both, np.concatenate([a1.coords, a2.coords]))
    b = Element(both, np.concatenate([b1.coords, b2.coords]))
    want = np.concatenate(
        [jordan_product(a1, b1).coords, jordan_product(a2, b2).coords]
    )
    np.testing.assert_allclose(jordan_product(a, b).coords, want, atol=ATOL)


def test_direct_sum_accepts_iterable():
    parts = [make_algebra("real", 1), make_algebra("real", 1)]
    bit = direct_sum(parts)
    assert bit == direct_sum(*parts)
    assert (bit.dim, bit.rank) == (2, 2)


def test_albert_size_is_fixed():
    with pytest.raises(ValueError):
        make_algebra("albert", 4)
    assert make_algebra("albert", 3) == make_algebra("albert")


def test_mismatched_algebras_rejected():
    a = random_element(make_algebra("complex", 2), 0)
    b = random_element(make_algebra("real", 2), 0)
    with pytest.raises(ValueError, match="mismatch"):
        jordan_product(a, b)


def test_to_matrix_round_trip_and_hermiticity():
    rng = np.random.default_rng(29)
    for desc in MATRIX_FAMILIES:
        a = random_element(desc, rng)
        mat = to_matrix(a)
        if desc.family is Family.QUAT_HERM:
            np.testing.assert_allclose(mat, quat_matrix_conj_transpose(mat), atol=ATOL)
        else:
            np.testing.assert_allclose(mat, mat.conj().T, atol=ATOL)
        np.testing.assert_allclose(from_matrix(desc, mat).coords, a.coords, atol=ATOL)


def test_random_element_deterministic():
    desc = make_algebra("quaternion", 2)
    a = random_element(desc, seed=42)
    b = random_element(desc, seed=42)
    np.testing.assert_array_equal(a.coords, b.coords)


@st.composite
def coord_pairs(draw):
    desc = draw(st.sampled_from(ALL_FAMILIES))
    values = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    a = draw(st.lists(values, min_size=desc.dim, max_size=desc.dim))
    b = draw(st.lists(values, min_size=desc.dim, max_size=desc.dim))
    return desc, np.array(a), np.array(b)


@settings(max_examples=60, deadline=None)
@given(coord_pairs())
def test_product_is_commutative_and_bilinear(pair):
    desc, ac, bc = pair
    a, b = Element(desc, ac), Element(desc, bc)
    ab = jordan_product(a, b)
    np.testing.assert_allclose(ab.coords, jordan_product(b, a).coords, atol=1e-9)
    scaled = jordan_product(Element(desc, 2.0 * ac), b)
    np.testing.assert_allclose(scaled.coords, 2.0 * ab.coords, atol=1e-8)
