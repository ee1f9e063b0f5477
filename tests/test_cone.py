"""Cone membership, duality, and homogeneity checks."""

import tracemalloc

import numpy as np
import pytest

from symcone import (
    Element,
    cone_contains,
    dual_cone_contains,
    format_descriptor,
    jordan_product,
    make_algebra,
    min_eigenvalue,
    quadratic_representation,
    random_element,
    random_interior_point,
    spectral_decompose,
    to_matrix,
    trace_form,
    unit,
)
from symcone import spectral
from symcone.algebra import _context, _square_batch
from symcone.cone import (
    PSD_TOL,
    _cone_image,
    _point_transports,
    adjoint,
    automorphism_to_point,
    boundary_margin,
    check_homogeneity,
    check_membership_agreement,
    check_order_unit,
    check_self_duality,
    is_interior,
    sample_off_boundary,
)
from symcone.spectral import _frames, eigenvalues_batch

from test_algebra import ALL_FAMILIES

FAMILIES = [
    make_algebra("real", 3),
    make_algebra("complex", 2),
    make_algebra("quaternion", 2),
    make_algebra("spin", 4),
    make_algebra("albert"),
]


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_squares_are_members(desc):
    rng = np.random.default_rng(51)
    for _ in range(10):
        a = random_element(desc, rng)
        sq = jordan_product(a, a)
        assert cone_contains(sq)
        assert dual_cone_contains(sq)
        if np.linalg.norm(sq.coords) > 1e-6:
            assert not cone_contains(Element(desc, -sq.coords))


def test_unit_and_negative_unit():
    desc = make_algebra("complex", 3)
    assert cone_contains(unit(desc))
    assert is_interior(unit(desc))
    neg = Element(desc, -unit(desc).coords)
    assert not cone_contains(neg)
    assert not dual_cone_contains(neg)


def test_min_eigenvalue_shift_lands_on_boundary():
    desc = make_algebra("quaternion", 2)
    a = random_element(desc, seed=52)
    shifted = Element(desc, a.coords - min_eigenvalue(a) * unit(desc).coords)
    assert min_eigenvalue(shifted) == pytest.approx(0.0, abs=1e-10)
    assert cone_contains(shifted)
    assert not is_interior(shifted)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_dual_agrees_with_spectral_membership(desc):
    rng = np.random.default_rng(53)
    rows, _ = sample_off_boundary(desc, 100, rng)
    for row in rows:
        a = Element(desc, row)
        assert dual_cone_contains(a) == cone_contains(a)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_cone_pairings_nonnegative(desc):
    rng = np.random.default_rng(54)
    for _ in range(20):
        x = random_element(desc, rng)
        y = random_element(desc, rng)
        assert trace_form(jordan_product(x, x), jordan_product(y, y)) >= -1e-10


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_self_duality_certificate(desc):
    cert = check_self_duality(desc, samples=100, seed=55)
    assert cert.passed, cert.details


def test_self_duality_memory_grows_with_samples_not_their_square():
    desc = make_algebra("spin", 1)
    check_self_duality(desc, samples=10)  # build the cached context first
    tracemalloc.start()
    try:
        check_self_duality(desc, samples=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_self_duality_fails_for_lopsided_cone():
    # A non-orthogonal change of basis destroys self-duality in the trace
    # metric; the certificate must notice and carry a witness.
    desc = make_algebra("complex", 2)
    cert = check_self_duality(desc, samples=200, seed=56, transform=np.diag([1.0, 1.0, 4.0, 1.0]))
    assert not cert.passed
    assert cert.witnesses


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_membership_agreement_certificate(desc):
    cert = check_membership_agreement(desc, samples=200, seed=57)
    assert cert.passed
    assert cert.details["disagreements"] == 0


def test_dim_one_cone_is_a_half_line():
    desc = make_algebra("real", 1)
    assert check_self_duality(desc, samples=50, seed=58).passed
    assert cone_contains(Element(desc, np.array([0.5])))
    assert not cone_contains(Element(desc, np.array([-0.5])))


def test_transport_identity_and_scaling():
    desc = make_algebra("complex", 2)
    g = automorphism_to_point(unit(desc))
    np.testing.assert_allclose(g.matrix, np.eye(desc.dim), atol=1e-10)
    g2 = automorphism_to_point(Element(desc, 2.0 * unit(desc).coords))
    np.testing.assert_allclose(g2.matrix, 2.0 * np.eye(desc.dim), atol=1e-10)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_transport_moves_unit_to_target(desc):
    rng = np.random.default_rng(59)
    for _ in range(5):
        w = random_interior_point(desc, rng)
        g = automorphism_to_point(w)
        np.testing.assert_allclose(g(unit(desc)).coords, w.coords, atol=1e-9)


def test_transport_requires_interior_point():
    desc = make_algebra("real", 2)
    boundary = Element(desc, np.zeros(desc.dim))
    with pytest.raises(ValueError, match="interior"):
        automorphism_to_point(boundary)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_homogeneity_certificate(desc):
    cert = check_homogeneity(desc, samples=20, seed=60, directions=40)
    assert cert.passed, cert.details


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_batched_transports_match_elementwise_quadratic_representation(desc):
    rng = np.random.default_rng(68)
    frames = _frames(desc, 3, rng)
    lams = rng.uniform(0.5, 2.0, size=(3, desc.rank))
    points, forward, inverse = _point_transports(desc, frames, lams)
    for w, g, g_inv in zip(points, forward, inverse):
        dec = spectral_decompose(Element(desc, w))
        root = sum(np.sqrt(lam) * e.coords for lam, e in zip(dec.eigenvalues, dec.idempotents))
        want = quadratic_representation(Element(desc, root)).matrix
        np.testing.assert_allclose(g, want, atol=1e-9)
        np.testing.assert_allclose(g_inv @ g, np.eye(desc.dim), atol=1e-9)


def test_adjoint_in_trace_metric():
    desc = make_algebra("quaternion", 2)
    rng = np.random.default_rng(61)
    g = automorphism_to_point(random_interior_point(desc, rng))
    gd = adjoint(desc, g)
    for _ in range(10):
        a = random_element(desc, rng)
        b = random_element(desc, rng)
        assert trace_form(g(a), b) == pytest.approx(trace_form(a, gd(b)), rel=1e-9)


def test_point_transport_is_self_adjoint():
    desc = make_algebra("complex", 3)
    g = automorphism_to_point(random_interior_point(desc, seed=62))
    gd = adjoint(desc, g)
    np.testing.assert_allclose(g.matrix, gd.matrix, atol=1e-9)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_adjoint_automorphism_certificate(desc):
    # The adjoint of a product of two transports, which is not self-adjoint,
    # carries sampled squares into the cone and is the adjoint in the trace
    # form: <g y, z> = <y, g* z>.
    rng = np.random.default_rng(63)
    g1 = automorphism_to_point(random_interior_point(desc, rng))
    g2 = automorphism_to_point(random_interior_point(desc, rng))
    g = g1.matrix @ g2.matrix
    adj = adjoint(desc, type(g1)(g, desc, desc)).matrix
    draws = np.random.default_rng(64)
    xs = draws.standard_normal((1, 60, desc.dim))
    rel_min, witness = _cone_image(desc, adj[None, None], xs, PSD_TOL)
    assert rel_min == 0.0 and witness is None
    ys = draws.standard_normal((60, desc.dim))
    zs = draws.standard_normal((60, desc.dim))
    gram = _context(desc).gram
    lhs = np.sum((ys @ g.T) * gram * zs, axis=1)
    rhs = np.sum(ys * gram * (zs @ adj.T), axis=1)
    assert np.abs(lhs - rhs).max() / (1.0 + np.abs(lhs).max()) <= PSD_TOL


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_order_unit_certificate(desc):
    assert check_order_unit(desc, samples=100, seed=65).passed


def test_effect_interval_examples():
    # a is in the order interval [0, u] when a and u - a are in the cone
    desc = make_algebra("complex", 2)
    u = unit(desc).coords
    e = from_first_diag(desc).coords
    effects = np.stack([u, 0.5 * u, e, 2.0 * e, -e])
    lam = eigenvalues_batch(desc, np.concatenate([effects, u - effects]))
    inside = (lam[:, 0] >= -PSD_TOL).reshape(2, -1).all(axis=0)
    np.testing.assert_array_equal(inside, [True, True, True, False, False])


def from_first_diag(desc):
    from symcone import from_matrix

    mat = np.zeros((desc.size, desc.size), dtype=complex)
    mat[0, 0] = 1.0
    return from_matrix(desc, mat)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_off_boundary_sampler_avoids_band(desc):
    rng = np.random.default_rng(66)
    rows, lam_min = sample_off_boundary(desc, 100, rng)
    # the eigenvalues it returns are those of an eigensolve of the kept rows
    assert np.array_equal(lam_min, eigenvalues_batch(desc, rows)[:, 0])
    margin = boundary_margin(desc)
    assert np.all((lam_min >= 0.0) | (lam_min <= -margin))


def test_interior_point_spectrum_within_bounds():
    desc = make_algebra("spin", 6)
    w = random_interior_point(desc, seed=67, low=0.25, high=0.75)
    lams = eigenvalues_batch(desc, w.coords[None, :])[0]
    assert lams.min() >= 0.25 - 1e-9
    assert lams.max() <= 0.75 + 1e-9


def _cone_image_reference(algebra, ops, xs, tol):
    """``_cone_image`` with an eigensolve of every image, as it was before
    the interior screen."""
    m, k, dim = xs.shape
    flat = xs.reshape(-1, dim)
    squares = _square_batch(_context(algebra).constants, flat).reshape(m, k, dim)
    images = squares[:, None] @ np.swapaxes(ops, -1, -2)
    lam = eigenvalues_batch(algebra, images.reshape(-1, dim))
    rel = (lam[:, 0] / (1.0 + np.abs(lam).max(axis=1))).reshape(-1, k)
    failing = np.flatnonzero(rel.min(axis=1) < -tol)
    witness = None
    if failing.size:
        first = failing[0]
        witness = squares[first // ops.shape[1], np.argmin(rel[first])]
    return min(0.0, float(rel.min(initial=np.inf))), witness


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=format_descriptor)
def test_screened_cone_image_matches_full_eigensolve(desc):
    # On the transports of check_homogeneity, which keep every image in the
    # cone, and on a perturbation of them that pushes some squares out.
    rng = np.random.default_rng(72)
    frames = _frames(desc, 12, rng)
    lams = rng.uniform(0.5, 2.0, size=(12, desc.rank))
    _, forward, inverse = _point_transports(desc, frames, lams)
    transports = np.stack([forward, inverse], axis=1)
    pushed = transports + 0.8 * rng.standard_normal(transports.shape) / desc.dim
    xs = rng.standard_normal((12, 30, desc.dim))
    for ops, leaves in ((transports, False), (pushed, True)):
        least, witness = _cone_image(desc, ops, xs, PSD_TOL)
        want, want_witness = _cone_image_reference(desc, ops, xs, PSD_TOL)
        assert least == want
        assert (least < -PSD_TOL) == leaves
        if leaves:
            np.testing.assert_array_equal(witness, want_witness)
        else:
            assert witness is None and want_witness is None


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=format_descriptor)
def test_homogeneity_images_rarely_reach_the_eigensolver(desc, monkeypatch):
    # The interior screen certifies all but a few of the 20 000 images; the
    # frame draws, which ask for idempotents, are not counted.
    solved = []
    rows = spectral._spectrum_rows

    def counting(algebra, xs, idempotents):
        if algebra == desc and not idempotents:
            solved.append(xs.shape[0])
        return rows(algebra, xs, idempotents)

    monkeypatch.setattr(spectral, "_spectrum_rows", counting)
    cert = check_homogeneity(desc)
    assert cert.passed
    assert sum(solved) <= 0.01 * 100 * 2 * 100


@pytest.mark.parametrize(
    "family, size, parent_peak_mb",
    [("albert", 3, 12.9), ("quaternion", 3, 9.4), ("real", 8, 17.8), ("complex", 4, 7.3)],
)
def test_homogeneity_memory_stays_below_the_unscreened_peak(family, size, parent_peak_mb):
    # Peaks of the eigensolve-every-image version; images are now formed and
    # screened a chunk at a time.
    desc = make_algebra(family, size)
    check_homogeneity(desc, 2)  # build the cached context first
    tracemalloc.start()
    try:
        check_homogeneity(desc, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= parent_peak_mb * 2**20
