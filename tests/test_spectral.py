"""Spectral decomposition against eigensolver and closed-form oracles."""

import numpy as np
import pytest

from symcone import (
    Element,
    Family,
    canonical_frame,
    direct_sum,
    format_descriptor,
    from_matrix,
    jordan_product,
    make_algebra,
    norm,
    random_element,
    random_jordan_frame,
    spectral_decompose,
    to_matrix,
    trace_of,
    unit,
)
from symcone import cone, spectral
from symcone.algebra import _context, _left_mult_batch, _norms
from symcone.cone import automorphism_to_point, check_homogeneity
from symcone.hypercomplex import embed_quat_matrix
from symcone.spectral import (
    INTERIOR_TOL_SCALE,
    MERGE_TOL_SCALE,
    _idempotent_rows,
    _interior_rows,
    canonical_regular_element,
    eigenvalues_batch,
    frame_pool,
    is_primitive,
)

from oracle import generic_decompose
from test_algebra import ALL_FAMILIES

ATOL = 1e-9

SIMPLE = [
    make_algebra("real", 3),
    make_algebra("complex", 3),
    make_algebra("quaternion", 2),
    make_algebra("spin", 5),
    make_algebra("albert"),
]
FAMILIES = SIMPLE + [
    direct_sum(make_algebra("spin", 3), make_algebra("real", 2)),
    direct_sum(make_algebra("albert"), make_algebra("complex", 2)),
]


def _full_spectrum(decomp):
    """Eigenvalues repeated by multiplicity (trace of each idempotent)."""
    out = []
    for lam, p in zip(decomp.eigenvalues, decomp.idempotents):
        out.extend([lam] * round(trace_of(p)))
    return np.sort(out)


def test_eigenvalues_match_hermitian_eigensolver():
    rng = np.random.default_rng(31)
    for desc in (make_algebra("real", 4), make_algebra("complex", 3)):
        a = random_element(desc, rng)
        want = np.linalg.eigvalsh(to_matrix(a))
        np.testing.assert_allclose(_full_spectrum(spectral_decompose(a)), want, atol=1e-8)


def test_quaternion_eigenvalues_via_complex_embedding():
    # The complex embedding doubles each quaternionic eigenvalue.
    desc = make_algebra("quaternion", 3)
    a = random_element(desc, seed=32)
    doubled = np.linalg.eigvalsh(embed_quat_matrix(to_matrix(a)))
    np.testing.assert_allclose(
        _full_spectrum(spectral_decompose(a)), doubled[::2], atol=1e-8
    )
    np.testing.assert_allclose(doubled[::2], doubled[1::2], atol=1e-8)


def test_spin_eigenvalues_closed_form():
    rng = np.random.default_rng(33)
    desc = make_algebra("spin", 7)
    coords = rng.standard_normal(8)
    t, x = coords[0], coords[1:]
    decomp = spectral_decompose(Element(desc, coords))
    want = np.sort([t - np.linalg.norm(x), t + np.linalg.norm(x)])
    np.testing.assert_allclose(np.sort(decomp.eigenvalues), want, atol=1e-10)
    # Idempotents are (1/2)(1, +-x/|x|).
    for lam, p in zip(decomp.eigenvalues, decomp.idempotents):
        sign = 1.0 if lam == max(decomp.eigenvalues) else -1.0
        want_p = 0.5 * np.concatenate([[1.0], sign * x / np.linalg.norm(x)])
        np.testing.assert_allclose(p.coords, want_p, atol=1e-10)


def test_sigma_z_decomposition():
    desc = make_algebra("complex", 2)
    a = from_matrix(desc, np.diag([1.0, -1.0]).astype(complex))
    decomp = spectral_decompose(a)
    by_val = dict(zip(np.round(decomp.eigenvalues, 12), decomp.idempotents))
    np.testing.assert_allclose(
        to_matrix(by_val[1.0]), np.diag([1.0, 0.0]), atol=ATOL
    )
    np.testing.assert_allclose(
        to_matrix(by_val[-1.0]), np.diag([0.0, 1.0]), atol=ATOL
    )


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_decomposition_properties(desc):
    rng = np.random.default_rng(34)
    for _ in range(5):
        a = random_element(desc, rng)
        decomp = spectral_decompose(a)
        projs = np.stack([p.coords for p in decomp.idempotents])
        assert _idempotent_rows(desc, projs, 1e-8)[0].all()
        recon = np.zeros(desc.dim)
        total = np.zeros(desc.dim)
        for lam, p in zip(decomp.eigenvalues, decomp.idempotents):
            recon += lam * p.coords
            total += p.coords
        np.testing.assert_allclose(recon, a.coords, atol=1e-8)
        np.testing.assert_allclose(total, unit(desc).coords, atol=1e-8)
        # Distinct idempotents multiply to zero.
        for i, p in enumerate(decomp.idempotents):
            for q in decomp.idempotents[i + 1:]:
                assert np.linalg.norm(jordan_product(p, q).coords) < 1e-8


def _merge_tol(a):
    """The merge tolerance of ``spectral_decompose``."""
    return MERGE_TOL_SCALE * (1.0 + norm(a))


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_generic_route_agrees_with_family_route(desc):
    rng = np.random.default_rng(35)
    for _ in range(5):
        a = random_element(desc, rng)
        fam = _full_spectrum(spectral_decompose(a))
        gen = _full_spectrum(generic_decompose(a, _merge_tol(a)))
        np.testing.assert_allclose(fam, gen, atol=1e-7)


def test_unit_is_degenerate_single_eigenvalue():
    decomp = spectral_decompose(unit(make_algebra("complex", 3)))
    assert decomp.degenerate
    np.testing.assert_allclose(decomp.eigenvalues, [1.0], atol=ATOL)
    assert len(decomp.idempotents) == 1


def test_primitivity_examples():
    rank1 = make_algebra("real", 1)
    assert is_primitive(unit(rank1))
    qubit = make_algebra("complex", 2)
    u = unit(qubit)
    assert _idempotent_rows(qubit, u.coords[None, :], 1e-9)[0][0] and not is_primitive(u)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    p = from_matrix(qubit, 0.5 * (np.eye(2) + sigma_x))
    assert is_primitive(p)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_random_frames(desc):
    frame = random_jordan_frame(desc, seed=36)
    assert len(frame) == desc.rank
    total = np.zeros(desc.dim)
    for i, p in enumerate(frame):
        assert is_primitive(p, tol=1e-7)
        total += p.coords
        for q in frame[i + 1:]:
            assert np.linalg.norm(jordan_product(p, q).coords) < 1e-8
    np.testing.assert_allclose(total, unit(desc).coords, atol=1e-8)


def test_rank_one_frame_is_unit():
    frame = random_jordan_frame(make_algebra("real", 1), seed=0)
    assert len(frame) == 1
    np.testing.assert_allclose(frame[0].coords, [1.0], atol=ATOL)


def test_albert_frame_traces_sum_to_rank():
    frame = random_jordan_frame(make_algebra("albert"), seed=37)
    assert sum(trace_of(p) for p in frame) == pytest.approx(3.0, abs=1e-8)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_canonical_frame_and_regular_element(desc):
    frame = canonical_frame(desc)
    assert len(frame) == desc.rank
    reg = canonical_regular_element(desc)
    decomp = spectral_decompose(reg)
    assert len(decomp.eigenvalues) == desc.rank
    assert not decomp.degenerate


def test_frame_pool_rows_are_primitive():
    desc = make_algebra("quaternion", 2)
    pool = frame_pool(desc, 8, seed=38)
    assert pool.shape == (8 * desc.rank, desc.dim)
    for row in pool:
        assert is_primitive(Element(desc, row), tol=1e-7)


@pytest.mark.parametrize(
    "desc",
    SIMPLE + [direct_sum(make_algebra("spin", 3), make_algebra("real", 1))],
    ids=format_descriptor,
)
def test_frame_pool_redraws_rejected_frames_and_is_frame_major(desc, monkeypatch):
    # A wide separation rejects many draws: they must be redrawn, not dropped,
    # and every block of rank consecutive rows must be one frame. (Sums of
    # higher rank reject nearly every draw at this separation.)
    monkeypatch.setattr(spectral, "FRAME_SEPARATION", 0.3)
    pool = frame_pool(desc, 64, seed=1)
    assert pool.shape == (64 * desc.rank, desc.dim)
    sums = pool.reshape(64, desc.rank, desc.dim).sum(axis=1)
    np.testing.assert_allclose(sums, np.tile(unit(desc).coords, (64, 1)), atol=1e-8)


def test_frame_pool_deterministic():
    desc = make_algebra("spin", 4)
    np.testing.assert_array_equal(frame_pool(desc, 4, seed=5), frame_pool(desc, 4, seed=5))


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_batch_eigenvalues_match_decompositions(desc):
    rng = np.random.default_rng(39)
    coords = rng.standard_normal((20, desc.dim))
    batch = eigenvalues_batch(desc, coords)
    assert batch.shape == (20, desc.rank)
    for row, lams in zip(coords, batch):
        want = _full_spectrum(spectral_decompose(Element(desc, row)))
        np.testing.assert_allclose(np.sort(lams), want, atol=1e-7)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_batched_top_groups_and_idempotents_match_single_rows(desc):
    # Frame idempotents, a sum of two of them, the unit, half an idempotent
    # and random rows: the batched top groups and idempotency flags must
    # agree with spectral_decompose and the defining identities row by row.
    frame = np.stack([p.coords for p in random_jordan_frame(desc, seed=42)])
    extra = np.random.default_rng(43).standard_normal((4, desc.dim))
    rows = np.vstack([frame, frame[0] + frame[-1], unit(desc).coords, 0.5 * frame[0], extra])
    lam_top, size = spectral._top_group(desc, rows)
    idempotent, primitive = spectral._idempotent_rows(desc, rows, 1e-8)
    for k, row in enumerate(rows):
        a = Element(desc, row)
        dec = spectral_decompose(a)
        assert lam_top[k] == pytest.approx(dec.eigenvalues[-1], abs=1e-9)
        assert size[k] == round(trace_of(dec.idempotents[-1]))
        want = norm(jordan_product(a, a) - a) <= 1e-8 * (1.0 + norm(a) ** 2)
        assert idempotent[k] == want
        assert primitive[k] == (want and abs(trace_of(a) - 1.0) <= 1e-8 * (1 + desc.rank))
    assert idempotent[: desc.rank + 2].all() and not idempotent[-5:].any()


def test_albert_idempotent_eigenvalues_are_clean():
    # Regression guard: double roots of the minimal polynomial must not
    # smear frame eigenvalues away from {0, 1}.
    desc = make_algebra("albert")
    rows = frame_pool(desc, 16, seed=40)
    lams = eigenvalues_batch(desc, rows)
    want = np.tile([0.0, 0.0, 1.0], (len(rows), 1))
    np.testing.assert_allclose(np.sort(lams, axis=1), want, atol=1e-11)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_reconstruction_residuals(desc):
    # The batched core on a batch of random rows: the slots are orthogonal
    # idempotents that sum to the unit and rebuild each row.
    rows = np.random.default_rng(41).standard_normal((50, desc.dim))
    lam, idem = spectral._spectrum(desc, rows, idempotents=True)
    gram = _context(desc).gram
    scale = 1.0 + _norms(rows, gram)
    assert (_norms(np.einsum("nk,nkd->nd", lam, idem) - rows, gram) / scale).max() < 1e-8
    assert np.abs(idem.sum(axis=1) - unit(desc).coords).max() < 1e-8
    flat = idem.reshape(-1, desc.dim)
    assert _idempotent_rows(desc, flat, 1e-8)[0].all()
    pairing = np.einsum("nkd,nld->nkl", idem * gram, idem)
    off = ~np.eye(desc.rank, dtype=bool)
    assert np.abs(pairing[:, off]).max() < 1e-8


def _operator_spectrum(rows):
    """Albert eigenvalues from the full eigensolve of every L_a: the extreme
    midpoints and the trace."""
    ctx = _context(make_algebra("albert"))
    ops = _left_mult_batch(ctx.constants, rows)
    spec = np.linalg.eigvalsh(ops)[:, [0, -1]]
    mid = rows @ ctx.unit_coords - spec.sum(axis=1)
    return np.sort(np.column_stack([spec[:, 0], mid, spec[:, 1]]), axis=1)


@pytest.mark.parametrize("gap", [1e-1, 2e-2, 5e-3, 1e-8, 1e-11, 0.0])
def test_albert_eigenvalues_near_double_roots(gap):
    # Points sum_k lambda_k e_k on random frames, the close pair at the
    # bottom and at the top, on both sides of the root gate.
    desc = make_algebra("albert")
    frames = frame_pool(desc, 40, seed=44).reshape(40, 3, desc.dim)
    base = np.random.default_rng(45).uniform(-2.0, 2.0, 40)
    low = np.column_stack([base, base + gap, base + 1.0])
    high = np.column_stack([base - 1.0, base, base + gap])
    for want in (low, high):
        rows = np.einsum("nk,nkd->nd", want, frames)
        np.testing.assert_allclose(eigenvalues_batch(desc, rows), want, rtol=0, atol=1e-13)


def _albert_block_frames(desc, count):
    """``count`` frames of ``desc`` (albert, or albert plus complex 2) whose
    first three idempotents are an octonionic frame."""
    if desc.family is Family.SUM:
        blocks = zip(desc.summands, _context(desc).block_slices)
    else:
        blocks = [(desc, slice(None))]
    frames = np.zeros((count, desc.rank, desc.dim))
    first = 0
    for seed, (block, sl) in enumerate(blocks, 44):
        pool = frame_pool(block, count, seed=seed).reshape(count, block.rank, block.dim)
        frames[:, first : first + block.rank, sl] = pool
        first += block.rank
    return frames


@pytest.mark.parametrize(
    "desc",
    [make_algebra("albert"), direct_sum(make_algebra("albert"), make_algebra("complex", 2))],
    ids=format_descriptor,
)
def test_albert_decompositions_near_double_roots(desc):
    # Interior points sum_k lambda_k e_k whose octonionic block has a close
    # pair at the bottom or at the top, on both sides of the merge
    # tolerance, or a chain of three in which only one pair merges: every
    # decomposition must hold true projectors that rebuild the point and
    # transport the unit onto it.
    frames = _albert_block_frames(desc, 40)
    rng = np.random.default_rng(45)
    base = rng.uniform(0.5, 2.0, 40)
    rest = base[:, None] + rng.uniform(0.2, 3.0, (40, desc.rank - 3))
    u = unit(desc).coords
    spectra = []
    for gap in [0.0, 1e-12, 1e-10, 1e-9, 1e-8, 3e-8, 1e-7, 1e-6, 1e-5, 1e-3]:
        spectra.append(np.column_stack([base, base + gap, base + 1.0, rest]))
        spectra.append(np.column_stack([base, base + 1.0, base + 1.0 + gap, rest]))
    # The octonionic block merges within 1e-8 (1 + |block|), the whole row
    # within 1e-8 (1 + |row|), norms taken at a triple root base: 0.9 of
    # the first merges in both, 1.05 of the second in neither.
    block = desc.summands[0] if desc.family is Family.SUM else desc
    cols = _context(desc).block_slices[0] if desc.family is Family.SUM else slice(None)
    triple = np.column_stack([base, base, base, rest])
    flat = np.einsum("nk,nkd->nd", triple, frames)
    t_block = MERGE_TOL_SCALE * (1.0 + _norms(flat[:, cols], _context(block).gram))
    t_row = MERGE_TOL_SCALE * (1.0 + _norms(flat, _context(desc).gram))
    for first, second in [(0.9 * t_block, 1.05 * t_row), (1.05 * t_row, 0.9 * t_block)]:
        block_lams = [base, base + first, base + first + second]
        spectra.append(np.column_stack(block_lams + [rest]))
    for lams in spectra:
        for w in np.einsum("nk,nkd->nd", lams, frames):
            a = Element(desc, w)
            dec = spectral_decompose(a)
            projs = [p.coords for p in dec.idempotents]
            for p in dec.idempotents:
                assert norm(jordan_product(p, p) - p) <= 1e-6
            recon = dec.eigenvalues @ np.stack(projs)
            assert np.linalg.norm(recon - w) <= 1e-7
            np.testing.assert_allclose(sum(projs), u, rtol=0, atol=1e-7)
            moved = automorphism_to_point(a).matrix @ u
            assert norm(Element(desc, moved - w)) <= 1e-8 * (1.0 + norm(a))


def _repeated_root_spectra(rank, rng, count):
    """Spectra with an exact double root at the bottom and, from rank 3 on,
    at the top and an exact triple root, as (pattern, values) pairs."""
    distinct = rng.uniform(-2.0, 2.0, (count, 1)) + np.cumsum(
        rng.uniform(0.5, 1.5, (count, rank)), axis=1
    )
    patterns = [[0, 0] + list(range(1, rank - 1))]
    if rank >= 3:
        patterns.append(list(range(rank - 1)) + [rank - 2])
        patterns.append([0, 0, 0] + list(range(1, rank - 2)))
    return [(pattern, distinct[:, pattern]) for pattern in patterns]


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=format_descriptor)
def test_repeated_roots_agree_with_minimal_polynomial_oracle(desc):
    # The merged eigenvalues and projectors of a multiple root do not depend
    # on a basis, so the core and the minimal-polynomial oracle must agree.
    frames = frame_pool(desc, 10, seed=49).reshape(10, desc.rank, desc.dim)
    for pattern, lams in _repeated_root_spectra(desc.rank, np.random.default_rng(50), 10):
        for want, w in zip(lams, np.einsum("nk,nkd->nd", lams, frames)):
            a = Element(desc, w)
            dec = spectral_decompose(a)
            ref = generic_decompose(a, _merge_tol(a))
            assert len(dec.eigenvalues) == len(ref.eigenvalues) == len(set(pattern))
            assert dec.degenerate
            np.testing.assert_allclose(dec.eigenvalues, np.unique(want), rtol=0, atol=1e-8)
            np.testing.assert_allclose(dec.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-8)
            for p, q in zip(dec.idempotents, ref.idempotents):
                np.testing.assert_allclose(p.coords, q.coords, rtol=0, atol=1e-8)


def test_albert_root_spectrum_matches_operator_eigensolve():
    desc = make_algebra("albert")
    rows = np.random.default_rng(46).standard_normal((2000, desc.dim))
    np.testing.assert_allclose(
        eigenvalues_batch(desc, rows), _operator_spectrum(rows), rtol=0, atol=1e-13
    )


def test_albert_fallback_takes_degenerate_rows_only(monkeypatch):
    # Frame idempotents and unit multiples have double or triple roots and
    # must take the operator route; homogeneity's cone images almost never.
    desc = make_algebra("albert")
    seen, fallback = [], []
    roots, operators = spectral._root_spectrum, spectral._left_mult_batch
    monkeypatch.setattr(spectral, "_root_spectrum", lambda ctx, xs: (
        seen.append(xs.shape[0]) or roots(ctx, xs)))
    monkeypatch.setattr(spectral, "_left_mult_batch", lambda sc, xs: (
        fallback.append(xs.shape[0]) or operators(sc, xs)))
    u = unit(desc).coords
    rows = np.vstack([frame_pool(desc, 10, seed=47), u, -2.5 * u, 0.0 * u])
    want = _operator_spectrum(rows)
    np.testing.assert_allclose(eigenvalues_batch(desc, rows), want, rtol=0, atol=1e-13)
    assert sum(fallback) == len(rows)
    seen.clear()
    fallback.clear()
    # with the interior screen off, every cone image reaches the spectrum
    monkeypatch.setattr(cone, "_interior_rows", lambda algebra, xs: np.zeros(len(xs), bool))
    assert check_homogeneity(desc).passed
    assert sum(seen) >= 20000
    assert sum(fallback) <= 0.01 * sum(seen)


@pytest.mark.parametrize("gap", [0.5, 0.1, 0.05, 0.03, 0.02, 1e-3])
def test_albert_root_route_near_the_gate(gap):
    # Points sum_k lambda_k e_k on random frames, the close pair at the
    # bottom or at the top. Gaps the gate passes keep every row on the root
    # route, with eigenvalues and reconstructions within a few ulps; a gap
    # of 1e-3 sends every row to the operator route.
    desc = make_algebra("albert")
    ctx = _context(desc)
    frames = frame_pool(desc, 500, seed=51).reshape(500, 3, desc.dim)
    base = np.random.default_rng(52).uniform(-2.0, 2.0, 500)
    low = np.column_stack([base, base + gap, base + 1.0])
    high = np.column_stack([base, base + 1.0, base + 1.0 + gap])
    for want in (low, high):
        rows = np.einsum("nk,nkd->nd", want, frames)
        to_operators = np.isnan(spectral._root_spectrum(ctx, rows)[:, 0])
        if gap < 1e-2:
            assert to_operators.all()
            continue
        assert not to_operators.any()
        lam, idem = spectral._spectrum(desc, rows, idempotents=True)
        scale = 1.0 + np.abs(want).max(axis=1)
        assert (np.abs(lam - want).max(axis=1) / scale).max() < 1e-14
        recon = np.einsum("nk,nkd->nd", lam, idem)
        assert np.abs(recon - rows).max() < 1e-14


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=format_descriptor)
def test_interior_screen_is_sound_and_certifies_clear_interiors(desc):
    # Rows sum_k lambda_k e_k on random frames: one eigenvalue set to
    # lambda_min = r s, where s is 1 + the trace norm of the other eigenvalues
    # (uniform in [0.5, 2], at a random place in the frame), and r = 1 is a
    # row whose least eigenvalue is one of those. Below the margin
    # INTERIOR_TOL_SCALE * s (every row with lambda_min <= 0 among them) no
    # row may be certified; from 1e-6 s on, every row must be.
    ratios = [-1e-3, -1e-14, 0.0, 1e-14, 1e-9, 1e-6, 1.0]
    frames = frame_pool(desc, 40 * len(ratios), seed=70).reshape(-1, desc.rank, desc.dim)
    rng = np.random.default_rng(71)
    lams = rng.uniform(0.5, 2.0, size=(frames.shape[0], desc.rank))
    ratio = np.repeat(ratios, 40)
    place = rng.integers(0, desc.rank, size=frames.shape[0])
    picked = np.arange(frames.shape[0]), place
    lams[picked] = 0.0
    lams[picked] = ratio * (1.0 + np.linalg.norm(lams, axis=1))
    rows = np.einsum("nk,nkd->nd", lams, frames)
    certified = _interior_rows(desc, rows)
    lam_min = lams.min(axis=1)
    scale = 1.0 + _norms(rows, _context(desc).gram)
    assert not certified[lam_min < INTERIOR_TOL_SCALE * scale].any()
    assert not certified[lam_min <= 0.0].any()
    assert certified[lam_min >= 1e-6 * scale].all()
    assert certified[ratio >= 1e-6].all()


@pytest.mark.parametrize(
    "desc",
    [
        make_algebra("real", 1),
        make_algebra("real", 3),
        make_algebra("complex", 2),
        make_algebra("quaternion", 3),
        make_algebra("spin", 6),
        make_algebra("albert"),
        direct_sum(make_algebra("spin", 3), make_algebra("real", 4)),
        direct_sum(make_algebra("albert"), make_algebra("complex", 2), make_algebra("real", 1)),
        direct_sum(make_algebra("quaternion", 3), make_algebra("complex", 5)),
    ],
    ids=format_descriptor,
)
def test_power_trace_screen_certifies_only_interior_rows(desc, monkeypatch):
    # Random rows, and the same rows moved along the unit so that their
    # least eigenvalue lands at ratios r of s around the margin, and frame
    # rows with one or two eigenvalues at r s; every certified row must have
    # an eigensolved least eigenvalue above 0. Blocks of rank <= 3 never
    # form the matrix view.
    rng = np.random.default_rng(74)
    ctx = _context(desc)
    ratios = np.array([-1e-6, -1e-12, 0.0, 1e-12, 1e-9, 5e-9, 1e-8, 2e-8, 1e-7, 1e-6, 1.0])
    xs = rng.standard_normal((40 * ratios.size, desc.dim))
    scale = 1.0 + _norms(xs, ctx.gram)
    shift = np.repeat(ratios, 40) * scale - eigenvalues_batch(desc, xs)[:, 0]
    moved = xs + shift[:, None] * ctx.unit_coords
    frames = frame_pool(desc, 40 * ratios.size, seed=75).reshape(-1, desc.rank, desc.dim)
    lams = rng.uniform(0.5, 2.0, size=(frames.shape[0], desc.rank))
    low = rng.permuted(np.arange(desc.rank)[None].repeat(frames.shape[0], 0), axis=1)
    rows = np.arange(frames.shape[0])
    lams[rows, low[:, 0]] = np.repeat(ratios, 40) * (1.0 + np.linalg.norm(lams, axis=1))
    if desc.rank > 1:
        lams[rows, low[:, 1]] = 10.0 * lams[rows, low[:, 0]]
    pairs = np.einsum("nk,nkd->nd", lams, frames)
    batches = (xs, moved, pairs)
    lam_min = [eigenvalues_batch(desc, batch)[:, 0] for batch in batches]
    views = []
    to_view = spectral._to_view
    monkeypatch.setattr(spectral, "_to_view", lambda xs, n, width: (
        views.append(n) or to_view(xs, n, width)))
    certified = [_interior_rows(desc, batch) for batch in batches]
    for ok, least in zip(certified, lam_min):
        assert (least[ok] > 0.0).all()
    assert certified[1].any() and certified[2].any()
    assert all(n >= 4 for n in views)
