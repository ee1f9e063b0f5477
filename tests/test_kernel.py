"""The sparse structure constants and the one product kernel behind them.

Products are checked against plain matrix arithmetic (octonion arithmetic for
the 27-dimensional algebra, the closed form for spin factors). The
closed-form build of the matrix-family constants is checked bit for bit
against the direct build in ``oracle``, which multiplies every pair of basis
matrices that share an index, and entry for entry against a dense table of
all basis products.
"""

import tracemalloc

import numpy as np
import pytest

from oracle import (
    constants_from_dense,
    oct_matrix_multiply,
    oracle_constants,
    quat_matrix_multiply,
)
from symcone import (
    Element,
    Family,
    direct_sum,
    format_descriptor,
    jordan_product,
    left_mult_operator,
    make_algebra,
    structure_lie_basis,
    to_matrix,
)
from symcone.algebra import (
    _build_constants,
    _context,
    _cubic_trace,
    _product_batch,
    _square_batch,
    from_matrix,
)
from symcone.reconstruction import group_lie_generators, lie_closure
from test_algebra import ALL_FAMILIES

ATOL = 1e-12

KERNEL_FAMILIES = [
    make_algebra("real", 1),
    make_algebra("real", 4),
    make_algebra("complex", 3),
    make_algebra("quaternion", 3),
    make_algebra("spin", 5),
    make_algebra("albert"),
    direct_sum(make_algebra("spin", 2), make_algebra("complex", 2), make_algebra("real", 3)),
    make_algebra("complex", 16),
]

CONSTANT_FIELDS = ("I", "J", "K", "V", "out_starts", "out_keys", "op_starts", "op_keys")


def _oracle_product(desc, x, y):
    """x o y computed without the structure constants."""
    if desc.family is Family.SPIN:
        return np.concatenate([[x[0] * y[0] + x[1:] @ y[1:]], x[0] * y[1:] + y[0] * x[1:]])
    if desc.family is Family.SUM:
        out, start = [], 0
        for part in desc.summands:
            sl = slice(start, start + part.dim)
            out.append(_oracle_product(part, x[sl], y[sl]))
            start += part.dim
        return np.concatenate(out)
    a = to_matrix(Element(desc, x))
    b = to_matrix(Element(desc, y))
    if desc.family is Family.QUAT_HERM:
        ab, ba = quat_matrix_multiply(a, b), quat_matrix_multiply(b, a)
    elif desc.family is Family.ALBERT:
        ab, ba = oct_matrix_multiply(a, b), oct_matrix_multiply(b, a)
    else:
        ab, ba = a @ b, b @ a
    return from_matrix(desc, 0.5 * (ab + ba)).coords


@pytest.mark.parametrize("desc", KERNEL_FAMILIES, ids=format_descriptor)
def test_kernel_matches_plain_arithmetic(desc):
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((12, desc.dim))
    ys = rng.standard_normal((12, desc.dim))
    want = np.stack([_oracle_product(desc, x, y) for x, y in zip(xs, ys)])
    batch = _product_batch(_context(desc).constants, xs, ys)
    np.testing.assert_allclose(batch, want, rtol=0, atol=ATOL)
    for x, y, w in zip(xs[:3], ys[:3], want):
        a, b = Element(desc, x), Element(desc, y)
        np.testing.assert_allclose(jordan_product(a, b).coords, w, rtol=0, atol=ATOL)
        np.testing.assert_allclose(left_mult_operator(a).matrix @ y, w, rtol=0, atol=ATOL)


@pytest.mark.parametrize(
    "desc",
    ALL_FAMILIES
    + [
        direct_sum(make_algebra("spin", 3), make_algebra("albert")),
        direct_sum(make_algebra("quaternion", 3), make_algebra("real", 4), make_algebra("spin", 2)),
        make_algebra("complex", 12),
        make_algebra("real", 18),
    ],
    ids=format_descriptor,
)
def test_folded_square_matches_the_product(desc):
    ctx = _context(desc)
    xs = np.random.default_rng(6).standard_normal((40, desc.dim))
    want = _product_batch(ctx.constants, xs, xs)
    gap = np.abs(_square_batch(ctx.constants, xs) - want).max(axis=1)
    assert (gap <= 1e-15 * (1.0 + np.sum(xs * ctx.gram * xs, axis=1))).all()
    # each unordered pair of coordinates once
    assert ctx.constants.sq_V.size < ctx.constants.V.size
    assert (ctx.constants.sq_I <= ctx.constants.sq_J).all()


@pytest.mark.parametrize(
    "desc",
    [make_algebra(fam, 3) for fam in ("real", "complex", "quaternion", "albert")],
    ids=format_descriptor,
)
def test_cubic_trace_is_the_trace_of_the_cube(desc):
    ctx = _context(desc)
    xs = np.random.default_rng(7).standard_normal((40, desc.dim))
    want = np.sum(_product_batch(ctx.constants, xs, xs) * ctx.gram * xs, axis=1)
    norms = np.sqrt(np.sum(xs * ctx.gram * xs, axis=1))
    assert (np.abs(_cubic_trace(ctx, xs) - want) <= 1e-14 * (1.0 + norms**3)).all()


def _dense_reference(desc):
    """Table of all basis products, symmetrized in the matrix representation."""
    eye = np.eye(desc.dim)
    return np.stack([[_oracle_product(desc, ei, ej) for ej in eye] for ei in eye])


@pytest.mark.parametrize(
    "desc",
    [
        make_algebra("real", 4),
        make_algebra("complex", 3),
        make_algebra("quaternion", 2),
        make_algebra("quaternion", 3),
        make_algebra("spin", 3),
        make_algebra("albert"),
        direct_sum(make_algebra("real", 2), make_algebra("spin", 2)),
    ],
    ids=format_descriptor,
)
def test_sparse_build_holds_the_nonzeros_of_the_dense_table(desc):
    table = _dense_reference(desc)
    want = constants_from_dense(table)
    got = _context(desc).constants
    for name in ("I", "J", "K", "out_starts", "out_keys", "op_starts", "op_keys"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    np.testing.assert_allclose(got.V, want.V, rtol=0, atol=ATOL)


@pytest.mark.parametrize(
    "desc",
    ALL_FAMILIES
    + [
        make_algebra("real", 18),
        make_algebra("complex", 12),
        make_algebra("complex", 16),
        make_algebra("quaternion", 5),
    ],
    ids=format_descriptor,
)
def test_closed_form_constants_equal_the_basis_products_bit_for_bit(desc):
    want = oracle_constants(desc)
    if desc.family is Family.SUM:
        got = _context(desc).constants
    else:
        got = _build_constants(desc)[0]
    for name in CONSTANT_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_constants_stay_small_at_dim_256():
    desc = make_algebra("complex", 16)
    ctx = _context(desc)
    arrays = [getattr(ctx.constants, name) for name in CONSTANT_FIELDS]
    arrays += [ctx.gram, ctx.unit_coords]
    assert all(arr.ndim == 1 for arr in arrays)
    # the dense (256, 256, 256) table took 134 MB
    assert sum(arr.nbytes for arr in arrays) < 2 * 1024 * 1024


@pytest.mark.parametrize("family, size", [("real", 18), ("complex", 12)])
def test_context_build_peak_stays_near_a_megabyte(family, size):
    # The closed-form build holds a few arrays of about one entry per nonzero
    # (5832 and 6084 here, d = 171 and 144) and peaks near 0.9 MB. Building
    # by basis-matrix products peaked at 11 and 12 MB with KERNEL_CHUNK_TERMS
    # // dim pairs a chunk, which set the peak RSS of whole runs ending in
    # such a build.
    desc = make_algebra(family, size)
    tracemalloc.start()
    try:
        _build_constants(desc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_lie_closure_peak_stays_under_three_mib():
    # The closure brackets one generator against a slice of basis rows, so
    # no factor is copied, and forms each block and its residual in place:
    # 1.9 MiB here. Its working set can set the peak RSS of the worker that
    # runs real 8 on the perfbench scale input. A first closure leaves
    # numpy's one-time allocations out of the count.
    lie_closure(group_lie_generators(make_algebra("real", 2)))
    gens = group_lie_generators(make_algebra("real", 8))
    tracemalloc.start()
    try:
        lie_closure(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_cached_context_arrays_are_read_only():
    desc = make_algebra("complex", 2)
    ctx = _context(desc)
    for arr in [getattr(ctx.constants, name) for name in CONSTANT_FIELDS]:
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(ValueError):
        ctx.gram[0] = 3.0
    with pytest.raises(ValueError):
        ctx.unit_coords[0] = 3.0


def test_cached_lie_basis_is_read_only():
    lie = structure_lie_basis(make_algebra("spin", 2))
    for arr in (lie.basis, lie.sym_basis, lie.skew_basis):
        with pytest.raises(ValueError):
            arr[...] = 0.0
