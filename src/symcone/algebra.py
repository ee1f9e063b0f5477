"""Euclidean Jordan algebras over fixed coordinate bases.

Every algebra is described by an :class:`AlgebraDescriptor` naming one of the
classified simple families (real symmetric, complex hermitian, quaternionic
hermitian, spin factor, 3x3 octonionic hermitian) or a direct sum of those.
Elements are real coordinate vectors in a fixed canonical basis per family:

* matrix families: n x n hermitian matrices whose entries lie in the
  Cayley-Dickson algebra of width 1, 2, 4 or 8 (real, complex, quaternionic,
  or octonionic at n = 3). Diagonal units E_ii come first, then
  (B E_ij + conj(B) E_ji) / sqrt(2) for i < j in row-major order, one basis
  vector per unit B of the entry algebra, so dim = n + width * n (n - 1) / 2;
* spin factor of vector dimension d: plain (scalar, vector) coordinates on
  R + R^d.

With these choices the trace form <a, b> = tr(a o b) is diagonal in
coordinates: the identity Gram matrix for matrix families, and 2 * identity
for spin factors (the unit there has <u, u> = rank = 2).

The Jordan product is precomputed once per descriptor as sparse structure
constants: the nonzero coefficients V[t] in b_I[t] o b_J[t] = ... + V[t]
b_K[t] + ..., kept as coordinate arrays (I, J, K, V) sorted by (K, J, I).
For the matrix families they are written down in closed form from four index
rules and the unit table of the entry algebra, with no matrix product, so the
build and the constants grow with the number of nonzeros (about
width^2 n^3) instead of dim^3. Products, multiplication operators and the
quadratic representation all go through one kernel that gathers
x[I] * y[J] * V and sums the runs of equal K (or of equal (K, J) for
operators) with ``np.add.reduceat``. The product is commutative, so a square
x o x runs the same kernel on the constants folded over unordered pairs
{I, J}, about half as many terms; and since <x o y, z> is symmetric in all
three arguments, the cubic trace <a o a, a> of a rank-3 algebra is a sum over
unordered triples {I, J, K}.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import hypercomplex as hc
from .certificates import ConeCertificate

__all__ = [
    "Family",
    "AlgebraDescriptor",
    "Element",
    "LinearOperator",
    "make_algebra",
    "direct_sum",
    "unit",
    "basis_elements",
    "jordan_product",
    "left_mult_operator",
    "trace_form",
    "trace_of",
    "norm",
    "quadratic_representation",
    "random_element",
    "to_matrix",
    "from_matrix",
    "descriptor_to_record",
    "format_descriptor",
]

SQRT2 = float(np.sqrt(2.0))


class Family(str, Enum):
    """Family tags for the classified simple algebras plus direct sums."""

    REAL_SYM = "real"
    COMPLEX_HERM = "complex"
    QUAT_HERM = "quaternion"
    SPIN = "spin"
    ALBERT = "albert"
    SUM = "sum"


# Real coordinates per off-diagonal entry of the matrix families: the width
# of the Cayley-Dickson entry algebra R, C, H or O.
_ENTRY_WIDTH = {
    Family.REAL_SYM: 1,
    Family.COMPLEX_HERM: 2,
    Family.QUAT_HERM: 4,
    Family.ALBERT: 8,
}


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Immutable description of an algebra; hashable so contexts can cache."""

    family: Family
    size: int = 0
    summands: tuple["AlgebraDescriptor", ...] = ()

    @property
    def dim(self) -> int:
        if self.family in _ENTRY_WIDTH:
            n = self.size
            return n + _ENTRY_WIDTH[self.family] * n * (n - 1) // 2
        if self.family is Family.SPIN:
            return self.size + 1
        return sum(s.dim for s in self.summands)

    @property
    def rank(self) -> int:
        if self.family is Family.SPIN:
            return 2
        if self.family is Family.ALBERT:
            return 3
        if self.family is Family.SUM:
            return sum(s.rank for s in self.summands)
        return self.size

    def __str__(self) -> str:
        return format_descriptor(self)


def make_algebra(
    family: Family | str,
    size: int | None = None,
    summands: tuple[AlgebraDescriptor, ...] | list[AlgebraDescriptor] | None = None,
) -> AlgebraDescriptor:
    """Validate and build a descriptor.

    ``size`` is the matrix dimension for the matrix families and the vector
    dimension for spin factors; the octonionic algebra is fixed at 3 x 3 and
    accepts only size 3 (or no size). Direct sums take ``summands`` instead.
    """
    try:
        fam = Family(family)
    except ValueError:
        raise ValueError(f"unknown algebra family tag {family!r}") from None
    if fam is Family.SUM:
        if not summands:
            raise ValueError("direct sum requires at least one summand")
        return AlgebraDescriptor(fam, 0, tuple(summands))
    if summands:
        raise ValueError(f"family {fam.value!r} does not take summands")
    if size is not None:
        if isinstance(size, bool) or not hasattr(type(size), "__index__"):
            raise ValueError(f"family {fam.value!r} requires an integer size, got {size!r}")
        size = operator.index(size)
    if fam is Family.ALBERT:
        if size not in (None, 3):
            raise ValueError("the octonionic hermitian algebra is fixed at size 3")
        return AlgebraDescriptor(fam, 3)
    if size is None or size < 1:
        raise ValueError(f"family {fam.value!r} requires a positive size, got {size}")
    return AlgebraDescriptor(fam, size)


def direct_sum(*parts) -> AlgebraDescriptor:
    """Direct sum of component algebras; accepts varargs or one iterable."""
    if len(parts) == 1 and not isinstance(parts[0], AlgebraDescriptor):
        parts = tuple(parts[0])
    return make_algebra(Family.SUM, summands=tuple(parts))


@dataclass
class Element:
    """An algebra element: a coordinate vector tagged with its algebra."""

    algebra: AlgebraDescriptor
    coords: np.ndarray

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.shape != (self.algebra.dim,):
            raise ValueError(
                f"coordinate length {self.coords.shape} does not match "
                f"dim {self.algebra.dim} of {self.algebra}"
            )

    def __add__(self, other: "Element") -> "Element":
        _require_same_algebra(self, other)
        return Element(self.algebra, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        _require_same_algebra(self, other)
        return Element(self.algebra, self.coords - other.coords)

    def __mul__(self, scalar: float) -> "Element":
        return Element(self.algebra, self.coords * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coords)


@dataclass
class LinearOperator:
    """Dense real matrix acting on algebra coordinates."""

    matrix: np.ndarray
    domain: AlgebraDescriptor | None = None
    codomain: AlgebraDescriptor | None = None

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("operator matrix must be 2-dimensional")
        if self.domain is not None and self.matrix.shape[1] != self.domain.dim:
            raise ValueError("operator matrix does not match domain dimension")
        if self.codomain is not None and self.matrix.shape[0] != self.codomain.dim:
            raise ValueError("operator matrix does not match codomain dimension")

    def __call__(self, a: Element) -> Element:
        if self.domain is not None and a.algebra != self.domain:
            raise ValueError("element does not live in the operator's domain")
        target = self.codomain if self.codomain is not None else a.algebra
        return Element(target, self.matrix @ a.coords)


def _require_same_algebra(a: Element, b: Element) -> None:
    if a.algebra != b.algebra:
        raise ValueError(f"algebra mismatch: {a.algebra} vs {b.algebra}")


# ---------------------------------------------------------------------------
# The coordinate layout of the matrix families. Converters use '...' batch
# semantics so pools and structure-constant builds can run vectorized.
# ---------------------------------------------------------------------------


@functools.cache
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the strict upper triangle of an
    n x n matrix, row-major, built once per n."""
    iu = np.triu_indices(n, k=1)
    for arr in iu:
        arr.flags.writeable = False
    return iu


def _to_rep(coords: np.ndarray, n: int, width: int) -> np.ndarray:
    """Real (..., n, n, width) matrices of coordinate rows: the diagonal
    coordinates first, then each upper-triangle entry (row-major) scaled by
    1 / sqrt(2), mirrored conjugated into the lower triangle."""
    iu = _upper_pairs(n)
    mat = np.zeros(coords.shape[:-1] + (n, n, width))
    idx = np.arange(n)
    mat[..., idx, idx, 0] = coords[..., :n]
    entries = coords[..., n:].reshape(coords.shape[:-1] + (iu[0].size, width)) / SQRT2
    mat[..., iu[0], iu[1], :] = entries
    mat[..., iu[1], iu[0], :] = entries * hc._conj_signs(width)
    return mat


def _from_rep(mats: np.ndarray, n: int, width: int) -> np.ndarray:
    """Coordinate rows of real (..., n, n, width) hermitian matrices."""
    iu = _upper_pairs(n)
    idx = np.arange(n)
    diag = mats[..., idx, idx, 0]
    entries = SQRT2 * mats[..., iu[0], iu[1], :]
    return np.concatenate(
        [diag, entries.reshape(mats.shape[:-3] + (width * iu[0].size,))], axis=-1
    )


def _to_view(coords: np.ndarray, n: int, width: int) -> np.ndarray:
    """Matrices of an associative family for ``matmul`` and ``eigh``: real
    (..., n, n) at width 1, complex (..., n, n) at width 2, and the complex
    (..., 2n, 2n) embedding at width 4."""
    rep = _to_rep(coords, n, width)
    if width == 1:
        return rep[..., 0]
    if width == 2:
        # each (real, imaginary) pair of the last axis read as one complex
        return rep.view(complex)[..., 0]
    return hc.embed_quat_matrix(rep)


def _from_view(mats: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`_to_view`."""
    if width == 1:
        rep = mats[..., None]
    elif width == 2:
        rep = np.asarray(mats, dtype=complex)[..., None].view(float)
    else:
        rep = hc.extract_quat_matrix(mats)
    return _from_rep(rep, n, width)


# ---------------------------------------------------------------------------
# Sparse structure constants and the one product kernel.
# ---------------------------------------------------------------------------

# Gathered terms the kernel holds at once: a batch is cut into row chunks of
# at most this many terms (one row at the least), so the temporaries stay
# about a megabyte and in cache.
KERNEL_CHUNK_TERMS = 1 << 17


@dataclass(frozen=True)
class _Constants:
    """Structure constants b_i o b_j = sum of V[t] b_K[t] over I[t] = i, J[t] = j.

    Entries are sorted by (K, J, I), so entries of equal K are contiguous runs
    (one per coordinate of a product) and entries of equal (K, J) are
    contiguous runs (one per entry of a multiplication operator).

    The ``sq_`` arrays are the same constants folded over unordered pairs:
    one entry per (K, {I, J}), with sq_I <= sq_J and weight V(I, J, K) +
    V(J, I, K) (V(I, I, K) on the diagonal), sorted by (K, sq_J, sq_I). The
    square x o x is their sum of x[sq_I] x[sq_J] sq_V over each run of K.
    """

    dim: int
    I: np.ndarray
    J: np.ndarray
    K: np.ndarray
    V: np.ndarray
    out_starts: np.ndarray  # first entry of each run of equal K
    out_keys: np.ndarray    # its K
    op_starts: np.ndarray   # first entry of each run of equal (K, J)
    op_keys: np.ndarray     # its K * dim + J
    sq_I: np.ndarray
    sq_J: np.ndarray
    sq_V: np.ndarray
    sq_starts: np.ndarray   # first folded entry of each run of equal K
    sq_keys: np.ndarray     # its K


def _run_starts(keys: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.diff(keys, prepend=-1))


def _fold(codes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``codes``, ascending, with the weights of equal codes
    summed."""
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    starts = _run_starts(codes)
    return codes[starts], np.add.reduceat(weights[order], starts)


def _split_codes(codes: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index triples (a, b, c), each below ``dim``, of the codes
    (a dim + b) dim + c."""
    major, rest = np.divmod(codes, dim * dim)
    return (major, *np.divmod(rest, dim))


def _make_constants(
    dim: int, I: np.ndarray, J: np.ndarray, K: np.ndarray, V: np.ndarray
) -> _Constants:
    """Fold coordinate-form constants over unordered pairs, sort them, find
    their runs, and freeze them."""
    I, J, K = (np.asarray(a, dtype=np.intp) for a in (I, J, K))
    V = np.asarray(V, dtype=float)
    # the fold goes first, while no sorted copy is held, and builds its codes
    # (K dim + max(I, J)) dim + min(I, J) in place: a context build then
    # peaks no higher than the sort below
    codes = np.maximum(I, J)
    codes += K * dim
    codes *= dim
    codes += np.minimum(I, J)
    codes, sq_V = _fold(codes, V)
    sq_K, sq_J, sq_I = _split_codes(codes, dim)
    del codes
    order = np.lexsort((I, J, K))
    I, J, K, V = (a[order] for a in (I, J, K, V))
    del order
    out_starts = _run_starts(K)
    op = K * dim + J
    op_starts = _run_starts(op)
    sq_starts = _run_starts(sq_K)
    arrays = (
        I, J, K, V, out_starts, K[out_starts], op_starts, op[op_starts],
        sq_I, sq_J, sq_V, sq_starts, sq_K[sq_starts],
    )
    for arr in arrays:
        arr.flags.writeable = False
    return _Constants(dim, *arrays)


def _contract(
    xs: np.ndarray,
    ys: np.ndarray | None,
    I: np.ndarray,
    J: np.ndarray,
    V: np.ndarray,
    starts: np.ndarray,
    keys: np.ndarray,
    width: int,
) -> np.ndarray:
    """The product kernel, batched over rows: column keys[r] of the
    (n, width) result sums xs[:, I[t]] * ys[:, J[t]] * V[t] (without
    ``ys``, xs[:, I[t]] * V[t]) over the entries t of run r, from starts[r]
    to the next start."""
    n = xs.shape[0]
    # Work entry-major, (entries, rows): gathering whole coordinate rows and
    # summing runs of contiguous rows is about twice as fast as row-major.
    out = np.zeros((width, n))
    if V.size == 0:
        return out.T
    values = V[:, None]
    step = max(1, KERNEL_CHUNK_TERMS // V.size)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        terms = np.take(xs[rows].T, I, axis=0)
        if ys is not None:
            terms *= np.take(ys[rows].T, J, axis=0)
        terms *= values
        out[keys, rows] = np.add.reduceat(terms, starts, axis=0)
    return out.T


def _product_batch(sc: _Constants, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The products xs o ys, row by row, shape (n, dim)."""
    return _contract(xs, ys, sc.I, sc.J, sc.V, sc.out_starts, sc.out_keys, sc.dim)


def _square_batch(sc: _Constants, xs: np.ndarray) -> np.ndarray:
    """The squares xs o xs, row by row, from the constants folded over
    unordered pairs."""
    return _contract(xs, xs, sc.sq_I, sc.sq_J, sc.sq_V, sc.sq_starts, sc.sq_keys, sc.dim)


def _product_coords(sc: _Constants, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _product_batch(sc, x[None, :], y[None, :])[0]


def _left_mult_batch(sc: _Constants, xs: np.ndarray) -> np.ndarray:
    """Stack of multiplication operators L_x, shape (n, dim, dim), with
    L_x[k, j] = sum_i x_i T[i, j, k]."""
    flat = _contract(xs, None, sc.I, sc.J, sc.V, sc.op_starts, sc.op_keys, sc.dim**2)
    return flat.reshape(-1, sc.dim, sc.dim)


def _left_mult_matrix(sc: _Constants, x: np.ndarray) -> np.ndarray:
    return _left_mult_batch(sc, x[None, :])[0]


# ---------------------------------------------------------------------------
# Cached per-descriptor context: structure constants, Gram diagonal, unit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Context:
    descriptor: AlgebraDescriptor
    constants: _Constants
    gram: np.ndarray           # (dim,) diagonal of the trace-form Gram matrix
    unit_coords: np.ndarray    # (dim,)
    block_slices: tuple[slice, ...] = ()
    # of a simple rank-3 algebra: <a o a, a> = sum of W a_A a_B a_C over the
    # unordered triples A <= B <= C, as the arrays (A, B, C, W)
    cubic: tuple[np.ndarray, ...] | None = None


_CONTEXT_CACHE: dict[AlgebraDescriptor, _Context] = {}


def _matrix_constants(desc: AlgebraDescriptor) -> _Constants:
    """Constants of a matrix or octonionic family, in closed form.

    With D_i = E_ii and O_{ab,p} the basis element on the index pair {a, b}
    with unit e_p, and e_p e_q = U[p, q, r] e_r, the nonzero products are

    * D_i o D_i = D_i;
    * D_i o O_{ij,p} = D_j o O_{ij,p} = O_{ij,p} / 2;
    * O_{ij,p} o O_{ij,p} = (D_i + D_j) / 2;
    * O_{ab,p} o O_{bc,q} = s U[p, q, r] O_{ac,r} / (2 sqrt 2) for distinct
      a, b, c, where s takes the conjugation sign of e_p, e_q or e_r for each
      of the pairs (a, b), (b, c), (a, c) whose indices run downward (the
      entry at (b, a) is the conjugate of the entry at (a, b)).

    Every entry of these products is a single unit product, so octonion
    non-associativity never enters. The coefficient of O o O is the product
    of the two entries 1 / sqrt 2, which rounds to 0.4999999999999999.
    """
    n, width = desc.size, _ENTRY_WIDTH[desc.family]
    signs = hc._conj_signs(width)
    iu, ju = _upper_pairs(n)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(iu.size)
    diag = np.arange(n)
    # each O_{ij,p} twice, against its two ends i and j
    offs = np.tile(n + np.arange(width * iu.size), 2)
    ends = np.concatenate([iu, ju]).repeat(width)
    # ordered triples of distinct indices (a, b, c) against unit pairs (p, q)
    i, j, k = np.ogrid[:n, :n, :n]
    a, b, c = (t[:, None] for t in np.nonzero((i != j) & (j != k) & (i != k)))
    p, q = np.divmod(np.arange(width * width), width)
    units = hc.UNIT_TABLES[width][p, q]
    r = np.abs(units).argmax(axis=1)
    sign = (
        units[np.arange(r.size), r]
        * np.where(a < b, 1.0, signs[p])
        * np.where(b < c, 1.0, signs[q])
        * np.where(a < c, 1.0, signs[r])
    )
    half = np.full(offs.size, 0.5)
    I = (diag, ends, offs, offs, (n + width * pair[a, b] + p).ravel())
    J = (diag, offs, ends, offs, (n + width * pair[b, c] + q).ravel())
    K = (diag, offs, offs, ends, (n + width * pair[a, c] + r).ravel())
    V = (
        np.ones(n),
        half,
        half,
        np.full(offs.size, (1 / SQRT2) * (1 / SQRT2)),
        (sign / (2 * SQRT2)).ravel(),
    )
    return _make_constants(desc.dim, *(np.concatenate(x) for x in (I, J, K, V)))


def _spin_constants(dim: int) -> _Constants:
    """(s, x) o (t, y) = (s t + x . y, s y + t x) on R + R^(dim - 1)."""
    idx = np.arange(dim)
    vec = idx[1:]
    zeros = np.zeros(dim - 1, dtype=np.intp)
    return _make_constants(
        dim,
        np.concatenate([np.zeros(dim, dtype=np.intp), vec, vec]),
        np.concatenate([idx, zeros, vec]),
        np.concatenate([idx, vec, zeros]),
        np.ones(3 * dim - 2),
    )


def _build_constants(desc: AlgebraDescriptor) -> tuple[_Constants, np.ndarray, np.ndarray]:
    dim = desc.dim
    unit_coords = np.zeros(dim)
    if desc.family is Family.SPIN:
        unit_coords[0] = 1.0
        return _spin_constants(dim), np.full(dim, 2.0), unit_coords
    if desc.family not in _ENTRY_WIDTH:
        raise ValueError(f"no direct structure constants for family {desc.family}")
    # the identity matrix: ones on the diagonal coordinates, which come first
    unit_coords[: desc.size] = 1.0
    return _matrix_constants(desc), np.ones(dim), unit_coords


def _context(desc: AlgebraDescriptor) -> _Context:
    ctx = _CONTEXT_CACHE.get(desc)
    if ctx is not None:
        return ctx
    if desc.family is Family.SUM:
        parts = [_context(s) for s in desc.summands]
        slices = []
        start = 0
        for part in parts:
            slices.append(slice(start, start + part.descriptor.dim))
            start += part.descriptor.dim
        I, J, K = (
            np.concatenate(
                [getattr(p.constants, name) + sl.start for p, sl in zip(parts, slices)]
            )
            for name in "IJK"
        )
        V = np.concatenate([p.constants.V for p in parts])
        constants = _make_constants(desc.dim, I, J, K, V)
        gram = np.concatenate([p.gram for p in parts])
        unit_coords = np.concatenate([p.unit_coords for p in parts])
        block_slices = tuple(slices)
    else:
        constants, gram, unit_coords = _build_constants(desc)
        block_slices = ()
    cubic = None
    if desc.family is not Family.SUM and desc.rank == 3:
        # V(I, J, K) gram[K] = <b_I o b_J, b_K> is symmetric in I, J, K (the
        # trace associativity _trace_form_gaps checks, with commutativity),
        # so every ordering of a triple multiplies the same monomial
        sc, dim = constants, desc.dim
        low, mid, high = np.sort([sc.I, sc.J, sc.K], axis=0)
        codes, weights = _fold((high * dim + mid) * dim + low, sc.V * gram[sc.K])
        high, mid, low = _split_codes(codes, dim)
        cubic = (low, mid, high, weights)
    for arr in (gram, unit_coords, *(cubic or ())):
        arr.flags.writeable = False
    ctx = _Context(desc, constants, gram, unit_coords, block_slices, cubic)
    _CONTEXT_CACHE[desc] = ctx
    return ctx


def _cubic_trace(ctx: _Context, xs: np.ndarray) -> np.ndarray:
    """<a o a, a> = tr a^3 of each row of a simple rank-3 algebra."""
    A, B, C, W = ctx.cubic
    out = np.empty(xs.shape[0])
    step = max(1, KERNEL_CHUNK_TERMS // W.size)
    for lo in range(0, xs.shape[0], step):
        rows = xs[lo : lo + step].T
        terms = np.take(rows, A, axis=0)
        terms *= np.take(rows, B, axis=0)
        terms *= np.take(rows, C, axis=0)
        out[lo : lo + step] = W @ terms
    return out


def _metric_adjoint(gram: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Adjoint of an operator, or of each in a stack, in the trace form.

    With a diagonal Gram the adjoint is the Gram-weighted transpose,
    adj[i, j] = mat[j, i] * gram[j] / gram[i].
    """
    return np.swapaxes(mats, -1, -2) * gram / gram[:, None]


def _metric_exp(
    gram: np.ndarray, ops: np.ndarray, skew: bool
) -> tuple[np.ndarray, np.ndarray]:
    """exp of each metric-symmetric (``skew``: metric-skew) operator in a stack.

    With D = diag(sqrt(gram)), exp(X) = D^-1 exp(D X D^-1) D, and the scaled
    operator's symmetric (skew) part is exponentiated through ``eigh`` (of i
    times it, when skew). Also returns each scaled operator's departure from
    that part, max |M -+ M^T|, which ``eigh`` cannot see.
    """
    root = np.sqrt(gram)
    scaled = ops * root[:, None] / root
    part = 0.5 * (scaled + (-1.0 if skew else 1.0) * np.swapaxes(scaled, -1, -2))
    vals, vecs = np.linalg.eigh(1j * part if skew else part)
    weights = np.exp(-1j * vals if skew else vals)[..., None, :]
    exp_part = ((vecs * weights) @ np.swapaxes(vecs.conj(), -1, -2)).real
    departure = 2.0 * np.abs(scaled - part).max(axis=(-2, -1))
    return exp_part / root[:, None] * root, departure


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def unit(algebra: AlgebraDescriptor) -> Element:
    return Element(algebra, _context(algebra).unit_coords.copy())


def basis_elements(algebra: AlgebraDescriptor) -> list[Element]:
    return [Element(algebra, row) for row in np.eye(algebra.dim)]


def jordan_product(a: Element, b: Element) -> Element:
    _require_same_algebra(a, b)
    sc = _context(a.algebra).constants
    return Element(a.algebra, _product_coords(sc, a.coords, b.coords))


def left_mult_operator(a: Element) -> LinearOperator:
    mat = _left_mult_matrix(_context(a.algebra).constants, a.coords)
    return LinearOperator(mat, a.algebra, a.algebra)


def trace_form(a: Element, b: Element) -> float:
    _require_same_algebra(a, b)
    gram = _context(a.algebra).gram
    return float(np.sum(a.coords * gram * b.coords))


def trace_of(a: Element) -> float:
    ctx = _context(a.algebra)
    return float(np.sum(a.coords * ctx.gram * ctx.unit_coords))


def norm(a: Element) -> float:
    return float(np.sqrt(max(trace_form(a, a), 0.0)))


def quadratic_representation(a: Element) -> LinearOperator:
    """P(a) = 2 L_a^2 - L_{a o a}, the quadratic representation of a."""
    mat = _quadratic_batch(_context(a.algebra).constants, a.coords[None, :])[0]
    return LinearOperator(mat, a.algebra, a.algebra)


def _quadratic_batch(sc: _Constants, xs: np.ndarray) -> np.ndarray:
    """Stack of quadratic representations P(x) = 2 L_x^2 - L_{x o x}."""
    left = _left_mult_batch(sc, xs)
    return 2.0 * left @ left - _left_mult_batch(sc, _square_batch(sc, xs))


def random_element(
    algebra: AlgebraDescriptor, seed: int | np.random.Generator = 0
) -> Element:
    return Element(algebra, np.random.default_rng(seed).standard_normal(algebra.dim))


# ---------------------------------------------------------------------------
# Batched residual suites. These drive both the test suite and the CLI
# certificates, so they are written against coordinate arrays directly.
# ---------------------------------------------------------------------------


def _draws(algebra: AlgebraDescriptor, count: int, n: int, seed: int) -> np.ndarray:
    """``count`` stacks of ``n`` standard normal coordinate rows."""
    return np.random.default_rng(seed).standard_normal((count, n, algebra.dim))


def _norms(xs: np.ndarray, gram: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(xs**2 * gram, axis=1))


def jordan_identity_residuals(
    algebra: AlgebraDescriptor, n_pairs: int, seed: int = 0
) -> np.ndarray:
    ctx = _context(algebra)
    xs, ys = _draws(algebra, 2, n_pairs, seed)
    return _jordan_identity_core(ctx.constants, ctx.gram, xs, ys)


def _jordan_identity_core(
    sc: _Constants, gram: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Residuals of x^2 o (x o y) = x o (x^2 o y) under the product ``sc``."""
    asq = _square_batch(sc, xs)
    lhs = _product_batch(sc, asq, _product_batch(sc, xs, ys))
    rhs = _product_batch(sc, xs, _product_batch(sc, asq, ys))
    return _norms(lhs - rhs, gram) / (1.0 + _norms(xs, gram) ** 3 * _norms(ys, gram))


def commutativity_residuals(
    algebra: AlgebraDescriptor, n_pairs: int, seed: int = 0
) -> np.ndarray:
    ctx = _context(algebra)
    xs, ys = _draws(algebra, 2, n_pairs, seed)
    gaps = _product_batch(ctx.constants, xs, ys) - _product_batch(ctx.constants, ys, xs)
    return _norms(gaps, ctx.gram) / (1.0 + _norms(xs, ctx.gram) * _norms(ys, ctx.gram))


def unit_law_residuals(algebra: AlgebraDescriptor) -> np.ndarray:
    """Residuals of u o e = e on the basis e; both sides are linear in e,
    so the basis decides the law."""
    ctx = _context(algebra)
    xs = np.eye(algebra.dim)
    us = np.broadcast_to(ctx.unit_coords, xs.shape)
    gaps = _product_batch(ctx.constants, us, xs) - xs
    return _norms(gaps, ctx.gram) / (1.0 + _norms(xs, ctx.gram))


def trace_associativity_residuals(algebra: AlgebraDescriptor) -> np.ndarray:
    """Residuals of <a o b, c> = <b, a o c> on the basis triples; see
    :func:`_trace_form_gaps`."""
    ctx = _context(algebra)
    return _trace_form_gaps(ctx.constants, ctx.gram)


def _trace_form_gaps(sc: _Constants, gram: np.ndarray) -> np.ndarray:
    """Residuals of <b_I o b_J, b_K> = <b_J, b_I o b_K> under the product
    ``sc``, one per basis triple with a nonzero side, relative to
    1 + |b_I| |b_J| |b_K|.

    The sides are V(I, J, K) gram[K] and V(I, K, J) gram[J], so each
    triple's gap is the fold of the weights +V gram[K] at the codes of
    (I, J, K) and -V gram[K] at the codes of (I, K, J). Both sides are
    trilinear and every other triple reads 0 = 0, so the gaps decide the
    law exactly.
    """
    dim = sc.dim
    weights = sc.V * gram[sc.K]
    codes, gaps = _fold(
        np.concatenate([(sc.I * dim + sc.J) * dim + sc.K, (sc.I * dim + sc.K) * dim + sc.J]),
        np.concatenate([weights, -weights]),
    )
    norms = np.sqrt(gram)[np.stack(_split_codes(codes, dim))]  # |b_I|, |b_J|, |b_K|
    return np.abs(gaps) / (1.0 + norms.prod(axis=0))


def certify_formal_reality(
    algebra: AlgebraDescriptor, seed: int = 0, tol: float = 1e-9
) -> ConeCertificate:
    """Formal reality through tr(x o y) = <x, y>, decided on the basis pairs.

    The identity gives tr(x o x) = |x|^2 > 0 for every x != 0 once every
    gram entry is positive, so a sum of squares that vanishes has every
    term zero (Faraut & Koranyi, ch. VIII). tr(b_I o b_J) sums
    V(I, J, K) gram[K] u[K] over the constants, and <b_I, b_J> is gram[I]
    at I = J and 0 elsewhere, so each basis pair's gap is the fold of those
    weights at the code I dim + J and of -gram[I] at I dim + I. Both sides
    are bilinear, so the gaps, each scored over 1 + |b_I| |b_J|, decide the
    identity; ``samples`` counts the pairs with a nonzero side. Only outputs
    with u[K] != 0 enter the trace: trace associativity checks the others.
    The seed is reported only.
    """
    ctx = _context(algebra)
    sc, gram, u = ctx.constants, ctx.gram, ctx.unit_coords
    keep = u[sc.K] != 0
    diag = np.arange(sc.dim)
    codes, gaps = _fold(
        np.concatenate([sc.I[keep] * sc.dim + sc.J[keep], diag * sc.dim + diag]),
        np.concatenate([(sc.V * gram[sc.K] * u[sc.K])[keep], -gram]),
    )
    norms = np.sqrt(gram)[np.stack(np.divmod(codes, sc.dim))]  # |b_I|, |b_J|
    worst = float((np.abs(gaps) / (1.0 + norms.prod(axis=0))).max())
    return ConeCertificate(
        check_name="formal_reality",
        passed=worst <= tol and bool(np.all(gram > 0)),
        samples=codes.size,
        seed=seed,
        tol=tol,
        worst_residual=worst,
    )


# ---------------------------------------------------------------------------
# Matrix representations for the matrix families and the octonionic algebra.
# ---------------------------------------------------------------------------


def _matrix_shape(algebra: AlgebraDescriptor) -> tuple[int, int]:
    if algebra.family not in _ENTRY_WIDTH:
        raise ValueError(f"family {algebra.family.value!r} has no matrix representation")
    return algebra.size, _ENTRY_WIDTH[algebra.family]


def to_matrix(a: Element) -> np.ndarray:
    """Matrix representation of a: real or complex (n, n), quaternionic
    (n, n, 4), octonionic (3, 3, 8). Spin factors and sums have none."""
    n, width = _matrix_shape(a.algebra)
    if width > 2:
        return _to_rep(a.coords, n, width)
    return _to_view(a.coords, n, width)


def from_matrix(algebra: AlgebraDescriptor, mat: np.ndarray) -> Element:
    n, width = _matrix_shape(algebra)
    mat = np.asarray(mat)
    if width > 2:
        return Element(algebra, _from_rep(mat, n, width))
    return Element(algebra, _from_view(mat, n, width))


# ---------------------------------------------------------------------------
# Descriptors as dict records (read by the model-file reader) and as one
# line of text (reports, messages and test ids); both written only here.
# ---------------------------------------------------------------------------


def descriptor_to_record(desc: AlgebraDescriptor) -> dict:
    if desc.family is Family.SUM:
        return {
            "family": desc.family.value,
            "summands": [descriptor_to_record(s) for s in desc.summands],
        }
    return {"family": desc.family.value, "size": desc.size}


def format_descriptor(desc: AlgebraDescriptor) -> str:
    if desc.family is Family.SUM:
        inner = ", ".join(format_descriptor(s) for s in desc.summands)
        return f"sum({inner})"
    return f"{desc.family.value} {desc.size}"
