"""Composite systems: tensor embeddings, tomography, and the qubit witness.

The complex, real and quaternionic embeddings are validated against
Kronecker products of the underlying hermitian matrices, computed here
directly (with numpy, and for quaternions with symmetrized entry products)
so the einsum-based embedding has an independent oracle.
"""

import numpy as np
import pytest

from oracle import (
    quat_multiply,
    sampled_factorization,
    sampled_tensor_lmap,
    sampled_unit_factor_products,
    spin_qubit_isomorphism,
)
from symcone import (
    Element,
    direct_sum,
    format_descriptor,
    from_matrix,
    jordan_product,
    make_algebra,
    make_model,
    to_matrix,
    trace_form,
    trace_of,
    unit,
)
from symcone import composites
from symcone.algebra import _CONTEXT_CACHE, KERNEL_CHUNK_TERMS, _context
from symcone.composites import (
    _power_rank,
    candidate_composite,
    check_unit_factor_products,
    factorization_check,
    local_tomography_audit,
    maximally_entangled_state,
    nonsignaling_check,
    product_effect,
    product_state,
    product_test,
    product_tests_check,
    qubit_witness,
    tensor_adjoint_check,
    tensor_lmap_check,
)
from symcone.demos import demo_text
from symcone.hypercomplex import embed_quat_matrix
from symcone.modelfile import parse_model_text
from symcone.models import evaluate, model_from_tests, pure_state_of, uniform_state
from symcone.runner import RunConfig, run_model_spec
from symcone.spectral import canonical_frame, eigenvalues_batch, random_jordan_frame
from test_algebra import ALL_FAMILIES, bump_constant

ATOL = 1e-10


def _composite(fam, na, nb, seed=0):
    ma = make_model(make_algebra(fam, na), count=2, seed=seed + 1)
    mb = make_model(make_algebra(fam, nb), count=2, seed=seed + 2)
    return candidate_composite(ma, mb)


@pytest.fixture(scope="module")
def qubit_pair():
    return _composite("complex", 2, 2)


@pytest.fixture(scope="module")
def rebit_pair():
    return _composite("real", 2, 2)


@pytest.fixture(scope="module")
def quabit_pair():
    return _composite("quaternion", 2, 2)


def test_dimension_table(qubit_pair, rebit_pair, quabit_pair):
    # complex: 4*4 = 16 = dim of ComplexHerm 4 -> tomographic.
    assert qubit_pair.carrier.dim == 16
    assert qubit_pair.embed_rank == 16
    assert qubit_pair.locally_tomographic
    # real: carrier RealSym 4 has dim 10 != 3*3 = 9 -> not tomographic.
    assert rebit_pair.carrier.dim == 10
    assert rebit_pair.embed_rank == 9
    assert not rebit_pair.locally_tomographic
    # quaternion: carrier QuatHerm 4 has dim 28 < 6*6 = 36 -> the embedding
    # cannot be injective.
    assert quabit_pair.carrier.dim == 28
    assert quabit_pair.embed_rank == 28
    assert not quabit_pair.locally_tomographic


def _quat_kron(a, b):
    """Kronecker product of quaternionic matrices, entries (x y + y x) / 2."""
    x, y = a[:, None, :, None], b[None, :, None, :]
    m, n = a.shape[0], b.shape[0]
    sym = 0.5 * (quat_multiply(x, y) + quat_multiply(y, x))
    return sym.reshape(m * n, m * n, 4)


@pytest.mark.parametrize("pair", ["qubit_pair", "rebit_pair", "quabit_pair"])
def test_embed_matches_kronecker_oracle(request, pair):
    cs = request.getfixturevalue(pair)
    rng = np.random.default_rng(111)
    from symcone import random_element

    for _ in range(10):
        a = random_element(cs.part_a.algebra, rng)
        b = random_element(cs.part_b.algebra, rng)
        got = product_effect(cs, a, b).coords
        ma, mb = to_matrix(a), to_matrix(b)
        kron = _quat_kron(ma, mb) if ma.ndim == 3 else np.kron(ma, mb)
        want = from_matrix(cs.carrier, kron).coords
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_unit_tensor_unit_is_carrier_unit(qubit_pair, rebit_pair, quabit_pair):
    for cs in (qubit_pair, rebit_pair, quabit_pair):
        ab = product_effect(cs, unit(cs.part_a.algebra), unit(cs.part_b.algebra))
        np.testing.assert_allclose(ab.coords, unit(cs.carrier).coords, atol=1e-12)


def test_mixed_family_parts_rejected():
    ma = make_model(make_algebra("complex", 2), count=1, seed=1)
    mb = make_model(make_algebra("real", 2), count=1, seed=2)
    with pytest.raises(ValueError):
        candidate_composite(ma, mb)


def test_trivial_factor_gives_isomorphic_copy():
    ma = make_model(make_algebra("complex", 2), count=2, seed=3)
    mt = make_model(make_algebra("real", 1), count=1, seed=4)
    cs = candidate_composite(ma, mt)
    assert cs.carrier == ma.algebra
    np.testing.assert_allclose(cs.embed, np.eye(ma.algebra.dim), atol=1e-12)
    assert cs.locally_tomographic


def test_tomography_audit_certificates(qubit_pair, rebit_pair, quabit_pair):
    good = local_tomography_audit(qubit_pair)
    assert good.passed
    assert good.details["dim_carrier"] == 16
    assert good.details["dim_product"] == 16
    bad = local_tomography_audit(rebit_pair)
    assert not bad.passed
    assert (bad.details["dim_carrier"], bad.details["dim_product"]) == (10, 9)
    worse = local_tomography_audit(quabit_pair)
    assert not worse.passed
    assert (worse.details["dim_carrier"], worse.details["dim_product"]) == (28, 36)


def test_product_tests_resolve_unit(qubit_pair, rebit_pair):
    for cs in (qubit_pair, rebit_pair):
        cert = product_tests_check(cs)
        assert cert.passed, cert.details
        test_a = cs.part_a.tests[0]
        test_b = cs.part_b.tests[0]
        joint = product_test(cs, test_a, test_b)
        assert len(joint) == len(test_a) * len(test_b)
        total = sum(x.coords for x in joint)
        np.testing.assert_allclose(total, unit(cs.carrier).coords, atol=1e-9)


def test_quaternionic_product_tests_break_positivity(quabit_pair):
    cert = product_tests_check(quabit_pair)
    assert not cert.passed


def _product_tests_oracle(cs):
    """product_tests_check with every outcome formed as its own
    product_effect: the worst score, and the score and carrier coordinates
    of every outcome and of every summed product test."""
    u = unit(cs.carrier).coords
    scored = []
    for ta in cs.part_a.tests:
        for tb in cs.part_b.tests:
            stack = np.stack([x.coords for x in product_test(cs, ta, tb)])
            lam = eigenvalues_batch(cs.carrier, stack)
            least = lam[:, 0] / (1.0 + np.abs(lam).max(axis=1))
            total = stack.sum(axis=0)
            gap = float(np.abs(total - u).max()) / (1.0 + cs.carrier.rank)
            scored += [*zip(-least, stack), (gap, total)]
    return max(0.0, *(score for score, _ in scored)), scored


@pytest.mark.parametrize(
    "pair", ["qubit_pair", "rebit_pair", "quabit_pair", "real_3_pair", "uneven_tests_pair"]
)
def test_product_tests_match_the_per_outcome_oracle(request, pair):
    if pair == "real_3_pair":
        part = make_model(make_algebra("real", 3), count=20, seed=5)
        cs = candidate_composite(part, make_model(make_algebra("real", 3), count=20, seed=6))
    elif pair == "uneven_tests_pair":
        # tests of 1, 3 and 2 outcomes
        real = make_algebra("real", 3)
        frame = random_jordan_frame(real, seed=3)
        part = model_from_tests(real, [(unit(real),), frame, (frame[0], unit(real) - frame[0])])
        cs = candidate_composite(part, part)
    else:
        cs = request.getfixturevalue(pair)
    cert = product_tests_check(cs)
    worst, scored = _product_tests_oracle(cs)
    assert cert.worst_residual == pytest.approx(worst, rel=0, abs=1e-15)
    assert cert.samples == sum(map(len, cs.part_a.tests)) * sum(map(len, cs.part_b.tests))
    if worst > cert.tol:
        # the witness sets the worst score; the quaternionic pair has outcomes
        # whose scores tie exactly, and rounding may pick any of them
        (got,) = cert.witnesses
        assert any(
            score >= worst - 1e-15 and np.allclose(coords, got, rtol=0, atol=1e-15)
            for score, coords in scored
        )
    else:
        assert cert.witnesses == []


def _product_test_scores(cs, coords):
    """The scores product_tests_check gives carrier coordinates: as an
    outcome, its negated least relative eigenvalue; as a summed test, its
    largest gap to the unit relative to 1 + the carrier rank."""
    mat = to_matrix(Element(cs.carrier, np.array(coords)))
    if mat.ndim == 3:  # quaternionic: the complex image doubles each eigenvalue
        mat = embed_quat_matrix(mat)
    lam = np.linalg.eigvalsh(mat)
    outcome = -lam[0] / (1.0 + np.abs(lam).max())
    total = np.abs(np.array(coords) - unit(cs.carrier).coords).max() / (1.0 + cs.carrier.rank)
    return outcome, total


def test_product_tests_score_outcome_pairs_in_chunks(monkeypatch):
    # one eigenvalues_batch call per chunk of outcome pairs, not per test pair
    part = make_model(make_algebra("real", 3), count=20, seed=5)
    cs = candidate_composite(part, part)
    eigenvalues = composites.eigenvalues_batch
    sizes = []

    def counting(algebra, rows):
        sizes.append(len(rows))
        return eigenvalues(algebra, rows)

    monkeypatch.setattr(composites, "eigenvalues_batch", counting)
    cert = product_tests_check(cs)
    step = KERNEL_CHUNK_TERMS // (cs.part_a.algebra.dim * cs.part_b.algebra.dim + cs.carrier.dim)
    assert sum(sizes) == cert.samples
    assert len(sizes) == -(-cert.samples // step) < len(part.tests) ** 2


def test_product_tests_witness_is_the_worst_outcome(quabit_pair):
    cert = product_tests_check(quabit_pair)
    [witness] = cert.witnesses
    outcome, _ = _product_test_scores(quabit_pair, witness)
    assert outcome == pytest.approx(cert.worst_residual, abs=1e-12)


def test_product_tests_witness_is_the_summed_test_of_a_unit_gap():
    # explicit outcomes 4e-9 above a frame pass the model checks, but their
    # products sum to (1 + 8e-9) u: a gap of 8e-9 / (1 + 4) in the carrier
    real2 = make_algebra("real", 2)
    frame = [from_matrix(real2, (1 + 4e-9) * np.diag(e)) for e in np.eye(2)]
    part = model_from_tests(real2, [frame])
    cs = candidate_composite(part, part)
    cert = product_tests_check(cs)
    assert not cert.passed
    assert cert.worst_residual == pytest.approx(1.6e-9, rel=1e-6)
    [witness] = cert.witnesses
    _, total = _product_test_scores(cs, witness)
    assert total == pytest.approx(cert.worst_residual, abs=1e-12)


def test_factorization_complex_and_real(qubit_pair, rebit_pair):
    for cs in (qubit_pair, rebit_pair):
        cert = factorization_check(cs)
        assert cert.passed
        assert cert.worst_residual < 1e-10


def test_factorization_oracle_direct(qubit_pair):
    from symcone import random_element

    rng = np.random.default_rng(113)
    a, c = (random_element(qubit_pair.part_a.algebra, rng) for _ in range(2))
    b, d = (random_element(qubit_pair.part_b.algebra, rng) for _ in range(2))
    lhs = trace_form(product_effect(qubit_pair, a, b), product_effect(qubit_pair, c, d))
    rhs = trace_form(a, c) * trace_form(b, d)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_factorization_fails_for_quaternions(quabit_pair):
    cert = factorization_check(quabit_pair)
    assert not cert.passed


@pytest.mark.parametrize(
    "fam,na,nb,passes",
    [
        ("complex", 2, 2, True),
        ("real", 2, 2, True),
        ("quaternion", 2, 2, False),
        ("complex", 4, 2, True),
        ("real", 6, 3, True),
    ],
)
def test_basis_factorization_decides_the_sampled_identity(fam, na, nb, passes):
    cs = _composite(fam, na, nb)
    cert = factorization_check(cs)
    assert cert.passed is passes
    assert cert.samples == (cs.part_a.algebra.dim * cs.part_b.algebra.dim) ** 2
    assert bool(sampled_factorization(cs, samples=200, seed=3).max() <= cert.tol) is passes


def test_factorization_witness_replays_the_worst_residual(quabit_pair):
    cs = quabit_pair
    cert = factorization_check(cs)
    algebras = (cs.part_a.algebra, cs.part_b.algebra) * 2
    a, b, c, d = (Element(alg, np.array(x)) for alg, x in zip(algebras, cert.witnesses))
    # a basis quadruple (e_i, f_j, e_k, f_l)
    for x in (a, b, c, d):
        assert sorted(x.coords) == [0.0] * (x.coords.size - 1) + [1.0]
    lhs = trace_form(product_effect(cs, a, b), product_effect(cs, c, d))
    rhs = trace_form(a, c) * trace_form(b, d)
    assert abs(lhs - rhs) / (1.0 + abs(rhs)) == pytest.approx(cert.worst_residual, abs=1e-12)


def test_unit_factor_product_identities():
    # the sampled identities agree with the basis verdict on each composite
    for fam, na, nb, passes in (
        ("complex", 2, 2, True),
        ("real", 2, 2, True),
        ("quaternion", 2, 2, False),
        ("complex", 4, 2, True),
        ("real", 6, 3, True),
    ):
        cs = _composite(fam, na, nb)
        cert = check_unit_factor_products(cs)
        assert cert.passed is passes, fam
        dim_a, dim_b = cs.part_a.algebra.dim, cs.part_b.algebra.dim
        assert cert.samples == (dim_a + dim_b) * dim_a * dim_b
        scores = sampled_unit_factor_products(cs, samples=100, seed=115)
        assert bool(max(s.max() for s in scores) <= cert.tol) is passes, fam


@pytest.mark.parametrize("first_is_worst", [True, False])
def test_unit_factor_witness_replays_the_worst_residual(monkeypatch, first_is_worst):
    if first_is_worst:
        # both identities break by 1/2 on the quabit pair; a tie reports the
        # first
        cs = _composite("quaternion", 2, 2)
    else:
        # O_01 o O_01 -> D_0 on complex 4: O_01 joins the carrier indices
        # (0, 0) and (0, 1), which differ only in the second factor, so only
        # products against u_A see the bump
        cs = _composite("complex", 2, 2)
        bump_constant(
            monkeypatch, cs.carrier, lambda sc: (sc.I == 4) & (sc.J == 4) & (sc.K == 0)
        )
    cert = check_unit_factor_products(cs)
    assert not cert.passed
    first, second, third = (np.array(x) for x in cert.witnesses)
    # a basis triple
    for x in (first, second, third):
        assert sorted(x) == [0.0] * (x.size - 1) + [1.0]
    u_a, u_b = unit(cs.part_a.algebra), unit(cs.part_b.algebra)
    right, left = (cert.details[f"{side}_unit_residual"] for side in ("right", "left"))
    assert (right >= left) == first_is_worst
    if first_is_worst:
        # (a (x) u) o (b (x) v) = (a o b) (x) v
        a, b = (Element(cs.part_a.algebra, x) for x in (first, second))
        v = Element(cs.part_b.algebra, third)
        lhs = jordan_product(product_effect(cs, a, u_b), product_effect(cs, b, v))
        rhs = product_effect(cs, jordan_product(a, b), v)
    else:
        # (u (x) v) o (a (x) w) = a (x) (v o w)
        v, w = (Element(cs.part_b.algebra, x) for x in (first, third))
        a = Element(cs.part_a.algebra, second)
        lhs = jordan_product(product_effect(cs, u_a, v), product_effect(cs, a, w))
        rhs = product_effect(cs, a, jordan_product(v, w))
    gap = np.abs(lhs.coords - rhs.coords).max() / (1.0 + np.abs(rhs.coords).max())
    assert gap == pytest.approx(cert.worst_residual, abs=1e-12)


def test_unit_factor_oracle_direct(qubit_pair):
    # (a (x) u) o (b (x) v) should equal (a o b) (x) v, both sides computed
    # from raw matrices here.
    from symcone import random_element

    cs = qubit_pair
    rng = np.random.default_rng(118)
    a = random_element(cs.part_a.algebra, rng)
    b = random_element(cs.part_a.algebra, rng)
    v = random_element(cs.part_b.algebra, rng)
    lhs = jordan_product(
        product_effect(cs, a, unit(cs.part_b.algebra)), product_effect(cs, b, v)
    )
    want_mat = 0.5 * (
        np.kron(to_matrix(a) @ to_matrix(b), to_matrix(v))
        + np.kron(to_matrix(b) @ to_matrix(a), to_matrix(v))
    )
    np.testing.assert_allclose(
        to_matrix(lhs), want_mat, atol=1e-10
    )
    want = product_effect(cs, jordan_product(a, b), v)
    np.testing.assert_allclose(lhs.coords, want.coords, atol=1e-10)


def _joint_probs(joint, test):
    return np.array([trace_form(joint.representer, x) for x in test])


def test_product_states_factor(qubit_pair):
    cs = qubit_pair
    sa = uniform_state(cs.part_a)
    sb = uniform_state(cs.part_b)
    joint = product_state(cs, sa, sb)
    test_a = cs.part_a.tests[1]
    test_b = cs.part_b.tests[1]
    probs = _joint_probs(joint, product_test(cs, test_a, test_b))
    np.testing.assert_allclose(probs, 0.25, atol=ATOL)


def test_pure_product_state_is_an_indicator(qubit_pair):
    cs = qubit_pair
    ea = cs.part_a.tests[1]
    eb = cs.part_b.tests[1]
    sa = pure_state_of(cs.part_a, ea[0])
    sb = pure_state_of(cs.part_b, eb[0])
    joint = product_state(cs, sa, sb)
    probs = _joint_probs(joint, product_test(cs, ea, eb))
    want = np.zeros(len(ea) * len(eb))
    want[0] = 1.0
    np.testing.assert_allclose(probs, want, atol=ATOL)


def test_canonical_product_test_is_evaluable(qubit_pair):
    # The canonical frames of the parts multiply out to exactly the
    # carrier's canonical frame, so that one product test is owned by the
    # carrier model and can go through the strict evaluate path.
    cs = qubit_pair
    joint = product_state(cs, uniform_state(cs.part_a), uniform_state(cs.part_b))
    probs = evaluate(joint, product_test(cs, cs.part_a.tests[0], cs.part_b.tests[0]))
    np.testing.assert_allclose(probs, 0.25, atol=ATOL)


def test_nonsignaling_certificates(qubit_pair, rebit_pair, quabit_pair):
    for cs in (qubit_pair, rebit_pair, quabit_pair):
        cert = nonsignaling_check(cs, seed=119)
        assert cert.passed, cert.details
        # count=2 models carry 3 tests per side: 2 * C(3, 2) distinct pairs
        assert cert.details["far_test_pairs"] == 6


def test_nonsignaling_holds_for_arbitrary_carrier_states(qubit_pair):
    # Not just product and entangled states: any normalized carrier state
    # has well-defined marginals.
    from symcone.models import random_state

    rng = np.random.default_rng(124)
    states = [random_state(qubit_pair.carrier_model, rng) for _ in range(100)]
    cert = nonsignaling_check(qubit_pair, states=states, seed=124)
    assert cert.passed
    assert cert.details["states"] == 100
    assert cert.worst_residual < 1e-10


@pytest.mark.parametrize("demo,states", [("qubit-pair", 3), ("rebit-pair", 2), ("quabit-pair", 2)])
def test_nonsignaling_adds_the_bell_state_to_complex_pairs(demo, states):
    # the uniform state, an interior state and, on a complex carrier with
    # parts of equal size, the maximally entangled state
    report = run_model_spec(parse_model_text(demo_text(demo)), RunConfig(suites=("composite",)))
    (cert,) = [
        cert
        for system in report["systems"]
        for cert in system["certificates"]
        if cert["check"] == "nonsignaling_marginals"
    ]
    assert cert["details"]["states"] == states


def test_maximally_entangled_state_matches_matrix_oracle(qubit_pair):
    cs = qubit_pair
    state = maximally_entangled_state(cs)
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)  # (|00> + |11>)/sqrt(2)
    rho = np.outer(psi, psi.conj())
    np.testing.assert_allclose(
        to_matrix(state.representer), rho, atol=1e-12
    )


def test_entangled_marginals_are_uniform(qubit_pair):
    cs = qubit_pair
    state = maximally_entangled_state(cs)
    rho = to_matrix(state.representer).reshape(2, 2, 2, 2)
    np.testing.assert_allclose(np.trace(rho, axis1=1, axis2=3), 0.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.trace(rho, axis1=0, axis2=2), 0.5 * np.eye(2), atol=1e-12)


def test_entangled_state_needs_complex_equal_sizes(rebit_pair):
    with pytest.raises(ValueError, match="complex"):
        maximally_entangled_state(rebit_pair)
    uneven = _composite("complex", 2, 3, seed=7)
    with pytest.raises(ValueError, match="equal"):
        maximally_entangled_state(uneven)


def test_adjoint_lifting(qubit_pair, rebit_pair):
    cert = tensor_adjoint_check(qubit_pair, samples=5, seed=120)
    assert cert.passed, cert.details
    with pytest.raises(ValueError, match="locally tomographic"):
        tensor_adjoint_check(rebit_pair)


def test_lmap_certificates(qubit_pair, rebit_pair):
    full = tensor_lmap_check(qubit_pair)
    assert full.passed
    assert full.check_name == "tensor_lmap"
    embedded = tensor_lmap_check(rebit_pair)
    assert embedded.passed
    assert embedded.check_name == "tensor_lmap_embedded"


@pytest.mark.parametrize(
    "fam,na,nb,passes",
    [
        ("complex", 2, 2, True),
        ("real", 2, 2, True),
        ("quaternion", 2, 2, False),
        ("complex", 4, 2, True),
        ("real", 6, 3, True),
    ],
)
def test_basis_lmap_decides_the_sampled_identity(fam, na, nb, passes):
    cs = _composite(fam, na, nb)
    cert = tensor_lmap_check(cs)
    assert cert.passed is passes
    assert cert.samples == cs.part_a.algebra.dim + cs.part_b.algebra.dim
    draws, scores = sampled_tensor_lmap(cs, samples=50, seed=3)
    assert bool(max(s.max() for s in scores) <= cert.tol) is passes
    # both sides are linear in x, and a basis element's gap is at most twice
    # the worst residual, so a draw's gap is at most ||x||_1 times that
    for x, score in zip(draws, scores):
        gap_bound = 2.0 * np.abs(x).sum(axis=1) * cert.worst_residual
        assert np.all(score <= gap_bound / (1.0 + np.abs(x).max(axis=1)) + 1e-14)


def test_lmap_forms_one_carrier_operator_per_basis_element(monkeypatch):
    cs = _composite("complex", 4, 2)
    carrier = _context(cs.carrier).constants
    left_mult = composites._left_mult_matrix
    on_carrier = []

    def counted(sc, x):
        on_carrier.append(sc is carrier)
        return left_mult(sc, x)

    monkeypatch.setattr(composites, "_left_mult_matrix", counted)
    tensor_lmap_check(cs)
    assert sum(on_carrier) == cs.part_a.algebra.dim + cs.part_b.algebra.dim


def test_lmap_and_unit_factor_checks_share_one_basis_pass(monkeypatch):
    cs = _composite("real", 3, 2)
    left_mult = composites._left_mult_matrix
    calls = []

    def counted(sc, x):
        calls.append(sc)
        return left_mult(sc, x)

    monkeypatch.setattr(composites, "_left_mult_matrix", counted)
    # one carrier and one part operator per basis element of either side,
    # formed by whichever check runs first
    per_pass = 2 * (cs.part_a.algebra.dim + cs.part_b.algebra.dim)
    check_unit_factor_products(cs)
    assert len(calls) == per_pass
    tensor_lmap_check(cs)
    assert len(calls) == per_pass


def test_pair_coords_broadcasts_one_row_against_a_batch(qubit_pair):
    rng = np.random.default_rng(5)
    batch, row = rng.standard_normal((4, 4)), rng.standard_normal(4)
    rows = np.tile(row, (4, 1))
    got = qubit_pair.pair_coords(batch, row)
    assert got.shape == (4, 16)
    np.testing.assert_array_equal(got, qubit_pair.pair_coords(batch, rows))
    np.testing.assert_array_equal(
        qubit_pair.pair_coords(row, batch), qubit_pair.pair_coords(rows, batch)
    )
    with pytest.raises(ValueError):
        qubit_pair.pair_coords(batch[:2], batch[:3])


def test_spin_qubit_isomorphism_against_pauli_oracle():
    mat, residual = spin_qubit_isomorphism()
    assert residual < 1e-12
    # Columns of the map, seen as qubit elements, must multiply exactly like
    # the spin basis: recompute both sides from raw matrices.
    spin = make_algebra("spin", 3)
    qubit = make_algebra("complex", 2)
    basis = np.eye(4)
    for i in range(4):
        for j in range(4):
            a = Element(spin, basis[i])
            b = Element(spin, basis[j])
            image_product = Element(qubit, mat @ jordan_product(a, b).coords)
            qa = Element(qubit, mat @ basis[i])
            qb = Element(qubit, mat @ basis[j])
            want = 0.5 * (
                to_matrix(qa) @ to_matrix(qb) + to_matrix(qb) @ to_matrix(qa)
            )
            np.testing.assert_allclose(to_matrix(image_product), want, atol=1e-10)


def test_spin_qubit_map_is_a_trace_isometry():
    mat, _ = spin_qubit_isomorphism()
    spin = make_algebra("spin", 3)
    qubit = make_algebra("complex", 2)
    rng = np.random.default_rng(123)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    lhs = trace_form(Element(spin, x), Element(spin, y))
    rhs = trace_form(Element(qubit, mat @ x), Element(qubit, mat @ y))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_qubit_witness_table():
    # single descriptors: test_qubit_witness_truth_table
    models = [
        make_model(make_algebra("real", 2), count=1, seed=8),
        make_model(make_algebra("complex", 2), count=1, seed=9),
    ]
    assert qubit_witness(models)
    assert not qubit_witness(models[:1])


@pytest.mark.parametrize(
    "desc", ALL_FAMILIES + [make_algebra("spin", 3)], ids=format_descriptor
)
def test_qubit_witness_truth_table(desc):
    # one simple block of rank 2 and dimension 4: complex 2 or spin 3
    assert qubit_witness(desc) is (format_descriptor(desc) in ("complex 2", "spin 3"))


@pytest.mark.parametrize(
    "desc",
    ALL_FAMILIES
    + [
        make_algebra("spin", 1),
        make_algebra("spin", 3),
        make_algebra("real", 18),
        make_algebra("complex", 12),
        direct_sum(make_algebra("albert"), make_algebra("complex", 2)),
    ],
    ids=format_descriptor,
)
def test_power_rank_is_the_declared_rank(desc):
    assert _power_rank(desc) == desc.rank


@pytest.mark.parametrize(
    "desc",
    [
        make_algebra("spin", 1),
        make_algebra("real", 2),
        direct_sum([make_algebra("real", 1)] * 4),
        direct_sum(make_algebra("real", 1), make_algebra("spin", 2)),
        direct_sum(make_algebra("spin", 1), make_algebra("spin", 1)),
    ],
    ids=format_descriptor,
)
def test_no_other_small_algebra_is_a_qubit(desc):
    assert not qubit_witness(desc)


def test_qubit_witness_reads_the_products_not_the_descriptor(monkeypatch):
    # spin 3's descriptor over the products of four orthogonal idempotents:
    # dimension 4 and rank 4, so no qubit, whatever the descriptor says
    spin = make_algebra("spin", 3)
    four_bits = _context(direct_sum([make_algebra("real", 1)] * 4))
    monkeypatch.setitem(_CONTEXT_CACHE, spin, four_bits)
    assert _power_rank(spin) == 4
    assert not qubit_witness(spin)


@pytest.mark.parametrize("pair", ["qubit_pair", "rebit_pair", "quabit_pair"])
def test_carrier_model_holds_only_its_canonical_frame(request, pair):
    cs = request.getfixturevalue(pair)
    (test,) = cs.carrier_model.tests
    want = np.array([e.coords for e in canonical_frame(cs.carrier)])
    np.testing.assert_array_equal([x.coords for x in test], want)


def test_carrier_model_trace_is_uniform(qubit_pair):
    # uniform (x) uniform behaves as the carrier's own uniform state on
    # product outcomes: value 1/(rank_A * rank_B).
    cs = qubit_pair
    joint = product_state(cs, uniform_state(cs.part_a), uniform_state(cs.part_b))
    fa = tuple(random_jordan_frame(cs.part_a.algebra, seed=10))
    fb = tuple(random_jordan_frame(cs.part_b.algebra, seed=11))
    for a in fa:
        for b in fb:
            p = trace_form(joint.representer, product_effect(cs, a, b))
            assert p == pytest.approx(0.25, abs=ATOL)
    assert trace_of(joint.representer) == pytest.approx(1.0, abs=ATOL)
