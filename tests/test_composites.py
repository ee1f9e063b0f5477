"""Composite systems: tensor embeddings, tomography, and the qubit witness.

The complex, real and quaternionic embeddings are validated against
Kronecker products of the underlying hermitian matrices, computed here
directly (with numpy, and for quaternions with symmetrized entry products)
so the einsum-based embedding has an independent oracle.
"""

import numpy as np
import pytest

from oracle import quat_multiply
from symcone import (
    Element,
    from_matrix,
    jordan_product,
    make_algebra,
    make_model,
    to_matrix,
    trace_form,
    trace_of,
    unit,
)
from symcone.composites import (
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
    spin_qubit_isomorphism,
    tensor_adjoint_check,
    tensor_lmap_check,
)
from symcone.demos import demo_text
from symcone.hypercomplex import embed_quat_matrix
from symcone.modelfile import parse_model_text
from symcone.models import evaluate, model_from_tests, pure_state_of, uniform_state
from symcone.runner import RunConfig, run_model_spec
from symcone.spectral import random_jordan_frame

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
        cert = factorization_check(cs, samples=200, seed=112)
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
    cert = factorization_check(quabit_pair, samples=200, seed=114)
    assert not cert.passed


def test_unit_factor_product_identities(qubit_pair, rebit_pair, quabit_pair):
    assert check_unit_factor_products(qubit_pair, samples=100, seed=115).passed
    assert check_unit_factor_products(rebit_pair, samples=100, seed=116).passed
    assert not check_unit_factor_products(quabit_pair, samples=100, seed=117).passed


# at seed 0 the first identity sets the worst residual, at seed 117 the second
@pytest.mark.parametrize("seed,first_is_worst", [(0, True), (117, False)])
def test_unit_factor_witness_replays_the_worst_residual(quabit_pair, seed, first_is_worst):
    cs = quabit_pair
    cert = check_unit_factor_products(cs, samples=100, seed=seed)
    first, second, third = (np.array(x) for x in cert.witnesses)
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
    full = tensor_lmap_check(qubit_pair, samples=20, seed=121)
    assert full.passed
    assert full.check_name == "tensor_lmap"
    embedded = tensor_lmap_check(rebit_pair, samples=20, seed=122)
    assert embedded.passed
    assert embedded.check_name == "tensor_lmap_embedded"


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
    assert qubit_witness(make_algebra("complex", 2))
    assert not qubit_witness(make_algebra("real", 3))
    assert not qubit_witness(make_algebra("complex", 3))
    assert qubit_witness(make_algebra("spin", 3))
    assert not qubit_witness(make_algebra("spin", 4))
    models = [
        make_model(make_algebra("real", 2), count=1, seed=8),
        make_model(make_algebra("complex", 2), count=1, seed=9),
    ]
    assert qubit_witness(models)
    assert not qubit_witness(models[:1])


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
