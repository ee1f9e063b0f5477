"""Probabilistic models built on algebra frames: states, tests, outcomes."""

import dataclasses
import json
import sys

import numpy as np
import pytest

from symcone import (
    Element,
    direct_sum,
    format_descriptor,
    make_algebra,
    make_model,
    mix,
    model_from_tests,
    pure_state_of,
    random_state,
    trace_form,
    trace_of,
    uniform_state,
    unit,
)
from symcone import models, runner
from symcone.modelfile import parse_model_text
from symcone.models import (
    MODEL_TOL,
    State,
    _dedup_outcomes,
    certify_unital_sharp,
    check_cauchy_schwarz,
    check_reversible_stabilizer,
    check_unital_outcomes_primitive,
    evaluate,
    state_from_coords,
)
from symcone.spectral import is_primitive, random_jordan_frame, spectral_decompose

FAMILIES = [
    make_algebra("real", 3),
    make_algebra("complex", 2),
    make_algebra("quaternion", 2),
    make_algebra("spin", 4),
    make_algebra("albert"),
]

PROB_ATOL = 1e-10


def _frame_test(desc, seed):
    return tuple(random_jordan_frame(desc, seed=seed))


def test_model_tests_resolve_unit():
    desc = make_algebra("complex", 2)
    model = make_model(desc, count=50, seed=81)
    assert len(model.tests) == 51  # canonical frame plus the sampled ones
    for test in model.tests:
        total = sum(x.coords for x in test)
        np.testing.assert_allclose(total, unit(desc).coords, atol=1e-9)


def test_models_with_adjacent_seeds_share_no_sampled_test():
    # the qubit-pair demo's two qubits: seeds 11 and 12, three frames each
    desc = make_algebra("complex", 2)
    a, b = (make_model(desc, count=3, seed=seed) for seed in (11, 12))
    sampled = [
        [np.stack([x.coords for x in test]) for test in model.tests[1:]] for model in (a, b)
    ]
    assert not any(np.array_equal(x, y) for x in sampled[0] for y in sampled[1])


def test_classical_bit_tests_are_basis_idempotents():
    bit = direct_sum(make_algebra("real", 1), make_algebra("real", 1))
    model = make_model(bit, count=1, seed=82)
    for test in model.tests:
        rows = sorted(tuple(x.coords) for x in test)
        np.testing.assert_allclose(rows, [(0.0, 1.0), (1.0, 0.0)], atol=1e-12)


def test_trivial_rank_one_model():
    desc = make_algebra("real", 1)
    model = make_model(desc, count=1, seed=83)
    state = uniform_state(model)
    for test in model.tests:
        assert len(test) == 1
        np.testing.assert_allclose(evaluate(state, test), [1.0], atol=PROB_ATOL)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_uniform_state_is_flat(desc):
    model = make_model(desc, count=5, seed=84)
    state = uniform_state(model)
    for test in model.tests:
        probs = evaluate(state, test)
        np.testing.assert_allclose(probs, 1.0 / desc.rank, atol=PROB_ATOL)


def test_pure_state_is_an_indicator():
    desc = make_algebra("complex", 2)
    test = _frame_test(desc, 85)
    model = model_from_tests(desc, [test])
    state = pure_state_of(model, test[0])
    np.testing.assert_allclose(evaluate(state, test), [1.0, 0.0], atol=PROB_ATOL)


def test_orthogonal_idempotent_gets_zero_probability():
    desc = make_algebra("complex", 2)
    e1, e2 = _frame_test(desc, 86)
    model = model_from_tests(desc, [(e1, e2)])
    state = pure_state_of(model, e2)
    assert evaluate(state, (e1, e2))[0] == pytest.approx(0.0, abs=PROB_ATOL)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_random_states_are_normalized(desc):
    model = make_model(desc, count=6, seed=87)
    rng = np.random.default_rng(88)
    for _ in range(5):
        state = random_state(model, rng)
        for test in model.tests:
            probs = evaluate(state, test)
            assert probs.min() >= -PROB_ATOL
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_frame_models_are_unital_and_sharp(desc):
    model = make_model(desc, count=4, seed=89)
    cert = certify_unital_sharp(model)
    assert cert.passed, cert.details
    assert cert.details["certified"] == cert.details["outcomes"]


def test_subnormalized_outcome_breaks_unitality():
    desc = make_algebra("complex", 2)
    e1, e2 = _frame_test(desc, 90)
    half_test = (
        Element(desc, 0.5 * e1.coords),
        Element(desc, 0.5 * e2.coords),
        Element(desc, 0.5 * (e1.coords + e2.coords)),
    )
    model = model_from_tests(desc, [(e1, e2), half_test])
    cert = certify_unital_sharp(model)
    assert not cert.passed
    assert cert.witnesses


def test_merged_albert_outcome_is_not_sharp():
    # e1 + e2 has spectrum (0, 1, 1): unital, but its top idempotent has
    # trace 2, so two states certify it. The batched top groups must agree
    # with a per-outcome spectral_decompose reference, which takes the
    # minimal-polynomial route on these unseparated spectra.
    desc = make_algebra("albert")
    e1, e2, e3 = _frame_test(desc, 96)
    merged = Element(desc, e1.coords + e2.coords)
    model = model_from_tests(desc, [(e1, e2, e3), (merged, e3)])
    cert = certify_unital_sharp(model)
    assert not cert.passed
    np.testing.assert_array_equal(cert.witnesses, [merged.coords])

    gaps, sharp = [], []
    for x in model.outcomes:
        dec = spectral_decompose(x)
        gaps.append(abs(dec.eigenvalues[-1] - 1.0))
        sharp.append(gaps[-1] <= 1e-9 * desc.rank and is_primitive(dec.idempotents[-1], 1e-8))
    assert sharp == [True, True, True, False]
    assert cert.details == {"outcomes": 4, "certified": 3}
    assert cert.worst_residual == pytest.approx(max(gaps), abs=1e-12)


def test_mixed_outcome_is_flagged_nonunital_not_a_counterexample():
    # A three-outcome uniform test (each outcome has trace 2/3) built from
    # scaled idempotents: every outcome has top eigenvalue below one, so none
    # is unital. That does not challenge the claim that unital outcomes are
    # primitive; the certificate counts them separately and still passes.
    desc = make_algebra("complex", 2)
    e1, e2 = _frame_test(desc, 91)
    blunt_test = (
        Element(desc, (2.0 / 3.0) * e1.coords),
        Element(desc, (2.0 / 3.0) * e2.coords),
        Element(desc, (1.0 / 3.0) * (e1.coords + e2.coords)),
    )
    model = model_from_tests(desc, [(e1, e2), blunt_test])
    cert = check_unital_outcomes_primitive(model)
    assert cert.passed
    assert cert.details["non_unital_outcomes"] == 3
    assert cert.details["non_primitive_unital"] == 0


def test_nonuniform_model_is_rejected_by_precondition():
    desc = make_algebra("complex", 3)
    frame = random_jordan_frame(desc, seed=92)
    lopsided = (frame[0], Element(desc, frame[1].coords + frame[2].coords))
    model = model_from_tests(desc, [lopsided])
    with pytest.raises(ValueError, match="uniform"):
        check_unital_outcomes_primitive(model)
    # the message names the first test that fails, and its first outcome off
    model = model_from_tests(desc, [tuple(frame), lopsided, lopsided[::-1]])
    message = "test 1 has an outcome with trace 1.000000, expected 1.500000"
    with pytest.raises(ValueError, match=message):
        check_unital_outcomes_primitive(model)


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_unital_outcomes_primitive_on_frame_models(desc):
    model = make_model(desc, count=4, seed=93)
    cert = check_unital_outcomes_primitive(model)
    assert cert.passed
    assert cert.details["non_primitive_unital"] == 0


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_cauchy_schwarz_pairings(desc):
    cert = check_cauchy_schwarz(desc, samples=300, seed=94)
    assert cert.passed, cert.details
    assert cert.details["max_pairing"] <= 1.0 + 1e-10
    assert cert.details["min_pairing"] >= -1e-10
    assert cert.details["distance_identity_gap"] < 1e-9


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_reversible_transformations_stabilize_uniform_state(desc):
    cert = check_reversible_stabilizer(desc, samples=8, seed=95)
    assert cert.passed, cert.details
    assert cert.details["sym_displacement_floor"] > 1e-6


def test_generator_off_metric_skew_shows_in_the_isometry_residual(monkeypatch):
    # One skew generator pushed 1e-6 along the identity, a metric-symmetric
    # direction: its exponential is no isometry, and the certificate must
    # say so even though the eigenvector route sees only the skew part.
    import symcone.reconstruction as recon

    desc = make_algebra("spin", 4)
    lie = recon.structure_lie_basis(desc)
    pushed = dataclasses.replace(
        lie, skew_basis=lie.skew_basis[:1] + 1e-6 * np.eye(desc.dim)
    )
    monkeypatch.setattr(recon, "structure_lie_basis", lambda algebra: pushed)
    cert = check_reversible_stabilizer(desc, samples=4, seed=95)
    assert not cert.passed
    assert cert.worst_residual >= 1e-6


def test_state_from_coords_validation():
    desc = make_algebra("complex", 2)
    model = make_model(desc, count=2, seed=96)
    with pytest.raises(ValueError, match="outside the cone"):
        state_from_coords(model, -unit(desc).coords)
    with pytest.raises(ValueError, match="not normalized"):
        state_from_coords(model, unit(desc).coords)
    state = state_from_coords(model, 0.5 * unit(desc).coords)
    assert isinstance(state, State)


def test_pure_state_requires_primitive():
    desc = make_algebra("complex", 2)
    model = make_model(desc, count=2, seed=97)
    with pytest.raises(ValueError, match="primitive"):
        pure_state_of(model, unit(desc))


def test_mixing_states():
    desc = make_algebra("quaternion", 2)
    model = make_model(desc, count=3, seed=98)
    a = uniform_state(model)
    b = random_state(model, np.random.default_rng(99))
    mixed = mix(a, b, 0.25)
    for test in model.tests:
        want = 0.25 * evaluate(a, test) + 0.75 * evaluate(b, test)
        np.testing.assert_allclose(evaluate(mixed, test), want, atol=1e-12)
    with pytest.raises(ValueError, match="weight"):
        mix(a, b, 1.5)
    other = make_model(make_algebra("real", 2), count=2, seed=100)
    with pytest.raises(ValueError, match="different models"):
        mix(a, uniform_state(other), 0.5)


def test_evaluate_rejects_foreign_tests():
    desc = make_algebra("complex", 2)
    model = make_model(desc, count=2, seed=101)
    state = uniform_state(model)
    foreign = _frame_test(desc, 12345)
    with pytest.raises(ValueError, match="belong"):
        evaluate(state, foreign)


def test_evaluate_finds_own_tests_without_comparing_coordinates(monkeypatch):
    # Evaluating every model test must not rescan the tests before it, or
    # the uniform-state check is quadratic in the test count.
    model = make_model(make_algebra("real", 3), count=200, seed=106)
    compared = []
    real = np.array_equal

    def counting(a, b, *args, **kwargs):
        compared.append(1)
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counting)
    cert = runner._uniform_state_values(model, runner.RunConfig(), 0)
    assert cert.passed and cert.samples == 201
    assert not compared
    # an equal copy of a model test is still found, by its coordinates
    copy = tuple(Element(x.algebra, x.coords.copy()) for x in model.tests[150])
    state = uniform_state(model)
    np.testing.assert_array_equal(evaluate(state, copy), evaluate(state, model.tests[150]))
    assert compared


def test_model_from_tests_validation():
    desc = make_algebra("complex", 2)
    e1, e2 = _frame_test(desc, 102)
    with pytest.raises(ValueError, match="resolve"):
        model_from_tests(desc, [(e1, e1)])
    with pytest.raises(ValueError, match="outside the cone"):
        bad = Element(desc, -e1.coords)
        model_from_tests(desc, [(bad, e1, e2)])
    with pytest.raises(ValueError, match="no outcomes"):
        model_from_tests(desc, [()])


def test_model_from_tests_checks_cone_in_one_batch_and_names_first_test(monkeypatch):
    desc = make_algebra("complex", 2)
    e1, e2 = _frame_test(desc, 102)
    bad = Element(desc, -e1.coords)
    calls = []
    real = models.eigenvalues_batch

    def counting(algebra, coords):
        calls.append(coords.shape[0])
        return real(algebra, coords)

    monkeypatch.setattr(models, "eigenvalues_batch", counting)
    with pytest.raises(ValueError, match="test 1 has an outcome outside the cone"):
        model_from_tests(desc, [(e1, e2), (e1, bad, e2), (bad, e2, e1)])
    assert calls == [8]


def _dedup_reference(tests):
    """The all-pairs greedy loop the sorted window must reproduce."""
    outcomes = [x for test in tests for x in test]
    coords = np.array([x.coords for x in outcomes])
    kept = np.ones(len(outcomes), dtype=bool)
    for i in range(len(outcomes)):
        if kept[i]:
            gaps = np.abs(coords[i + 1 :] - coords[i]).max(axis=1)
            kept[i + 1 :] &= ~(gaps <= MODEL_TOL)
    return tuple(x for x, keep in zip(outcomes, kept) if keep)


def test_outcome_dedup_matches_all_pairs_greedy_loop():
    # Planted near-duplicates, rows tied in every coordinate but one, and
    # chains a ~ b ~ c with a and c apart: greedy first-seen keeps a and c
    # and drops b, so the result depends on the order rows arrive in.
    desc = make_algebra("real", 3)
    rng = np.random.default_rng(105)
    base = rng.standard_normal((60, desc.dim))
    base[:, 0] *= 10.0  # the widest-spread coordinate, which rows sort on
    step, key_step = np.zeros(desc.dim), np.zeros(desc.dim)
    step[2] = key_step[0] = 0.7 * MODEL_TOL
    tied = base[30:40].copy()
    tied[:, 4] += 1.0
    coords = np.vstack([
        base,
        base[:20] + rng.uniform(-0.5, 0.5, (20, desc.dim)) * MODEL_TOL,
        base[20:25] + step,
        base[20:25] + 2 * step,
        base[25:30] + key_step,
        base[25:30] + 2 * key_step,
        tied,
        base[40:45] + 1.5 * MODEL_TOL,
    ])
    for seed in range(4):
        order = np.random.default_rng(seed).permutation(len(coords))
        elems = [Element(desc, row) for row in coords[order]]
        tests = tuple(tuple(elems[k : k + 3]) for k in range(0, len(elems), 3))
        got, want = _dedup_outcomes(tests), _dedup_reference(tests)
        assert [id(x) for x in got] == [id(x) for x in want]
        assert len(base) < len(got) < len(coords)
    chain = [Element(desc, base[0] + k * step) for k in range(3)]
    assert _dedup_outcomes(((chain[0], chain[1], chain[2]),)) == (chain[0], chain[2])
    assert _dedup_outcomes(((chain[1], chain[0], chain[2]),)) == (chain[1],)


def test_outcome_pool_is_deduplicated():
    desc = make_algebra("complex", 2)
    e1, e2 = _frame_test(desc, 103)
    model = model_from_tests(desc, [(e1, e2), (e1, e2), (e2, e1)])
    assert len(model.outcomes) == 2
    # mixing the frame by t moves each outcome by t * max|e2 - e1| in its
    # farthest coordinate: within MODEL_TOL it is the same outcome, at
    # 2 * MODEL_TOL a new one
    def mixed(gap):
        t = gap / np.abs(e2.coords - e1.coords).max()
        return (e1 * (1 - t) + e2 * t, e1 * t + e2 * (1 - t))

    near, far = mixed(0.5 * MODEL_TOL), mixed(2 * MODEL_TOL)
    model = model_from_tests(desc, [(e1, e2), near, far])
    assert [x.coords.tolist() for x in model.outcomes] == [
        x.coords.tolist() for x in (e1, e2) + far
    ]


def test_uniform_state_trace():
    desc = make_algebra("albert")
    model = make_model(desc, count=2, seed=104)
    state = uniform_state(model)
    assert trace_of(state.representer) == pytest.approx(1.0, abs=1e-12)


def _uniform_state_reference(model):
    """The uniform-state residual read one outcome at a time."""
    w = uniform_state(model).representer
    rank = model.algebra.rank
    worst = 0.0
    for test in model.tests:
        probs = np.array([trace_form(w, x) for x in test])
        worst = max(worst, float(abs(probs.sum() - 1.0)))
        for x, p in zip(test, probs):
            worst = max(worst, abs(p - trace_of(x) / rank))
    for x in model.outcomes:
        if abs(trace_of(x) - 1.0) <= 1e-6 * rank:
            worst = max(worst, abs(trace_form(w, x) - 1.0 / rank))
    return worst


def test_model_suite_reads_traces_and_pairings_in_batches(monkeypatch):
    # A 2000-frame real 8 model: the uniform-state values and the uniformity
    # precondition read every outcome's trace and pairing in one batch, not
    # one trace_of / trace_form call per outcome.
    text = json.dumps({"schema_version": 1, "name": "wide", "systems": [
        {"name": "real8", "algebra": {"family": "real", "size": 8},
         "tests": {"mode": "sampled", "count": 2000, "seed": 3}}]})
    spec = parse_model_text(text)
    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("symcone")]:
        for name in ("trace_of", "trace_form"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real: (
                    calls.append(_n) or _f(*a)))
    built = []
    build = runner._build_model
    monkeypatch.setattr(runner, "_build_model", lambda *a: built.append(build(*a)) or built[-1])
    report = runner.run_model_spec(spec, runner.RunConfig(suites=("model",)))
    assert report["summary"]["failed"] == 0
    assert not calls
    monkeypatch.undo()
    cert = {c["check"]: c for c in report["systems"][0]["certificates"]}["uniform_state_values"]
    assert cert["worst_residual"] == _uniform_state_reference(built[0])
    assert cert["details"]["pooled_primitive_outcomes"] == 8 * 2001


@pytest.mark.parametrize("desc", FAMILIES, ids=format_descriptor)
def test_batched_uniform_state_values_equal_the_outcome_loop(desc):
    # Sums, traces and pairings add in the order of the per-outcome loop, so
    # the residual is equal bit for bit, with tests of several sizes too.
    frames = make_model(desc, count=60, seed=107).tests
    e = frames[1]
    coarse = (e[0], Element(desc, sum(x.coords for x in e[1:])))
    model = model_from_tests(desc, [*frames, coarse] if desc.rank > 2 else frames)
    cert = runner._uniform_state_values(model, runner.RunConfig(), 0)
    assert cert.worst_residual == _uniform_state_reference(model)
