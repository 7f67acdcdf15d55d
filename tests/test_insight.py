from __future__ import annotations

import math

import pytest

from repotailor.errors import EmptyTestSet, EmptyTrainSet, NonPositiveDelta
from repotailor.javalex import CHAR_LITERAL, IDENTIFIER, NUMBER_LITERAL, STRING_LITERAL, lex
from repotailor.insight import (
    CostScenario,
    breakeven_inferences,
    cost_curve,
    coverage_report,
    load_scenarios,
    reconstruct_method_text,
    signature_coverage,
    training_relevance,
    vocab_coverage,
    vocabulary_elements,
    weeks_to_breakeven,
)

from conftest import make_instance


def inst(tag, signature, context, target, author="d"):
    return make_instance(author, tag=tag, signature=signature, context=context, target=target)


def java_instance(tag, signature, body):
    return inst(tag, signature, f"void m() {{ <FILL_ME> }}", body)


def test_signature_coverage_full_and_disjoint():
    test = [inst("t0", "a()", "x <FILL_ME>", "y"), inst("t1", "b()", "x <FILL_ME>", "y")]
    train_full = [inst("r0", "a()", "x <FILL_ME>", "y"), inst("r1", "b()", "x <FILL_ME>", "y")]
    train_none = [inst("r2", "zz()", "x <FILL_ME>", "y")]
    assert signature_coverage(test, train_full) == 1.0
    assert signature_coverage(test, train_none) == 0.0


def test_signature_coverage_quarter():
    test = [inst(f"t{i}", f"sig{i}()", "c <FILL_ME>", "t") for i in range(8)]
    train = [inst("r0", "sig0()", "c <FILL_ME>", "t"), inst("r1", "sig5()", "c <FILL_ME>", "t")]
    assert signature_coverage(test, train) == 0.25


def test_signature_coverage_empty_test_raises():
    with pytest.raises(EmptyTestSet):
        signature_coverage([], [inst("r", "a()", "c <FILL_ME>", "t")])


def test_vocabulary_elements_exclude_keywords_and_operators():
    elements = vocabulary_elements([
        java_instance("t", "m()", 'int total = compute(name, "label", 42);')
    ])
    assert "total" in elements
    assert "compute" in elements
    assert '"label"' in elements
    assert "42" in elements
    assert "int" not in elements  # keyword
    assert "void" not in elements
    assert "=" not in elements
    assert ";" not in elements


def test_vocab_coverage_identical_and_disjoint():
    a = [java_instance("a", "m()", "alpha = beta + 1;")]
    b = [java_instance("b", "m()", "gamma = delta + 2;")]
    assert vocab_coverage(a, a) == 1.0
    assert vocab_coverage(a, b) == pytest.approx(1 / 4)  # only "m" shared


def test_vocab_coverage_monotone_in_training_data():
    test = [java_instance("t", "m()", "alpha = beta + gamma;")]
    small = [java_instance("r0", "m()", "alpha = 1;")]
    bigger = small + [java_instance("r1", "m()", "beta = 2;")]
    assert vocab_coverage(test, small) <= vocab_coverage(test, bigger)


def test_training_relevance_mirrors_and_orders_like_specific_data():
    test = [java_instance("t", "m()", "alpha = beta + gamma;")]
    focused = [java_instance("r0", "m()", "alpha = beta;")]
    generic = [
        java_instance(f"g{i}", "m()", f"unrelated{i} = other{i} + {i};") for i in range(30)
    ] + [java_instance("g-hit", "m()", "alpha = 9;")]
    specific_relevance = training_relevance(focused, test)
    generic_relevance = training_relevance(generic, test)
    assert specific_relevance > generic_relevance
    assert training_relevance(test, test) == 1.0


def test_training_relevance_disjoint_is_zero():
    # bare-sentinel contexts leave vocabulary to the targets alone
    test = [inst("t", "a()", "<FILL_ME>", "alpha = 1;")]
    train = [inst("r", "b()", "<FILL_ME>", "beta = 2;")]
    assert training_relevance(train, test) == 0.0
    assert vocab_coverage(test, train) == 0.0


def test_training_relevance_empty_train_raises():
    with pytest.raises(EmptyTrainSet):
        training_relevance([], [java_instance("t", "m()", "x = 1;")])


def test_coverage_report_bundles_all_three():
    test = [java_instance("t", "sig()", "alpha = beta;")]
    report = coverage_report(test, test)
    assert report.signature_coverage == 1.0
    assert report.vocab_coverage == 1.0
    assert report.training_relevance == 1.0
    assert 0 < report.test_vocab_size == report.train_vocab_size


def test_coverage_report_same_with_precomputed_vocabularies_and_memo():
    test = [java_instance(f"t{i}", f"s{i % 3}()", f"alpha{i} = beta + {i};") for i in range(6)]
    train = [java_instance(f"r{i}", f"s{i % 4}()", f"alpha{i % 2} = gamma * {i};") for i in range(9)]
    expected = coverage_report(test, train)

    def reference_vocab(instances):  # the per-token loop, no memo
        kinds = (IDENTIFIER, STRING_LITERAL, CHAR_LITERAL, NUMBER_LITERAL)
        return {
            tok.text for i in instances for tok in lex(reconstruct_method_text(i)) if tok.kind in kinds
        }

    test_ref, train_ref = reference_vocab(test), reference_vocab(train)
    assert expected.vocab_coverage == len(test_ref & train_ref) / len(test_ref)
    assert expected.training_relevance == len(train_ref & test_ref) / len(train_ref)
    assert (expected.test_vocab_size, expected.train_vocab_size) == (len(test_ref), len(train_ref))
    memo = {}
    assert coverage_report(test, train, memo=memo) == expected
    assert memo  # filled, and reused below
    test_vocab = vocabulary_elements(test, memo)
    train_vocab = vocabulary_elements(train, memo)
    assert test_vocab == vocabulary_elements(test) and train_vocab == vocabulary_elements(train)
    assert coverage_report(test, train, test_vocab=test_vocab, train_vocab=train_vocab) == expected
    assert coverage_report(test, train, test_vocab=test_vocab, memo=memo) == expected
    assert expected.vocab_coverage == vocab_coverage(test, train)
    assert expected.training_relevance == training_relevance(train, test)


def test_coverage_report_empty_sets_raise():
    some = [java_instance("t", "m()", "x = 1;")]
    with pytest.raises(EmptyTestSet):
        coverage_report([], [])
    with pytest.raises(EmptyTrainSet):
        coverage_report(some, [], test_vocab=vocabulary_elements(some), train_vocab=set())


def test_vocabulary_elements_lexes_each_distinct_text_once(monkeypatch):
    import repotailor.insight as insight_module

    calls = []
    real_lex = insight_module.lex
    monkeypatch.setattr(insight_module, "lex", lambda text: calls.append(text) or real_lex(text))
    same = [java_instance(f"t{i}", "m()", "alpha = beta;") for i in range(4)]
    other = [java_instance("o", "m()", "gamma = 1;")]
    memo = {}
    assert vocabulary_elements(same, memo) == vocabulary_elements(same)
    vocabulary_elements(same + other, memo)
    # with the memo: the shared text, later only the new one; without: the shared text again
    assert len(calls) == 3


def make_scenario(training_cost, delta=1.6686e-5, developers=10, weekly=1150):
    return CostScenario(
        name="s",
        training_cost=training_cost,
        inference_cost_small=1.0e-5,
        inference_cost_large=1.0e-5 + delta,
        developers=developers,
        weekly_rate=weekly,
    )


def test_breakeven_best_case():
    n_star = breakeven_inferences(make_scenario(0.75))
    assert n_star == pytest.approx(44_948, rel=0.01)


def test_breakeven_worst_case():
    n_star = breakeven_inferences(make_scenario(4.53))
    assert n_star == pytest.approx(272_824, rel=0.01)


def test_breakeven_zero_training_cost():
    assert breakeven_inferences(make_scenario(0.0)) == 0.0


def test_breakeven_requires_positive_delta():
    bad = CostScenario("s", 1.0, 2e-5, 1e-5, 10, 1150)
    with pytest.raises(NonPositiveDelta):
        breakeven_inferences(bad)


def test_breakeven_linear_in_training_cost():
    lo = breakeven_inferences(make_scenario(1.0))
    hi = breakeven_inferences(make_scenario(3.0))
    assert hi == pytest.approx(3 * lo)


def test_weeks_to_breakeven_shipped_cases():
    best = make_scenario(0.75)
    worst = make_scenario(4.53)
    w_best = weeks_to_breakeven(breakeven_inferences(best), best)
    w_worst = weeks_to_breakeven(breakeven_inferences(worst), worst)
    assert w_best.whole == 4
    assert w_worst.whole == 24
    assert w_best.raw == pytest.approx(3.9, abs=0.1)


def test_weeks_scale_with_developer_count():
    forty = make_scenario(0.75, developers=40)
    weeks = weeks_to_breakeven(breakeven_inferences(forty), forty)
    assert weeks.whole == 1


def test_cost_curve_endpoints_and_crossing():
    scenario = make_scenario(0.75)
    n_star = breakeven_inferences(scenario)
    points = cost_curve(scenario, int(n_star * 2), points=401)
    assert points[0].inferences == 0
    assert points[0].personalized_small == scenario.training_cost
    assert points[0].generic_large == 0.0
    crossings = 0
    for before, after in zip(points, points[1:]):
        sign_before = before.personalized_small - before.generic_large
        sign_after = after.personalized_small - after.generic_large
        if sign_before > 0 >= sign_after:
            crossings += 1
            assert before.inferences <= n_star <= after.inferences
    assert crossings == 1


def test_shipped_scenarios_reproduce_costs():
    scenarios = load_scenarios()
    assert set(scenarios) == {"best", "worst"}
    best, worst = scenarios["best"], scenarios["worst"]
    assert best.training_cost == 0.75
    assert worst.training_cost == 4.53
    assert breakeven_inferences(best) == pytest.approx(44_948, rel=0.01)
    assert breakeven_inferences(worst) == pytest.approx(272_824, rel=0.01)
    assert weeks_to_breakeven(breakeven_inferences(best), best).whole == 4
    assert weeks_to_breakeven(breakeven_inferences(worst), worst).whole == 24


def test_scenario_file_override(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        '{"inference_cost_small": 1e-6, "inference_cost_large": 2e-6,'
        ' "developers": 5, "weekly_rate": 100,'
        ' "training_cost_best": 1.0, "training_cost_worst": 2.0}',
        encoding="utf-8",
    )
    scenarios = load_scenarios(path)
    assert breakeven_inferences(scenarios["best"]) == pytest.approx(1_000_000)
    assert math.ceil(1_000_000 / 500) == weeks_to_breakeven(
        breakeven_inferences(scenarios["best"]), scenarios["best"]
    ).whole
