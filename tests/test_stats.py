from __future__ import annotations

import math
import random

import pytest

from repotailor.errors import InstanceSetMismatch
from repotailor.metrics import ScoreRow
from repotailor.stats import (
    DIRECTION_A,
    DIRECTION_NONE,
    FLAG_ALL_ZERO_DIFFERENCES,
    FLAG_OR_INFINITE,
    PairedOutcome,
    cliffs_delta_paired,
    compare_models,
    exact_binomial_two_sided,
    mcnemar,
    wilcoxon_signed_rank,
)

from oracles import (
    binomial_two_sided_oracle,
    cliffs_delta_oracle,
    wilcoxon_enumeration_oracle,
)


def test_mcnemar_odds_ratio_definition():
    result = mcnemar(PairedOutcome(0, 20, 10, 0))
    assert result.effect == 2.0
    assert result.direction == DIRECTION_A


def test_mcnemar_symmetric_center():
    result = mcnemar(PairedOutcome(3, 15, 15, 3))
    assert result.effect == 1.0
    assert result.p_value == 1.0
    assert result.direction == DIRECTION_NONE
    assert not result.significant


def test_mcnemar_exact_small_sample():
    result = mcnemar(PairedOutcome(0, 9, 1, 0))
    assert result.p_value == 0.021484375
    assert result.significant
    assert result.effect == 9.0


def test_mcnemar_infinite_odds_ratio_flagged():
    result = mcnemar(PairedOutcome(0, 5, 0, 0))
    assert math.isinf(result.effect)
    assert FLAG_OR_INFINITE in result.flags
    assert result.to_record()["effect"] == "inf"


def test_mcnemar_no_discordance():
    result = mcnemar(PairedOutcome(10, 0, 0, 10))
    assert result.p_value == 1.0
    assert result.effect == 1.0


def test_mcnemar_exact_matches_oracle():
    for n10 in range(0, 13):
        for n01 in range(0, 13):
            if n10 + n01 == 0 or n10 + n01 >= 25:
                continue
            result = mcnemar(PairedOutcome(0, n10, n01, 0))
            assert result.p_value == binomial_two_sided_oracle(n10, n10 + n01)


def test_mcnemar_branch_agreement_on_boundary():
    for nd in (24, 25, 26):
        for k in range(nd + 1):
            exact = exact_binomial_two_sided(k, nd)
            approx = mcnemar(PairedOutcome(0, k, nd - k, 0)).p_value
            assert abs(exact - approx) < 0.01


def test_mcnemar_swap_antisymmetry_fuzz():
    rng = random.Random(21)
    for _ in range(1000):
        n10, n01 = rng.randint(0, 40), rng.randint(0, 40)
        fwd = mcnemar(PairedOutcome(0, n10, n01, 0))
        rev = mcnemar(PairedOutcome(0, n01, n10, 0))
        assert fwd.p_value == rev.p_value
        if 0 < n01 and 0 < n10:
            assert rev.effect == pytest.approx(1.0 / fwd.effect)


def test_wilcoxon_identical_samples():
    result = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.p_value == 1.0
    assert FLAG_ALL_ZERO_DIFFERENCES in result.flags


def test_wilcoxon_five_positive_differences():
    a = [2.0, 3.0, 4.0, 5.0, 6.0]
    b = [1.0, 2.0, 3.0, 4.0, 5.0]
    result = wilcoxon_signed_rank(a, b)
    assert result.p_value == 0.0625
    assert result.direction == DIRECTION_A


def test_wilcoxon_exact_matches_enumeration_oracle():
    rng = random.Random(77)
    for _ in range(30):
        m = rng.randint(2, 12)
        a = [round(rng.random(), 2) for _ in range(m)]
        b = [round(rng.random(), 2) for _ in range(m)]
        mine = wilcoxon_signed_rank(a, b, method="exact").p_value
        oracle = wilcoxon_enumeration_oracle(a, b)
        assert mine == pytest.approx(oracle, abs=1e-12)


def test_wilcoxon_approx_close_to_enumeration_at_20_pairs():
    rng = random.Random(55)
    for _ in range(25):
        a = [rng.random() for _ in range(20)]
        b = [rng.random() for _ in range(20)]
        approx = wilcoxon_signed_rank(a, b, method="approx").p_value
        exact = wilcoxon_enumeration_oracle(a, b)
        assert abs(approx - exact) < 0.01


def test_wilcoxon_approx_close_to_enumeration_at_30_pairs():
    rng = random.Random(303)
    for _ in range(5):
        a = [rng.random() for _ in range(30)]
        b = [rng.random() for _ in range(30)]
        approx = wilcoxon_signed_rank(a, b, method="approx").p_value
        exact = wilcoxon_enumeration_oracle(a, b)
        assert abs(approx - exact) < 0.01


def test_wilcoxon_auto_uses_approx_above_20_pairs():
    rng = random.Random(11)
    a = [rng.random() for _ in range(21)]
    b = [rng.random() for _ in range(21)]
    auto = wilcoxon_signed_rank(a, b).p_value
    assert auto == wilcoxon_signed_rank(a, b, method="approx").p_value


def test_wilcoxon_handles_ties_with_midranks():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [0.5, 1.5, 2.5, 4.5]  # |d| = .5 four ways -> midranks
    result = wilcoxon_signed_rank(a, b)
    assert 0.0 < result.p_value <= 1.0


def test_wilcoxon_rejects_mismatched_lengths():
    with pytest.raises(InstanceSetMismatch):
        wilcoxon_signed_rank([1.0], [1.0, 2.0])
    with pytest.raises(InstanceSetMismatch):
        wilcoxon_signed_rank([], [])


def test_cliffs_delta_examples():
    assert cliffs_delta_paired([2, 3, 4], [1, 2, 3]) == 1.0
    assert cliffs_delta_paired([1, 2, 3], [1, 2, 3]) == 0.0
    assert cliffs_delta_paired([1, 2, 3], [2, 1, 3]) == 0.0


def test_cliffs_delta_brute_force_and_antisymmetry():
    rng = random.Random(13)
    for _ in range(1000):
        m = rng.randint(1, 30)
        a = [rng.random() for _ in range(m)]
        b = [rng.random() if rng.random() < 0.9 else a[i] for i in range(m)]
        delta = cliffs_delta_paired(a, b)
        assert delta == pytest.approx(cliffs_delta_oracle(a, b))
        assert cliffs_delta_paired(b, a) == pytest.approx(-delta)
        assert -1.0 <= delta <= 1.0


def test_cliffs_delta_monotone_transform_invariance():
    rng = random.Random(99)
    a = [rng.random() for _ in range(40)]
    b = [rng.random() for _ in range(40)]
    base = cliffs_delta_paired(a, b)
    transformed = cliffs_delta_paired([math.exp(3 * x) for x in a], [math.exp(3 * x) for x in b])
    assert base == transformed


def rows(model_scores: dict[str, tuple[bool, float]]) -> list[ScoreRow]:
    return [
        ScoreRow(instance_id=key, em=em, crystal_bleu=cb, bleu=cb)
        for key, (em, cb) in model_scores.items()
    ]


def test_compare_models_dominance():
    n = 30
    rows_a = rows({f"i{i}": (True, 0.9) for i in range(n)})
    rows_b = rows({f"i{i}": (False, 0.2) for i in range(n)})
    _, em_result, cb_result = compare_models(rows_a, rows_b)
    assert em_result.direction == DIRECTION_A
    assert cb_result.direction == DIRECTION_A
    assert cb_result.effect == 1.0


def test_compare_models_identical_rows():
    n = 40
    shared = {f"i{i}": (i % 3 == 0, 0.5) for i in range(n)}
    _, em_result, cb_result = compare_models(rows(shared), rows(shared))
    assert em_result.effect == 1.0
    assert cb_result.effect == 0.0
    assert em_result.p_value >= 0.05 and cb_result.p_value >= 0.05
    assert not em_result.significant and not cb_result.significant


def test_compare_models_excludes_double_em():
    scores_a = {"i0": (True, 1.0), "i1": (True, 1.0), "i2": (False, 0.4), "i3": (True, 1.0)}
    scores_b = {"i0": (True, 1.0), "i1": (False, 0.3), "i2": (False, 0.6), "i3": (True, 1.0)}
    rows_a, rows_b = rows(scores_a), rows(scores_b)
    outcome, em_result, cb_result = compare_models(rows_a, rows_b)
    assert outcome == PairedOutcome(n11=2, n10=1, n01=0, n00=1)
    # n11 = 2 -> CB comparison over the remaining 2 pairs
    assert cb_result.effect == pytest.approx((1 - 1) / 2)
    em_rec = em_result.to_record()
    assert em_rec["test"] == "mcnemar"


def test_compare_models_mismatched_ids():
    rows_a = rows({"i0": (True, 1.0)})
    rows_b = rows({"iX": (True, 1.0)})
    with pytest.raises(InstanceSetMismatch):
        compare_models(rows_a, rows_b)
    twice = rows_a + rows_a
    for pair in ((rows_a, twice), (twice, rows_a)):  # a duplicate id on either side
        with pytest.raises(InstanceSetMismatch):
            compare_models(*pair)


def test_model_swap_antisymmetry_on_comparison():
    rng = random.Random(3)
    ids = [f"i{i}" for i in range(60)]
    scores_a = {k: (rng.random() < 0.4, round(rng.random(), 3)) for k in ids}
    scores_b = {k: (rng.random() < 0.4, round(rng.random(), 3)) for k in ids}
    _, em_ab, cb_ab = compare_models(rows(scores_a), rows(scores_b))
    _, em_ba, cb_ba = compare_models(rows(scores_b), rows(scores_a))
    assert em_ab.p_value == em_ba.p_value
    assert cb_ab.p_value == pytest.approx(cb_ba.p_value, abs=1e-12)
    assert cb_ab.effect == pytest.approx(-cb_ba.effect)
    if math.isfinite(em_ab.effect) and em_ab.effect > 0:
        assert em_ba.effect == pytest.approx(1.0 / em_ab.effect)
