from __future__ import annotations

import random
from collections import Counter

import pytest

from repotailor.errors import DatasetMismatch
from repotailor.javalex import token_texts
from repotailor.metrics import (
    DEFAULT_MAX_ORDER,
    ModelReport,
    PredictionRecord,
    ScoreRow,
    corpus_report,
    count_ngrams,
    score_pair,
    trivially_shared_ngrams,
)

from conftest import make_instance
from oracles import (
    bleu_oracle,
    reference_count_ngrams,
    reference_crystal_bleu_flagged,
    reference_plain_bleu,
    reference_trivially_shared_ngrams,
)


def scores(cand, ref, trivial=frozenset(), max_order=DEFAULT_MAX_ORDER):
    """(CrystalBLEU, BLEU, degenerate) of two token lists."""
    return score_pair(count_ngrams(cand, max_order), count_ngrams(ref, max_order), len(cand), len(ref), trivial)


def exact_match(prediction, target):
    """The EM flag of ``prediction`` scored against a one-instance test set."""
    inst = make_instance("d", tag="0", target=target)
    return corpus_report([inst], {"m": [PredictionRecord(inst.instance_id, "m", prediction)]}, set())["m"].rows[0].em


def test_exact_match_ignores_whitespace():
    assert exact_match("a+b;", "a + b;")


def test_exact_match_rejects_different_code():
    assert not exact_match("a+b;", "a-b;")


def test_exact_match_empty_strings():
    assert exact_match("", "")
    assert exact_match("// only a comment", "")


def test_exact_match_is_equivalence_relation():
    samples = ["a + b;", "a+b ;", "x = 1;", "x=1;", "return y;"]
    for x in samples:
        assert exact_match(x, x)
    for x in samples:
        for y in samples:
            assert exact_match(x, y) == exact_match(y, x)
            for z in samples:
                if exact_match(x, y) and exact_match(y, z):
                    assert exact_match(x, z)


def test_trivial_ngrams_k_zero():
    assert trivially_shared_ngrams([["a", "a"]], k=0, max_order=2) == set()


def test_trivial_ngrams_most_frequent():
    corpus = [["a", "a", "a", "b"]]
    assert trivially_shared_ngrams(corpus, k=1, max_order=1) == {("a",)}


def test_trivial_ngrams_k_exceeds_distinct():
    corpus = [["a", "b"]]
    grams = trivially_shared_ngrams(corpus, k=100, max_order=2)
    assert grams == {("a",), ("b",), ("a", "b")}


def test_trivial_ngrams_tie_breaks_lexicographically():
    corpus = [["b", "a"]]  # both unigrams occur once
    assert trivially_shared_ngrams(corpus, k=1, max_order=1) == {("a",)}


def test_trivial_ngrams_match_reference_at_ties_of_the_kth_count():
    rng = random.Random(18)
    split_ties = 0
    for _ in range(2000):
        vocab = "abcdef"[: rng.randint(1, 6)]
        corpus = [[rng.choice(vocab) for _ in range(rng.randint(0, 8))] for _ in range(rng.randint(0, 6))]
        max_order = rng.randint(1, 6)
        totals = sum((reference_count_ngrams(tokens, max_order) for tokens in corpus), Counter())
        distinct, counts = len(totals), sorted(totals.values(), reverse=True)
        for k in (0, rng.randint(1, max(1, distinct - 1)), distinct, distinct + rng.randint(1, 5)):
            assert trivially_shared_ngrams(corpus, k, max_order) == reference_trivially_shared_ngrams(
                corpus, k, max_order
            ), (corpus, k, max_order)
            split_ties += 0 < k < distinct and counts[k - 1] == counts[k]
    assert split_ties > 800  # ties at the k-th count are cut, not all taken


def test_crystal_bleu_identity_is_one():
    tokens = token_texts("int x = compute(a, b);")
    assert scores(tokens, tokens) == (1.0, 1.0, False)


def test_crystal_bleu_empty_candidate_is_zero():
    assert scores([], ["a"]) == (0.0, 0.0, False)


def test_crystal_bleu_matches_plain_bleu_without_exclusions():
    rng = random.Random(1234)
    vocab = ["a", "b", "if", "(", ")", "{", "}", "=", ";", "x", "y", "return"]
    for _ in range(100):
        cand = [rng.choice(vocab) for _ in range(rng.randint(1, 30))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 30))]
        cb, bleu, _ = scores(cand, ref)
        assert cb == pytest.approx(bleu, abs=1e-15)
        assert cb == pytest.approx(bleu_oracle(cand, ref), abs=1e-12)


def test_crystal_bleu_discounts_trivial_overlap():
    # candidate shares ONLY the boilerplate prefix with the reference
    cand = ["if", "(", "x", "==", "1", ")", "doA", "(", ")", ";"]
    ref = ["if", "(", "x", "==", "2", ")", "doB", "(", ")", ";"]
    trivial = trivially_shared_ngrams([["if", "(", "x", "=="]] * 50, k=10, max_order=4)
    cb, bleu, _ = scores(cand, ref, trivial)
    assert cb < bleu


def test_crystal_bleu_in_unit_interval_fuzz():
    rng = random.Random(9)
    vocab = ["p", "q", "r", ";"]
    trivial = {("p",), ("p", "q")}
    for _ in range(300):
        cand = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        if not ref:
            continue
        score = scores(cand, ref, trivial)[0]
        assert 0.0 <= score <= 1.0


def test_crystal_bleu_degenerate_reference_falls_back():
    cand = ["p", "p"]
    ref = ["p", "p"]
    trivial = {("p",), ("p", "p")}
    assert scores(cand, ref, trivial) == (1.0, 1.0, True)
    assert scores(cand, ref) == (1.0, 1.0, False)


def make_test_set():
    return [
        make_instance("d", tag="0", target="a + b;"),
        make_instance("d", tag="1", target="return x;"),
        make_instance("d", tag="2", target="y = f(z);"),
        make_instance("d", tag="3", target="count++;"),
    ]


def predictions(model, texts_by_tag):
    return [
        PredictionRecord(f"d-{tag}", model, text) for tag, text in texts_by_tag.items()
    ]


def test_corpus_report_all_exact():
    test_set = make_test_set()
    preds = {"m": predictions("m", {"0": "a + b;", "1": "return x;", "2": "y = f(z);", "3": "count++;"})}
    report = corpus_report(test_set, preds, set())["m"]
    assert report.em_percent == 100.0
    assert report.missing == 0


def test_corpus_report_no_predictions():
    test_set = make_test_set()
    report = corpus_report(test_set, {"m": []}, set())["m"]
    assert report.em_percent == 0.0
    assert report.missing == len(test_set)
    assert report.model_id == "m"


def test_corpus_report_hand_computed_mean():
    test_set = make_test_set()
    preds = {"m": predictions("m", {
        "0": "a + b;",        # EM
        "1": "return x;",     # EM
        "2": "y = g(z);",     # near miss
        "3": "count--;",      # near miss
    })}
    report = corpus_report(test_set, preds, set())["m"]
    assert report.em_percent == 50.0
    expected = (
        bleu_oracle(token_texts("a + b;"), token_texts("a + b;"))
        + bleu_oracle(token_texts("return x;"), token_texts("return x;"))
        + bleu_oracle(token_texts("y = g(z);"), token_texts("y = f(z);"))
        + bleu_oracle(token_texts("count--;"), token_texts("count++;"))
    ) / 4
    assert report.mean_crystal_bleu == pytest.approx(expected, abs=1e-12)


def test_corpus_report_em_implies_cb_one():
    test_set = make_test_set()
    preds = {"m": predictions("m", {"0": "a+b;", "1": "return   x;"})}
    report = corpus_report(test_set, preds, set())["m"]
    for row in report.rows:
        if row.em:
            assert row.crystal_bleu == 1.0


def test_corpus_report_unknown_instance():
    test_set = make_test_set()
    with pytest.raises(DatasetMismatch):
        corpus_report(test_set, {"m": [PredictionRecord("ghost", "m", "x")]}, set())


def test_corpus_report_duplicate_prediction():
    test_set = make_test_set()
    preds = [PredictionRecord("d-0", "m", "x"), PredictionRecord("d-0", "m", "y")]
    with pytest.raises(DatasetMismatch):
        corpus_report(test_set, {"m": preds}, set())


def test_corpus_report_order_invariant():
    test_set = make_test_set()
    preds = {"m": predictions("m", {"0": "a + b;", "2": "nope;"})}
    forward = corpus_report(test_set, preds, set())["m"]
    backward = corpus_report(list(reversed(test_set)), preds, set())["m"]
    assert forward.em_percent == backward.em_percent
    assert forward.rows == backward.rows


def test_corpus_report_tokenizes_each_target_once(monkeypatch):
    import repotailor.metrics as metrics_module

    test_set = make_test_set()
    texts = {"0": "a+b;", "1": "return y;", "2": "y=f(z);", "3": "count--;"}  # no text is a target
    preds = {m: predictions(m, texts) for m in ("m1", "m2", "m3")}
    alone = {m: corpus_report(test_set, {m: preds[m]}, set())[m] for m in preds}
    calls = []
    monkeypatch.setattr(
        metrics_module, "token_texts", lambda text: calls.append(text) or token_texts(text)
    )
    reports = corpus_report(test_set, preds, set())
    assert reports == alone
    targets = [i.target for i in test_set]
    assert sorted(t for t in calls if t in targets) == sorted(targets)
    assert len(calls) == len(targets) + 3 * len(texts)


def test_count_ngrams_splits_the_reference_counter_by_order():
    rng = random.Random(11)
    for _ in range(300):
        tokens = [rng.choice("abc") for _ in range(rng.randint(0, 12))]
        max_order = rng.randint(1, 5)
        per_order = count_ngrams(tokens, max_order)
        assert len(per_order) == max_order
        assert all(len(g) == order for order, counts in enumerate(per_order, 1) for g in counts)
        merged = {g: c for counts in per_order for g, c in counts.items()}
        assert merged == reference_count_ngrams(tokens, max_order)


def _assert_scores_equal_reference(cand, ref, trivial, max_order):
    """Bit-for-bit equality with the reference scorer, floats by ``==``."""
    cb, bleu, degenerate = scores(cand, ref, trivial, max_order)
    assert bleu == reference_plain_bleu(cand, ref, max_order)
    assert (cb, degenerate) == reference_crystal_bleu_flagged(cand, ref, trivial, max_order)


def test_scorer_matches_reference_on_random_pairs():
    rng = random.Random(1209)
    degenerate = 0
    for _ in range(3000):
        max_order = rng.randint(1, 5)
        vocab = [f"t{i}" for i in range(rng.randint(1, 8))]
        cand, ref = ([rng.choice(vocab) for _ in range(rng.randint(0, 15))] for _ in range(2))
        corpus = [[rng.choice(vocab) for _ in range(rng.randint(0, 12))] for _ in range(rng.randint(0, 5))]
        k = rng.randint(0, 40)
        trivial_order = rng.randint(max_order, 6)  # may be built with a larger max_order
        trivial = trivially_shared_ngrams(corpus, k, trivial_order)
        assert trivial == reference_trivially_shared_ngrams(corpus, k, trivial_order)
        if rng.random() < 0.2:  # every reference n-gram excluded
            trivial |= set(reference_count_ngrams(ref, max_order))
        degenerate += reference_crystal_bleu_flagged(cand, ref, trivial, max_order)[1]
        _assert_scores_equal_reference(cand, ref, trivial, max_order)
    assert degenerate > 300  # the fallback path is exercised


@pytest.mark.parametrize("max_order", [1, 2, 3, 4, 5])
def test_scorer_matches_reference_on_edge_cases(max_order):
    toks = ["if", "(", "x", "==", "null", ")", "return", ";"]
    corpus = [toks, toks[:5], ["return", ";"]]
    for cand, ref in [([], toks), (toks, []), ([], []), (toks, toks), (toks[:2], toks), (toks, toks[:1])]:
        for trivial in (
            set(),
            trivially_shared_ngrams(corpus, 0, max_order),
            trivially_shared_ngrams(corpus, 10, max_order + 2),
            set(reference_count_ngrams(ref, max_order)),  # reference fully excluded
        ):
            _assert_scores_equal_reference(cand, ref, trivial, max_order)
    for k in (0, 1, 7, 1000):
        for order in (max_order, max_order + 1):
            assert trivially_shared_ngrams(corpus, k, order) == reference_trivially_shared_ngrams(corpus, k, order)


def test_score_model_matches_reference_per_row():
    rng = random.Random(3)
    test_set = make_test_set()
    trivial = trivially_shared_ngrams([token_texts(i.target) for i in test_set], k=3, max_order=4)
    words = ["x", "=", "y", ";", "return", "(", ")", "+", "1"]
    texts = {str(i): " ".join(rng.choice(words) for _ in range(rng.randint(0, 9))) for i in range(4)}
    texts["0"] = test_set[0].target
    report = corpus_report(test_set, {"m": predictions("m", texts)}, trivial, max_order=4)["m"]
    targets = {i.instance_id: i.target for i in test_set}
    for row in report.rows:
        cand = token_texts(texts[row.instance_id.removeprefix("d-")])
        ref = token_texts(targets[row.instance_id])
        assert (row.crystal_bleu, row.degenerate) == reference_crystal_bleu_flagged(cand, ref, trivial, 4)
        assert row.bleu == reference_plain_bleu(cand, ref, 4)


@pytest.mark.parametrize("max_order", [1, 2, 4])
def test_score_model_scores_exact_matches_as_the_reference(max_order):
    tokens = token_texts("return x;")
    cases = [
        ("return x;", set(reference_count_ngrams(tokens, 6)), (1.0, 1.0, True)),  # every n-gram excluded
        ("return x;", set(), (1.0, 1.0, False)),
        ("x", set(), (1.0, 1.0, False)),  # one token
        ("x", {("x",)}, (1.0, 1.0, True)),
        ("", set(), (0.0, 0.0, False)),  # empty prediction for an empty target
    ]
    for target, trivial, expected in cases:
        inst = make_instance("d", tag="0", target=target)
        text = f" {target}  // reformatted"
        row = corpus_report([inst], {"m": [PredictionRecord(inst.instance_id, "m", text)]}, trivial, max_order)["m"].rows[0]
        cand, ref = token_texts(text), token_texts(target)
        assert row.em and (row.crystal_bleu, row.bleu, row.degenerate) == expected, target
        assert (row.crystal_bleu, row.degenerate) == reference_crystal_bleu_flagged(cand, ref, trivial, max_order)
        assert row.bleu == reference_plain_bleu(cand, ref, max_order)


def test_corpus_report_matches_reference_row_by_row():
    rng = random.Random(2022)
    words = ["x", "=", "y", ";", "return", "(", ")", "+", "1", "f"]

    def text():
        return " ".join(rng.choice(words) for _ in range(rng.randint(0, 10)))

    test_set = [make_instance("d", tag=str(i), target=text()) for i in range(240)]
    trivial = trivially_shared_ngrams([token_texts(i.target) for i in test_set[:120]], k=40, max_order=4)
    preds = {
        m: [PredictionRecord(i.instance_id, m, i.target if rng.random() < 0.5 else text()) for i in test_set]
        for m in ("m1", "m2")
    }
    texts = {(p.model_id, p.instance_id): p.text for rows in preds.values() for p in rows}
    targets = {i.instance_id: i.target for i in test_set}
    exact = Counter()
    for model, report in corpus_report(test_set, preds, trivial).items():
        assert len(report.rows) == len(test_set)
        for row in report.rows:
            cand, ref = token_texts(texts[model, row.instance_id]), token_texts(targets[row.instance_id])
            assert (row.crystal_bleu, row.degenerate) == reference_crystal_bleu_flagged(cand, ref, trivial)
            assert row.bleu == reference_plain_bleu(cand, ref)
            assert row.em == (cand == ref)
            exact[row.em, row.degenerate] += 1
    assert 200 < exact[True, False] + exact[True, True] < 280, exact  # about half of 480 rows
    assert exact[True, True] > 10 and exact[False, True] > 10, exact


def test_corpus_report_counts_each_target_text_once(monkeypatch):
    import repotailor.metrics as metrics_module

    test_set = make_test_set()
    texts = {"0": "a-b;", "1": "return y;", "2": "y=f(w);", "3": "count--;"}  # no tokens of a target
    preds = {m: predictions(m, texts) for m in ("m1", "m2")}
    counted = []

    def counting(tokens, max_order):
        counted.append(tuple(tokens))
        return count_ngrams(tokens, max_order)

    monkeypatch.setattr(metrics_module, "count_ngrams", counting)
    corpus_report(test_set, preds, set())
    targets = [tuple(token_texts(i.target)) for i in test_set]
    assert sorted(t for t in counted if t in targets) == sorted(targets)
    assert len(counted) == len(targets) + 2 * len(texts)


def test_score_row_record_roundtrip():
    for row in (ScoreRow("a", True, 1.0, 1.0), ScoreRow("b", False, 0.25, 0.5, degenerate=True, missing=True)):
        assert ScoreRow.from_record(row.to_record()) == row


def test_row_summary_means_are_exactly_rounded():
    # the builtin sum of ten 0.1s is 0.9999999999999999 before Python 3.12
    rows = tuple(ScoreRow(f"i{i}", False, 0.1, 0.1) for i in range(10))
    summary = ModelReport.from_rows("m", rows)
    assert (summary.mean_crystal_bleu, summary.mean_bleu) == (0.1, 0.1)
    assert (summary.test_size, summary.em_count, summary.em_percent) == (10, 0, 0.0)
