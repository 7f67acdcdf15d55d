from __future__ import annotations

import random

import pytest

from repotailor.errors import DatasetMismatch
from repotailor.javalex import token_texts
from repotailor.metrics import (
    PredictionRecord,
    corpus_report,
    crystal_bleu,
    crystal_bleu_flagged,
    exact_match,
    plain_bleu,
    score_model,
    trivially_shared_ngrams,
)

from conftest import make_instance
from oracles import bleu_oracle


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


def test_crystal_bleu_identity_is_one():
    tokens = token_texts("int x = compute(a, b);")
    assert crystal_bleu(tokens, tokens, set()) == 1.0


def test_crystal_bleu_empty_candidate_is_zero():
    assert crystal_bleu([], ["a"], set()) == 0.0


def test_crystal_bleu_matches_plain_bleu_without_exclusions():
    rng = random.Random(1234)
    vocab = ["a", "b", "if", "(", ")", "{", "}", "=", ";", "x", "y", "return"]
    for _ in range(100):
        cand = [rng.choice(vocab) for _ in range(rng.randint(1, 30))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 30))]
        cb = crystal_bleu(cand, ref, set())
        assert cb == pytest.approx(plain_bleu(cand, ref), abs=1e-15)
        assert cb == pytest.approx(bleu_oracle(cand, ref), abs=1e-12)


def test_crystal_bleu_discounts_trivial_overlap():
    # candidate shares ONLY the boilerplate prefix with the reference
    cand = ["if", "(", "x", "==", "1", ")", "doA", "(", ")", ";"]
    ref = ["if", "(", "x", "==", "2", ")", "doB", "(", ")", ";"]
    trivial = trivially_shared_ngrams([["if", "(", "x", "=="]] * 50, k=10, max_order=4)
    assert crystal_bleu(cand, ref, trivial) < plain_bleu(cand, ref)


def test_crystal_bleu_in_unit_interval_fuzz():
    rng = random.Random(9)
    vocab = ["p", "q", "r", ";"]
    trivial = {("p",), ("p", "q")}
    for _ in range(300):
        cand = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        if not ref:
            continue
        score = crystal_bleu(cand, ref, trivial)
        assert 0.0 <= score <= 1.0


def test_crystal_bleu_degenerate_reference_falls_back():
    cand = ["p", "p"]
    ref = ["p", "p"]
    trivial = {("p",), ("p", "p")}
    score, degenerate = crystal_bleu_flagged(cand, ref, trivial)
    assert degenerate
    assert score == plain_bleu(cand, ref) == 1.0


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
        score_model(test_set, preds, set())


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
    alone = {m: score_model(test_set, preds[m], set(), model_id=m) for m in preds}
    calls = []
    monkeypatch.setattr(
        metrics_module, "token_texts", lambda text: calls.append(text) or token_texts(text)
    )
    reports = corpus_report(test_set, preds, set())
    assert reports == alone
    targets = [i.target for i in test_set]
    assert sorted(t for t in calls if t in targets) == sorted(targets)
    assert len(calls) == len(targets) + 3 * len(texts)
