"""Prediction scoring: Exact Match, BLEU, and CrystalBLEU.

Exact Match compares lexical token sequences, so formatting noise does
not count. CrystalBLEU is BLEU computed after deleting a corpus-derived
exclusion set of trivially shared n-grams from both candidate and
reference counts; orders left with no reference n-grams drop out of the
geometric mean, and pairs whose reference is fully excluded fall back
to plain BLEU with a degeneracy flag.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import DatasetMismatch
from .javalex import token_texts
from .masking import CompletionInstance

DEFAULT_TRIVIAL_K = 500
DEFAULT_MAX_ORDER = 4
_EPSILON = 1e-9

Ngram = tuple[str, ...]


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    instance_id: str
    model_id: str
    text: str

    @classmethod
    def from_record(cls, rec: dict) -> "PredictionRecord":
        return cls(instance_id=rec["id"], model_id=rec["model"], text=rec["text"])

    def to_record(self) -> dict:
        return {"id": self.instance_id, "model": self.model_id, "text": self.text}


@dataclass(frozen=True, slots=True)
class ScoreRow:
    instance_id: str
    em: bool
    crystal_bleu: float
    bleu: float
    degenerate: bool = False
    missing: bool = False

    def to_record(self) -> dict:
        return {
            "id": self.instance_id,
            "em": self.em,
            "crystal_bleu": self.crystal_bleu,
            "bleu": self.bleu,
            "degenerate": self.degenerate,
            "missing": self.missing,
        }


def exact_match(prediction: str, target: str) -> bool:
    """True when the lexical token sequences coincide."""
    return token_texts(prediction) == token_texts(target)


def count_ngrams(tokens: list[str], max_order: int) -> Counter:
    counts: Counter = Counter()
    for order in range(1, max_order + 1):
        for i in range(len(tokens) - order + 1):
            counts[tuple(tokens[i : i + order])] += 1
    return counts


def trivially_shared_ngrams(
    corpus: list[list[str]],
    k: int = DEFAULT_TRIVIAL_K,
    max_order: int = DEFAULT_MAX_ORDER,
) -> set[Ngram]:
    """The k most frequent n-grams of the corpus (orders 1..max_order).

    Frequency ties break lexicographically so the set is reproducible.
    """
    if k <= 0:
        return set()
    totals: Counter = Counter()
    for tokens in corpus:
        totals.update(count_ngrams(tokens, max_order))
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return {ngram for ngram, _ in ranked[:k]}


def _bleu_from_counts(
    cand_counts: Counter,
    ref_counts: Counter,
    cand_len: int,
    ref_len: int,
    max_order: int,
) -> float | None:
    """BLEU over pre-filtered n-gram counts; None when every order is empty."""
    log_sum = 0.0
    included = 0
    for order in range(1, max_order + 1):
        ref_total = sum(c for g, c in ref_counts.items() if len(g) == order)
        if ref_total == 0:
            continue
        included += 1
        cand_total = sum(c for g, c in cand_counts.items() if len(g) == order)
        matched = sum(
            min(c, ref_counts[g])
            for g, c in cand_counts.items()
            if len(g) == order and g in ref_counts
        )
        precision = matched / cand_total if cand_total > 0 else 0.0
        if precision <= 0.0:
            precision = _EPSILON
        log_sum += math.log(precision)
    if included == 0:
        return None
    geo_mean = math.exp(log_sum / included)
    if cand_len > ref_len:
        brevity = 1.0
    else:
        brevity = math.exp(1.0 - ref_len / cand_len)
    return brevity * geo_mean


def plain_bleu(candidate: list[str], reference: list[str], max_order: int = DEFAULT_MAX_ORDER) -> float:
    """Sentence BLEU with epsilon smoothing on zero precisions."""
    if not candidate:
        return 0.0
    score = _bleu_from_counts(
        count_ngrams(candidate, max_order),
        count_ngrams(reference, max_order),
        len(candidate),
        len(reference),
        max_order,
    )
    return 0.0 if score is None else score


def crystal_bleu(
    candidate: list[str],
    reference: list[str],
    trivial: set[Ngram],
    max_order: int = DEFAULT_MAX_ORDER,
) -> float:
    score, _ = crystal_bleu_flagged(candidate, reference, trivial, max_order)
    return score


def crystal_bleu_flagged(
    candidate: list[str],
    reference: list[str],
    trivial: set[Ngram],
    max_order: int = DEFAULT_MAX_ORDER,
) -> tuple[float, bool]:
    """CrystalBLEU plus a flag marking degenerate (fully excluded) pairs."""
    if not candidate:
        return 0.0, False
    cand_counts = count_ngrams(candidate, max_order)
    ref_counts = count_ngrams(reference, max_order)
    for ngram in trivial:
        cand_counts.pop(ngram, None)
        ref_counts.pop(ngram, None)
    score = _bleu_from_counts(cand_counts, ref_counts, len(candidate), len(reference), max_order)
    if score is None:
        # reference n-grams were all excluded: score the raw pair instead
        return plain_bleu(candidate, reference, max_order), True
    return score, False


@dataclass(frozen=True, slots=True)
class ModelReport:
    model_id: str
    test_size: int
    em_count: int
    em_percent: float
    mean_crystal_bleu: float
    mean_bleu: float
    missing: int
    degenerate_pairs: int
    rows: tuple[ScoreRow, ...]

    def to_record(self) -> dict:
        return {
            "model": self.model_id,
            "test_size": self.test_size,
            "em_count": self.em_count,
            "em_percent": self.em_percent,
            "mean_crystal_bleu": self.mean_crystal_bleu,
            "mean_bleu": self.mean_bleu,
            "missing": self.missing,
            "degenerate_pairs": self.degenerate_pairs,
        }


def score_model(
    test_instances: list[CompletionInstance],
    predictions: list[PredictionRecord],
    trivial: set[Ngram],
    max_order: int = DEFAULT_MAX_ORDER,
    model_id: str | None = None,
    target_tokens: dict[str, list[str]] | None = None,
) -> ModelReport:
    """Score one model's predictions against the test set targets.

    ``target_tokens`` maps target texts to their `token_texts`; targets
    missing from it are tokenized and added.
    """
    if target_tokens is None:
        target_tokens = {}
    by_id = {inst.instance_id: inst for inst in test_instances}
    preds: dict[str, PredictionRecord] = {}
    if model_id is None:
        model_id = predictions[0].model_id if predictions else "unknown"
    for pred in predictions:
        if pred.instance_id not in by_id:
            raise DatasetMismatch(f"prediction for unknown instance {pred.instance_id!r}")
        if pred.instance_id in preds:
            raise DatasetMismatch(f"duplicate prediction for instance {pred.instance_id!r}")
        preds[pred.instance_id] = pred

    rows: list[ScoreRow] = []
    missing = 0
    degenerate_total = 0
    for inst in sorted(test_instances, key=lambda i: i.instance_id):
        pred = preds.get(inst.instance_id)
        if pred is None:
            missing += 1
            rows.append(ScoreRow(inst.instance_id, False, 0.0, 0.0, missing=True))
            continue
        target = target_tokens.get(inst.target)
        if target is None:
            target = target_tokens[inst.target] = token_texts(inst.target)
        pred_tokens = token_texts(pred.text)
        em = pred_tokens == target
        cb, degenerate = crystal_bleu_flagged(pred_tokens, target, trivial, max_order)
        degenerate_total += degenerate
        rows.append(ScoreRow(
            inst.instance_id, em, cb, plain_bleu(pred_tokens, target, max_order),
            degenerate=degenerate,
        ))

    n = len(test_instances)
    em_count = sum(r.em for r in rows)
    return ModelReport(
        model_id=model_id,
        test_size=n,
        em_count=em_count,
        em_percent=100.0 * em_count / n if n else 0.0,
        mean_crystal_bleu=sum(r.crystal_bleu for r in rows) / n if n else 0.0,
        mean_bleu=sum(r.bleu for r in rows) / n if n else 0.0,
        missing=missing,
        degenerate_pairs=degenerate_total,
        rows=tuple(rows),
    )


def corpus_report(
    test_instances: list[CompletionInstance],
    predictions_by_model: dict[str, list[PredictionRecord]],
    trivial: set[Ngram],
    max_order: int = DEFAULT_MAX_ORDER,
) -> dict[str, ModelReport]:
    """Per-model EM% and mean CrystalBLEU over one test set; each
    target is tokenized once for all models."""
    out = {}
    target_tokens: dict[str, list[str]] = {}
    for model_id in sorted(predictions_by_model):
        preds = predictions_by_model[model_id]
        for pred in preds:
            if pred.model_id != model_id:
                raise DatasetMismatch(
                    f"prediction for {pred.instance_id!r} carries model "
                    f"{pred.model_id!r}, expected {model_id!r}"
                )
        out[model_id] = score_model(test_instances, preds, trivial, max_order, model_id, target_tokens)
    return out


def exclusion_corpus_from_targets(targets: list[str], k: int, max_order: int) -> set[Ngram]:
    """Trivially shared n-grams of a training split's target texts."""
    return trivially_shared_ngrams([token_texts(t) for t in targets], k, max_order)
