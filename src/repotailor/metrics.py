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
from .storage import typed

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
        return cls(*(typed(rec[key], str) for key in ("id", "model", "text")))


def _finite(value) -> float:
    """``value`` if it is a finite JSON number; a NaN or an infinity is a ValueError."""
    if isinstance(typed(value, int, float), float) and not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite score")
    return value


@dataclass(frozen=True, slots=True)
class ScoreRow:
    instance_id: str
    em: bool
    crystal_bleu: float
    bleu: float
    degenerate: bool = False
    missing: bool = False

    @classmethod
    def from_record(cls, rec: dict) -> "ScoreRow":
        return cls(
            typed(rec["id"], str),
            typed(rec["em"], bool),
            _finite(rec["crystal_bleu"]),
            _finite(rec["bleu"]),
            typed(rec["degenerate"], bool),
            typed(rec["missing"], bool),
        )

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


def count_ngrams(tokens: list[str], max_order: int) -> list[Counter]:
    """One Counter of the n-grams of each order 1..max_order."""
    return [Counter(zip(*(tokens[i:] for i in range(order)))) for order in range(1, max_order + 1)]


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
        for order in range(1, max_order + 1):
            totals.update(zip(*(tokens[i:] for i in range(order))))
    if len(totals) <= k:
        return set(totals)
    # cut is the k-th largest count: every n-gram above it is in, and the
    # ties at it fill the remaining places in lexicographic order
    seen = 0
    for cut, n in sorted(Counter(totals.values()).items(), reverse=True):
        seen += n
        if seen >= k:
            break
    chosen = {g for g, c in totals.items() if c > cut}
    chosen.update(sorted(g for g, c in totals.items() if c == cut)[: k - len(chosen)])
    return chosen


def _score_pair(
    cand_counts: list[Counter],
    ref_counts: list[Counter],
    cand_len: int,
    ref_len: int,
    trivial: set[Ngram],
) -> tuple[float, float, bool]:
    """(CrystalBLEU, BLEU, degenerate) of one pair from the per-order
    counts of each side, each counted once.

    Both scores come from one pass per order: CrystalBLEU's counts are
    BLEU's minus those of the excluded n-grams, and an order whose
    reference n-grams are all excluded drops out of its geometric mean.
    A pair with no CrystalBLEU order left is degenerate and scores BLEU.
    """
    if not cand_len:
        return 0.0, 0.0, False
    bleu_log = crystal_log = 0.0
    bleu_orders = crystal_orders = 0
    for cand, ref in zip(cand_counts, ref_counts):
        if not ref:
            continue
        common = cand.keys() & ref.keys()
        matched = sum([min(cand[g], ref[g]) for g in common])
        total = cand.total()
        bleu_orders += 1
        bleu_log += math.log(matched / total if matched else _EPSILON)
        if ref.keys() <= trivial:
            continue
        crystal_orders += 1
        cand_trivial = cand.keys() & trivial
        matched -= sum([min(cand[g], ref[g]) for g in common & cand_trivial])
        total -= sum([cand[g] for g in cand_trivial])
        crystal_log += math.log(matched / total if matched else _EPSILON)
    if not bleu_orders:
        return 0.0, 0.0, True
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    bleu = brevity * math.exp(bleu_log / bleu_orders)
    if not crystal_orders:
        # reference n-grams were all excluded: score the raw pair instead
        return bleu, bleu, True
    return brevity * math.exp(crystal_log / crystal_orders), bleu, False


def plain_bleu(candidate: list[str], reference: list[str], max_order: int = DEFAULT_MAX_ORDER) -> float:
    """Sentence BLEU with epsilon smoothing on zero precisions."""
    return _score_pair(
        count_ngrams(candidate, max_order), count_ngrams(reference, max_order),
        len(candidate), len(reference), set(),
    )[1]


def crystal_bleu(
    candidate: list[str],
    reference: list[str],
    trivial: set[Ngram],
    max_order: int = DEFAULT_MAX_ORDER,
) -> float:
    return crystal_bleu_flagged(candidate, reference, trivial, max_order)[0]


def crystal_bleu_flagged(
    candidate: list[str],
    reference: list[str],
    trivial: set[Ngram],
    max_order: int = DEFAULT_MAX_ORDER,
) -> tuple[float, bool]:
    """CrystalBLEU plus a flag marking degenerate (fully excluded) pairs."""
    score, _, degenerate = _score_pair(
        count_ngrams(candidate, max_order), count_ngrams(reference, max_order),
        len(candidate), len(reference), trivial,
    )
    return score, degenerate


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
    target_tokens: dict[str, tuple[list[str], list[Counter]]] | None = None,
) -> ModelReport:
    """Score one model's predictions against the test set targets.

    ``target_tokens`` maps target texts to their `token_texts` and
    per-order n-gram counts; targets missing from it are tokenized,
    counted and added.
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
        if inst.target not in target_tokens:
            tokens = token_texts(inst.target)
            target_tokens[inst.target] = (tokens, count_ngrams(tokens, max_order))
        target, target_counts = target_tokens[inst.target]
        pred_tokens = token_texts(pred.text)
        em = pred_tokens == target
        if em and target:
            # what _score_pair yields for an exact match: precision 1 on
            # every included order and a brevity of exp(0.0)
            cb = bleu = 1.0
            degenerate = all(counts.keys() <= trivial for counts in target_counts)
        else:
            cb, bleu, degenerate = _score_pair(
                count_ngrams(pred_tokens, max_order), target_counts, len(pred_tokens), len(target), trivial
            )
        degenerate_total += degenerate
        rows.append(ScoreRow(inst.instance_id, em, cb, bleu, degenerate=degenerate))

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
    target is tokenized and counted once for all models."""
    out = {}
    target_tokens: dict[str, tuple[list[str], list[Counter]]] = {}
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
