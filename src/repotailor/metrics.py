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


def score_pair(
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

    @classmethod
    def from_rows(cls, model_id: str, rows: tuple[ScoreRow, ...]) -> "ModelReport":
        """The one summary of score rows, which `score` and `compare` both
        report. Means are exactly rounded (`math.fsum`), so they are the
        same bytes on every Python version."""
        n = len(rows)
        em_count = sum(r.em for r in rows)
        return cls(
            model_id=model_id,
            test_size=n,
            em_count=em_count,
            em_percent=100.0 * em_count / n if n else 0.0,
            mean_crystal_bleu=math.fsum(r.crystal_bleu for r in rows) / n if n else 0.0,
            mean_bleu=math.fsum(r.bleu for r in rows) / n if n else 0.0,
            missing=sum(r.missing for r in rows),
            degenerate_pairs=sum(r.degenerate for r in rows),
            rows=rows,
        )

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


def corpus_report(
    test_instances: list[CompletionInstance],
    predictions_by_model: dict[str, list[PredictionRecord]],
    trivial: set[Ngram],
    max_order: int = DEFAULT_MAX_ORDER,
) -> dict[str, ModelReport]:
    """Each model's predictions scored against the test set targets, one
    row per test instance in id order; each target is tokenized and
    counted once for all models."""
    ordered = sorted(test_instances, key=lambda i: i.instance_id)
    known = {inst.instance_id for inst in ordered}
    target_tokens: dict[str, tuple[list[str], list[Counter]]] = {}
    out = {}
    for model_id in sorted(predictions_by_model):
        texts: dict[str, str] = {}
        for pred in predictions_by_model[model_id]:
            if pred.model_id != model_id:
                raise DatasetMismatch(
                    f"prediction for {pred.instance_id!r} carries model "
                    f"{pred.model_id!r}, expected {model_id!r}"
                )
            if pred.instance_id not in known:
                raise DatasetMismatch(f"prediction for unknown instance {pred.instance_id!r}")
            if pred.instance_id in texts:
                raise DatasetMismatch(f"duplicate prediction for instance {pred.instance_id!r}")
            texts[pred.instance_id] = pred.text
        rows = []
        for inst in ordered:
            text = texts.get(inst.instance_id)
            if text is None:
                rows.append(ScoreRow(inst.instance_id, False, 0.0, 0.0, missing=True))
                continue
            if inst.target not in target_tokens:
                tokens = token_texts(inst.target)
                target_tokens[inst.target] = (tokens, count_ngrams(tokens, max_order))
            target, target_counts = target_tokens[inst.target]
            pred_tokens = token_texts(text)
            em = pred_tokens == target
            if em and target:
                # what score_pair yields for an exact match: precision 1 on
                # every included order and a brevity of exp(0.0)
                cb = bleu = 1.0
                degenerate = all(counts.keys() <= trivial for counts in target_counts)
            else:
                cb, bleu, degenerate = score_pair(
                    count_ngrams(pred_tokens, max_order), target_counts, len(pred_tokens), len(target), trivial
                )
            rows.append(ScoreRow(inst.instance_id, em, cb, bleu, degenerate=degenerate))
        out[model_id] = ModelReport.from_rows(model_id, tuple(rows))
    return out


def exclusion_corpus_from_targets(targets: list[str], k: int, max_order: int) -> set[Ngram]:
    """Trivially shared n-grams of a training split's target texts."""
    return trivially_shared_ngrams([token_texts(t) for t in targets], k, max_order)
