"""Explanatory analyses: domain/vocabulary coverage between training
and test sets, and the fine-tuning cost-effectiveness model.

Coverage works over distinct elements: method signatures for domain
coverage, identifier and literal token texts for vocabulary coverage
and training-data relevance. The cost model amortizes a one-off
training cost against the per-prediction cost gap between a small
personalized model and a larger generic one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import EmptyTestSet, EmptyTrainSet, NonPositiveDelta
from .javalex import CHAR_LITERAL, IDENTIFIER, NUMBER_LITERAL, STRING_LITERAL, lex
from .masking import SENTINEL, CompletionInstance

_VOCAB_KINDS = frozenset({IDENTIFIER, STRING_LITERAL, CHAR_LITERAL, NUMBER_LITERAL})


@dataclass(frozen=True, slots=True)
class CoverageReport:
    signature_coverage: float
    vocab_coverage: float
    training_relevance: float
    test_count: int
    train_count: int
    test_vocab_size: int
    train_vocab_size: int

    def to_record(self) -> dict:
        return {
            "signature_coverage": self.signature_coverage,
            "vocab_coverage": self.vocab_coverage,
            "training_relevance": self.training_relevance,
            "test_count": self.test_count,
            "train_count": self.train_count,
            "test_vocab_size": self.test_vocab_size,
            "train_vocab_size": self.train_vocab_size,
        }


def reconstruct_method_text(instance: CompletionInstance) -> str:
    return instance.context.replace(SENTINEL, instance.target, 1)


def vocabulary_elements(
    instances: list[CompletionInstance], memo: dict[str, frozenset[str]] | None = None
) -> set[str]:
    """Distinct identifier and literal texts in the instances' methods.

    ``memo`` maps a method text to its elements; texts missing from it
    are lexed and added, so a caller that shares one memo across calls
    lexes each distinct text once.
    """
    if memo is None:
        memo = {}
    elements: set[str] = set()
    for inst in instances:
        text = reconstruct_method_text(inst)
        vocab = memo.get(text)
        if vocab is None:
            vocab = frozenset(tok.text for tok in lex(text) if tok.kind in _VOCAB_KINDS)
            memo[text] = vocab
        elements.update(vocab)
    return elements


def _share_covered(elements: set[str], other: set[str]) -> float:
    """Fraction of ``elements`` also in ``other``; 1.0 when there is
    nothing to cover."""
    if not elements:
        return 1.0
    return len(elements & other) / len(elements)


def signature_coverage(
    test_instances: list[CompletionInstance], train_instances: list[CompletionInstance]
) -> float:
    """Fraction of test instances whose method signature occurs in training."""
    if not test_instances:
        raise EmptyTestSet("no test instances")
    train_signatures = {i.signature for i in train_instances}
    covered = sum(1 for i in test_instances if i.signature in train_signatures)
    return covered / len(test_instances)


def vocab_coverage(
    test_instances: list[CompletionInstance], train_instances: list[CompletionInstance]
) -> float:
    """Fraction of distinct test identifiers/literals present in training."""
    if not test_instances:
        raise EmptyTestSet("no test instances")
    return _share_covered(vocabulary_elements(test_instances), vocabulary_elements(train_instances))


def training_relevance(
    train_instances: list[CompletionInstance], test_instances: list[CompletionInstance]
) -> float:
    """Fraction of distinct training identifiers/literals used by the tests."""
    if not train_instances:
        raise EmptyTrainSet("no train instances")
    return _share_covered(vocabulary_elements(train_instances), vocabulary_elements(test_instances))


def coverage_report(
    test_instances: list[CompletionInstance],
    train_instances: list[CompletionInstance],
    *,
    test_vocab: set[str] | None = None,
    train_vocab: set[str] | None = None,
    memo: dict[str, frozenset[str]] | None = None,
) -> CoverageReport:
    """Signature coverage, vocabulary coverage and training relevance.

    ``test_vocab`` and ``train_vocab``, when given, must be the
    `vocabulary_elements` of the matching instances; the missing ones
    are computed through ``memo``.
    """
    if not test_instances:
        raise EmptyTestSet("no test instances")
    if not train_instances:
        raise EmptyTrainSet("no train instances")
    if test_vocab is None:
        test_vocab = vocabulary_elements(test_instances, memo)
    if train_vocab is None:
        train_vocab = vocabulary_elements(train_instances, memo)
    return CoverageReport(
        signature_coverage=signature_coverage(test_instances, train_instances),
        vocab_coverage=_share_covered(test_vocab, train_vocab),
        training_relevance=_share_covered(train_vocab, test_vocab),
        test_count=len(test_instances),
        train_count=len(train_instances),
        test_vocab_size=len(test_vocab),
        train_vocab_size=len(train_vocab),
    )


@dataclass(frozen=True, slots=True)
class CostScenario:
    name: str
    training_cost: float
    inference_cost_small: float  # per prediction, personalized small model
    inference_cost_large: float  # per prediction, generic large model
    developers: int
    weekly_rate: float  # predictions per developer per week

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "training_cost": self.training_cost,
            "inference_cost_small": self.inference_cost_small,
            "inference_cost_large": self.inference_cost_large,
            "developers": self.developers,
            "weekly_rate": self.weekly_rate,
        }


def breakeven_inferences(scenario: CostScenario) -> float:
    """Inference count at which the training cost is amortized."""
    delta = scenario.inference_cost_large - scenario.inference_cost_small
    if delta <= 0:
        raise NonPositiveDelta("large-model inference must cost more than small-model")
    return scenario.training_cost / delta


@dataclass(frozen=True, slots=True)
class BreakevenWeeks:
    raw: float
    whole: int  # rounded up


def weeks_to_breakeven(n_star: float, scenario: CostScenario) -> BreakevenWeeks:
    """Calendar time to reach the breakeven inference count."""
    raw = n_star / (scenario.developers * scenario.weekly_rate)
    return BreakevenWeeks(raw=raw, whole=math.ceil(raw))


@dataclass(frozen=True, slots=True)
class CostPoint:
    inferences: int
    personalized_small: float
    generic_large: float


def cost_curve(scenario: CostScenario, max_inferences: int, points: int = 101) -> list[CostPoint]:
    """Cumulative-cost series for both deployment options.

    The personalized curve starts at the training cost; the generic one
    at zero. For a positive cost delta they cross exactly once, at the
    breakeven count.
    """
    if points < 2:
        points = 2
    out = []
    for i in range(points):
        x = round(i * max_inferences / (points - 1))
        out.append(CostPoint(
            inferences=x,
            personalized_small=scenario.training_cost + x * scenario.inference_cost_small,
            generic_large=x * scenario.inference_cost_large,
        ))
    return out


def load_scenarios(path: str | Path | None = None) -> dict[str, CostScenario]:
    """Best/worst cost scenarios from a JSON file (shipped defaults)."""
    if path is None:
        raw = resources.files("repotailor").joinpath("data/scenario.json").read_text("utf-8")
    else:
        raw = Path(path).read_text(encoding="utf-8")
    data = json.loads(raw)
    common = {
        "inference_cost_small": data["inference_cost_small"],
        "inference_cost_large": data["inference_cost_large"],
        "developers": data["developers"],
        "weekly_rate": data["weekly_rate"],
    }
    return {
        "best": CostScenario(name="best", training_cost=data["training_cost_best"], **common),
        "worst": CostScenario(name="worst", training_cost=data["training_cost_worst"], **common),
    }
