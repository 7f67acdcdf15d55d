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

from .errors import ConfigError, EmptyTestSet, EmptyTrainSet, NonPositiveDelta
from .javalex import vocabulary
from .masking import SENTINEL, CompletionInstance


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


def vocabulary_elements(instances: list[CompletionInstance], memo: dict[str, frozenset[str]]) -> set[str]:
    """Distinct identifier and literal texts in the instances' methods.

    ``memo`` maps a method text to its elements; texts missing from it
    are scanned and added, so a caller that shares one memo across calls
    scans each distinct text once.
    """
    elements: set[str] = set()
    for inst in instances:
        text = reconstruct_method_text(inst)
        vocab = memo.get(text)
        if vocab is None:
            vocab = vocabulary(text)
            memo[text] = vocab
        elements.update(vocab)
    return elements


def _share_covered(elements: set[str], other: set[str]) -> float:
    """Fraction of ``elements`` also in ``other``; 1.0 when there is
    nothing to cover."""
    if not elements:
        return 1.0
    return len(elements & other) / len(elements)


def coverage_report(
    test_instances: list[CompletionInstance],
    train_instances: list[CompletionInstance],
    test_vocab: set[str],
    train_vocab: set[str],
) -> CoverageReport:
    """Signature coverage (the share of test instances whose method
    signature occurs in training), vocabulary coverage (the share of
    distinct test identifiers and literals present in training) and
    training relevance (the share of distinct training ones the tests
    use). ``test_vocab`` and ``train_vocab`` are the
    `vocabulary_elements` of the matching instances.
    """
    if not test_instances:
        raise EmptyTestSet("no test instances")
    if not train_instances:
        raise EmptyTrainSet("no train instances")
    train_signatures = {i.signature for i in train_instances}
    covered = sum(1 for i in test_instances if i.signature in train_signatures)
    return CoverageReport(
        signature_coverage=covered / len(test_instances),
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
    """Best/worst cost scenarios from a JSON file (shipped defaults). An
    unreadable file, a missing, non-numeric or non-finite value, a
    negative cost, or a developer count or weekly rate that is not
    positive is a ConfigError that names the key."""
    try:
        if path is None:
            raw = resources.files("repotailor").joinpath("data/scenario.json").read_text("utf-8")
        else:
            raw = Path(path).read_text(encoding="utf-8")
        data = json.loads(raw)
        common = {
            key: data[key]
            for key in ("inference_cost_small", "inference_cost_large", "developers", "weekly_rate")
        }
        training = {name: data[f"training_cost_{name}"] for name in ("best", "worst")}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc!r}") from exc
    for key, value in (*common.items(), *((f"training_cost_{n}", v) for n, v in training.items())):
        positive = key in ("developers", "weekly_rate")  # they divide the weeks to breakeven
        if type(value) not in (int, float) or not math.isfinite(value) or value < 0 or positive and value == 0:
            kind = "positive" if positive else "non-negative"
            raise ConfigError(f"scenario file {path}: {key} must be a finite {kind} number, not {value!r}")
    return {name: CostScenario(name=name, training_cost=cost, **common) for name, cost in training.items()}
