"""Prediction files for the score and compare stages.

Two models per test set. ``oracle`` predicts every target exactly.
``noisy`` predicts some targets exactly, truncates some and reverses
the word order of the rest, so its exact match and CrystalBLEU land in
non-degenerate ranges and the paired tests see discordant pairs. Its
first row is never exact, so even a test set of a few rows has one.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ORACLE = "oracle"
NOISY = "noisy"


def _noisy(target: str, rng: random.Random, exact: bool) -> str:
    """The target (if ``exact`` allows), its first half, or its words
    reversed; a perturbed text that reads as the target, as a one-word
    target reversed does, is cut to half its characters."""
    words = target.split()
    draw = rng.random()
    if draw < 0.4 and exact:
        return target
    if draw < 0.7 and len(words) > 1:
        text = " ".join(words[: len(words) // 2])
    else:
        text = " ".join(reversed(words))
    return text if text != target else target[: len(target) // 2]


def write_predictions(test_rows: list[dict], seed: int, dataset_id: str, path: Path) -> None:
    """Write both models' predictions for one test set as JSONL."""
    rng = random.Random(f"predictions:{seed}:{dataset_id}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for i, rec in enumerate(sorted(test_rows, key=lambda r: r["id"])):
            for model, text in ((ORACLE, rec["target"]), (NOISY, _noisy(rec["target"], rng, i > 0))):
                fh.write(json.dumps({"id": rec["id"], "model": model, "text": text}) + "\n")
