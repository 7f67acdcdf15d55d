"""Paired statistical comparison of two models on one test set.

Exact Match flags go through McNemar's test with an odds-ratio effect
size; CrystalBLEU scores go through the Wilcoxon signed-rank test with
a paired (within-pair sign dominance) Cliff's delta. Instances where
both models produce an exact match are excluded from the CrystalBLEU
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InstanceSetMismatch
from .metrics import ScoreRow

SIGNIFICANCE_LEVEL = 0.05
MCNEMAR_EXACT_MAX_DISCORDANT = 25  # exact binomial below, chi-square from here
WILCOXON_EXACT_MAX_PAIRS = 20

DIRECTION_A = "A"
DIRECTION_B = "B"
DIRECTION_NONE = "none"

FLAG_OR_INFINITE = "or-infinite"
FLAG_ALL_ZERO_DIFFERENCES = "all-zero-differences"
FLAG_NO_PAIRS = "no-pairs"


@dataclass(frozen=True, slots=True)
class PairedOutcome:
    n11: int  # both models exact-match
    n10: int  # only model A
    n01: int  # only model B
    n00: int  # neither


@dataclass(frozen=True, slots=True)
class StatResult:
    test: str
    p_value: float
    effect: float
    significant: bool
    direction: str
    flags: tuple[str, ...] = ()

    def to_record(self) -> dict:
        effect = "inf" if math.isinf(self.effect) else self.effect
        return {
            "test": self.test,
            "p_value": self.p_value,
            "effect": effect,
            "significant": self.significant,
            "direction": self.direction,
            "flags": list(self.flags),
        }


def _result(test: str, p: float, effect: float, direction: str, flags: tuple[str, ...] = ()) -> StatResult:
    return StatResult(
        test=test,
        p_value=p,
        effect=effect,
        significant=p < SIGNIFICANCE_LEVEL,
        direction=direction,
        flags=flags,
    )


def _binom_pmf(k: int, n: int) -> float:
    return math.comb(n, k) / 2.0**n


def exact_binomial_two_sided(k: int, n: int) -> float:
    """Two-sided exact binomial p at p0=0.5 (doubled smaller tail)."""
    lower = sum(_binom_pmf(i, n) for i in range(0, k + 1))
    upper = sum(_binom_pmf(i, n) for i in range(k, n + 1))
    return min(1.0, 2.0 * min(lower, upper))


def _chi2_sf_1df(x: float) -> float:
    return math.erfc(math.sqrt(x / 2.0))


def mcnemar(outcome: PairedOutcome) -> StatResult:
    """McNemar's test on discordant pairs, with odds ratio n10/n01.

    Exact binomial p below 25 discordant pairs, continuity-corrected
    chi-square (1 df) otherwise. An infinite odds ratio is flagged and
    never silently collapsed to a number.
    """
    n10, n01 = outcome.n10, outcome.n01
    flags: tuple[str, ...] = ()
    if n01 > 0:
        odds_ratio = n10 / n01
    elif n10 > 0:
        odds_ratio = math.inf
        flags = (FLAG_OR_INFINITE,)
    else:
        odds_ratio = 1.0

    discordant = n10 + n01
    if discordant == 0:
        p = 1.0
    elif discordant < MCNEMAR_EXACT_MAX_DISCORDANT:
        p = exact_binomial_two_sided(n10, discordant)
    else:
        # correction clamped at zero so the centered case keeps p = 1
        statistic = max(abs(n10 - n01) - 1.0, 0.0) ** 2 / discordant
        p = _chi2_sf_1df(statistic)

    if n10 > n01:
        direction = DIRECTION_A
    elif n01 > n10:
        direction = DIRECTION_B
    else:
        direction = DIRECTION_NONE
    return _result("mcnemar", p, odds_ratio, direction, flags)


def _midranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for idx in order[i : j + 1]:
            ranks[idx] = rank
        i = j + 1
    return ranks


def _exact_wilcoxon_p(doubled_ranks: list[int], w_plus_doubled: int) -> float:
    """Exact two-sided p by counting sign assignments over the observed
    (doubled, hence integer) ranks. Symmetric around half the rank sum.
    """
    total = sum(doubled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled_ranks:
        for s in range(total, r - 1, -1):
            counts[s] += counts[s - r]
    center = total / 2.0
    observed_dev = abs(w_plus_doubled - center)
    hits = sum(c for s, c in enumerate(counts) if abs(s - center) >= observed_dev - 1e-9)
    return min(1.0, hits / 2.0 ** len(doubled_ranks))


def _approx_wilcoxon_p(ranks: list[float], w_plus: float) -> float:
    m = len(ranks)
    mean = m * (m + 1) / 4.0
    tie_term = 0.0
    seen: dict[float, int] = {}
    for r in ranks:
        seen[r] = seen.get(r, 0) + 1
    for count in seen.values():
        tie_term += count**3 - count
    # at least m (m + 1)^2 / 16 > 0, its value when all m ranks tie
    variance = m * (m + 1) * (2 * m + 1) / 24.0 - tie_term / 48.0
    deviation = max(abs(w_plus - mean) - 0.5, 0.0)  # continuity correction
    z = deviation / math.sqrt(variance)
    return math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(a: list[float], b: list[float], method: str = "auto") -> StatResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped and ties are mid-ranked. The null
    distribution is enumerated exactly up to 20 non-zero pairs; beyond
    that a tie-corrected normal approximation with continuity
    correction is used. ``method`` forces 'exact' or 'approx'.
    """
    if len(a) != len(b) or not a:
        raise InstanceSetMismatch("paired samples must be equal-length and non-empty")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        return _result("wilcoxon", 1.0, 0.0, DIRECTION_NONE, (FLAG_ALL_ZERO_DIFFERENCES,))
    ranks = _midranks([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)

    use_exact = method == "exact" or (method == "auto" and len(diffs) <= WILCOXON_EXACT_MAX_PAIRS)
    if use_exact:
        doubled = [round(2 * r) for r in ranks]
        p = _exact_wilcoxon_p(doubled, round(2 * w_plus))
    else:
        p = _approx_wilcoxon_p(ranks, w_plus)

    if w_plus > w_minus:
        direction = DIRECTION_A
    elif w_minus > w_plus:
        direction = DIRECTION_B
    else:
        direction = DIRECTION_NONE
    return _result("wilcoxon", p, math.nan, direction)


def cliffs_delta_paired(a: list[float], b: list[float]) -> float:
    """Within-pair sign dominance in [-1, 1]."""
    if len(a) != len(b) or not a:
        raise InstanceSetMismatch("paired samples must be equal-length and non-empty")
    greater = sum(1 for x, y in zip(a, b) if x > y)
    less = sum(1 for x, y in zip(a, b) if x < y)
    return (greater - less) / len(a)


def paired_outcome_from_rows(rows_a: list[ScoreRow], rows_b: list[ScoreRow]) -> PairedOutcome:
    b_by_id = {r.instance_id: r for r in rows_b}
    n11 = n10 = n01 = n00 = 0
    for ra in rows_a:
        rb = b_by_id[ra.instance_id]
        if ra.em and rb.em:
            n11 += 1
        elif ra.em:
            n10 += 1
        elif rb.em:
            n01 += 1
        else:
            n00 += 1
    return PairedOutcome(n11, n10, n01, n00)


def compare_models(
    rows_a: list[ScoreRow], rows_b: list[ScoreRow]
) -> tuple[PairedOutcome, StatResult, StatResult]:
    """(paired EM outcome, EM comparison, CrystalBLEU comparison) for
    two models whose rows cover the same instance ids, each id once.

    The CrystalBLEU comparison skips instances where both models
    produced an exact match.
    """
    b_by_id = {r.instance_id: r for r in rows_b}
    ids_a = {r.instance_id for r in rows_a}
    if ids_a != b_by_id.keys() or len(ids_a) != len(rows_a) or len(b_by_id) != len(rows_b):
        raise InstanceSetMismatch("score rows must cover the same instance ids, each once")

    outcome = paired_outcome_from_rows(rows_a, rows_b)
    cb_a: list[float] = []
    cb_b: list[float] = []
    for ra in sorted(rows_a, key=lambda r: r.instance_id):
        rb = b_by_id[ra.instance_id]
        if ra.em and rb.em:
            continue
        cb_a.append(ra.crystal_bleu)
        cb_b.append(rb.crystal_bleu)

    if not cb_a:
        cb_result = _result("wilcoxon", 1.0, 0.0, DIRECTION_NONE, (FLAG_NO_PAIRS,))
    else:
        wilcoxon = wilcoxon_signed_rank(cb_a, cb_b)
        delta = cliffs_delta_paired(cb_a, cb_b)
        if delta > 0:
            direction = DIRECTION_A
        elif delta < 0:
            direction = DIRECTION_B
        else:
            direction = DIRECTION_NONE
        cb_result = _result("wilcoxon", wilcoxon.p_value, delta, direction, wilcoxon.flags)
    return outcome, mcnemar(outcome), cb_result
