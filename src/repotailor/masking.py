"""Build fill-in-the-middle completion instances from changed methods.

Added lines are grouped into isolated lines and blocks of at most three
counted lines (empty and single-token lines ride along for free), then
the last n lexical tokens of each segment are replaced by a sentinel,
with n drawn uniformly from [3, min(50, N-1)] for a segment of N
tokens. Generic (non-change-based) instances reuse the same surgery
with n drawn from a log-normal fitted to a target length distribution.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .javamethods import MethodUnit

SENTINEL = "<FILL_ME>"

ISOLATED_LINE = "isolated-line"
BLOCK = "block"

MIN_MASK_TOKENS = 3
MAX_MASK_TOKENS = 50

MAX_GENERIC_PER_METHOD = 3
_GENERIC_ATTEMPTS = 12


@dataclass(frozen=True, slots=True)
class MaskSegment:
    line_numbers: tuple[int, ...]
    counted_line_count: int
    kind: str
    # the method's tokens on these lines, which are contiguous: indices first..end - 1
    first: int
    end: int


@dataclass(frozen=True, slots=True)
class Provenance:
    repo_id: str = ""
    commit_sha: str = ""
    author_id: str = ""
    timestamp: int = 0
    file: str = ""


@dataclass(frozen=True, slots=True)
class CompletionInstance:
    instance_id: str
    context: str
    target: str
    n: int
    N: int
    kind: str
    repo_id: str
    commit_sha: str
    author_id: str
    timestamp: int
    file: str
    signature: str

    def to_record(self) -> dict:
        return {
            "id": self.instance_id,
            "context": self.context,
            "target": self.target,
            "n": self.n,
            "N": self.N,
            "kind": self.kind,
            "repo": self.repo_id,
            "sha": self.commit_sha,
            "author": self.author_id,
            "ts": self.timestamp,
            "file": self.file,
            "signature": self.signature,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "CompletionInstance":
        """The instance a record holds; a TypeError names each value of
        the wrong type (a JSON boolean is no int)."""
        values = [rec[key] for key in _RECORD_TYPES]
        if list(map(type, values)) != _FIELD_TYPES:
            wrong = [key for key, value in zip(_RECORD_TYPES, values) if type(value) is not _RECORD_TYPES[key]]
            raise TypeError(f"instance record values of the wrong type: {', '.join(wrong)}")
        return cls(*values)


# each record key, in the order of CompletionInstance's fields, and the
# type of its value
_RECORD_TYPES = {
    "id": str, "context": str, "target": str, "n": int, "N": int, "kind": str,
    "repo": str, "sha": str, "author": str, "ts": int, "file": str, "signature": str,
}
_FIELD_TYPES = list(_RECORD_TYPES.values())


@dataclass(frozen=True, slots=True)
class MaskLengthDistribution:
    mean: float
    median: float
    min: int = MIN_MASK_TOKENS
    max: int = MAX_MASK_TOKENS

    def __post_init__(self) -> None:
        if not self.min <= self.median <= self.max:
            raise ValueError("median must lie within [min, max]")

    @classmethod
    def from_samples(cls, samples: list[int]) -> "MaskLengthDistribution":
        if not samples:
            raise ValueError("no samples")
        ordered = sorted(samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            median = float(ordered[mid])
        else:
            median = (ordered[mid - 1] + ordered[mid]) / 2.0
        return cls(
            mean=sum(ordered) / len(ordered),
            median=median,
            min=ordered[0],
            max=ordered[-1],
        )


# length targets measured on merged developer change histories
APACHE_MASK_DISTRIBUTION = MaskLengthDistribution(mean=11.0, median=8.0, min=3, max=50)


def _line_firsts(method: MethodUnit) -> list[int]:
    """The index of the first token on or after each line of ``method``,
    from its first line to one past its last, where it is the token
    count: the line ``k`` lines below ``method.start_line`` holds the
    tokens ``firsts[k]`` up to ``firsts[k + 1]``. One bisect over the
    token offsets per line."""
    starts = accumulate(len(line) + 1 for line in method.text.split("\n"))  # of the second line on
    return [0, *(bisect_left(method.offsets, start) for start in starts)]


def segment(added: list[int], method: MethodUnit) -> list[MaskSegment]:
    """Group sorted added line numbers into maskable segments.

    Maximal runs of contiguous lines become blocks split greedily
    left-to-right so that at most three counted lines (non-empty, at
    least two tokens) fall in each; a lone line is an isolated-line
    segment. Each segment carries the range of its tokens, which `mask`
    reads.
    """
    firsts = _line_firsts(method)
    top = len(firsts) - 1

    def first(line: int) -> int:  # a line outside the method holds no token
        return firsts[min(max(line - method.start_line, 0), top)]

    def is_counted(line: int) -> bool:
        return first(line + 1) - first(line) >= 2

    def new(lines: list[int], counted: int, kind: str) -> MaskSegment:
        return MaskSegment(tuple(lines), counted, kind, first(lines[0]), first(lines[-1] + 1))

    runs: list[list[int]] = []
    for line in added:
        if runs and line == runs[-1][-1] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])

    segments: list[MaskSegment] = []
    for run in runs:
        if len(run) == 1:
            line = run[0]
            segments.append(new(run, 1 if is_counted(line) else 0, ISOLATED_LINE))
            continue
        cur: list[int] = []
        counted = 0
        for line in run:
            if is_counted(line):
                if counted == 3:
                    segments.append(new(cur, counted, BLOCK))
                    cur = []
                    counted = 0
                cur.append(line)
                counted += 1
            else:
                cur.append(line)
        if cur:
            segments.append(new(cur, counted, BLOCK))
    return segments


def _instance_id(context: str, target: str, provenance: Provenance, signature: str) -> str:
    h = hashlib.sha256()
    for part in (
        context,
        target,
        provenance.repo_id,
        provenance.commit_sha,
        provenance.author_id,
        str(provenance.timestamp),
        provenance.file,
        signature,
    ):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:20]


def _mask_last_tokens(
    method: MethodUnit,
    first: int,
    end: int,
    n: int,
    kind: str,
    provenance: Provenance,
) -> CompletionInstance | None:
    """Mask the last ``n`` of the tokens ``first..end - 1`` of ``method``."""
    if SENTINEL in method.text:  # cannot place an unambiguous sentinel
        return None
    text = method.text
    start = method.offsets[end - n]
    stop = method.offsets[end - 1] + len(method.texts[end - 1])
    target = text[start:stop]
    context = text[:start] + SENTINEL + text[stop:]
    return CompletionInstance(
        instance_id=_instance_id(context, target, provenance, method.signature),
        context=context,
        target=target,
        n=n,
        N=end - first,
        kind=kind,
        repo_id=provenance.repo_id,
        commit_sha=provenance.commit_sha,
        author_id=provenance.author_id,
        timestamp=provenance.timestamp,
        file=provenance.file,
        signature=method.signature,
    )


def mask(
    seg: MaskSegment,
    method: MethodUnit,
    rng: random.Random,
    provenance: Provenance = Provenance(),
) -> CompletionInstance | None:
    """Mask the last n tokens of a segment of ``method``; None when no
    legal n exists."""
    big_n = seg.end - seg.first
    if big_n <= MIN_MASK_TOKENS:
        return None
    n = rng.randint(MIN_MASK_TOKENS, min(MAX_MASK_TOKENS, big_n - 1))
    return _mask_last_tokens(method, seg.first, seg.end, n, seg.kind, provenance)


def fit_log_normal(dist: MaskLengthDistribution) -> tuple[float, float]:
    """Parameters (mu, sigma) of a log-normal with the target median/mean."""
    if dist.median <= 0:
        raise ValueError("median must be positive")
    mu = math.log(dist.median)
    ratio = dist.mean / dist.median
    sigma = math.sqrt(2.0 * math.log(ratio)) if ratio > 1.0 else 0.0
    return mu, sigma


def draw_mask_length(dist: MaskLengthDistribution, upper: int, rng: random.Random) -> int | None:
    """One clipped draw from the fitted length distribution, or None."""
    lo = max(MIN_MASK_TOKENS, dist.min)
    hi = min(MAX_MASK_TOKENS, dist.max, upper)
    if hi < lo:
        return None
    mu, sigma = fit_log_normal(dist)
    value = dist.median if sigma == 0.0 else rng.lognormvariate(mu, sigma)
    return min(hi, max(lo, round(value)))


def generate_generic(
    method: MethodUnit,
    dist: MaskLengthDistribution,
    rng: random.Random,
    provenance: Provenance = Provenance(),
) -> list[CompletionInstance]:
    """Mask up to three line/block end-spans of a method.

    Mask lengths follow a log-normal fitted to ``dist`` so a corpus of
    generated instances mirrors the target mean and median; spans that
    collide are deduplicated.
    """
    if "{" not in method.texts:
        return []
    # the body: after the first '{', before the last token
    body, body_end = method.texts.index("{") + 1, len(method.texts) - 1
    firsts = _line_firsts(method)
    start_lines = [
        method.start_line + k for k, (first, end) in enumerate(zip(firsts, firsts[1:]))
        if min(end, body_end) - max(first, body) >= 2
    ]
    if not start_lines:
        return []
    firsts += firsts[-1:] * 2  # the two lines past the method, which a span may reach, hold no token
    out: dict[tuple[int, ...], CompletionInstance] = {}
    # first prefer spans wide enough to carry the target median, then
    # fall back to any maskable span so short methods still contribute
    for floor in (dist.median, 0.0):
        for _ in range(_GENERIC_ATTEMPTS):
            if len(out) >= MAX_GENERIC_PER_METHOD:
                break
            start = rng.choice(start_lines)
            # the lines that hold tokens, and the tokens, of lines start..start + 2
            k = start - method.start_line
            span = tuple(start + i for i in range(3) if firsts[k + i] < firsts[k + i + 1])
            first_token, end = firsts[k], firsts[k + 3]
            big_n = end - first_token
            if big_n <= MIN_MASK_TOKENS or big_n - 1 < floor:
                continue
            if span in out:  # same line/block already masked
                continue
            n = draw_mask_length(dist, big_n - 1, rng)
            if n is None:
                continue
            kind = ISOLATED_LINE if len(span) == 1 else BLOCK
            instance = _mask_last_tokens(method, first_token, end, n, kind, provenance)
            if instance is not None:
                out[span] = instance
        if out:
            break
    return list(out.values())
