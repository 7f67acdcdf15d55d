"""Independent reference implementations used only to check the
production code. Deliberately brute-force: positional n-gram scans,
explicit subset-sum enumeration, direct binomial tail sums, a
character-walking lossless Java lexer, and a greedy Myers diff that
keeps a copy of its V array for every round, a BLEU scorer that
counts every order into one Counter and filters it by n-gram length,
a method extractor that lexes the whole source and walks every token,
a brace-balance check over a whole lex, a method rebuilder with its
own body-token count, masking over tuples of `lex` tokens grouped by
line, a Latin-1 check that tests one character at a time, and a mining
loop that reads every changed file at ``<sha>:<path>`` and its first
parent's, again at each commit, a branch resolver that asks git
for every head, a duplicate filter that normalizes both texts of
every instance into one set of keys, and an organization pool that
re-unions, filters and re-sorts every developer's instances.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import subprocess
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import attrgetter

import numpy as np

from repotailor.javalex import (
    CHAR_LITERAL,
    IDENTIFIER,
    KEYWORD,
    KEYWORDS,
    NUMBER_LITERAL,
    OPERATOR,
    SEPARATOR,
    STRING_LITERAL,
    SourceToken,
    lex,
)
from repotailor.assembly import MLM_MASK_RATE, MlmInstance, normalize_for_dedup
from repotailor.javamethods import (
    MethodUnit,
    _classify_header,
    apply_method_filters,
    map_added_lines,
    method_spans,
    method_unit,
)
from repotailor.masking import (
    BLOCK,
    ISOLATED_LINE,
    MAX_GENERIC_PER_METHOD,
    MAX_MASK_TOKENS,
    MIN_MASK_TOKENS,
    SENTINEL,
    CompletionInstance,
    MaskLengthDistribution,
    Provenance,
    _GENERIC_ATTEMPTS,
    _instance_id,
    draw_mask_length,
)
from repotailor.metrics import _EPSILON, DEFAULT_MAX_ORDER, DEFAULT_TRIVIAL_K, Ngram
from repotailor.errors import BranchMissing, RepoUnreadable
from repotailor.mining import BlobReader, added_lines


def bleu_oracle(candidate: list[str], reference: list[str], max_order: int = 4) -> float:
    """Sentence BLEU by positional scanning (no Counter clipping)."""
    if not candidate:
        return 0.0
    logs = []
    for order in range(1, max_order + 1):
        ref_ngrams = [tuple(reference[i : i + order]) for i in range(len(reference) - order + 1)]
        if not ref_ngrams:
            continue
        cand_ngrams = [tuple(candidate[i : i + order]) for i in range(len(candidate) - order + 1)]
        remaining = list(ref_ngrams)
        matched = 0
        for gram in cand_ngrams:
            if gram in remaining:
                matched += 1
                remaining.remove(gram)
        precision = matched / len(cand_ngrams) if cand_ngrams else 0.0
        if precision <= 0.0:
            precision = 1e-9
        logs.append(math.log(precision))
    if not logs:
        return 0.0
    geo_mean = math.exp(sum(logs) / len(logs))
    c, r = len(candidate), len(reference)
    brevity = 1.0 if c > r else math.exp(1.0 - r / c)
    return brevity * geo_mean


def binomial_two_sided_oracle(k: int, n: int) -> float:
    """Doubled smaller tail of Bin(n, 1/2) via direct pmf sums."""
    pmf = [math.comb(n, i) / 2.0**n for i in range(n + 1)]
    lower = sum(pmf[: k + 1])
    upper = sum(pmf[k:])
    return min(1.0, 2.0 * min(lower, upper))


def wilcoxon_enumeration_oracle(a: list[float], b: list[float]) -> float:
    """Two-sided signed-rank p by enumerating all sign assignments.

    Subset sums are enumerated explicitly (meet-in-the-middle for
    feasibility up to ~30 pairs); ties get midranks.
    """
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        return 1.0
    magnitudes = [abs(d) for d in diffs]
    order = sorted(range(len(magnitudes)), key=lambda i: magnitudes[i])
    ranks = [0.0] * len(magnitudes)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and magnitudes[order[j + 1]] == magnitudes[order[i]]:
            j += 1
        for idx in order[i : j + 1]:
            ranks[idx] = (i + j) / 2.0 + 1.0
        i = j + 1

    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    total = sum(ranks)
    center = total / 2.0
    deviation = abs(w_plus - center) - 1e-9

    def all_sums(values: list[float]) -> np.ndarray:
        sums = np.zeros(1)
        for v in values:
            sums = np.concatenate([sums, sums + v])
        return sums

    half = len(ranks) // 2
    left = all_sums(ranks[:half])
    right = np.sort(all_sums(ranks[half:]))
    hits = 0
    for value in left:
        lo = center - deviation - value  # right <= lo  -> |sum-center| >= dev
        hi = center + deviation - value  # right >= hi
        hits += np.searchsorted(right, lo, side="right")
        hits += len(right) - np.searchsorted(right, hi, side="left")
    return min(1.0, hits / 2.0 ** len(ranks))


def cliffs_delta_oracle(a: list[float], b: list[float]) -> float:
    score = 0
    for x, y in zip(a, b):
        if x > y:
            score += 1
        elif x < y:
            score -= 1
    return score / len(a)


def q3_iqr_oracle(values: list[float]) -> tuple[float, float]:
    """Quartiles by the inclusive (linear interpolation) rule."""
    if len(values) == 1:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3, q3 - q1


COMMENT = "comment"
WHITESPACE = "whitespace"

# Longest-match first within each bucket.
_OPERATORS = (
    ">>>=", ">>=", "<<=", ">>>", "<<", ">>", "->", "==", "!=", "<=",
    ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "&=", "|=",
    "^=", "%=", "+", "-", "*", "/", "%", "&", "|", "^", "!", "~", "=",
    "<", ">", "?", ":",
)
_SEPARATORS = ("...", "::", "(", ")", "{", "}", "[", "]", ";", ",", ".", "@")

_WS_CHARS = " \t\f\r\n"
_HEX_DIGITS = set("0123456789abcdefABCDEF_")


@dataclass(frozen=True, slots=True)
class ReferenceToken:
    kind: str
    text: str
    line: int  # 1-based line of the token's first character
    col: int   # 0-based column of the token's first character

    @property
    def significant(self) -> bool:
        return self.kind not in (COMMENT, WHITESPACE)


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c in "_$"


def _is_ident_part(c: str) -> bool:
    return c.isalnum() or c in "_$"


def _scan_number(s: str, i: int) -> int:
    n = len(s)
    j = i
    if s[j] == "0" and j + 1 < n and s[j + 1] in "xX":
        j += 2
        while j < n and (s[j] in _HEX_DIGITS or s[j] == "."):
            j += 1
        if j < n and s[j] in "pP":  # hex float exponent
            k = j + 1
            if k < n and s[k] in "+-":
                k += 1
            if k < n and s[k].isdigit():
                j = k
                while j < n and (s[j].isdigit() or s[j] == "_"):
                    j += 1
    elif s[j] == "0" and j + 1 < n and s[j + 1] in "bB" and j + 2 < n and s[j + 2] in "01":
        j += 2
        while j < n and s[j] in "01_":
            j += 1
    else:
        while j < n and (s[j].isdigit() or s[j] == "_"):
            j += 1
        if j < n and s[j] == "." and j + 1 < n and s[j + 1].isdigit():
            j += 1
            while j < n and (s[j].isdigit() or s[j] == "_"):
                j += 1
        elif j < n and s[j] == "." and s[i].isdigit() and (j + 1 >= n or not _is_ident_start(s[j + 1])):
            # trailing-dot float like "1."; leave "1.foo" to the separator path
            j += 1
        if j < n and s[j] in "eE":
            k = j + 1
            if k < n and s[k] in "+-":
                k += 1
            if k < n and s[k].isdigit():
                j = k
                while j < n and (s[j].isdigit() or s[j] == "_"):
                    j += 1
    if j < n and s[j] in "lLfFdD":
        j += 1
    return j


def _scan_string(s: str, i: int) -> int:
    n = len(s)
    if s.startswith('"""', i):  # text block: runs to the closing triple quote
        end = s.find('"""', i + 3)
        return n if end < 0 else end + 3
    j = i + 1
    while j < n:
        c = s[j]
        if c == "\\" and j + 1 < n:
            j += 2
            continue
        if c == '"':
            return j + 1
        if c == "\n":  # unterminated: close before the newline
            return j
        j += 1
    return n


def _scan_char(s: str, i: int) -> int:
    n = len(s)
    j = i + 1
    while j < n:
        c = s[j]
        if c == "\\" and j + 1 < n:
            j += 2
            continue
        if c == "'":
            return j + 1
        if c == "\n":
            return j
        j += 1
    return n


def reference_lex(source: str) -> list[ReferenceToken]:
    """Tokenize Java source, whitespace and comments included; total over
    arbitrary input, and the token texts concatenate to the input."""
    tokens: list[ReferenceToken] = []
    n = len(source)
    i = 0
    line = 1
    col = 0

    def emit(kind: str, end: int) -> None:
        nonlocal i, line, col
        text = source[i:end]
        tokens.append(ReferenceToken(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n") - 1
        else:
            col += len(text)
        i = end

    while i < n:
        c = source[i]
        if c in _WS_CHARS:
            j = i
            while j < n and source[j] in _WS_CHARS:
                j += 1
            emit(WHITESPACE, j)
        elif c == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            emit(COMMENT, n if j < 0 else j)
        elif c == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            emit(COMMENT, n if j < 0 else j + 2)
        elif c == '"':
            emit(STRING_LITERAL, _scan_string(source, i))
        elif c == "'":
            emit(CHAR_LITERAL, _scan_char(source, i))
        elif c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            emit(NUMBER_LITERAL, _scan_number(source, i))
        elif _is_ident_start(c):
            j = i
            while j < n and _is_ident_part(source[j]):
                j += 1
            word = source[i:j]
            emit(KEYWORD if word in KEYWORDS else IDENTIFIER, j)
        else:
            for sep in _SEPARATORS:
                if source.startswith(sep, i):
                    emit(SEPARATOR, i + len(sep))
                    break
            else:
                for op in _OPERATORS:
                    if source.startswith(op, i):
                        emit(OPERATOR, i + len(op))
                        break
                else:
                    emit(OPERATOR, i + 1)  # unknown character

    return tokens


def assert_tokens_cover(source: str, tokens) -> None:
    """``tokens`` are the significant tokens of ``source``: each text
    sits at the offset of its (line, col), offsets strictly increase
    without overlap, and every gap between tokens (and before the
    first and after the last) lexes, under the reference, to whitespace
    and comments only."""
    line_starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    end = 0
    for tok in tokens:
        offset = line_starts[tok.line - 1] + tok.col
        assert offset >= end and tok.text, (tok, end)
        assert source[offset : offset + len(tok.text)] == tok.text, tok
        gap = source[end:offset]
        assert all(t.kind in (WHITESPACE, COMMENT) for t in reference_lex(gap)), (gap, tok)
        end = offset + len(tok.text)
    assert all(t.kind in (WHITESPACE, COMMENT) for t in reference_lex(source[end:])), source[end:]


def reference_inserted(a: list[str], b: list[str]) -> list[int]:
    """0-based indices of b-lines inserted by the shortest edit script."""
    n, m = len(a), len(b)
    if m == 0:
        return []
    if n == 0:
        return list(range(m))

    v: dict[int, int] = {1: 0}
    trace: list[dict[int, int]] = []
    found = False
    for d in range(n + m + 1):
        trace.append(dict(v))
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v.get(k - 1, 0) < v.get(k + 1, 0)):
                x = v.get(k + 1, 0)
            else:
                x = v.get(k - 1, 0) + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                found = True
                break
        if found:
            break

    inserted: list[int] = []
    x, y = n, m
    for d in range(len(trace) - 1, -1, -1):
        vd = trace[d]
        k = x - y
        if k == -d or (k != d and vd.get(k - 1, 0) < vd.get(k + 1, 0)):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = vd.get(prev_k, 0)
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:  # diagonal: matching lines
            x -= 1
            y -= 1
        if d > 0:
            if x == prev_x:  # vertical step: insertion of b[prev_y]
                inserted.append(prev_y)
            x, y = prev_x, prev_y
    inserted.reverse()
    return inserted


# The scorer before per-order counts: each call counts both sides into one
# Counter of all orders, and crystal BLEU pops the excluded n-grams.


def reference_count_ngrams(tokens: list[str], max_order: int) -> Counter:
    counts: Counter = Counter()
    for order in range(1, max_order + 1):
        for i in range(len(tokens) - order + 1):
            counts[tuple(tokens[i : i + order])] += 1
    return counts


def reference_trivially_shared_ngrams(
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
        totals.update(reference_count_ngrams(tokens, max_order))
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return {ngram for ngram, _ in ranked[:k]}


def _reference_bleu_from_counts(
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


def reference_plain_bleu(candidate: list[str], reference: list[str], max_order: int = DEFAULT_MAX_ORDER) -> float:
    """Sentence BLEU with epsilon smoothing on zero precisions."""
    if not candidate:
        return 0.0
    score = _reference_bleu_from_counts(
        reference_count_ngrams(candidate, max_order),
        reference_count_ngrams(reference, max_order),
        len(candidate),
        len(reference),
        max_order,
    )
    return 0.0 if score is None else score


def reference_crystal_bleu_flagged(
    candidate: list[str],
    reference: list[str],
    trivial: set[Ngram],
    max_order: int = DEFAULT_MAX_ORDER,
) -> tuple[float, bool]:
    """CrystalBLEU plus a flag marking degenerate (fully excluded) pairs."""
    if not candidate:
        return 0.0, False
    cand_counts = reference_count_ngrams(candidate, max_order)
    ref_counts = reference_count_ngrams(reference, max_order)
    for ngram in trivial:
        cand_counts.pop(ngram, None)
        ref_counts.pop(ngram, None)
    score = _reference_bleu_from_counts(cand_counts, ref_counts, len(candidate), len(reference), max_order)
    if score is None:
        # reference n-grams were all excluded: score the raw pair instead
        return reference_plain_bleu(candidate, reference, max_order), True
    return score, False


def _braces_balanced(sig: list[SourceToken]) -> bool:
    depth = 0
    for tok in sig:
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


@dataclass(frozen=True, slots=True)
class TokenMethod:
    """A method with `lex`'s tokens: the shape methods had before they
    held token offsets, which the reference masking below reads."""
    name: str
    signature: str
    start_line: int
    end_line: int
    tokens: tuple[SourceToken, ...]  # significant tokens, header through closing brace
    body_token_count: int
    text: str  # full source lines start_line..end_line


def unit_of_tokens(method: TokenMethod) -> MethodUnit:
    """The MethodUnit of ``method``: each token's (line, col) mapped to
    its offset in ``method.text``."""
    starts = [0, *accumulate(len(line) + 1 for line in method.text.split("\n"))]
    return MethodUnit(
        name=method.name,
        signature=method.signature,
        start_line=method.start_line,
        end_line=method.end_line,
        offsets=tuple(starts[t.line - method.start_line] + t.col for t in method.tokens),
        texts=tuple(t.text for t in method.tokens),
        body_token_count=method.body_token_count,
        text=method.text,
    )


def reference_token_methods(source: str) -> list[TokenMethod] | None:
    """Method declarations (constructors included) in Java source, or
    None when its significant braces do not balance; lexes once."""
    sig = lex(source)
    if not _braces_balanced(sig):
        return None
    lines = source.split("\n")

    methods: list[TokenMethod] = []
    # stack entries: (what the '{' opens, as `_classify_header` gives it, header_start_idx)
    stack: list[tuple[str | tuple[str, str] | None, int]] = []
    seg_start = 0

    for idx, tok in enumerate(sig):
        text = tok.text
        if text == "{":
            parent_decl = None
            if stack and isinstance(stack[-1][0], str):
                parent_decl = stack[-1][0]
            stack.append((_classify_header(sig[seg_start:idx], parent_decl), seg_start))
            seg_start = idx + 1
        elif text == "}":
            opened, start_idx = stack.pop()
            if isinstance(opened, tuple):
                name, signature = opened
                start_tok = sig[start_idx]
                toks = tuple(sig[start_idx : idx + 1])
                open_pos = next(i for i, t in enumerate(toks) if t.text == "{")
                body_count = len(toks) - open_pos - 2
                start_line = start_tok.line
                end_line = tok.line
                methods.append(TokenMethod(
                    name=name,
                    signature=signature,
                    start_line=start_line,
                    end_line=end_line,
                    tokens=toks,
                    body_token_count=body_count,
                    text="\n".join(lines[start_line - 1 : end_line]),
                ))
            seg_start = idx + 1
        elif text == ";":
            seg_start = idx + 1

    methods.sort(key=lambda m: (m.start_line, -m.end_line))
    return methods


def reference_parse_methods(source: str) -> list[MethodUnit] | None:
    """`reference_token_methods`, as MethodUnits."""
    methods = reference_token_methods(source)
    return None if methods is None else [unit_of_tokens(m) for m in methods]


def reference_token_method_from_text(text: str, name: str, signature: str) -> TokenMethod:
    """Rebuild a maskable method from stored method source."""
    tokens = tuple(lex(text))
    open_idx = next((i for i, t in enumerate(tokens) if t.text == "{"), None)
    body = max(0, len(tokens) - open_idx - 2) if open_idx is not None else 0
    return TokenMethod(
        name=name,
        signature=signature,
        start_line=1,
        end_line=text.count("\n") + 1,
        tokens=tokens,
        body_token_count=body,
        text=text,
    )


def reference_method_from_text(text: str, name: str, signature: str) -> MethodUnit:
    return unit_of_tokens(reference_token_method_from_text(text, name, signature))


# Masking over token tuples, as it was before methods held token offsets:
# tokens grouped by their line, a segment carrying its tokens, and every
# masked token placed by splitting the method text into lines again.


@dataclass(frozen=True, slots=True)
class ReferenceSegment:
    line_numbers: tuple[int, ...]
    counted_line_count: int
    kind: str
    tokens: tuple[SourceToken, ...]  # the method's tokens on these lines, in order


def _reference_tokens_by_line(method: TokenMethod) -> dict[int, list[SourceToken]]:
    return {line: list(toks) for line, toks in groupby(method.tokens, attrgetter("line"))}


def reference_segment(added: list[int], method: TokenMethod) -> list[ReferenceSegment]:
    by_line = _reference_tokens_by_line(method)

    def is_counted(line: int) -> bool:
        return len(by_line.get(line, ())) >= 2

    def new(lines: list[int], counted: int, kind: str) -> ReferenceSegment:
        tokens = tuple(t for line in lines for t in by_line.get(line, ()))
        return ReferenceSegment(tuple(lines), counted, kind, tokens)

    runs: list[list[int]] = []
    for line in added:
        if runs and line == runs[-1][-1] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])

    segments: list[ReferenceSegment] = []
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


def reference_offset_in_text(method: TokenMethod):
    """Maps a token of ``method`` to its character offset in ``method.text``."""
    starts = [0, *accumulate(len(line) + 1 for line in method.text.split("\n"))]
    first = method.start_line
    return lambda tok: starts[tok.line - first] + tok.col


def _reference_mask_last_tokens(
    method: TokenMethod, segment_tokens, n: int, kind: str, provenance: Provenance
) -> CompletionInstance | None:
    if SENTINEL in method.text:
        return None
    masked = segment_tokens[-n:]
    offset = reference_offset_in_text(method)
    start = offset(masked[0])
    end = offset(masked[-1]) + len(masked[-1].text)
    target = method.text[start:end]
    context = method.text[:start] + SENTINEL + method.text[end:]
    return CompletionInstance(
        instance_id=_instance_id(context, target, provenance, method.signature),
        context=context,
        target=target,
        n=n,
        N=len(segment_tokens),
        kind=kind,
        repo_id=provenance.repo_id,
        commit_sha=provenance.commit_sha,
        author_id=provenance.author_id,
        timestamp=provenance.timestamp,
        file=provenance.file,
        signature=method.signature,
    )


def reference_mask(
    seg: ReferenceSegment, method: TokenMethod, rng: random.Random, provenance: Provenance = Provenance()
) -> CompletionInstance | None:
    big_n = len(seg.tokens)
    if big_n <= MIN_MASK_TOKENS:
        return None
    n = rng.randint(MIN_MASK_TOKENS, min(MAX_MASK_TOKENS, big_n - 1))
    return _reference_mask_last_tokens(method, seg.tokens, n, seg.kind, provenance)


def reference_generate_generic(
    method: TokenMethod, dist: MaskLengthDistribution, rng: random.Random, provenance: Provenance = Provenance()
) -> list[CompletionInstance]:
    open_idx = next((i for i, t in enumerate(method.tokens) if t.text == "{"), None)
    if open_idx is None:
        return []
    body_counts = Counter(t.line for t in method.tokens[open_idx + 1 : -1])
    start_lines = sorted(line for line, c in body_counts.items() if c >= 2)
    if not start_lines:
        return []
    by_line = _reference_tokens_by_line(method)
    out: dict[tuple[int, ...], CompletionInstance] = {}
    for floor in (dist.median, 0.0):
        for _ in range(_GENERIC_ATTEMPTS):
            if len(out) >= MAX_GENERIC_PER_METHOD:
                break
            start = rng.choice(start_lines)
            span = tuple(line for line in range(start, start + 3) if line in by_line)
            toks = [t for line in span for t in by_line[line]]
            big_n = len(toks)
            if big_n <= MIN_MASK_TOKENS or big_n - 1 < floor:
                continue
            if span in out:
                continue
            n = draw_mask_length(dist, big_n - 1, rng)
            if n is None:
                continue
            kind = ISOLATED_LINE if len(span) == 1 else BLOCK
            instance = _reference_mask_last_tokens(method, toks, n, kind, provenance)
            if instance is not None:
                out[span] = instance
        if out:
            break
    return list(out.values())


def reference_mlm_pretrain_instances(method: TokenMethod, rng: random.Random) -> MlmInstance:
    """Masks with indexed sentinels whatever the text holds."""
    tokens = method.tokens
    k = math.ceil(MLM_MASK_RATE * len(tokens))
    positions = sorted(rng.sample(range(len(tokens)), k))

    offset = reference_offset_in_text(method)
    pieces: list[str] = []
    targets: list[str] = []
    cursor = 0
    for i, pos in enumerate(positions):
        tok = tokens[pos]
        start = offset(tok)
        pieces.append(method.text[cursor:start])
        pieces.append(f"<MASK_{i}>")
        targets.append(tok.text)
        cursor = start + len(tok.text)
    pieces.append(method.text[cursor:])
    masked_text = "".join(pieces)

    h = hashlib.sha256()
    h.update(masked_text.encode("utf-8"))
    for t in targets:
        h.update(b"\x00")
        h.update(t.encode("utf-8"))
    return MlmInstance(h.hexdigest()[:20], masked_text, tuple(targets), method.signature)


def reference_latin_only(text: str) -> bool:
    for c in text:
        o = ord(c)
        if o > 0xFF:
            return False
        if c in "\t\n\r\f\x0b":
            continue
        if 0x20 <= o <= 0x7E or 0xA0 <= o <= 0xFF:
            continue
        return False
    return True


def _reference_read(reader: BlobReader, sha: str, file: str) -> str | None:
    data = reader.read(f"{sha}:{file}")
    if data is None:
        return None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def _reference_changed_methods(commit, reader: BlobReader, counts: Counter) -> list:
    out = []
    for file in sorted(commit.changed_java_files):
        child = _reference_read(reader, commit.sha, file)
        if child is None:
            counts["undecodable_files"] += 1
            continue
        parent = ""
        if commit.first_parent_sha is not None:
            parent = _reference_read(reader, commit.first_parent_sha, file) or ""
        lines = added_lines(parent, child)
        if not lines:
            continue
        spans = method_spans(child, {})
        if spans is None:
            counts["unparsable_files"] += 1
            continue
        counts["methods_extracted"] += len(spans)
        source_lines = child.split("\n")
        kept = []
        for span in spans:
            at = bisect_left(lines, span.start_line)
            if at == len(lines) or lines[at] > span.end_line:
                continue
            m = method_unit(child, span, source_lines)
            verdict = apply_method_filters(m)
            if verdict.kept:
                kept.append(m)
            else:
                counts["dropped:" + verdict.reason] += 1
        counts["methods_kept"] += len(kept)
        out.extend((file, method, line_numbers) for method, line_numbers in map_added_lines(kept, lines))
    return out


def reference_mine_commits(commits, repo_paths: dict, counts: Counter, unit):
    """`pipeline._mine_commits` without memos: each changed Java file is
    read at ``<sha>:<path>`` and at ``<first parent>:<path>``, so git
    walks the tree on every read and a text is read again at each commit
    that needs it, and every source's headers are lexed afresh. It reads
    a deleted file too, at the commit that deleted it, and counts it as
    undecodable. Every touched method is lexed, whatever ``unit`` asks."""
    for repo_id, repo_commits in groupby(commits, key=attrgetter("repo_id")):
        with BlobReader(repo_paths[repo_id]) as reader:
            for commit in repo_commits:
                if not commit.changed_java_files:
                    continue
                yield commit, _reference_changed_methods(commit, reader, counts)


def reference_resolve_branch(repo_path, branch: str) -> str:
    """`mining.resolve_branch` without reading a ref file: one ``git
    for-each-ref`` lists every branch head, whatever the repository's
    layout."""
    result = subprocess.run(
        ["git", "-C", str(repo_path), "for-each-ref", "--format=%(refname) %(objectname)", "refs/heads"],
        capture_output=True, text=True, encoding="utf-8", errors="replace",
    )
    if result.returncode != 0:
        raise RepoUnreadable(f"{repo_path}: git for-each-ref failed: {result.stderr.strip()}")
    heads = dict(line.rsplit(" ", 1) for line in result.stdout.splitlines())
    if heads and f"refs/heads/{branch}" not in heads:
        raise BranchMissing(f"branch {branch!r} not found in {repo_path}")
    return heads.get(f"refs/heads/{branch}", "")


def _reference_dedup_key(instance: CompletionInstance) -> tuple[str, str]:
    return (normalize_for_dedup(instance.context), normalize_for_dedup(instance.target))


def reference_dedup(train: list[CompletionInstance], holdout: list[CompletionInstance]) -> list[CompletionInstance]:
    """`assembly.dedup` as one set of (context, target) keys, both texts
    of every train and holdout instance whitespace-collapsed."""
    holdout_keys = {_reference_dedup_key(i) for i in holdout}
    return [i for i in train if _reference_dedup_key(i) not in holdout_keys]


def reference_org_pool(devs: dict[str, list[CompletionInstance]], anchor_split) -> list[CompletionInstance]:
    """The train and val of an organization dataset, by the rule as first
    written: union every developer's instances no newer than the anchor's
    cutoff, drop the anchor's held-out duplicates, sort by time, commit
    and id, and keep the first instance of each id."""
    holdout = [*anchor_split.val, *anchor_split.test]
    cutoff = min(max(i.timestamp for i in anchor_split.train), min(i.timestamp for i in holdout) - 1)
    pool = reference_dedup([i for pool in devs.values() for i in pool if i.timestamp <= cutoff], holdout)
    first: dict[str, CompletionInstance] = {}
    for i in sorted(pool, key=lambda i: (i.timestamp, i.commit_sha, i.instance_id)):
        first.setdefault(i.instance_id, i)
    return list(first.values())
