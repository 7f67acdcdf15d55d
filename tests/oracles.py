"""Independent reference implementations used only to check the
production code. Deliberately brute-force: positional n-gram scans,
explicit subset-sum enumeration, direct binomial tail sums, a
character-walking lossless Java lexer, and a greedy Myers diff that
keeps a copy of its V array for every round, a BLEU scorer that
counts every order into one Counter and filters it by n-gram length,
a method extractor that lexes the whole source and walks every token,
a brace-balance check over a whole lex, a method rebuilder with its
own body-token count, a Latin-1 check that tests one character
at a time, and a mining loop that reads every changed file at
``<sha>:<path>`` and its first parent's, again at each commit.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
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
from repotailor.javamethods import (
    MethodUnit,
    _classify_header,
    apply_method_filters,
    map_added_lines,
    method_spans,
    method_unit,
)
from repotailor.metrics import _EPSILON, DEFAULT_MAX_ORDER, DEFAULT_TRIVIAL_K, Ngram
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


def reference_parse_methods(source: str) -> list[MethodUnit] | None:
    """Method declarations (constructors included) in Java source, or
    None when its significant braces do not balance; lexes once."""
    sig = lex(source)
    if not _braces_balanced(sig):
        return None
    lines = source.split("\n")

    methods: list[MethodUnit] = []
    # stack entries: (kind, decl, header_start_idx, name, signature)
    stack: list[tuple[str, str, int, str, str]] = []
    seg_start = 0

    for idx, tok in enumerate(sig):
        text = tok.text
        if text == "{":
            parent_decl = None
            if stack and stack[-1][0] == "type":
                parent_decl = stack[-1][1]
            kind, decl, info = _classify_header(sig[seg_start:idx], parent_decl)
            if kind == "method" and info is not None:
                stack.append(("method", "", seg_start, info[0], info[1]))
            else:
                stack.append((kind, decl, seg_start, "", ""))
            seg_start = idx + 1
        elif text == "}":
            kind, _, start_idx, name, signature = stack.pop()
            if kind == "method":
                start_tok = sig[start_idx]
                toks = tuple(sig[start_idx : idx + 1])
                open_pos = next(i for i, t in enumerate(toks) if t.text == "{")
                body_count = len(toks) - open_pos - 2
                start_line = start_tok.line
                end_line = tok.line
                methods.append(MethodUnit(
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


def reference_method_from_text(text: str, name: str, signature: str) -> MethodUnit:
    """Rebuild a maskable MethodUnit from stored method source."""
    tokens = tuple(lex(text))
    open_idx = next((i for i, t in enumerate(tokens) if t.text == "{"), None)
    body = max(0, len(tokens) - open_idx - 2) if open_idx is not None else 0
    return MethodUnit(
        name=name,
        signature=signature,
        start_line=1,
        end_line=text.count("\n") + 1,
        tokens=tokens,
        body_token_count=body,
        text=text,
    )


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


def reference_mine_commits(commits, repo_paths: dict, counts: Counter, unit, wanted=lambda commit: True):
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
                if not wanted(commit):
                    counts["unwanted_commits"] += 1
                    continue
                yield commit, _reference_changed_methods(commit, reader, counts)
