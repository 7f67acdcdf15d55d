"""Method boundary extraction and filtering for Java source.

Methods are located by a signature/brace heuristic rather than a full
grammar: a declaration header (modifiers, type tokens, identifier,
parenthesized parameter list, optional throws clause) followed by a
brace-balanced body, recognized only directly inside a type body (which
may itself sit in a method, as an anonymous or local class does).
Sources whose significant braces do not balance are unparsable:
`method_spans` and `parse_methods` return None for them, so a caller
learns that and the methods from one call. `method_spans` lexes only
the header before a brace. Regex steps go over the rest: in a type body
from brace to brace, elsewhere past whole statements and past every
brace group that holds no other brace (such as table rows and most
method bodies), since a method and the type around it each need their
own '{'. Its caller's memo lets it lex and classify each distinct
header once across the sources it is given. `method_unit` scans one
span's tokens to their offsets and texts, so a caller scans only the
methods it reads; `method_counts` counts its tokens instead, for a
caller that filters methods but keeps only their text; `parse_methods`
scans them all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .javalex import IDENTIFIER, KEYWORD, SCAN_BLOCKS, SCAN_CODE, SourceToken, count_tokens, lex, token_offsets

REASON_OK = "ok"
REASON_TEST_NAME = "test-name"
REASON_EMPTY_BODY = "empty-or-comment-body"
REASON_TOO_SHORT = "too-short"
REASON_TOO_LONG = "too-long"
REASON_NON_LATIN = "non-latin"

MIN_METHOD_TOKENS = 15
MAX_METHOD_TOKENS = 500

_MODIFIERS = frozenset({
    "public", "protected", "private", "static", "final", "abstract",
    "synchronized", "native", "strictfp", "default", "transient",
    "volatile",
})

_TYPE_DECL_KEYWORDS = frozenset({"class", "interface", "enum"})

# A '{' opens a type only after one of these words (see `_classify_header`).
_TYPE_WORD = re.compile(r"class|interface|enum|record|new")

_WORD_RE = re.compile(r"[0-9]+|[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+")


@dataclass(frozen=True, slots=True)
class MethodUnit:
    name: str
    signature: str
    start_line: int
    end_line: int
    # the significant tokens, header through closing brace: each one's
    # offset in `text` and its text
    offsets: tuple[int, ...]
    texts: tuple[str, ...]
    body_token_count: int
    text: str  # full source lines start_line..end_line

    @property
    def token_count(self) -> int:
        return len(self.texts)


@dataclass(frozen=True, slots=True)
class FilterVerdict:
    kept: bool
    reason: str


def is_parsable(source: str) -> bool:
    """Whether method recovery can work on this source (braces balance)."""
    return method_spans(source, {}) is not None


def _strip_annotations(tokens: list[SourceToken]) -> list[SourceToken]:
    out: list[SourceToken] = []
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i].text == "@" and i + 1 < n and tokens[i + 1].kind in (IDENTIFIER, KEYWORD):
            i += 2
            while i + 1 < n and tokens[i].text == "." and tokens[i + 1].kind == IDENTIFIER:
                i += 2
            if i < n and tokens[i].text == "(":
                depth = 0
                while i < n:
                    if tokens[i].text == "(":
                        depth += 1
                    elif tokens[i].text == ")":
                        depth -= 1
                        if depth == 0:
                            i += 1
                            break
                    i += 1
            continue
        out.append(tokens[i])
        i += 1
    return out


def _strip_throws(header: list[SourceToken]) -> list[SourceToken]:
    depth = 0
    for i, tok in enumerate(header):
        if tok.text in "([":
            depth += 1
        elif tok.text in ")]":
            depth -= 1
        elif depth == 0 and tok.text == "throws":
            return header[:i]
    return header


def _angle_delta(text: str) -> int:
    # generics nest, and the lexer emits ">>" / ">>>" as single operators
    if text == "<":
        return 1
    if text in (">", ">>", ">>>"):
        return -len(text)
    return 0


def _split_params(params: list[SourceToken]) -> list[list[SourceToken]]:
    groups: list[list[SourceToken]] = []
    cur: list[SourceToken] = []
    depth = 0
    for tok in params:
        if tok.text in "([":
            depth += 1
        elif tok.text in ")]":
            depth -= 1
        depth += _angle_delta(tok.text)
        if tok.text == "," and depth == 0:
            groups.append(cur)
            cur = []
        else:
            cur.append(tok)
    if cur:
        groups.append(cur)
    return groups


def _param_type(group: list[SourceToken]) -> str:
    group = _strip_annotations(group)
    group = [t for t in group if t.text != "final"]
    if not group:
        return ""
    name_idx = None
    for i in range(len(group) - 1, -1, -1):
        if group[i].kind == IDENTIFIER:
            name_idx = i
            break
    if name_idx is None or name_idx == 0 and len(group) == 1:
        # lone token: a bare type with no name
        return "".join(t.text for t in group)
    return "".join(t.text for i, t in enumerate(group) if i != name_idx)


def _match_method_header(header: list[SourceToken], parent_decl: str) -> tuple[str, str] | None:
    """Return (name, signature) when the header is a method declaration."""
    header = _strip_throws(header)
    if not header or header[-1].text != ")":
        return None
    depth = 0
    open_idx = None
    for i in range(len(header) - 1, -1, -1):
        if header[i].text == ")":
            depth += 1
        elif header[i].text == "(":
            depth -= 1
            if depth == 0:
                open_idx = i
                break
    if open_idx is None or open_idx == 0:
        return None
    name_tok = header[open_idx - 1]
    if name_tok.kind != IDENTIFIER:
        return None
    pre = _strip_annotations(header[: open_idx - 1])
    if any(t.text in ("=", ";") for t in pre):
        return None
    if parent_decl == "enum" and not pre:
        # bare Name(args) { in an enum body is a constant with a body
        return None
    params = header[open_idx + 1 : -1]
    types = [s for s in (_param_type(g) for g in _split_params(params)) if s]
    return name_tok.text, f"{name_tok.text}({','.join(types)})"


def _classify_header(header: list[SourceToken], parent_decl: str | None) -> tuple[str, str, tuple[str, str] | None]:
    """Classify the '{' opened after ``header``.

    Returns (context_kind, decl, method_info) where context_kind is one
    of 'type', 'method', 'block'.
    """
    texts = [t.text for t in header]
    for i, tok in enumerate(header):
        if tok.text in _TYPE_DECL_KEYWORDS:
            return "type", tok.text, None
        if (
            tok.text == "record"
            and i + 2 < len(header)
            and header[i + 1].kind == IDENTIFIER
            and header[i + 2].text == "("
        ):
            return "type", "record", None
    if "new" in texts:
        if texts and texts[-1] == ")":
            return "type", "anon", None
        return "block", "", None
    if texts and texts[-1] == "->":
        return "block", "", None
    if parent_decl is not None:  # directly inside a type body
        stripped = _strip_annotations(header)
        if all(t.text in _MODIFIERS for t in stripped):
            return "block", "", None  # initializer block
        if any(t.text == "=" for t in stripped):
            return "block", "", None  # field initializer
        info = _match_method_header(header, parent_decl)
        if info is not None:
            return "method", "", info
    return "block", "", None


def _body_token_count(texts: list[str]) -> int:
    """Tokens after the first '{' and before the last, which closes it;
    0 without a '{'."""
    return max(0, len(texts) - texts.index("{") - 2) if "{" in texts else 0


def method_from_text(text: str, name: str, signature: str) -> MethodUnit:
    """Rebuild a maskable MethodUnit from the stored `text` of a method,
    its lines numbered from 1. The text holds whole lines, so it need not
    lex to the method's own tokens alone (or hold a '{' at all)."""
    offsets, texts = token_offsets(text)
    return MethodUnit(
        name=name,
        signature=signature,
        start_line=1,
        end_line=text.count("\n") + 1,
        offsets=tuple(offsets),
        texts=tuple(texts),
        body_token_count=_body_token_count(texts),
        text=text,
    )


class MethodSpan(NamedTuple):
    """Where a method sits in its source, found without lexing its body."""
    name: str
    signature: str
    header_tokens: int  # how many tokens the header has
    start: int  # offset the header's range starts at, just past the ';', brace or group before it
    open: int  # offset of the body's '{'
    close: int  # offset of the body's '}'
    start_line: int  # line of the first header token
    end_line: int  # line of the '}'


def method_spans(source: str, headers: dict) -> list[MethodSpan] | None:
    """Method declarations (constructors included) in Java source, as
    spans sorted by start line, enclosing spans first; None when its
    significant braces do not balance.

    One anchored step at a time goes to the next stop. In a type body,
    where a '{' may open a method, that is the next significant '{',
    '}' or ';' (`SCAN_BLOCKS`). Elsewhere (the top level, a block, a
    method body) a step skips statements and every group that holds no
    other brace, since such a group can declare no method, and stops at
    a '{' that opens a nesting group or at the enclosing '}'
    (`SCAN_CODE`): a method body without nested blocks is one step, and
    table rows are never stopped at. Only the header before a '{' is
    lexed and classified, and only where it may open a type or a method:
    outside a type body, a header without a type-declaring word opens a
    block. The '}' that pops a method closes its span, so innermost
    methods come first before the sort.

    ``headers`` is a memo the caller owns and may share between sources.
    It maps what a header's tokens and class depend on (its text, the
    column it starts at, the enclosing type's decl, and whether the
    source is ASCII, which picks the lexer's pattern) to that class, the
    header's token count, and how many lines below the header range's
    start its first token sits, so each distinct header is lexed and
    classified once.
    """
    spans: list[MethodSpan] = []
    # per open brace: the decl of a type body, None for a block, or an open
    # method's (name, signature, header tokens, header start, '{' offset, start line, line at '{')
    stack: list[str | tuple | None] = []
    line, counted = 1, 0  # the line number at offset `counted`
    is_ascii = source.isascii()
    scan = SCAN_CODE
    pos = 0
    while True:
        m = scan.match(source, pos)
        seg = m.end(1)  # start of the stop's header
        stop = m[2]
        pos = m.end()
        if stop == "{":
            parent = stack[-1] if scan is SCAN_BLOCKS else None  # a type body's decl
            brace = pos - 1
            if parent is None and not _TYPE_WORD.search(source, seg, brace):
                stack.append(None)
            else:
                line += source.count("\n", counted, seg)
                counted = seg
                key = (source[seg:brace], seg - source.rfind("\n", 0, seg) - 1, parent, is_ascii)
                known = headers.get(key)
                if known is None:
                    header = lex(source, seg, brace, line)
                    first_line = header[0].line - line if header else 0
                    known = headers[key] = (*_classify_header(header, parent), len(header), first_line)
                kind, decl, info, header_tokens, first_line = known
                if kind == "method" and info is not None:
                    start_line = line + first_line
                    line += source.count("\n", counted, brace)
                    counted = brace
                    stack.append((info[0], info[1], header_tokens, seg, brace, start_line, line))
                else:
                    stack.append(decl if kind == "type" else None)
        elif stop == "}":
            if not stack:
                return None
            top = stack.pop()
            if top.__class__ is tuple:  # a method: its span ends here
                name, signature, header_tokens, seg, brace, start_line, brace_line = top
                end_line = brace_line + source.count("\n", brace, pos - 1)
                spans.append(MethodSpan(name, signature, header_tokens, seg, brace, pos - 1, start_line, end_line))
        elif not stop:
            break
        else:
            continue  # a ";" changes no scope
        scan = SCAN_BLOCKS if stack and stack[-1].__class__ is str else SCAN_CODE

    if stack:
        return None
    spans.sort(key=lambda s: (s.start_line, -s.end_line))
    return spans


def method_unit(source: str, span: MethodSpan, lines: list[str]) -> MethodUnit:
    """The MethodUnit of ``span``, from one scan of its header and body;
    ``lines`` is ``source.split("\n")``."""
    offsets, texts = token_offsets(source, span.start, span.close + 1)
    base = source.rfind("\n", 0, offsets[0]) + 1  # where the text's first line starts
    return MethodUnit(
        name=span.name,
        signature=span.signature,
        start_line=span.start_line,
        end_line=span.end_line,
        offsets=tuple([offset - base for offset in offsets]),
        texts=tuple(texts),
        body_token_count=_body_token_count(texts),
        text="\n".join(lines[span.start_line - 1 : span.end_line]),
    )


class MethodCounts(NamedTuple):
    """What the filters and `map_added_lines` read of a method, counted
    without building its tokens."""
    name: str
    signature: str
    start_line: int
    end_line: int
    token_count: int
    body_token_count: int
    text: str


def method_counts(source: str, span: MethodSpan, lines: list[str]) -> MethodCounts:
    """The MethodCounts of ``span``, equal to its MethodUnit's; ``lines``
    is ``source.split("\n")``."""
    body = count_tokens(source, span.open, span.close + 1)  # the braces included
    return MethodCounts(
        name=span.name,
        signature=span.signature,
        start_line=span.start_line,
        end_line=span.end_line,
        token_count=span.header_tokens + body,
        body_token_count=body - 2,
        text="\n".join(lines[span.start_line - 1 : span.end_line]),
    )


def parse_methods(source: str) -> list[MethodUnit] | None:
    """Every method of `method_spans`, scanned, or None when the source's
    significant braces do not balance."""
    spans = method_spans(source, {})
    if spans is None:
        return None
    lines = source.split("\n")
    return [method_unit(source, span, lines) for span in spans]


def extract_methods(source: str) -> list[MethodUnit]:
    """Locate method declarations (constructors included) in Java source."""
    return parse_methods(source) or []


def name_words(name: str) -> list[str]:
    """Split an identifier on underscores, camelCase, and digit runs."""
    words: list[str] = []
    for part in name.split("_"):
        words.extend(_WORD_RE.findall(part))
    return words


# Latin-1 printable characters plus the whitespace controls
_NON_LATIN = re.compile(r"[^\t\n\r\f\x0b\x20-\x7e\xa0-\xff]")


def _latin_only(text: str) -> bool:
    return _NON_LATIN.search(text) is None


def apply_method_filters(m: MethodUnit | MethodCounts) -> FilterVerdict:
    """Apply the keep/drop rules for one extracted method."""
    if any(w.lower() == "test" for w in name_words(m.name)):
        return FilterVerdict(False, REASON_TEST_NAME)
    if m.body_token_count <= 0:
        return FilterVerdict(False, REASON_EMPTY_BODY)
    if m.token_count < MIN_METHOD_TOKENS:
        return FilterVerdict(False, REASON_TOO_SHORT)
    if m.token_count > MAX_METHOD_TOKENS:
        return FilterVerdict(False, REASON_TOO_LONG)
    if not _latin_only(m.text):
        return FilterVerdict(False, REASON_NON_LATIN)
    return FilterVerdict(True, REASON_OK)


def map_added_lines(
    methods: list[MethodUnit | MethodCounts], line_numbers: list[int]
) -> list[tuple[MethodUnit | MethodCounts, list[int]]]:
    """Assign each added line (a 1-based line number) to its innermost
    enclosing method.

    Methods that received no added line are omitted; line sets are
    sorted and deduplicated.
    """
    hits: dict[int, set[int]] = {}
    for line in line_numbers:
        best: int | None = None
        for i, m in enumerate(methods):
            if m.start_line <= line <= m.end_line:
                if best is None:
                    best = i
                else:
                    b = methods[best]
                    if (m.start_line, -m.end_line) > (b.start_line, -b.end_line):
                        best = i
        if best is not None:
            hits.setdefault(best, set()).add(line)
    return [(methods[i], sorted(hits[i])) for i in sorted(hits)]
