"""Method boundary extraction and filtering for Java source.

Methods are located by a signature/brace heuristic rather than a full
grammar: a declaration header (modifiers, type tokens, identifier,
parenthesized parameter list, optional throws clause) followed by a
brace-balanced body, recognized only at class-body nesting level.
Sources whose significant braces do not balance are unparsable:
`parse_methods` returns None for them, so a caller learns that and the
methods from one lex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .javalex import (
    IDENTIFIER,
    KEYWORD,
    SourceToken,
    lex,
    significant_tokens,
)

REASON_OK = "ok"
REASON_UNPARSABLE = "unparsable"
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

_WORD_RE = re.compile(r"[0-9]+|[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+")


@dataclass(frozen=True, slots=True)
class MethodUnit:
    name: str
    signature: str
    start_line: int
    end_line: int
    tokens: tuple[SourceToken, ...]  # significant tokens, header through closing brace
    body_token_count: int
    text: str  # full source lines start_line..end_line

    @property
    def token_count(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, slots=True)
class FilterVerdict:
    kept: bool
    reason: str


@dataclass(frozen=True, slots=True)
class AddedLine:
    file: str
    line_number: int  # 1-based, in the child version
    text: str


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


def is_parsable(source: str) -> bool:
    """Whether method recovery can work on this source (braces balance)."""
    return _braces_balanced(significant_tokens(lex(source)))


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
        elif depth == 0 and tok.kind == KEYWORD and tok.text == "throws":
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
        if tok.kind == KEYWORD and tok.text in _TYPE_DECL_KEYWORDS:
            return "type", tok.text, None
        if (
            tok.text == "record"
            and tok.kind == IDENTIFIER
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


def parse_methods(source: str) -> list[MethodUnit] | None:
    """Method declarations (constructors included) in Java source, or
    None when its significant braces do not balance; lexes once."""
    sig = significant_tokens(lex(source))
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


def extract_methods(source: str) -> list[MethodUnit]:
    """Locate method declarations (constructors included) in Java source."""
    return parse_methods(source) or []


def name_words(name: str) -> list[str]:
    """Split an identifier on underscores, camelCase, and digit runs."""
    words: list[str] = []
    for part in name.split("_"):
        words.extend(_WORD_RE.findall(part))
    return words


def _latin_only(text: str) -> bool:
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


def apply_method_filters(
    m: MethodUnit,
    min_tokens: int = MIN_METHOD_TOKENS,
    max_tokens: int = MAX_METHOD_TOKENS,
) -> FilterVerdict:
    """Apply the keep/drop rules for one extracted method."""
    if any(w.lower() == "test" for w in name_words(m.name)):
        return FilterVerdict(False, REASON_TEST_NAME)
    if m.body_token_count <= 0:
        return FilterVerdict(False, REASON_EMPTY_BODY)
    if m.token_count < min_tokens:
        return FilterVerdict(False, REASON_TOO_SHORT)
    if m.token_count > max_tokens:
        return FilterVerdict(False, REASON_TOO_LONG)
    if not _latin_only(m.text):
        return FilterVerdict(False, REASON_NON_LATIN)
    return FilterVerdict(True, REASON_OK)


def map_added_lines(
    methods: list[MethodUnit], lines: list[AddedLine]
) -> list[tuple[MethodUnit, list[int]]]:
    """Assign each added line to its innermost enclosing method.

    Methods that received no added line are omitted; line sets are
    sorted and deduplicated.
    """
    hits: dict[int, set[int]] = {}
    for added in lines:
        best: int | None = None
        for i, m in enumerate(methods):
            if m.start_line <= added.line_number <= m.end_line:
                if best is None:
                    best = i
                else:
                    b = methods[best]
                    if (m.start_line, -m.end_line) > (b.start_line, -b.end_line):
                        best = i
        if best is not None:
            hits.setdefault(best, set()).add(added.line_number)
    return [(methods[i], sorted(hits[i])) for i in sorted(hits)]
