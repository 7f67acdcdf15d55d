"""Lexer for Java source that yields its significant tokens.

`lex` never fails: unknown characters become one-character operator
tokens, unterminated strings and chars close at end of line, and text
blocks and block comments at end of input. Whitespace and comments are
skipped. Each token keeps the 1-based line and 0-based column of its
first character; that position, not the token texts, locates a token
in its source. `token_offsets` gives the same tokens' offsets and texts,
which is all that masking reads; `lex` is built on it, placing each
offset on its line and taking each kind from the text (`token_kind`).

Three scanners, built from the same pieces by one builder, read a
source in one `findall` each. In every one a possessive prefix absorbs
what comes before the next token it yields, so each match is one such
token, and a final end-of-input alternative keeps trailing text from
being scanned again.

- The text scanner, which `token_texts` and `count_tokens` run, has a
  prefix that absorbs whitespace and comments and one group holding
  the token alternatives.
- The offset scanner, which `token_offsets` runs, also captures that
  prefix: group 1 is the whitespace and comments before a token and
  group 2 its text, so their lengths, summed in order, place each token.
- The vocabulary scanner, which `vocabulary` runs, also absorbs in its
  prefix every separator and operator: every character that starts no
  word, number, string or char, "...", and a "." that no digit
  follows. Its one group captures a word or a literal.

Every capture group sits outside the possessive repeats: CPython's `re`
misreports a group captured inside one (or raises SystemError on it).

A number starts with a `str.isdigit` character, an identifier with a
`str.isalpha` one (or "_", "$"), and an identifier goes on while
`str.isalnum` holds. `re`'s own classes differ from the first two on
about 1,300 code points (`²` is a digit, `½` and `Ⅷ` are neither
digits nor letters). ASCII text uses ASCII classes, which are exact
there; the Unicode scanners are built together on first use of
non-ASCII text, from the code points read a chunk at a time.

`lex` takes a range of its source, so a caller can lex only the parts it
reads. Two more patterns step through a source without making tokens,
built from the scanners' comment, string and char pieces. `SCAN_BLOCKS`
steps from one significant brace or ";" to the next. `SCAN_CODE` skips
statements and every brace group that holds no other brace, a bounded
run of them per step, and stops at a group that nests, at a '}', or
where the run is cut. Each step also gives the start of the header
before its stop. A range that starts and ends at such a stop lexes to
the same tokens as the whole source has there.
"""

from __future__ import annotations

import array
import functools
import re
import sys
from itertools import accumulate, chain, islice
from operator import itemgetter
from typing import NamedTuple

IDENTIFIER = "identifier"
KEYWORD = "keyword"
STRING_LITERAL = "string-literal"
CHAR_LITERAL = "char-literal"
NUMBER_LITERAL = "number-literal"
OPERATOR = "operator"
SEPARATOR = "separator"

KEYWORDS = frozenset({
    "abstract", "assert", "boolean", "break", "byte", "case", "catch",
    "char", "class", "const", "continue", "default", "do", "double",
    "else", "enum", "extends", "final", "finally", "float", "for",
    "goto", "if", "implements", "import", "instanceof", "int",
    "interface", "long", "native", "new", "package", "private",
    "protected", "public", "return", "short", "static", "strictfp",
    "super", "switch", "synchronized", "this", "throw", "throws",
    "transient", "try", "void", "volatile", "while",
    # literal keywords; classed as keywords, not literals
    "true", "false", "null",
})

# Longest-match first; separators are tried before operators.
_OPERATORS = (
    ">>>=", ">>=", "<<=", ">>>", "<<", ">>", "->", "==", "!=", "<=",
    ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "&=", "|=",
    "^=", "%=", "+", "-", "*", "/", "%", "&", "|", "^", "!", "~", "=",
    "<", ">", "?", ":",
)
_SEPARATORS = ("...", "::", "(", ")", "{", "}", "[", "]", ";", ",", ".", "@")


class SourceToken(NamedTuple):
    kind: str
    text: str
    line: int  # 1-based line of the token's first character
    col: int   # 0-based column of the token's first character


_COMMENT = r"//[^\n]*+|/\*[\s\S]*?(?:\*/|\Z)"
# Whitespace is " \t\f\r\n" only; any other character starts a token.
_TRIVIA = rf"(?:[ \t\f\r\n]++|{_COMMENT})*+"
# An unterminated string or char closes at end of line, a text block at
# end of input; an escaped newline continues a string.
_QUOTED = r"{q}(?:[^{q}\\\n]++|\\[\s\S])*+(?:{q}|\\)?"
_STRING = r'"""[\s\S]*?(?:"""|\Z)|' + _QUOTED.format(q='"')
_CHAR = _QUOTED.format(q="'")


class _Scanners(NamedTuple):
    """The three scans of one character set."""
    texts: re.Pattern  # group 1 is each token's text
    offsets: re.Pattern  # group 1 is the trivia before each token, group 2 its text
    vocabulary: re.Pattern  # group 1 is each word, number, string or char


def _scanners(digit: str, ident_start: str, ident_part: str, no_start: str) -> _Scanners:
    """The scanners of one character set. ``digit`` and ``ident_part``
    are bodies of character classes; ``ident_start`` matches one
    character, and ``no_start`` one that is not "/" or "." and starts no
    word, number, string or char: any other character of a separator or
    operator, and whitespace."""
    digits = f"[{digit}][{digit}_]*+"
    exponent = f"(?:[eE][+-]?{digits})?"
    number = (
        f"(?:0[xX][0-9a-fA-F_.]*+(?:[pP][+-]?{digits})?"
        f"|0[bB][01][01_]*+"
        # "1." is a number, but "1.foo" is "1" "." "foo"
        f"|{digits}(?:\\.{digits}|\\.(?!{ident_start}))?{exponent}"
        f"|\\.{digits}{exponent})[lLfFdD]?"
    )
    word = f"{ident_start}[{ident_part}]*+"
    separator = "|".join(map(re.escape, _SEPARATORS))
    operator = "|".join(map(re.escape, _OPERATORS)) + r"|[\s\S]"
    alternatives = rf"{number}|{word}|{separator}|{_STRING}|{_CHAR}|{operator}|\Z"
    # A "." starts a number exactly when a digit follows it, and "..." is
    # tried first, so that "...5" skips "..." as `lex` does
    skip = rf"(?:(?:{no_start})++|{_COMMENT}|/|\.\.\.|\.(?![{digit}]))*+"
    return _Scanners(
        re.compile(f"{_TRIVIA}({alternatives})"),
        re.compile(f"({_TRIVIA})({alternatives})"),
        re.compile(rf"{skip}({number}|{word}|{_STRING}|{_CHAR}|\Z)"),
    )


_ASCII = _scanners("0-9", "[A-Za-z_$]", "0-9A-Za-z_$", r"""[^0-9A-Za-z_$"'./]""")
_SEPARATOR_TEXTS = frozenset(_SEPARATORS)
# what `vocabulary` drops of the texts it scans: keywords and the empty
# match at end of input
_NOT_VOCABULARY = KEYWORDS | {""}


def _escaped(chars: str) -> str:
    return "".join(f"\\U{ord(c):08x}" for c in chars)


_CHUNK = 4096  # code points per string in `_non_letter_words`


def _non_letter_words() -> str:
    """The word characters (``\\w``) that are neither decimal digits nor
    "_" nor `str.isalpha` letters, read a chunk of code points at a time
    so that no string of every code point is held at once."""
    found = []
    for low in range(0, sys.maxunicode + 1, _CHUNK):
        codes = array.array("I", range(low, min(low + _CHUNK, sys.maxunicode + 1)))
        chunk = codes.tobytes().decode("utf-32-le", "surrogatepass")
        found += (c for c in "".join(re.findall(r"[^\W\d_]+", chunk)) if not c.isalpha())
    return "".join(found)


@functools.cache
def _unicode_scanners() -> _Scanners:
    """The scanners for non-ASCII text, built on first use.

    ``\\w`` is exactly `str.isalnum` plus "_", and ``\\d`` exactly
    `str.isdecimal`. What `str.isdigit` and `str.isalpha` add or remove
    is found among the word characters that are not decimal digits; those
    that are not digits either start no token but a one-character
    operator.
    """
    other = _non_letter_words()
    digit = r"\d" + _escaped(filter(str.isdigit, other))
    no_start = rf"""[^\w$"'./]|[{_escaped(c for c in other if not c.isdigit())}]"""
    return _scanners(digit, f"(?:(?![{_escaped(other)}])[^\\W\\d]|\\$)", r"\w$", no_start)


def _text(stops: str) -> str:
    """Any run of text without a significant character of ``stops``.

    Comments, strings, chars and text blocks are skipped whole with the
    scanners' own pieces, and nothing else in a token can hold a
    brace, a ";", a quote or a "/", so the run ends exactly where `lex`
    yields one of those separators.
    """
    return rf"""(?:[^{stops}"'/]++|{_COMMENT}|{_STRING}|{_CHAR}|/)*+"""


# Groups of a scan step: 1 is empty and starts the header of the stop,
# 2 is the stop, or empty at end of input.
# In a type body, one step to the next significant brace or ";".
SCAN_BLOCKS = re.compile(rf"(){_text('{};')}([{{}};]|\Z)")
# In code (a method body, a block, or the top level), one step skips
# statements and every brace group that holds no other brace, at most
# `_RUN` of them, and stops at a '{' that opens a nesting or unclosed
# group, at a '}', or at the ";" or '{' where the run is cut. Python's
# `re` misreports a group captured inside a possessive repeat (or raises
# SystemError on it), so group 1 sits after the repeat. The repeat is
# possessive, so it keeps no backtracking state: a greedy one raised the
# peak memory of a walk over a 200,000-row table by about 20 MB. Its
# bound caps the work of one step whatever the engine keeps.
_RUN = 512
_FLAT_GROUP = rf"\{{{_text('{}')}\}}"
SCAN_CODE = re.compile(rf"(?:{_text('{};')}(?:;|{_FLAT_GROUP})){{0,{_RUN}}}+(){_text('{};')}([{{}};]|\Z)")


def token_kind(text: str) -> str:
    """The kind of a significant token with this (non-empty) text; no
    text is a token of two kinds. A quote starts a string or char, a
    digit or a "." a number (".5"; "." and "..." are separators), a
    letter, "_" or "$" a keyword or identifier; any other non-separator
    text is an operator."""
    first = text[0]
    if first == '"':
        return STRING_LITERAL
    if first == "'":
        return CHAR_LITERAL
    if text in _SEPARATOR_TEXTS:
        return SEPARATOR
    if first.isdigit() or first == ".":
        return NUMBER_LITERAL
    if first.isalpha() or first in "_$":
        return KEYWORD if text in KEYWORDS else IDENTIFIER
    return OPERATOR


def lex(source: str, start: int = 0, end: int | None = None, line: int = 1) -> list[SourceToken]:
    """Significant tokens of ``source[start:end]``; total over arbitrary input.

    ``line`` is the line number at ``start``, which a caller walking the
    source keeps; columns count from the start of that line in
    ``source``. A range that starts and ends where the whole source's
    tokens do (such as at a significant brace) yields exactly the whole
    source's tokens there.
    """
    if end is None:
        end = len(source)
    offsets, texts = token_offsets(source, start, end)
    tokens: list[SourceToken] = []
    append = tokens.append
    new = tuple.__new__
    line_start = source.rfind("\n", 0, start) + 1  # offset of the current line's first character
    next_nl = source.find("\n", start, end)
    if next_nl < 0:
        next_nl = end
    for at, text in zip(offsets, texts):
        if next_nl < at:
            line += source.count("\n", line_start, at)
            line_start = source.rfind("\n", 0, at) + 1
            next_nl = source.find("\n", at, end)
            if next_nl < 0:
                next_nl = end
        append(new(SourceToken, (token_kind(text), text, line, at - line_start)))
    return tokens


def token_texts(text: str) -> list[str]:
    """Texts of the significant tokens of ``text`` (the metric and dedup
    unit); the same texts as `lex` yields, without tracking positions or
    building tokens.
    """
    texts = (_ASCII if text.isascii() else _unicode_scanners()).texts.findall(text)
    # only the end of input matches empty: once, or twice after trailing trivia
    del texts[len(texts) - texts[-2:].count(""):]
    return texts


def count_tokens(source: str, start: int, end: int) -> int:
    """``len(lex(source, start, end))``, without building a token."""
    texts = (_ASCII if source.isascii() else _unicode_scanners()).texts.findall(source, start, end)
    return len(texts) - texts[-2:].count("")


def token_offsets(source: str, start: int = 0, end: int | None = None) -> tuple[list[int], list[str]]:
    """The offset in ``source`` and the text of each significant token of
    ``source[start:end]``, without building a token; `lex` places the
    same offsets on their lines."""
    if end is None:
        end = len(source)
    pairs = (_ASCII if source.isascii() else _unicode_scanners()).offsets.findall(source, start, end)
    # only the end of input matches an empty text: once, or twice after trailing trivia
    cut = len(pairs) - 1
    if cut and not pairs[cut - 1][1]:
        cut -= 1
    del pairs[cut:]
    # the end of each trivia and each text, in turn: a token starts where its trivia ends
    ends = accumulate(map(len, chain.from_iterable(pairs)), initial=start)
    return list(islice(ends, 1, None, 2)), list(map(itemgetter(1), pairs))


def vocabulary(text: str) -> frozenset[str]:
    """The distinct identifier and literal texts of ``text``: the texts
    of `lex`'s identifier, number, string and char tokens."""
    found = (_ASCII if text.isascii() else _unicode_scanners()).vocabulary.findall(text)
    return frozenset(found).difference(_NOT_VOCABULARY)
