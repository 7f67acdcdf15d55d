from __future__ import annotations

import array
import ast
import random
import re
import sys
from pathlib import Path

import pytest

from repotailor import javalex
from repotailor.javalex import (
    CHAR_LITERAL,
    IDENTIFIER,
    KEYWORD,
    NUMBER_LITERAL,
    OPERATOR,
    SEPARATOR,
    SCAN_BLOCKS,
    SCAN_CODE,
    STRING_LITERAL,
    _RUN,
    count_tokens,
    lex,
    token_kind,
    token_offsets,
    token_texts,
    vocabulary,
)

from conftest import HAS_PEAK_KB, PEAK_KB, _method_source, random_method, run_python
from oracles import COMMENT, assert_tokens_cover, reference_lex


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in lex(source)]


def test_simple_declaration():
    assert kinds_and_texts("int a = 3;") == [
        (KEYWORD, "int"),
        (IDENTIFIER, "a"),
        (OPERATOR, "="),
        (NUMBER_LITERAL, "3"),
        (SEPARATOR, ";"),
    ]


def test_empty_source():
    assert lex("") == []


def test_string_literal_is_one_token():
    toks = kinds_and_texts('String s = "a b";')
    assert (STRING_LITERAL, '"a b"') in toks
    assert sum(1 for k, _ in toks if k == STRING_LITERAL) == 1


def test_string_escapes_and_char_literals():
    toks = kinds_and_texts(r'char c = \'\n\'; String s = "say \"hi\"";'.replace("\\'", "'"))
    assert (CHAR_LITERAL, r"'\n'") in toks
    assert (STRING_LITERAL, r'"say \"hi\""') in toks
    toks = kinds_and_texts("char c = '\\n'; String s = \"say \\\"hi\\\"\";")
    assert (CHAR_LITERAL, "'\\n'") in toks
    assert (STRING_LITERAL, '"say \\"hi\\""') in toks


def test_comments():
    source = "a // line\n/* block\nspans */ b"
    comments = [t.text for t in reference_lex(source) if t.kind == COMMENT]
    assert comments == ["// line", "/* block\nspans */"]
    assert [(t.text, t.line, t.col) for t in lex(source)] == [("a", 1, 0), ("b", 3, 9)]


def test_number_literal_forms():
    source = "0x1F 0b1010 1_000 3.14f 1e-9 2. .5d 10L"
    nums = [t.text for t in lex(source) if t.kind == NUMBER_LITERAL]
    assert nums == ["0x1F", "0b1010", "1_000", "3.14f", "1e-9", "2.", ".5d", "10L"]


def test_dotted_call_on_number_keeps_dot_separate():
    toks = kinds_and_texts("foo(1).bar()")
    assert (NUMBER_LITERAL, "1") in toks
    assert (SEPARATOR, ".") in toks


def test_multichar_operators():
    toks = [t.text for t in lex("a >>>= b >>> c >> d -> e :: f") if t.kind in (OPERATOR, SEPARATOR)]
    assert toks == [">>>=", ">>>", ">>", "->", "::"]


def test_unknown_character_becomes_operator():
    toks = lex("a # b")
    assert (OPERATOR, "#") in [(t.kind, t.text) for t in toks]


def test_line_and_col_tracking():
    toks = lex("ab\n  cd")
    by_text = {t.text: t for t in toks}
    assert (by_text["ab"].line, by_text["ab"].col) == (1, 0)
    assert (by_text["cd"].line, by_text["cd"].col) == (2, 2)


def test_unterminated_string_closes_at_newline():
    source = 'x = "oops\ny'
    texts = [t.text for t in reference_lex(source)]
    assert '"oops' in texts
    assert "".join(texts) == source
    assert token_texts(source) == ["x", "=", '"oops', "y"]


SNIPPETS = [
    "public class A { /* hi */ int x = 0; }",
    'void m() { s = "a\\"b" + \'c\'; } // done',
    "if (a <= b && c >= d) { a >>= 2; }",
    "x = y /* unterminated",
    '"""\ntext block\n""" + rest',
]
FUZZ_ALPHABET = "ab{}()\"'\\/*\n\t 0123456789.;=<>+-_$é世"


def _fuzz(seed: int, count: int, pieces, max_len: int) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choice(pieces) for _ in range(rng.randint(0, max_len))) for _ in range(count)]


def test_round_trip_on_java_snippets():
    for src in SNIPPETS:
        assert "".join(t.text for t in reference_lex(src)) == src


def test_round_trip_fuzz():
    for src in _fuzz(99, 500, FUZZ_ALPHABET, 60):
        assert "".join(t.text for t in reference_lex(src)) == src


def test_tokens_sit_at_their_positions_and_gaps_are_trivia():
    for src in SNIPPETS + _fuzz(99, 500, FUZZ_ALPHABET, 60):
        assert_tokens_cover(src, lex(src))


def _test_string_literals() -> list[str]:
    """Every string literal in this test suite's modules."""
    strings = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        strings += [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return strings


def _fixture_corpus() -> list[str]:
    """The file shapes the fixture repositories commit and conftest's
    synthetic methods."""
    rng = random.Random(5)
    stmts = ["int base1 = seed + scale + 1;", "int r0d1a = seed * 2 + scale * 4;", "int botline = seed + scale + 99;"]
    corpus = [_method_source(f"Main{i}", stmts[: i + 1]) for i in range(len(stmts))]
    corpus += [f"class Spam{i} {{ int f() {{ return {i} + 1 + 2 + 3 + 4; }} }}\n" for i in range(3)]
    corpus += [random_method(rng).text for _ in range(50)]
    return corpus


# Number forms, unterminated literals and comments, input ending in a
# backslash, non-ASCII letters, digits and numerics, and characters
# that are one-character operators (vertical tab, no-break space).
EDGE_PIECES = [
    "0x1.8p3", "0x1.8P-3d", "0xFFL", "0x", "0b2", "0b1_0", "0B", "1.", "1.foo", "1..2", ".5d", "1_000",
    "1e", "1e+", "1e-9", "2.e3", "3f", "7.L", "٣", "²", "½", "Ⅷ", "é", "世", "𝟘", "ǅ", "〇",
    '"', "'", '"""', "\\", "/*", "/*/", "*/", "//", "/", "\n", " ", "\t", "\r", "\f", "\v", "\xa0",
    "a", "x", "_", "$", "e", "p", "d", "L", "0", "1", "9", ".", "...", "::", ">>>=", "->", "@", "#",
    "{", "}", "(", ")", ";", "=", "+", "-",
]


def _reference_corpus() -> list[str]:
    """The fixture shapes, this suite's strings, and fuzz and pairs of
    the edge pieces, non-ASCII text among them."""
    inputs = _fixture_corpus() + _test_string_literals() + _fuzz(20_240, 4000, EDGE_PIECES, 30)
    inputs += [p + q for p in EDGE_PIECES for q in EDGE_PIECES]
    assert any(not s.isascii() for s in inputs)
    return inputs


def test_lex_matches_reference_lexer():
    """Same (kind, text, line, col) stream as the reference lexer's
    significant tokens."""
    for src in _reference_corpus():
        want = [(t.kind, t.text, t.line, t.col) for t in reference_lex(src) if t.significant]
        assert [(t.kind, t.text, t.line, t.col) for t in lex(src)] == want, src


def _code_step(marks: list[tuple[int, str]], at: int, pos: int) -> tuple[int, int]:
    """What one `SCAN_CODE` step from ``pos`` must find, read off the whole
    lex: ``marks`` are the offsets and texts of its '{', '}' and ';'
    tokens, and ``marks[at]`` is the first at or after ``pos``. Returns
    (header start, index in ``marks`` of the stop, len(marks) at end)."""
    start, run = pos, 0
    while at < len(marks) and run < _RUN:
        offset, text = marks[at]
        if text == "}":
            break
        if text == "{":
            close = next((i for i in range(at + 1, len(marks)) if marks[i][1] != ";"), None)
            if close is None or marks[close][1] == "{":
                break  # the group is left open or nests
            at = close  # a group holding no brace
        start, at, run = marks[at][0] + 1, at + 1, run + 1
    return start, at


def test_scan_stops_and_ranges_agree_with_the_whole_lex():
    """`SCAN_BLOCKS` stops exactly at the '{', '}' and ';' tokens of the
    whole lex. `SCAN_CODE` skips each ';' and each group holding no other
    brace, `_RUN` at most, and stops at the next of those tokens; its
    header start is just past the last thing it skipped. A range between
    two stops, or from a header start to its stop, lexes to the whole
    lex's tokens there."""
    inputs = _fixture_corpus() + _test_string_literals() + _fuzz(31, 3000, EDGE_PIECES, 30)
    # runs past the repeat's bound, with a nesting group and a string among them
    inputs += [
        "int[][] t = {" + "{1, 2}, " * (_RUN + 5) + "{ {} } };",
        "void f() {" + "x();" * (2 * _RUN) + ' s = "}{"; { { } } }',
        "{" * 3 + "a;{}" * (_RUN - 1) + "}" * 3,
    ]
    for src in inputs:
        starts = [0]
        for nl, ch in enumerate(src):
            if ch == "\n":
                starts.append(nl + 1)
        whole = lex(src)
        offsets = [starts[t.line - 1] + t.col for t in whole]
        marks = [(o, t.text) for o, t in zip(offsets, whole) if t.text in ("{", "}", ";")]
        found, pos = [], 0
        while (m := SCAN_BLOCKS.match(src, pos))[2]:
            assert m.end(1) == pos, src
            pos = m.end()
            found.append(pos)
        assert found == [o + 1 for o, _ in marks], src
        cuts = [0, *found, len(src)]
        pos = at = 0
        while True:
            m = SCAN_CODE.match(src, pos)
            start, at = _code_step(marks, at, pos)
            assert m.end(1) == start, (src, pos)
            if at == len(marks):
                assert m[2] == "" and m.end() == len(src), (src, pos)
                break
            assert (m[2], m.end()) == (marks[at][1], marks[at][0] + 1), (src, pos)
            cuts += [start, m.end()]
            pos, at = m.end(), at + 1
        cuts = sorted(set(cuts))
        for a, b in zip(cuts, cuts[1:]):
            line = src.count("\n", 0, a) + 1
            assert lex(src, a, b, line) == [t for o, t in zip(offsets, whole) if a <= o < b], (src, a, b)
            inside = [(o, t.text) for o, t in zip(offsets, whole) if a <= o < b]
            assert token_offsets(src, a, b) == ([o for o, _ in inside], [t for _, t in inside]), (src, a, b)


def test_unicode_classes_follow_str_predicates():
    """Over the alphanumeric non-ASCII code points, a digit starts and
    continues a number exactly when `str.isdigit`, a letter an
    identifier exactly when `str.isalpha`, and an identifier goes on
    exactly when `str.isalnum`; other characters are operators. Every
    digit and every alphanumeric non-letter is checked, and every fifth
    letter (the ideograph planes alone hold 90k)."""
    alnum = [c for c in map(chr, range(0x80, sys.maxunicode + 1)) if c.isalnum()]
    chars = [c for i, c in enumerate(alnum) if c.isdigit() or not c.isalpha() or i % 5 == 0]
    alone = lex(" ".join(chars))
    assert [t.text for t in alone] == chars
    for c, tok in zip(chars, alone):
        want = NUMBER_LITERAL if c.isdigit() else IDENTIFIER if c.isalpha() else OPERATOR
        assert tok.kind == want, (hex(ord(c)), tok)
    assert [t.text for t in lex(" ".join("a" + c for c in chars))] == ["a" + c for c in chars]
    after_digit = [x for c in chars for x in (["1" + c] if c.isdigit() else ["1", c])]
    assert token_texts(" ".join("1" + c for c in chars)) == after_digit


def test_ascii_and_unicode_scanners_agree_on_ascii_text():
    """On ASCII text each Unicode scanner finds what the ASCII one does,
    so a header lexes alike in an ASCII and a non-ASCII source (which
    lets `method_spans` key its memo on the header text alone). Inputs:
    every pair of ASCII characters followed by nothing, a digit, a letter
    or a ".", and the ASCII texts of the fuzz corpora."""
    pairs = [chr(a) + chr(b) for a in range(128) for b in range(128)]
    inputs = [p + end for end in ("", "1", "a", ".") for p in pairs]
    fuzz = _fuzz(99, 500, FUZZ_ALPHABET, 60) + _fuzz(20_240, 4000, EDGE_PIECES, 30)
    inputs += [src for src in fuzz if src.isascii()]
    for ascii_scan, unicode_scan in zip(javalex._ASCII, javalex._unicode_scanners()):
        assert [src for src in inputs if ascii_scan.findall(src) != unicode_scan.findall(src)] == []


def test_token_kind_is_the_reference_lexers_kind():
    """No text lexes to two kinds: `token_kind` gives the reference
    lexer's kind of every token of the reference corpus, and of every
    non-ASCII digit and alphanumeric non-letter (and every fifth letter)
    alone and after "a", "1" and "."."""
    alnum = [c for c in map(chr, range(0x80, sys.maxunicode + 1)) if c.isalnum()]
    chars = [c for i, c in enumerate(alnum) if c.isdigit() or not c.isalpha() or i % 5 == 0]
    inputs = _reference_corpus() + [" ".join(p + c for c in chars) for p in ("", "a", "1", ".")]
    for src in inputs:
        for t in reference_lex(src):
            if t.significant:
                assert token_kind(t.text) == t.kind, (t, hex(ord(t.text[-1])))


def test_ascii_text_never_builds_the_unicode_pattern():
    """Building the Unicode classes costs 100-160 ms; an import or
    ASCII-only text must not pay it."""
    probe = (
        "import repotailor\n"
        "from repotailor import javalex\n"
        "assert javalex.lex('class A { int x = 1; }')\n"
        "assert javalex.token_texts('x = 1;') and javalex.vocabulary('x = 1;')\n"
        "assert javalex.count_tokens('x = 1;', 0, 6) and javalex.token_offsets('x = 1;')\n"
        "print(javalex._unicode_scanners.cache_info().currsize)\n"
        "javalex.lex('int é;')\n"
        "print(javalex._unicode_scanners.cache_info().currsize)\n"
    )
    assert run_python(probe).split() == ["0", "1"]


def test_unicode_classes_equal_those_read_from_one_string():
    """`_non_letter_words` reads the code points a chunk at a time and
    finds what one string of every code point gives."""
    every = array.array("I", range(sys.maxunicode + 1)).tobytes().decode("utf-32-le", "surrogatepass")
    want = "".join(c for c in "".join(re.findall(r"[^\W\d_]+", every)) if not c.isalpha())
    assert want and javalex._non_letter_words() == want


@pytest.mark.skipif(not HAS_PEAK_KB, reason="reads the peak resident set from /proc")
def test_unicode_pattern_adds_little_to_peak_memory():
    """Scanning non-ASCII text with every scanner, which builds each
    Unicode one, raises a process's peak memory by less than 2 MB over
    scanning ASCII only."""
    probe = "from repotailor import javalex\n"
    scans = (
        "text = {!r}\n"
        "javalex.lex(text), javalex.token_texts(text), javalex.vocabulary(text)\n"
        "javalex.count_tokens(text, 0, len(text)), javalex.token_offsets(text)\n"
        f"print({PEAK_KB})\n"
    )
    ascii_only = int(run_python(probe + scans.format("class A { int x = 1; }")))
    non_ascii = int(run_python(probe + scans.format("class Ä { int größe = 1; }")))
    assert non_ascii - ascii_only < 2048, (ascii_only, non_ascii)


def _lex_offsets(src: str, start: int = 0, end: int | None = None) -> tuple[list[int], list[str]]:
    """The offsets and texts of `lex`'s tokens of ``src[start:end]``."""
    starts = [0] + [i + 1 for i, c in enumerate(src) if c == "\n"]
    tokens = lex(src, start, end, src.count("\n", 0, start) + 1)
    return [starts[t.line - 1] + t.col for t in tokens], [t.text for t in tokens]


def test_token_offsets_equal_the_positions_of_lex():
    """Each token's (line, col) from `lex`, as an offset, and its text, on
    whole sources and on arbitrary ranges: with non-ASCII text, text
    blocks, CRLF lines, unterminated comments, strings and chars, trailing
    trivia, and the inputs `lex` is checked on against the reference
    lexer."""
    rng = random.Random(10)
    edges = [
        "", " ", "a", "a ", "a /* open", "x /* open\n y", "// only", "a // c\n", '"""\nblock',
        'x = """\n  a { b\n  """ + y;', "'c", "'c\nd", 'x = "oops\ny', '"a\\\nb" c',
        "int größe = ä + ½;\n", "x² + é /* ü */ 世", "a = b;\r\n  c();\r\n", "\\",
    ]
    inputs = edges + _reference_corpus()
    for src in inputs:
        assert token_offsets(src) == _lex_offsets(src), src
        start = rng.randint(0, len(src))
        end = rng.randint(start, len(src))
        assert token_offsets(src, start, end) == _lex_offsets(src, start, end), (src, start, end)


def test_token_texts_strips_comments_and_whitespace():
    assert token_texts("a + b; // trailing") == ["a", "+", "b", ";"]


VOCABULARY_KINDS = (IDENTIFIER, STRING_LITERAL, CHAR_LITERAL, NUMBER_LITERAL)


def test_count_tokens_equals_the_length_of_lex():
    """On whole sources and on arbitrary ranges, with trailing comments
    and whitespace, unterminated literals and non-ASCII text, and on the
    inputs `lex` is checked on against the reference lexer."""
    rng = random.Random(8)
    inputs = ["", " ", "a", "a ", "a /* open", "// only", "x² + ½ * é;  // c\n", '"""\nblock']
    inputs += _fuzz(78, 1000, EDGE_PIECES, 30) + _reference_corpus()
    assert any(not s.isascii() for s in inputs)
    for src in inputs:
        assert count_tokens(src, 0, len(src)) == len(lex(src)), src
        start = rng.randint(0, len(src))
        end = rng.randint(start, len(src))
        assert count_tokens(src, start, end) == len(lex(src, start, end)), (src, start, end)


def test_token_texts_equal_the_texts_of_lex():
    """The texts `lex` yields, in order, and `vocabulary` the distinct
    identifier and literal ones, on trailing comments and whitespace,
    unterminated literals and non-ASCII digits and letters too, and on
    the inputs `lex` is checked on against the reference lexer."""
    edges = [
        "a + b; // trailing", "// only", "", " ", "a ", "a /* open", 'x = "oops\ny', '"""\nblock',
        "'c", "²", "½", "é", "x² + ½ * é;", "\\",
    ]
    inputs = edges + SNIPPETS + _fuzz(99, 500, FUZZ_ALPHABET, 60)
    inputs += _fuzz(77, 1000, EDGE_PIECES, 30) + _reference_corpus()
    for src in inputs:
        tokens = lex(src)
        assert token_texts(src) == [t.text for t in tokens], src
        assert vocabulary(src) == {t.text for t in tokens if t.kind in VOCABULARY_KINDS}, src


@pytest.mark.parametrize(
    "src, words",
    [
        ("a...5", {"a", "5"}),  # "..." is skipped whole, so "5" is not ".5"
        ("a..5", {"a", ".5"}),
        ("1..2", {"1.", ".2"}),
        (".5d", {".5d"}),
        ("x.y", {"x", "y"}),
        ("x/*y*/z", {"x", "z"}),
        ("x//y\nz", {"x", "z"}),
        ("a/b", {"a", "b"}),
        ('s = "oops\ny', {"s", '"oops', "y"}),
        ("c = 'x", {"c", "'x"}),
        ('"""\nblock', {'"""\nblock'}),
        ("if (true) return null;", set()),
        ("٣", {"٣"}),
        ("²", {"²"}),
        ("½ + Ⅷ", set()),
    ],
)
def test_vocabulary_pins(src, words):
    assert vocabulary(src) == words
    assert {t.text for t in lex(src) if t.kind in VOCABULARY_KINDS} == words
