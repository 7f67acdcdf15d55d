from __future__ import annotations

from pathlib import Path

import pytest

from repotailor import javamethods
from repotailor.javalex import _RUN, lex
from repotailor.javamethods import (
    REASON_EMPTY_BODY,
    REASON_NON_LATIN,
    REASON_OK,
    REASON_TEST_NAME,
    REASON_TOO_LONG,
    REASON_TOO_SHORT,
    _latin_only,
    apply_method_filters,
    extract_methods,
    is_parsable,
    map_added_lines,
    method_counts,
    method_from_text,
    method_spans,
    method_unit,
    name_words,
    parse_methods,
)

from conftest import HAS_PEAK_KB, PEAK_KB, _method_source, method_of, run_python
from oracles import (
    _braces_balanced,
    assert_tokens_cover,
    reference_latin_only,
    reference_method_from_text,
    reference_parse_methods,
)

SIMPLE_CLASS = """class Greeter {
    String greet(String name) {
        String prefix = "Hello, ";
        String suffix = "!";
        String result = prefix + name + suffix;
        return result;
    }
}"""


def test_single_method_span():
    methods = extract_methods(SIMPLE_CLASS)
    assert len(methods) == 1
    m = methods[0]
    assert m.name == "greet"
    assert m.signature == "greet(String)"
    assert (m.start_line, m.end_line) == (2, 7)


def test_unbalanced_braces_yield_nothing():
    assert extract_methods("class A { void m() { int x = 1; }") == []
    assert not is_parsable("class A { { }")
    assert is_parsable(SIMPLE_CLASS)


def test_constructor_plus_two_methods():
    source = """class Box {
    private int size;
    Box(int size) {
        this.size = size;
    }
    int size() {
        return size;
    }
    void resize(int next, String reason) {
        size = next;
    }
}"""
    methods = extract_methods(source)
    assert [m.name for m in methods] == ["Box", "size", "resize"]
    assert [m.signature for m in methods] == ["Box(int)", "size()", "resize(int,String)"]


def test_nested_class_methods():
    source = """class Outer {
    void outerWork() {
        int x = 1;
    }
    static class Inner {
        void innerWork() {
            int y = 2;
        }
    }
}"""
    methods = extract_methods(source)
    assert {m.name for m in methods} == {"outerWork", "innerWork"}


def test_anonymous_class_methods_found():
    source = """class A {
    void setup() {
        Runnable r = new Runnable() {
            public void run() {
                int i = 0;
            }
        };
    }
}"""
    names = {m.name for m in extract_methods(source)}
    assert names == {"setup", "run"}


def test_field_array_initializer_is_not_a_method():
    source = """class A {
    int[] data = {1, 2, 3};
    void real() {
        int x = data[0];
    }
}"""
    assert [m.name for m in extract_methods(source)] == ["real"]


def test_control_flow_braces_are_not_methods():
    source = """class A {
    int pick(int a) {
        if (a > 0) {
            return a;
        }
        while (a < 0) {
            a++;
        }
        return 0;
    }
}"""
    assert [m.name for m in extract_methods(source)] == ["pick"]


def test_generic_signature_normalization():
    source = """class A {
    void put(Map<String, List<Integer>> table, int n, String... rest) {
        table.clear();
    }
}"""
    m = extract_methods(source)[0]
    assert m.signature == "put(Map<String,List<Integer>>,int,String...)"


def test_throws_clause_ignored_in_signature():
    source = """class A {
    void risky(int a) throws java.io.IOException, IllegalStateException {
        int x = a;
    }
}"""
    m = extract_methods(source)[0]
    assert m.signature == "risky(int)"


def test_name_word_splitting():
    assert name_words("testFoo") == ["test", "Foo"]
    assert name_words("getLatest") == ["get", "Latest"]
    assert name_words("run_test2Now") == ["run", "test", "2", "Now"]
    assert name_words("attest") == ["attest"]


def test_filter_test_name():
    src = """class A {
    void testFoo() {
        int value = 1 + 2 + 3 + 4;
        int other = value * 2;
    }
}"""
    assert apply_method_filters(method_of(src)).reason == REASON_TEST_NAME


def test_filter_get_latest_is_kept():
    src = """class A {
    int getLatest(int a, int b) {
        int first = a + b + 1;
        int second = first * 2;
        return second;
    }
}"""
    verdict = apply_method_filters(method_of(src))
    assert verdict.kept and verdict.reason == REASON_OK


def test_filter_empty_body():
    m = method_of("class A {\n    void noop() {\n        /* nothing here */\n    }\n}")
    assert apply_method_filters(m).reason == REASON_EMPTY_BODY


def test_filter_token_boundary_14_vs_15():
    # token count covers the whole method text, signature included
    fourteen = method_of("class A { int f(int a) { return a - -a; } }")
    assert fourteen.token_count == 14
    assert apply_method_filters(fourteen).reason == REASON_TOO_SHORT
    fifteen = method_of("class A { int f(int a) { return a + a + 1; } }")
    assert fifteen.token_count == 15
    assert apply_method_filters(fifteen).kept


def test_filter_too_long():
    body = "".join(f"        int v{i} = {i};\n" for i in range(120))
    m = method_of("class A {\n    void big() {\n" + body + "    }\n}")
    assert m.token_count > 500
    assert apply_method_filters(m).reason == REASON_TOO_LONG


def test_filter_non_latin():
    src = "class A {\n    void emoji() {\n        String s = \"\\u4e16\\u754c\";\n        int pad = 1 + 2 + 3;\n    }\n}"
    # escape sequences are latin; a literal non-latin char is not
    assert apply_method_filters(method_of(src)).kept
    raw = "class A {\n    void emoji() {\n        String s = \"世\";\n        int pad = 1 + 2 + 3;\n    }\n}"
    assert apply_method_filters(method_of(raw)).reason == REASON_NON_LATIN


def test_map_added_lines_outside_method():
    methods = extract_methods(SIMPLE_CLASS)
    assert map_added_lines(methods, [1]) == []


def test_map_added_lines_running_example():
    source = "class C {\n    void build() {\n" + "\n".join(
        f"        int v{i} = {i} + {i};" for i in range(12)
    ) + "\n    }\n}"
    methods = extract_methods(source)
    mapped = map_added_lines(methods, [4, 5, 6, 7, 8, 14])
    assert len(mapped) == 1
    method, line_numbers = mapped[0]
    assert method.name == "build"
    assert line_numbers == [4, 5, 6, 7, 8, 14]


def test_map_added_lines_innermost_wins():
    source = """class Outer {
    void wrap() {
        Runnable r = new Runnable() {
            public void run() {
                int inner = 1;
            }
        };
    }
}"""
    methods = extract_methods(source)
    mapped = map_added_lines(methods, [5])
    assert len(mapped) == 1
    assert mapped[0][0].name == "run"


def test_interface_default_and_static_methods():
    source = """interface Api {
    int id();
    default String describe(int code) {
        return "code " + code;
    }
    static Api of() {
        return null;
    }
}"""
    assert [m.name for m in extract_methods(source)] == ["describe", "of"]


def test_bounded_generic_method_signature():
    source = """class Util {
    public static <T extends Comparable<T>> T max(List<T> items, T fallback) {
        return fallback;
    }
}"""
    assert extract_methods(source)[0].signature == "max(List<T>,T)"


def test_enum_with_constructor_and_method():
    source = """enum Level {
    LOW(1), HIGH(2);
    private final int code;
    private Level(int code) {
        this.code = code;
    }
    int code() {
        return code;
    }
}"""
    assert [(m.name, m.signature) for m in extract_methods(source)] == [
        ("Level", "Level(int)"),
        ("code", "code()"),
    ]


def test_enum_constant_with_body_is_skipped():
    # constant bodies are indistinguishable from bare constructors; the
    # recovery deliberately treats them as blocks
    source = """enum Op {
    PLUS {
        int apply(int a, int b) { return a + b; }
    };
    abstract int apply(int a, int b);
}"""
    assert extract_methods(source) == []


def test_annotation_with_array_argument():
    source = """class A {
    @SuppressWarnings({"unchecked", "raw"})
    void tagged(int x) {
        int y = x + 1;
    }
}"""
    assert [m.name for m in extract_methods(source)] == ["tagged"]


def test_static_initializer_is_not_a_method():
    source = """class A {
    static int N;
    static {
        N = 10;
    }
    void real() { int x = N; }
}"""
    assert [m.name for m in extract_methods(source)] == ["real"]


def test_lambda_bodies_are_not_methods():
    source = """class A {
    void wire(List<String> xs) {
        xs.forEach(x -> {
            System.out.println(x);
        });
        Runnable r = () -> { count++; };
        xs.sort((p, q) -> p.compareTo(q));
    }
}"""
    assert [m.name for m in extract_methods(source)] == ["wire"]


def test_try_catch_finally_blocks_stay_inside_method():
    source = """class A {
    String read(Path p) throws IOException {
        try (BufferedReader br = Files.newBufferedReader(p)) {
            return br.readLine();
        } catch (IOException e) {
            throw e;
        } finally {
            log("done");
        }
    }
}"""
    methods = extract_methods(source)
    assert [m.name for m in methods] == ["read"]
    assert methods[0].signature == "read(Path)"


def test_record_body_methods_found():
    source = """record Point(int x, int y) {
    int sum() {
        return x + y;
    }
}"""
    assert [m.name for m in extract_methods(source)] == ["sum"]


def test_method_spans_nest_or_disjoint():
    source = """class Outer {
    void a() {
        Runnable r = new Runnable() {
            public void run() {
                int inner = 1;
            }
        };
    }
    static class Mid {
        void b() {
            int x = 2;
        }
    }
    void c() {
        int y = 3;
    }
}"""
    methods = extract_methods(source)
    assert len(methods) == 4
    for m in methods:
        opens = sum(1 for t in m.tokens if t.text == "{")
        closes = sum(1 for t in m.tokens if t.text == "}")
        assert opens == closes  # every span is brace-balanced
    for i, m1 in enumerate(methods):
        for m2 in methods[i + 1 :]:
            s1 = set(range(m1.start_line, m1.end_line + 1))
            s2 = set(range(m2.start_line, m2.end_line + 1))
            overlap = s1 & s2
            assert not overlap or s1 <= s2 or s2 <= s1


def test_map_added_lines_dedupes_and_sorts():
    methods = extract_methods(SIMPLE_CLASS)
    [(m, line_numbers)] = map_added_lines(methods, [5, 3, 5, 4])
    assert line_numbers == [3, 4, 5]


def test_full_path_total_on_token_soup():
    import random

    from repotailor.javalex import lex
    from repotailor.masking import SENTINEL, mask, segment

    rng = random.Random(2024)
    pieces = [
        "class", "interface", "enum", "{", "}", "(", ")", ";", "void", "int",
        "foo", "bar", "=", '"str"', "'c'", "//x\n", "/*y*/", "\n", " ",
        "@Anno", "new", "->", "::", "<T>", "[]", ",", "...", "0x1F",
        "1.5e3", "é", "世", '"""', "\\",
    ]
    for _ in range(1500):
        src = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 80)))
        assert_tokens_cover(src, lex(src))
        methods = extract_methods(src)
        for m in methods:
            apply_method_filters(m)
            lines = rng.sample(range(1, m.end_line + 2), min(3, m.end_line))
            for mm, line_numbers in map_added_lines(methods, lines):
                for seg in segment(line_numbers, mm):
                    inst = mask(seg, mm, rng)
                    if inst is not None:
                        assert inst.context.count(SENTINEL) == 1
                        assert inst.context.replace(SENTINEL, inst.target, 1) == mm.text


def _fixture_sources() -> list[str]:
    """Every Java source string in this module, plus the shape the
    fixture repositories commit."""
    import ast

    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    sources = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "{" in node.value
    ]
    sources.append(_method_source("Fixture", ["int a = seed + 1;", "scale = a * 2;"]))
    return sources


def _fragments(sources: list[str]) -> list[str]:
    """Balanced and unbalanced fragments of ``sources``."""
    import random

    rng = random.Random(7)
    fragments = ["", "class A {}", "class A { { }", "}{", "class A { void m() { } } }"]
    for src in sources:
        lines = src.split("\n")
        # every line prefix and suffix: balanced and unbalanced fragments
        fragments += ["\n".join(lines[:k]) for k in range(len(lines))]
        fragments += ["\n".join(lines[k:]) for k in range(1, len(lines))]
        fragments += [src.replace("}", "", 1), src + "}", "{" + src]
        cut = rng.randrange(len(src) + 1)
        fragments.append(src[:cut] + src[cut:].replace("{", "", 1))
    return fragments


def test_parse_methods_agrees_with_is_parsable_and_extract_methods():
    sources = _fixture_sources()
    fragments = _fragments(sources)
    seen = {True: 0, False: 0}
    for src in sources + fragments:
        parsed = parse_methods(src)
        assert is_parsable(src) == (parsed is not None) == _braces_balanced(lex(src)), src
        assert (parsed or []) == extract_methods(src), src
        seen[parsed is not None] += 1
    assert len(sources) >= 25 and min(seen.values()) >= 100, seen
    assert parse_methods("class A {}") == []  # parsable, no methods: not None


def test_parse_methods_equals_reference_on_fixtures_and_fragments():
    sources = _fixture_sources()
    found = 0
    for src in sources + _fragments(sources):
        parsed = parse_methods(src)
        assert parsed == reference_parse_methods(src), src
        found += len(parsed or ())
    assert found >= 50


def _table_class(rows: int, row_of=lambda i: f"{{{i}, {i * 7 % 100}, -{i}}},") -> str:
    """A class with a ``rows``-row table initializer and three methods."""
    table = "\n".join(f"        {row_of(i)}" for i in range(rows))
    return f"""package p;

public class Table {{
    static final int[][] TABLE = {{
{table}
    }};

    public int lookup(int row, int col) {{
        int[] r = TABLE[row];
        return r[col] / 2;
    }}

    int width() {{
        return TABLE.length == 0 ? 0 : TABLE[0].length;
    }}

    static int sum(int[][] t) {{
        int s = 0;
        for (int[] r : t) {{ for (int v : r) {{ s += v; }} }}
        return s;
    }}
}}
"""


TABLE_HEAVY = [
    _table_class(300),
    _table_class(200, lambda i: f'{{"{{", "}}", ";", "/*", "{i}"}}, // row {{ {i} }}'),
    _table_class(200, lambda i: f"{{'{{', '}}', ';', '/'}}, /* {{ }} ; */"),
    _table_class(100, lambda i: f"{{{{{i}}}, {{{i}, {i}}}}},"),
    _table_class(60, lambda i: f"{{new int[] {{{i}}}, new Object() {{ public String toString() {{ return \"{i}\"; }} }}}},"),
    _table_class(60, lambda i: f"{{x -> {{ return {i}; }}, () -> {{ }}}},"),
    """class Init {
    static int[][] t;
    static {
        t = new int[][] { {1, 2}, {3, 4} };
        Runnable r = new Runnable() { public void run() { t[0][0] = 5; } };
        class Local { int get() { return t[1][1]; } }
    }
    enum Level { LOW { int rank() { return 1; } }, HIGH(new int[][] { {2} }) { int rank() { return 2; } };
        Level() { }
        Level(int[][] x) { }
        int rank() { return 0; }
    }
    interface Shape { int[][] UNIT = { {0, 0}, {1, 1} }; default int area() { return UNIT.length; } }
    record Point(int x, int y) { static final int[] ORIGIN = {0, 0}; int dist() { return x / y; } }
}
""",
]


def test_parse_methods_equals_reference_on_table_heavy_classes():
    for src in TABLE_HEAVY:
        parsed = parse_methods(src)
        assert parsed == reference_parse_methods(src), src[:200]
        assert parsed, src[:200]


# Blocks and types nested inside methods; as string constants of this
# module they are fixture sources too (see `_fixture_sources`).
NESTED_BLOCKS = """class Deep {
    int depth(int[] xs, Object lock) {
        int total = 0;
        if (xs != null) {
            for (int x : xs) {
                try {
                    switch (x) {
                        case 1: { total += 1; break; }
                        default: synchronized (lock) { total += x; }
                    }
                } catch (RuntimeException e) {
                    total = -1;
                } finally {
                    Runnable r = () -> { if (x > 0) { log(x); } };
                }
            }
        } else {
            while (total < 3) { total++; }
        }
        return total;
    }

    int flat(int a) {
        return a + 1;
    }

    String pick(int k) {
        return switch (k) {
            case 0 -> { yield "zero"; }
            default -> { synchronized (this) { yield "many"; } }
        };
    }
}
"""

NESTED_ANONYMOUS = """class Anon {
    Runnable outer() {
        return new Runnable() {
            public void run() {
                Supplier<Object> s = () -> new Object() {
                    @Override
                    public String toString() {
                        Runnable inner = new Runnable() {
                            public void run() { if (done) { count++; } }
                        };
                        return "x";
                    }
                };
                s.get();
            }
        };
    }
}
"""

NESTED_LOCAL_TYPES = """class Locals {
    int work(int n) {
        class Helper {
            int twice(int v) { return v * 2; }
        }
        record Pair(int a, int b) {
            int sum() { return a + b; }
        }
        enum Mode {
            ON, OFF;
            boolean on() { return this == ON; }
        }
        interface Op {
            int apply(int v);
            default int again(int v) { return apply(apply(v)); }
        }
        for (int i = 0; i < n; i++) {
            n += new Helper().twice(i);
        }
        return n;
    }
}
"""

NESTED_LEFT_OPEN = """class Open {
    void m() {
        if (ready) {
            go();
        }
        while (true) {
            spin();
"""

NESTED_STRAY_CLOSE = """class Stray {
    void m() {
        if (ready) { go(); } }
        done();
    }
}
"""


def test_parse_methods_walks_into_method_bodies():
    expected = {
        NESTED_BLOCKS: [("depth", 2, 21), ("flat", 23, 25), ("pick", 27, 32)],
        NESTED_ANONYMOUS: [
            ("outer", 2, 17), ("run", 4, 15), ("toString", 6, 12), ("run", 9, 9),
        ],
        NESTED_LOCAL_TYPES: [
            ("work", 2, 21), ("twice", 4, 4), ("sum", 7, 7), ("on", 11, 11), ("again", 15, 15),
        ],
    }
    for src, spans in expected.items():
        parsed = parse_methods(src)
        assert parsed == reference_parse_methods(src), src
        assert [(m.name, m.start_line, m.end_line) for m in parsed] == spans
    for src in (NESTED_LEFT_OPEN, NESTED_STRAY_CLOSE, NESTED_BLOCKS + "}", "}" + NESTED_ANONYMOUS):
        assert parse_methods(src) is None and reference_parse_methods(src) is None, src


# Brace groups that hold no other brace, which the walk skips whole in
# code (see `SCAN_CODE`); as string constants of this module they are
# fixture sources too.
GROUPS_TWO_DEEP = """class Cube {
    static final int[][][] CUBE = {
        { {1, 2}, {3, 4} },
        { {5}, {} },
    };

    int corner(int[][][] c) {
        int[][] face = { {1, 2}, {3, 4} };
        int[][][] more = { { {0} }, { {1}, {2, 3} } };
        return c[0][0][0] + face[1][1] + more.length;
    }
}
"""

GROUPS_ANONYMOUS = """class Anon2 {
    Object none = new Object() {};
    Object one = new Object() { public int hashCode() { return 7; } };

    Object both(int k) {
        Object a = new Foo() {};
        Object b = new Foo() { int size() { return k; } };
        Object c = new Foo(new int[] {k}) { };
        return k > 0 ? a : b;
    }
}
"""

GROUPS_QUOTED = r'''class Quoted {
    String[] marks(int x) {
        String[] s = { "}", "{", ";", "/*", "\"}" };
        char[] c = { '}', '{', ';', '\\' };
        int[] n = { 1 /* } { ; */, 2 // } {
        };
        String t = call({ """
            } { ; " }
            """, "" });
        return s;
    }

    int after() { return 2; }
}
'''

GROUPS_LEFT_OPEN = [
    "class A {\n    void f() {\n        int[] a = { 1, 2;\n    }\n}\n",
    "class A {\n    void f() {\n        int[] a = { 1, 2\n",
    "class A {\n    void f() {\n        x = { {1}, {2 };\n    }\n}\n",
    "int[] a = { 1, 2",
]


def _long_runs() -> str:
    """A method body and a table each longer than one step's run bound."""
    return (
        "class Long {\n    int many(int x) {\n"
        + "        x += 1; if (x > 9) { x = 0; }\n" * (_RUN + 10)
        + "        class Inner { int deep() { return x; } }\n"
        + "        return x;\n    }\n\n    static final int[][] ROWS = {\n"
        + "        {1, 2},\n" * (2 * _RUN + 3)
        + "    };\n\n    int after() { return 3; }\n}\n"
    )


def test_walk_skips_groups_that_hold_no_brace():
    """A group without an inner brace declares no method, so skipping it
    finds the methods the reference does: in tables two levels deep,
    after anonymous classes with and without methods, around braces and
    ";" in strings, chars, text blocks and comments, and past the bound
    of one step. A group left open is unparsable."""
    n = _RUN + 10
    expected = {
        GROUPS_TWO_DEEP: [("corner", 7, 11)],
        GROUPS_ANONYMOUS: [("hashCode", 3, 3), ("both", 5, 10), ("size", 7, 7)],
        GROUPS_QUOTED: [("marks", 2, 11), ("after", 13, 13)],
        _long_runs(): [("many", 2, n + 5), ("deep", n + 3, n + 3), ("after", n + 2 * _RUN + 13, n + 2 * _RUN + 13)],
    }
    for src, spans in expected.items():
        parsed = parse_methods(src)
        assert parsed == reference_parse_methods(src), src
        assert [(m.name, m.start_line, m.end_line) for m in parsed] == spans
    for src in GROUPS_LEFT_OPEN:
        assert parse_methods(src) is None and reference_parse_methods(src) is None, src


@pytest.mark.skipif(not HAS_PEAK_KB, reason="reads the peak resident set from /proc")
def test_walk_over_a_huge_table_holds_little_memory():
    """Walking a 200,000-row table keeps no state that grows with it: a
    process's peak memory rises by less than 2 MB over the source, and
    the method after the table is found. (A greedy repeat in
    `SCAN_CODE` raised it by about 20 MB.)"""
    probe = (
        "from repotailor.javamethods import method_spans\n"
        "rows = ''.join(f'        {{{i}, {i * 7 % 100}, -{i}}},\\n' for i in range(200_000))\n"
        "src = 'class T {\\n    static final int[][] ROWS = {\\n' + rows + '    };\\n'\n"
        "src += '    int after(int x) {\\n        return x + 1;\\n    }\\n}\\n'\n"
        "del rows\n"
        f"before = {PEAK_KB}\n"
        "spans = method_spans(src, {})\n"
        f"print({PEAK_KB} - before, *[s.name for s in spans])\n"
    )
    growth, *names = run_python(probe).split()
    assert names == ["after"] and int(growth) < 2048, (growth, names)


_FUZZ_TRIVIA = [
    '"{"', '"}"', '";"', '"a/b"', "'{'", "'}'", "';'", "'/'", "'\\''", '"\\"{"',
    '"""\n  { } ; " \n  """', "// { } ; /* \n", "/* { } ; // */", "/** } { */",
    '"{ ; unterminated\n', "'{\n", '"ends with a backslash \\\n} still a string"',
]
_FUZZ_TAILS = ["/* { never closed", '"""{ never closed', "// {"]
_FUZZ_NAMES = ["a", "run", "größe", "名前", "$x", "_y", "value1", "record", "Über"]


def _fuzz_expr(rng) -> str:
    n = rng.choice(_FUZZ_NAMES)
    return rng.choice([
        f"{n} / 2", f"{n} /= 3", f"{n} + {rng.choice(_FUZZ_TRIVIA)}", "new int[] {1, 2}",
        f"x -> {{ return {n}; }}", "() -> { }", f"new Object() {{ int h() {{ return {n}; }} }}",
        "new Runnable() { public void run() { } }", f"{n}.apply((a, b) -> a)", "1 / 2.0 /* / */",
    ])


def _fuzz_body(rng, depth: int) -> str:
    out = []
    for _ in range(rng.randint(0, 4)):
        pick = rng.random()
        if pick < 0.45:
            out.append(f"int {rng.choice(_FUZZ_NAMES)} = {_fuzz_expr(rng)};")
        elif pick < 0.6:
            out.append(rng.choice(_FUZZ_TRIVIA))
        elif pick < 0.75 and depth < 2:
            out.append(f"if (a > 0) {{ {_fuzz_body(rng, depth + 1)} }}")
        elif pick < 0.85 and depth < 2:
            out.append(f"class L{depth} {{ {_fuzz_member(rng, depth + 1)} }}")
        else:
            out.append(f"Runnable r = () -> {{ {_fuzz_body(rng, depth + 1) if depth < 2 else ''} }};")
    return rng.choice([" ", "\n        "]).join(out)


def _fuzz_member(rng, depth: int) -> str:
    n = rng.choice(_FUZZ_NAMES)
    pick = rng.randrange(10)
    if pick == 0:
        rows = ", ".join(f"{{{rng.randrange(9)}, {rng.choice(_FUZZ_TRIVIA)}}}" for _ in range(rng.randint(0, 4)))
        return f"static final Object[][] T{depth} = {{{rows}}};"
    if pick == 1:
        return f"Runnable {n} = new Runnable() {{ public void run() {{ {_fuzz_body(rng, depth + 1)} }} }};"
    if pick == 2 and depth < 2:
        return f"enum E{depth} {{ A {{ void f() {{ {_fuzz_body(rng, depth + 1)} }} }}, B(1) {{ }}, C; E{depth}() {{ }} E{depth}(int x) {{ }} }}"
    if pick == 3 and depth < 2:
        return f"record R{depth}(int x, int y) {{ R{depth} {{ }} int sum() {{ return x / y; }} }}"
    if pick == 4:
        return f"@A({{1, 2}}) @B(x = {{\"}}\"}}) void {n}() {{ {_fuzz_body(rng, depth + 1)} }}"
    if pick == 5 and depth < 2:
        return f"static class N{depth} {{ {_fuzz_member(rng, depth + 1)} }}"
    if pick == 6:
        return f"static {{ {_fuzz_body(rng, depth + 1)} }}"
    if pick == 7:
        return f"abstract int {n}(int a); int f{depth} = {_fuzz_expr(rng)};"
    throws = rng.choice(["", " throws java.io.IOException"])
    return f"public <T> int {n}(int a, Map<String, List<T>> m){throws} {{ {_fuzz_body(rng, depth + 1)} }}"


def _fuzz_source(rng) -> str:
    members = "\n    ".join(_fuzz_member(rng, 0) for _ in range(rng.randint(1, 5)))
    kind = rng.choice(["class", "interface", "enum", "record"])
    header = {"enum": "enum K { X, Y;", "record": "record K(int v) {"}.get(kind, f"{kind} K {{")
    src = f"package p;\n\n{header}\n    {members}\n}}\n"
    mutation = rng.random()
    if mutation < 0.15:
        cut = rng.randrange(len(src) + 1)
        src = src[:cut] + rng.choice(_FUZZ_TRIVIA + _FUZZ_TAILS) + src[cut:]
    elif mutation < 0.25:
        src = src[: rng.randrange(len(src) + 1)]
    elif mutation < 0.3:
        src = src.replace(rng.choice("{}"), "", 1)
    elif mutation < 0.35:
        src += rng.choice(_FUZZ_TAILS)
    return src


def test_parse_methods_equals_reference_on_fuzzed_sources():
    import random

    rng = random.Random(4242)
    seen = {True: 0, False: 0}
    methods = 0
    for _ in range(1500):
        src = _fuzz_source(rng)
        parsed = parse_methods(src)
        assert parsed == reference_parse_methods(src), src
        seen[parsed is not None] += 1
        methods += len(parsed or ())
    assert min(seen.values()) >= 50 and methods >= 2000, (seen, methods)


def test_parse_methods_lexes_only_headers_and_methods(monkeypatch):
    """The tokens lexed are at most the methods' tokens plus the header
    tokens before each '{' outside them; a table row is never lexed."""
    src = _table_class(2000, lambda i: f"{{{i}, {i + 1}, {i + 2}, {i + 3}, {i + 4}, {i + 5}}},")
    lexed = []

    def counting(*args, **kwargs):
        tokens = lex(*args, **kwargs)
        lexed.append(len(tokens))
        return tokens

    monkeypatch.setattr(javamethods, "lex", counting)
    methods = parse_methods(src)
    monkeypatch.undo()
    assert methods == reference_parse_methods(src) and len(methods) == 3
    inside = {(t.line, t.col) for m in methods for t in m.tokens}
    headers = 0
    seg_start = 0
    whole = lex(src)
    for idx, tok in enumerate(whole):
        if tok.text == "{" and (tok.line, tok.col) not in inside:
            headers += idx - seg_start
        if tok.text in ("{", "}", ";"):
            seg_start = idx + 1
    assert len(whole) > 2000 * 13
    assert 0 < sum(lexed) <= sum(m.token_count for m in methods) + headers


def test_parse_methods_lexes_no_range_twice_in_type_free_methods(monkeypatch):
    """Blocks inside a method are stepped over, not lexed as headers, so
    no text is lexed twice when no method declares a type."""
    for src in (NESTED_BLOCKS, _table_class(200)):
        ranges = []

        def recording(source, start=0, end=None, line=1):
            ranges.append((start, len(source) if end is None else end))
            return lex(source, start, end, line)

        monkeypatch.setattr(javamethods, "lex", recording)
        methods = parse_methods(src)
        monkeypatch.undo()
        assert methods == reference_parse_methods(src) and len(methods) == 3
        ranges.sort()
        assert all(end <= start for (_, end), (start, _) in zip(ranges, ranges[1:])), ranges


def test_method_spans_lex_no_body_and_build_the_parsed_methods(monkeypatch):
    """`method_spans` finds what `parse_methods` does, lexing only the
    header before a '{' (in a body too, where it may declare a type),
    and `method_unit` lexes a span to the parsed method."""
    import random

    rng = random.Random(4243)
    sources = _fixture_sources()
    inputs = sources + _fragments(sources) + [_fuzz_source(rng) for _ in range(300)]
    inputs += [NESTED_BLOCKS, _table_class(200)]
    methods = 0
    for src in inputs:
        ranges = []

        def recording(source, start=0, end=None, line=1):
            ranges.append((start, len(source) if end is None else end))
            return lex(source, start, end, line)

        monkeypatch.setattr(javamethods, "lex", recording)
        spans = method_spans(src, {})
        monkeypatch.undo()
        parsed = parse_methods(src)
        assert (spans is None) == (parsed is None), src
        assert all(src[end] == "{" for _, end in ranges), (src, ranges)
        if spans is None:
            continue
        lines = src.split("\n")
        assert [method_unit(src, span, lines) for span in spans] == parsed, src
        for span, m in zip(spans, parsed):
            assert (span.name, span.signature, span.start_line, span.end_line) == (
                m.name, m.signature, m.start_line, m.end_line
            )
            assert src[span.open] == "{" and src[span.close] == "}"
        methods += len(spans)
    assert methods >= 500, methods


DROP_REASONS = """class Reasons {
    void testSomething() { int a = 1 + 2 + 3 + 4 + 5 + 6; }
    void empty() { /* only a comment */ }
    int tiny() { return 1; }
    int kept(int a) { return a + a * 2 - a / 3 + 1; }
    String greet() { return "名前" + 1 + 2 + 3 + 4 + 5 + 6; }
    int huge(int a) {
""" + "        a += 1 + 2 + 3;\n" * 80 + "        return a;\n    }\n}\n"


def test_method_counts_equal_the_lexed_unit_and_its_verdict():
    """`method_counts` gives the counts, lines and text of the span's
    MethodUnit, so the filters drop a method for the same reason, on
    ASCII and non-ASCII sources and for every reason."""
    import random

    rng = random.Random(4244)
    inputs = [DROP_REASONS, DROP_REASONS.replace("名前", "name")] + _fixture_sources()
    inputs += [_fuzz_source(rng) for _ in range(500)] + TABLE_HEAVY
    reasons = {True: set(), False: set()}  # by whether the source is ASCII
    for src in inputs:
        lines = src.split("\n")
        for span in method_spans(src, {}) or ():
            unit, counts = method_unit(src, span, lines), method_counts(src, span, lines)
            assert counts == (
                unit.name, unit.signature, unit.start_line, unit.end_line,
                unit.token_count, unit.body_token_count, unit.text,
            ), src
            verdict = apply_method_filters(counts)
            assert verdict == apply_method_filters(unit), src
            reasons[src.isascii()].add(verdict.reason)
    every = {REASON_OK, REASON_TEST_NAME, REASON_EMPTY_BODY, REASON_TOO_SHORT, REASON_TOO_LONG, REASON_NON_LATIN}
    assert reasons == {True: every - {REASON_NON_LATIN}, False: every}


# One header text in two places that differ in one part of what a header's
# tokens and class depend on: its line, its column, the enclosing type's
# kind, and whether the source is ASCII.
SHARED_HEADERS = [
    "class A {\n    int f(int a) {\n        return a + 1;\n    }\n}\n",
    "// one line lower\nclass A {\n    int f(int a) {\n        return a + 1;\n    }\n}\n",
    "class C {\n    void g() {\n    } int f(int a) {\n        return a;\n    }\n"
    "    void h() {\n        } int f(int a) {\n        return a;\n    }\n}\n",
    # a constant with a body under an enum, a constructor-shaped method under a class
    "enum Ee {\n    A(1) {\n        int v() { return 1; }\n    };\n    Ee(int v) {\n    }\n}\n",
    "class K {\n    A(1) {\n        return;\n    }\n}\n",
    "class A {\n    int f(int a) {\n        return a + 1; // größe\n    }\n}\n",
]


def test_method_spans_with_one_memo_equal_those_with_a_fresh_one(monkeypatch):
    """One memo shared across many sources gives each the spans, header
    tokens included, that a fresh memo gives it, while lexing fewer
    headers."""
    import random

    rng = random.Random(4243)
    sources = _fixture_sources()
    inputs = sources + _fragments(sources) + [_fuzz_source(rng) for _ in range(300)]
    inputs += [NESTED_BLOCKS, _table_class(200), *SHARED_HEADERS, *reversed(SHARED_HEADERS)]
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return lex(*args)

    monkeypatch.setattr(javamethods, "lex", counting)
    memo: dict = {}
    fresh_calls = shared_calls = spans = 0
    for src in inputs:
        before = calls
        fresh = method_spans(src, {})
        fresh_calls += calls - before
        before = calls
        assert method_spans(src, memo) == fresh, src
        shared_calls += calls - before
        spans += len(fresh or ())
    assert spans >= 500 and shared_calls < fresh_calls / 2, (spans, shared_calls, fresh_calls)


EDGE_METHOD_TEXTS = [
    # the text's first line may open a char, string or text block that
    # the whole source closed earlier, so it need not lex to a '{'
    "     * Don't do this. */ int m(int a) { return a + a + a + a + a + a + a; }",
    '    """; int m(int a) {\n        return a;\n    }',
    "int m() {",
    "",
]


def test_method_from_text_equals_reference():
    import random

    sources = _fixture_sources()
    rng = random.Random(4242)
    texts = [(t, "m", "m()") for t in EDGE_METHOD_TEXTS]
    for src in sources + _fragments(sources) + [_fuzz_source(rng) for _ in range(500)]:
        texts += [(m.text, m.name, m.signature) for m in parse_methods(src) or ()]
    assert len(texts) >= 1000
    for text, name, signature in texts:
        assert method_from_text(text, name, signature) == reference_method_from_text(text, name, signature), text


def test_latin_only_equals_reference():
    import random

    for c in range(0x300):
        assert _latin_only(chr(c)) == reference_latin_only(chr(c)), hex(c)
    assert _latin_only("") and reference_latin_only("")
    rng = random.Random(11)
    alphabet = [chr(c) for c in (*range(0x00, 0x120), 0x2028, 0x3000, 0x4E16, 0xFEFF, 0x1F600)]
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        if rng.random() < 0.5:
            text = "".join(c for c in text if c <= "\xff") or text
        assert _latin_only(text) == reference_latin_only(text), repr(text)
