from __future__ import annotations

from pathlib import Path

from repotailor.javamethods import (
    REASON_EMPTY_BODY,
    REASON_NON_LATIN,
    REASON_OK,
    REASON_TEST_NAME,
    REASON_TOO_LONG,
    REASON_TOO_SHORT,
    AddedLine,
    apply_method_filters,
    extract_methods,
    is_parsable,
    map_added_lines,
    name_words,
    parse_methods,
)

from conftest import _method_source, method_of

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
    assert map_added_lines(methods, [AddedLine("f", 1, "class Greeter {")]) == []


def test_map_added_lines_running_example():
    source = "class C {\n    void build() {\n" + "\n".join(
        f"        int v{i} = {i} + {i};" for i in range(12)
    ) + "\n    }\n}"
    methods = extract_methods(source)
    lines = [AddedLine("f", n, "") for n in (4, 5, 6, 7, 8, 14)]
    mapped = map_added_lines(methods, lines)
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
    mapped = map_added_lines(methods, [AddedLine("f", 5, "int inner = 1;")])
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
    lines = [AddedLine("f", n, "") for n in (5, 3, 5, 4)]
    [(m, line_numbers)] = map_added_lines(methods, lines)
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
        toks = lex(src)
        assert "".join(t.text for t in toks) == src
        methods = extract_methods(src)
        for m in methods:
            apply_method_filters(m)
            lines = [
                AddedLine("f", n, "")
                for n in rng.sample(range(1, m.end_line + 2), min(3, m.end_line))
            ]
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


def test_parse_methods_agrees_with_is_parsable_and_extract_methods():
    import random

    rng = random.Random(7)
    sources = _fixture_sources()
    fragments = ["", "class A {}", "class A { { }", "}{", "class A { void m() { } } }"]
    for src in sources:
        lines = src.split("\n")
        # every line prefix and suffix: balanced and unbalanced fragments
        fragments += ["\n".join(lines[:k]) for k in range(len(lines))]
        fragments += ["\n".join(lines[k:]) for k in range(1, len(lines))]
        fragments += [src.replace("}", "", 1), src + "}", "{" + src]
        cut = rng.randrange(len(src) + 1)
        fragments.append(src[:cut] + src[cut:].replace("{", "", 1))
    seen = {True: 0, False: 0}
    for src in sources + fragments:
        parsed = parse_methods(src)
        assert (parsed is not None) == is_parsable(src), src
        assert (parsed or []) == extract_methods(src), src
        seen[parsed is not None] += 1
    assert len(sources) >= 25 and min(seen.values()) >= 100, seen
    assert parse_methods("class A {}") == []  # parsable, no methods: not None
